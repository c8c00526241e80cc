//! # tsdx-bench
//!
//! The experiment harness regenerating every table and figure of the
//! evaluation (see `DESIGN.md` §4 and `EXPERIMENTS.md`). Each experiment is
//! a binary under `src/bin/`; shared setup lives here.
//!
//! All experiments accept `--quick` to run a reduced-size variant (useful
//! for smoke-testing the harness; the reported numbers in `EXPERIMENTS.md`
//! come from the full settings) and `--resume` to checkpoint every training
//! stage to `results/checkpoints/` and continue from there after a crash or
//! kill (see [`fit_model`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;

use tsdx_core::{ClipModel, ModelConfig, ResilienceConfig, TrainConfig, VideoScenarioTransformer};
use tsdx_data::{generate_dataset, stratified_split, Clip, DatasetConfig, Split};
use tsdx_nn::LrSchedule;

/// Seed used by every experiment unless stated otherwise.
pub const STD_SEED: u64 = 17;

/// True when `flag` was passed on the command line.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// True when `--quick` was passed on the command line.
pub fn is_quick() -> bool {
    has_flag("--quick")
}

/// True when `--resume` was passed on the command line: training stages
/// checkpoint after every epoch and pick up from their last checkpoint, so
/// a killed experiment re-run with the same flags continues (and finished
/// stages are skipped) instead of starting over.
pub fn is_resume() -> bool {
    has_flag("--resume")
}

/// Where `--resume` checkpoints live. Each experiment binary gets its own
/// subdirectory (see [`stage_checkpoint_path`]). Delete this directory to
/// force every experiment to start from scratch.
pub fn checkpoint_dir() -> PathBuf {
    PathBuf::from("results").join("checkpoints")
}

/// The namespace separating this binary's stage checkpoints from every
/// other experiment's: the executable's file stem, or `"unknown"` when the
/// executable path cannot be determined.
pub fn stage_namespace() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `--resume` checkpoint path for stage `tag` of the *current* binary:
/// `results/checkpoints/<binary>/<tag>.ckpt`.
///
/// Stage tags are short names like `"fit"` or `"joint"` and repeat across
/// experiments, so checkpoints are namespaced per binary — without this,
/// `table2_extraction --resume` and `table3_ablations --resume` would
/// restore each other's half-trained models from the same file.
pub fn stage_checkpoint_path(tag: &str) -> PathBuf {
    stage_checkpoint_path_in(&stage_namespace(), tag)
}

/// [`stage_checkpoint_path`] for an explicit namespace (tests use this to
/// simulate several binaries inside one process).
pub fn stage_checkpoint_path_in(namespace: &str, tag: &str) -> PathBuf {
    checkpoint_dir().join(namespace).join(format!("{tag}.ckpt"))
}

/// Standard dataset configuration (32×32 px, 8 frames, mild noise).
pub fn standard_dataset_config(n_clips: usize) -> DatasetConfig {
    DatasetConfig { n_clips, base_seed: STD_SEED, ..DatasetConfig::default() }
}

/// Generates the standard evaluation dataset.
pub fn standard_clips(n_clips: usize) -> Vec<Clip> {
    generate_dataset(&standard_dataset_config(n_clips))
}

/// Standard 70/10/20 stratified split.
pub fn standard_split(clips: &[Clip]) -> Split {
    stratified_split(clips, (0.7, 0.1), STD_SEED)
}

/// Training configuration scaled to the dataset size.
pub fn standard_train_config(epochs: usize, n_train: usize, batch_size: usize) -> TrainConfig {
    let steps_per_epoch = n_train.div_ceil(batch_size) as u32;
    let total = (epochs as u32) * steps_per_epoch;
    TrainConfig {
        epochs,
        batch_size,
        schedule: LrSchedule::WarmupCosine {
            base: 1e-3,
            warmup: (total / 20).max(5),
            total,
            min: 5e-5,
        },
        seed: STD_SEED,
        verbose: true,
    }
}

/// Materializes the training set selected by `idx`, doubled with
/// horizontal flips (the standard augmentation of the evaluation).
pub fn augmented_train_set(clips: &[Clip], idx: &[usize]) -> Vec<Clip> {
    let selected: Vec<Clip> = idx.iter().map(|&i| clips[i].clone()).collect();
    tsdx_data::augment_with_flips(&selected)
}

/// Trains a fresh video scenario transformer on the flip-augmented
/// `clips[idx]`. `tag` names this stage's `--resume` checkpoint.
pub fn fit_transformer(
    tag: &str,
    cfg: ModelConfig,
    clips: &[Clip],
    idx: &[usize],
    epochs: usize,
) -> VideoScenarioTransformer {
    let mut model = VideoScenarioTransformer::new(cfg, STD_SEED);
    fit_model(tag, &mut model, clips, idx, epochs);
    model
}

/// Trains any [`ClipModel`] in place on the flip-augmented `clips[idx]`
/// with the standard schedule.
///
/// `tag` names this training stage; with `--resume` on the command line the
/// stage checkpoints to `results/checkpoints/<binary>/<tag>.ckpt` (see
/// [`stage_checkpoint_path`]) after every epoch and resumes from it when
/// present, so interrupting and re-running the experiment continues where
/// it stopped (bit-identically). Without `--resume` the stage trains
/// exactly as before and no checkpoint is touched.
pub fn fit_model(
    tag: &str,
    model: &mut dyn ClipModel,
    clips: &[Clip],
    idx: &[usize],
    epochs: usize,
) {
    let train = augmented_train_set(clips, idx);
    let all: Vec<usize> = (0..train.len()).collect();
    let tc = standard_train_config(epochs, all.len(), 16);
    if is_resume() {
        let path = stage_checkpoint_path(tag);
        let dir = path.parent().expect("stage checkpoint path has a directory");
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        eprintln!("  [resume] checkpointing to {}", path.display());
        tsdx_core::train_resilient(model, &train, &all, &tc, &ResilienceConfig::resume_from(&path))
            .unwrap_or_else(|e| panic!("resumable training for {tag} failed: {e}"));
    } else {
        tsdx_core::train(model, &train, &all, &tc);
    }
}

/// Prints a fixed-width table with a title, header row, and data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f32) -> String {
    format!("{:.1}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_flag_reads_args() {
        // No --quick in the test harness invocation.
        assert!(!is_quick() || std::env::args().any(|a| a == "--quick"));
    }

    #[test]
    fn standard_split_shapes() {
        let clips = standard_clips(40);
        let split = standard_split(&clips);
        assert_eq!(split.len(), 40);
        assert!(split.train.len() >= 24);
        assert!(!split.test.is_empty());
    }

    #[test]
    fn train_config_schedule_scales_with_steps() {
        let tc = standard_train_config(10, 160, 16);
        match tc.schedule {
            LrSchedule::WarmupCosine { total, .. } => assert_eq!(total, 100),
            other => panic!("unexpected schedule {other:?}"),
        }
    }
}
