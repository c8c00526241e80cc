//! # tsdx-bench
//!
//! The experiment harness regenerating every table and figure of the
//! evaluation (see `DESIGN.md` §4 and `EXPERIMENTS.md`). One binary,
//! `reproduce`, runs them all (or the ones it is given by name) on one
//! shared standard dataset. Shared setup lives here. Timing lives
//! elsewhere: `benchmark/run.sh --trace 1` reports a per-layer waterfall.
//!
//! `reproduce --quick` runs a reduced-size variant (a smoke test: it prints
//! and writes nothing under `results/`; the numbers in `EXPERIMENTS.md` come
//! from the full settings), and `--resume` checkpoints every training stage
//! of a full run to `results/checkpoints/<experiment>/<stage>.ckpt` and
//! continues from there after a crash or kill (see [`fit_model`]).
//! `reproduce` refuses `--quick` with `--resume`: a quick run takes seconds,
//! and its checkpoints would be restored by a later full `--resume` run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::{Display, Write as _};
use std::path::PathBuf;

use tsdx_core::{ClipModel, ModelConfig, ResilienceConfig, TrainConfig, VideoScenarioTransformer};
use tsdx_data::{generate_dataset, stratified_split, Clip, DatasetConfig, Split};
use tsdx_nn::LrSchedule;

/// Seed used by every experiment unless stated otherwise.
pub const STD_SEED: u64 = 17;

/// Where `--resume` checkpoints live, one subdirectory per experiment (see
/// [`stage_checkpoint_path`]). Delete this directory to force every
/// experiment to start from scratch.
pub fn checkpoint_dir() -> PathBuf {
    PathBuf::from("results").join("checkpoints")
}

/// The `--resume` checkpoint path of training stage `stage` of experiment
/// `experiment`: `results/checkpoints/<experiment>/<stage>.ckpt`.
///
/// Stage names like `"cnn-gru"` repeat across experiments, so each
/// experiment gets its own directory; without it, two experiments would
/// restore each other's half-trained models from the same file.
pub fn stage_checkpoint_path(experiment: &str, stage: &str) -> PathBuf {
    checkpoint_dir().join(experiment).join(format!("{stage}.ckpt"))
}

/// Standard dataset configuration (32×32 px, 8 frames, mild noise).
pub fn standard_dataset_config(n_clips: usize) -> DatasetConfig {
    DatasetConfig { n_clips, base_seed: STD_SEED, ..DatasetConfig::default() }
}

/// Generates the standard evaluation dataset. Clip `i` depends only on
/// `STD_SEED + i`, so `standard_clips(n)[..m] == standard_clips(m)`: one
/// call serves every experiment through a prefix.
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

/// One experiment's run: its name (the `--resume` namespace and the file
/// stem under `results/`), the text it printed and its log.
pub struct Experiment {
    /// Experiment name, e.g. `"table2"`.
    pub name: &'static str,
    /// Training stages checkpoint and resume (see [`fit_model`]).
    pub resume: bool,
    /// Everything printed to stdout: the experiment's tables.
    pub out: String,
    /// Dataset and split sizes, per-epoch training losses, notes.
    pub log: String,
}

impl Experiment {
    /// An experiment that has printed and logged nothing yet.
    pub fn new(name: &'static str, resume: bool) -> Self {
        Experiment { name, resume, out: String::new(), log: String::new() }
    }

    /// Prints `text` and a newline to stdout and keeps it in [`Self::out`].
    pub fn line(&mut self, text: impl Display) {
        let text = format!("{text}\n");
        print!("{text}");
        self.out.push_str(&text);
    }

    /// Prints `msg` to stderr and appends it to [`Self::log`].
    pub fn note(&mut self, msg: impl Display) {
        eprintln!("{msg}");
        writeln!(self.log, "{msg}").expect("writing to a String");
    }

    /// The standard split of `clips`, its sizes noted in the log.
    pub fn split(&mut self, clips: &[Clip]) -> Split {
        let split = standard_split(clips);
        let (tr, va, te) = (split.train.len(), split.val.len(), split.test.len());
        self.note(format_args!("{} clips: train {tr} / val {va} / test {te}", clips.len()));
        split
    }
}

/// Trains a fresh video scenario transformer on `train` (see [`fit_model`]).
pub fn fit_transformer(
    exp: &mut Experiment,
    stage: &str,
    cfg: ModelConfig,
    train: &[Clip],
    epochs: usize,
) -> VideoScenarioTransformer {
    let mut model = VideoScenarioTransformer::new(cfg, STD_SEED);
    fit_model(exp, stage, &mut model, train, epochs);
    model
}

/// Trains any [`ClipModel`] in place on every clip of `train` with the
/// standard schedule (callers that want flips pass [`augmented_train_set`])
/// and logs each epoch's mean loss to `exp`.
///
/// `stage` names this training stage. With `exp.resume` the stage
/// checkpoints to [`stage_checkpoint_path`]`(exp.name, stage)` after every
/// epoch and resumes from it when present, so interrupting and re-running
/// the experiment continues where it stopped (bit-identically). Without it
/// the stage trains exactly as before and no checkpoint is touched.
pub fn fit_model(
    exp: &mut Experiment,
    stage: &str,
    model: &mut dyn ClipModel,
    train: &[Clip],
    epochs: usize,
) {
    exp.note(format_args!("training {stage} on {} clips...", train.len()));
    let all: Vec<usize> = (0..train.len()).collect();
    let tc = standard_train_config(epochs, all.len(), 16);
    let mut resilience = ResilienceConfig::default();
    if exp.resume {
        let path = stage_checkpoint_path(exp.name, stage);
        let dir = path.parent().expect("stage checkpoint path has a directory");
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        exp.note(format_args!("  [resume] checkpointing to {}", path.display()));
        resilience = ResilienceConfig::resume_from(&path);
    }
    let report = tsdx_core::train_resilient(model, train, &all, &tc, &resilience)
        .unwrap_or_else(|e| panic!("training stage {stage} failed: {e}"));
    // A resumed run reports only the epochs it ran: the last ones.
    let first = epochs - report.epoch_losses.len();
    for (i, loss) in report.epoch_losses.iter().enumerate() {
        writeln!(exp.log, "[{stage}] epoch {:>3}: loss {loss:.4}", first + i)
            .expect("writing to a String");
    }
}

/// A fixed-width table with a title, header row, and data rows, as printed
/// (no trailing newline). Widths count characters, as `format!` pads.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut s = format!("\n== {title} ==");
    let mut line = |cells: &[String]| {
        let mut l = String::new();
        for (i, c) in cells.iter().enumerate() {
            l.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        s.push('\n');
        s.push_str(l.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    s
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f32) -> String {
    format!("{:.1}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

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
