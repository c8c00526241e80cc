//! Stage checkpoints are namespaced per experiment.
//!
//! Stage names (`"cnn-gru"`, `"video-transformer"`, …) repeat across
//! experiments, so two experiments run with `--resume` from the same working
//! directory would otherwise fight over one checkpoint file and could
//! silently restore each other's half-trained models. These tests pin the
//! namespaced layout and prove that two resumable stages running
//! *concurrently* with the same tag restore only their own state.

use std::path::{Path, PathBuf};

use tsdx_bench::{checkpoint_dir, stage_checkpoint_path};
use tsdx_core::{
    train_resilient, ClipModel, ModelConfig, ResilienceConfig, TrainConfig,
    VideoScenarioTransformer,
};
use tsdx_data::{generate_dataset, Clip, DatasetConfig};
use tsdx_nn::LrSchedule;
use tsdx_render::RenderConfig;

#[test]
fn stage_checkpoints_are_namespaced_per_experiment() {
    let a = stage_checkpoint_path("table2", "cnn-gru");
    let b = stage_checkpoint_path("fig3", "cnn-gru");
    // Distinct experiments means distinct *directories*, so no future stage
    // name collision inside one directory can alias across experiments.
    assert_ne!(a.parent(), b.parent(), "one stage name in two experiments shares a directory");
    assert_eq!(a, Path::new("results/checkpoints/table2/cnn-gru.ckpt"));
    assert_eq!(b, checkpoint_dir().join("fig3").join("cnn-gru.ckpt"));
}

fn tiny_model(seed: u64) -> VideoScenarioTransformer {
    VideoScenarioTransformer::new(
        ModelConfig {
            frames: 4,
            height: 16,
            width: 16,
            tubelet_t: 2,
            patch: 8,
            dim: 16,
            spatial_depth: 1,
            temporal_depth: 1,
            heads: 2,
            mlp_ratio: 2,
            dropout: 0.0,
            ..ModelConfig::default()
        },
        seed,
    )
}

fn tiny_clips() -> Vec<Clip> {
    generate_dataset(&DatasetConfig {
        n_clips: 8,
        render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
        ..DatasetConfig::default()
    })
}

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 4,
        schedule: LrSchedule::Constant(1e-3),
        ..TrainConfig::default()
    }
}

fn params_of(model: &VideoScenarioTransformer) -> Vec<(String, Vec<f32>)> {
    model.params().iter().map(|(n, t)| (n.to_string(), t.to_vec())).collect()
}

/// Runs one "stage": trains a fresh model seeded with `seed` against the
/// checkpoint at `path`, exactly as `fit_model` does under `--resume`.
fn run_stage(seed: u64, clips: &[Clip], epochs: usize, path: &Path) -> VideoScenarioTransformer {
    let idx: Vec<usize> = (0..clips.len()).collect();
    let mut model = tiny_model(seed);
    train_resilient(
        &mut model,
        clips,
        &idx,
        &train_cfg(epochs),
        &ResilienceConfig::resume_from(path),
    )
    .unwrap();
    model
}

#[test]
fn concurrent_stages_never_cross_restore() {
    // Two "binaries" (namespaces) run the same stage tag at once. The models
    // differ (seeds 10 and 20), so a shared checkpoint file would make at
    // least one resumed run restore the other's weights.
    let root = std::env::temp_dir().join(format!("tsdx-resume-ns-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let path_for = |ns: &str| -> PathBuf { root.join(stage_checkpoint_path(ns, "fit")) };
    let path_a = path_for("expA");
    let path_b = path_for("expB");
    assert_ne!(path_a, path_b);
    for p in [&path_a, &path_b] {
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
    }

    let clips = tiny_clips();

    // Phase 1: both stages train one epoch concurrently, checkpointing.
    std::thread::scope(|s| {
        s.spawn(|| run_stage(10, &clips, 1, &path_a));
        s.spawn(|| run_stage(20, &clips, 1, &path_b));
    });
    assert!(path_a.exists() && path_b.exists());

    // Phase 2: both stages are "re-run after a kill" concurrently, resuming
    // to two epochs. Each must continue from its *own* epoch-1 state.
    let mut resumed: Vec<(u64, VideoScenarioTransformer)> = Vec::new();
    std::thread::scope(|s| {
        let a = s.spawn(|| run_stage(10, &clips, 2, &path_a));
        let b = s.spawn(|| run_stage(20, &clips, 2, &path_b));
        resumed.push((10, a.join().unwrap()));
        resumed.push((20, b.join().unwrap()));
    });

    // Reference: the same stages trained straight through, no interruption.
    for (seed, model) in &resumed {
        let idx: Vec<usize> = (0..clips.len()).collect();
        let mut reference = tiny_model(*seed);
        train_resilient(&mut reference, &clips, &idx, &train_cfg(2), &ResilienceConfig::default())
            .unwrap();
        assert_eq!(
            params_of(model),
            params_of(&reference),
            "stage with seed {seed} did not resume from its own checkpoint"
        );
    }

    let _ = std::fs::remove_dir_all(&root);
}
