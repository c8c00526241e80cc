//! Kill-and-resume determinism: a training run interrupted at epoch k and
//! resumed from its crash-safe checkpoint must end with parameters
//! bit-identical to a never-interrupted run.

use tsdx::core::{ClipModel, ModelConfig, ResilienceConfig, TrainConfig, VideoScenarioTransformer};
use tsdx::data::{generate_dataset, Clip, DatasetConfig};
use tsdx::nn::{read_train_checkpoint, LrSchedule};
use tsdx::render::RenderConfig;

fn tiny_cfg() -> ModelConfig {
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
        dropout: 0.0,
        ..ModelConfig::default()
    }
}

fn tiny_clips(n: usize) -> Vec<Clip> {
    generate_dataset(&DatasetConfig {
        n_clips: n,
        render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
        ..DatasetConfig::default()
    })
}

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 4,
        schedule: LrSchedule::Constant(2e-3),
        ..TrainConfig::default()
    }
}

fn params_of(model: &VideoScenarioTransformer) -> Vec<(String, Vec<f32>)> {
    model.params().iter().map(|(n, t)| (n.to_string(), t.to_vec())).collect()
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tsdx-resume-it-{name}-{}.ckpt", std::process::id()))
}

#[test]
fn kill_and_resume_is_bit_identical() {
    let clips = tiny_clips(12);
    let idx: Vec<usize> = (0..12).collect();
    let full_cfg = train_cfg(4);

    // Reference: uninterrupted 4 epochs.
    let mut reference = VideoScenarioTransformer::new(tiny_cfg(), 5);
    tsdx::core::train_resilient(
        &mut reference,
        &clips,
        &idx,
        &full_cfg,
        &ResilienceConfig::default(),
    )
    .unwrap();

    // "Killed" run: 2 epochs with checkpointing, then the process dies
    // (we just drop the model), then a fresh differently-seeded model
    // resumes from the checkpoint and finishes.
    let path = tmp("killed");
    std::fs::remove_file(&path).ok();
    let mut killed = VideoScenarioTransformer::new(tiny_cfg(), 5);
    tsdx::core::train_resilient(
        &mut killed,
        &clips,
        &idx,
        &train_cfg(2),
        &ResilienceConfig::checkpoint_to(&path),
    )
    .unwrap();
    drop(killed);

    let ck = read_train_checkpoint(&path).unwrap();
    assert_eq!(ck.state.epoch, 2, "checkpoint records the interruption epoch");
    assert!(ck.opt.is_some(), "optimizer moments travel with the checkpoint");
    assert!(ck.state.rng.is_some(), "RNG state travels with the checkpoint");

    let mut resumed = VideoScenarioTransformer::new(tiny_cfg(), 31337);
    tsdx::core::train_resilient(
        &mut resumed,
        &clips,
        &idx,
        &full_cfg,
        &ResilienceConfig::resume_from(&path),
    )
    .unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(
        params_of(&reference),
        params_of(&resumed),
        "resumed run diverged from uninterrupted run"
    );
}
