//! Training results are bit-identical with the workspace arena on or off.
//!
//! The arena's determinism contract (`tsdx_tensor::workspace`) is that
//! recycling buffers can never change a computed value: `take_zeroed` /
//! `take_filled` overwrite everything they hand out, and `take_uninit` is
//! reserved for call sites that store every element before any is read.
//! A violation anywhere in the kernel stack would leak stale values from
//! recycled buffers into results — and would depend on arena state, the
//! worst kind of nondeterminism. This test pins the contract end-to-end:
//! full training runs in both workspace modes must produce bit-identical
//! parameters.

use tsdx_core::{train, ClipModel, ModelConfig, TrainConfig, VideoScenarioTransformer};
use tsdx_data::{generate_dataset, Clip, DatasetConfig};
use tsdx_nn::LrSchedule;
use tsdx_render::RenderConfig;
use tsdx_tensor::dial::RunConfig;

fn tiny_model() -> VideoScenarioTransformer {
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
        7,
    )
}

fn tiny_clips() -> Vec<Clip> {
    generate_dataset(&DatasetConfig {
        n_clips: 8,
        render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
        ..DatasetConfig::default()
    })
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 4,
        schedule: LrSchedule::Constant(1e-3),
        ..TrainConfig::default()
    }
}

/// Trains a fresh model and returns its final parameters as raw bits.
fn trained_param_bits() -> Vec<(String, Vec<u32>)> {
    let clips = tiny_clips();
    let idx: Vec<usize> = (0..clips.len()).collect();
    let mut model = tiny_model();
    train(&mut model, &clips, &idx, &train_cfg());
    model
        .params()
        .iter()
        .map(|(n, t)| (n.to_string(), t.to_vec().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

#[test]
fn training_is_bit_identical_across_workspace_modes() {
    let base = RunConfig::current();
    let reference = RunConfig { recycle: false, ..base }.run(trained_param_bits);
    let run = RunConfig { recycle: true, ..base }.run(trained_param_bits);
    assert_eq!(reference.len(), run.len(), "parameter count diverged");
    for ((rn, rb), (cn, cb)) in reference.iter().zip(&run) {
        assert_eq!(rn, cn, "parameter order diverged");
        assert_eq!(rb, cb, "parameter {rn} not bit-identical with the workspace on");
    }
}
