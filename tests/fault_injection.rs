//! Deterministic fault-injection suite (requires `--features fault-inject`).
//!
//! Each test arms one hook in `tsdx::tensor::faults`, runs the real code
//! path, and asserts the recovery behavior promised in DESIGN.md §6.3: torn
//! and bit-flipped checkpoints surface as typed [`CheckpointError`]s, and a
//! NaN gradient is skipped by the training guard without aborting the run.
#![cfg(feature = "fault-inject")]

use std::path::PathBuf;
use std::sync::Mutex;

use tsdx::core::{ClipModel, ModelConfig, ResilienceConfig, TrainConfig, VideoScenarioTransformer};
use tsdx::data::{generate_dataset, Clip, DatasetConfig};
use tsdx::nn::{
    read_train_checkpoint, save_train_checkpoint, CheckpointError, LrSchedule, ParamStore,
    TrainCheckpoint,
};
use tsdx::render::RenderConfig;
use tsdx::tensor::{faults, Tensor};

/// The fault registry is process-global, so tests that arm it must not
/// overlap; each one holds this lock and clears the registry on both ends.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn armed<R>(f: impl FnOnce() -> R) -> R {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear_all();
    let out = f();
    faults::clear_all();
    out
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tsdx-fault-{name}-{}.ckpt", std::process::id()))
}

fn sample_checkpoint() -> TrainCheckpoint {
    let mut store = ParamStore::new();
    store.add("w", Tensor::from_fn(&[6, 6], |i| i as f32 * 0.5));
    store.add("b", Tensor::from_fn(&[6], |i| -(i as f32)));
    TrainCheckpoint::from_params(&store)
}

#[test]
fn torn_checkpoint_write_is_detected_on_read() {
    armed(|| {
        let path = tmp("tear");
        // 40 bytes is past the 16-byte header but well before the payload
        // ends, so the reader should diagnose a truncation specifically.
        faults::CHECKPOINT_TEAR.arm(40);
        save_train_checkpoint(&sample_checkpoint(), &path).unwrap();
        let err = read_train_checkpoint(&path).expect_err("torn file must not load");
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, CheckpointError::Truncated { expected, actual }
                if actual == 40 && expected > actual),
            "expected Truncated, got: {err}"
        );
    });
}

#[test]
fn flipped_checkpoint_bit_is_detected_on_read() {
    armed(|| {
        let path = tmp("flip");
        // Flip one bit deep inside the tensor payload (byte 225, bit 3).
        faults::CHECKPOINT_BIT_FLIP.arm(225 * 8 + 3);
        save_train_checkpoint(&sample_checkpoint(), &path).unwrap();
        let err = read_train_checkpoint(&path).expect_err("corrupt file must not load");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CheckpointError::Checksum { .. }), "expected Checksum, got: {err}");
    });
}

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

#[test]
fn nan_gradient_is_skipped_without_aborting_training() {
    armed(|| {
        let clips = tiny_clips(8);
        let idx: Vec<usize> = (0..8).collect();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            schedule: LrSchedule::Constant(2e-3),
            ..TrainConfig::default()
        };

        // Poison the gradients of step 1 (second batch of epoch 1).
        faults::NAN_GRAD.arm(1);
        let mut model = VideoScenarioTransformer::new(tiny_cfg(), 9);
        let report = tsdx::core::train_resilient(
            &mut model,
            &clips,
            &idx,
            &cfg,
            &ResilienceConfig::default(),
        )
        .expect("guarded run survives an injected NaN gradient");
        assert_eq!(report.skipped_steps, 1, "exactly the poisoned batch is skipped");
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        // The surviving parameters are still finite and usable.
        for (name, t) in model.params().iter() {
            assert!(!t.has_non_finite(), "{name} went non-finite after the skip");
        }
    });
}
