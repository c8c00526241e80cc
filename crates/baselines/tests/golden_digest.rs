//! The baselines' training, pinned bit for bit.
//!
//! One 64-bit FNV-1a digest per learned baseline over the bytes of the
//! checkpoint file `train_resilient` writes after two epochs at seed 17,
//! batch 4, on twelve generated 16×16×4 clips — parameters, AdamW moments,
//! RNG state and guard counters, in the file's own format.
//!
//! The CNN+GRU run reaches what no transformer digest does: `conv2d`,
//! `avg_pool2d`, the GRU gates and `relu` on the tape, forward and backward.
//! The frame-MLP run adds `mean_axis` over time.
//!
//! Each digest is computed in every `RunConfig::matrix()` cell (buffer
//! recycling × f32 kernel), and every cell must give the one constant. A
//! digest that moves on purpose is updated in the same change that moves it.

use tsdx_baselines::{CnnGru, CnnGruConfig, FrameMlp, FrameMlpConfig};
use tsdx_core::{train_resilient, ClipModel, ResilienceConfig, TrainConfig};
use tsdx_data::{generate_dataset, DatasetConfig};
use tsdx_render::RenderConfig;
use tsdx_tensor::dial::RunConfig;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The CNN+GRU checkpoint digest every cell must produce.
const GOLDEN_CNN_GRU: &str = "0xd0d7300fa50df46a";

/// The frame-MLP checkpoint digest every cell must produce.
const GOLDEN_FRAME_MLP: &str = "0x1d14400f9e53a088";

/// Folds `bytes` into the FNV-1a state `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over the checkpoint file two epochs of training write for
/// `model`; `tag` keeps each run's file apart.
fn checkpoint_digest(model: &mut dyn ClipModel, tag: &str) -> u64 {
    let clips = generate_dataset(&DatasetConfig {
        n_clips: 12,
        render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
        ..DatasetConfig::default()
    });
    let idx: Vec<usize> = (0..clips.len()).collect();
    let cfg = TrainConfig { epochs: 2, batch_size: 4, seed: 17, ..TrainConfig::default() };
    let path = std::env::temp_dir()
        .join(format!("tsdx-baselines-golden-{}-{tag}.ckpt", std::process::id()));
    train_resilient(model, &clips, &idx, &cfg, &ResilienceConfig::checkpoint_to(&path))
        .expect("a fault-free run");
    let bytes = std::fs::read(&path).expect("the checkpoint was written");
    std::fs::remove_file(&path).ok();
    fnv1a(FNV_OFFSET, &bytes)
}

/// Runs `digest(tag)` in every cell and asserts each gives `golden`.
fn assert_every_cell(golden: &str, digest: impl Fn(&str) -> u64) {
    let cells = RunConfig::matrix();
    let got: Vec<String> = cells
        .iter()
        .enumerate()
        .map(|(i, rc)| format!("{:#018x}", rc.run(|| digest(&i.to_string()))))
        .collect();
    let names: Vec<String> = cells.iter().map(RunConfig::to_string).collect();
    assert_eq!(got, vec![golden; cells.len()], "cells {names:?}");
}

#[test]
fn a_short_cnn_gru_run_writes_the_same_checkpoint_under_every_run_config() {
    let cfg =
        CnnGruConfig { frames: 4, height: 16, width: 16, channels: 4, feature: 16, hidden: 16 };
    assert_every_cell(GOLDEN_CNN_GRU, |tag| {
        checkpoint_digest(&mut CnnGru::new(cfg, 17), &format!("cnn-gru-{tag}"))
    });
}

#[test]
fn a_short_frame_mlp_run_writes_the_same_checkpoint_under_every_run_config() {
    let cfg = FrameMlpConfig { frames: 4, height: 16, width: 16, ..FrameMlpConfig::default() };
    assert_every_cell(GOLDEN_FRAME_MLP, |tag| {
        checkpoint_digest(&mut FrameMlp::new(cfg, 17), &format!("frame-mlp-{tag}"))
    });
}
