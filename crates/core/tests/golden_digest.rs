//! The model's outputs, pinned bit for bit.
//!
//! One 64-bit FNV-1a digest over the exact bytes of what the data and the
//! default model produce:
//!
//! - the pixels and labels of 32 `generate_dataset` clips at seed 17;
//! - the `embed_clips` bits of the first clip alone (B = 1) and of the first
//!   eight stacked (B = 8), on `ScenarioExtractor::untrained(default, 17)`;
//! - the SDL text `extract_window_batch` gives those eight clips;
//! - the `StreamState::logits` bits of a stream fed one full window plus
//!   one more time group.
//!
//! The digest is computed in every `RunConfig::matrix()` cell (buffer
//! recycling × f32 kernel), and every cell must give the one constant. The parity suites compare the kernels with
//! each other and with compositions of ops, so a change that moves every
//! path at once (a reordered accumulation, a new rounding step) passes them;
//! it cannot pass this file. A digest that moves on purpose is updated in
//! the same change that moves it.
//!
//! The one platform dependency is libm's `ln` and `cos` in the sensor noise
//! of the generated pixels: on another libc a mismatch may be the platform,
//! not the model. The checkpoint digest is not here yet.

use tsdx_core::{ModelConfig, ScenarioExtractor};
use tsdx_data::{generate_dataset, Clip, DatasetConfig};
use tsdx_tensor::dial::RunConfig;
use tsdx_tensor::{ops, Tensor};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The digest every cell must produce.
const GOLDEN: &str = "0x467f51e005cdb50a";

/// Folds `bytes` into the FNV-1a state `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Folds the length, then the bits of every element of `t`, into `h`.
fn fold_tensor(h: u64, t: &Tensor) -> u64 {
    let h = fnv1a(h, &(t.numel() as u64).to_le_bytes());
    t.to_vec().iter().fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

fn fold_clip(h: u64, clip: &Clip) -> u64 {
    let l = &clip.labels;
    let h = fold_tensor(h, &clip.video);
    let h = [l.ego, l.road, l.event, l.position]
        .iter()
        .fold(h, |h, &i| fnv1a(h, &(i as u64).to_le_bytes()));
    l.presence.iter().fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

/// `videos` stacked into one `[B, T, H, W]` batch.
fn stack(videos: &[&Tensor]) -> Tensor {
    let mut shape = vec![videos.len()];
    shape.extend_from_slice(videos[0].shape());
    Tensor::from_vec(videos.iter().flat_map(|v| v.to_vec()).collect(), &shape)
}

fn golden_digest() -> u64 {
    let clips = generate_dataset(&DatasetConfig { n_clips: 32, ..DatasetConfig::default() });
    let mut h = clips.iter().fold(FNV_OFFSET, fold_clip);

    let ex = ScenarioExtractor::untrained(ModelConfig::default(), 17);
    let videos: Vec<&Tensor> = clips.iter().map(|c| &c.video).collect();
    for batch in [1, 8] {
        h = fold_tensor(h, &ex.model().embed_clips(&stack(&videos[..batch])));
    }
    for scenario in ex.extract_window_batch(&videos[..8]) {
        let text = scenario.expect("generated clips are well-formed").to_string();
        h = fnv1a(fnv1a(h, &(text.len() as u64).to_le_bytes()), text.as_bytes());
    }

    // One full window of clip 0, then clip 1's first time group.
    let cfg = ex.model().config();
    let group = ops::narrow(&clips[1].video, 0, 0, cfg.tubelet_t).contiguous();
    let mut stream = ex.open_stream();
    stream.push_frames(&clips[0].video).expect("a well-formed window");
    stream.push_frames(&group).expect("a well-formed group");
    let l = stream.logits().expect("a full window");
    [&l.ego, &l.road, &l.event, &l.position, &l.presence].into_iter().fold(h, fold_tensor)
}

#[test]
fn the_models_outputs_keep_their_digest_under_every_run_config() {
    let cells = RunConfig::matrix();
    let got: Vec<String> =
        cells.iter().map(|rc| format!("{:#018x}", rc.run(golden_digest))).collect();
    let names: Vec<String> = cells.iter().map(RunConfig::to_string).collect();
    assert_eq!(got, vec![GOLDEN; cells.len()], "cells {names:?}");
}
