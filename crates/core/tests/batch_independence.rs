//! A clip's extraction does not depend on the batch it rides in.
//!
//! Every kernel of the forward computes a clip's rows from that clip alone —
//! the linear layers and LayerNorm row by row, attention tile by tile, one
//! realization at every size — so a batched forward must leave, in each
//! clip's rows, the bits that clip gets extracted alone: the logits, not
//! only the decoded scenarios. `extract_checked` is `extract_window_batch`
//! at B = 1, so the decoded half compares the served route at B = 16 with
//! itself at B = 1. Sixteen clips is training's batch and, for
//! the default model, past 2¹⁶ attention scores per stage — where a second
//! attention kernel with different rounding used to take over.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_core::{AttentionKind, ClipModel, ModelConfig, ScenarioExtractor};
use tsdx_tensor::{Graph, Tensor};

fn clip(cfg: &ModelConfig, phase: f32) -> Tensor {
    Tensor::from_fn(&[cfg.frames, cfg.height, cfg.width], |i| {
        ((i as f32) * 0.0137 + phase).sin() * 0.5
    })
}

/// The five heads' logits for `clips` stacked into one forward, head-major.
fn logits(ex: &ScenarioExtractor, clips: &[Tensor]) -> Vec<Tensor> {
    let (model, cfg) = (ex.model(), ex.model().config());
    let stacked = Tensor::from_vec(
        clips.iter().flat_map(|c| c.to_vec()).collect(),
        &[clips.len(), cfg.frames, cfg.height, cfg.width],
    );
    let mut g = Graph::new();
    let p = model.params().bind_frozen(&mut g);
    let l = model.forward(&mut g, &p, &stacked, &mut StdRng::seed_from_u64(0), false);
    [l.ego, l.road, l.event, l.position, l.presence].map(|v| g.value(v).clone()).to_vec()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.to_vec().into_iter().map(f32::to_bits).collect()
}

#[test]
fn sixteen_clips_batched_equal_sixteen_solo_extractions_bitwise() {
    let configs = [
        ModelConfig::default(),
        ModelConfig { attention: AttentionKind::Joint, ..ModelConfig::default() },
        ModelConfig { height: 16, width: 16, ..ModelConfig::default() },
    ];
    for cfg in configs {
        let ex = ScenarioExtractor::untrained(cfg, 71);
        let clips: Vec<Tensor> = (0..16).map(|c| clip(&cfg, c as f32 * 0.61)).collect();
        let tag = format!("{}x{} {:?}", cfg.height, cfg.width, cfg.attention);
        let batched = logits(&ex, &clips);
        for (c, one) in clips.iter().enumerate() {
            let solo = logits(&ex, std::slice::from_ref(one));
            for (head, (b, s)) in batched.iter().zip(&solo).enumerate() {
                let width = s.numel();
                assert_eq!(
                    bits(b)[c * width..(c + 1) * width],
                    bits(s)[..],
                    "{tag}: clip {c}, head {head}"
                );
            }
        }
        let refs: Vec<&Tensor> = clips.iter().collect();
        let together = ex.extract_window_batch(&refs);
        for (c, (got, one)) in together.iter().zip(&clips).enumerate() {
            let want = ex.extract_checked(one).expect("well-formed clip");
            assert_eq!(got.as_ref().expect("well-formed clip"), &want, "{tag}: clip {c}");
        }
    }
}
