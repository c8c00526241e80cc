//! Attention introspection: where does the model look?
//!
//! Produces per-tubelet saliency from the last spatial-attention block —
//! the qualitative "the model attends to the crossing pedestrian" evidence
//! that accompanies video-transformer papers.

use tsdx_tensor::{ops, Tensor};

use crate::config::Readout;
use crate::model::VideoScenarioTransformer;
use crate::tubelet::extract_tubelets;

impl VideoScenarioTransformer {
    /// Computes a spatial saliency map `[B, nt, ns]` for a video batch:
    /// how much the clip readout attends to each tubelet, averaged over
    /// heads, from the last spatial (or joint) attention block.
    ///
    /// Rows sum to 1 over `ns` for CLS readout.
    pub fn attention_map(&self, videos: &Tensor) -> Tensor {
        let cfg = self.config();
        let ex = &mut self.eval();
        let tokens = self.embed_ref().forward(ex, &extract_tubelets(cfg, videos));
        let (_, attn) = self.encoder_ref().first_stage(ex, &tokens, true);
        // Joint: one row of nt*ns tokens per clip; factorized: B*nt rows
        // of ns tokens. Both flatten to the same [B, nt, ns] grid.
        self.readout_attention(&attn.expect("asked for")).reshape(&[
            videos.shape()[0],
            cfg.n_time(),
            cfg.n_space(),
        ])
    }

    /// What the readout query of each sequence attends to, from attention
    /// probabilities `[N, H, T, T]`: head-mean attention over the content
    /// tokens, `[N, content]`.
    fn readout_attention(&self, attn: &Tensor) -> Tensor {
        let sh = attn.shape();
        let (n, h, t) = (sh[0], sh[1], sh[2]);
        // Head-mean: [N, T, T].
        let head_mean = ops::scale(&ops::sum_axis(attn, 1, false), 1.0 / h as f32);
        if self.config().readout == Readout::Cls {
            // CLS row, dropping the CLS->CLS column.
            let row = ops::narrow(&head_mean, 1, 0, 1); // [N, 1, T]
            ops::narrow(&row.reshape(&[n, t]), 1, 1, t - 1)
        } else {
            // Mean attention received by each token (column mean).
            ops::scale(&ops::sum_axis(&head_mean, 1, false), 1.0 / t as f32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AttentionKind, ModelConfig};

    fn cfg(attention: AttentionKind, readout: Readout) -> ModelConfig {
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
            attention,
            readout,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn attention_map_shape_and_normalization() {
        for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
            let model = VideoScenarioTransformer::new(cfg(attention, Readout::Cls), 0);
            let videos = Tensor::from_fn(&[2, 4, 16, 16], |i| (i % 9) as f32 / 9.0);
            let map = model.attention_map(&videos);
            assert_eq!(map.shape(), &[2, 2, 4], "{attention:?}");
            // CLS attention over content tokens plus the CLS->CLS share
            // sums to 1, so each row sums to at most 1 and is non-negative.
            for row in map.data().chunks(4) {
                let s: f32 = row.iter().sum();
                assert!(s > 0.0 && s <= 1.0 + 1e-4, "row sum {s}");
                assert!(row.iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn meanpool_variant_also_works() {
        let model =
            VideoScenarioTransformer::new(cfg(AttentionKind::Factorized, Readout::MeanPool), 1);
        let videos = Tensor::zeros(&[1, 4, 16, 16]);
        let map = model.attention_map(&videos);
        assert_eq!(map.shape(), &[1, 2, 4]);
        assert!(!map.has_non_finite());
    }
}
