//! Analytic compute-cost model (multiply-accumulates per clip).
//!
//! Used by the Fig. 4 ablation to report the factorized-vs-joint attention
//! cost difference without relying on wall-clock noise.

use tsdx_data::POSITION_COUNT;
use tsdx_sdl::{vocab, ActorKind, EgoManeuver, RoadKind};

use crate::config::{AttentionKind, ModelConfig, Readout};

/// Multiply-accumulate estimate for one transformer block of width `d` and
/// MLP ratio `m` that produces `tq` output rows from `tk` input rows
/// (`tq == tk` for a full block).
fn block_macs(tq: usize, tk: usize, d: usize, m: usize) -> u64 {
    let (tq, tk, d, m) = (tq as u64, tk as u64, d as u64, m as u64);
    // Q and output projections over the rows produced, K and V over all.
    let proj = 2 * (tq + tk) * d * d;
    // Attention scores and context: 2 * tq * tk * d.
    let attn = 2 * tq * tk * d;
    // MLP: 2 * tq * d * (m*d).
    let mlp = 2 * tq * d * m * d;
    proj + attn + mlp
}

/// One encoder stack of `depth` blocks over `tokens` rows plus the CLS row
/// a CLS readout prepends. That readout keeps row 0 alone, so the stack's
/// last block produces one row (see `TransformerEncoder::run`, `first_only`);
/// mean-pooling reads every row of every block.
fn stack_macs(cfg: &ModelConfig, depth: usize, tokens: usize) -> u64 {
    let (d, m) = (cfg.dim, cfg.mlp_ratio);
    match cfg.readout {
        Readout::Cls if depth > 0 => {
            let t = tokens + 1;
            (depth as u64 - 1) * block_macs(t, t, d, m) + block_macs(1, t, d, m)
        }
        Readout::Cls => 0,
        Readout::MeanPool => depth as u64 * block_macs(tokens, tokens, d, m),
    }
}

/// Estimated multiply-accumulates for one clip forward pass.
pub fn clip_macs(cfg: &ModelConfig) -> u64 {
    let nt = cfg.n_time();
    let ns = cfg.n_space();
    let embed = ((nt * ns) * cfg.tubelet_volume() * cfg.dim) as u64;
    let encoder = match cfg.attention {
        AttentionKind::Factorized => {
            nt as u64 * stack_macs(cfg, cfg.spatial_depth, ns)
                + stack_macs(cfg, cfg.temporal_depth, nt)
        }
        AttentionKind::Joint => stack_macs(cfg, cfg.spatial_depth + cfg.temporal_depth, nt * ns),
    };
    // Heads are negligible but included for completeness.
    let head_width = EgoManeuver::COUNT
        + RoadKind::COUNT
        + vocab::EVENT_COUNT
        + POSITION_COUNT
        + ActorKind::COUNT;
    embed + encoder + (cfg.dim * head_width) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joint_attention_costs_more_than_factorized() {
        let f = ModelConfig { attention: AttentionKind::Factorized, ..ModelConfig::default() };
        let j = ModelConfig { attention: AttentionKind::Joint, ..ModelConfig::default() };
        let (mf, mj) = (clip_macs(&f), clip_macs(&j));
        assert!(mj > mf, "joint ({mj}) should exceed factorized ({mf})");
    }

    #[test]
    fn cls_readout_costs_less_than_mean_pool() {
        // One more row per sequence, but the last block of each stack
        // computes a single row of everything except K and V.
        for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
            let cls = ModelConfig { attention, readout: Readout::Cls, ..ModelConfig::default() };
            let mean = ModelConfig { readout: Readout::MeanPool, ..cls };
            let (mc, mm) = (clip_macs(&cls), clip_macs(&mean));
            assert!(mc < mm, "{attention:?}: CLS ({mc}) should cost less than mean-pool ({mm})");
        }
    }

    #[test]
    fn cost_grows_with_resolution_and_frames() {
        let base = ModelConfig::default();
        let hi = ModelConfig { height: 64, width: 64, ..base };
        assert!(clip_macs(&hi) > clip_macs(&base));
        let long = ModelConfig { frames: 16, ..base };
        assert!(clip_macs(&long) > clip_macs(&base));
    }

    #[test]
    fn joint_gap_widens_with_sequence_length() {
        // The factorized saving grows as nt*ns grows.
        let small_f = ModelConfig::default();
        let small_j = ModelConfig { attention: AttentionKind::Joint, ..small_f };
        let big_f = ModelConfig { frames: 16, height: 64, width: 64, ..small_f };
        let big_j = ModelConfig { attention: AttentionKind::Joint, ..big_f };
        let small_ratio = clip_macs(&small_j) as f64 / clip_macs(&small_f) as f64;
        let big_ratio = clip_macs(&big_j) as f64 / clip_macs(&big_f) as f64;
        assert!(big_ratio > small_ratio, "{small_ratio} vs {big_ratio}");
    }
}
