//! Clip encoders: factorized (ViViT model 2) and joint space-time
//! attention, with CLS or mean-pool readout.
//!
//! The factorized pipeline is split into two explicit, individually
//! callable stages with a cacheable boundary between them:
//!
//! 1. [`ClipEncoder::spatial_summaries`] — per-group token rows
//!    `[N, ns, D]` to frame summaries `[N, D]`. Row-independent and free of
//!    temporal position, so a summary computed for one streamed group is
//!    bit-identical to the same group inside a full batched window.
//! 2. [`ClipEncoder::temporal_readout`] — frame summaries `[B, nt, D]` to
//!    clip embeddings `[B, D]`. The *window-relative* temporal position is
//!    applied here, followed by the temporal transformer.
//!
//! [`ClipEncoder::forward`] composes the two; a
//! [`StreamSession`](crate::StreamSession) calls them separately and caches
//! stage-1 outputs by absolute group index.

use rand::Rng;
use tsdx_nn::{Binding, ParamId, ParamStore, TransformerEncoder};
use tsdx_tensor::{Graph, Tensor, Var};

use crate::config::{AttentionKind, ModelConfig, Readout};

/// Encodes token grids `[B, nt*ns, D]` into clip embeddings `[B, D]`.
#[derive(Debug, Clone)]
pub struct ClipEncoder {
    kind: AttentionKind,
    readout: Readout,
    spatial: TransformerEncoder,
    temporal: Option<TransformerEncoder>,
    cls_space: Option<ParamId>,
    cls_time: Option<ParamId>,
    /// Temporal positional embedding `[nt, 1, D]`, applied at the temporal
    /// stage boundary (factorized) or to the token grid (joint). Lives here
    /// rather than in the tubelet embedding so that spatial-stage outputs
    /// stay window-position-free and therefore cacheable.
    pos_time: ParamId,
    n_time: usize,
    n_space: usize,
    dim: usize,
}

impl ClipEncoder {
    /// Registers encoder parameters according to `cfg`.
    ///
    /// For [`AttentionKind::Joint`] a single encoder of depth
    /// `spatial_depth + temporal_depth` is created so the parameter budget
    /// matches the factorized variant.
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, name: &str, cfg: &ModelConfig) -> Self {
        let use_cls = cfg.readout == Readout::Cls;
        match cfg.attention {
            AttentionKind::Factorized => {
                let spatial = TransformerEncoder::new(
                    store,
                    rng,
                    &format!("{name}.spatial"),
                    cfg.dim,
                    cfg.spatial_depth,
                    cfg.heads,
                    cfg.mlp_ratio,
                    cfg.dropout,
                );
                let temporal = TransformerEncoder::new(
                    store,
                    rng,
                    &format!("{name}.temporal"),
                    cfg.dim,
                    cfg.temporal_depth,
                    cfg.heads,
                    cfg.mlp_ratio,
                    cfg.dropout,
                );
                let cls_space = use_cls.then(|| {
                    store.add(
                        format!("{name}.cls_space"),
                        tsdx_nn::init::embedding_normal(&[1, cfg.dim], rng),
                    )
                });
                let cls_time = use_cls.then(|| {
                    store.add(
                        format!("{name}.cls_time"),
                        tsdx_nn::init::embedding_normal(&[1, cfg.dim], rng),
                    )
                });
                let pos_time = store.add(
                    format!("{name}.pos_time"),
                    tsdx_nn::init::embedding_normal(&[cfg.n_time(), 1, cfg.dim], rng),
                );
                ClipEncoder {
                    kind: cfg.attention,
                    readout: cfg.readout,
                    spatial,
                    temporal: Some(temporal),
                    cls_space,
                    cls_time,
                    pos_time,
                    n_time: cfg.n_time(),
                    n_space: cfg.n_space(),
                    dim: cfg.dim,
                }
            }
            AttentionKind::Joint => {
                let spatial = TransformerEncoder::new(
                    store,
                    rng,
                    &format!("{name}.joint"),
                    cfg.dim,
                    cfg.spatial_depth + cfg.temporal_depth,
                    cfg.heads,
                    cfg.mlp_ratio,
                    cfg.dropout,
                );
                let cls_space = use_cls.then(|| {
                    store.add(
                        format!("{name}.cls_joint"),
                        tsdx_nn::init::embedding_normal(&[1, cfg.dim], rng),
                    )
                });
                let pos_time = store.add(
                    format!("{name}.pos_time"),
                    tsdx_nn::init::embedding_normal(&[cfg.n_time(), 1, cfg.dim], rng),
                );
                ClipEncoder {
                    kind: cfg.attention,
                    readout: cfg.readout,
                    spatial,
                    temporal: None,
                    cls_space,
                    cls_time: None,
                    pos_time,
                    n_time: cfg.n_time(),
                    n_space: cfg.n_space(),
                    dim: cfg.dim,
                }
            }
        }
    }

    /// Encodes `[B, nt*ns, D]` tokens (projected, spatially positioned,
    /// *not* temporally positioned) to a `[B, D]` clip embedding.
    pub fn forward(
        &self,
        g: &mut Graph,
        p: &Binding,
        tokens: Var,
        rng: &mut impl Rng,
        train: bool,
    ) -> Var {
        let b = g.shape(tokens)[0];
        match self.kind {
            AttentionKind::Joint => {
                // Joint attention has no cacheable stage boundary: the
                // temporal position goes straight onto the token grid.
                let timed = self.with_time_positions_grid(g, p, tokens);
                self.encode(g, p, &self.spatial, self.cls_space, timed, rng, train)
            }
            AttentionKind::Factorized => {
                // Spatial stage over each time group independently.
                let per_frame = g.reshape(tokens, &[b * self.n_time, self.n_space, self.dim]);
                let frame_embed = self.spatial_summaries(g, p, per_frame, rng, train); // [B*nt, D]
                let temporal_tokens = g.reshape(frame_embed, &[b, self.n_time, self.dim]);
                self.temporal_readout(g, p, temporal_tokens, rng, train)
            }
        }
    }

    /// Spatial stage of the factorized pipeline: per-group token rows
    /// `[N, ns, D]` (one row of `ns` spatial tokens per time group) to
    /// frame summaries `[N, D]`.
    ///
    /// Every operation here is row-independent and free of temporal
    /// position, so a summary computed for one group at a time is
    /// bit-identical to the same group inside a batched window — the
    /// invariant [`StreamSession`](crate::StreamSession) caches against.
    ///
    /// # Panics
    ///
    /// Panics for joint encoders, which have no separate spatial stage.
    pub fn spatial_summaries(
        &self,
        g: &mut Graph,
        p: &Binding,
        groups: Var,
        rng: &mut impl Rng,
        train: bool,
    ) -> Var {
        assert_eq!(
            self.kind,
            AttentionKind::Factorized,
            "spatial_summaries is a factorized-pipeline stage"
        );
        self.encode(g, p, &self.spatial, self.cls_space, groups, rng, train)
    }

    /// Temporal stage of the factorized pipeline: raw frame summaries
    /// `[B, nt, D]` to clip embeddings `[B, D]`. Applies the
    /// window-relative temporal position, prepends the temporal CLS, and
    /// runs the temporal transformer.
    ///
    /// # Panics
    ///
    /// Panics for joint encoders.
    pub fn temporal_readout(
        &self,
        g: &mut Graph,
        p: &Binding,
        frames: Var,
        rng: &mut impl Rng,
        train: bool,
    ) -> Var {
        let temporal = self.temporal.as_ref().expect("factorized encoder has a temporal stage");
        let timed = self.with_time_positions(g, p, frames);
        self.encode(g, p, temporal, self.cls_time, timed, rng, train)
    }

    /// Adds the temporal position table to frame summaries `[B, nt, D]`.
    fn with_time_positions(&self, g: &mut Graph, p: &Binding, frames: Var) -> Var {
        let pt = p.var(self.pos_time);
        let flat = g.reshape(pt, &[self.n_time, self.dim]);
        g.add(frames, flat)
    }

    /// Adds the temporal position to a joint token grid `[B, nt*ns, D]`
    /// (broadcast over the `ns` spatial tokens of each group).
    fn with_time_positions_grid(&self, g: &mut Graph, p: &Binding, tokens: Var) -> Var {
        let b = g.shape(tokens)[0];
        let grid = g.reshape(tokens, &[b, self.n_time, self.n_space, self.dim]);
        let pt = p.var(self.pos_time);
        let timed = g.add(grid, pt);
        g.reshape(timed, &[b, self.n_time * self.n_space, self.dim])
    }

    /// Runs the (first) spatial or joint stage and returns the attention
    /// probabilities of its last block (`[N, H, T, T]`), for introspection.
    pub fn forward_attention(
        &self,
        g: &mut Graph,
        p: &Binding,
        tokens: Var,
        rng: &mut impl Rng,
    ) -> Var {
        let b = g.shape(tokens)[0];
        match self.kind {
            AttentionKind::Joint => {
                let timed = self.with_time_positions_grid(g, p, tokens);
                let seq = self.with_cls(g, p, timed, self.cls_space);
                let (_, attn) = self.spatial.forward_with_attn(g, p, seq, rng, false);
                attn
            }
            AttentionKind::Factorized => {
                let per_frame = g.reshape(tokens, &[b * self.n_time, self.n_space, self.dim]);
                let seq = self.with_cls(g, p, per_frame, self.cls_space);
                let (_, attn) = self.spatial.forward_with_attn(g, p, seq, rng, false);
                attn
            }
        }
    }

    /// Runs the full factorized pipeline and returns the *temporal* stage's
    /// last-block attention (`[B, H, T', T']` where `T'` counts frame
    /// summaries plus an optional CLS).
    ///
    /// Returns `None` for joint encoders (they have no separate temporal
    /// stage; use [`ClipEncoder::forward_attention`] instead).
    pub fn forward_temporal_attention(
        &self,
        g: &mut Graph,
        p: &Binding,
        tokens: Var,
        rng: &mut impl Rng,
    ) -> Option<Var> {
        let temporal = self.temporal.as_ref()?;
        let b = g.shape(tokens)[0];
        let per_frame = g.reshape(tokens, &[b * self.n_time, self.n_space, self.dim]);
        let frame_embed = self.spatial_summaries(g, p, per_frame, rng, false);
        let temporal_tokens = g.reshape(frame_embed, &[b, self.n_time, self.dim]);
        let timed = self.with_time_positions(g, p, temporal_tokens);
        let seq_t = self.with_cls(g, p, timed, self.cls_time);
        let (_, attn) = temporal.forward_with_attn(g, p, seq_t, rng, false);
        Some(attn)
    }

    /// Prepends a learned CLS token (broadcast over the batch) when the
    /// readout is CLS; otherwise returns the sequence unchanged.
    fn with_cls(&self, g: &mut Graph, p: &Binding, seq: Var, cls: Option<ParamId>) -> Var {
        let Some(cls) = cls else { return seq };
        let b = g.shape(seq)[0];
        // Broadcast [1, D] to [B, 1, D] via ones-matmul (keeps gradients
        // flowing to the CLS parameter).
        let ones = g.constant(Tensor::ones(&[b, 1, 1]));
        let cls_var = p.var(cls);
        let tiled = g.matmul(ones, cls_var); // [B, 1, D]
        g.concat(&[tiled, seq], 1)
    }

    /// One encoder stage: `seq` (`[N, T, D]`) through `stack` and read out
    /// to `[N, D]`. A CLS readout keeps row 0 alone, so it asks the stack
    /// for that row ([`TransformerEncoder::forward_first`], which spares the
    /// last block the other rows); mean-pooling needs them all.
    #[allow(clippy::too_many_arguments)]
    fn encode(
        &self,
        g: &mut Graph,
        p: &Binding,
        stack: &TransformerEncoder,
        cls: Option<ParamId>,
        seq: Var,
        rng: &mut impl Rng,
        train: bool,
    ) -> Var {
        let seq = self.with_cls(g, p, seq, cls);
        match self.readout {
            Readout::Cls => {
                let first = stack.forward_first(g, p, seq, rng, train);
                let n = g.shape(first)[0];
                g.reshape(first, &[n, self.dim])
            }
            Readout::MeanPool => {
                let encoded = stack.forward(g, p, seq, rng, train);
                g.mean_axis(encoded, 1, false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(kind: AttentionKind, readout: Readout) -> ModelConfig {
        ModelConfig {
            frames: 4,
            height: 8,
            width: 8,
            tubelet_t: 2,
            patch: 4,
            dim: 8,
            spatial_depth: 1,
            temporal_depth: 1,
            heads: 2,
            mlp_ratio: 2,
            dropout: 0.0,
            attention: kind,
            readout,
        }
    }

    fn run(kind: AttentionKind, readout: Readout) -> (usize, Vec<f32>) {
        let cfg = cfg(kind, readout);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let enc = ClipEncoder::new(&mut store, &mut rng, "enc", &cfg);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let tokens = g.constant(Tensor::from_fn(&[2, 8, 8], |i| ((i % 13) as f32 - 6.0) * 0.1));
        let out = enc.forward(&mut g, &p, tokens, &mut rng, false);
        assert_eq!(g.shape(out), &[2, 8]);
        (store.num_scalars(), g.value(out).data().to_vec())
    }

    #[test]
    fn all_variants_produce_clip_embeddings() {
        for kind in [AttentionKind::Factorized, AttentionKind::Joint] {
            for readout in [Readout::Cls, Readout::MeanPool] {
                let (_, out) = run(kind, readout);
                assert!(out.iter().all(|v| v.is_finite()), "{kind:?}/{readout:?}");
            }
        }
    }

    #[test]
    fn joint_and_factorized_have_comparable_param_budgets() {
        let (pf, _) = run(AttentionKind::Factorized, Readout::Cls);
        let (pj, _) = run(AttentionKind::Joint, Readout::Cls);
        let ratio = pf as f32 / pj as f32;
        assert!((0.8..1.25).contains(&ratio), "param budgets diverge: {pf} vs {pj}");
    }

    #[test]
    fn gradients_reach_cls_tokens() {
        let cfg = cfg(AttentionKind::Factorized, Readout::Cls);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let enc = ClipEncoder::new(&mut store, &mut rng, "enc", &cfg);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let tokens = g.constant(Tensor::from_fn(&[1, 8, 8], |i| (i as f32 * 0.01).sin()));
        let out = enc.forward(&mut g, &p, tokens, &mut rng, false);
        // Square the embedding before reducing: the gradient of a plain mean
        // is row-uniform, which the final layer norm's Jacobian annihilates
        // exactly (any nonzero grad below it would be roundoff noise).
        let sq = g.mul(out, out);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        let collected = store.collect_grads(&p, &grads);
        // Find the CLS params by name and confirm nonzero gradients.
        for (i, id) in store.ids().enumerate() {
            let name = store.name(id);
            if name.contains("cls") {
                assert!(
                    collected[i].data().iter().any(|&v| v != 0.0),
                    "no gradient reached {name}"
                );
            }
        }
    }

    #[test]
    fn staged_calls_compose_to_forward_bitwise() {
        // spatial_summaries + temporal_readout must rebuild exactly the
        // graph `forward` builds — the streaming session depends on it.
        for readout in [Readout::Cls, Readout::MeanPool] {
            let cfg = cfg(AttentionKind::Factorized, readout);
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(3);
            let enc = ClipEncoder::new(&mut store, &mut rng, "enc", &cfg);
            let mut g = Graph::new();
            let p = store.bind_frozen(&mut g);
            let x0 = Tensor::from_fn(&[2, 8, 8], |i| (i as f32 * 0.05).sin());
            let tokens = g.constant(x0);
            let full = enc.forward(&mut g, &p, tokens, &mut rng, false);

            let per_frame = g.reshape(tokens, &[4, 4, 8]);
            let sums = enc.spatial_summaries(&mut g, &p, per_frame, &mut rng, false);
            let frames = g.reshape(sums, &[2, 2, 8]);
            let staged = enc.temporal_readout(&mut g, &p, frames, &mut rng, false);
            assert_eq!(g.value(full).data(), g.value(staged).data(), "{readout:?}");
        }
    }

    #[test]
    fn every_stage_reads_out_what_the_full_stack_leaves_bitwise() {
        // The reference runs every block over every row and only then
        // reads: row 0 for CLS (whose last block the encoder prunes to that
        // row), the mean over rows for mean-pool.
        let reference = |enc: &ClipEncoder,
                         g: &mut Graph,
                         p: &Binding,
                         stack: &TransformerEncoder,
                         cls: Option<ParamId>,
                         seq: Var| {
            let seq = enc.with_cls(g, p, seq, cls);
            let full = stack.forward(g, p, seq, &mut StdRng::seed_from_u64(0), false);
            let n = g.shape(full)[0];
            match enc.readout {
                Readout::Cls => {
                    let first = g.narrow(full, 1, 0, 1);
                    g.reshape(first, &[n, enc.dim])
                }
                Readout::MeanPool => g.mean_axis(full, 1, false),
            }
        };
        let bits = |g: &Graph, v: Var| -> Vec<u32> {
            g.value(v).to_vec().into_iter().map(f32::to_bits).collect()
        };
        let mut rng = StdRng::seed_from_u64(0);
        for readout in [Readout::Cls, Readout::MeanPool] {
            for kind in [AttentionKind::Factorized, AttentionKind::Joint] {
                let cfg = cfg(kind, readout);
                let mut store = ParamStore::new();
                let enc = ClipEncoder::new(&mut store, &mut StdRng::seed_from_u64(5), "enc", &cfg);
                let mut g = Graph::new();
                let p = store.bind_frozen(&mut g);
                let ctx = format!("{kind:?}/{readout:?}");
                match kind {
                    AttentionKind::Factorized => {
                        let groups =
                            g.constant(Tensor::from_fn(&[6, 4, 8], |i| (i as f32 * 0.05).sin()));
                        let got = enc.spatial_summaries(&mut g, &p, groups, &mut rng, false);
                        let want = reference(&enc, &mut g, &p, &enc.spatial, enc.cls_space, groups);
                        assert_eq!(bits(&g, got), bits(&g, want), "spatial {ctx}");

                        let frames =
                            g.constant(Tensor::from_fn(&[3, 2, 8], |i| (i as f32 * 0.11).cos()));
                        let got = enc.temporal_readout(&mut g, &p, frames, &mut rng, false);
                        let timed = enc.with_time_positions(&mut g, &p, frames);
                        let temporal = enc.temporal.as_ref().unwrap();
                        let want = reference(&enc, &mut g, &p, temporal, enc.cls_time, timed);
                        assert_eq!(bits(&g, got), bits(&g, want), "temporal {ctx}");
                    }
                    AttentionKind::Joint => {
                        let tokens =
                            g.constant(Tensor::from_fn(&[3, 8, 8], |i| (i as f32 * 0.05).sin()));
                        let got = enc.forward(&mut g, &p, tokens, &mut rng, false);
                        let timed = enc.with_time_positions_grid(&mut g, &p, tokens);
                        let want = reference(&enc, &mut g, &p, &enc.spatial, enc.cls_space, timed);
                        assert_eq!(bits(&g, got), bits(&g, want), "joint {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn temporal_positions_differentiate_time_groups() {
        // With identical per-group inputs, the clip embedding must still
        // depend on order: the temporal position is applied at the
        // temporal-stage boundary.
        let cfg = cfg(AttentionKind::Factorized, Readout::Cls);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let enc = ClipEncoder::new(&mut store, &mut rng, "enc", &cfg);
        let mut g = Graph::new();
        let p = store.bind_frozen(&mut g);
        let a = Tensor::from_fn(&[1, 2, 8], |i| if i < 8 { 1.0 } else { -1.0 });
        let mut rev = a.to_vec();
        rev.rotate_left(8);
        let fa = g.constant(a);
        let fb = g.constant(Tensor::from_vec(rev, &[1, 2, 8]));
        let ya = enc.temporal_readout(&mut g, &p, fa, &mut rng, false);
        let yb = enc.temporal_readout(&mut g, &p, fb, &mut rng, false);
        assert_ne!(g.value(ya).data(), g.value(yb).data(), "time order must matter");
    }

    #[test]
    fn mean_pool_is_permutation_invariant_with_identity_encoder() {
        // Sanity: with mean-pool readout, reordering *identical* tokens
        // doesn't change the embedding (tokens are identical here).
        let (_, a) = run(AttentionKind::Joint, Readout::MeanPool);
        let (_, b) = run(AttentionKind::Joint, Readout::MeanPool);
        assert_eq!(a, b);
    }
}
