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
//! Whole windows — training, evaluation and every
//! [`extract_window_batch`](crate::ScenarioExtractor::extract_window_batch)
//! — run [`ClipEncoder::forward`], which composes the two. Streams call
//! them separately: [`encode_staged`](crate::encode_staged) caches stage-1
//! outputs by absolute group index, and
//! [`readout_staged`](crate::readout_staged) runs stage 2 over them.

use rand::Rng;
use tsdx_nn::{Exec, ParamId, ParamStore, TransformerEncoder};
use tsdx_tensor::Tensor;

use crate::config::{AttentionKind, ModelConfig, Readout};

/// Encodes token grids `[B, nt*ns, D]` into clip embeddings `[B, D]`.
#[derive(Debug, Clone)]
pub(crate) struct ClipEncoder {
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
    pub(crate) fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        cfg: &ModelConfig,
    ) -> Self {
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
    pub(crate) fn forward<E: Exec>(&self, ex: &mut E, tokens: &E::V) -> E::V {
        let b = ex.shape(tokens)[0];
        let (first, _) = self.first_stage(ex, tokens, false);
        match self.kind {
            AttentionKind::Joint => first,
            AttentionKind::Factorized => {
                let frames = ex.reshape(&first, &[b, self.n_time, self.dim]);
                self.temporal_readout(ex, &frames)
            }
        }
    }

    /// The stage the token grid enters: the whole encoder for joint
    /// attention, the spatial stage over each time group for factorized
    /// (`[B*nt, D]` out). With `want_attn`, also the attention probabilities
    /// of that stage's last block (`[N, H, T, T]`).
    pub(crate) fn first_stage<E: Exec>(
        &self,
        ex: &mut E,
        tokens: &E::V,
        want_attn: bool,
    ) -> (E::V, Option<E::V>) {
        let b = ex.shape(tokens)[0];
        match self.kind {
            AttentionKind::Joint => {
                // Joint attention has no cacheable stage boundary: the
                // temporal position goes straight onto the token grid.
                let timed = self.with_time_positions_grid(ex, tokens);
                self.encode(ex, &self.spatial, self.cls_space, timed, want_attn)
            }
            AttentionKind::Factorized => {
                let per_frame = ex.reshape(tokens, &[b * self.n_time, self.n_space, self.dim]);
                self.spatial_summaries(ex, per_frame, want_attn)
            }
        }
    }

    /// Spatial stage of the factorized pipeline: per-group token rows
    /// `[N, ns, D]` (one row of `ns` spatial tokens per time group) to
    /// frame summaries `[N, D]`; with `want_attn`, also the last block's
    /// attention probabilities.
    ///
    /// Every operation here is row-independent and free of temporal
    /// position, so a summary computed for one group at a time is
    /// bit-identical to the same group inside a batched window — the
    /// invariant a stream's group cache rests on.
    ///
    /// # Panics
    ///
    /// Panics for joint encoders, which have no separate spatial stage.
    pub(crate) fn spatial_summaries<E: Exec>(
        &self,
        ex: &mut E,
        groups: E::V,
        want_attn: bool,
    ) -> (E::V, Option<E::V>) {
        assert_eq!(
            self.kind,
            AttentionKind::Factorized,
            "spatial_summaries is a factorized-pipeline stage"
        );
        self.encode(ex, &self.spatial, self.cls_space, groups, want_attn)
    }

    /// Temporal stage of the factorized pipeline: raw frame summaries
    /// `[B, nt, D]` to clip embeddings `[B, D]`. Applies the
    /// window-relative temporal position, prepends the temporal CLS, and
    /// runs the temporal transformer.
    ///
    /// # Panics
    ///
    /// Panics for joint encoders.
    pub(crate) fn temporal_readout<E: Exec>(&self, ex: &mut E, frames: &E::V) -> E::V {
        let temporal = self.temporal.as_ref().expect("factorized encoder has a temporal stage");
        let timed = self.with_time_positions(ex, frames);
        self.encode(ex, temporal, self.cls_time, timed, false).0
    }

    /// Adds the temporal position table to frame summaries `[B, nt, D]`.
    fn with_time_positions<E: Exec>(&self, ex: &mut E, frames: &E::V) -> E::V {
        let pt = ex.param(self.pos_time);
        let flat = ex.reshape(&pt, &[self.n_time, self.dim]);
        ex.add(frames, &flat)
    }

    /// Adds the temporal position to a joint token grid `[B, nt*ns, D]`
    /// (broadcast over the `ns` spatial tokens of each group).
    fn with_time_positions_grid<E: Exec>(&self, ex: &mut E, tokens: &E::V) -> E::V {
        let b = ex.shape(tokens)[0];
        let grid = ex.reshape(tokens, &[b, self.n_time, self.n_space, self.dim]);
        let pt = ex.param(self.pos_time);
        let timed = ex.add(&grid, &pt);
        ex.reshape(&timed, &[b, self.n_time * self.n_space, self.dim])
    }

    /// Prepends a learned CLS token (broadcast over the batch) when the
    /// readout is CLS; otherwise returns the sequence unchanged.
    fn with_cls<E: Exec>(&self, ex: &mut E, seq: E::V, cls: Option<ParamId>) -> E::V {
        let Some(cls) = cls else { return seq };
        let b = ex.shape(&seq)[0];
        // Broadcast [1, D] to [B, 1, D] via ones-matmul (keeps gradients
        // flowing to the CLS parameter).
        let ones = ex.constant(Tensor::ones(&[b, 1, 1]));
        let cls = ex.param(cls);
        let tiled = ex.matmul(&ones, &cls); // [B, 1, D]
        ex.concat(&tiled, &seq, 1)
    }

    /// One encoder stage: `seq` (`[N, T, D]`) through `stack` and read out
    /// to `[N, D]`. A CLS readout keeps row 0 alone, so it asks the stack
    /// for that row (`first_only`, which spares the last block the other
    /// rows); mean-pooling needs them all. `want_attn` taps the last block's
    /// attention probabilities.
    fn encode<E: Exec>(
        &self,
        ex: &mut E,
        stack: &TransformerEncoder,
        cls: Option<ParamId>,
        seq: E::V,
        want_attn: bool,
    ) -> (E::V, Option<E::V>) {
        let (encoded, attn) = {
            let seq = self.with_cls(ex, seq, cls);
            stack.run(ex, &seq, self.readout == Readout::Cls, want_attn)
        };
        let out = match self.readout {
            Readout::Cls => {
                let n = ex.shape(&encoded)[0];
                ex.reshape(&encoded, &[n, self.dim])
            }
            Readout::MeanPool => ex.mean_axis(&encoded, 1, false),
        };
        (out, attn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsdx_nn::{Eval, Tape};
    use tsdx_tensor::{ops, Graph};

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

    fn encoder(kind: AttentionKind, readout: Readout, seed: u64) -> (ParamStore, ClipEncoder) {
        let mut store = ParamStore::new();
        let enc = ClipEncoder::new(
            &mut store,
            &mut StdRng::seed_from_u64(seed),
            "enc",
            &cfg(kind, readout),
        );
        (store, enc)
    }

    fn run(kind: AttentionKind, readout: Readout) -> (usize, Vec<f32>) {
        let (store, enc) = encoder(kind, readout, 1);
        let tokens = Tensor::from_fn(&[2, 8, 8], |i| ((i % 13) as f32 - 6.0) * 0.1);
        let out = enc.forward(&mut Eval::new(&store), &tokens);
        assert_eq!(out.shape(), &[2, 8]);
        (store.num_scalars(), out.to_vec())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().into_iter().map(f32::to_bits).collect()
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
    fn the_tape_records_what_the_eval_executor_computes_bitwise() {
        for kind in [AttentionKind::Factorized, AttentionKind::Joint] {
            for readout in [Readout::Cls, Readout::MeanPool] {
                let (store, enc) = encoder(kind, readout, 1);
                let tokens = Tensor::from_fn(&[2, 8, 8], |i| ((i % 13) as f32 - 6.0) * 0.1);
                let mut g = Graph::new();
                let p = store.bind_frozen(&mut g);
                let x = g.constant(tokens.clone());
                let on_tape = enc.forward(&mut Tape::eval(&mut g, &p), &x);
                let direct = enc.forward(&mut Eval::new(&store), &tokens);
                assert_eq!(bits(g.value(on_tape)), bits(&direct), "{kind:?}/{readout:?}");
            }
        }
    }

    #[test]
    fn gradients_reach_cls_tokens() {
        let (store, enc) = encoder(AttentionKind::Factorized, Readout::Cls, 2);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let tokens = g.constant(Tensor::from_fn(&[1, 8, 8], |i| (i as f32 * 0.01).sin()));
        let out = enc.forward(&mut Tape::eval(&mut g, &p), &tokens);
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
        // spatial_summaries + temporal_readout must issue exactly the
        // operations `forward` does — the streaming session depends on it.
        for readout in [Readout::Cls, Readout::MeanPool] {
            let (store, enc) = encoder(AttentionKind::Factorized, readout, 3);
            let ex = &mut Eval::new(&store);
            let tokens = Tensor::from_fn(&[2, 8, 8], |i| (i as f32 * 0.05).sin());
            let full = enc.forward(ex, &tokens);

            let (sums, _) = enc.spatial_summaries(ex, tokens.reshape(&[4, 4, 8]), false);
            let staged = enc.temporal_readout(ex, &sums.reshape(&[2, 2, 8]));
            assert_eq!(bits(&full), bits(&staged), "{readout:?}");
        }
    }

    #[test]
    fn every_stage_reads_out_what_the_full_stack_leaves_bitwise() {
        // The reference runs every block over every row and only then
        // reads: row 0 for CLS (whose last block the encoder prunes to that
        // row), the mean over rows for mean-pool.
        let reference = |enc: &ClipEncoder,
                         ex: &mut Eval,
                         stack: &TransformerEncoder,
                         cls: Option<ParamId>,
                         seq: Tensor| {
            let seq = enc.with_cls(ex, seq, cls);
            let (full, _) = stack.run(ex, &seq, false, false);
            match enc.readout {
                Readout::Cls => ops::narrow(&full, 1, 0, 1).reshape(&[full.shape()[0], enc.dim]),
                Readout::MeanPool => ops::mean_axis(&full, 1, false),
            }
        };
        for readout in [Readout::Cls, Readout::MeanPool] {
            for kind in [AttentionKind::Factorized, AttentionKind::Joint] {
                let (store, enc) = encoder(kind, readout, 5);
                let ex = &mut Eval::new(&store);
                let ctx = format!("{kind:?}/{readout:?}");
                match kind {
                    AttentionKind::Factorized => {
                        let groups = Tensor::from_fn(&[6, 4, 8], |i| (i as f32 * 0.05).sin());
                        let (got, _) = enc.spatial_summaries(ex, groups.clone(), false);
                        let want = reference(&enc, ex, &enc.spatial, enc.cls_space, groups);
                        assert_eq!(bits(&got), bits(&want), "spatial {ctx}");

                        let frames = Tensor::from_fn(&[3, 2, 8], |i| (i as f32 * 0.11).cos());
                        let got = enc.temporal_readout(ex, &frames);
                        let timed = enc.with_time_positions(ex, &frames);
                        let temporal = enc.temporal.as_ref().unwrap();
                        let want = reference(&enc, ex, temporal, enc.cls_time, timed);
                        assert_eq!(bits(&got), bits(&want), "temporal {ctx}");
                    }
                    AttentionKind::Joint => {
                        let tokens = Tensor::from_fn(&[3, 8, 8], |i| (i as f32 * 0.05).sin());
                        let got = enc.forward(ex, &tokens);
                        let timed = enc.with_time_positions_grid(ex, &tokens);
                        let want = reference(&enc, ex, &enc.spatial, enc.cls_space, timed);
                        assert_eq!(bits(&got), bits(&want), "joint {ctx}");
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
        let (store, enc) = encoder(AttentionKind::Factorized, Readout::Cls, 4);
        let ex = &mut Eval::new(&store);
        let a = Tensor::from_fn(&[1, 2, 8], |i| if i < 8 { 1.0 } else { -1.0 });
        let mut rev = a.to_vec();
        rev.rotate_left(8);
        let ya = enc.temporal_readout(ex, &a);
        let yb = enc.temporal_readout(ex, &Tensor::from_vec(rev, &[1, 2, 8]));
        assert_ne!(ya.to_vec(), yb.to_vec(), "time order must matter");
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
