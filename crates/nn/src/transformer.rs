//! Transformer encoder blocks (pre-norm) and stacks.

use std::sync::Arc;

use rand::Rng;
use tsdx_tensor::ops::Activation;
use tsdx_tensor::{metrics, Graph, Var};

use crate::attention::MultiHeadAttention;
use crate::dropout::Dropout;
use crate::exec::{Exec, Tape};
use crate::linear::Linear;
use crate::norm::LayerNorm;
use crate::params::{Binding, ParamStore};

/// Two-layer GELU MLP used inside transformer blocks.
#[derive(Debug, Clone)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
}

impl Mlp {
    /// Registers an MLP expanding `dim` to `hidden` and back.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        dim: usize,
        hidden: usize,
    ) -> Self {
        Mlp {
            fc1: Linear::new(store, rng, &format!("{name}.fc1"), dim, hidden),
            fc2: Linear::new(store, rng, &format!("{name}.fc2"), hidden, dim),
        }
    }

    /// `fc2(gelu(fc1(x))) + residual` in two operations: the GELU rides
    /// `fc1`'s epilogue and the residual add `fc2`'s.
    pub fn run<E: Exec>(&self, ex: &mut E, x: &E::V, residual: Option<&E::V>) -> E::V {
        let a = self.fc1.run(ex, x, Activation::Gelu, None);
        self.fc2.run(ex, &a, Activation::None, residual)
    }
}

/// A pre-norm transformer encoder block:
/// `x + Attn(LN(x))` followed by `x + MLP(LN(x))`.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    // `layer/<registration name>`, the key of the per-layer forward metric
    // span, built once here and shared by every forward. Backward time is
    // attributed per-op by the tape (`bwd/*` spans) since replay interleaves
    // layers.
    span: Arc<str>,
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    mlp: Mlp,
    dropout: Dropout,
}

impl TransformerBlock {
    /// Registers a block of width `dim` with `heads` attention heads and an
    /// MLP hidden width of `mlp_ratio * dim`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        dim: usize,
        heads: usize,
        mlp_ratio: usize,
        dropout: f32,
    ) -> Self {
        TransformerBlock {
            span: format!("layer/{name}").into(),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            attn: MultiHeadAttention::new(store, rng, &format!("{name}.attn"), dim, heads),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
            mlp: Mlp::new(store, rng, &format!("{name}.mlp"), dim, mlp_ratio * dim),
            dropout: Dropout::new(dropout),
        }
    }

    /// Applies the block to `[B, T, D]` tokens on the tape; `rng` drives the
    /// dropout sites when `train`.
    pub fn forward(
        &self,
        g: &mut Graph,
        p: &Binding,
        x: Var,
        rng: &mut impl Rng,
        train: bool,
    ) -> Var {
        self.run(&mut Tape::new(g, p, train.then_some(rng)), &x, false, false).0
    }

    /// Inference-only forward pass on the tape (no dropout sites, no RNG).
    ///
    /// Dropout at eval time is an exact identity, so this builds the same
    /// graph as [`forward`](Self::forward) with `train == false` and is
    /// bit-identical to it.
    pub fn forward_eval(&self, g: &mut Graph, p: &Binding, x: Var) -> Var {
        self.run(&mut Tape::eval(g, p), &x, false, false).0
    }

    /// The block's one wiring, `x + Attn(LN(x))` then `x + MLP(LN(x))`, in
    /// 9 operations: attention between its projections is one, both
    /// residual adds ride the epilogue of the linear layer in front of them
    /// (`wo`, `fc2`) and the GELU rides `fc1`'s. Only where the executor has
    /// live dropout sites (a training pass, a nonzero drop probability) do
    /// they exist — between each branch and its residual add, so those two
    /// adds become separate operations again.
    ///
    /// `want_attn` also returns the attention probabilities `[B, H, T, T]`,
    /// for introspection.
    ///
    /// `first_only` asks for row 0 of the output alone, `[B, 1, D]` — what a
    /// CLS readout keeps of a stack's last block. Only K and V need every
    /// row, so LN1 runs over all of them and Q, the scores (`[B, H, 1, T]`),
    /// `wo`, LN2 and the MLP run on row 0. LayerNorm, the linear layers and
    /// softmax compute each row from that row alone, so these are the bits
    /// the full block leaves in row 0. A live dropout
    /// site draws its mask over all rows, and attention probabilities are
    /// wanted for every query: either runs the block in full and narrows.
    pub fn run<E: Exec>(
        &self,
        ex: &mut E,
        x: &E::V,
        first_only: bool,
        want_attn: bool,
    ) -> (E::V, Option<E::V>) {
        let _span = metrics::span_shared(&self.span);
        let fused = !ex.drops(&self.dropout);
        let row0_early = first_only && fused && !want_attn;
        let n1 = self.ln1.run(ex, x);
        let row0 = row0_early.then(|| (ex.narrow(x, 1, 0, 1), ex.narrow(&n1, 1, 0, 1)));
        let (x, q_rows) = row0.as_ref().map_or((x, &n1), |(x0, q0)| (x0, q0));
        let (a, attn) = self.attn.run(ex, q_rows, &n1, fused.then_some(x), want_attn);
        // Fused, each branch added its skip in its own epilogue.
        let x1 = if fused { a } else { self.join(ex, x, a) };
        let n2 = self.ln2.run(ex, &x1);
        let m = self.mlp.run(ex, &n2, fused.then_some(&x1));
        let y = if fused { m } else { self.join(ex, &x1, m) };
        (if first_only && !row0_early { ex.narrow(&y, 1, 0, 1) } else { y }, attn)
    }

    /// `skip + dropout(branch)` across a live dropout site.
    fn join<E: Exec>(&self, ex: &mut E, skip: &E::V, branch: E::V) -> E::V {
        let dropped = ex.dropout(&self.dropout, branch);
        ex.add(skip, &dropped)
    }
}

/// A stack of [`TransformerBlock`]s followed by a final layer norm.
#[derive(Debug, Clone)]
pub struct TransformerEncoder {
    blocks: Vec<TransformerBlock>,
    ln_final: LayerNorm,
}

impl TransformerEncoder {
    /// Registers `depth` blocks under `name`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        dim: usize,
        depth: usize,
        heads: usize,
        mlp_ratio: usize,
        dropout: f32,
    ) -> Self {
        let blocks = (0..depth)
            .map(|i| {
                TransformerBlock::new(
                    store,
                    rng,
                    &format!("{name}.block{i}"),
                    dim,
                    heads,
                    mlp_ratio,
                    dropout,
                )
            })
            .collect();
        TransformerEncoder {
            blocks,
            ln_final: LayerNorm::new(store, &format!("{name}.ln_final"), dim),
        }
    }

    /// Applies all blocks and the final norm to `[B, T, D]` tokens.
    ///
    /// `first_only` returns row 0 of that output alone, `[B, 1, D]`, with the
    /// same bits — the CLS readout. Every block but the last runs in full;
    /// the last computes only what row 0 depends on (see
    /// [`TransformerBlock::run`]), and the final norm sees one row. A stack
    /// of depth 0 is the final norm of input row 0.
    ///
    /// `want_attn` also returns the *last* block's attention probabilities
    /// `[B, H, T, T]`.
    ///
    /// # Panics
    ///
    /// Panics when `want_attn` is asked of a stack without blocks.
    pub fn run<E: Exec>(
        &self,
        ex: &mut E,
        x: &E::V,
        first_only: bool,
        want_attn: bool,
    ) -> (E::V, Option<E::V>) {
        let Some((last, body)) = self.blocks.split_last() else {
            assert!(!want_attn, "encoder has no block to take attention from");
            let x = if first_only { &ex.narrow(x, 1, 0, 1) } else { x };
            return (self.ln_final.run(ex, x), None);
        };
        let mut h = None;
        for block in body {
            h = Some(block.run(ex, h.as_ref().unwrap_or(x), false, false).0);
        }
        let (y, attn) = last.run(ex, h.as_ref().unwrap_or(x), first_only, want_attn);
        (self.ln_final.run(ex, &y), attn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsdx_tensor::Tensor;

    use crate::exec::Eval;

    /// The stack on the tape, the way a training loop (`train`) or an
    /// evaluation on the tape (`!train`) runs it.
    fn on_tape(
        enc: &TransformerEncoder,
        g: &mut Graph,
        p: &Binding,
        x: Var,
        rng: &mut StdRng,
        train: bool,
        first_only: bool,
    ) -> Var {
        enc.run(&mut Tape::new(g, p, train.then_some(rng)), &x, first_only, false).0
    }

    #[test]
    fn encoder_preserves_token_shape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", 8, 2, 2, 2, 0.0);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::from_fn(&[2, 4, 8], |i| (i as f32 * 0.01).sin()));
        let y = on_tape(&enc, &mut g, &p, x, &mut rng, false, false);
        assert_eq!(g.shape(y), &[2, 4, 8]);
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn all_parameters_receive_gradients() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(6);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", 4, 1, 2, 2, 0.0);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::from_fn(&[1, 3, 4], |i| (i as f32 * 0.07).cos()));
        let y = on_tape(&enc, &mut g, &p, x, &mut rng, false, false);
        let loss = g.mean_all(y);
        let grads = g.backward(loss);
        let collected = store.collect_grads(&p, &grads);
        let mut nonzero = 0;
        for (i, t) in collected.iter().enumerate() {
            if t.data().iter().any(|&v| v != 0.0) {
                nonzero += 1;
            } else {
                // Biases of value projections can legitimately be ~0 only in
                // contrived cases; flag anything suspicious.
                eprintln!("zero grad for {}", store.name(store.ids().nth(i).unwrap()));
            }
        }
        // Every tensor should participate in a pre-norm block.
        assert!(nonzero >= store.len() - 1, "only {nonzero}/{} grads nonzero", store.len());
    }

    #[test]
    fn eval_executor_is_bit_identical_to_the_tape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", 8, 2, 2, 2, 0.1);
        let x0 = Tensor::from_fn(&[2, 5, 8], |i| (i as f32 * 0.03).sin());
        let mut g = Graph::new();
        let p = store.bind_frozen(&mut g);
        let x = g.constant(x0.clone());
        for first_only in [false, true] {
            let reference = on_tape(&enc, &mut g, &p, x, &mut rng, false, first_only);
            let (evaled, _) = enc.run(&mut Eval::new(&store), &x0, first_only, false);
            assert_eq!(bits(g.value(reference)), bits(&evaled), "first_only {first_only}");
        }
    }

    #[test]
    fn default_width_block_eval_forward_records_9_nodes() {
        // The model's block: width 64, 4 heads, MLP ratio 2. ln1 + q/k/v +
        // attention + wo(+x) + ln2 + fc1(+GELU) + fc2(+x). The head splits,
        // kᵀ, q·kᵀ, scale, softmax, p·v and the merge as nodes of their own
        // made it 21; bias, GELU and residual as theirs, 42.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let block = TransformerBlock::new(&mut store, &mut rng, "b", 64, 4, 2, 0.0);
        let mut g = Graph::new();
        let p = store.bind_frozen(&mut g);
        let x = g.constant(Tensor::from_fn(&[4, 17, 64], |i| (i as f32 * 0.01).sin()));
        let before = g.len();
        block.forward_eval(&mut g, &p, x);
        assert!(g.len() - before <= 9, "block eval forward grew to {} nodes", g.len() - before);
    }

    fn stack(
        dim: usize,
        heads: usize,
        depth: usize,
        dropout: f32,
    ) -> (ParamStore, TransformerEncoder) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(21);
        let enc =
            TransformerEncoder::new(&mut store, &mut rng, "enc", dim, depth, heads, 2, dropout);
        // LayerNorm and bias parameters start at 1 and 0: move them so a
        // row mix-up cannot hide behind an identity.
        let ids: Vec<_> = store.ids().collect();
        for (k, id) in ids.into_iter().enumerate() {
            if store.value(id).rank() == 1 {
                let v = store.value(id).clone();
                let moved = Tensor::from_fn(v.shape(), |i| {
                    v.data()[i] + ((i + 3 * k) as f32 * 0.37).sin() * 0.2
                });
                store.set_value(id, moved);
            }
        }
        (store, enc)
    }

    fn tokens(b: usize, t: usize, d: usize) -> Tensor {
        Tensor::from_fn(&[b, t, d], |i| (i as f32 * 0.0173).sin() + (i % 7) as f32 * 0.05)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().into_iter().map(f32::to_bits).collect()
    }

    #[test]
    fn forward_first_is_row_zero_of_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(0);
        for (dim, heads) in [(8, 2), (64, 4)] {
            for depth in 0..=2 {
                let (store, enc) = stack(dim, heads, depth, 0.0);
                for t in [1, 2, 5, 17] {
                    for b in [1, 3, 8] {
                        for binding in ["frozen", "leaf"] {
                            let mut g = Graph::new();
                            let p = match binding {
                                "frozen" => store.bind_frozen(&mut g),
                                _ => store.bind(&mut g),
                            };
                            let x = g.constant(tokens(b, t, dim));
                            let full = on_tape(&enc, &mut g, &p, x, &mut rng, false, false);
                            let want = g.narrow(full, 1, 0, 1);
                            let got = on_tape(&enc, &mut g, &p, x, &mut rng, false, true);
                            assert_eq!(g.shape(got), &[b, 1, dim]);
                            assert_eq!(
                                bits(g.value(got)),
                                bits(g.value(want)),
                                "dim {dim} depth {depth} T {t} B {b} {binding}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn readout_row_block_eval_forward_records_11_nodes() {
        // The 9 of the full block plus the two narrows (row 0 of `x` and of
        // `LN1(x)`); every node after K and V is one row tall.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let block = TransformerBlock::new(&mut store, &mut rng, "b", 64, 4, 2, 0.0);
        let mut g = Graph::new();
        let p = store.bind_frozen(&mut g);
        let x = g.constant(tokens(4, 17, 64));
        let before = g.len();
        let (y, attn) = block.run(&mut Tape::eval(&mut g, &p), &x, true, false);
        assert!(g.len() - before <= 11, "readout-row block grew to {} nodes", g.len() - before);
        assert_eq!(g.shape(y), &[4, 1, 64]);
        assert!(attn.is_none(), "nobody asked for the probabilities");
    }

    #[test]
    fn forward_first_parameter_gradients_match_full_then_narrow() {
        // Rows 1.. of the last block carry an exactly-zero upstream
        // gradient in the full graph, so the two backward passes sum the
        // same nonzero terms — in sums of different length, hence the
        // tolerance instead of bit equality.
        let (store, enc) = stack(8, 2, 2, 0.0);
        let grads = |first: bool| {
            let mut rng = StdRng::seed_from_u64(0);
            let mut g = Graph::new();
            let p = store.bind(&mut g);
            let x = g.constant(tokens(3, 5, 8));
            let row = if first {
                on_tape(&enc, &mut g, &p, x, &mut rng, false, true)
            } else {
                let full = on_tape(&enc, &mut g, &p, x, &mut rng, false, false);
                g.narrow(full, 1, 0, 1)
            };
            let sq = g.mul(row, row);
            let loss = g.mean_all(sq);
            let grads = g.backward(loss);
            store.collect_grads(&p, &grads)
        };
        for ((got, want), id) in grads(true).iter().zip(&grads(false)).zip(store.ids()) {
            let scale = want.to_vec().iter().fold(0f32, |m, v| m.max(v.abs()));
            assert!(scale > 0.0, "{} got no gradient", store.name(id));
            for (a, b) in got.to_vec().iter().zip(want.to_vec()) {
                assert!(
                    (a - b).abs() <= 1e-6 * scale,
                    "{}: {a} vs {b} (tensor scale {scale})",
                    store.name(id)
                );
            }
        }
    }

    #[test]
    fn gradcheck_through_the_readout_row_block() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let block = TransformerBlock::new(&mut store, &mut rng, "b", 4, 2, 2, 0.0);
        let x = Tensor::from_fn(&[2, 3, 4], |i| (i as f32 * 0.23).sin() * 0.5);
        tsdx_tensor::grad_check::assert_gradients(&[x], 1e-2, 2e-2, |g, v| {
            let p = store.bind_frozen(g);
            let (y, _) = block.run(&mut Tape::eval(g, &p), &v[0], true, false);
            g.mean_all(y)
        });
    }

    #[test]
    fn live_dropout_runs_the_last_block_in_full() {
        // A dropout site masks all rows, so `forward_first` must draw what
        // `forward` draws: same bits, same RNG position afterwards.
        let (store, enc) = stack(8, 2, 2, 0.1);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(tokens(3, 5, 8));
        let (mut r1, mut r2) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        let full = on_tape(&enc, &mut g, &p, x, &mut r1, true, false);
        let want = g.narrow(full, 1, 0, 1);
        let got = on_tape(&enc, &mut g, &p, x, &mut r2, true, true);
        assert_eq!(bits(g.value(got)), bits(g.value(want)));
        assert_eq!(r1.state(), r2.state(), "a different number of masks was drawn");
        assert_ne!(r1.state(), StdRng::seed_from_u64(5).state(), "no mask was drawn at all");
    }

    #[test]
    fn fused_block_matches_the_unfused_composition_bitwise() {
        // The block with the GELU and both residual adds unrolled into the
        // separate nodes they were (bias fusion is pinned at the tensor
        // level, against `matmul` + `add`).
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(12);
        let block = TransformerBlock::new(&mut store, &mut rng, "b", 8, 2, 2, 0.0);
        let mut g = Graph::new();
        let p = store.bind_frozen(&mut g);
        let x = g.constant(Tensor::from_fn(&[3, 5, 8], |i| (i as f32 * 0.07).cos()));
        let fused = block.forward_eval(&mut g, &p, x);

        let n1 = block.ln1.forward(&mut g, &p, x);
        let a = block.attn.forward(&mut g, &p, n1);
        let x1 = g.add(x, a);
        let n2 = block.ln2.forward(&mut g, &p, x1);
        let h = block.mlp.fc1.forward(&mut g, &p, n2);
        let h = g.gelu(h);
        let m = block.mlp.fc2.forward(&mut g, &p, h);
        let unfused = g.add(x1, m);
        assert_eq!(g.value(fused).data(), g.value(unfused).data());
    }

    #[test]
    fn dropout_changes_training_forward_only() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let block = TransformerBlock::new(&mut store, &mut rng, "b", 4, 2, 2, 0.5);
        let x0 = Tensor::from_fn(&[1, 3, 4], |i| (i as f32 * 0.13).sin());

        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(x0.clone());
        let mut r1 = StdRng::seed_from_u64(1);
        let y_eval = block.forward(&mut g, &p, x, &mut r1, false);
        let mut r2 = StdRng::seed_from_u64(1);
        let x2 = g.constant(x0);
        let y_eval2 = block.forward(&mut g, &p, x2, &mut r2, false);
        // Eval mode is deterministic.
        assert!(g.value(y_eval).allclose(g.value(y_eval2), 1e-6));
    }
}
