//! Multi-head self-attention.

use rand::Rng;
use tsdx_tensor::ops::Activation;
use tsdx_tensor::{Graph, Var};

use crate::exec::{Exec, Tape};
use crate::linear::Linear;
use crate::params::{Binding, ParamStore};

/// Multi-head scaled-dot-product self-attention over `[B, T, D]` inputs.
///
/// Heads are column groups of the projected queries/keys/values: the one
/// attention op ([`Graph::attention`]) walks `(batch, head)` tiles of the
/// unsplit `[B, T, D]` projections and writes each head's context at its
/// merged position, with the bits of the original transformer's
/// reshape-to-`[B, H, T, D/H]` batched-matmul formulation.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadAttention {
    /// Registers the four projection matrices under `name`.
    ///
    /// # Panics
    ///
    /// Panics unless `heads` divides `dim`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        dim: usize,
        heads: usize,
    ) -> Self {
        assert!(heads > 0 && dim.is_multiple_of(heads), "heads ({heads}) must divide dim ({dim})");
        MultiHeadAttention {
            wq: Linear::new(store, rng, &format!("{name}.wq"), dim, dim),
            wk: Linear::new(store, rng, &format!("{name}.wk"), dim, dim),
            wv: Linear::new(store, rng, &format!("{name}.wv"), dim, dim),
            wo: Linear::new(store, rng, &format!("{name}.wo"), dim, dim),
            heads,
            dim,
        }
    }

    /// Applies self-attention to `x` of shape `[B, T, D]` on the tape: four
    /// projections around one [`Graph::attention`] node, whatever the shape.
    /// [`run`](Self::run) with `want_attn` also returns the probabilities.
    pub fn forward(&self, g: &mut Graph, p: &Binding, x: Var) -> Var {
        self.run(&mut Tape::eval(g, p), &x, &x, None, false).0
    }

    /// Projections, the attention operation and the output projection, on
    /// either executor. Queries come from `xq` (`[B, Tq, D]`), keys and
    /// values from `xkv` (`[B, Tk, D]`); self-attention passes the same rows
    /// twice, a block that is read out through one row passes only that row
    /// as `xq`. Every step is independent per query row, so the `Tq` output
    /// rows carry the bits the same rows of full self-attention would.
    /// `residual`, when given, is added by the output projection's epilogue
    /// (a transformer block's `x + Attn(..)` without a separate add).
    /// Returns the probabilities (`[B, H, Tq, Tk]`) when `want_attn` asks for
    /// them.
    pub fn run<E: Exec>(
        &self,
        ex: &mut E,
        xq: &E::V,
        xkv: &E::V,
        residual: Option<&E::V>,
        want_attn: bool,
    ) -> (E::V, Option<E::V>) {
        for x in [xq, xkv] {
            let sh = ex.shape(x);
            assert_eq!(sh.len(), 3, "attention input must be [B, T, D]");
            assert_eq!(sh[2], self.dim, "attention width mismatch");
        }
        assert_eq!(ex.shape(xq)[0], ex.shape(xkv)[0], "query and key/value batch sizes differ");
        let (ctx, attn) = {
            let q = self.wq.run(ex, xq, Activation::None, None);
            let k = self.wk.run(ex, xkv, Activation::None, None);
            let v = self.wv.run(ex, xkv, Activation::None, None);
            let scale = 1.0 / ((self.dim / self.heads) as f32).sqrt();
            ex.attention(&q, &k, &v, self.heads, scale, want_attn)
        };
        (self.wo.run(ex, &ctx, Activation::None, residual), attn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsdx_tensor::Tensor;

    fn setup(dim: usize, heads: usize) -> (ParamStore, MultiHeadAttention) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(42);
        let mha = MultiHeadAttention::new(&mut store, &mut rng, "attn", dim, heads);
        (store, mha)
    }

    #[test]
    fn output_shape_matches_input() {
        let (store, mha) = setup(8, 2);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::ones(&[2, 5, 8]));
        let y = mha.forward(&mut g, &p, x);
        assert_eq!(g.shape(y), &[2, 5, 8]);
    }

    #[test]
    fn attention_probabilities_are_distributions() {
        let (store, mha) = setup(4, 2);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::from_fn(&[1, 3, 4], |i| (i as f32 * 0.31).sin()));
        let (_, attn) = mha.run(&mut Tape::eval(&mut g, &p), &x, &x, None, true);
        let a = g.value(attn.expect("asked for"));
        assert_eq!(a.shape(), &[1, 2, 3, 3]);
        for row in a.data().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn permutation_equivariance_without_positions() {
        // Self-attention without positional encoding is permutation
        // equivariant: permuting tokens permutes outputs identically.
        let (store, mha) = setup(4, 1);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x0 = Tensor::from_fn(&[1, 3, 4], |i| (i as f32 * 0.17).cos());
        // Swap tokens 0 and 2.
        let mut swapped = vec![0.0; 12];
        for t in 0..3 {
            let src = [2usize, 1, 0][t];
            swapped[t * 4..(t + 1) * 4].copy_from_slice(&x0.data()[src * 4..(src + 1) * 4]);
        }
        let xa = g.constant(x0);
        let xb = g.constant(Tensor::from_vec(swapped, &[1, 3, 4]));
        let ya = mha.forward(&mut g, &p, xa);
        let yb = mha.forward(&mut g, &p, xb);
        let a = g.value(ya);
        let b = g.value(yb);
        for t in 0..3 {
            let src = [2usize, 1, 0][t];
            for c in 0..4 {
                assert!(
                    (b.at(&[0, t, c]) - a.at(&[0, src, c])).abs() < 1e-5,
                    "not permutation equivariant"
                );
            }
        }
    }

    /// `forward` unrolled into the head split, `q·kᵀ`, scale, softmax,
    /// `p·v`, merge graph it used to record.
    fn composed(mha: &MultiHeadAttention, g: &mut Graph, p: &Binding, x: Var) -> Var {
        let sh = g.shape(x).to_vec();
        let (b, t, h) = (sh[0], sh[1], mha.heads);
        let dh = mha.dim / h;
        let split = |g: &mut Graph, w: &Linear| {
            let y = w.forward(g, p, x);
            let r = g.reshape(y, &[b, t, h, dh]);
            g.permute(r, &[0, 2, 1, 3])
        };
        let (q, k, v) = (split(g, &mha.wq), split(g, &mha.wk), split(g, &mha.wv));
        let kt = g.transpose_last2(k);
        let scores = g.matmul(q, kt);
        let scaled = g.scale(scores, 1.0 / (dh as f32).sqrt());
        let attn = g.softmax_last(scaled);
        let ctx = g.matmul(attn, v);
        let merged = g.permute(ctx, &[0, 2, 1, 3]);
        let flat = g.reshape(merged, &[b, t, mha.dim]);
        mha.wo.forward(g, p, flat)
    }

    #[test]
    fn forward_matches_the_composed_graph_bitwise_at_every_size() {
        // On both sides of the size at which a second realization used to
        // take over (2¹⁶ score elements): one op, one set of bits.
        let (store, mha) = setup(8, 2);
        for (b, t) in [(2, 5), (1, 200), (3, 17)] {
            let mut g = Graph::new();
            let p = store.bind(&mut g);
            let x = g.constant(Tensor::from_fn(&[b, t, 8], |i| (i as f32 * 0.13).sin()));
            let one = mha.forward(&mut g, &p, x);
            let (with_attn, attn) = mha.run(&mut Tape::eval(&mut g, &p), &x, &x, None, true);
            let want = composed(&mha, &mut g, &p, x);
            assert_eq!(g.value(one).to_vec(), g.value(want).to_vec(), "B {b} T {t}");
            assert_eq!(g.value(with_attn).to_vec(), g.value(want).to_vec(), "B {b} T {t}");
            assert_eq!(g.shape(attn.expect("asked for")), &[b, 2, t, t]);
        }
    }

    #[test]
    fn eval_executor_probabilities_tap_equals_the_tapes() {
        let (store, mha) = setup(8, 2);
        let x0 = Tensor::from_fn(&[2, 5, 8], |i| (i as f32 * 0.13).sin());
        let mut g = Graph::new();
        let p = store.bind_frozen(&mut g);
        let x = g.constant(x0.clone());
        let (y, attn) = mha.run(&mut Tape::eval(&mut g, &p), &x, &x, None, true);
        let (ey, eattn) = mha.run(&mut crate::Eval::new(&store), &x0, &x0, None, true);
        assert_eq!(g.value(y).to_vec(), ey.to_vec());
        assert_eq!(g.value(attn.expect("asked for")).to_vec(), eattn.expect("asked for").to_vec());
    }

    #[test]
    fn parameter_gradients_match_the_composed_graph_bitwise() {
        let (store, mha) = setup(8, 2);
        let grads = |one_node: bool| {
            let mut g = Graph::new();
            let p = store.bind(&mut g);
            let x = g.leaf(Tensor::from_fn(&[2, 5, 8], |i| (i as f32 * 0.13).sin()));
            let y =
                if one_node { mha.forward(&mut g, &p, x) } else { composed(&mha, &mut g, &p, x) };
            let sq = g.mul(y, y);
            let loss = g.mean_all(sq);
            let grads = g.backward(loss);
            let mut all = store.collect_grads(&p, &grads);
            all.push(grads.get(x).expect("input is a leaf").clone());
            all
        };
        for (got, want) in grads(true).iter().zip(&grads(false)) {
            assert_eq!(got.to_vec(), want.to_vec());
        }
    }

    #[test]
    fn gradcheck_through_attention() {
        // End-to-end gradient check of the full attention block w.r.t. its
        // input, using frozen parameters.
        let (store, mha) = setup(4, 2);
        let x = Tensor::from_fn(&[1, 3, 4], |i| (i as f32 * 0.23).sin() * 0.5);
        tsdx_tensor::grad_check::assert_gradients(&[x], 1e-2, 2e-2, |g, v| {
            let p = store.bind_frozen(g);
            let y = mha.forward(g, &p, v[0]);
            g.mean_all(y)
        });
    }
}
