//! Multi-head self-attention.

use rand::Rng;
use tsdx_tensor::ops::Activation;
use tsdx_tensor::{Graph, Var};

use crate::linear::Linear;
use crate::params::{Binding, ParamStore};

/// Largest `[B, H, Tq, Tk]` score-tensor size (elements) routed to the
/// composed matmul/softmax/matmul path by
/// [`MultiHeadAttention::forward`].
///
/// Measured on the table-4 geometry (`B*H` 32, `T` 17, `Dh` 16): composed
/// forward 97µs vs 125µs fused, and composed backward reuses the retained
/// probabilities where fused backward pays a 276µs recompute of every score
/// row. The composed advantage holds while the probability tensor stays
/// cache-resident; past 2^16 elements (256 KB) its materialization,
/// autograd retention, and the extra transpose overtake the fused kernel's
/// O(T) per-row streaming, so large problems go fused.
pub const COMPOSED_SCORES_MAX: usize = 1 << 16;

/// Multi-head scaled-dot-product self-attention over `[B, T, D]` inputs.
///
/// Heads are realized by reshaping the projected queries/keys/values to
/// `[B, H, T, D/H]` and running a batched matmul over the `[B, H]` batch
/// dimensions, exactly as in the original transformer.
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

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Applies self-attention to `x` of shape `[B, T, D]`.
    ///
    /// Dispatches between two equivalent realizations of
    /// `softmax(QKᵀ/√Dh)·V` on the size of the `[B, H, T, T]` score tensor
    /// (see [`COMPOSED_SCORES_MAX`]): small problems take the composed
    /// matmul/softmax/matmul graph, whose retained probabilities make
    /// backward a pair of cheap matmuls; large problems take the fused
    /// [`Graph::attention`] kernel, which streams scores per query row and
    /// never materializes the probability tensor. Use
    /// [`forward_with_attn`](Self::forward_with_attn) when the
    /// probabilities themselves are needed.
    pub fn forward(&self, g: &mut Graph, p: &Binding, x: Var) -> Var {
        self.forward_impl(g, p, x, x, None, false).0
    }

    /// Like [`forward`](Self::forward) but also returns the attention
    /// probabilities (`[B, H, T, T]`) for introspection. Always takes the
    /// composed path, which produces them as a graph node.
    pub fn forward_with_attn(&self, g: &mut Graph, p: &Binding, x: Var) -> (Var, Var) {
        let (y, attn) = self.forward_impl(g, p, x, x, None, true);
        (y, attn.expect("composed path always yields probabilities"))
    }

    /// Projections, head split, scaled-dot-product dispatch, head merge and
    /// output projection. Queries come from `xq` (`[B, Tq, D]`), keys and
    /// values from `xkv` (`[B, Tk, D]`); self-attention passes the same rows
    /// twice, a block that is read out through one row passes only that row
    /// as `xq`. Every step is independent per query row, so the `Tq` output
    /// rows carry the bits the same rows of full self-attention would, as
    /// long as both sit on the same side of the dispatch (which is on the
    /// `[B, H, Tq, Tk]` score tensor actually built). `residual`, when
    /// given, is added by the output projection's epilogue (a transformer
    /// block's `x + Attn(..)` without a separate add). Returns the
    /// probabilities when the composed path ran.
    pub(crate) fn forward_impl(
        &self,
        g: &mut Graph,
        p: &Binding,
        xq: Var,
        xkv: Var,
        residual: Option<Var>,
        want_attn: bool,
    ) -> (Var, Option<Var>) {
        let (qsh, ksh) = (g.shape(xq).to_vec(), g.shape(xkv).to_vec());
        for sh in [&qsh, &ksh] {
            assert_eq!(sh.len(), 3, "attention input must be [B, T, D]");
            assert_eq!(sh[2], self.dim, "attention width mismatch");
        }
        assert_eq!(qsh[0], ksh[0], "query and key/value batch sizes differ");
        let (b, tq, tk, d) = (qsh[0], qsh[1], ksh[1], self.dim);
        let h = self.heads;
        let dh = d / h;

        // [B, T, D] -> [B, H, T, Dh]
        let split = |g: &mut Graph, y: Var, t: usize| {
            let r = g.reshape(y, &[b, t, h, dh]);
            g.permute(r, &[0, 2, 1, 3])
        };
        let q = self.wq.forward(g, p, xq);
        let k = self.wk.forward(g, p, xkv);
        let v = self.wv.forward(g, p, xkv);
        let q = split(g, q, tq);
        let k = split(g, k, tk);
        let v = split(g, v, tk);
        let scale = 1.0 / (dh as f32).sqrt();

        let (ctx, attn) = if want_attn || b * h * tq * tk <= COMPOSED_SCORES_MAX {
            let kt = g.transpose_last2(k);
            let scores = g.matmul(q, kt);
            let scaled = g.scale(scores, scale);
            let attn = g.softmax_last(scaled);
            (g.matmul(attn, v), Some(attn))
        } else {
            (g.attention(q, k, v, scale), None)
        };
        let merged = g.permute(ctx, &[0, 2, 1, 3]);
        let flat = g.reshape(merged, &[b, tq, d]);
        (self.wo.forward_fused(g, p, flat, Activation::None, residual), attn)
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
    fn attention_rows_are_distributions() {
        let (store, mha) = setup(4, 2);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::from_fn(&[1, 3, 4], |i| (i as f32 * 0.31).sin()));
        let (_, attn) = mha.forward_with_attn(&mut g, &p, x);
        let a = g.value(attn);
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

    #[test]
    fn fused_forward_matches_composed_path() {
        // Past the dispatch cap `forward` uses the fused kernel while
        // `forward_with_attn` always composes; both must agree. T is sized
        // so B*H*T*T exceeds COMPOSED_SCORES_MAX and the fused branch
        // actually runs.
        let (store, mha) = setup(8, 2);
        let t = 200;
        assert!(2 * t * t > COMPOSED_SCORES_MAX, "test no longer covers the fused branch");
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::from_fn(&[1, t, 8], |i| (i as f32 * 0.13).sin()));
        let fused = mha.forward(&mut g, &p, x);
        let (composed, _) = mha.forward_with_attn(&mut g, &p, x);
        assert!(
            g.value(fused).allclose(g.value(composed), 1e-4),
            "fused and composed attention diverged"
        );
    }

    #[test]
    fn dispatch_paths_agree_below_cap() {
        // Below the cap `forward` takes the composed path; it must agree
        // with `forward_with_attn`'s graph exactly (same ops, same order).
        let (store, mha) = setup(8, 2);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::from_fn(&[2, 5, 8], |i| (i as f32 * 0.13).sin()));
        let small = mha.forward(&mut g, &p, x);
        let (composed, _) = mha.forward_with_attn(&mut g, &p, x);
        assert!(
            g.value(small).allclose(g.value(composed), 1e-6),
            "composed dispatch diverged from forward_with_attn"
        );
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
