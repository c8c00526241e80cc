//! Multi-head scaled-dot-product attention: one head-tile kernel for every
//! shape, training and eval.
//!
//! [`attention`] takes the *unsplit* projections — `q [.., Tq, H·dh]`,
//! `k [.., Tk, H·dh]`, `v [.., Tk, H·dv]` — and returns the *merged*
//! `[.., Tq, H·dv]`, walking `(batch, head)` tiles. Per batch element `kᵀ`
//! is transposed once into `[H·dh][32]` tiles ([`transpose_tile`]); then, for
//! each block of 32 query rows, every head's scores go through the GEMM
//! micro-kernel ([`mul_cols`]), the row softmax with `scale` folded into its
//! first pass runs once over all of them ([`softmax_rows`] — the function
//! [`super::softmax_last`] runs), and a second micro-kernel call per head
//! stores the context straight at its merged position (output row stride
//! `H·dv`, columns `h·dv..`). No head split, no `kᵀ` view, no scale pass, no
//! merge copy, and the `[.., H, Tq, Tk]` probabilities are materialized only
//! when the caller keeps them ([`attention_with_probs`], for backward and
//! introspection); otherwise scratch is `O(H·(32 + dh)·Tk)`.
//!
//! # Same bits as the composition
//!
//! Every output element is what `permute → matmul(q, kᵀ) → scale →
//! softmax_last → matmul(p, v) → merge` computes, bit for bit: a score is one
//! accumulator fused-multiply-added from zero in ascending `d` (the chain
//! every GEMM path builds, see [`super::matmul`](mod@super::matmul)), then
//! `·scale` and `− max` each rounded once, the shared exponential and lane
//! sum, a true division, and a context element is again one ascending
//! fused-multiply-add chain over the keys. Tiling and row blocking only
//! decide where an element is computed, never its chain, so results do not
//! depend on shape or batch size. `tests/attention_parity.rs` pins all of it
//! against the composition of public ops.
//!
//! [`attention_backward`] is the composed rule on the kept probabilities,
//! through the same [`super::matmul()`] and softmax-backward kernels the
//! composed graph's backward runs.

use super::matmul::{mul_cols, transpose_tile, use_avx512, Epilogue, Groups, Mat, NC};
use super::reduce::{softmax_last_backward, softmax_rows};
use super::{matmul, permute, scale, transpose_last2};
use crate::shape::Dims;
use crate::workspace::{self, Scratch};
use crate::Tensor;

/// Validated geometry shared by forward and backward.
#[derive(Clone, Copy)]
struct Geom {
    nb: usize,
    tq: usize,
    tk: usize,
    heads: usize,
    /// Query/key width per head.
    dh: usize,
    /// Value (and output) width per head.
    dv: usize,
}

fn geometry(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Geom {
    let (qs, ks, vs) = (q.shape(), k.shape(), v.shape());
    assert!(qs.len() >= 2, "attention expects rank >= 2, got q {qs:?}");
    assert_eq!(qs.len(), ks.len(), "q/k rank mismatch: {qs:?} vs {ks:?}");
    assert_eq!(qs.len(), vs.len(), "q/v rank mismatch: {qs:?} vs {vs:?}");
    let r = qs.len();
    assert_eq!(qs[..r - 2], ks[..r - 2], "q/k batch dims differ");
    assert_eq!(qs[..r - 2], vs[..r - 2], "q/v batch dims differ");
    let (d, dv) = (qs[r - 1], vs[r - 1]);
    assert_eq!(ks[r - 1], d, "q/k feature dims differ");
    let tk = ks[r - 2];
    assert_eq!(vs[r - 2], tk, "k/v sequence lengths differ");
    assert!(
        heads > 0 && d.is_multiple_of(heads) && dv.is_multiple_of(heads),
        "heads ({heads}) must divide the q/k width ({d}) and the v width ({dv})"
    );
    assert!(tk > 0 && d > 0, "attention needs at least one key and one feature");
    Geom {
        nb: qs[..r - 2].iter().product(),
        tq: qs[r - 2],
        tk,
        heads,
        dh: d / heads,
        dv: dv / heads,
    }
}

/// `shape` with its last two extents replaced by `tail`.
fn with_tail(shape: &[usize], tail: &[usize]) -> Dims {
    shape[..shape.len() - 2].iter().chain(tail).copied().collect()
}

/// One operand as `nb` matrices of unit-stride rows: row `t` of matrix `b`
/// starts at `data[base + b * bs + t * rs]`.
struct Slab<'a> {
    data: &'a [f32],
    base: usize,
    bs: usize,
    rs: usize,
}

impl<'a> Slab<'a> {
    /// Reads a `[B, T, W]` view with unit-stride rows (a projection's
    /// output, or a narrow of one) in place; anything else is gathered into
    /// a dense copy held in `dense` first.
    fn new(t: &'a Tensor, dense: &'a mut Option<Tensor>) -> Slab<'a> {
        if t.rank() == 3 && t.strides()[2] == 1 {
            let s = t.strides();
            return Slab { data: t.raw_data(), base: t.offset(), bs: s[0], rs: s[1] };
        }
        let (rows, width) = (t.shape()[t.rank() - 2], t.shape()[t.rank() - 1]);
        let dense = dense.insert(t.contiguous());
        Slab { data: dense.raw_data(), base: dense.offset(), bs: rows * width, rs: width }
    }

    /// The matrix of batch element `b`, from its row `row` and column `col`.
    fn mat(&self, b: usize, row: usize, col: usize) -> Mat<'a> {
        Mat {
            data: self.data,
            base: self.base + b * self.bs + row * self.rs + col,
            rs: self.rs,
            cs: 1,
        }
    }
}

/// The operands and geometry of one attention call.
struct Ctx<'a> {
    q: Slab<'a>,
    k: Slab<'a>,
    v: Slab<'a>,
    geom: Geom,
    scale: f32,
    avx512: bool,
}

impl Ctx<'_> {
    /// Every batch element into `out` (whole `[Tq, H·dv]` slabs) and, when
    /// kept, their probabilities into `probs` (whole `[H, Tq, Tk]` slabs).
    /// Every element of both is stored.
    ///
    /// Per batch element `kᵀ` is transposed once, all heads together; per
    /// block of [`NC`] query rows every head's scores land in one
    /// `[H, rows, Tk]` block, so the softmax is one call over `H·rows` rows
    /// and the heads' products — short dependent chains when `rows` is small
    /// (a CLS-row block has one) — sit back to back where they overlap.
    fn batches(&self, out: &mut [f32], mut probs: Option<&mut [f32]>) {
        let Geom { tq, tk, heads, dh, dv, .. } = self.geom;
        let (d, n) = (heads * dh, heads * dv);
        let block_max = heads * NC.min(tq) * tk;
        // Each slot a product reads is written first: `kt` by the transposes
        // of its tile, `scores` and `p` whole rows at a time.
        let mut kt = Scratch::uninit(tk.div_ceil(NC) * d * NC);
        let mut scores = Scratch::uninit(block_max);
        let mut p = Scratch::uninit(block_max);
        // Neither product has a bias or a residual to add at its store.
        let none = &Epilogue::NONE;
        for (b, oslab) in out.chunks_exact_mut(tq * n).enumerate() {
            for (jt, tile) in kt.chunks_exact_mut(d * NC).enumerate() {
                let w = NC.min(tk - jt * NC);
                transpose_tile(self.avx512, tile, self.k.mat(b, jt * NC, 0), w, d);
            }
            for i0 in (0..tq).step_by(NC) {
                let rows = NC.min(tq - i0);
                let (s, p) = (&mut scores[..heads * rows * tk], &mut p[..heads * rows * tk]);
                let block = rows * tk;
                for (jt, tile) in kt.chunks_exact(d * NC).enumerate() {
                    let cols = jt * NC..tk.min((jt + 1) * NC);
                    let ktile = Mat { data: tile, base: 0, rs: NC, cs: 1 };
                    let per_head =
                        Groups { count: heads, o_step: block, a_step: dh, b_step: dh * NC };
                    let q = self.q.mat(b, i0, 0);
                    mul_cols(self.avx512, s, tk, cols, q, ktile, rows, dh, per_head, none);
                }
                softmax_rows(self.avx512, s, p, tk, self.scale);
                let per_head = Groups { count: heads, o_step: dv, a_step: block, b_step: dv };
                let (pm, v) = (Mat { data: p, base: 0, rs: tk, cs: 1 }, self.v.mat(b, 0, 0));
                let o = &mut oslab[i0 * n..];
                mul_cols(self.avx512, o, n, 0..dv, pm, v, rows, tk, per_head, none);
                if let Some(kept) = probs.as_deref_mut() {
                    for (h, ph) in p.chunks_exact(block).enumerate() {
                        kept[((b * heads + h) * tq + i0) * tk..][..block].copy_from_slice(ph);
                    }
                }
            }
        }
    }
}

/// Forward over every batch element; `keep` also returns the probabilities.
fn forward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    scale: f32,
    keep: bool,
) -> (Tensor, Option<Tensor>) {
    let _span = crate::metrics::span("op/attention");
    let geom = geometry(q, k, v, heads);
    let Geom { nb, tq, tk, dv, .. } = geom;
    let out_shape = with_tail(q.shape(), &[tq, heads * dv]);
    let probs_shape = || with_tail(q.shape(), &[heads, tq, tk]);
    let (per_out, per_probs) = (tq * heads * dv, heads * tq * tk);
    if nb * per_out == 0 {
        return (Tensor::zeros(&out_shape), keep.then(|| Tensor::zeros(&probs_shape())));
    }
    // Dense copies of the operands `Slab` cannot read in place.
    let [mut dense_q, mut dense_k, mut dense_v] = [None, None, None];
    let ctx = Ctx {
        q: Slab::new(q, &mut dense_q),
        k: Slab::new(k, &mut dense_k),
        v: Slab::new(v, &mut dense_v),
        geom,
        scale,
        avx512: use_avx512(),
    };
    let mut out = workspace::take_uninit(nb * per_out);
    let mut probs = keep.then(|| workspace::take_uninit(nb * per_probs));
    ctx.batches(&mut out, probs.as_deref_mut());
    (Tensor::from_vec(out, &out_shape), probs.map(|p| Tensor::from_vec(p, &probs_shape())))
}

/// Multi-head scaled-dot-product attention on unsplit projections:
/// `softmax(scale · qₕ kₕᵀ) vₕ` for each of `heads` column groups, merged.
///
/// `q` is `[..., Tq, D]`, `k` is `[..., Tk, D]`, `v` is `[..., Tk, Dv]` with
/// identical leading (batch) dimensions and `heads` dividing `D` and `Dv`;
/// the result is `[..., Tq, Dv]`, head `h` occupying columns
/// `h·Dv/heads ..`. Bit-identical to the composition of [`permute`],
/// [`matmul()`], [`scale()`] and [`super::softmax_last`] for every shape
/// (see the module docs); the probabilities are not materialized.
///
/// # Panics
///
/// Panics on rank or dimension mismatches between `q`, `k`, and `v`, a
/// `heads` that does not divide both widths, or an empty key set.
pub fn attention(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, scale: f32) -> Tensor {
    forward(q, k, v, heads, scale, false).0
}

/// [`attention`] that also returns the probabilities `[..., heads, Tq, Tk]`
/// — what the backward pass and attention-map introspection read.
pub fn attention_with_probs(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    scale: f32,
) -> (Tensor, Tensor) {
    let (out, probs) = forward(q, k, v, heads, scale, true);
    (out, probs.expect("kept on request"))
}

/// Backward of [`attention`]: gradients w.r.t. `q`, `k`, and `v` given the
/// forward's `probs` and the upstream gradient `grad` of shape
/// `[..., Tq, Dv]`.
///
/// The composed rule, op for op what the tape replays for `matmul → scale →
/// softmax_last → matmul` between a head split and a merge — `dp = g vᵀ`,
/// `dv = pᵀ g`, `ds = scale · softmax′(p, dp)`, `dq = ds k`, `dk = (qᵀ ds)ᵀ`
/// on head-split views — so the gradients carry the composition's bits.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub(crate) fn attention_backward(
    probs: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    scale_by: f32,
    grad: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let _span = crate::metrics::span("op/attention_bwd");
    let Geom { nb, tq, tk, dh, dv, .. } = geometry(q, k, v, heads);
    assert_eq!(grad.shape(), &with_tail(q.shape(), &[tq, heads * dv])[..], "attention grad shape");
    assert_eq!(probs.shape(), &with_tail(q.shape(), &[heads, tq, tk])[..], "attention probs shape");
    // `[.., T, H·w]` as the `[nb, H, T, w]` view, and back (one copy).
    let split = |t: &Tensor, rows: usize, w: usize| {
        permute(&t.reshape(&[nb, rows, heads, w]), &[0, 2, 1, 3])
    };
    let merge = |t: &Tensor, like: &Tensor| permute(t, &[0, 2, 1, 3]).reshape(like.shape());
    let (qh, kh, vh, gh) =
        (split(q, tq, dh), split(k, tk, dh), split(v, tk, dv), split(grad, tq, dv));
    let p = probs.reshape(&[nb, heads, tq, tk]);

    let dp = matmul(&gh, &transpose_last2(&vh));
    let dvh = matmul(&transpose_last2(&p), &gh);
    let ds = scale(&softmax_last_backward(&p, &dp), scale_by);
    let dqh = matmul(&ds, &kh);
    let dkh = transpose_last2(&matmul(&transpose_last2(&qh), &ds));
    (merge(&dqh, q), merge(&dkh, k), merge(&dvh, v))
}

#[cfg(test)]
mod tests {
    // Parity with the composition (values, gradients, kernels)
    // lives in `tests/attention_parity.rs`; here, what needs crate internals.
    use super::*;
    use crate::ops;

    #[test]
    fn rows_are_convex_combinations() {
        // With v = ones, each output row must be a convex combination:
        // weights positive, summing to 1.
        let q = Tensor::from_fn(&[1, 4, 6], |i| (i as f32 * 0.41).sin());
        let k = Tensor::from_fn(&[1, 5, 6], |i| (i as f32 * 0.17).cos());
        let v = Tensor::ones(&[1, 5, 4]);
        let out = attention(&q, &k, &v, 2, 0.7);
        for &x in out.data() {
            assert!((x - 1.0).abs() < 1e-5, "convex combination of ones must be 1, got {x}");
        }
    }

    #[test]
    fn reads_row_strided_views_in_place() {
        // A narrow along the sequence and along the width: rows stay
        // unit-stride, so nothing is materialized.
        let base = Tensor::from_fn(&[2, 9, 12], |i| (i as f32 * 0.11).sin());
        let q = ops::narrow(&ops::narrow(&base, 1, 2, 5), 2, 4, 8);
        let kv = ops::narrow(&base, 2, 1, 8);
        let _scope = crate::metrics::scope();
        let in_place = attention(&q, &kv, &kv, 2, 0.5);
        assert_eq!(crate::copy_metrics::copies(), 0, "the kernel must consume the views directly");
        let dense = attention(&q.contiguous(), &kv.contiguous(), &kv.contiguous(), 2, 0.5);
        assert_eq!(in_place.to_vec(), dense.to_vec());
    }
}
