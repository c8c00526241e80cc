//! Batched matrix multiplication: register-tiled and stride-aware.
//!
//! The kernel reads both operands through their `(strides, offset)` view
//! metadata, so transposed and permuted views (a backward pass's `gᵀ`, a
//! head split) multiply directly with no materialization:
//!
//! - `B` with unit column stride (row-major matrices, head-split views) is
//!   read in place.
//! - Any other layout (a `transpose_last2` view is the common one) is
//!   gathered through its strides into `[k][32]` scratch tiles first.
//!
//! Either way the output columns go through the column kernel of the lanes
//! [`simd::run`] selects ([`Lanes::mul_cols`]): the safe 4×16 register tile
//! with a per-element column tail, the parity reference, or on a CPU with
//! AVX-512F the `zmm` micro-kernel's 6-row × 64-column register blocks, the
//! last vector of a row loaded and stored under a lane mask. Each output
//! block accumulates in registers across the whole `k` loop and is stored
//! once. [`KERNEL`](crate::dial::KERNEL) names the one in use.
//!
//! [`linear`] runs the same kernels with an [`Epilogue`]: the kernel adds
//! the bias, and the residual unless GELU comes between them, to each
//! accumulator block before its one store, so an affine layer is one pass
//! over its output; a GELU layer's activation ([`gelu_in_place`], one of
//! [`simd`]'s twins) and residual follow it.
//!
//! # Numerics
//!
//! Every output element, on every path, is **one `f32` accumulator
//! fused-multiply-added (`f32::mul_add`) from zero in ascending-`k` order**.
//! In-place, gathered and tail results are therefore bit-identical to each
//! other for every block shape and operand layout —
//! `tests/large_view_parity.rs` pins that — and the kernel choice moves only
//! time. The AVX-512 kernel builds the same chain with one `_mm512_fmadd_ps`
//! per element per `k` (an IEEE fused multiply-add per lane, which is what
//! `mul_add` is), so it too changes no bit; `tests/avx512_parity.rs` pins it
//! against the portable kernel. `mul_add` is unconditional, so the bits do
//! not depend on rustflags either: without FMA in the target features the
//! same results come out of libm's `fmaf`, slowly. Bit-parity with the pre-FMA (PR 2–5)
//! kernels is *not* promised; correctness is bounded by the independent f64
//! oracle in `tests/oracle_f64.rs` instead.

use std::borrow::Cow;

use super::elementwise::gelu_scalar;
use super::simd::{self, finish, Job, Lanes, Mat, LANES};
use crate::shape::{self, Dims};
use crate::workspace::{self, Scratch};
use crate::Tensor;

/// Width of a gathered or transposed `B` tile, `[k][NC]`: two `zmm` vectors
/// of the AVX-512 kernel, two tiles of the portable one.
const NC: usize = 2 * LANES;

/// Batched matrix product `a @ b`.
///
/// Both operands must have rank ≥ 2. The trailing two dimensions are the
/// matrix dimensions (`[m, k] @ [k, n] -> [m, n]`); all leading dimensions
/// are batch dimensions and broadcast against each other under NumPy rules.
/// Strided views (transposes, permutes, narrows) are consumed directly.
///
/// # Panics
///
/// Panics on rank < 2, inner-dimension mismatch, or non-broadcastable batch
/// dimensions.
///
/// # Examples
///
/// ```
/// use tsdx_tensor::{ops, Tensor};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// assert_eq!(ops::matmul(&a, &i), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    gemm(a, b, Epilogue::NONE)
}

/// The activation [`linear`] applies between the bias and the residual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// GELU, tanh approximation — the expression [`super::gelu`] evaluates.
    Gelu,
}

/// What finishes [`linear`]'s output, element by element: `act(v + b) + r`,
/// each step rounded once, the chain the separate ops produce. The kernels
/// add `b`, and `r` when `act` is [`Activation::None`], before their store;
/// [`apply`](Self::apply) does the rest.
#[derive(Clone, Copy)]
pub(super) struct Epilogue<'a> {
    /// The `[n]` bias.
    bias: Option<&'a [f32]>,
    act: Activation,
    /// The residual, laid out exactly like the output slice it finishes.
    residual: Option<&'a [f32]>,
}

impl<'a> Epilogue<'a> {
    /// The plain product: nothing to add.
    pub(super) const NONE: Epilogue<'static> =
        Epilogue { bias: None, act: Activation::None, residual: None };

    /// What a kernel adds before its store: the bias, then the residual
    /// unless an activation comes between them.
    fn at_store(&self) -> (Option<&'a [f32]>, Option<&'a [f32]>) {
        (self.bias, self.residual.filter(|_| self.act == Activation::None))
    }

    /// A GELU layer's activation and then its residual, in place on `out`,
    /// which the kernels have stored; plain slice loops, so they vectorize.
    fn apply(&self, out: &mut [f32]) {
        if self.act == Activation::Gelu {
            gelu_in_place(out);
            finish(out, None, self.residual);
        }
    }
}

/// Fused affine map `act(x @ w + bias) + residual` over the last dimension
/// of `x`.
///
/// `x` is `[..., k]` (rank ≥ 2, any layout), `w` is `[k, n]`, `bias` is
/// `[n]` and `residual` has the output's shape `[..., n]`. One output
/// buffer, no intermediate tensor: the kernel adds bias and residual to each
/// output block before its one store (with [`Activation::Gelu`], the
/// activation and the residual follow over the written rows).
///
/// Every output element is the [`matmul`] accumulator (one `f32`,
/// fused-multiply-added in ascending `k`), then `+ bias`, then the
/// activation, then `+ residual`, each rounded once — bit-identical to
/// `add(act(add(matmul(x, w), bias)), residual)`, and row-independent: an
/// output row depends only on its own input row.
///
/// # Panics
///
/// Panics on rank < 2 inputs or any shape mismatch.
///
/// # Examples
///
/// ```
/// use tsdx_tensor::ops::{self, Activation};
/// use tsdx_tensor::Tensor;
/// let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
/// let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![0.5, -0.5], &[2]);
/// let y = ops::linear(&x, &w, Some(&b), Activation::None, Some(&x));
/// assert_eq!(y.data(), &[2.5, 3.5]); // (x·I + b) + x
/// ```
pub fn linear(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    act: Activation,
    residual: Option<&Tensor>,
) -> Tensor {
    assert!(x.rank() >= 2, "linear input must have rank >= 2, got {:?}", x.shape());
    assert_eq!(w.rank(), 2, "linear weight must be [k, n], got {:?}", w.shape());
    let n = w.shape()[1];
    let bias = bias.map(|b| {
        assert_eq!(b.shape(), [n], "linear bias must be [{n}]");
        dense(b)
    });
    let residual = residual.map(|r| {
        let (lead, _) = x.shape().split_at(x.rank() - 1);
        assert!(
            r.shape().split_last() == Some((&n, lead)),
            "linear residual {:?} is not the output shape of {:?} @ {:?}",
            r.shape(),
            x.shape(),
            w.shape()
        );
        dense(r)
    });
    let epi = Epilogue {
        bias: bias.as_deref().map(Tensor::data),
        act,
        residual: residual.as_deref().map(Tensor::data),
    };
    gemm(x, w, epi)
}

/// `t` itself when it is dense, else a dense copy.
fn dense(t: &Tensor) -> Cow<'_, Tensor> {
    if t.is_contiguous() {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(t.contiguous())
    }
}

fn gemm(a: &Tensor, b: &Tensor, epi: Epilogue) -> Tensor {
    let _span = crate::metrics::span("op/matmul");
    assert!(a.rank() >= 2 && b.rank() >= 2, "matmul requires rank >= 2 operands");
    let (ash, bsh) = (a.shape(), b.shape());
    let ka = ash[ash.len() - 1];
    let (kb, n) = (bsh[bsh.len() - 2], bsh[bsh.len() - 1]);
    assert_eq!(ka, kb, "matmul inner dims: {ash:?} @ {bsh:?}");
    let k = ka;

    let batch_b = &bsh[..bsh.len() - 2];
    let mut out_shape = shape::broadcast(&ash[..ash.len() - 2], batch_b)
        .unwrap_or_else(|| panic!("matmul batch dims do not broadcast: {ash:?} @ {bsh:?}"));
    out_shape.push(ash[ash.len() - 2]);
    out_shape.push(n);
    let total = shape::numel(&out_shape);
    if total == 0 || k == 0 {
        // An empty contraction sums nothing: the products are all zeros.
        let mut out = workspace::take_zeroed(total);
        if total > 0 {
            let (bias, res) = epi.at_store();
            for (r, row) in out.chunks_exact_mut(n).enumerate() {
                finish(row, bias, res.map(|res| &res[r * n..]));
            }
            epi.apply(&mut out);
        }
        return Tensor::from_vec(out, &out_shape);
    }
    // An `A` whose rows sit one stride apart against one shared matrix `B`
    // — every linear layer, the CLS rows narrowed out of a block's tokens
    // included — is a single `[rows, k]` matrix: its batch dims fold into
    // the row count, so the kernels tile straight across batch boundaries.
    let fold = if batch_b.is_empty() { folded_row_stride(a) } else { None };
    let (m, batch_a, (acs, ars)) = match fold {
        Some(rs) => (a.numel() / k, &ash[..0], (1, rs)),
        None => (ash[ash.len() - 2], &ash[..ash.len() - 2], last2_strides(a)),
    };
    let batch = shape::broadcast(batch_a, batch_b).expect("batch dims broadcast (checked above)");

    // The kernel reads `A` and `B` through their view strides, so nothing
    // is materialized.
    let (bcs, brs) = last2_strides(b);
    let sa_batch = shape::broadcast_view_strides(batch_a, &a.strides()[..batch_a.len()], &batch);
    let sb_batch = shape::broadcast_view_strides(batch_b, &b.strides()[..batch_b.len()], &batch);

    let ctx = KernelCtx {
        ad: a.raw_data(),
        bd: b.raw_data(),
        a_off: a.offset(),
        b_off: b.offset(),
        batch,
        sa_batch,
        sb_batch,
        m,
        n,
        k,
        ars,
        acs,
        brs,
        bcs,
    };
    // The kernel writes every output element, so the buffer needs no
    // pre-zeroing (take_uninit is legal here).
    let mut out = workspace::take_uninit(total);
    simd::run(Product { out: &mut out, ctx: &ctx, epi: &epi });
    epi.apply(&mut out);
    Tensor::from_vec(out, &out_shape)
}

/// The row stride of `t` read as one `[rows, k]` matrix, its leading dims
/// collapsed into the rows — `None` unless its columns are unit-stride and
/// its rows sit one stride apart. Unit dimensions may carry any stride.
fn folded_row_stride(t: &Tensor) -> Option<usize> {
    let ((&k, lead), (&cs, lead_st)) = t.shape().split_last().zip(t.strides().split_last())?;
    // Innermost first; each leading dim must step over the one inside it.
    let dims = || lead.iter().zip(lead_st).rev().filter(|&(&d, _)| d > 1);
    let uniform = dims().zip(dims().skip(1)).all(|((&d, &s), (_, &outer))| outer == s * d);
    ((cs == 1 || k == 1) && uniform).then(|| dims().next().map_or(k, |(_, &s)| s))
}

/// `(column stride, row stride)` of the trailing matrix dimensions.
fn last2_strides(t: &Tensor) -> (usize, usize) {
    let s = t.strides();
    (s[s.len() - 1], s[s.len() - 2])
}

/// The operands of one product: their buffers, view offsets and strides.
struct KernelCtx<'a> {
    ad: &'a [f32],
    bd: &'a [f32],
    a_off: usize,
    b_off: usize,
    batch: Dims,
    sa_batch: Dims,
    sb_batch: Dims,
    m: usize,
    n: usize,
    k: usize,
    ars: usize,
    acs: usize,
    brs: usize,
    bcs: usize,
}

/// One product for [`simd::run`]: every row of the flattened batch×row
/// space into `out`.
struct Product<'a> {
    out: &'a mut [f32],
    ctx: &'a KernelCtx<'a>,
    epi: &'a Epilogue<'a>,
}

impl Job for Product<'_> {
    fn on<L: Lanes>(self, v: &L) {
        let Product { out, ctx, epi } = self;
        let KernelCtx { m, n, .. } = *ctx;
        let end = out.len() / n;
        let mut r = 0;
        while r < end {
            // All rows of one batch matrix share their operand base offsets.
            let bi = r / m;
            let a_base = ctx.a_off + batch_offset(&ctx.batch, &ctx.sa_batch, bi);
            let b_base = ctx.b_off + batch_offset(&ctx.batch, &ctx.sb_batch, bi);
            let i0 = r % m;
            let i1 = (end - bi * m).min(m);
            let rows_here = i1 - i0;
            let span = r * n..(r + rows_here) * n;
            let epi = Epilogue { residual: epi.residual.map(|res| &res[span.clone()]), ..*epi };
            tiled_kernel(v, &mut out[span], a_base, b_base, i0, rows_here, ctx, &epi);
            r += rows_here;
        }
    }
}

/// Buffer offset of batch matrix `bi` (flat row-major over the `batch`
/// dims) under the broadcast view `strides`.
fn batch_offset(batch: &[usize], strides: &[usize], mut bi: usize) -> usize {
    let mut off = 0;
    for (&d, &s) in batch.iter().zip(strides).rev() {
        off += (bi % d) * s;
        bi /= d;
    }
    off
}

/// Register-tiled kernel over any `B` layout, through `v`'s column kernel
/// ([`Lanes::mul_cols`]): `B` with
/// unit column stride (row-major matrices, head-split views) is read in
/// place; any other layout — a `transpose_last2` view is the common case —
/// has each [`NC`]-column tile gathered through `B`'s strides into a
/// `[k][NC]` scratch tile first, at `k`·[`NC`] copies against
/// `rows`·`k`·[`NC`] multiply-adds. Every output element is
/// one accumulator fused-multiply-added from zero in ascending `kk` order
/// whatever the kernel, tiling or layout, then `epi`'s store-time adds.
#[allow(clippy::too_many_arguments)]
fn tiled_kernel<L: Lanes>(
    v: &L,
    o: &mut [f32],
    a_base: usize,
    b_base: usize,
    i0: usize,
    rows: usize,
    ctx: &KernelCtx,
    epi: &Epilogue,
) {
    let KernelCtx { ad, bd, n, k, ars, acs, brs, bcs, .. } = *ctx;
    let a = Mat { data: ad, base: a_base + i0 * ars, rs: ars, cs: acs };
    let (bias, res) = epi.at_store();
    if bcs == 1 {
        let b = Mat { data: bd, base: b_base, rs: brs, cs: 1 };
        return v.mul_cols(o, n, 0..n, a, b, rows, k, bias, res);
    }
    // Every slot a tile's product reads is written by its gather first.
    let mut tile = Scratch::uninit(k * NC);
    for jt in (0..n).step_by(NC) {
        let w = NC.min(n - jt);
        for (kk, trow) in tile.chunks_exact_mut(NC).enumerate() {
            let src = b_base + kk * brs + jt * bcs;
            for (j, slot) in trow[..w].iter_mut().enumerate() {
                *slot = bd[src + j * bcs];
            }
        }
        let b = Mat { data: &tile, base: 0, rs: NC, cs: 1 };
        v.mul_cols(o, n, jt..jt + w, a, b, rows, k, bias, res);
    }
}

/// [`gelu_scalar`] over `xs` in place: [`linear`]'s activation step and the
/// standalone [`super::gelu`], one of [`simd`]'s twins — the loop compiled
/// for the lanes [`simd::run`] selects, the same bits either way.
pub(super) fn gelu_in_place(xs: &mut [f32]) {
    simd::run(Gelu(xs))
}

/// The GELU pass as a [`Job`].
struct Gelu<'a>(&'a mut [f32]);

impl Job for Gelu<'_> {
    #[inline(always)]
    fn on<L: Lanes>(self, _: &L) {
        for v in self.0 {
            *v = gelu_scalar(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copy_metrics;
    use crate::dial::{Kernel, KERNEL};
    use crate::ops::{narrow, permute, transpose_last2};

    #[test]
    fn two_by_two() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn rectangular() {
        // [1,3] @ [3,2]
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = Tensor::from_vec(vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[1, 2]);
        assert_eq!(c.data(), &[14.0, 32.0]);
    }

    #[test]
    fn batched_same_batch() {
        // Two independent 2x2 multiplications.
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], &[2, 2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(&c.data()[..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&c.data()[4..], &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn broadcast_batch_dims() {
        // a: [2,2,2] batch of two, b: [2,2] broadcast across batch.
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0], &[2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(&c.data()[..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&c.data()[4..], &[3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn matches_naive_reference() {
        // Pseudo-random but deterministic inputs.
        let a = Tensor::from_fn(&[3, 5], |i| ((i * 7 + 3) % 11) as f32 - 5.0);
        let b = Tensor::from_fn(&[5, 4], |i| ((i * 5 + 1) % 13) as f32 - 6.0);
        let c = matmul(&a, &b);
        for i in 0..3 {
            for j in 0..4 {
                let mut acc = 0.0;
                for k in 0..5 {
                    acc += a.at(&[i, k]) * b.at(&[k, j]);
                }
                assert!((c.at(&[i, j]) - acc).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn transposed_view_operand_needs_no_copy() {
        let a = Tensor::from_fn(&[4, 6], |i| (i as f32).sin());
        let b = Tensor::from_fn(&[5, 6], |i| (i as f32).cos());
        let bt = transpose_last2(&b); // [6,5] view, unit row stride
        let _scope = crate::metrics::scope();
        let c = matmul(&a, &bt);
        assert_eq!(copy_metrics::copies(), 0, "the kernel must consume the view directly");
        for i in 0..4 {
            for j in 0..5 {
                let mut acc = 0.0;
                for k in 0..6 {
                    acc += a.at(&[i, k]) * b.at(&[j, k]);
                }
                assert!((c.at(&[i, j]) - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn head_split_views_multiply_without_copies() {
        // The attention layout: [B,T,H,Dh] permuted to [B,H,T,Dh].
        let x = Tensor::from_fn(&[2, 3, 2, 4], |i| ((i % 17) as f32) * 0.25 - 2.0);
        let q = permute(&x, &[0, 2, 1, 3]); // [2,2,3,4]
        let kt = transpose_last2(&q); // [2,2,4,3]
        let _scope = crate::metrics::scope();
        let scores = matmul(&q, &kt); // [2,2,3,3]
        assert_eq!(copy_metrics::copies(), 0);
        assert_eq!(scores.shape(), &[2, 2, 3, 3]);
        let scores_ref = matmul(&q.contiguous(), &kt.contiguous());
        assert!(scores.allclose(&scores_ref, 1e-5));
    }

    #[test]
    fn folded_rows_ignore_the_stride_of_a_unit_dimension() {
        // [2, 1, 3, 4] permuted to [2, 3, 1, 4] is dense, so against a 2-D
        // `B` its six rows fold into one matrix — whose row stride is 4, not
        // the 12 the view's unit dimension happens to carry.
        let x = Tensor::from_fn(&[2, 1, 3, 4], |i| i as f32 - 11.0);
        let a = permute(&x, &[0, 2, 1, 3]);
        assert!(a.is_contiguous() && a.strides()[2] == 12);
        let b = Tensor::from_fn(&[4, 5], |i| (i % 7) as f32 - 3.0);
        let want = matmul(&x.reshape(&[6, 4]), &b);
        for &kernel in Kernel::available() {
            let got = KERNEL.with(kernel, || matmul(&a, &b));
            assert_eq!(got.shape(), &[2, 3, 1, 5]);
            assert_eq!(got.data(), want.data(), "{kernel}");
        }
    }

    #[test]
    fn a_row_view_with_one_row_stride_folds_into_one_matrix() {
        // The CLS rows the last spatial block projects: `[12, 1, 64]` out of
        // `[12, 17, 64]`, one row every 17·64 elements.
        let x = Tensor::from_fn(&[12, 17, 64], |i| ((i * 7919) % 113) as f32 / 113.0 - 0.5);
        let cls = narrow(&x, 1, 0, 1);
        assert_eq!(folded_row_stride(&cls), Some(17 * 64), "the fold is taken");
        // Rows of uneven spacing or strided columns do not fold.
        assert_eq!(folded_row_stride(&narrow(&x, 1, 0, 16)), None);
        assert_eq!(folded_row_stride(&transpose_last2(&x)), None);
        let w = Tensor::from_fn(&[64, 70], |i| ((i * 31) % 29) as f32 / 29.0 - 0.5);
        let b = Tensor::from_fn(&[70], |i| i as f32 / 70.0);
        let r = Tensor::from_fn(&[12, 1, 70], |i| (i % 9) as f32 - 4.0);
        let bits = |t: Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &kernel in Kernel::available() {
            let f = |a: &Tensor| bits(linear(a, &w, Some(&b), Activation::None, Some(&r)));
            let (got, want) = KERNEL.with(kernel, || (f(&cls), f(&cls.contiguous())));
            assert_eq!(got, want, "{kernel}");
        }
    }

    #[test]
    fn empty_contraction_and_empty_rows_agree_on_every_entry() {
        // `[2,0] @ [0,3]` sums nothing into six zeros (`linear`: six bias
        // values); `[0,4] @ [4,3]` has no rows at all.
        let bias = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]);
        for (a, b, want, want_biased) in [
            (Tensor::zeros(&[2, 0]), Tensor::zeros(&[0, 3]), vec![0.0; 6], bias.data().repeat(2)),
            (Tensor::zeros(&[0, 4]), Tensor::ones(&[4, 3]), vec![], vec![]),
        ] {
            let shape = [a.shape()[0], 3];
            let mut g = crate::Graph::new();
            let (av, bv) = (g.constant(a.clone()), g.constant(b.clone()));
            let taped = g.matmul(av, bv);
            for got in [&matmul(&a, &b), g.value(taped)] {
                assert_eq!((got.shape(), got.data()), (&shape[..], &want[..]));
            }
            let got = linear(&a, &b, Some(&bias), Activation::None, None);
            assert_eq!((got.shape(), got.data()), (&shape[..], &want_biased[..]));
        }
    }

    #[test]
    #[should_panic]
    fn inner_dim_mismatch_panics() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    /// Runs the GELU pass over `xs` under every kernel this CPU has and
    /// returns the first input on which one differs from the portable
    /// compile in any bit, with that kernel.
    fn first_gelu_mismatch(xs: &[f32]) -> Option<(Kernel, f32)> {
        let mut want = xs.to_vec();
        KERNEL.with(Kernel::Portable, || gelu_in_place(&mut want));
        Kernel::available().iter().find_map(|&kernel| {
            let mut got = xs.to_vec();
            KERNEL.with(kernel, || gelu_in_place(&mut got));
            let i = got.iter().zip(&want).position(|(g, w)| g.to_bits() != w.to_bits())?;
            Some((kernel, xs[i]))
        })
    }

    /// The `x` at which the argument GELU hands [`fastmath::exp`](crate::fastmath::exp),
    /// `−2·c·(x + 0.044715·x³)`, crosses `edge`, by bisection over the
    /// floats between `lo` and `hi` (the argument falls as `x` rises).
    fn gelu_exp_crossing(edge: f32, mut lo: f32, mut hi: f32) -> f32 {
        use super::super::elementwise::GELU_C;
        let arg = |x: f32| -(2.0 * GELU_C * (x + 0.044_715 * x * x * x));
        assert!(arg(lo) > edge && arg(hi) <= edge, "[{lo}, {hi}] does not bracket {edge}");
        while lo.next_up() < hi {
            let mid = lo + (hi - lo) / 2.0;
            if arg(mid) > edge {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    #[test]
    fn the_gelu_twin_matches_the_portable_loop_on_edge_cases_and_a_strided_sweep() {
        use crate::fastmath::{EXP_HI, EXP_LO};
        let mut xs = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN];
        // NaN payloads of both signs, quiet and signalling, and subnormals.
        let nans = [0x7fc0_0000u32, 0x7fc0_0001, 0x7fff_ffff, 0x7f80_0001, 0x7fbf_ffff];
        for bits in nans.into_iter().chain([0x0000_0001, 0x007f_ffff, 0x0040_0000, 0x0080_0000]) {
            xs.extend([f32::from_bits(bits), f32::from_bits(bits | 0x8000_0000)]);
        }
        // 256 floats either side of where the `exp` argument crosses each
        // of its clamps.
        for edge in [gelu_exp_crossing(EXP_HI, -20.0, 0.0), gelu_exp_crossing(EXP_LO, 0.0, 20.0)] {
            let mut x = edge;
            for _ in 0..256 {
                x = x.next_down();
            }
            for _ in 0..512 {
                xs.push(x);
                x = x.next_up();
            }
        }
        // 2²⁰ bit patterns spread over all 2³², every low bit varying.
        xs.extend(
            (0..1u32 << 20)
                .map(|i| f32::from_bits(i << 12 | (i.wrapping_mul(2_654_435_761) >> 20))),
        );
        assert_eq!(first_gelu_mismatch(&xs), None);
    }

    /// The proof behind the twin: every `f32` bit pattern, NaN payloads
    /// included, through both compiles of the GELU pass in place, chunk by
    /// chunk, compared bit for bit. Vacuous without AVX-512F.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "2^32 inputs: run at --release, as scripts/check.sh does"
    )]
    fn the_gelu_twin_matches_the_portable_loop_on_every_input() {
        if !simd::avx512f() {
            return;
        }
        const CHUNK: u32 = 1 << 16;
        let (mut want, mut got) = (vec![0.0f32; CHUNK as usize], vec![0.0f32; CHUNK as usize]);
        for base in (0..=u32::MAX - (CHUNK - 1)).step_by(CHUNK as usize) {
            for ((w, g), bits) in want.iter_mut().zip(&mut got).zip(base..) {
                (*w, *g) = (f32::from_bits(bits), f32::from_bits(bits));
            }
            KERNEL.with(Kernel::Portable, || gelu_in_place(&mut want));
            KERNEL.with(Kernel::Avx512, || gelu_in_place(&mut got));
            if let Some(i) = want.iter().zip(&got).position(|(w, g)| w.to_bits() != g.to_bits()) {
                panic!(
                    "gelu({:#010x}): portable {:#010x}, avx512 {:#010x}",
                    base + i as u32,
                    want[i].to_bits(),
                    got[i].to_bits()
                );
            }
        }
    }
}
