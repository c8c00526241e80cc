//! Batched matrix multiplication: register-tiled and stride-aware.
//!
//! The kernel reads both operands through their `(strides, offset)` view
//! metadata, so transposed and permuted views (a backward pass's `gᵀ`, a
//! head split) multiply directly with no materialization.
//! `B` is walked one 16-column tile at a time; each 4-row × 16-column output
//! block accumulates in registers across the whole `k` loop and is stored
//! once, so output rows are never re-read and each loaded `B` cache line
//! feeds four accumulator rows:
//!
//! - `B` with unit column stride (row-major matrices, head-split views) is
//!   read in place.
//! - Any other layout (a `transpose_last2` view is the common one) is
//!   gathered through its strides into `[k][32]` scratch tiles first.
//! - Columns past the last full 16 are per-element dot products.
//!
//! On a CPU with AVX-512F (detected at run time; the build baseline stays
//! `x86-64-v3`) the same cases run through the explicit `zmm` micro-kernel
//! in [`avx512`] instead — 6-row × 64-column register blocks, 8 rows where
//! at most 32 columns are left, the last vector of a row loaded and stored
//! under a lane mask, so there is no scalar column tail. The safe
//! [`tile_rows`] is the only path elsewhere and the parity reference
//! (`tests/avx512_parity.rs`). [`KERNEL`] names the one in use.
//!
//! [`mul_cols`] is that choice as one call — output columns against a
//! unit-column-stride `B` — and what [`super::attention`] runs its `q·kᵀ` and
//! `p·v` tiles through, with [`transpose_tile`] building the `kᵀ` tiles.
//!
//! [`linear`] runs the same kernels with an [`Epilogue`]: the kernel adds
//! the bias, and the residual unless GELU comes between them, to each
//! accumulator block before its one store, so an affine layer is one pass
//! over its output; a GELU layer's activation and residual follow it.
//!
//! [`avx512`] also holds two *twins*: the GELU pass ([`gelu_in_place`]) and
//! the row softmax ([`super::reduce`]'s `softmax_rows`), each one safe
//! `#[inline(always)]` body compiled a second time inside a
//! `#[target_feature(enable = "avx512f")]` function, where LLVM vectorizes
//! it over `zmm` registers (about a quarter off either pass at the model's
//! shapes). The same `avx512` flag that picks the GEMM kernel picks the
//! compile, so [`KERNEL`] is the one switch for all three.
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
use std::ops::Range;

use super::elementwise::gelu_scalar;
use crate::dial::{Kernel, KERNEL};
use crate::shape::{self, Dims};
use crate::workspace::{self, Scratch};
use crate::Tensor;

/// Width of one output-column tile in the register-tiled kernel: 16 `f32`s
/// is exactly one cache line of each `B` row, and a 4×16 accumulator block
/// fits the architectural vector registers with room for the operands.
const J_TILE: usize = 16;

/// Width of a gathered or transposed `B` tile, `[k][NC]`: two `zmm` vectors
/// of the AVX-512 kernel, two tiles of the portable one.
pub(super) const NC: usize = 32;

/// True when [`gemm`] calls from this thread run the tiled path through the
/// AVX-512 micro-kernel: [`KERNEL`] — the CPU has AVX-512F (always false off
/// x86-64) and no suite narrowed this thread to the portable kernel.
pub(super) fn use_avx512() -> bool {
    KERNEL.get() == Kernel::Avx512
}

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
    fn apply(&self, out: &mut [f32], avx512: bool) {
        if self.act == Activation::Gelu {
            gelu_in_place(avx512, out);
            finish(out, None, self.residual);
        }
    }
}

/// Adds `bias` and then `residual`, element by element, to `acc`: the
/// portable kernels' store-time adds, and the residual after a GELU.
fn finish(acc: &mut [f32], bias: Option<&[f32]>, residual: Option<&[f32]>) {
    for add in [bias, residual].into_iter().flatten() {
        for (v, &x) in acc.iter_mut().zip(add) {
            *v += x;
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
    let avx512 = use_avx512();
    if total == 0 || k == 0 {
        // An empty contraction sums nothing: the products are all zeros.
        let mut out = workspace::take_zeroed(total);
        if total > 0 {
            let (bias, res) = epi.at_store();
            for (r, row) in out.chunks_exact_mut(n).enumerate() {
                finish(row, bias, res.map(|res| &res[r * n..]));
            }
            epi.apply(&mut out, avx512);
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
    if avx512 {
        crate::metrics::counter_add("dispatch/matmul_avx512", 1);
    }
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
        avx512,
    };
    // The kernel writes every output element, so the buffer needs no
    // pre-zeroing (take_uninit is legal here).
    let mut out = workspace::take_uninit(total);
    compute_rows(&mut out, &ctx, &epi);
    epi.apply(&mut out, avx512);
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
    /// Run the tiles through [`avx512`] rather than [`tile_rows`]; only ever
    /// set where [`use_avx512`] saw the CPU feature.
    avx512: bool,
}

/// Computes every row of the flattened batch×row space into `out`.
fn compute_rows(out: &mut [f32], ctx: &KernelCtx, epi: &Epilogue) {
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
        tiled_kernel(&mut out[span], a_base, b_base, i0, rows_here, ctx, &epi);
        r += rows_here;
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

/// A matrix read through strides: element `(i, j)` is
/// `data[base + i * rs + j * cs]`.
#[derive(Clone, Copy)]
pub(super) struct Mat<'a> {
    pub(super) data: &'a [f32],
    pub(super) base: usize,
    pub(super) rs: usize,
    pub(super) cs: usize,
}

/// How many independent products one [`mul_cols`] call runs, and how far
/// apart they sit: product `g` reads `a` and `b` from `g * a_step` and
/// `g * b_step` elements further on and writes `g * o_step` elements further
/// into the output — the heads of an attention tile, whose operands are
/// column groups of one buffer. The kernels' fixed cost per call (extent
/// checks, the dispatch) is then paid once for all of them.
#[derive(Clone, Copy)]
pub(super) struct Groups {
    pub(super) count: usize,
    pub(super) o_step: usize,
    pub(super) a_step: usize,
    pub(super) b_step: usize,
}

impl Groups {
    /// One product, where the operands say.
    pub(super) const ONE: Groups = Groups { count: 1, o_step: 0, a_step: 0, b_step: 0 };
}

/// Register-tiled kernel over any `B` layout, through [`mul_cols`]: `B` with
/// unit column stride (row-major matrices, head-split views) is read in
/// place; any other layout — a `transpose_last2` view is the common case —
/// has each [`NC`]-column tile gathered through `B`'s strides into a
/// `[k][NC]` scratch tile first, at `k`·[`NC`] copies against
/// `rows`·`k`·[`NC`] multiply-adds. Every output element is
/// one accumulator fused-multiply-added from zero in ascending `kk` order
/// whatever the kernel, tiling or layout, then `epi`'s store-time adds.
fn tiled_kernel(
    o: &mut [f32],
    a_base: usize,
    b_base: usize,
    i0: usize,
    rows: usize,
    ctx: &KernelCtx,
    epi: &Epilogue,
) {
    let KernelCtx { ad, bd, n, k, ars, acs, brs, bcs, avx512, .. } = *ctx;
    let a = Mat { data: ad, base: a_base + i0 * ars, rs: ars, cs: acs };
    if bcs == 1 {
        let b = Mat { data: bd, base: b_base, rs: brs, cs: 1 };
        return mul_cols(avx512, o, n, 0..n, a, b, rows, k, Groups::ONE, epi);
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
        mul_cols(avx512, o, n, jt..jt + w, a, b, rows, k, Groups::ONE, epi);
    }
}

/// `o[r * n + j] = Σₖ a[r, kk] · b[kk, j − cols.start]` plus what `epi` adds
/// at the store (`bias[j]`, then the residual, laid out like `o`) for
/// `r < rows`, `j ∈ cols`: output columns `cols` of `rows` rows of width
/// `n`, `b` holding those columns from its column 0 with unit column stride
/// — once per product of `groups`, each at its offsets. With `avx512`
/// (only ever [`use_avx512`]'s answer) the columns go through
/// [`avx512::mul_cols`], whose lane mask covers a ragged last vector;
/// otherwise full [`J_TILE`]-column tiles go through [`tile_rows`] and the
/// narrow column tail is plain per-element dot products. Either way each
/// element is one accumulator fused-multiply-added from zero in ascending
/// `kk` — the chain the module docs promise — then the adds.
///
/// # Panics
///
/// Panics if `b.cs != 1` or an operand's extent reaches past its slice.
#[allow(clippy::too_many_arguments)]
pub(super) fn mul_cols(
    avx512: bool,
    o: &mut [f32],
    n: usize,
    cols: Range<usize>,
    a: Mat,
    b: Mat,
    rows: usize,
    k: usize,
    groups: Groups,
    epi: &Epilogue,
) {
    let (bias, res) = epi.at_store();
    #[cfg(target_arch = "x86_64")]
    if avx512 {
        return avx512::mul_cols(o, n, cols, a, b, rows, k, groups, bias, res);
    }
    #[cfg(not(target_arch = "x86_64"))]
    debug_assert!(!avx512, "the AVX-512 kernel exists on x86-64 only");
    assert_eq!(b.cs, 1, "the tile kernels want unit-stride B columns");
    let full = cols.len() - cols.len() % J_TILE;
    for g in 0..groups.count {
        let o = &mut o[g * groups.o_step..];
        let res = res.map(|r| &r[g * groups.o_step..]);
        let a = Mat { base: a.base + g * groups.a_step, ..a };
        let b0 = b.base + g * groups.b_step;
        for jt in (0..full).step_by(J_TILE) {
            tile_rows(o, n, cols.start + jt, a, &b.data[b0 + jt..], b.rs, rows, k, bias, res);
        }
        for row in 0..rows {
            for j in cols.start + full..cols.end {
                let mut s = 0.0f32;
                for kk in 0..k {
                    s = a.data[a.base + row * a.rs + kk * a.cs]
                        .mul_add(b.data[b0 + kk * b.rs + j - cols.start], s);
                }
                let at = row * n + j;
                finish(std::slice::from_mut(&mut s), bias.map(|b| &b[j..]), res.map(|r| &r[at..]));
                o[at] = s;
            }
        }
    }
}

/// Transposes `w ≤ `[`NC`] rows of `cols` unit-stride elements into a
/// `[cols][NC]` tile — `tile[d * NC + j] = src[j, d]` — which is the layout
/// [`mul_cols`] wants of a `B` that arrives as rows (`kᵀ` from `k`). Slots
/// `j ≥ w` of a tile row are left as they were or zeroed.
///
/// # Panics
///
/// Panics if `src.cs != 1`, `w > NC`, or an extent reaches past its slice.
pub(super) fn transpose_tile(avx512: bool, tile: &mut [f32], src: Mat, w: usize, cols: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx512 {
        return avx512::transpose_tile(tile, src, w, cols);
    }
    #[cfg(not(target_arch = "x86_64"))]
    debug_assert!(!avx512, "the AVX-512 kernel exists on x86-64 only");
    assert!(src.cs == 1 && w <= NC, "transpose_tile wants at most {NC} unit-stride rows");
    for j in 0..w {
        let row = &src.data[src.base + j * src.rs..][..cols];
        for (d, &x) in row.iter().enumerate() {
            tile[d * NC + j] = x;
        }
    }
}

/// [`gelu_scalar`] over `xs` in place: [`linear`]'s activation step and the
/// standalone [`super::gelu`]. With `avx512` (only ever [`use_avx512`]'s
/// answer) the loop runs as compiled for AVX-512F ([`avx512::gelu`]), else as
/// compiled for the build baseline — one source, [`gelu_body`], so the bits
/// are the same either way.
pub(super) fn gelu_in_place(avx512: bool, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx512 {
        return avx512::gelu(xs);
    }
    #[cfg(not(target_arch = "x86_64"))]
    debug_assert!(!avx512, "the AVX-512 kernel exists on x86-64 only");
    gelu_body(xs)
}

/// The GELU loop both compiles of [`gelu_in_place`] inline.
#[inline(always)]
fn gelu_body(xs: &mut [f32]) {
    for v in xs {
        *v = gelu_scalar(*v);
    }
}

/// Output columns `[jt, jt + J_TILE)` of `rows` rows of width `n` against
/// one `B` tile whose row `kk` is the [`J_TILE`] floats at `bt[kk * bts..]`.
/// Each 4-row × [`J_TILE`]-column block accumulates in a stack array across
/// the whole `k` loop, gets the bias and residual added ([`finish`]) and
/// is stored exactly once, so output rows are never
/// re-read and each loaded `B` cache line feeds four accumulator rows —
/// eight independent vector FMA chains, which is what covers the FMA
/// latency.
#[allow(clippy::too_many_arguments)]
fn tile_rows(
    o: &mut [f32],
    n: usize,
    jt: usize,
    a: Mat,
    bt: &[f32],
    bts: usize,
    rows: usize,
    k: usize,
    bias: Option<&[f32]>,
    residual: Option<&[f32]>,
) {
    let mut store = |r: usize, acc: &mut [f32; J_TILE]| {
        let at = r * n + jt;
        finish(acc, bias.map(|b| &b[jt..]), residual.map(|res| &res[at..]));
        o[at..at + J_TILE].copy_from_slice(acc);
    };
    let Mat { data: ad, base: a0, rs: ars, cs: acs } = a;
    let mut row = 0;
    while row + 4 <= rows {
        let mut acc = [[0.0f32; J_TILE]; 4];
        for kk in 0..k {
            let ab = a0 + row * ars + kk * acs;
            let av = [ad[ab], ad[ab + ars], ad[ab + 2 * ars], ad[ab + 3 * ars]];
            let br = &bt[kk * bts..kk * bts + J_TILE];
            for (arow, &a) in acc.iter_mut().zip(&av) {
                for (ov, &bv) in arow.iter_mut().zip(br) {
                    *ov = a.mul_add(bv, *ov);
                }
            }
        }
        for (r, arow) in acc.iter_mut().enumerate() {
            store(row + r, arow);
        }
        row += 4;
    }
    while row < rows {
        let mut acc = [0.0f32; J_TILE];
        for kk in 0..k {
            let av = ad[a0 + row * ars + kk * acs];
            let br = &bt[kk * bts..kk * bts + J_TILE];
            for (ov, &bv) in acc.iter_mut().zip(br) {
                *ov = av.mul_add(bv, *ov);
            }
        }
        store(row, &mut acc);
        row += 1;
    }
}

/// The explicit AVX-512F micro-kernel behind [`mul_cols`]: the crate's one
/// island of `unsafe` code — raw loads and stores inside, every extent
/// checked by the one safe entry, and a safe reference ([`tile_rows`])
/// asserted bit-identical by `tests/avx512_parity.rs` — and the two twins
/// ([`gelu`](avx512::gelu), [`softmax_rows`](avx512::softmax_rows)).
///
/// # Twins
///
/// A twin is no new code: its `#[target_feature]` function's body is a call
/// of the safe `#[inline(always)]` body the portable path runs
/// ([`gelu_body`], [`softmax_body`](super::reduce::softmax_body)), so the
/// same source is compiled twice. Unlike the GEMM tile, these loops are
/// plain maps and row passes, which LLVM does widen to `zmm` once the
/// feature is enabled. Auto-vectorization never reassociates floating-point
/// math and `mul_add` is a fused operation in both compiles, so each
/// element goes through the same IEEE operations in the same order either
/// way; a release-only test runs both GELU compiles over all 2³² inputs,
/// NaN payloads included, and finds no differing bit, and
/// `tests/row_kernel_parity.rs` holds both softmax compiles to a one-row
/// reference on hostile rows. The only `unsafe` a twin adds is its call,
/// after asserting the CPU feature.
///
/// # Why explicit
///
/// The safe tile loops top out at half this host's `ymm` FMA rate and a
/// quarter of its `zmm` rate, and neither compiler route reaches 512-bit
/// code: under `#[target_feature(enable = "avx512f")]` the auto-vectorizer
/// rewrites the tile loop as 64 `vgatherqps` + 64 `vscatterqps` (measured
/// six times *slower*), and `-C target-cpu=x86-64-v4` alone emits no `zmm`
/// at all (LLVM's `prefer-256-bit`). So the kernel is written with
/// intrinsics and selected at run time, and the build baseline stays
/// `x86-64-v3`.
///
/// # Same bits
///
/// [`kern`] keeps one accumulator lane per output element and issues one
/// `_mm512_fmadd_ps` per element per `k`, ascending from zero — the chain
/// [`tile_rows`] builds with `f32::mul_add`, and a per-lane IEEE fused
/// multiply-add like it — then an `_mm512_add_ps` (IEEE, per lane, as
/// [`finish`]'s `+=`) of the bias and of the residual. Block shape, mask and
/// store timing only decide where and when an element is computed.
///
/// # Safety contract
///
/// [`mul_cols`](avx512::mul_cols) is safe for any arguments: before its
/// `unsafe` block it asserts that the last output element `(rows−1,
/// cols.end−1)`, the largest `A` index `(rows−1, k−1)` and the largest `B`
/// index `(k−1, width−1)` — each at the last group's offset, computed with
/// overflow checks — lie inside their slices, that a bias covers
/// `cols.end` and a residual is as long as the output slice, and that the
/// CPU has AVX-512F. The kernel dereferences exactly the addresses those
/// extents cover: a block's last vector is loaded, added to and stored
/// under a `__mmask16`, and AVX-512 masked loads and stores do not access
/// (or fault on) masked-off lanes.
///
/// [`transpose_tile`](avx512::transpose_tile), the other entry, moves data
/// without arithmetic (so it has no bits to keep) and is built the same way:
/// source extent, tile length and the CPU feature asserted first, ragged
/// source columns loaded under a mask, and its safe reference is the scalar
/// loop in [`transpose_tile`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(super) mod avx512 {
    use std::arch::x86_64::*;
    use std::ops::Range;

    use super::super::reduce::softmax_body;
    use super::{gelu_body, Groups, Mat, NC};

    /// Rows per register block: 6 rows × 4 vectors is 24 of the 32 `zmm`
    /// registers in accumulators, beside four `B` vectors and the `A`
    /// broadcast (4 and 5 rows measured alike or slower). Blocks of one or
    /// two vectors — ragged last columns, gathered and attention tiles, the
    /// heads — take [`MR_NARROW`] rows: 8–16 FMA chains cover the latency.
    const MR: usize = 6;
    const MR_NARROW: usize = 8;
    /// `f32` lanes per `zmm` vector.
    const LANES: usize = 16;
    /// Columns per register block: four vectors.
    const NB: usize = 4 * LANES;
    // A gathered or transposed tile is one block of two vectors.
    const _: () = assert!(NC == 2 * LANES);

    impl Mat<'_> {
        /// True when element `(rows − 1, cols − 1)` — the largest index of
        /// a `rows × cols` matrix, strides being non-negative — lies inside
        /// `data`; false if computing it overflows.
        fn holds(&self, rows: usize, cols: usize) -> bool {
            let last = (|| {
                let r = (rows - 1).checked_mul(self.rs)?;
                let c = (cols - 1).checked_mul(self.cs)?;
                self.base.checked_add(r)?.checked_add(c)
            })();
            last.is_some_and(|i| i < self.data.len())
        }
    }

    /// [`super::mul_cols`] with its store-time adds unpacked: `bias[j]`, then
    /// `residual[r * n + j]` (laid out and offset per group like `o`).
    ///
    /// # Panics
    ///
    /// Panics — before reading or writing anything — if the CPU lacks
    /// AVX-512F, `k == 0`, `b.cs != 1`, `cols` reaches past `n` or the bias,
    /// the residual's length is not `o`'s, or an extent reaches past its
    /// slice (the module's safety contract).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn mul_cols(
        o: &mut [f32],
        n: usize,
        cols: Range<usize>,
        a: Mat,
        b: Mat,
        rows: usize,
        k: usize,
        groups: Groups,
        bias: Option<&[f32]>,
        residual: Option<&[f32]>,
    ) {
        if rows == 0 || cols.is_empty() || groups.count == 0 {
            return;
        }
        assert!(k > 0 && b.cs == 1, "avx512 kernel wants k > 0 and unit-stride B columns");
        // Offsets only grow with the group index, so the last group's
        // extents bound every group's.
        let last = groups.count - 1;
        fn at<'a>(m: Mat<'a>, group: usize, step: usize) -> Option<Mat<'a>> {
            let base = m.base.checked_add(group.checked_mul(step)?)?;
            Some(Mat { base, ..m })
        }
        let o_end = (|| {
            let rows_before = (rows - 1).checked_mul(n)?;
            last.checked_mul(groups.o_step)?.checked_add(rows_before)?.checked_add(cols.end)
        })();
        assert!(
            cols.end <= n && o_end.is_some_and(|end| end <= o.len()),
            "avx512 kernel: {rows} rows of width {n} (columns {cols:?}) exceed the output slice"
        );
        assert!(
            at(a, last, groups.a_step).is_some_and(|a| a.holds(rows, k)),
            "avx512 kernel: A[{rows}, {k}] reaches past its slice"
        );
        assert!(
            at(b, last, groups.b_step).is_some_and(|b| b.holds(k, cols.len())),
            "avx512 kernel: B[{k}, {}] reaches past its slice",
            cols.len()
        );
        assert!(
            bias.is_none_or(|b| cols.end <= b.len()),
            "avx512 kernel: the bias does not cover columns {cols:?}"
        );
        assert!(
            residual.is_none_or(|r| r.len() == o.len()),
            "avx512 kernel: the residual is not laid out like the output slice"
        );
        assert!(crate::cpu::avx512f(), "avx512 kernel selected without AVX-512F");
        let p = Ptrs {
            a: a.data[a.base..].as_ptr(),
            ars: a.rs,
            acs: a.cs,
            b: b.data[b.base..].as_ptr(),
            brs: b.rs,
            o: o[cols.start..].as_mut_ptr(),
            bias: bias.map(|b| b[cols.start..].as_ptr()),
            res: residual.map(|r| r[cols.start..].as_ptr()),
            n,
            k,
        };
        for g in 0..groups.count {
            // SAFETY: AVX-512F is present (last assert). For group `g`,
            // `blocks` reads `a[g·a_step + r·ars + kk·acs]`, `b[g·b_step +
            // kk·brs + j]`, `bias[c]`, `residual[i]` and writes `o[i]`, with
            // `c = cols.start + j`, `i = g·o_step + r·n + c`, for `r < rows`,
            // `kk < k`, `j < cols.len()` only; the asserts above put the
            // largest of each, at the last group, inside its slice, steps and
            // strides are unsigned so every other index is smaller, and `o`
            // is borrowed mutably so nothing else aliases the writes.
            unsafe {
                let pg = Ptrs {
                    a: p.a.add(g * groups.a_step),
                    b: p.b.add(g * groups.b_step),
                    o: p.o.add(g * groups.o_step),
                    res: p.res.map(|r| r.add(g * groups.o_step)),
                    ..p
                };
                blocks(pg, rows, cols.len());
            }
        }
    }

    /// [`gelu_body`] compiled for AVX-512F: `zmm` vectors, the same
    /// operations in the same order.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX-512F.
    pub(in crate::ops) fn gelu(xs: &mut [f32]) {
        assert!(crate::cpu::avx512f(), "avx512 kernel selected without AVX-512F");
        // SAFETY: AVX-512F is present (the assert), the one thing a
        // `target_feature` function requires of its caller; the body is
        // safe code.
        unsafe { gelu_zmm(xs) }
    }

    #[target_feature(enable = "avx512f")]
    fn gelu_zmm(xs: &mut [f32]) {
        gelu_body(xs)
    }

    /// [`softmax_body`] compiled for AVX-512F, as [`gelu`] is.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX-512F, or where [`softmax_body`] does.
    pub(in crate::ops) fn softmax_rows(src: &[f32], out: &mut [f32], d: usize, scale: f32) {
        assert!(crate::cpu::avx512f(), "avx512 kernel selected without AVX-512F");
        // SAFETY: as in `gelu`.
        unsafe { softmax_zmm(src, out, d, scale) }
    }

    #[target_feature(enable = "avx512f")]
    fn softmax_zmm(src: &[f32], out: &mut [f32], d: usize, scale: f32) {
        softmax_body(src, out, d, scale)
    }

    /// `tile[d * NC + j] = src[j, d]` for `j < w`, `d < cols`: `w` rows of
    /// `cols` unit-stride elements transposed into a `[cols][NC]` tile,
    /// four rows at a time in registers. Slots `w..` of a tile row up to the
    /// next multiple of four are zeroed, the rest left alone.
    ///
    /// # Panics
    ///
    /// Panics — before reading or writing anything — if the CPU lacks
    /// AVX-512F, `src.cs != 1`, `w > NC`, `src[w, cols]` reaches past its
    /// slice or `tile` is shorter than `cols * NC` (the module's safety
    /// contract).
    pub(super) fn transpose_tile(tile: &mut [f32], src: Mat, w: usize, cols: usize) {
        if w == 0 || cols == 0 {
            return;
        }
        assert!(src.cs == 1 && w <= NC, "avx512 transpose wants at most {NC} unit-stride rows");
        assert!(src.holds(w, cols), "avx512 transpose: src[{w}, {cols}] reaches past its slice");
        assert!(
            cols.checked_mul(NC).is_some_and(|len| len <= tile.len()),
            "avx512 transpose: {cols} tile rows exceed the tile slice"
        );
        assert!(crate::cpu::avx512f(), "avx512 kernel selected without AVX-512F");
        // SAFETY: AVX-512F is present (last assert). `transpose` reads
        // `src[j * rs + d]` for `j < w`, `d < cols` only — the assert above
        // puts the largest of them inside the slice — and writes
        // `tile[d * NC + j]` for `d < cols`, `j <` `w` rounded up to a
        // multiple of four, which is at most `NC` because `NC` is one, so
        // every write is below `cols * NC <= tile.len()`; `tile` is borrowed
        // mutably so nothing aliases the writes.
        unsafe { transpose(src.data[src.base..].as_ptr(), src.rs, w, cols, tile.as_mut_ptr()) }
    }

    /// Four source rows at a time: two rounds of in-lane unpacks turn four
    /// 16-element row pieces into four vectors whose 128-bit lane `l` holds
    /// source column `4l + i` of the four rows — one tile row's four
    /// adjacent slots, stored with one 128-bit store. Rows past `w` enter
    /// as zeros; columns past `cols` are masked off the loads and their
    /// stores skipped.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F. For every `j < w`, `d < cols`, `src.add(j * rs +
    /// d)` must be readable, and `tile.add(d * NC + j)` writable for every
    /// `d < cols` and `j < w.next_multiple_of(4)`; nothing else is
    /// dereferenced.
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose(src: *const f32, rs: usize, w: usize, cols: usize, tile: *mut f32) {
        for jb in (0..w).step_by(4) {
            for db in (0..cols).step_by(LANES) {
                let cw = LANES.min(cols - db);
                let mask: __mmask16 = u16::MAX >> (LANES - cw);
                let mut r = [_mm512_setzero_ps(); 4];
                for (i, row) in r.iter_mut().enumerate().take(w - jb) {
                    // SAFETY: row `jb + i < w`; lane `l` of this load is
                    // `src[jb + i, db + l]`, enabled only for `db + l < cols`.
                    *row = unsafe { _mm512_maskz_loadu_ps(mask, src.add((jb + i) * rs + db)) };
                }
                // Per 128-bit lane: `ab_lo = r0[0] r1[0] r0[1] r1[1]`, …
                let ab_lo = _mm512_castps_pd(_mm512_unpacklo_ps(r[0], r[1]));
                let ab_hi = _mm512_castps_pd(_mm512_unpackhi_ps(r[0], r[1]));
                let cd_lo = _mm512_castps_pd(_mm512_unpacklo_ps(r[2], r[3]));
                let cd_hi = _mm512_castps_pd(_mm512_unpackhi_ps(r[2], r[3]));
                // … then `t[i]` lane `l` = `r0[4l+i] r1[4l+i] r2[4l+i] r3[4l+i]`.
                let t = [
                    _mm512_castpd_ps(_mm512_unpacklo_pd(ab_lo, cd_lo)),
                    _mm512_castpd_ps(_mm512_unpackhi_pd(ab_lo, cd_lo)),
                    _mm512_castpd_ps(_mm512_unpacklo_pd(ab_hi, cd_hi)),
                    _mm512_castpd_ps(_mm512_unpackhi_pd(ab_hi, cd_hi)),
                ];
                macro_rules! store_lane {
                    ($($l:literal)*) => {$(
                        for (i, &v) in t.iter().enumerate() {
                            let d = 4 * $l + i;
                            if d < cw {
                                // SAFETY: tile row `db + d < cols`, slots
                                // `jb..jb + 4` with `jb` a multiple of four
                                // below `w`.
                                unsafe {
                                    _mm_storeu_ps(
                                        tile.add((db + d) * NC + jb),
                                        _mm512_extractf32x4_ps::<$l>(v),
                                    );
                                }
                            }
                        }
                    )*};
                }
                store_lane!(0 1 2 3);
            }
        }
    }

    /// What [`kern`] works from: the first element of its `A` rows, of its
    /// `B` columns, of its output block and of the bias and residual it
    /// adds (where given), with the strides between rows (`A` also between
    /// `k` steps; the residual is laid out like the output).
    #[derive(Clone, Copy)]
    struct Ptrs {
        a: *const f32,
        ars: usize,
        acs: usize,
        b: *const f32,
        brs: usize,
        o: *mut f32,
        bias: Option<*const f32>,
        res: Option<*const f32>,
        n: usize,
        k: usize,
    }

    /// Walks a `rows × w` output in [`NB`]-column blocks (outer, so one
    /// L1-resident `B` tile serves every row) of [`MR`]-row register blocks
    /// — [`MR_NARROW`] rows where one or two vectors are left — the ragged
    /// last ones running the same kernel at a smaller `R` and `NV`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F. For every `r < rows`, `kk < p.k`, `j < w`,
    /// `p.a.add(r * p.ars + kk * p.acs)`, `p.b.add(kk * p.brs + j)`,
    /// `p.bias.add(j)` and `p.res.add(r * p.n + j)` must be readable and
    /// `p.o.add(r * p.n + j)` writable; nothing else is dereferenced.
    #[target_feature(enable = "avx512f")]
    unsafe fn blocks(p: Ptrs, rows: usize, w: usize) {
        for c in (0..w).step_by(NB) {
            let wc = NB.min(w - c);
            let nv = wc.div_ceil(LANES);
            // Lanes of the block's last vector that are real columns.
            let mask: __mmask16 = u16::MAX >> (nv * LANES - wc);
            let mr = if nv <= 2 { MR_NARROW } else { MR };
            for r in (0..rows).step_by(mr) {
                // SAFETY: `r < rows` and `c < w`, so these are the addresses
                // of `a[r, 0]`, `b[0, c]`, `bias[c]`, `res[r, c]` and
                // `o[r, c]`, inside the extents the caller vouches for;
                // `kern` stays within `min(mr, rows − r)` rows and `wc`
                // columns of them.
                unsafe {
                    let q = Ptrs {
                        a: p.a.add(r * p.ars),
                        b: p.b.add(c),
                        o: p.o.add(r * p.n + c),
                        bias: p.bias.map(|b| b.add(c)),
                        res: p.res.map(|res| res.add(r * p.n + c)),
                        ..p
                    };
                    macro_rules! dispatch {
                        ($($rows:literal: $($nv:literal)*;)*) => {
                            match (mr.min(rows - r), nv) {
                                $($(($rows, $nv) => kern::<$rows, $nv>(q, mask),)*)*
                                _ => unreachable!("blocks are 1..=6 rows of 1..=4 vectors or 7..=8 of 1..=2"),
                            }
                        };
                    }
                    dispatch!(1: 1 2 3 4; 2: 1 2 3 4; 3: 1 2 3 4; 4: 1 2 3 4; 5: 1 2 3 4; 6: 1 2 3 4;
                              7: 1 2; 8: 1 2;);
                }
            }
        }
    }

    /// One `R × (NV·16)` register block: accumulators stay in `zmm`
    /// registers across the whole `k` loop — per `k` step `NV` loads of `B`,
    /// `R` broadcasts of `A` through its strides, `R·NV` fused multiply-adds
    /// — then get the bias and the residual added, each where given, and
    /// are stored once. Vector `NV − 1` is loaded, added to and stored under
    /// `mask`; the vectors before it are full.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F. With `w = 16·(NV − 1) + mask.count_ones()`, for
    /// every `r < R`, `kk < p.k`, `j < w`: `p.a.add(r * p.ars + kk * p.acs)`,
    /// `p.b.add(kk * p.brs + j)`, `p.bias.add(j)` and `p.res.add(r * p.n +
    /// j)` must be readable and `p.o.add(r * p.n + j)` writable. `mask` must
    /// be a run of low bits.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn kern<const R: usize, const NV: usize>(p: Ptrs, mask: __mmask16) {
        // All lanes for the full vectors, `mask` for the last.
        let lanes = |v: usize| if v + 1 == NV { mask } else { !0 };
        let mut acc = [[_mm512_setzero_ps(); NV]; R];
        for kk in 0..p.k {
            let mut bv = [_mm512_setzero_ps(); NV];
            for (v, bvec) in bv.iter_mut().enumerate() {
                // SAFETY: lane `l` of this load is `b[kk, 16·v + l]`, and
                // only lanes with `16·v + l < w` are enabled.
                *bvec = unsafe { _mm512_maskz_loadu_ps(lanes(v), p.b.add(kk * p.brs + LANES * v)) };
            }
            for (r, arow) in acc.iter_mut().enumerate() {
                // SAFETY: `a[r, kk]` with `r < R`, `kk < k`.
                let av = _mm512_set1_ps(unsafe { *p.a.add(r * p.ars + kk * p.acs) });
                for (ov, &bvec) in arow.iter_mut().zip(&bv) {
                    *ov = _mm512_fmadd_ps(av, bvec, *ov);
                }
            }
        }
        for (r, arow) in acc.iter().enumerate() {
            for (v, &ov) in arow.iter().enumerate() {
                let (at, m) = (r * p.n + LANES * v, lanes(v));
                // SAFETY: lane `l` of each load and of the store is column
                // `16·v + l` of row `r` (the bias: of its one row), and only
                // lanes with `16·v + l < w` are enabled.
                unsafe {
                    let add = |ov, x: *const f32| _mm512_add_ps(ov, _mm512_maskz_loadu_ps(m, x));
                    let ov = p.bias.map_or(ov, |b| add(ov, b.add(LANES * v)));
                    let ov = p.res.map_or(ov, |res| add(ov, res.add(at)));
                    _mm512_mask_storeu_ps(p.o.add(at), m, ov);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copy_metrics;
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

    /// `avx512::mul_cols` on a 9×20 by 20×35 product plus a bias and a
    /// residual, whose `A`, `B`, output, bias and residual slices are
    /// `short` elements shorter than the product needs.
    #[cfg(target_arch = "x86_64")]
    fn mul_cols_with_short_buffers(short: [usize; 5]) {
        let (rows, k, n) = (9, 20, 35);
        let (a, b) = (vec![1.0; rows * k - short[0]], vec![1.0; k * n - short[1]]);
        let mut o = vec![0.0; rows * n - short[2]];
        let (bias, res) = (vec![0.5; n - short[3]], vec![0.25; rows * n - short[4]]);
        let a = Mat { data: &a, base: 0, rs: k, cs: 1 };
        let b = Mat { data: &b, base: 0, rs: n, cs: 1 };
        avx512::mul_cols(&mut o, n, 0..n, a, b, rows, k, Groups::ONE, Some(&bias), Some(&res));
        assert!(o.iter().all(|&v| v == k as f32 + 0.75));
    }

    // The five extent asserts of the AVX-512 island's safe entry: a slice
    // one element (the residual: one row) short must panic there — on any
    // x86-64 host, the CPU check comes after them — instead of being read or
    // written past its end.
    #[test]
    #[cfg(target_arch = "x86_64")]
    #[should_panic(expected = "A[9, 20] reaches past its slice")]
    fn avx512_entry_rejects_a_short_a() {
        mul_cols_with_short_buffers([1, 0, 0, 0, 0]);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    #[should_panic(expected = "B[20, 35] reaches past its slice")]
    fn avx512_entry_rejects_a_short_b() {
        mul_cols_with_short_buffers([0, 1, 0, 0, 0]);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    #[should_panic(expected = "exceed the output slice")]
    fn avx512_entry_rejects_a_short_output() {
        mul_cols_with_short_buffers([0, 0, 1, 0, 0]);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    #[should_panic(expected = "the bias does not cover columns 0..35")]
    fn avx512_entry_rejects_a_short_bias() {
        mul_cols_with_short_buffers([0, 0, 0, 1, 0]);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    #[should_panic(expected = "the residual is not laid out like the output slice")]
    fn avx512_entry_rejects_a_residual_one_row_short() {
        mul_cols_with_short_buffers([0, 0, 0, 0, 35]);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx512_entry_accepts_exact_buffers() {
        if crate::cpu::avx512f() {
            mul_cols_with_short_buffers([0; 5]);
        }
    }

    /// Two 2×3 by 3×4 products side by side in one `[2, 8]` output, the
    /// second `A`, `B` and output block `steps` further on: exact buffers
    /// for steps of `[6, 12, 4]`.
    #[cfg(target_arch = "x86_64")]
    fn grouped_mul_cols(steps: [usize; 3]) {
        let (a, b) = (vec![1.0; 12], vec![1.0; 24]);
        let mut o = vec![0.0; 16];
        let a = Mat { data: &a, base: 0, rs: 3, cs: 1 };
        let b = Mat { data: &b, base: 0, rs: 4, cs: 1 };
        let groups = Groups { count: 2, a_step: steps[0], b_step: steps[1], o_step: steps[2] };
        avx512::mul_cols(&mut o, 8, 0..4, a, b, 2, 3, groups, None, None);
        assert!(o.iter().all(|&v| v == 3.0));
    }

    // The group offsets enter the same three extent asserts: a last group
    // one element past a slice must panic before anything is touched.
    #[test]
    #[cfg(target_arch = "x86_64")]
    #[should_panic(expected = "A[2, 3] reaches past its slice")]
    fn avx512_entry_rejects_a_group_past_a() {
        grouped_mul_cols([7, 12, 4]);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    #[should_panic(expected = "B[3, 4] reaches past its slice")]
    fn avx512_entry_rejects_a_group_past_b() {
        grouped_mul_cols([6, 13, 4]);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    #[should_panic(expected = "exceed the output slice")]
    fn avx512_entry_rejects_a_group_past_the_output() {
        grouped_mul_cols([6, 12, 5]);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx512_entry_accepts_exact_grouped_buffers() {
        if crate::cpu::avx512f() {
            grouped_mul_cols([6, 12, 4]);
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
        gelu_in_place(false, &mut want);
        Kernel::available().iter().find_map(|&kernel| {
            let mut got = xs.to_vec();
            gelu_in_place(kernel == Kernel::Avx512, &mut got);
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
        if !crate::cpu::avx512f() {
            return;
        }
        const CHUNK: u32 = 1 << 16;
        let (mut want, mut got) = (vec![0.0f32; CHUNK as usize], vec![0.0f32; CHUNK as usize]);
        for base in (0..=u32::MAX - (CHUNK - 1)).step_by(CHUNK as usize) {
            for ((w, g), bits) in want.iter_mut().zip(&mut got).zip(base..) {
                (*w, *g) = (f32::from_bits(bits), f32::from_bits(bits));
            }
            gelu_in_place(false, &mut want);
            gelu_in_place(true, &mut got);
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
