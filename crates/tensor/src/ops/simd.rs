//! The one SIMD vocabulary of the kernels, and the one place that decides
//! which of its two implementations runs.
//!
//! The vector kernels of [`crate::ops`] — the GEMM's column kernel, the
//! GELU pass, the row softmax, the attention and layer-norm lane kernels —
//! are each written once over [`Lanes`] as a [`Job`], and [`run`] runs
//! them: with [`Portable`] lanes (safe `[f32; 16]` loops and a 4×16 GEMM
//! tile compiled for the build baseline, `x86-64-v3`, and the parity
//! reference), or — where the `KERNEL` dial selects the AVX-512 kernel —
//! with `Zmm` lanes inside one `#[target_feature(enable = "avx512f")]`
//! function, which compiles the job's whole body for AVX-512F. [`run`] is the only reader of
//! the dial, and its AVX-512 branch makes the one assert of the CPU feature
//! ([`avx512f`], the crate's one run-time probe) before the one call of that
//! function; every other module names neither lane type.
//!
//! # The unsafe island
//!
//! The `zmm` half is the crate's one island of `unsafe` code: `zmm`
//! intrinsics inside, every memory access behind an extent check that
//! [`Portable`] runs too, and a safe reference ([`Portable`]) asserted
//! bit-identical by `tests/avx512_parity.rs`, `tests/attention_parity.rs`
//! and `tests/row_kernel_parity.rs`. A `Zmm` is only ever built inside
//! [`run`]'s `#[target_feature]` entry, so holding one proves the CPU has
//! AVX-512F; that is the whole safety argument of its lane arithmetic,
//! which touches no memory but its `&Lane` operands.
//!
//! The bulk moves — [`Lanes::gather`], [`Lanes::scatter`] (16×16
//! transposes in registers), [`Lanes::weighted_rows`] (each lane's rows
//! weighted by its lane of a score vector, the attention context) and
//! [`Lanes::mul_cols`] (the GEMM's 6×64 register blocks) — are safe for any
//! arguments: before its one `unsafe` block each asserts, with
//! overflow-checked arithmetic, that the largest index it reads or writes
//! of every operand lies inside its slice. The kernels dereference exactly
//! the addresses those extents cover: ragged columns and idle lanes are
//! loaded and stored under a lane mask, and AVX-512 masked loads and stores
//! do not access (or fault on) masked-off lanes. [`Portable`]'s GEMM makes
//! the same asserts, so both kernels reject the same products before
//! touching anything; its moves are safe code and panic at their first
//! index past a slice.
//!
//! # Twins
//!
//! The GELU pass and the row softmax use no lane operation: their jobs are
//! plain `#[inline(always)]` loops, compiled a second time inside the
//! `#[target_feature]` entry, where LLVM widens them to `zmm` (about a
//! quarter off either pass at the model's shapes). Auto-vectorization never
//! reassociates floating-point math and `mul_add` is a fused operation in
//! both compiles, so each element goes through the same IEEE operations in
//! the same order either way; a release-only test runs both GELU compiles
//! over all 2³² inputs, NaN payloads included, and finds no differing bit.
//!
//! # Why explicit
//!
//! The safe GEMM tile tops out at half this host's `ymm` FMA rate and a
//! quarter of its `zmm` rate, and neither compiler route reaches 512-bit
//! code: under `#[target_feature(enable = "avx512f")]` the auto-vectorizer
//! rewrites the tile loop as 64 `vgatherqps` + 64 `vscatterqps` (measured
//! six times *slower*), and `-C target-cpu=x86-64-v4` alone emits no `zmm`
//! at all (LLVM's `prefer-256-bit`). A safe GEMM body generic over
//! [`Lanes`] gave the same bits but ran 1.7–3.7× slower, its accumulators
//! spilled every `k` step; building the moves from [`Portable`]'s bodies
//! under the feature made attention and layer norm 1.3–2.3× slower. So the
//! moves and the GEMM are written with intrinsics, and the build baseline
//! stays `x86-64-v3`.
//!
//! # Same bits
//!
//! Every lane operation is the one AVX-512F instruction that is the IEEE
//! operation [`Portable`]'s `f32` loop performs (the exponential,
//! [`fastmath::exp`]'s sequence of them, its clamp written so that a NaN
//! stays NaN, and its last step one `vscalefps`), so each lane keeps its
//! row's bits. The GEMM keeps one accumulator lane per output element and
//! issues one `_mm512_fmadd_ps` per element per `k`, ascending from zero —
//! the chain [`Portable`]'s tile builds with `f32::mul_add` — then an
//! `_mm512_add_ps` of the bias and of the residual; block shape, mask and
//! store timing only decide where and when an element is computed.

use std::ops::Range;

use super::reduce::keep_max;
use crate::dial::{Kernel, KERNEL};
use crate::fastmath;

/// True when the CPU has AVX-512F, the feature the `zmm` lanes need: probed
/// at run time (the build baseline stays `x86-64-v3`; `is_x86_feature_detected!`
/// caches its answer), never assumed, and always false on another
/// architecture, where [`Portable`] is the only implementation compiled in.
pub(crate) fn avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Rows one lane vector carries: sixteen `f32`s, one `zmm` register (two
/// `ymm` registers of the build baseline).
pub(super) const LANES: usize = 16;

/// One value of each of [`LANES`] independent rows, in memory. The row
/// kernels ([`super::attention()`], [`super::layer_norm`]) hold their operands
/// lane-major — `[column][lane]` — and run each row's scalar chain in its
/// own lane, so a lane's result has the bits the row alone would get.
pub(super) type Lane = [f32; LANES];

/// A matrix read through strides: element `(i, j)` is
/// `data[base + i * rs + j * cs]`.
#[derive(Clone, Copy)]
pub(super) struct Mat<'a> {
    pub(super) data: &'a [f32],
    pub(super) base: usize,
    pub(super) rs: usize,
    pub(super) cs: usize,
}

/// What a kernel computes with: a register type holding one [`Lane`], the
/// IEEE operations it applies lane by lane, and the bulk moves — between
/// row layout and lane-major, and the GEMM's column kernel. Each operation
/// is one IEEE operation per lane (or, for [`Lanes::exp`],
/// [`fastmath::exp`]'s fixed sequence of them), so the two implementations
/// cannot differ in a bit.
pub(super) trait Lanes {
    /// One [`Lane`] in registers.
    type V: Copy;

    /// Keys per block of attention score chains: as many lane vectors of
    /// accumulators per query row as leave room for the operands in the
    /// register file (four of the sixteen `ymm` pairs, nine `zmm`).
    const KEYS: usize;

    /// The lanes of `x`.
    fn load(&self, x: &Lane) -> Self::V;
    /// `v` into `x`.
    fn store(&self, v: Self::V, x: &mut Lane);
    /// `x` in every lane.
    fn splat(&self, x: f32) -> Self::V;
    /// `a + b`.
    fn add(&self, a: Self::V, b: Self::V) -> Self::V;
    /// `a − b`.
    fn sub(&self, a: Self::V, b: Self::V) -> Self::V;
    /// `a · b`.
    fn mul(&self, a: Self::V, b: Self::V) -> Self::V;
    /// `a / b`.
    fn div(&self, a: Self::V, b: Self::V) -> Self::V;
    /// `a·b + c`, rounded once (`f32::mul_add`).
    fn fma(&self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// [`keep_max`]`(x, m)`: `x` where `x > m`, else `m`.
    fn keep_max(&self, x: Self::V, m: Self::V) -> Self::V;
    /// [`fastmath::exp`].
    fn exp(&self, x: Self::V) -> Self::V;
    /// `√x`.
    fn sqrt(&self, x: Self::V) -> Self::V;

    /// `dst[r·w + c][l] = src[bases[l] + r·rs + c]` for `r < rows`,
    /// `c < w` and every lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if an index reaches past `src` or `dst`.
    fn gather(
        &self,
        src: &[f32],
        bases: &[usize; LANES],
        rs: usize,
        rows: usize,
        w: usize,
        dst: &mut [Lane],
    );

    /// `dst[bases[l] + c] = src[c][l]` for `c < w` and the lanes
    /// `l < live`; the other lanes store nothing.
    ///
    /// # Panics
    ///
    /// Panics if an index reaches past `src` or `dst`.
    fn scatter(&self, src: &[Lane], w: usize, dst: &mut [f32], bases: &[usize; LANES], live: usize);

    /// For each of `R` weight sets `p[r·rows..(r + 1)·rows]`:
    /// `dst[at[r][l] + e] = Σ_j p[r·rows + j][l] · src[bases[l] + j·rs + e]`
    /// for `e < w` and the lanes `l < live[r]` — lane-major weights times
    /// each lane's own rows, stored in row layout: one accumulator per
    /// element, fused-multiply-added from zero in ascending `j`. The sets
    /// share the rows, so each row element loaded feeds `R` chains. The
    /// rows of every lane are read, live or not.
    ///
    /// # Panics
    ///
    /// Panics if an index reaches past `src` or `dst`.
    #[allow(clippy::too_many_arguments)]
    fn weighted_rows<const R: usize>(
        &self,
        p: &[Lane],
        src: &[f32],
        bases: &[usize; LANES],
        rs: usize,
        w: usize,
        dst: &mut [f32],
        at: &[[usize; LANES]; R],
        live: [usize; R],
    );

    /// `o[r·n + j] = Σₖ a[r, kk]·b[kk, j − cols.start]`, then `+ bias[j]`
    /// and `+ residual[r·n + j]` where given (the residual laid out like
    /// `o`), for `r < rows`, `j ∈ cols`: output columns `cols` of `rows`
    /// rows of width `n`, `b` holding those columns from its column 0 with
    /// unit column stride. Each element is one accumulator
    /// fused-multiply-added from zero in ascending `kk`, then the adds, each
    /// rounded once.
    ///
    /// # Panics
    ///
    /// Panics, before reading or writing anything, if `k == 0`, `b.cs != 1`,
    /// `cols` reaches past `n` or the bias, the residual's length is not
    /// `o`'s, or an extent reaches past its slice.
    #[allow(clippy::too_many_arguments)]
    fn mul_cols(
        &self,
        o: &mut [f32],
        n: usize,
        cols: Range<usize>,
        a: Mat,
        b: Mat,
        rows: usize,
        k: usize,
        bias: Option<&[f32]>,
        residual: Option<&[f32]>,
    );
}

/// A kernel written once over [`Lanes`], for [`run`]. `on` is
/// `#[inline(always)]` wherever its body is to be compiled for the lanes it
/// gets: a closure or a call left out of line is compiled without the
/// AVX-512F entry's target feature.
pub(super) trait Job {
    /// Runs the kernel with the lanes `v`.
    fn on<L: Lanes>(self, v: &L);
}

/// Runs `job` with the lanes the `KERNEL` dial selects: `Zmm`, inside the
/// one `#[target_feature(enable = "avx512f")]` entry, after asserting the
/// CPU feature; [`Portable`] otherwise. Both produce the same bits.
///
/// # Panics
///
/// Panics if the dial selects the AVX-512 kernel on a CPU without AVX-512F,
/// or where the job does.
pub(super) fn run<J: Job>(job: J) {
    if KERNEL.get() == Kernel::Avx512 {
        #[cfg(target_arch = "x86_64")]
        return zmm::run(job);
        #[cfg(not(target_arch = "x86_64"))]
        panic!("avx512 kernel selected without AVX-512F");
    }
    job.on(&Portable)
}

impl Mat<'_> {
    /// True when element `(rows − 1, cols − 1)` — the largest index of a
    /// `rows × cols` matrix, strides being non-negative — lies inside
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

/// True unless [`Lanes::mul_cols`] computes nothing, having asserted its
/// extents (see there).
#[allow(clippy::too_many_arguments)]
fn mul_cols_extents(
    o: &[f32],
    n: usize,
    cols: &Range<usize>,
    a: &Mat,
    b: &Mat,
    rows: usize,
    k: usize,
    bias: Option<&[f32]>,
    residual: Option<&[f32]>,
) -> bool {
    if rows == 0 || cols.is_empty() {
        return false;
    }
    assert!(k > 0 && b.cs == 1, "gemm kernel wants k > 0 and unit-stride B columns");
    let o_end = (rows - 1).checked_mul(n).and_then(|r| r.checked_add(cols.end));
    assert!(
        cols.end <= n && o_end.is_some_and(|end| end <= o.len()),
        "gemm kernel: {rows} rows of width {n} (columns {cols:?}) exceed the output slice"
    );
    assert!(a.holds(rows, k), "gemm kernel: A[{rows}, {k}] reaches past its slice");
    assert!(b.holds(k, cols.len()), "gemm kernel: B[{k}, {}] reaches past its slice", cols.len());
    assert!(
        bias.is_none_or(|b| cols.end <= b.len()),
        "gemm kernel: the bias does not cover columns {cols:?}"
    );
    assert!(
        residual.is_none_or(|r| r.len() == o.len()),
        "gemm kernel: the residual is not laid out like the output slice"
    );
    true
}

/// Adds `bias` and then `residual`, element by element, to `acc`: the
/// portable GEMM's store-time adds, and the residual after a GELU.
pub(super) fn finish(acc: &mut [f32], bias: Option<&[f32]>, residual: Option<&[f32]>) {
    for add in [bias, residual].into_iter().flatten() {
        for (v, &x) in acc.iter_mut().zip(add) {
            *v += x;
        }
    }
}

/// The [`Lanes`] of the build baseline: safe loops over a [`Lane`], which
/// LLVM widens to two `ymm` vectors, element moves, and the 4×16 GEMM tile
/// ([`tile_rows`]). The parity reference of every kernel.
pub(super) struct Portable;

/// `f` of `a`'s and `b`'s lanes, pairwise.
#[inline(always)]
fn zip_lanes(mut a: Lane, b: Lane, f: impl Fn(f32, f32) -> f32) -> Lane {
    for (x, y) in a.iter_mut().zip(b) {
        *x = f(*x, y);
    }
    a
}

impl Lanes for Portable {
    type V = Lane;
    const KEYS: usize = 4;

    #[inline(always)]
    fn load(&self, x: &Lane) -> Lane {
        *x
    }
    #[inline(always)]
    fn store(&self, v: Lane, x: &mut Lane) {
        *x = v;
    }
    #[inline(always)]
    fn splat(&self, x: f32) -> Lane {
        [x; LANES]
    }
    #[inline(always)]
    fn add(&self, a: Lane, b: Lane) -> Lane {
        zip_lanes(a, b, |x, y| x + y)
    }
    #[inline(always)]
    fn sub(&self, a: Lane, b: Lane) -> Lane {
        zip_lanes(a, b, |x, y| x - y)
    }
    #[inline(always)]
    fn mul(&self, a: Lane, b: Lane) -> Lane {
        zip_lanes(a, b, |x, y| x * y)
    }
    #[inline(always)]
    fn div(&self, a: Lane, b: Lane) -> Lane {
        zip_lanes(a, b, |x, y| x / y)
    }
    #[inline(always)]
    fn fma(&self, a: Lane, b: Lane, mut c: Lane) -> Lane {
        for ((z, x), y) in c.iter_mut().zip(a).zip(b) {
            *z = x.mul_add(y, *z);
        }
        c
    }
    #[inline(always)]
    fn keep_max(&self, x: Lane, m: Lane) -> Lane {
        zip_lanes(x, m, keep_max)
    }
    #[inline(always)]
    fn exp(&self, mut x: Lane) -> Lane {
        for v in x.iter_mut() {
            *v = fastmath::exp(*v);
        }
        x
    }
    #[inline(always)]
    fn sqrt(&self, mut x: Lane) -> Lane {
        for v in x.iter_mut() {
            *v = v.sqrt();
        }
        x
    }

    #[inline(always)]
    fn gather(
        &self,
        src: &[f32],
        bases: &[usize; LANES],
        rs: usize,
        rows: usize,
        w: usize,
        dst: &mut [Lane],
    ) {
        for (r, drow) in dst[..rows * w].chunks_exact_mut(w).enumerate() {
            let rows: [&[f32]; LANES] = std::array::from_fn(|l| &src[bases[l] + r * rs..][..w]);
            for (c, d) in drow.iter_mut().enumerate() {
                for (x, row) in d.iter_mut().zip(&rows) {
                    *x = row[c];
                }
            }
        }
    }

    #[inline(always)]
    fn scatter(
        &self,
        src: &[Lane],
        w: usize,
        dst: &mut [f32],
        bases: &[usize; LANES],
        live: usize,
    ) {
        for (l, &base) in bases.iter().enumerate().take(live) {
            for (o, s) in dst[base..][..w].iter_mut().zip(&src[..w]) {
                *o = s[l];
            }
        }
    }

    #[inline(always)]
    fn weighted_rows<const R: usize>(
        &self,
        p: &[Lane],
        src: &[f32],
        bases: &[usize; LANES],
        rs: usize,
        w: usize,
        dst: &mut [f32],
        at: &[[usize; LANES]; R],
        live: [usize; R],
    ) {
        for ((p, at), live) in p.chunks_exact(p.len() / R).zip(at).zip(live) {
            for (l, (&base, &at)) in bases.iter().zip(at).enumerate().take(live) {
                for (e0, out) in (0..w).step_by(LANES).zip(dst[at..][..w].chunks_mut(LANES)) {
                    let mut acc = [0.0f32; LANES];
                    for (j, pj) in p.iter().enumerate() {
                        let row = &src[base + j * rs + e0..][..out.len()];
                        for (a, &x) in acc.iter_mut().zip(row) {
                            *a = pj[l].mul_add(x, *a);
                        }
                    }
                    out.copy_from_slice(&acc[..out.len()]);
                }
            }
        }
    }

    /// Full 16-column tiles through [`tile_rows`], the narrow column tail
    /// as per-element dot products.
    fn mul_cols(
        &self,
        o: &mut [f32],
        n: usize,
        cols: Range<usize>,
        a: Mat,
        b: Mat,
        rows: usize,
        k: usize,
        bias: Option<&[f32]>,
        res: Option<&[f32]>,
    ) {
        if !mul_cols_extents(o, n, &cols, &a, &b, rows, k, bias, res) {
            return;
        }
        let full = cols.len() - cols.len() % LANES;
        for jt in (0..full).step_by(LANES) {
            tile_rows(o, n, cols.start + jt, a, &b.data[b.base + jt..], b.rs, rows, k, bias, res);
        }
        for row in 0..rows {
            for j in cols.start + full..cols.end {
                let mut s = 0.0f32;
                for kk in 0..k {
                    s = a.data[a.base + row * a.rs + kk * a.cs]
                        .mul_add(b.data[b.base + kk * b.rs + j - cols.start], s);
                }
                let at = row * n + j;
                finish(std::slice::from_mut(&mut s), bias.map(|b| &b[j..]), res.map(|r| &r[at..]));
                o[at] = s;
            }
        }
    }
}

/// Output columns `[jt, jt + 16)` of `rows` rows of width `n` against one
/// `B` tile whose row `kk` is the sixteen floats at `bt[kk * bts..]`. Each
/// 4-row × 16-column block accumulates in a stack array across the whole
/// `k` loop, gets the bias and residual added ([`finish`]) and is stored
/// exactly once, so output rows are never re-read and each loaded `B` cache
/// line feeds four accumulator rows — eight independent vector FMA chains,
/// which is what covers the FMA latency. Out of line on purpose: inlined
/// into [`Portable`]'s `mul_cols`, LLVM keeps the block as 64 scalars and
/// the product runs about ten times slower.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
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
    let mut store = |r: usize, acc: &mut Lane| {
        let at = r * n + jt;
        finish(acc, bias.map(|b| &b[jt..]), residual.map(|res| &res[at..]));
        o[at..at + LANES].copy_from_slice(acc);
    };
    let Mat { data: ad, base: a0, rs: ars, cs: acs } = a;
    let mut row = 0;
    while row + 4 <= rows {
        let mut acc = [[0.0f32; LANES]; 4];
        for kk in 0..k {
            let ab = a0 + row * ars + kk * acs;
            let av = [ad[ab], ad[ab + ars], ad[ab + 2 * ars], ad[ab + 3 * ars]];
            let br = &bt[kk * bts..kk * bts + LANES];
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
        let mut acc = [0.0f32; LANES];
        for kk in 0..k {
            let av = ad[a0 + row * ars + kk * acs];
            let br = &bt[kk * bts..kk * bts + LANES];
            for (ov, &bv) in acc.iter_mut().zip(br) {
                *ov = av.mul_add(bv, *ov);
            }
        }
        store(row, &mut acc);
        row += 1;
    }
}

/// The AVX-512F half: [`run`]'s `#[target_feature]` entry, the `Zmm` lanes
/// and the raw kernels behind their moves. See the module docs for the
/// safety contract.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod zmm {
    use std::arch::x86_64::*;
    use std::ops::Range;

    use super::{mul_cols_extents, Job, Lane, Lanes, Mat, LANES};
    use crate::fastmath;

    /// Rows per register block: 6 rows × 4 vectors is 24 of the 32 `zmm`
    /// registers in accumulators, beside four `B` vectors and the `A`
    /// broadcast (4 and 5 rows measured alike or slower). Blocks of one or
    /// two vectors — ragged last columns, gathered tiles, the heads — take
    /// [`MR_NARROW`] rows: 8–16 FMA chains cover the latency.
    const MR: usize = 6;
    const MR_NARROW: usize = 8;
    /// Columns per register block: four vectors.
    const NB: usize = 4 * LANES;

    /// `job` with `Zmm` lanes, through [`entry`].
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX-512F.
    pub(super) fn run<J: Job>(job: J) {
        assert!(super::avx512f(), "avx512 kernel selected without AVX-512F");
        // SAFETY: AVX-512F is present (the assert), the one thing a
        // `target_feature` function requires of its caller.
        unsafe { entry(job) }
    }

    /// `job` with `Zmm` lanes, its body compiled for AVX-512F — the one
    /// place a `Zmm` is built.
    #[target_feature(enable = "avx512f")]
    fn entry<J: Job>(job: J) {
        job.on(&Zmm(()))
    }

    /// One `zmm` register per lane vector, each operation its one AVX-512F
    /// instruction (the exponential, [`fastmath::exp`]'s sequence of them),
    /// sixteen rows moved as one 16×16 block in registers ([`transpose16`]),
    /// ragged last columns loaded or stored under a lane mask, and the GEMM
    /// in 6×64 register blocks ([`blocks`]). Only [`run`] builds one, so
    /// holding one proves the CPU has AVX-512F.
    pub(super) struct Zmm(());

    impl Lanes for Zmm {
        type V = __m512;
        const KEYS: usize = 9;

        #[inline(always)]
        fn load(&self, x: &Lane) -> __m512 {
            // SAFETY: a `Zmm` exists; the load reads the sixteen floats of `x`.
            unsafe { _mm512_loadu_ps(x.as_ptr()) }
        }
        #[inline(always)]
        fn store(&self, v: __m512, x: &mut Lane) {
            // SAFETY: a `Zmm` exists; the store writes the sixteen floats of `x`.
            unsafe { _mm512_storeu_ps(x.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn splat(&self, x: f32) -> __m512 {
            // SAFETY: a `Zmm` exists (the CPU has AVX-512F).
            unsafe { _mm512_set1_ps(x) }
        }
        #[inline(always)]
        fn add(&self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_add_ps(a, b) }
        }
        #[inline(always)]
        fn sub(&self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_sub_ps(a, b) }
        }
        #[inline(always)]
        fn mul(&self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_mul_ps(a, b) }
        }
        #[inline(always)]
        fn div(&self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_div_ps(a, b) }
        }
        #[inline(always)]
        fn fma(&self, a: __m512, b: __m512, c: __m512) -> __m512 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_fmadd_ps(a, b, c) }
        }
        #[inline(always)]
        fn keep_max(&self, x: __m512, m: __m512) -> __m512 {
            // `vmaxps` returns its first operand where it compares greater,
            // else its second — NaN included — which is `keep_max`.
            // SAFETY: as in `splat`.
            unsafe { _mm512_max_ps(x, m) }
        }
        #[inline(always)]
        fn sqrt(&self, x: __m512) -> __m512 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_sqrt_ps(x) }
        }
        /// [`fastmath::exp`] operation for operation, but for its last
        /// step (see there). Its `clamp` keeps a NaN, which
        /// `vmaxps`/`vminps` do only with the bound as the first operand:
        /// `max(LO, x)` is `x` unless `LO > x`.
        #[inline(always)]
        fn exp(&self, x: __m512) -> __m512 {
            // SAFETY: as in `splat`.
            unsafe {
                let x = _mm512_min_ps(
                    _mm512_set1_ps(fastmath::EXP_HI),
                    _mm512_max_ps(_mm512_set1_ps(fastmath::EXP_LO), x),
                );
                let magic = _mm512_set1_ps(fastmath::ROUND_MAGIC);
                let shifted = _mm512_fmadd_ps(x, _mm512_set1_ps(fastmath::LOG2E), magic);
                let n = _mm512_sub_ps(shifted, magic);
                let hi = _mm512_fmadd_ps(n, _mm512_set1_ps(-fastmath::LN2_HI), x);
                let r = _mm512_fmadd_ps(n, _mm512_set1_ps(-fastmath::LN2_LO), hi);
                let mut p = _mm512_set1_ps(fastmath::EXP_POLY[0]);
                for &c in &fastmath::EXP_POLY[1..] {
                    p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(c));
                }
                let e_r =
                    _mm512_add_ps(_mm512_fmadd_ps(p, _mm512_mul_ps(r, r), r), _mm512_set1_ps(1.0));
                // `exp` scales `e_r` by `2^⌊n/2⌋` and then by `2^⌈n/2⌉`: the
                // first product is exact (a normal number), so the result is
                // `e_r·2^n` rounded once — what `vscalefps` computes from
                // the integer-valued `n`, overflow to +∞ and NaN included.
                _mm512_scalef_ps(e_r, n)
            }
        }

        #[inline(always)]
        fn gather(
            &self,
            src: &[f32],
            bases: &[usize; LANES],
            rs: usize,
            rows: usize,
            w: usize,
            dst: &mut [Lane],
        ) {
            if rows == 0 || w == 0 {
                return;
            }
            let top = bases.iter().copied().max().unwrap_or(0);
            let end = (rows - 1).checked_mul(rs).and_then(|r| r.checked_add(top)?.checked_add(w));
            assert!(
                end.is_some_and(|e| e <= src.len()),
                "avx512 gather: a row reaches past its slice"
            );
            assert!(
                rows.checked_mul(w).is_some_and(|n| n <= dst.len()),
                "avx512 gather: {rows}×{w} lane vectors exceed the destination"
            );
            // SAFETY: AVX-512F is present (a `Zmm` exists). `gather` reads
            // `src[bases[l] + r·rs + c]` and writes lane vector `r·w + c` of
            // `dst` for `r < rows`, `c < w` only; the asserts put the largest
            // of each inside its slice, and `dst` is borrowed mutably.
            unsafe { gather(src.as_ptr(), bases, rs, rows, w, dst.as_mut_ptr().cast()) }
        }

        #[inline(always)]
        fn scatter(
            &self,
            src: &[Lane],
            w: usize,
            dst: &mut [f32],
            bases: &[usize; LANES],
            live: usize,
        ) {
            let live = live.min(LANES);
            if w == 0 || live == 0 {
                return;
            }
            let top = bases[..live].iter().copied().max().unwrap_or(0);
            assert!(
                top.checked_add(w).is_some_and(|e| e <= dst.len()),
                "avx512 scatter: a row reaches past its slice"
            );
            assert!(w <= src.len(), "avx512 scatter: {w} lane vectors exceed the source");
            // SAFETY: AVX-512F is present (a `Zmm` exists). `scatter` reads
            // lane vectors `c < w` of `src` and writes `dst[bases[l] + c]` for
            // `c < w`, `l < live` only; the asserts put the largest of each
            // inside its slice, and `dst` is borrowed mutably.
            unsafe { scatter(src.as_ptr().cast(), w, dst.as_mut_ptr(), bases, live) }
        }

        #[inline(always)]
        fn weighted_rows<const R: usize>(
            &self,
            p: &[Lane],
            src: &[f32],
            bases: &[usize; LANES],
            rs: usize,
            w: usize,
            dst: &mut [f32],
            at: &[[usize; LANES]; R],
            live: [usize; R],
        ) {
            let (rows, live) = (p.len() / R, live.map(|n| n.min(LANES)));
            let most = live.iter().copied().max().unwrap_or(0);
            if rows == 0 || w == 0 || most == 0 {
                return;
            }
            let top = bases.iter().copied().max().unwrap_or(0);
            let end = (rows - 1).checked_mul(rs).and_then(|r| r.checked_add(top)?.checked_add(w));
            assert!(
                end.is_some_and(|e| e <= src.len()),
                "avx512 rows: a row reaches past its slice"
            );
            for (at, &live) in at.iter().zip(&live) {
                let top = at[..live].iter().copied().max().unwrap_or(0);
                assert!(
                    live == 0 || top.checked_add(w).is_some_and(|e| e <= dst.len()),
                    "avx512 rows: an output row reaches past its slice"
                );
            }
            let (p, src, dst) = (p.as_ptr().cast(), src.as_ptr(), dst.as_mut_ptr());
            // SAFETY: AVX-512F is present (a `Zmm` exists). `weighted_rows`
            // reads lane vectors `j < R·rows` of `p`, `src[bases[l] + j·rs +
            // e]` for every lane and `e < w`, and writes `dst[at[r][l] + e]`
            // for `l < live[r]`, `e < w` only; the asserts put the largest of
            // each inside its slice, and `dst` is borrowed mutably.
            unsafe {
                let run = |n: usize, l0: usize| match n {
                    4 => weighted_rows::<4, R>(p, rows, src, bases, rs, w, dst, at, live, l0),
                    8 => weighted_rows::<8, R>(p, rows, src, bases, rs, w, dst, at, live, l0),
                    _ => weighted_rows::<LANES, 1>(
                        p,
                        rows,
                        src,
                        bases,
                        rs,
                        w,
                        dst,
                        at[..1].try_into().expect("one weight set"),
                        [live[0]],
                        l0,
                    ),
                };
                match most {
                    1..=4 => run(4, 0),
                    5..=8 => run(8, 0),
                    // Sixteen accumulators per weight set fill the
                    // registers at one set; two sets take the lanes in
                    // halves.
                    _ if R == 1 => run(LANES, 0),
                    _ => {
                        run(8, 0);
                        run(8, 8);
                    }
                }
            }
        }

        /// Every `(rows, cols)` block through [`blocks`], whose last vector
        /// per row is loaded and stored under a lane mask, so there is no
        /// scalar column tail. Counts its calls as `dispatch/matmul_avx512`.
        fn mul_cols(
            &self,
            o: &mut [f32],
            n: usize,
            cols: Range<usize>,
            a: Mat,
            b: Mat,
            rows: usize,
            k: usize,
            bias: Option<&[f32]>,
            residual: Option<&[f32]>,
        ) {
            if !mul_cols_extents(o, n, &cols, &a, &b, rows, k, bias, residual) {
                return;
            }
            crate::metrics::counter_add("dispatch/matmul_avx512", 1);
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
            // SAFETY: AVX-512F is present (a `Zmm` exists). `blocks` reads
            // `a[r·ars + kk·acs]`, `b[kk·brs + j]`, `bias[c]`, `residual[i]`
            // and writes `o[i]`, with `c = cols.start + j`, `i = r·n + c`, for
            // `r < rows`, `kk < k`, `j < cols.len()` only; `mul_cols_extents`
            // put the largest of each inside its slice, strides are unsigned
            // so every other index is smaller, and `o` is borrowed mutably so
            // nothing else aliases the writes.
            unsafe { blocks(p, rows, cols.len()) }
        }
    }

    /// [`Lanes::weighted_rows`] on raw pointers, for lanes `l0..l0 + N` of
    /// `R` weight sets: per sixteen columns, `R·N` accumulators in
    /// registers, and per row `j` one masked load of each lane's row `j`,
    /// then for each set a broadcast of the lane's weight and a fused
    /// multiply-add.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F, `l0 + N <= 16` and `live[r] <= 16`.
    /// `p.add((r * rows + j) * LANES + l)` and `src.add(bases[l] + j * rs +
    /// e)` must be readable for `r < R`, `j < rows`, `l0 <= l < l0 + N`,
    /// `e < w`, and `dst.add(at[r][l] + e)` writable for `l < live[r]`,
    /// `e < w`; nothing else is dereferenced.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn weighted_rows<const N: usize, const R: usize>(
        p: *const f32,
        rows: usize,
        src: *const f32,
        bases: &[usize; LANES],
        rs: usize,
        w: usize,
        dst: *mut f32,
        at: &[[usize; LANES]; R],
        live: [usize; R],
        l0: usize,
    ) {
        for e0 in (0..w).step_by(LANES) {
            let cw = LANES.min(w - e0);
            let mask: __mmask16 = u16::MAX >> (LANES - cw);
            let mut acc = [[_mm512_setzero_ps(); N]; R];
            for j in 0..rows {
                for i in 0..N {
                    let l = l0 + i;
                    // SAFETY: lane `e` of the load is `src[bases[l] + j·rs +
                    // e0 + e]`, enabled only for `e0 + e < w`; then weight
                    // `j` of lane `l` in each set.
                    unsafe {
                        let x = _mm512_maskz_loadu_ps(mask, src.add(bases[l] + j * rs + e0));
                        for (r, acc) in acc.iter_mut().enumerate() {
                            let pj = _mm512_set1_ps(*p.add((r * rows + j) * LANES + l));
                            acc[i] = _mm512_fmadd_ps(pj, x, acc[i]);
                        }
                    }
                }
            }
            for ((acc, at), &live) in acc.iter().zip(at).zip(&live) {
                for (i, &a) in acc.iter().enumerate() {
                    let l = l0 + i;
                    let lanes = if l < live { mask } else { 0 };
                    // SAFETY: lane `e` of this store is `dst[at[l] + e0 +
                    // e]`, stored only for `e0 + e < w` and `l < live`.
                    unsafe { _mm512_mask_storeu_ps(dst.wrapping_add(at[l] + e0), lanes, a) };
                }
            }
        }
    }

    /// [`Lanes::gather`] on raw pointers: per source row and sixteen
    /// columns, sixteen masked row loads, [`transpose16`], and one masked
    /// store per column. Every loop runs all sixteen vectors, a mask
    /// switching off what is past the extents: the vectors stay in registers
    /// (a loop bounded by the ragged count makes LLVM spill them and call
    /// `memcpy`).
    ///
    /// # Safety
    ///
    /// Requires AVX-512F. `src.add(bases[l] + r * rs + c)` must be readable
    /// and `dst.add((r * w + c) * LANES + l)` writable for every lane `l`,
    /// `r < rows`, `c < w`; nothing else is dereferenced.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn gather(
        src: *const f32,
        bases: &[usize; LANES],
        rs: usize,
        rows: usize,
        w: usize,
        dst: *mut f32,
    ) {
        for r in 0..rows {
            for c0 in (0..w).step_by(LANES) {
                let cw = LANES.min(w - c0);
                let mask: __mmask16 = u16::MAX >> (LANES - cw);
                let mut v = [_mm512_setzero_ps(); LANES];
                for (x, &base) in v.iter_mut().zip(bases) {
                    // SAFETY: lane `c` of this load is `src[base + r·rs + c0
                    // + c]`, enabled only for `c0 + c < w`.
                    *x = unsafe { _mm512_maskz_loadu_ps(mask, src.add(base + r * rs + c0)) };
                }
                transpose16(&mut v);
                let at = dst.wrapping_add((r * w + c0) * LANES);
                for (c, &x) in v.iter().enumerate() {
                    let to = at.wrapping_add(c * LANES);
                    // SAFETY: lane vector `r·w + c0 + c` of `dst`, stored
                    // only for `c0 + c < w`.
                    unsafe {
                        if cw == LANES {
                            _mm512_storeu_ps(to, x);
                        } else {
                            _mm512_mask_storeu_ps(to, if c < cw { u16::MAX } else { 0 }, x);
                        }
                    }
                }
            }
        }
    }

    /// [`Lanes::scatter`] on raw pointers: per sixteen columns, one masked
    /// load per column, [`transpose16`], and one masked store per lane,
    /// every loop over all sixteen vectors as in [`gather`].
    ///
    /// # Safety
    ///
    /// Requires AVX-512F, `live <= 16`. `src.add(c * LANES + l)` must be
    /// readable for every lane `l` and `c < w`, and `dst.add(bases[l] + c)`
    /// writable for `l < live`, `c < w`; nothing else is dereferenced.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn scatter(
        src: *const f32,
        w: usize,
        dst: *mut f32,
        bases: &[usize; LANES],
        live: usize,
    ) {
        for c0 in (0..w).step_by(LANES) {
            let cw = LANES.min(w - c0);
            let mask: __mmask16 = u16::MAX >> (LANES - cw);
            let mut v = [_mm512_setzero_ps(); LANES];
            let at = src.wrapping_add(c0 * LANES);
            for (c, x) in v.iter_mut().enumerate() {
                let from = at.wrapping_add(c * LANES);
                // SAFETY: lane vector `c0 + c` of `src`, loaded only for
                // `c0 + c < w`.
                *x = unsafe {
                    if cw == LANES {
                        _mm512_loadu_ps(from)
                    } else {
                        _mm512_maskz_loadu_ps(if c < cw { u16::MAX } else { 0 }, from)
                    }
                };
            }
            transpose16(&mut v);
            for (l, (&x, &base)) in v.iter().zip(bases).enumerate() {
                let to = dst.wrapping_add(base + c0);
                // SAFETY: lane `c` of this store is `dst[base + c0 + c]`,
                // stored only for `c0 + c < w` and `l < live`.
                unsafe {
                    if cw == LANES && live == LANES {
                        _mm512_storeu_ps(to, x);
                    } else {
                        _mm512_mask_storeu_ps(to, if l < live { mask } else { 0 }, x);
                    }
                }
            }
        }
    }

    /// Lane `l` of `v[c]` becomes lane `c` of `v[l]`: a 16×16 transpose in
    /// registers — 32- then 64-bit unpacks within each 128-bit lane, which
    /// leave `t[4g + i]`'s 128-bit lane `k` holding column `4k + i` of rows
    /// `4g..4g + 4`, then two rounds of 128-bit shuffles.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose16(v: &mut [__m512; LANES]) {
        let mut t = [_mm512_setzero_ps(); LANES];
        for g in 0..4 {
            let r = &v[4 * g..4 * g + 4];
            let (pd, ps) = (_mm512_castps_pd, _mm512_castpd_ps);
            let (lo01, hi01) =
                (pd(_mm512_unpacklo_ps(r[0], r[1])), pd(_mm512_unpackhi_ps(r[0], r[1])));
            let (lo23, hi23) =
                (pd(_mm512_unpacklo_ps(r[2], r[3])), pd(_mm512_unpackhi_ps(r[2], r[3])));
            t[4 * g] = ps(_mm512_unpacklo_pd(lo01, lo23));
            t[4 * g + 1] = ps(_mm512_unpackhi_pd(lo01, lo23));
            t[4 * g + 2] = ps(_mm512_unpacklo_pd(hi01, hi23));
            t[4 * g + 3] = ps(_mm512_unpackhi_pd(hi01, hi23));
        }
        for i in 0..4 {
            // 128-bit lanes 0 and 1 (then 2 and 3) of row groups 0 and 1,
            // and of row groups 2 and 3 …
            let a = _mm512_shuffle_f32x4::<0x44>(t[i], t[4 + i]);
            let b = _mm512_shuffle_f32x4::<0xEE>(t[i], t[4 + i]);
            let c = _mm512_shuffle_f32x4::<0x44>(t[8 + i], t[12 + i]);
            let d = _mm512_shuffle_f32x4::<0xEE>(t[8 + i], t[12 + i]);
            // … interleaved into column `4k + i` of all sixteen rows.
            v[i] = _mm512_shuffle_f32x4::<0x88>(a, c);
            v[4 + i] = _mm512_shuffle_f32x4::<0xDD>(a, c);
            v[8 + i] = _mm512_shuffle_f32x4::<0x88>(b, d);
            v[12 + i] = _mm512_shuffle_f32x4::<0xDD>(b, d);
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Gather,
        Scatter,
        WeightedRows,
        MulCols,
    }

    /// One cell of [`every_move_asserts_its_extents_before_touching_memory`]
    /// as a [`Job`]: `op` on `bufs`, the operands [`operands`] lists.
    struct Cell<'a> {
        op: Op,
        bufs: &'a mut [Vec<f32>],
    }

    impl Job for Cell<'_> {
        #[inline(always)]
        fn on<L: Lanes>(self, v: &L) {
            let bases = std::array::from_fn(|l| l * 24);
            match (self.op, self.bufs) {
                (Op::Gather, [src, dst]) => v.gather(src, &bases, 20, 3, 17, dst.as_chunks_mut().0),
                (Op::Scatter, [src, dst]) => v.scatter(src.as_chunks().0, 17, dst, &bases, LANES),
                (Op::WeightedRows, [p, src, dst]) => {
                    let at = std::array::from_fn(|r| std::array::from_fn(|l| (r * LANES + l) * 17));
                    v.weighted_rows::<2>(p.as_chunks().0, src, &bases, 20, 17, dst, &at, [LANES; 2])
                }
                (Op::MulCols, [a, b, o, bias, res]) => {
                    let a = Mat { data: a, base: 0, rs: 20, cs: 1 };
                    let b = Mat { data: b, base: 0, rs: 35, cs: 1 };
                    v.mul_cols(o, 35, 0..35, a, b, 9, 20, Some(bias), Some(res))
                }
                (op, bufs) => unreachable!("{op:?} takes no {} operands", bufs.len()),
            }
        }
    }

    /// `op`'s operands as `(exact length, shortfall, fill, the assert a
    /// short one fires)`, and which one is the output: sixteen lanes whose
    /// rows start 24 elements apart, 20 between a lane's rows, 17 columns;
    /// the GEMM a 9×20 by 20×35 product plus a bias and a residual.
    #[allow(clippy::type_complexity)]
    fn operands(op: Op) -> (Vec<(usize, usize, fn(usize) -> f32, &'static str)>, usize) {
        let index = |x: usize| x as f32;
        let out = |_| f32::from_bits(0x7fc0_1234);
        match op {
            Op::Gather => (
                vec![
                    (2 * 20 + 15 * 24 + 17, 1, index, "gather: a row reaches past its slice"),
                    (
                        3 * 17 * LANES,
                        LANES,
                        out,
                        "gather: 3×17 lane vectors exceed the destination",
                    ),
                ],
                1,
            ),
            Op::Scatter => (
                vec![
                    (17 * LANES, LANES, index, "scatter: 17 lane vectors exceed the source"),
                    (15 * 24 + 17, 1, out, "scatter: a row reaches past its slice"),
                ],
                1,
            ),
            Op::WeightedRows => (
                vec![
                    (2 * 5 * LANES, 0, |x| (x % 7) as f32 / 8.0, ""),
                    (4 * 20 + 15 * 24 + 17, 1, index, "rows: a row reaches past its slice"),
                    (32 * 17, 1, out, "rows: an output row reaches past its slice"),
                ],
                2,
            ),
            Op::MulCols => (
                vec![
                    (9 * 20, 1, |_| 1.0, "A[9, 20] reaches past its slice"),
                    (20 * 35, 1, |_| 1.0, "B[20, 35] reaches past its slice"),
                    (9 * 35, 1, out, "exceed the output slice"),
                    (35, 1, |_| 0.5, "the bias does not cover columns 0..35"),
                    (9 * 35, 35, |_| 0.25, "the residual is not laid out like the output slice"),
                ],
                2,
            ),
        }
    }

    /// Each bulk move of each lane type, given one operand one element (a
    /// lane vector, the residual a row) short, must panic. `Zmm`'s moves and
    /// both GEMM kernels panic in their extent asserts, before the `unsafe`
    /// block and before anything is read or written: the output keeps its
    /// fill. `Portable`'s moves are safe code and panic at the first index
    /// past a slice, having touched nothing outside them. Given exact
    /// buffers, both kernels move the same bits. The `Zmm` cells are vacuous
    /// without AVX-512F, where only the portable kernel is available.
    #[test]
    fn every_move_asserts_its_extents_before_touching_memory() {
        for op in [Op::Gather, Op::Scatter, Op::WeightedRows, Op::MulCols] {
            let (operands, out) = operands(op);
            let mut exact = Vec::new();
            for &kernel in Kernel::available() {
                let shortable = (0..operands.len()).filter(|&i| operands[i].1 > 0);
                for short in shortable.map(Some).chain([None]) {
                    let mut bufs: Vec<Vec<f32>> = operands
                        .iter()
                        .enumerate()
                        .map(|(i, &(len, less, fill, _))| {
                            (0..len - if short == Some(i) { less } else { 0 }).map(fill).collect()
                        })
                        .collect();
                    let fill = bufs[out].clone();
                    let got = catch_unwind(AssertUnwindSafe(|| {
                        KERNEL.with(kernel, || run(Cell { op, bufs: &mut bufs }))
                    }));
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let Some(i) = short else {
                        assert!(got.is_ok(), "{kernel} {op:?} rejected exact buffers");
                        exact.push(bits(&bufs[out]));
                        continue;
                    };
                    let err = got.expect_err("a short operand must panic");
                    if kernel == Kernel::Portable && !matches!(op, Op::MulCols) {
                        continue;
                    }
                    let msg = err
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| err.downcast_ref::<&str>().copied())
                        .unwrap_or_default();
                    assert!(msg.contains(operands[i].3), "{kernel} {op:?} operand {i}: {msg}");
                    assert_eq!(bits(&bufs[out]), bits(&fill), "{kernel} {op:?} wrote first");
                }
            }
            assert!(exact.windows(2).all(|w| w[0] == w[1]), "{op:?}: the kernels differ");
            if let Op::MulCols = op {
                assert!(exact[0].iter().all(|&v| v == (20.0f32 + 0.75).to_bits()));
            }
        }
    }

    /// [`Lanes::exp`] over whole lane vectors in place, as a [`Job`].
    struct Exp<'a>(&'a mut [Lane]);

    impl Job for Exp<'_> {
        #[inline(always)]
        fn on<L: Lanes>(self, v: &L) {
            for x in self.0 {
                v.store(v.exp(v.load(x)), x);
            }
        }
    }

    /// The `zmm` exponential against [`fastmath::exp`] — the one lane
    /// operation that is a sequence of instructions, its last step a
    /// different one (`vscalefps`) — on every `f32` bit pattern, NaN
    /// payloads included. Vacuous without AVX-512F.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "2^32 inputs: run at --release, as scripts/check.sh does"
    )]
    fn the_zmm_exp_matches_fastmath_exp_on_every_input() {
        if !avx512f() {
            return;
        }
        const CHUNK: u32 = 1 << 16;
        let mut lanes = vec![[0.0f32; LANES]; CHUNK as usize / LANES];
        for base in (0..=u32::MAX - (CHUNK - 1)).step_by(CHUNK as usize) {
            for (x, bits) in lanes.as_flattened_mut().iter_mut().zip(base..) {
                *x = f32::from_bits(bits);
            }
            KERNEL.with(Kernel::Avx512, || run(Exp(&mut lanes)));
            for (&got, bits) in lanes.as_flattened().iter().zip(base..) {
                let want = fastmath::exp(f32::from_bits(bits));
                assert_eq!(got.to_bits(), want.to_bits(), "exp({bits:#010x})");
            }
        }
    }
}
