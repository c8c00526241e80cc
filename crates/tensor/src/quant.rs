//! Per-channel symmetric int8 weight quantization and the packed i8 GEMM.
//! No model layer calls it: the benchmark's `tensor.q8_gemm_68x64x128`
//! per-layer metric is its one caller outside this crate.
//!
//! # Scheme
//!
//! Weights quantize **per output channel** (per column `j` of a `[k, n]`
//! matrix): `scale[j] = max_k |w[k, j]| / 127`, `q[k, j] =
//! round_ties_even(w[k, j] / scale[j])` in `[-127, 127]`. Activations
//! quantize **per row** at call time with the same symmetric rule, so a
//! row's quantized form depends only on that row — the property that keeps
//! quantized linear layers row-wise and therefore lets the streaming
//! KV-prefix reuse of PR 6 stay bit-identical under int8.
//!
//! The product accumulates in `i32` — exactly, since `|q| ≤ 127` bounds
//! every partial sum by `127² · k`, far inside `i32` for any model shape —
//! and dequantizes once per output element at the panel boundary:
//! `out[i, j] = fma(acc as f32, sa[i] · sb[j], bias[j])`. Exact integer
//! accumulation is what makes the kernel deterministic: both code paths
//! (scalar, AVX2) produce identical accumulators, so int8 results are
//! bit-identical between them by construction.
//!
//! # Panel layout
//!
//! `B` packs once at [`QuantMatrix::quantize`] time into BLIS-style column
//! tiles (`NR = 16` columns per tile), **pair-interleaved** along `k` for
//! the `pmaddwd` kernel:
//! tile element order is `[k/2][half][8 columns][2 k-consecutive values]`,
//! so one 16-lane `i16` vector load yields eight columns' `k`-pairs and
//! `_mm256_madd_epi16` contracts each pair into an `i32` lane. Panels
//! store `i8` (the weight-side memory-traffic win) and widen to a
//! L1-resident `i16` tile per column block inside the kernel.
//!
//! # Unsafe policy
//!
//! LLVM does not form integer dot-product instructions (`vpmaddwd`,
//! `vpdpwssd`) from safe scalar loops — measured here, every safe
//! formulation of this kernel emits `vpmulld`+`vpaddd` at roughly half the
//! f32 FMA path's throughput. The micro-kernels in `simd` are therefore
//! one of the crate's two `#[allow(unsafe_code)]` islands (the other is the
//! AVX-512 f32 kernel in `ops::matmul`; the crate is otherwise
//! `deny(unsafe_code)`): raw loads/stores over slices whose
//! bounds are checked at the call boundary, with a safe scalar
//! reference implementation asserted bit-identical by the quant proptests
//! (and used on non-x86_64 targets or when AVX2 is absent).
//!
//! # Observability
//!
//! [`linear_q8`] runs under an `op/matmul_i8` span, counts quantized and
//! dequantized rows into `quant/quant_rows` / `quant/dequant_rows`, and
//! bumps `dispatch/matmul_i8` (an f32 product counts
//! `dispatch/matmul_avx512` when it ran on the AVX-512 kernel), so the
//! `profile` binary can print the precision dispatch mix.

use std::cell::RefCell;

use crate::{metrics, workspace, Tensor};

/// Micro-kernel height.
const MR: usize = 6;
/// Column-tile width: two halves of eight columns, each half one 16-lane
/// `i16` vector of `k`-pairs.
const NR: usize = 16;
/// Symmetric int8 range bound. `-128` is excluded so negation stays in
/// range and the scheme is symmetric around zero.
const QMAX: f32 = 127.0;

/// A weight matrix quantized per output channel and prepacked into
/// pair-interleaved int8 column tiles, ready for [`linear_q8`].
///
/// Quantize once (at model-quantization time), multiply many times:
/// steady-state inference never re-quantizes or re-packs weights.
///
/// # Examples
///
/// ```
/// use tsdx_tensor::{quant::QuantMatrix, Tensor};
/// let w = Tensor::from_vec(vec![0.5, -1.0, 0.25, 2.0], &[2, 2]);
/// let q = QuantMatrix::quantize(&w);
/// let dq = q.dequantize();
/// // Round-trip error is bounded by half a quantization step per channel.
/// for j in 0..2 {
///     for k in 0..2 {
///         assert!((w.at(&[k, j]) - dq.at(&[k, j])).abs() <= q.scales()[j] / 2.0 + 1e-6);
///     }
/// }
/// ```
#[derive(Clone)]
pub struct QuantMatrix {
    k: usize,
    n: usize,
    /// Per-column scales, zero-padded to `njt * NR` so the epilogue can
    /// load full vectors on the tail tile.
    scales: Vec<f32>,
    /// Pair-interleaved `[jt][k2][half][8][2]` int8 tiles, zero-padded in
    /// both the column tail and the odd-`k` pad position.
    panels: Vec<i8>,
}

impl std::fmt::Debug for QuantMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantMatrix")
            .field("k", &self.k)
            .field("n", &self.n)
            .field("packed_bytes", &self.packed_bytes())
            .finish()
    }
}

impl QuantMatrix {
    /// Quantizes a rank-2 `[k, n]` weight tensor (views are read through
    /// their strides).
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 2 or has a zero dimension.
    pub fn quantize(w: &Tensor) -> QuantMatrix {
        assert_eq!(w.rank(), 2, "QuantMatrix::quantize expects [k, n], got {:?}", w.shape());
        let (k, n) = (w.shape()[0], w.shape()[1]);
        assert!(k > 0 && n > 0, "cannot quantize an empty matrix {:?}", w.shape());
        let wc = w.contiguous();
        let wd = wc.data();
        let njt = n.div_ceil(NR);
        let k2 = k.div_ceil(2);
        let mut scales = vec![0f32; njt * NR];
        let mut panels = vec![0i8; njt * k2 * 2 * NR];
        for j in 0..n {
            let mut amax = 0f32;
            for kk in 0..k {
                amax = amax.max(wd[kk * n + j].abs());
            }
            let (scale, inv) = if amax > 0.0 { (amax / QMAX, QMAX / amax) } else { (0.0, 0.0) };
            scales[j] = scale;
            let (jt, jc) = (j / NR, j % NR);
            let tile = &mut panels[jt * k2 * 2 * NR..(jt + 1) * k2 * 2 * NR];
            for kk in 0..k {
                let q = (wd[kk * n + j] * inv).round_ties_even().clamp(-QMAX, QMAX) as i8;
                tile[(kk / 2) * 2 * NR + (jc / 8) * 16 + (jc % 8) * 2 + (kk & 1)] = q;
            }
        }
        QuantMatrix { k, n, scales, panels }
    }

    /// Input width (`k`, rows of the original matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width (`n`, columns / quantization channels).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-output-channel scales (`n` entries).
    pub fn scales(&self) -> &[f32] {
        &self.scales[..self.n]
    }

    /// Bytes held by the packed panels plus scales.
    pub fn packed_bytes(&self) -> usize {
        self.panels.len() + self.scales.len() * 4
    }

    /// Reconstructs the `[k, n]` f32 matrix `q[k, j] · scale[j]`.
    ///
    /// The reconstruction differs from the original by at most
    /// [`QuantMatrix::error_bound`] per element of the worst channel
    /// (`scale[j] / 2` per element of channel `j`).
    pub fn dequantize(&self) -> Tensor {
        let (k, n) = (self.k, self.n);
        let mut out = vec![0f32; k * n];
        for j in 0..n {
            let jt = j / NR;
            let jc = j % NR;
            let tile = &self.panels[jt * self.tile_len()..];
            let s = self.scales[j];
            for kk in 0..k {
                let q = tile[(kk / 2) * 2 * NR + (jc / 8) * 16 + (jc % 8) * 2 + (kk & 1)];
                out[kk * n + j] = q as f32 * s;
            }
        }
        Tensor::from_vec(out, &[k, n])
    }

    /// Worst-case per-element round-trip error: `max_j scale[j] / 2`.
    pub fn error_bound(&self) -> f32 {
        self.scales.iter().fold(0f32, |a, &s| a.max(s)) / 2.0
    }

    fn tile_len(&self) -> usize {
        self.k.div_ceil(2) * 2 * NR
    }
}

thread_local! {
    /// Per-thread quantized-activation scratch (`i16` rows, row scales)
    /// and widened B-tile scratch, recycled across calls so steady-state
    /// int8 inference performs no heap allocation beyond the output
    /// buffer (which comes from the workspace arena like every kernel).
    static SCRATCH: RefCell<(Vec<i16>, Vec<f32>, Vec<i16>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Quantized affine map `out = a @ dequant(w) + bias` with per-row dynamic
/// activation quantization (`[.., k] @ [k, n] -> [.., n]`).
///
/// `a` may have any rank ≥ 1 with last dimension `w.k()`; leading
/// dimensions are batch dimensions. `bias`, when present, must be `[n]`.
/// The result is bit-identical for the scalar and SIMD kernels (integer
/// accumulation is exact; the dequant epilogue uses fused multiply-add on
/// both paths).
///
/// # Panics
///
/// Panics on a shape mismatch.
///
/// # Examples
///
/// ```
/// use tsdx_tensor::{ops, quant, Tensor};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let w = Tensor::from_vec(vec![0.5, -0.5, 1.0, 0.25], &[2, 2]);
/// let q = quant::QuantMatrix::quantize(&w);
/// let exact = ops::matmul(&a, &q.dequantize());
/// let approx = quant::linear_q8(&a, &q, None);
/// assert!(exact.allclose(&approx, 0.05));
/// ```
pub fn linear_q8(a: &Tensor, w: &QuantMatrix, bias: Option<&Tensor>) -> Tensor {
    let _span = metrics::span("op/matmul_i8");
    let ash = crate::shape::Dims::new(a.shape());
    let k = *ash.last().unwrap_or_else(|| panic!("linear_q8 input must have rank >= 1"));
    assert_eq!(k, w.k(), "linear_q8 inner dims: {ash:?} @ [{}, {}]", w.k(), w.n());
    let n = w.n();
    if let Some(b) = bias {
        assert_eq!(b.shape(), [n], "linear_q8 bias must be [{n}], got {:?}", b.shape());
    }
    let m = a.numel() / k;
    let mut out_shape = ash;
    *out_shape.last_mut().unwrap() = n;
    if m == 0 {
        return Tensor::from_vec(Vec::new(), &out_shape);
    }
    metrics::counter_add("dispatch/matmul_i8", 1);
    metrics::counter_add("quant/quant_rows", m as u64);
    metrics::counter_add("quant/dequant_rows", m as u64);

    // Borrowed when the operands are dense.
    let (ad, bd) = (a.flat(), bias.map(Tensor::flat));
    let mut out = workspace::take_uninit(m * n);
    q8_rows(&mut out, &ad, k, w, bd.as_deref());
    Tensor::from_vec(out, &out_shape)
}

/// [`linear_q8`] without a bias term: the quantized matrix product.
pub fn matmul_q8(a: &Tensor, w: &QuantMatrix) -> Tensor {
    linear_q8(a, w, None)
}

/// Computes every output row of the dense `[m, k]` activations `a`,
/// quantizing them into thread-local scratch and widening B tiles there.
fn q8_rows(out: &mut [f32], a: &[f32], k: usize, w: &QuantMatrix, bias_d: Option<&[f32]>) {
    let n = w.n();
    let rows = out.len() / n;
    let ad = &a[..rows * k];
    let kp = k.next_multiple_of(2);
    let k2 = kp / 2;
    let mp = rows.div_ceil(MR);
    let njt = n.div_ceil(NR);
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let (qa, sa, bt) = &mut *s;
        qa.clear();
        qa.resize(mp * MR * kp, 0);
        sa.clear();
        sa.resize(mp * MR, 0.0);
        bt.clear();
        bt.resize(k2 * 2 * NR, 0);
        simd::quant_rows(ad, qa, sa, rows, k, kp);
        for jt in 0..njt {
            let tile8 = &w.panels[jt * w.tile_len()..(jt + 1) * w.tile_len()];
            for (wide, &narrow) in bt.iter_mut().zip(tile8) {
                *wide = narrow as i16;
            }
            let j0 = jt * NR;
            let jn = NR.min(n - j0);
            let sb = &w.scales[j0..j0 + NR];
            for p in 0..mp {
                let rv = MR.min(rows - p * MR);
                let acc = simd::micro_kernel(&qa[p * MR * kp..], kp, bt, k2);
                for r in 0..rv {
                    let orow = &mut out[(p * MR + r) * n..];
                    if jn == NR {
                        simd::dequant_row(
                            &acc[r],
                            sa[p * MR + r],
                            sb,
                            bias_d.map(|b| &b[j0..]),
                            &mut orow[j0..j0 + NR],
                        );
                    } else {
                        let mut tmp = [0f32; NR];
                        let mut btail = [0f32; NR];
                        if let Some(b) = bias_d {
                            btail[..jn].copy_from_slice(&b[j0..j0 + jn]);
                        }
                        simd::dequant_row(
                            &acc[r],
                            sa[p * MR + r],
                            sb,
                            bias_d.map(|_| &btail[..]),
                            &mut tmp,
                        );
                        orow[j0..j0 + jn].copy_from_slice(&tmp[..jn]);
                    }
                }
            }
        }
    });
}

/// Scalar reference + AVX2 micro-kernels, an `#[allow(unsafe_code)]`
/// region of the crate — see the module docs for the policy and the
/// bit-parity contract tying the two implementations together.
mod simd {
    use super::{MR, NR, QMAX};

    fn use_simd() -> bool {
        crate::cpu::avx2() && crate::dial::I8_SIMD.get()
    }

    /// Quantizes `rows` rows of `a` (row length `k`) into `i16` rows of
    /// stride `kp`, recording the per-row scale. Rows beyond `rows` and
    /// the `k..kp` pad stay zero (callers pre-zero the buffers).
    #[allow(unsafe_code)] // dispatch into the audited AVX2 kernel below
    pub(super) fn quant_rows(
        a: &[f32],
        qa: &mut [i16],
        sa: &mut [f32],
        rows: usize,
        k: usize,
        kp: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if use_simd() {
            // SAFETY (bounds): `a` holds `rows * k` elements, `qa` holds
            // `>= rows * kp` and `sa >= rows` (sized by the caller).
            unsafe { quant_rows_avx2(a, qa, sa, rows, k, kp) };
            return;
        }
        for i in 0..rows {
            let row = &a[i * k..(i + 1) * k];
            let amax = row.iter().fold(0f32, |x, &v| x.max(v.abs()));
            let (scale, inv) = if amax > 0.0 { (amax / QMAX, QMAX / amax) } else { (0.0, 0.0) };
            sa[i] = scale;
            let q = &mut qa[i * kp..(i + 1) * kp];
            for kk in 0..k {
                q[kk] = (row[kk] * inv).round_ties_even() as i16;
            }
        }
    }

    /// `MR`×`NR` i8 GEMM micro-kernel: `qa` rows (stride `kp`, `i16`,
    /// zero-padded) against a pair-interleaved B tile, exact `i32`
    /// accumulation over `k2` k-pairs.
    #[allow(unsafe_code)] // dispatch into the audited AVX2 kernel below
    pub(super) fn micro_kernel(qa: &[i16], kp: usize, bt: &[i16], k2: usize) -> [[i32; NR]; MR] {
        #[cfg(target_arch = "x86_64")]
        if use_simd() {
            debug_assert!(qa.len() >= (MR - 1) * kp + k2 * 2 && bt.len() >= k2 * 2 * NR);
            // SAFETY (bounds): checked above; the kernel reads exactly
            // `MR` rows of `k2` i32-aliased i16 pairs from `qa` and
            // `k2 * 2 * NR` i16 from `bt`.
            return unsafe { micro_avx2(qa.as_ptr(), kp, bt.as_ptr(), k2) };
        }
        let mut acc = [[0i32; NR]; MR];
        for kk in 0..k2 {
            let bpair = &bt[kk * 2 * NR..(kk + 1) * 2 * NR];
            for (r, arow) in acc.iter_mut().enumerate() {
                let a0 = qa[r * kp + kk * 2] as i32;
                let a1 = qa[r * kp + kk * 2 + 1] as i32;
                for (j, ov) in arow.iter_mut().enumerate() {
                    let b0 = bpair[(j / 8) * 16 + (j % 8) * 2] as i32;
                    let b1 = bpair[(j / 8) * 16 + (j % 8) * 2 + 1] as i32;
                    *ov += a0 * b0 + a1 * b1;
                }
            }
        }
        acc
    }

    /// Dequant epilogue for one row of one column tile:
    /// `out[j] = fma(acc[j] as f32, srow · sb[j], bias[j])`.
    #[allow(unsafe_code)] // dispatch into the audited AVX2 kernel below
    pub(super) fn dequant_row(
        acc: &[i32; NR],
        srow: f32,
        sb: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if use_simd() {
            debug_assert!(sb.len() >= NR && out.len() >= NR);
            // SAFETY (bounds): `acc` is exactly NR, `sb`/`out` checked
            // above, `bias` when present is at least NR (caller pads the
            // tail tile).
            unsafe {
                dequant_row_avx2(acc, srow, sb.as_ptr(), bias.map(|b| b.as_ptr()), out.as_mut_ptr())
            };
            return;
        }
        for j in 0..NR {
            let s = srow * sb[j];
            let b = bias.map_or(0.0, |b| b[j]);
            out[j] = (acc[j] as f32).mul_add(s, b);
        }
    }

    // ----- AVX2 implementations -----
    //
    // Scoped exception to the crate-wide `deny(unsafe_code)`: LLVM will
    // not synthesize `vpmaddwd` from safe scalar loops (measured ~0.5x
    // the f32 FMA path), so the int8 plane's entire speedup lives in
    // these three functions. Every pointer access is bounded by the
    // slice-length checks at the call sites above, and the quant
    // proptests pin each function bit-identical to its scalar reference.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    mod kernels {
        use super::{MR, NR, QMAX};
        use std::arch::x86_64::*;

        /// # Safety
        ///
        /// Requires AVX2. `a` must hold `rows * k` elements, `qa` at
        /// least `rows * kp` and `sa` at least `rows`; `kp >= k`.
        #[target_feature(enable = "avx2")]
        #[allow(clippy::needless_range_loop)] // row index drives raw-pointer strides
        pub(super) unsafe fn quant_rows_avx2(
            a: &[f32],
            qa: &mut [i16],
            sa: &mut [f32],
            rows: usize,
            k: usize,
            kp: usize,
        ) {
            unsafe {
                let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
                for i in 0..rows {
                    let row = a.as_ptr().add(i * k);
                    let mut vmax = _mm256_setzero_ps();
                    let mut kk = 0;
                    while kk + 8 <= k {
                        let v = _mm256_loadu_ps(row.add(kk));
                        vmax = _mm256_max_ps(vmax, _mm256_and_ps(v, absmask));
                        kk += 8;
                    }
                    let mut lanes = [0f32; 8];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), vmax);
                    let mut amax = lanes.iter().fold(0f32, |x, &b| x.max(b));
                    while kk < k {
                        amax = amax.max((*row.add(kk)).abs());
                        kk += 1;
                    }
                    let (scale, inv) =
                        if amax > 0.0 { (amax / QMAX, QMAX / amax) } else { (0.0, 0.0) };
                    sa[i] = scale;
                    let vinv = _mm256_set1_ps(inv);
                    let q = qa.as_mut_ptr().add(i * kp);
                    let mut kk = 0;
                    while kk + 16 <= k {
                        // cvtps2dq rounds to nearest-even under the
                        // default MXCSR — same rule as the scalar
                        // `round_ties_even` reference.
                        let v0 =
                            _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(row.add(kk)), vinv));
                        let v1 = _mm256_cvtps_epi32(_mm256_mul_ps(
                            _mm256_loadu_ps(row.add(kk + 8)),
                            vinv,
                        ));
                        let packed =
                            _mm256_permute4x64_epi64(_mm256_packs_epi32(v0, v1), 0b11011000);
                        _mm256_storeu_si256(q.add(kk).cast(), packed);
                        kk += 16;
                    }
                    while kk < k {
                        *q.add(kk) = (*row.add(kk) * inv).round_ties_even() as i16;
                        kk += 1;
                    }
                }
            }
        }

        /// # Safety
        ///
        /// Requires AVX2. `qa` must hold `MR` rows of stride `kp` with at
        /// least `k2 * 2` valid i16 each (i32-aligned pair reads use
        /// `read_unaligned`, so no alignment requirement); `bt` must hold
        /// `k2 * 2 * NR` i16.
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn micro_avx2(
            qa: *const i16,
            kp: usize,
            bt: *const i16,
            k2: usize,
        ) -> [[i32; NR]; MR] {
            unsafe {
                let mut acc = [[_mm256_setzero_si256(); 2]; MR];
                for kk in 0..k2 {
                    let b0 = _mm256_loadu_si256(bt.add(kk * 2 * NR).cast());
                    let b1 = _mm256_loadu_si256(bt.add(kk * 2 * NR + 16).cast());
                    for (r, arow) in acc.iter_mut().enumerate() {
                        let pair = qa.add(r * kp + kk * 2).cast::<i32>().read_unaligned();
                        let av = _mm256_set1_epi32(pair);
                        arow[0] = _mm256_add_epi32(arow[0], _mm256_madd_epi16(av, b0));
                        arow[1] = _mm256_add_epi32(arow[1], _mm256_madd_epi16(av, b1));
                    }
                }
                let mut out = [[0i32; NR]; MR];
                for (orow, arow) in out.iter_mut().zip(&acc) {
                    _mm256_storeu_si256(orow.as_mut_ptr().cast(), arow[0]);
                    _mm256_storeu_si256(orow.as_mut_ptr().add(8).cast(), arow[1]);
                }
                out
            }
        }

        /// # Safety
        ///
        /// Requires AVX2+FMA. `sb`, `out`, and `bias` (when present) must
        /// each point at `NR` readable/writable f32.
        #[target_feature(enable = "avx2", enable = "fma")]
        pub(super) unsafe fn dequant_row_avx2(
            acc: &[i32; NR],
            srow: f32,
            sb: *const f32,
            bias: Option<*const f32>,
            out: *mut f32,
        ) {
            unsafe {
                let vs = _mm256_set1_ps(srow);
                for h in 0..2 {
                    let vi = _mm256_loadu_si256(acc.as_ptr().add(h * 8).cast());
                    let vf = _mm256_cvtepi32_ps(vi);
                    let vsb = _mm256_mul_ps(vs, _mm256_loadu_ps(sb.add(h * 8)));
                    let vb = match bias {
                        Some(b) => _mm256_loadu_ps(b.add(h * 8)),
                        None => _mm256_setzero_ps(),
                    };
                    _mm256_storeu_ps(out.add(h * 8), _mm256_fmadd_ps(vf, vsb, vb));
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    use kernels::{dequant_row_avx2, micro_avx2, quant_rows_avx2};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn toy(k: usize, n: usize) -> Tensor {
        Tensor::from_fn(&[k, n], |i| (((i * 37 + i / 5) % 255) as f32 - 127.0) / 63.0)
    }

    #[test]
    fn roundtrip_error_within_half_scale() {
        let w = toy(13, 21);
        let q = QuantMatrix::quantize(&w);
        let dq = q.dequantize();
        for j in 0..21 {
            let bound = q.scales()[j] / 2.0 + 1e-6;
            for kk in 0..13 {
                let err = (w.at(&[kk, j]) - dq.at(&[kk, j])).abs();
                assert!(err <= bound, "err {err} > bound {bound} at ({kk}, {j})");
            }
        }
        assert!(q.error_bound() > 0.0);
    }

    #[test]
    fn zero_channel_quantizes_to_zero() {
        let w = Tensor::from_fn(&[4, 3], |i| if i % 3 == 1 { 0.0 } else { 1.5 });
        let q = QuantMatrix::quantize(&w);
        assert_eq!(q.scales()[1], 0.0);
        let dq = q.dequantize();
        for kk in 0..4 {
            assert_eq!(dq.at(&[kk, 1]), 0.0);
        }
    }

    #[test]
    fn matches_dequantized_f32_matmul() {
        let a = Tensor::from_fn(&[9, 13], |i| ((i % 17) as f32 - 8.0) / 3.0);
        let w = toy(13, 21);
        let q = QuantMatrix::quantize(&w);
        let exact = ops::matmul(&a, &q.dequantize());
        let approx = matmul_q8(&a, &q);
        assert_eq!(approx.shape(), [9, 21]);
        // Only activation-quantization error separates the two.
        assert!(exact.allclose(&approx, 0.08), "max ref {}", exact.max());
    }

    #[test]
    fn scalar_and_simd_paths_bit_identical() {
        let a = Tensor::from_fn(&[11, 18], |i| ((i % 29) as f32 - 14.0) / 5.0);
        let w = toy(18, 23);
        let q = QuantMatrix::quantize(&w);
        let bias = Tensor::from_fn(&[23], |i| i as f32 * 0.01 - 0.1);
        let fast = linear_q8(&a, &q, Some(&bias));
        let slow = crate::dial::I8_SIMD.with(false, || linear_q8(&a, &q, Some(&bias)));
        assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn batched_input_flattens_leading_dims() {
        let a = Tensor::from_fn(&[2, 3, 8], |i| (i as f32).sin());
        let w = toy(8, 5);
        let q = QuantMatrix::quantize(&w);
        let out = matmul_q8(&a, &q);
        assert_eq!(out.shape(), [2, 3, 5]);
        let flat = matmul_q8(&a.reshape(&[6, 8]), &q);
        assert_eq!(out.data(), flat.data());
    }
}
