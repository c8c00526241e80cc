//! Per-channel symmetric int8 weight quantization and the i8 matrix
//! product, kept as one safe scalar path: no model layer calls it, and the
//! benchmark's `tensor.q8_gemm_68x64x128` leaf is its one caller outside this crate.
//!
//! Weights quantize per output channel `j` of a `[k, n]` matrix:
//! `scale[j] = max_k |w[k, j]| / 127`, `q[k, j] = round_ties_even(w[k, j] /
//! scale[j])` in `[-127, 127]`. Activations quantize per row at call time by
//! the same rule. The product accumulates exactly in `i32` (`|q| ≤ 127`
//! bounds every partial sum by `127² · k`), so no summation order can move a
//! bit, and dequantizes once per output element:
//! `out[i, j] = fma(acc as f32, sa[i] · sb[j], bias[j])`. [`linear_q8`] runs
//! under an `op/matmul_i8` span and bumps `dispatch/matmul_i8` once per
//! non-empty call, so a test can assert that a model forward never reaches it.

use crate::{metrics, workspace, Tensor};

/// Symmetric int8 range bound: `-128` is excluded so negation stays in range.
const QMAX: f32 = 127.0;

/// A weight matrix quantized per output channel, ready for [`linear_q8`]
/// (which never re-quantizes it: quantize once, multiply many times).
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
#[derive(Clone, Debug)]
pub struct QuantMatrix {
    k: usize,
    n: usize,
    /// Per-channel scales, `n` entries.
    scales: Vec<f32>,
    /// The quantized weights, row-major `[k, n]` like the original.
    q: Vec<i8>,
}

/// `(scale, 1 / scale)` of a channel or row whose largest magnitude is
/// `amax`; `(0, 0)` for an all-zero one, which then quantizes to zeros.
fn scale_and_inverse(amax: f32) -> (f32, f32) {
    if amax > 0.0 {
        (amax / QMAX, QMAX / amax)
    } else {
        (0.0, 0.0)
    }
}

impl QuantMatrix {
    /// Quantizes a rank-2 `[k, n]` weight tensor, read through its strides.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 2 or has a zero dimension.
    pub fn quantize(w: &Tensor) -> QuantMatrix {
        assert_eq!(w.rank(), 2, "QuantMatrix::quantize expects [k, n], got {:?}", w.shape());
        let (k, n) = (w.shape()[0], w.shape()[1]);
        assert!(k > 0 && n > 0, "cannot quantize an empty matrix {:?}", w.shape());
        let wd = w.flat();
        let mut amax = vec![0f32; n];
        for (i, &v) in wd.iter().enumerate() {
            amax[i % n] = amax[i % n].max(v.abs());
        }
        let (scales, inv): (Vec<f32>, Vec<f32>) = amax.into_iter().map(scale_and_inverse).unzip();
        let q = (wd.iter().enumerate())
            .map(|(i, &v)| (v * inv[i % n]).round_ties_even().clamp(-QMAX, QMAX) as i8)
            .collect();
        QuantMatrix { k, n, scales, q }
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
        &self.scales
    }

    /// Reconstructs the `[k, n]` f32 matrix `q[k, j] · scale[j]`, within
    /// `scale[j] / 2` of the original per element of channel `j`.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_fn(&[self.k, self.n], |i| self.q[i] as f32 * self.scales[i % self.n])
    }

    /// Worst-case per-element round-trip error: `max_j scale[j] / 2`.
    pub fn error_bound(&self) -> f32 {
        self.scales.iter().fold(0f32, |a, &s| a.max(s)) / 2.0
    }
}

/// Quantized affine map `out = a @ dequant(w) + bias`, `[.., k] @ [k, n] -> [.., n]`, with
/// per-row dynamic activation quantization. `a` has rank ≥ 1 and its leading
/// dimensions are batch dimensions; `bias`, when present, must be `[n]`.
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

    let (ad, bd) = (a.flat(), bias.map(Tensor::flat));
    let mut out = workspace::take_uninit(m * n);
    let mut acc = vec![0i32; n];
    for (row, orow) in ad.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let (sa, inv) = scale_and_inverse(row.iter().fold(0f32, |x, &v| x.max(v.abs())));
        acc.fill(0);
        for (&v, wrow) in row.iter().zip(w.q.chunks_exact(n)) {
            let x = (v * inv).round_ties_even() as i32;
            for (a, &y) in acc.iter_mut().zip(wrow) {
                *a += x * i32::from(y);
            }
        }
        for (j, (o, &a)) in orow.iter_mut().zip(&acc).enumerate() {
            let b = bd.as_ref().map_or(0.0, |b| b[j]);
            *o = (a as f32).mul_add(sa * w.scales[j], b);
        }
    }
    Tensor::from_vec(out, &out_shape)
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
        let approx = linear_q8(&a, &q, None);
        assert_eq!(approx.shape(), [9, 21]);
        // Only activation-quantization error separates the two.
        assert!(exact.allclose(&approx, 0.08), "max ref {}", exact.max());
    }

    #[test]
    fn batched_input_flattens_leading_dims() {
        let a = Tensor::from_fn(&[2, 3, 8], |i| (i as f32).sin());
        let w = toy(8, 5);
        let q = QuantMatrix::quantize(&w);
        let out = linear_q8(&a, &q, None);
        assert_eq!(out.shape(), [2, 3, 5]);
        let flat = linear_q8(&a.reshape(&[6, 8]), &q, None);
        assert_eq!(out.data(), flat.data());
    }
}
