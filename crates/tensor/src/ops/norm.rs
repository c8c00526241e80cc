//! Layer normalization forward kernel.

use super::reduce::lane_sums;
use crate::Tensor;

/// Rows [`layer_norm_rows`] keeps in flight: at the model's width (64) one
/// row's mean and variance are each a chain of eight dependent vector adds,
/// so a lone row waits on add latency; four rows' chains interleave.
const ROWS: usize = 4;

/// Normalizes the packed rows of width `d = gamma.len()` in `src`, writing
/// every element of `out` and, when `stats` is given, the per-row
/// `(mean, rstd)` the backward pass reuses — [`ROWS`] rows at a time, then
/// the last `rows % ROWS` one by one, through the same [`norm_block`].
fn layer_norm_rows(
    src: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    mut stats: Option<(&mut [f32], &mut [f32])>,
) {
    let d = gamma.len();
    let full = src.len() / d / ROWS * ROWS;
    let (head, tail) = src.split_at(full * d);
    let (ohead, otail) = out.split_at_mut(full * d);
    let blocks = head.chunks_exact(ROWS * d).zip(ohead.chunks_exact_mut(ROWS * d));
    for (b, (x, o)) in blocks.enumerate() {
        let stats = stats.as_mut().map(|(m, s)| (&mut m[b * ROWS..], &mut s[b * ROWS..]));
        norm_block::<ROWS>(x, gamma, beta, eps, o, stats);
    }
    for (r, (x, o)) in tail.chunks_exact(d).zip(otail.chunks_exact_mut(d)).enumerate() {
        let stats = stats.as_mut().map(|(m, s)| (&mut m[full + r..], &mut s[full + r..]));
        norm_block::<1>(x, gamma, beta, eps, o, stats);
    }
}

/// `R` packed rows: each row's mean and variance are [`lane_sums`] — the
/// fixed function of the row that the softmax's row sum is too — then
/// `1/√(var + eps)`, and every output `((x − mean)·rstd)·γ + β` with one
/// rounding for the multiply-add. `stats`, when given, gets each row's
/// `(mean, rstd)` at its first `R` slots.
#[inline(always)]
fn norm_block<const R: usize>(
    src: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    stats: Option<(&mut [f32], &mut [f32])>,
) {
    let d = gamma.len();
    let rows: [&[f32]; R] = std::array::from_fn(|r| &src[r * d..(r + 1) * d]);
    let sums = lane_sums(rows, |_, v| v);
    let mean = sums.map(|s| s / d as f32);
    let sq = lane_sums(rows, |r, v| (v - mean[r]) * (v - mean[r]));
    let rstd = sq.map(|s| 1.0 / (s / d as f32 + eps).sqrt());
    if let Some((means, rstds)) = stats {
        means[..R].copy_from_slice(&mean);
        rstds[..R].copy_from_slice(&rstd);
    }
    for (r, (row, orow)) in rows.iter().zip(out.chunks_exact_mut(d)).enumerate() {
        let (mean, rstd) = (mean[r], rstd[r]);
        for ((o, &v), (&g, &b)) in orow.iter_mut().zip(*row).zip(gamma.iter().zip(beta)) {
            *o = ((v - mean) * rstd).mul_add(g, b);
        }
    }
}

/// Layer normalization over the last dimension with affine parameters.
///
/// Returns `(normalized, mean, rstd)` where `mean` and `rstd` are rank-1
/// tensors of length `rows` saved for the backward pass.
///
/// # Panics
///
/// Panics unless `gamma` and `beta` are rank-1 of length `D`, the last
/// dimension of `x`.
pub fn layer_norm_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Tensor, Tensor, Tensor) {
    let (y, stats) = layer_norm_impl(x, gamma, beta, eps, true);
    let (mean, rstd) = stats.expect("stats were requested");
    (y, mean, rstd)
}

/// [`layer_norm_forward`] without the saved statistics — the same output
/// bits, for callers that will never differentiate through it.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    layer_norm_impl(x, gamma, beta, eps, false).0
}

fn layer_norm_impl(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    want_stats: bool,
) -> (Tensor, Option<(Tensor, Tensor)>) {
    let _span = crate::metrics::span("op/layer_norm");
    let d = *x.shape().last().expect("layer_norm requires rank >= 1");
    assert_eq!(gamma.shape(), &[d], "gamma must be [D]");
    assert_eq!(beta.shape(), &[d], "beta must be [D]");
    let rows = x.numel() / d;
    let xc = x.contiguous(); // row kernel needs packed rows
    let (gd, bd) = (gamma.flat(), beta.flat()); // borrowed: parameters are contiguous

    // `layer_norm_rows` stores every element of every output it is given,
    // so they come from uninitialized workspace.
    let mut out = crate::workspace::take_uninit(rows * d);
    if !want_stats {
        layer_norm_rows(xc.data(), &gd, &bd, eps, &mut out, None);
        return (Tensor::from_vec(out, x.shape()), None);
    }
    let mut means = crate::workspace::take_uninit(rows);
    let mut rstds = crate::workspace::take_uninit(rows);
    layer_norm_rows(xc.data(), &gd, &bd, eps, &mut out, Some((&mut means, &mut rstds)));
    let stats = (Tensor::from_vec(means, &[rows]), Tensor::from_vec(rstds, &[rows]));
    (Tensor::from_vec(out, x.shape()), Some(stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_normalized() {
        let x = Tensor::from_fn(&[3, 8], |i| (i as f32 * 0.37).sin() * 2.0);
        let gamma = Tensor::ones(&[8]);
        let beta = Tensor::zeros(&[8]);
        let (y, mean, rstd) = layer_norm_forward(&x, &gamma, &beta, 1e-5);
        assert_eq!(y.shape(), &[3, 8]);
        assert_eq!(mean.shape(), &[3]);
        assert_eq!(rstd.shape(), &[3]);
        for r in 0..3 {
            let row = &y.data()[r * 8..(r + 1) * 8];
            let m: f32 = row.iter().sum::<f32>() / 8.0;
            let v: f32 = row.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / 8.0;
            assert!(m.abs() < 1e-5, "row {r} mean {m}");
            assert!((v - 1.0).abs() < 1e-3, "row {r} var {v}");
        }
    }

    #[test]
    fn affine_params_apply() {
        let x = Tensor::from_fn(&[2, 4], |i| i as f32);
        let gamma = Tensor::full(&[4], 2.0);
        let beta = Tensor::full(&[4], 0.5);
        let (y, _, _) = layer_norm_forward(&x, &gamma, &beta, 1e-5);
        let ones = Tensor::ones(&[4]);
        let zeros = Tensor::zeros(&[4]);
        let (base, _, _) = layer_norm_forward(&x, &ones, &zeros, 1e-5);
        let expect = base.map(|v| v * 2.0 + 0.5);
        assert!(y.allclose(&expect, 1e-6));
    }
}
