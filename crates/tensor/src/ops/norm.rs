//! Layer normalization forward kernel.
//!
//! A row's mean and variance are [`lane_sum`]s — the fixed function of the
//! row the softmax's row sum is too — then `1/√(var + eps)`, and every
//! output is `((x − mean)·rstd)·γ + β` with one rounding for the
//! multiply-add. At the model's width (64) one row's sums are each a chain
//! of eight dependent adds, so rows go sixteen at a time
//! ([`layer_norm_blocks`]): the block is transposed lane-major, each lane's
//! statistics are [`lanes_sum`] — the same chains, sixteen rows per vector
//! add — and the rows are normalized in row layout. The `rows % 16` left
//! over take the one-row [`norm_row`]. Where the `KERNEL` dial selects the
//! AVX-512 kernel the blocks run as compiled for AVX-512F with in-register
//! transposes (`matmul::avx512::layer_norm`); the bits are the same either
//! way, and the same as [`norm_row`]'s for every row.

use super::matmul::use_avx512;
use super::reduce::{lane_sum, lanes_sum, Lanes, Portable, LANES};
use crate::workspace::Scratch;
use crate::Tensor;

/// Normalizes the packed rows of width `d = gamma.len()` in `src`, writing
/// every element of `out` and, when `stats` is given, the per-row
/// `(mean, rstd)` the backward pass reuses: [`LANES`] rows at a time through
/// [`layer_norm_blocks`] — as compiled for AVX-512F where the `KERNEL` dial
/// selects the AVX-512 kernel — then the last `rows % LANES` one by one.
fn layer_norm_rows(
    src: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    mut stats: Option<(&mut [f32], &mut [f32])>,
) {
    let d = gamma.len();
    let full = src.len() / d / LANES * LANES;
    let (head, tail) = src.split_at(full * d);
    let (ohead, otail) = out.split_at_mut(full * d);
    if full > 0 {
        let stats = stats.as_mut().map(|(m, r)| (&mut m[..full], &mut r[..full]));
        blocks(head, gamma, beta, eps, ohead, stats);
    }
    for (r, (x, o)) in tail.chunks_exact(d).zip(otail.chunks_exact_mut(d)).enumerate() {
        let (mean, rstd) = norm_row(x, gamma, beta, eps, o);
        if let Some((means, rstds)) = stats.as_mut() {
            (means[full + r], rstds[full + r]) = (mean, rstd);
        }
    }
}

/// [`layer_norm_blocks`] as compiled for AVX-512F (with `zmm` [`Lanes`])
/// where the `KERNEL` dial selects the AVX-512 kernel, for the build
/// baseline ([`Portable`]) otherwise.
fn blocks(
    src: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    stats: Option<(&mut [f32], &mut [f32])>,
) {
    #[cfg(target_arch = "x86_64")]
    if use_avx512() {
        return super::matmul::avx512::layer_norm(src, gamma, beta, eps, out, stats);
    }
    layer_norm_blocks(&Portable, src, gamma, beta, eps, out, stats)
}

/// Blocks of [`LANES`] packed rows: each block transposed lane-major, its
/// rows' means and variances as [`lanes_sum`]s — each lane the chain
/// [`norm_row`]'s [`lane_sum`] builds for its row — then `1/√(var + eps)`
/// lane-wise, and the rows normalized in row layout. The body both
/// compiles of the pass inline.
#[inline(always)]
pub(super) fn layer_norm_blocks<L: Lanes>(
    v: &L,
    src: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    mut stats: Option<(&mut [f32], &mut [f32])>,
) {
    let d = gamma.len();
    // Every lane of every slot is written by the block's gather first.
    let mut xt = Scratch::uninit(d * LANES);
    let xt = xt.as_chunks_mut::<LANES>().0;
    let (width, one, eps) = (v.splat(d as f32), v.splat(1.0), v.splat(eps));
    let blocks = src.chunks_exact(LANES * d).zip(out.chunks_exact_mut(LANES * d));
    for (b, (x, o)) in blocks.enumerate() {
        v.gather(x, &std::array::from_fn(|l| l * d), 0, 1, d, xt);
        let mean = v.div(lanes_sum(v, xt), width);
        // The squared deviations replace `xt`: the rows are normalized from
        // `x`.
        for x in xt.iter_mut() {
            let c = v.sub(v.load(x), mean);
            v.store(v.mul(c, c), x);
        }
        let rstd = v.div(one, v.sqrt(v.add(v.div(lanes_sum(v, xt), width), eps)));
        let mut stat = [[0.0; LANES]; 2];
        v.store(mean, &mut stat[0]);
        v.store(rstd, &mut stat[1]);
        let [mean, rstd] = stat;
        if let Some((means, rstds)) = stats.as_mut() {
            means[b * LANES..][..LANES].copy_from_slice(&mean);
            rstds[b * LANES..][..LANES].copy_from_slice(&rstd);
        }
        for (r, (row, orow)) in x.chunks_exact(d).zip(o.chunks_exact_mut(d)).enumerate() {
            normalize(row, mean[r], rstd[r], gamma, beta, orow);
        }
    }
}

/// One row: its [`lane_sum`] mean and variance, then [`normalize`];
/// returns `(mean, rstd)`.
#[inline(always)]
fn norm_row(src: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) -> (f32, f32) {
    let d = gamma.len();
    let mean = lane_sum(src, |v| v) / d as f32;
    let var = lane_sum(src, |v| (v - mean) * (v - mean));
    let rstd = 1.0 / (var / d as f32 + eps).sqrt();
    normalize(src, mean, rstd, gamma, beta, out);
    (mean, rstd)
}

/// `out = ((x − mean)·rstd)·γ + β`, the multiply-add rounded once.
#[inline(always)]
fn normalize(row: &[f32], mean: f32, rstd: f32, gamma: &[f32], beta: &[f32], out: &mut [f32]) {
    for ((o, &v), (&g, &b)) in out.iter_mut().zip(row).zip(gamma.iter().zip(beta)) {
        *o = ((v - mean) * rstd).mul_add(g, b);
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

    // The pass stores every element of every output it is given, so they
    // come from uninitialized workspace.
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
