//! Reductions and softmax-family operations.
//!
//! Row sums go through [`lane_sum`]: eight accumulator lanes per row, a
//! fixed function of the row. The row kernels that hold many short rows —
//! attention's softmax, layer norm's statistics — run sixteen rows at once
//! in the lanes of a vector ([`Lanes`], [`lanes_sum`]), each lane replaying
//! its row's `lane_sum` chain. The row softmax of [`softmax_last`] is one
//! loop, [`Softmax`], one of [`simd`]'s twins: compiled for the lanes
//! [`simd::run`] selects, the same bits either way.

use super::simd::{self, Job, Lane, Lanes};
use crate::fastmath;
use crate::shape::Dims;
use crate::Tensor;

/// The larger of `x` and `m`, `m` when `x` is NaN: an ordered compare and
/// a select, which is exactly one `vmaxps` (`f32::max` costs three
/// instructions to also cover a NaN in `m`, which a running maximum started
/// at −∞ never holds).
#[inline(always)]
pub(super) fn keep_max(x: f32, m: f32) -> f32 {
    if x > m {
        x
    } else {
        m
    }
}

/// Maximum of a row, NaNs ignored (−∞ for an empty or all-NaN row), via
/// eight independent lanes — one AVX2 vector — folded one after the other
/// at the end (a pairwise fold makes the vectorizer pair the lanes up in the
/// loop too, at a quarter of the width). A maximum does not depend on the
/// order it is taken in, so the lane split cannot change it; which zero a
/// row of mixed `±0` maxima yields is unspecified, and both softmaxes give
/// the same bits for either (`x − m` differs only where `x` is itself a
/// zero, and `exp(±0)` is 1).
#[inline]
pub(super) fn row_max(xs: &[f32]) -> f32 {
    let (chunks, tail) = xs.as_chunks::<8>();
    let mut lanes = [f32::NEG_INFINITY; 8];
    for c in chunks {
        for (m, &x) in lanes.iter_mut().zip(c) {
            *m = keep_max(x, *m);
        }
    }
    tail.iter().chain(&lanes).fold(f32::NEG_INFINITY, |m, &x| keep_max(x, m))
}

/// Sum of `f(x)` over a row via eight independent accumulator lanes — one
/// AVX2 vector — folded pairwise at the end: the remainder summed in order,
/// the eight lanes over the full chunks in order, then [`fold`]. The lane
/// assignment depends only on element index, so the result is a fixed
/// function of the row; [`lanes_sum`] replays it for sixteen rows at once.
#[inline(always)]
pub(super) fn lane_sum(xs: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let (chunks, rest) = xs.as_chunks::<8>();
    let mut tail = 0.0f32;
    for &x in rest {
        tail += f(x);
    }
    let mut acc = [0.0f32; 8];
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += f(v);
        }
    }
    fold(&acc, tail)
}

/// A row's eight lanes folded pairwise, `((l0+l4) + (l2+l6)) + ((l1+l5) +
/// (l3+l7))`, plus its remainder's sum. Out of line on purpose: handed over
/// as one array, a row's lanes stay one vector register in the loop that
/// accumulates them. Inlined, LLVM shapes the loop after the fold's pairs —
/// four two-lane registers — at half the speed or worse.
#[inline(never)]
fn fold(a: &[f32; 8], tail: f32) -> f32 {
    let quad = [a[0] + a[4], a[1] + a[5], a[2] + a[6], a[3] + a[7]];
    (quad[0] + quad[2]) + (quad[1] + quad[3]) + tail
}

/// [`lane_sum`] of every lane of the lane-major `xs` at once: lane `l` of
/// the result has the bits `lane_sum` gives the row `xs[..][l]` — the same
/// chunks of eight, the same remainder, the same fold ([`lanes_fold`]) — as
/// sixteen-wide vector adds.
#[inline(always)]
pub(super) fn lanes_sum<L: Lanes>(v: &L, xs: &[Lane]) -> L::V {
    let (chunks, rest) = xs.as_chunks::<8>();
    let mut acc = [v.splat(0.0); 8];
    for c in chunks {
        for (a, x) in acc.iter_mut().zip(c) {
            *a = v.add(*a, v.load(x));
        }
    }
    let mut tail = v.splat(0.0);
    for x in rest {
        tail = v.add(tail, v.load(x));
    }
    lanes_fold(v, acc, tail)
}

/// [`fold`] lane-wise: the eight accumulators of a [`lanes_sum`], folded
/// pairwise, plus the remainder's sum. (A pass that computes the values it
/// sums — the softmax's exponentials — accumulates them itself, element
/// `j` into `acc[j % 8]` up to the last whole chunk and into `tail` after,
/// and folds here: a closure over [`Lanes`] operations would be compiled
/// without the AVX-512F entry's target feature.)
#[inline(always)]
pub(super) fn lanes_fold<L: Lanes>(v: &L, acc: [L::V; 8], tail: L::V) -> L::V {
    let quad = [
        v.add(acc[0], acc[4]),
        v.add(acc[1], acc[5]),
        v.add(acc[2], acc[6]),
        v.add(acc[3], acc[7]),
    ];
    v.add(v.add(v.add(quad[0], quad[2]), v.add(quad[1], quad[3])), tail)
}

/// Sum of all elements as a scalar tensor.
pub fn sum_all(a: &Tensor) -> Tensor {
    Tensor::scalar(a.sum())
}

/// Mean of all elements as a scalar tensor.
pub fn mean_all(a: &Tensor) -> Tensor {
    Tensor::scalar(a.mean())
}

/// Sums over dimension `axis`.
///
/// With `keepdim` the reduced dimension is retained with extent 1; otherwise
/// it is removed from the shape.
///
/// # Panics
///
/// Panics if `axis >= a.rank()`.
pub fn sum_axis(a: &Tensor, axis: usize, keepdim: bool) -> Tensor {
    assert!(axis < a.rank(), "axis {axis} out of range for rank {}", a.rank());
    let sh = a.shape();
    let rank = sh.len();
    let outer: usize = sh[..axis].iter().product();
    let d = sh[axis];
    let inner: usize = sh[axis + 1..].iter().product();
    let mut out = vec![0.0; outer * inner];

    if a.is_contiguous() {
        sum_dense(a.data(), &mut out, d, inner);
    } else {
        // Strided view: walk the input odometer-style, accumulating into the
        // output slot whose coordinates drop the reduced axis (stride 0).
        let mut kept = Dims::new(sh);
        kept[axis] = 1;
        let mut os = crate::shape::strides(&kept);
        os[axis] = 0;
        let strides = a.strides();
        let data = a.raw_data();
        let mut idx = Dims::filled(rank, 0);
        let mut in_off = a.offset();
        let mut out_off = 0usize;
        for _ in 0..a.numel() {
            out[out_off] += data[in_off];
            for dim in (0..rank).rev() {
                idx[dim] += 1;
                in_off += strides[dim];
                out_off += os[dim];
                if idx[dim] < sh[dim] {
                    break;
                }
                in_off -= strides[dim] * sh[dim];
                out_off -= os[dim] * sh[dim];
                idx[dim] = 0;
            }
        }
    }

    let dims = sh.iter().enumerate().filter(|&(i, _)| keepdim || i != axis);
    let out_shape: Dims = dims.map(|(i, &d)| if i == axis { 1 } else { d }).collect();
    Tensor::from_vec(out, &out_shape)
}

/// Mean over dimension `axis`.
pub fn mean_axis(a: &Tensor, axis: usize, keepdim: bool) -> Tensor {
    let d = a.dim(axis) as f32;
    let summed = sum_axis(a, axis, keepdim);
    summed.map(|x| x / d)
}

/// Sums a contiguous `[outer, d, inner]` layout over `d` into `out`
/// (zero-filled, `[outer, inner]`), accumulating in ascending `k` order.
fn sum_dense(data: &[f32], out: &mut [f32], d: usize, inner: usize) {
    for (o, orow) in out.chunks_exact_mut(inner.max(1)).enumerate() {
        for k in 0..d {
            let base = (o * d + k) * inner;
            for (ov, &x) in orow.iter_mut().zip(&data[base..base + inner]) {
                *ov += x;
            }
        }
    }
}

/// Index of the maximum along the last dimension.
///
/// Returns a tensor shaped like `a` without its last dimension, holding the
/// winning indices as `f32` values (ties break toward the lower index).
///
/// # Panics
///
/// Panics on rank-0 input or an empty last dimension.
pub fn argmax_last(a: &Tensor) -> Tensor {
    assert!(a.rank() >= 1, "argmax_last requires rank >= 1");
    let d = *a.shape().last().expect("non-empty shape");
    assert!(d > 0, "argmax_last over empty dimension");
    let rows = a.numel() / d;
    let a = a.contiguous(); // the row kernel needs packed rows
    let data = a.data();
    let mut out = crate::workspace::take_reserve(rows);
    for r in 0..rows {
        let row = &data[r * d..(r + 1) * d];
        let mut best = 0usize;
        for (i, &x) in row.iter().enumerate() {
            if x > row[best] {
                best = i;
            }
        }
        out.push(best as f32);
    }
    Tensor::from_vec(out, &a.shape()[..a.rank() - 1])
}

/// Softmax of the packed rows of `src` into `out`, as a [`Job`]: `out` and
/// `src` hold the same whole rows of width `d`. The exponentials are one
/// flat pass over the whole buffer instead of one loop per row: rows are
/// short (17 wide in the model's attention), and a per-row loop would spend
/// its time in the scalar remainder; the flat pass runs at full vector width
/// whatever `d` is. Each element is still a function of its own row only:
/// `x` minus the row maximum rounded, [`fastmath::exp`], divided by the
/// row's [`lane_sum`].
struct Softmax<'a> {
    src: &'a [f32],
    out: &'a mut [f32],
    d: usize,
}

impl Job for Softmax<'_> {
    #[inline(always)]
    fn on<L: Lanes>(self, _: &L) {
        let Softmax { src, out, d } = self;
        out.copy_from_slice(src);
        for orow in out.chunks_exact_mut(d) {
            let m = row_max(orow);
            for o in orow.iter_mut() {
                *o -= m;
            }
        }
        for o in out.iter_mut() {
            *o = fastmath::exp(*o);
        }
        for orow in out.chunks_exact_mut(d) {
            let denom = lane_sum(orow, |x| x);
            for v in orow.iter_mut() {
                *v /= denom;
            }
        }
    }
}

/// Numerically-stable softmax over the last dimension.
pub fn softmax_last(a: &Tensor) -> Tensor {
    let _span = crate::metrics::span("op/rowwise");
    let d = *a.shape().last().expect("softmax_last requires rank >= 1");
    let a = a.contiguous(); // the row kernel needs packed rows
                            // The row kernel stores every element of its rows.
    let mut out = crate::workspace::take_uninit(a.numel());
    simd::run(Softmax { src: a.data(), out: &mut out, d });
    Tensor::from_vec(out, a.shape())
}

/// Backward rule for [`softmax_last`]: given saved output `y` and upstream
/// gradient `g`, returns `y * (g - sum(g*y, last))` row by row.
pub(crate) fn softmax_last_backward(y: &Tensor, g: &Tensor) -> Tensor {
    let d = *y.shape().last().expect("rank >= 1");
    let rows = y.numel() / d;
    let (y, g) = (y.contiguous(), g.contiguous());
    let yd = y.data();
    let gd = g.data();
    let mut out = crate::workspace::take_reserve(y.numel());
    for r in 0..rows {
        let yr = &yd[r * d..(r + 1) * d];
        let gr = &gd[r * d..(r + 1) * d];
        let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
        out.extend(yr.iter().zip(gr).map(|(&yv, &gv)| yv * (gv - dot)));
    }
    Tensor::from_vec(out, y.shape())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean_axis() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        let s0 = sum_axis(&t, 0, false);
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.data(), &[3.0, 5.0, 7.0]);
        let s1 = sum_axis(&t, 1, true);
        assert_eq!(s1.shape(), &[2, 1]);
        assert_eq!(s1.data(), &[3.0, 12.0]);
        let m1 = mean_axis(&t, 1, false);
        assert_eq!(m1.data(), &[1.0, 4.0]);
    }

    #[test]
    fn argmax_rows() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        let a = argmax_last(&t);
        assert_eq!(a.shape(), &[2]);
        assert_eq!(a.data(), &[1.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_stable() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0, 999.0, -5.0, 0.0, 5.0], &[2, 3]);
        let s = softmax_last(&t);
        for r in 0..2 {
            let row: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((row - 1.0).abs() < 1e-5);
        }
        assert!(!s.has_non_finite());
        // Larger logit -> larger probability.
        assert!(s.at(&[0, 1]) > s.at(&[0, 0]));
    }

    #[test]
    fn softmax_rows_sum_to_one_at_every_lane_remainder() {
        // Widths on both sides of the 8-lane sum and the flat exp pass's
        // vector width, plus the model's 17 and 64.
        for d in [1usize, 7, 8, 9, 17, 64] {
            let t = Tensor::from_fn(&[5, d], |i| ((i * 37 + d) % 23) as f32 * 0.4 - 4.0);
            let s = softmax_last(&t);
            for (r, row) in s.data().chunks(d).enumerate() {
                let sum: f64 = row.iter().map(|&p| p as f64).sum();
                assert!((sum - 1.0).abs() < 1e-6, "width {d} row {r} sums to {sum}");
                assert!(row.iter().all(|&p| p > 0.0 && p <= 1.0));
            }
        }
    }

    #[test]
    fn softmax_backward_matches_numerical() {
        let x = Tensor::from_vec(vec![0.2, -0.5, 1.3, 0.0], &[1, 4]);
        let g = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[1, 4]);
        let y = softmax_last(&x);
        let analytic = softmax_last_backward(&y, &g);
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.data_mut()[i] += eps;
            xm.data_mut()[i] -= eps;
            let fp: f32 = softmax_last(&xp).data().iter().zip(g.data()).map(|(&a, &b)| a * b).sum();
            let fm: f32 = softmax_last(&xm).data().iter().zip(g.data()).map(|(&a, &b)| a * b).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - analytic.data()[i]).abs() < 1e-2);
        }
    }
}
