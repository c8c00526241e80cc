//! Fused scaled-dot-product attention.
//!
//! Computes `softmax(scale * Q Kᵀ) V` one query row at a time: the score
//! vector for a row is O(Tk) scratch that never leaves the worker, so the
//! `[B, H, Tq, Tk]` probability tensor the composed path materializes (and
//! autograd additionally retains for backward) is never built. Backward
//! recomputes each row's probabilities from Q and K instead of loading them.

use crate::fastmath;
use crate::pool;
use crate::Tensor;

/// Attention problems below this many score elements (`batch * Tq * Tk`)
/// stay on the calling thread.
const ATTENTION_SERIAL_BELOW: usize = 1 << 14;

/// Dot product with four independent fused-multiply-add accumulators:
/// breaking the serial dependence on one running sum keeps the FMA pipeline
/// full for the short head-dim rows this kernel lives on. Every call site
/// sums in this exact order, serial and pooled alike, so chunking stays
/// bit-identical.
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let mut tail = 0.0f32;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail = x.mul_add(y, tail);
    }
    for (x, y) in ca.zip(cb) {
        for (s, (&xv, &yv)) in acc.iter_mut().zip(x.iter().zip(y)) {
            *s = xv.mul_add(yv, *s);
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Validated geometry shared by forward and backward.
struct AttnDims {
    nb: usize,
    tq: usize,
    tk: usize,
    d: usize,
    dv: usize,
    out_shape: Vec<usize>,
}

fn attn_dims(q: &Tensor, k: &Tensor, v: &Tensor) -> AttnDims {
    let (qs, ks, vs) = (q.shape(), k.shape(), v.shape());
    assert!(qs.len() >= 2, "attention expects rank >= 2, got q {qs:?}");
    assert_eq!(qs.len(), ks.len(), "q/k rank mismatch: {qs:?} vs {ks:?}");
    assert_eq!(qs.len(), vs.len(), "q/v rank mismatch: {qs:?} vs {vs:?}");
    let r = qs.len();
    assert_eq!(qs[..r - 2], ks[..r - 2], "q/k batch dims differ");
    assert_eq!(qs[..r - 2], vs[..r - 2], "q/v batch dims differ");
    let d = qs[r - 1];
    assert_eq!(ks[r - 1], d, "q/k feature dims differ");
    let tk = ks[r - 2];
    assert_eq!(vs[r - 2], tk, "k/v sequence lengths differ");
    let tq = qs[r - 2];
    let dv = vs[r - 1];
    let nb: usize = qs[..r - 2].iter().product();
    let mut out_shape = qs[..r - 2].to_vec();
    out_shape.push(tq);
    out_shape.push(dv);
    AttnDims { nb, tq, tk, d, dv, out_shape }
}

/// A tensor's raw buffer paired with the base offset of every `[..., W]` row
/// whose elements are unit-stride. Lets the row kernels read permuted views
/// (head-split `[B, T, H, Dh]` → `[B, H, T, Dh]` is the canonical case) in
/// place, skipping the `contiguous()` copy the composed path never pays.
struct Rows {
    data: crate::workspace::ArcBuf,
    offsets: std::sync::Arc<Vec<usize>>,
}

impl Rows {
    /// Gathers row offsets from `t`'s view strides; copies to a contiguous
    /// buffer first only when the last dimension is not unit-stride.
    fn new(t: &Tensor) -> Rows {
        let t = if t.strides().last() == Some(&1) { t.clone() } else { t.contiguous() };
        let rank = t.rank();
        let sh = &t.shape()[..rank - 1];
        let st = &t.strides()[..rank - 1];
        let n: usize = sh.iter().product();
        let mut offsets = Vec::with_capacity(n);
        let mut idx = vec![0usize; sh.len()];
        let mut off = t.offset();
        for _ in 0..n {
            offsets.push(off);
            for dim in (0..sh.len()).rev() {
                idx[dim] += 1;
                off += st[dim];
                if idx[dim] < sh[dim] {
                    break;
                }
                off -= st[dim] * sh[dim];
                idx[dim] = 0;
            }
        }
        Rows { data: t.raw_arc(), offsets: std::sync::Arc::new(offsets) }
    }

    #[inline]
    fn row(&self, i: usize, width: usize) -> &[f32] {
        &self.data[self.offsets[i]..self.offsets[i] + width]
    }
}

/// Computes output rows `first_row ..` into `out` (`count * dv` elements).
/// `scores` is reusable scratch of length `tk`. Row-local accumulation order
/// is the determinism anchor shared by the serial and pooled paths.
#[allow(clippy::too_many_arguments)]
fn attention_rows(
    q: &Rows,
    k: &Rows,
    v: &Rows,
    scale: f32,
    dims: &AttnDims,
    first_row: usize,
    out: &mut [f32],
    scores: &mut [f32],
) {
    let (tq, tk, d, dv) = (dims.tq, dims.tk, dims.d, dims.dv);
    for (i, orow) in out.chunks_exact_mut(dv).enumerate() {
        let row = first_row + i;
        let (bi, ti) = (row / tq, row % tq);
        let qrow = q.row(bi * tq + ti, d);

        let mut max = f32::NEG_INFINITY;
        for (j, s) in scores.iter_mut().enumerate() {
            *s = scale * dot(qrow, k.row(bi * tk + j, d));
            if *s > max {
                max = *s;
            }
        }
        // Dependency-free exp pass (it vectorizes), then a lane-accumulated
        // sum — both fixed functions of the row, so pool-size independent.
        for s in scores.iter_mut() {
            *s = fastmath::exp(*s - max);
        }
        let denom = super::reduce::lane_sum(scores, |x| x);
        orow.fill(0.0);
        for (j, &p) in scores.iter().enumerate() {
            let vrow = v.row(bi * tk + j, dv);
            for (o, &vx) in orow.iter_mut().zip(vrow) {
                *o = p.mul_add(vx, *o);
            }
        }
        let inv = 1.0 / denom;
        for o in orow.iter_mut() {
            *o *= inv;
        }
    }
}

/// Fused scaled-dot-product attention: `softmax(scale * q kᵀ) v`.
///
/// `q` is `[..., Tq, D]`, `k` is `[..., Tk, D]`, `v` is `[..., Tk, Dv]` with
/// identical leading (batch) dimensions; the result is `[..., Tq, Dv]`.
/// Scores are streamed per query row, so peak scratch is O(Tk) per worker
/// rather than the O(Tq*Tk) per batch element of the composed
/// matmul/softmax/matmul path. Large problems partition their query rows
/// over the shared worker pool with bit-identical results for every pool
/// size.
///
/// # Panics
///
/// Panics on rank or dimension mismatches between `q`, `k`, and `v`.
pub fn attention(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
    let _span = crate::metrics::span("op/attention");
    let dims = attn_dims(q, k, v);
    let (qr, kr, vr) = (Rows::new(q), Rows::new(k), Rows::new(v));
    let total_rows = dims.nb * dims.tq;
    let work = total_rows * dims.tk;

    if pool::should_parallelize(work, ATTENTION_SERIAL_BELOW) && total_rows > 1 {
        let dims = std::sync::Arc::new(dims);
        let d2 = std::sync::Arc::clone(&dims);
        let threads = pool::num_threads().min(total_rows);
        let out = pool::parallel_rows_named(
            "attention",
            total_rows,
            d2.dv,
            threads,
            move |first_row, chunk| {
                let mut scores = crate::workspace::Scratch::zeroed(d2.tk);
                attention_rows(&qr, &kr, &vr, scale, &d2, first_row, chunk, &mut scores);
            },
        );
        return Tensor::from_vec(out, &dims.out_shape);
    }

    // Every element of `out` is written by `attention_rows` (fill + scaled
    // accumulate per row), so recycled workspace contents never leak.
    let mut out = crate::workspace::take_uninit(total_rows * dims.dv);
    let mut scores = vec![0.0f32; dims.tk];
    attention_rows(&qr, &kr, &vr, scale, &dims, 0, &mut out, &mut scores);
    Tensor::from_vec(out, &dims.out_shape)
}

/// Computes `(dq, dk, dv)` slabs for batch elements `first_b ..` given the
/// upstream gradient. Probabilities are recomputed per query row; each batch
/// element is owned by exactly one job, so `dk`/`dv` accumulation order is
/// fixed and results are bit-identical for every pool size.
#[allow(clippy::too_many_arguments)]
fn attention_backward_batches(
    qd: &[f32],
    kd: &[f32],
    vd: &[f32],
    gd: &[f32],
    scale: f32,
    dims: &AttnDims,
    first_b: usize,
    count: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (tq, tk, d, dv) = (dims.tq, dims.tk, dims.d, dims.dv);
    let mut dq = crate::workspace::take_zeroed(count * tq * d);
    let mut dk = crate::workspace::take_zeroed(count * tk * d);
    let mut dvv = crate::workspace::take_zeroed(count * tk * dv);
    let mut scores = crate::workspace::Scratch::zeroed(tk);
    let mut dscores = crate::workspace::Scratch::zeroed(tk);
    for c in 0..count {
        let bi = first_b + c;
        let qb = &qd[bi * tq * d..(bi + 1) * tq * d];
        let kb = &kd[bi * tk * d..(bi + 1) * tk * d];
        let vb = &vd[bi * tk * dv..(bi + 1) * tk * dv];
        let gb = &gd[bi * tq * dv..(bi + 1) * tq * dv];
        let dqb = &mut dq[c * tq * d..(c + 1) * tq * d];
        let dkb = &mut dk[c * tk * d..(c + 1) * tk * d];
        let dvb = &mut dvv[c * tk * dv..(c + 1) * tk * dv];
        for ti in 0..tq {
            let qrow = &qb[ti * d..(ti + 1) * d];
            let grow = &gb[ti * dv..(ti + 1) * dv];

            // Recompute this row's probabilities (same order as forward).
            let mut max = f32::NEG_INFINITY;
            for (j, s) in scores.iter_mut().enumerate() {
                let krow = &kb[j * d..(j + 1) * d];
                *s = scale * dot(qrow, krow);
                if *s > max {
                    max = *s;
                }
            }
            for s in scores.iter_mut() {
                *s = fastmath::exp(*s - max);
            }
            let inv = 1.0 / super::reduce::lane_sum(&scores, |x| x);
            for s in scores.iter_mut() {
                *s *= inv;
            }

            // dp_j = <g_i, v_j>; ds_j = p_j * (dp_j - sum_l p_l dp_l).
            let mut dsum = 0.0f32;
            for (j, ds) in dscores.iter_mut().enumerate() {
                let vrow = &vb[j * dv..(j + 1) * dv];
                let dp = dot(grow, vrow);
                *ds = dp;
                dsum += scores[j] * dp;
            }
            for (j, ds) in dscores.iter_mut().enumerate() {
                *ds = scores[j] * (*ds - dsum);
            }

            // dq_i = scale * sum_j ds_j k_j; dk_j += scale * ds_j * q_i;
            // dv_j += p_j * g_i.
            let dqrow = &mut dqb[ti * d..(ti + 1) * d];
            for j in 0..tk {
                let ds = scale * dscores[j];
                let krow = &kb[j * d..(j + 1) * d];
                for (o, &kx) in dqrow.iter_mut().zip(krow) {
                    *o += ds * kx;
                }
                let dkrow = &mut dkb[j * d..(j + 1) * d];
                for (o, &qx) in dkrow.iter_mut().zip(qrow) {
                    *o += ds * qx;
                }
                let p = scores[j];
                let dvrow = &mut dvb[j * dv..(j + 1) * dv];
                for (o, &gx) in dvrow.iter_mut().zip(grow) {
                    *o += p * gx;
                }
            }
        }
    }
    (dq, dk, dvv)
}

/// Backward of [`attention`]: gradients w.r.t. `q`, `k`, and `v` given the
/// upstream gradient `grad` of shape `[..., Tq, Dv]`.
///
/// Row probabilities are recomputed from `q` and `k` (the forward pass saves
/// nothing), trading O(batch * Tq * Tk) FLOPs for never holding the
/// probability tensor. Work parallelizes over batch slabs: `dk`/`dv`
/// accumulate across query rows, so a batch element is the smallest unit
/// that keeps accumulation order fixed.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn attention_backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f32,
    grad: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let _span = crate::metrics::span("op/attention_bwd");
    let dims = attn_dims(q, k, v);
    assert_eq!(grad.shape(), &dims.out_shape[..], "attention grad shape mismatch");
    let (qc, kc, vc, gc) = (q.contiguous(), k.contiguous(), v.contiguous(), grad.contiguous());
    let work = dims.nb * dims.tq * dims.tk;

    let (dq, dk, dv) = if dims.nb > 1 && pool::should_parallelize(work, ATTENTION_SERIAL_BELOW) {
        let dims = std::sync::Arc::new(dims);
        let d2 = std::sync::Arc::clone(&dims);
        let (qd, kd, vd, gd) = (qc.raw_arc(), kc.raw_arc(), vc.raw_arc(), gc.raw_arc());
        let (qo, ko, vo, go) = (qc.offset(), kc.offset(), vc.offset(), gc.offset());
        let threads = pool::num_threads().min(d2.nb);
        let per = d2.nb.div_ceil(threads);
        let chunks = d2.nb.div_ceil(per);
        let nb = d2.nb;
        let parts = pool::map_chunks_named("attention_bwd", chunks, move |c| {
            let first = c * per;
            let count = per.min(nb - first);
            attention_backward_batches(
                &qd[qo..],
                &kd[ko..],
                &vd[vo..],
                &gd[go..],
                scale,
                &d2,
                first,
                count,
            )
        });
        let mut dq = crate::workspace::take_reserve(dims.nb * dims.tq * dims.d);
        let mut dk = crate::workspace::take_reserve(dims.nb * dims.tk * dims.d);
        let mut dv = crate::workspace::take_reserve(dims.nb * dims.tk * dims.dv);
        for (pq, pk, pv) in parts {
            dq.extend_from_slice(&pq);
            dk.extend_from_slice(&pk);
            dv.extend_from_slice(&pv);
            crate::workspace::give(pq);
            crate::workspace::give(pk);
            crate::workspace::give(pv);
        }
        (dq, dk, dv)
    } else {
        attention_backward_batches(
            qc.data(),
            kc.data(),
            vc.data(),
            gc.data(),
            scale,
            &dims,
            0,
            dims.nb,
        )
    };

    (
        Tensor::from_vec(dq, q.shape()),
        Tensor::from_vec(dk, k.shape()),
        Tensor::from_vec(dv, v.shape()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    /// Composed reference: softmax(scale * q kᵀ) v via the generic kernels.
    fn composed(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
        let kt = ops::transpose_last2(k);
        let s = ops::scale(&ops::matmul(q, &kt), scale);
        let p = ops::softmax_last(&s);
        ops::matmul(&p, v)
    }

    #[test]
    fn matches_composed_path() {
        let q = Tensor::from_fn(&[2, 3, 4, 5], |i| (i as f32 * 0.13).sin());
        let k = Tensor::from_fn(&[2, 3, 6, 5], |i| (i as f32 * 0.07).cos());
        let v = Tensor::from_fn(&[2, 3, 6, 7], |i| (i as f32 * 0.29).sin());
        let scale = 1.0 / (5.0f32).sqrt();
        let fused = attention(&q, &k, &v, scale);
        let reference = composed(&q, &k, &v, scale);
        assert_eq!(fused.shape(), &[2, 3, 4, 7]);
        assert!(fused.allclose(&reference, 1e-5), "fused diverged from composed");
    }

    #[test]
    fn rows_are_convex_combinations() {
        // With v = identity-ish rows, each output row must be a convex
        // combination: weights positive, summing to 1 via a constant v.
        let q = Tensor::from_fn(&[1, 4, 3], |i| (i as f32 * 0.41).sin());
        let k = Tensor::from_fn(&[1, 5, 3], |i| (i as f32 * 0.17).cos());
        let v = Tensor::ones(&[1, 5, 2]);
        let out = attention(&q, &k, &v, 0.7);
        for &x in out.data() {
            assert!((x - 1.0).abs() < 1e-5, "convex combination of ones must be 1, got {x}");
        }
    }

    #[test]
    fn works_on_permuted_views() {
        // [B, T, H, Dh] -> permute to [B, H, T, Dh]: rows contiguous in the
        // source but the view itself is not. The kernel reads such views in
        // place through per-row offsets (no materialization).
        let base = Tensor::from_fn(&[2, 4, 3, 5], |i| (i as f32 * 0.11).sin());
        let q = ops::permute(&base, &[0, 2, 1, 3]);
        let k = ops::permute(&base, &[0, 2, 1, 3]);
        let v = ops::permute(&base, &[0, 2, 1, 3]);
        let fused = attention(&q, &k, &v, 0.5);
        let reference = composed(&q.contiguous(), &k.contiguous(), &v.contiguous(), 0.5);
        assert!(fused.allclose(&reference, 1e-5));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let q = Tensor::from_fn(&[1, 3, 2], |i| (i as f32 * 0.31).sin() * 0.5);
        let k = Tensor::from_fn(&[1, 4, 2], |i| (i as f32 * 0.19).cos() * 0.5);
        let v = Tensor::from_fn(&[1, 4, 3], |i| (i as f32 * 0.23).sin() * 0.5);
        let scale = 0.8;
        // Loss = sum(attention(q, k, v)).
        let grad = Tensor::ones(&[1, 3, 3]);
        let (dq, dk, dv) = attention_backward(&q, &k, &v, scale, &grad);
        let eps = 1e-2f32;
        let check = |which: usize, analytic: &Tensor, base: &Tensor| {
            for idx in 0..base.numel() {
                let mut plus = base.to_vec();
                plus[idx] += eps;
                let mut minus = base.to_vec();
                minus[idx] -= eps;
                let make = |d: Vec<f32>| Tensor::from_vec(d, base.shape());
                let (tp, tm) = (make(plus), make(minus));
                let (fp, fm) = match which {
                    0 => (attention(&tp, &k, &v, scale), attention(&tm, &k, &v, scale)),
                    1 => (attention(&q, &tp, &v, scale), attention(&q, &tm, &v, scale)),
                    _ => (attention(&q, &k, &tp, scale), attention(&q, &k, &tm, scale)),
                };
                let num =
                    (fp.data().iter().sum::<f32>() - fm.data().iter().sum::<f32>()) / (2.0 * eps);
                let got = analytic.data()[idx];
                assert!(
                    (num - got).abs() < 1e-2,
                    "input {which} idx {idx}: numeric {num} vs analytic {got}"
                );
            }
        };
        check(0, &dq, &q);
        check(1, &dk, &k);
        check(2, &dv, &v);
    }
}
