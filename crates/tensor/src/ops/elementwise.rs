//! Elementwise arithmetic and activation functions with NumPy broadcasting.
//!
//! The named entry points (`add`, `mul`, `tanh`, `gelu`, …) pass their scalar
//! function as a closure through generic dispatchers, so every op gets its
//! own monomorphized inner loop (no per-element indirection).

use crate::fastmath;
use crate::shape;
use crate::Tensor;

/// Applies `f` elementwise.
fn unary(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let _span = crate::metrics::span("op/elementwise");
    a.map(f)
}

/// Applies `f` over two operands through the [`binary_broadcast`] engine.
fn binary(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let _span = crate::metrics::span("op/elementwise");
    binary_broadcast(a, b, f)
}

/// Applies `f` elementwise over the broadcast of `a` and `b`.
///
/// This is the generic engine behind [`add`] and [`mul`];
/// it is public so downstream crates can define their own broadcast kernels.
///
/// # Panics
///
/// Panics if the shapes do not broadcast together.
pub fn binary_broadcast(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    if a.shape() == b.shape() {
        return a.zip(b, f);
    }
    let out_shape = shape::broadcast(a.shape(), b.shape())
        .unwrap_or_else(|| panic!("shapes {:?} and {:?} do not broadcast", a.shape(), b.shape()));
    let n = shape::numel(&out_shape);
    let ad = a.raw_data();
    let bd = b.raw_data();

    // Fast path: contiguous full-shaped `a`, and a contiguous `b` whose shape
    // (leading 1s aside) is a suffix of the output's — a bias over the last
    // axis, a position table over the last two or three. `b` then repeats
    // block by block along `a`, so the op is a slice zip per block.
    let b_dims = &b.shape()[b.shape().iter().take_while(|&&d| d == 1).count()..];
    let block = b.numel();
    if block > 0
        && a.shape() == &out_shape[..]
        && out_shape.ends_with(b_dims)
        && a.is_contiguous()
        && b.is_contiguous()
    {
        let a_flat = &ad[a.offset()..a.offset() + n];
        let b_flat = &bd[b.offset()..b.offset() + block];
        // Preallocated blocks instead of per-element `push`: the zipped
        // slice loop has no capacity checks, so it vectorizes. Every element
        // is written, so recycled workspace contents are fine.
        let mut out = crate::workspace::take_uninit(n);
        for (oblk, ablk) in out.chunks_exact_mut(block).zip(a_flat.chunks_exact(block)) {
            for ((o, &x), &y) in oblk.iter_mut().zip(ablk).zip(b_flat) {
                *o = f(x, y);
            }
        }
        return Tensor::from_vec(out, &out_shape);
    }

    // Everything else walks both operands through their *view* strides (0 on
    // broadcast dims), so strided views feed the kernel directly with no
    // materialization.
    let sa = shape::broadcast_view_strides(a.shape(), a.strides(), &out_shape);
    let sb = shape::broadcast_view_strides(b.shape(), b.strides(), &out_shape);
    let rank = out_shape.len();
    let mut out = crate::workspace::take_reserve(n);
    let mut ia = shape::Dims::filled(rank, 0);
    let mut offset_a = a.offset();
    let mut offset_b = b.offset();
    for _ in 0..n {
        out.push(f(ad[offset_a], bd[offset_b]));
        // Odometer increment, updating both offsets incrementally.
        for dim in (0..rank).rev() {
            ia[dim] += 1;
            offset_a += sa[dim];
            offset_b += sb[dim];
            if ia[dim] < out_shape[dim] {
                break;
            }
            offset_a -= sa[dim] * out_shape[dim];
            offset_b -= sb[dim] * out_shape[dim];
            ia[dim] = 0;
        }
    }
    Tensor::from_vec(out, &out_shape)
}

/// Broadcasting elementwise addition.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    binary(a, b, |x, y| x + y)
}

/// Elementwise in-place addition: `dst += rhs`, reusing `dst`'s buffer.
///
/// Shapes must match exactly — no broadcasting. When `dst` solely owns a
/// canonical buffer the sums land straight in it; a shared or strided `dst`
/// is first materialized by the copy-on-write machinery in
/// [`Tensor::data_mut`](crate::Tensor::data_mut). This is the autograd
/// accumulation fast path: a `+=` into an existing gradient costs zero
/// allocations instead of a fresh output tensor per contribution. Each
/// element is the same pairwise `f32` sum as [`add`] computes, so results
/// are bit-identical to the out-of-place op.
///
/// # Panics
///
/// Panics if the shapes differ.
pub(crate) fn add_assign(dst: &mut Tensor, rhs: &Tensor) {
    assert_eq!(dst.shape(), rhs.shape(), "add_assign requires matching shapes");
    let _span = crate::metrics::span("op/elementwise");
    if rhs.is_contiguous() {
        for (d, &x) in dst.data_mut().iter_mut().zip(rhs.data()) {
            *d += x;
        }
    } else {
        // Strided `rhs`: walk it in row-major logical order, matching the
        // canonical layout `data_mut` guarantees for `dst`.
        for (d, x) in dst.data_mut().iter_mut().zip(rhs.iter_elems()) {
            *d += x;
        }
    }
}

/// Broadcasting elementwise multiplication.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    binary(a, b, |x, y| x * y)
}

/// Multiplies every element by `c`.
pub fn scale(a: &Tensor, c: f32) -> Tensor {
    unary(a, move |x| x * c)
}

/// Adds `c` to every element.
pub fn add_scalar(a: &Tensor, c: f32) -> Tensor {
    unary(a, move |x| x + c)
}

/// Elementwise negation.
pub fn neg(a: &Tensor) -> Tensor {
    unary(a, |x| -x)
}

/// Rectified linear unit: `max(x, 0)`.
pub fn relu(a: &Tensor) -> Tensor {
    unary(a, |x| x.max(0.0))
}

/// Gradient of [`relu`] given the op *input* and upstream gradient.
pub(crate) fn relu_backward(input: &Tensor, grad: &Tensor) -> Tensor {
    binary(input, grad, |x, g| if x > 0.0 { g } else { 0.0 })
}

/// Elementwise logistic sigmoid (via [`fastmath::sigmoid`]).
pub fn sigmoid(a: &Tensor) -> Tensor {
    unary(a, fastmath::sigmoid)
}

/// Elementwise hyperbolic tangent (via [`fastmath::tanh`]).
pub fn tanh(a: &Tensor) -> Tensor {
    unary(a, fastmath::tanh)
}

pub(super) const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

/// GELU activation (tanh approximation), as used in transformer MLPs.
///
/// Evaluated as `x · σ(2u)`, which is `0.5 · x · (1 + tanh u)` exactly: one
/// `exp` and one divide per element instead of `tanh`'s two ranges, and the
/// negative tail keeps its relative accuracy (`1 + tanh u` cancels there).
/// The pass over the elements is the one [`super::linear`]'s epilogue runs,
/// so the fused and the standalone activation agree bit for bit.
pub fn gelu(a: &Tensor) -> Tensor {
    let _span = crate::metrics::span("op/elementwise");
    let mut out = a.to_vec();
    super::matmul::gelu_in_place(super::matmul::use_avx512(), &mut out);
    Tensor::from_vec(out, a.shape())
}

/// One element of [`gelu`].
#[inline]
pub(crate) fn gelu_scalar(x: f32) -> f32 {
    x * fastmath::sigmoid(2.0 * GELU_C * (x + 0.044_715 * x * x * x))
}

/// Gradient of [`gelu`] given the op *input* and upstream gradient.
pub(crate) fn gelu_backward(input: &Tensor, grad: &Tensor) -> Tensor {
    binary(input, grad, |x, g| {
        let u = GELU_C * (x + 0.044_715 * x * x * x);
        let t = fastmath::tanh(u);
        let du = GELU_C * (1.0 + 3.0 * 0.044_715 * x * x);
        g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
    })
}

/// Reduces `grad` (shaped like a broadcast result) back to `target_shape` by
/// summing over the dimensions that were expanded.
///
/// This is the adjoint of broadcasting and is used by every broadcasting
/// backward rule.
pub fn unbroadcast(grad: &Tensor, target_shape: &[usize]) -> Tensor {
    if grad.shape() == target_shape {
        return grad.clone();
    }
    let rank = grad.rank();
    let padded = shape::pad_rank(target_shape, rank);
    // Walk the (possibly non-contiguous) gradient through its view strides.
    let gs = grad.strides();
    let n_out = shape::numel(&padded);
    let mut out = crate::workspace::take_zeroed(n_out);
    let ts = shape::strides(&padded);
    let gd = grad.raw_data();
    let gshape = grad.shape();
    let mut idx = shape::Dims::filled(rank, 0);
    let mut goff = grad.offset();
    let mut toff = 0usize;
    // Map every grad element to its (possibly collapsed) target slot.
    for _ in 0..grad.numel() {
        out[toff] += gd[goff];
        for dim in (0..rank).rev() {
            idx[dim] += 1;
            goff += gs[dim];
            if padded[dim] != 1 {
                toff += ts[dim];
            }
            if idx[dim] < gshape[dim] {
                break;
            }
            goff -= gs[dim] * gshape[dim];
            if padded[dim] != 1 {
                toff -= ts[dim] * gshape[dim];
            }
            idx[dim] = 0;
        }
    }
    Tensor::from_vec(out, target_shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(add(&a, &b).data(), &[4.0, 7.0]);
    }

    #[test]
    fn bias_add_fast_path() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = add(&a, &b);
        assert_eq!(c.data(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn general_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]);
        let c = mul(&a, &b);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[10.0, 20.0, 30.0, 20.0, 40.0, 60.0]);
    }

    #[test]
    fn scalar_broadcast() {
        let a = Tensor::arange(4).reshape(&[2, 2]);
        let s = Tensor::scalar(2.0);
        assert_eq!(mul(&a, &s).data(), &[0.0, 2.0, 4.0, 6.0]);
        assert_eq!(mul(&s, &a).data(), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic]
    fn incompatible_shapes_panic() {
        add(&Tensor::zeros(&[2]), &Tensor::zeros(&[3]));
    }

    #[test]
    fn unbroadcast_sums_expanded_dims() {
        // grad of shape [2,3], original was [1,3] -> sum over rows
        let g = Tensor::arange(6).reshape(&[2, 3]);
        let r = unbroadcast(&g, &[1, 3]);
        assert_eq!(r.data(), &[3.0, 5.0, 7.0]);
        // original was [3] (rank padded) -> same sums
        let r2 = unbroadcast(&g, &[3]);
        assert_eq!(r2.data(), &[3.0, 5.0, 7.0]);
        // original was scalar
        let r3 = unbroadcast(&g, &[]);
        assert_eq!(r3.item(), 15.0);
        // original was [2,1]
        let r4 = unbroadcast(&g, &[2, 1]);
        assert_eq!(r4.data(), &[3.0, 12.0]);
    }

    #[test]
    fn activations_match_reference_values() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0]);
        let s = sigmoid(&x);
        assert!((s.data()[0] - 0.268_941).abs() < 1e-5);
        assert!((s.data()[1] - 0.5).abs() < 1e-7);
        let g = gelu(&x);
        assert!((g.data()[0] - (-0.158_808)).abs() < 1e-4);
        assert!((g.data()[2] - 1.954_597).abs() < 1e-4);
    }

    #[test]
    fn gelu_matches_f64_tanh_form() {
        let x = Tensor::from_fn(&[4001], |i| (i as f32 - 2000.0) * 0.005); // [-10, 10]
        let y = gelu(&x);
        for (&xv, &got) in x.data().iter().zip(y.data()) {
            let xd = xv as f64;
            let u = (2.0 / std::f64::consts::PI).sqrt() * (xd + 0.044715 * xd * xd * xd);
            // 0.5·x·(1 + tanh u), written so f64 does not cancel for x ≪ 0.
            let want = xd / (1.0 + (-2.0 * u).exp());
            // Measured worst: 4.7e-7 absolute, at x ≈ 4.7 (1e-7 relative).
            let err = (got as f64 - want).abs();
            assert!(err <= 1e-6 * want.abs().max(1.0), "gelu({xv}) = {got}, want {want}");
        }
        assert_eq!(gelu(&Tensor::scalar(0.0)).item(), 0.0);
    }

    #[test]
    fn gelu_backward_matches_numerical() {
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 0.7, 3.0], &[5]);
        let g1 = Tensor::ones(&[5]);
        let analytic = gelu_backward(&x, &g1);
        let eps = 1e-3;
        for i in 0..5 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.data_mut()[i] += eps;
            xm.data_mut()[i] -= eps;
            let num = (gelu(&xp).data()[i] - gelu(&xm).data()[i]) / (2.0 * eps);
            assert!(
                (num - analytic.data()[i]).abs() < 1e-3,
                "gelu grad mismatch at {i}: {num} vs {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn relu_backward_masks_negative_inputs() {
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]);
        let g = Tensor::from_vec(vec![5.0, 5.0], &[2]);
        assert_eq!(relu_backward(&x, &g).data(), &[0.0, 5.0]);
    }
}
