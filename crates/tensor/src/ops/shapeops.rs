//! Shape-rearranging operations: permute, transpose, concat, narrow.
//!
//! With the strided-view execution layer, `permute`, `transpose_last2` and
//! `narrow` are O(1) metadata edits returning views over the input's
//! buffer — no elements move. `concat`, which genuinely rearranges memory,
//! materializes its inputs with [`Tensor::contiguous`] where its kernel
//! needs flat slices.

use crate::shape::{self, Dims};
use crate::Tensor;

/// Reorders dimensions according to `perm` (a permutation of `0..rank`).
///
/// Returns a zero-copy view: the result shares the input's buffer with
/// permuted shape and strides.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of the dimension indices.
///
/// # Examples
///
/// ```
/// use tsdx_tensor::{ops, Tensor};
/// let t = Tensor::arange(6).reshape(&[2, 3]);
/// let p = ops::permute(&t, &[1, 0]);
/// assert_eq!(p.shape(), &[3, 2]);
/// assert_eq!(p.at(&[2, 1]), t.at(&[1, 2]));
/// ```
pub fn permute(a: &Tensor, perm: &[usize]) -> Tensor {
    let rank = a.rank();
    assert_eq!(perm.len(), rank, "permutation rank mismatch");
    let mut seen = [false; shape::MAX_RANK];
    for &p in perm {
        assert!(p < rank && !seen[p], "invalid permutation {perm:?}");
        seen[p] = true;
    }
    let out_shape = perm.iter().map(|&p| a.shape()[p]).collect();
    let out_strides = perm.iter().map(|&p| a.strides()[p]).collect();
    Tensor::view_of(a, out_shape, out_strides, a.offset())
}

/// Swaps the last two dimensions (matrix transpose over the batch) as a
/// zero-copy view.
///
/// # Panics
///
/// Panics if `a.rank() < 2`.
pub fn transpose_last2(a: &Tensor) -> Tensor {
    let rank = a.rank();
    assert!(rank >= 2, "transpose_last2 requires rank >= 2");
    let mut perm: Dims = (0..rank).collect();
    perm.swap(rank - 2, rank - 1);
    permute(a, &perm)
}

/// Concatenates tensors along dimension `axis`.
///
/// All inputs must agree on every dimension except `axis`.
///
/// # Panics
///
/// Panics on an empty input list, mismatched shapes, or `axis` out of range.
pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
    assert!(!tensors.is_empty(), "concat of zero tensors");
    let first = tensors[0].shape();
    assert!(axis < first.len(), "concat axis out of range");
    let mut axis_total = 0;
    for t in tensors {
        let sh = t.shape();
        assert_eq!(sh.len(), first.len(), "concat rank mismatch");
        for (d, (&a, &b)) in sh.iter().zip(first).enumerate() {
            assert!(d == axis || a == b, "concat shape mismatch on dim {d}");
        }
        axis_total += sh[axis];
    }
    let mut out_shape = Dims::new(first);
    out_shape[axis] = axis_total;

    // The chunk-copy kernel wants flat slices; views are gathered once here.
    let owned: Vec<Tensor> = tensors.iter().map(|t| t.contiguous()).collect();
    let outer: usize = first[..axis].iter().product();
    let inner: usize = first[axis + 1..].iter().product();
    let mut out = crate::workspace::take_reserve(shape::numel(&out_shape));
    for o in 0..outer {
        for t in &owned {
            let d = t.shape()[axis];
            let chunk = d * inner;
            let src = &t.data()[o * chunk..(o + 1) * chunk];
            out.extend_from_slice(src);
        }
    }
    Tensor::from_vec(out, &out_shape)
}

/// Extracts `len` consecutive slices starting at `start` along `axis`.
///
/// Returns a zero-copy view: only the offset and the `axis` extent change.
///
/// # Panics
///
/// Panics if the range exceeds the dimension extent.
pub fn narrow(a: &Tensor, axis: usize, start: usize, len: usize) -> Tensor {
    let sh = a.shape();
    assert!(axis < sh.len(), "narrow axis out of range");
    assert!(
        start + len <= sh[axis],
        "narrow range {start}..{} exceeds dim {}",
        start + len,
        sh[axis]
    );
    let mut out_shape = Dims::new(sh);
    out_shape[axis] = len;
    let offset = a.offset() + start * a.strides()[axis];
    Tensor::view_of(a, out_shape, Dims::new(a.strides()), offset)
}

/// Adjoint of [`narrow`]: scatters `grad` back into a zero tensor shaped like
/// the original input.
pub(crate) fn narrow_backward(
    grad: &Tensor,
    orig_shape: &[usize],
    axis: usize,
    start: usize,
) -> Tensor {
    let outer: usize = orig_shape[..axis].iter().product();
    let inner: usize = orig_shape[axis + 1..].iter().product();
    let d = orig_shape[axis];
    let len = grad.shape()[axis];
    let mut out = crate::workspace::take_zeroed(shape::numel(orig_shape));
    let grad = grad.contiguous();
    let gd = grad.data();
    for o in 0..outer {
        let dst = (o * d + start) * inner;
        let src = o * len * inner;
        out[dst..dst + len * inner].copy_from_slice(&gd[src..src + len * inner]);
    }
    Tensor::from_vec(out, orig_shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copy_metrics;

    #[test]
    fn permute_3d() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let p = permute(&t, &[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(p.at(&[k, i, j]), t.at(&[i, j, k]));
                }
            }
        }
    }

    #[test]
    fn permute_identity_roundtrip() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        let back = permute(&permute(&t, &[1, 0]), &[1, 0]);
        assert_eq!(back, t);
    }

    #[test]
    #[should_panic]
    fn permute_rejects_duplicates() {
        permute(&Tensor::zeros(&[2, 2]), &[0, 0]);
    }

    #[test]
    fn view_ops_copy_nothing() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let _scope = crate::metrics::scope();
        let p = permute(&t, &[2, 0, 1]);
        let tr = transpose_last2(&t);
        let nr = narrow(&t, 1, 1, 2);
        assert_eq!(copy_metrics::copies(), 0, "permute/transpose/narrow must be zero-copy views");
        // The views still read the right elements.
        assert_eq!(p.at(&[3, 1, 2]), t.at(&[1, 2, 3]));
        assert_eq!(tr.at(&[0, 3, 2]), t.at(&[0, 2, 3]));
        assert_eq!(nr.at(&[1, 0, 0]), t.at(&[1, 1, 0]));
    }

    #[test]
    fn transpose_matrix() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = transpose_last2(&t);
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.to_vec(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn concat_middle_axis() {
        let a = Tensor::arange(4).reshape(&[2, 1, 2]);
        let b = Tensor::from_vec(vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0], &[2, 2, 2]);
        let c = concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 3, 2]);
        assert_eq!(c.data(), &[0.0, 1.0, 10.0, 11.0, 12.0, 13.0, 2.0, 3.0, 14.0, 15.0, 16.0, 17.0]);
    }

    #[test]
    fn concat_accepts_views() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        let left = narrow(&t, 1, 0, 2);
        let right = narrow(&t, 1, 2, 2);
        let c = concat(&[&left, &right], 1);
        assert_eq!(c, t);
    }

    #[test]
    fn narrow_and_backward_roundtrip() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        let n = narrow(&t, 1, 1, 2);
        assert_eq!(n.shape(), &[3, 2]);
        assert_eq!(n.to_vec(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
        let back = narrow_backward(&n, &[3, 4], 1, 1);
        assert_eq!(back.data(), &[0.0, 1.0, 2.0, 0.0, 0.0, 5.0, 6.0, 0.0, 0.0, 9.0, 10.0, 0.0]);
    }

    #[test]
    fn narrow_axis0() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        let n = narrow(&t, 0, 2, 1);
        assert_eq!(n.shape(), &[1, 4]);
        // An axis-0 narrow of a contiguous tensor is itself contiguous.
        assert!(n.is_contiguous());
        assert_eq!(n.data(), &[8.0, 9.0, 10.0, 11.0]);
    }
}
