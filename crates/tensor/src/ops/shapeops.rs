//! Shape-rearranging operations: permute, transpose, concat, narrow, gather.
//!
//! With the strided-view execution layer, `permute`, `transpose_last2`,
//! `narrow`, `slice`, and `split` are O(1) metadata edits returning views
//! over the input's buffer — no elements move. Operations that genuinely
//! rearrange memory (`concat`, `stack`, `index_select`) materialize their
//! inputs with [`Tensor::contiguous`] where their kernels need flat slices.

use std::ops::Range;

use crate::shape;
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
    let mut seen = vec![false; rank];
    for &p in perm {
        assert!(p < rank && !seen[p], "invalid permutation {perm:?}");
        seen[p] = true;
    }
    let out_shape: Vec<usize> = perm.iter().map(|&p| a.shape()[p]).collect();
    let out_strides: Vec<usize> = perm.iter().map(|&p| a.strides()[p]).collect();
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
    let mut perm: Vec<usize> = (0..rank).collect();
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
    let mut out_shape = first.to_vec();
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
    let mut out_shape = sh.to_vec();
    out_shape[axis] = len;
    let offset = a.offset() + start * a.strides()[axis];
    Tensor::view_of(a, out_shape, a.strides().to_vec(), offset)
}

/// Extracts the index range `r` along `axis` as a zero-copy view.
///
/// Sugar over [`narrow`] with a `Range` instead of start/length.
///
/// # Panics
///
/// Panics if the range is reversed or exceeds the dimension extent.
pub fn slice(a: &Tensor, axis: usize, r: Range<usize>) -> Tensor {
    assert!(r.start <= r.end, "reversed slice range {r:?}");
    narrow(a, axis, r.start, r.end - r.start)
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

/// Stacks same-shaped tensors along a new leading dimension.
///
/// # Panics
///
/// Panics on an empty list or mismatched shapes.
pub fn stack(tensors: &[&Tensor]) -> Tensor {
    assert!(!tensors.is_empty(), "stack of zero tensors");
    let shape = tensors[0].shape();
    let mut out = crate::workspace::take_reserve(tensors.len() * tensors[0].numel());
    for t in tensors {
        assert_eq!(t.shape(), shape, "stack shape mismatch");
        let c = t.contiguous();
        out.extend_from_slice(c.data());
    }
    let mut out_shape = vec![tensors.len()];
    out_shape.extend_from_slice(shape);
    Tensor::from_vec(out, &out_shape)
}

/// Splits a tensor into `parts` equal chunks along `axis` (inverse of a
/// same-axis [`concat`](fn@concat) of equal parts). Each chunk is a zero-copy view.
///
/// # Panics
///
/// Panics if `parts` does not divide the axis extent.
pub fn split(a: &Tensor, axis: usize, parts: usize) -> Vec<Tensor> {
    let sh = a.shape();
    assert!(axis < sh.len(), "split axis out of range");
    assert!(
        parts > 0 && sh[axis].is_multiple_of(parts),
        "{parts} parts must divide dim {}",
        sh[axis]
    );
    let chunk = sh[axis] / parts;
    (0..parts).map(|i| narrow(a, axis, i * chunk, chunk)).collect()
}

/// Gathers slices along dimension 0: `out[i] = a[indices[i]]`.
///
/// This doubles as an embedding lookup for integer token ids.
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn index_select(a: &Tensor, indices: &[usize]) -> Tensor {
    let sh = a.shape();
    assert!(!sh.is_empty(), "index_select requires rank >= 1");
    let inner: usize = sh[1..].iter().product();
    let a = a.contiguous();
    let data = a.data();
    let mut out = crate::workspace::take_reserve(indices.len() * inner);
    for &i in indices {
        assert!(i < sh[0], "index {i} out of bounds for dim {}", sh[0]);
        out.extend_from_slice(&data[i * inner..(i + 1) * inner]);
    }
    let mut out_shape = sh.to_vec();
    out_shape[0] = indices.len();
    Tensor::from_vec(out, &out_shape)
}

/// Adjoint of [`index_select`]: scatter-adds `grad` rows back to their
/// source rows (duplicated indices accumulate).
pub(crate) fn index_select_backward(
    grad: &Tensor,
    orig_shape: &[usize],
    indices: &[usize],
) -> Tensor {
    let inner: usize = orig_shape[1..].iter().product();
    let mut out = crate::workspace::take_zeroed(shape::numel(orig_shape));
    let grad = grad.contiguous();
    let gd = grad.data();
    for (row, &i) in indices.iter().enumerate() {
        let dst = &mut out[i * inner..(i + 1) * inner];
        let src = &gd[row * inner..(row + 1) * inner];
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
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
        let sl = slice(&t, 2, 1..3);
        let parts = split(&t, 2, 2);
        assert_eq!(
            copy_metrics::copies(),
            0,
            "permute/transpose/narrow/slice/split must be zero-copy views"
        );
        // The views still read the right elements.
        assert_eq!(p.at(&[3, 1, 2]), t.at(&[1, 2, 3]));
        assert_eq!(tr.at(&[0, 3, 2]), t.at(&[0, 2, 3]));
        assert_eq!(nr.at(&[1, 0, 0]), t.at(&[1, 1, 0]));
        assert_eq!(sl.at(&[0, 0, 1]), t.at(&[0, 0, 2]));
        assert_eq!(parts[1].at(&[0, 0, 0]), t.at(&[0, 0, 2]));
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

    #[test]
    fn index_select_and_scatter_add() {
        let t = Tensor::arange(6).reshape(&[3, 2]);
        let g = index_select(&t, &[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
        let grad = Tensor::ones(&[3, 2]);
        let back = index_select_backward(&grad, &[3, 2], &[2, 0, 2]);
        // Row 2 selected twice -> accumulates to 2.
        assert_eq!(back.data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }
}
