//! Shape algebra shared by every tensor operation.
//!
//! A shape is a `Vec<usize>` of row-major dimension extents. This module
//! centralizes the arithmetic on those extents: element counts, strides,
//! broadcasting, and multi-dimensional index/offset conversions.

/// Returns the number of elements implied by `shape`.
///
/// The empty shape `[]` denotes a scalar and has one element.
///
/// # Examples
///
/// ```
/// assert_eq!(tsdx_tensor::shape::numel(&[2, 3, 4]), 24);
/// assert_eq!(tsdx_tensor::shape::numel(&[]), 1);
/// ```
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Returns row-major strides for `shape`.
///
/// `strides(&[2, 3, 4]) == [12, 4, 1]`. The empty shape yields an empty
/// stride vector.
///
/// # Examples
///
/// ```
/// assert_eq!(tsdx_tensor::shape::strides(&[2, 3, 4]), vec![12, 4, 1]);
/// ```
pub fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![0; shape.len()];
    let mut acc = 1;
    for i in (0..shape.len()).rev() {
        s[i] = acc;
        acc *= shape[i];
    }
    s
}

/// Converts a multi-dimensional `index` into a flat row-major offset.
///
/// # Panics
///
/// Panics if `index` has a different rank than `shape` or any coordinate is
/// out of bounds (debug assertions).
pub(crate) fn offset_of(shape: &[usize], index: &[usize]) -> usize {
    debug_assert_eq!(shape.len(), index.len(), "rank mismatch in offset_of");
    let mut off = 0;
    let mut acc = 1;
    for i in (0..shape.len()).rev() {
        debug_assert!(index[i] < shape[i], "index out of bounds in offset_of");
        off += index[i] * acc;
        acc *= shape[i];
    }
    off
}

/// Converts a flat row-major `offset` into a multi-dimensional index.
pub fn index_of(shape: &[usize], mut offset: usize) -> Vec<usize> {
    let mut idx = vec![0; shape.len()];
    for i in (0..shape.len()).rev() {
        idx[i] = offset % shape[i];
        offset /= shape[i];
    }
    idx
}

/// Computes the broadcast shape of `a` and `b` under NumPy rules.
///
/// Shapes are right-aligned; each pair of extents must be equal or one of
/// them must be `1`. Returns `None` when the shapes are incompatible.
///
/// # Examples
///
/// ```
/// use tsdx_tensor::shape::broadcast;
/// assert_eq!(broadcast(&[4, 1, 3], &[2, 3]), Some(vec![4, 2, 3]));
/// assert_eq!(broadcast(&[2], &[3]), None);
/// ```
pub fn broadcast(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() { 1 } else { a[i - (rank - a.len())] };
        let db = if i < rank - b.len() { 1 } else { b[i - (rank - b.len())] };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
    }
    Some(out)
}

/// Right-aligns `shape` to `rank` dimensions by prepending `1`s.
pub(crate) fn pad_rank(shape: &[usize], rank: usize) -> Vec<usize> {
    assert!(shape.len() <= rank, "cannot pad shape to a smaller rank");
    let mut out = vec![1; rank];
    out[rank - shape.len()..].copy_from_slice(shape);
    out
}

/// Strides for walking a strided view of `shape`/`strides` as if broadcast
/// to shape `to`: expanded dimensions (extent 1 → extent > 1) get stride 0,
/// prepended dimensions get stride 0, and matching dimensions keep the
/// view's actual stride. `shape` must broadcast to `to`.
pub(crate) fn broadcast_view_strides(
    shape: &[usize],
    strides: &[usize],
    to: &[usize],
) -> Vec<usize> {
    assert_eq!(shape.len(), strides.len(), "shape/stride rank mismatch");
    let pad = to.len() - shape.len();
    let mut out = vec![0; to.len()];
    for i in 0..shape.len() {
        let (d, t) = (shape[i], to[pad + i]);
        assert!(d == t || d == 1, "shape does not broadcast to target");
        out[pad + i] = if d == t && t != 1 { strides[i] } else { 0 };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_handles_scalars_and_zeros() {
        assert_eq!(numel(&[]), 1);
        assert_eq!(numel(&[0, 3]), 0);
        assert_eq!(numel(&[2, 5]), 10);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[7]), vec![1]);
        assert_eq!(strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn offset_and_index_roundtrip() {
        let shape = [3, 4, 5];
        for off in 0..numel(&shape) {
            let idx = index_of(&shape, off);
            assert_eq!(offset_of(&shape, &idx), off);
        }
    }

    #[test]
    fn broadcast_rules() {
        assert_eq!(broadcast(&[2, 3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast(&[2, 1], &[1, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast(&[5, 1, 3], &[4, 3]), Some(vec![5, 4, 3]));
        assert_eq!(broadcast(&[], &[2, 2]), Some(vec![2, 2]));
        assert_eq!(broadcast(&[3], &[4]), None);
    }

    #[test]
    fn broadcast_view_strides_zeroes_expanded_dims() {
        assert_eq!(broadcast_view_strides(&[1, 3], &[3, 1], &[4, 2, 3]), vec![0, 0, 1]);
        assert_eq!(broadcast_view_strides(&[2, 3], &[3, 1], &[2, 3]), vec![3, 1]);
    }

    #[test]
    #[should_panic]
    fn pad_rank_rejects_shrinking() {
        pad_rank(&[2, 3], 1);
    }
}
