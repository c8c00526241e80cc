//! Shape algebra shared by every tensor operation.
//!
//! A shape is a [`Dims`]: the row-major dimension extents held inline, at
//! most [`MAX_RANK`] of them, so building, copying or editing one never
//! calls the allocator. This module centralizes the arithmetic on those
//! extents: element counts, strides, broadcasting, and multi-dimensional
//! index/offset conversions.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// The most dimensions a tensor may have. The models build nothing above
/// rank 5; a higher rank panics naming this limit.
pub const MAX_RANK: usize = 6;

/// Up to [`MAX_RANK`] extents (or strides) held inline: a fixed array and a
/// length, `Copy`, read and written as a `[usize]` slice.
///
/// # Examples
///
/// ```
/// use tsdx_tensor::shape::Dims;
/// let mut d = Dims::new(&[2, 3, 4]);
/// d[0] = 5;
/// assert_eq!(d[..], [5, 3, 4]);
/// assert_eq!(format!("{d:?}"), "[5, 3, 4]");
/// ```
#[derive(Clone, Copy)]
pub struct Dims {
    len: usize,
    dims: [usize; MAX_RANK],
}

impl Dims {
    /// `dims`, held inline. Panics above [`MAX_RANK`] entries.
    pub fn new(dims: &[usize]) -> Dims {
        let mut d = Dims::filled(dims.len(), 0);
        // Six fixed slots rather than a copy of `len`: no `memcpy` call.
        for (i, o) in d.dims.iter_mut().enumerate() {
            *o = dims.get(i).copied().unwrap_or(0);
        }
        d
    }

    /// `rank` copies of `v`. Panics if `rank` exceeds [`MAX_RANK`].
    pub(crate) fn filled(rank: usize, v: usize) -> Dims {
        within_limit(rank);
        Dims { len: rank, dims: [v; MAX_RANK] }
    }

    /// Appends `d` as the new last entry. Panics past [`MAX_RANK`] entries.
    pub(crate) fn push(&mut self, d: usize) {
        within_limit(self.len + 1);
        self.dims[self.len] = d;
        self.len += 1;
    }
}

fn within_limit(rank: usize) {
    assert!(rank <= MAX_RANK, "rank {rank} exceeds the tensor rank limit of {MAX_RANK}");
}

// `len` never exceeds `MAX_RANK`; the `min` tells the compiler so, which
// drops the bounds check and its panic path from every shape read.
impl Deref for Dims {
    type Target = [usize];

    #[inline]
    fn deref(&self) -> &[usize] {
        &self.dims[..self.len.min(MAX_RANK)]
    }
}

impl DerefMut for Dims {
    #[inline]
    fn deref_mut(&mut self) -> &mut [usize] {
        &mut self.dims[..self.len.min(MAX_RANK)]
    }
}

impl<'a> IntoIterator for &'a Dims {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Panics past [`MAX_RANK`] entries.
impl FromIterator<usize> for Dims {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Dims {
        let mut d = Dims::filled(0, 0);
        iter.into_iter().for_each(|x| d.push(x));
        d
    }
}

impl PartialEq for Dims {
    fn eq(&self, other: &Dims) -> bool {
        self[..] == other[..]
    }
}

/// As the slice: `[2, 3]`.
impl fmt::Debug for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self[..], f)
    }
}

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
    // A scalar chain: over an inline shape LLVM would otherwise emit a
    // masked AVX2 product, several times the cost of six multiplies.
    shape.iter().try_fold(1, |n: usize, &d| n.checked_mul(d)).expect("element count overflows")
}

/// Returns row-major strides for `shape`.
///
/// The empty shape yields empty strides.
///
/// # Examples
///
/// ```
/// assert_eq!(tsdx_tensor::shape::strides(&[2, 3, 4])[..], [12, 4, 1]);
/// ```
pub fn strides(shape: &[usize]) -> Dims {
    let mut s = Dims::filled(shape.len(), 0);
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
pub fn index_of(shape: &[usize], mut offset: usize) -> Dims {
    let mut idx = Dims::filled(shape.len(), 0);
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
/// assert_eq!(broadcast(&[4, 1, 3], &[2, 3]).unwrap()[..], [4, 2, 3]);
/// assert_eq!(broadcast(&[2], &[3]), None);
/// ```
pub fn broadcast(a: &[usize], b: &[usize]) -> Option<Dims> {
    let rank = a.len().max(b.len());
    let mut out = Dims::filled(rank, 0);
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
pub(crate) fn pad_rank(shape: &[usize], rank: usize) -> Dims {
    assert!(shape.len() <= rank, "cannot pad shape to a smaller rank");
    let mut out = Dims::filled(rank, 1);
    out[rank - shape.len()..].copy_from_slice(shape);
    out
}

/// Strides for walking a strided view of `shape`/`strides` as if broadcast
/// to shape `to`: expanded dimensions (extent 1 → extent > 1) get stride 0,
/// prepended dimensions get stride 0, and matching dimensions keep the
/// view's actual stride. `shape` must broadcast to `to`.
pub(crate) fn broadcast_view_strides(shape: &[usize], strides: &[usize], to: &[usize]) -> Dims {
    assert_eq!(shape.len(), strides.len(), "shape/stride rank mismatch");
    let pad = to.len() - shape.len();
    let mut out = Dims::filled(to.len(), 0);
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
        assert_eq!(strides(&[2, 3, 4])[..], [12, 4, 1]);
        assert_eq!(strides(&[7])[..], [1]);
        assert!(strides(&[]).is_empty());
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
        let bc = |a: &[usize], b: &[usize]| broadcast(a, b).map(|d| d.to_vec());
        assert_eq!(bc(&[2, 3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(bc(&[2, 1], &[1, 3]), Some(vec![2, 3]));
        assert_eq!(bc(&[5, 1, 3], &[4, 3]), Some(vec![5, 4, 3]));
        assert_eq!(bc(&[], &[2, 2]), Some(vec![2, 2]));
        assert_eq!(bc(&[3], &[4]), None);
    }

    #[test]
    fn broadcast_view_strides_zeroes_expanded_dims() {
        assert_eq!(broadcast_view_strides(&[1, 3], &[3, 1], &[4, 2, 3])[..], [0, 0, 1]);
        assert_eq!(broadcast_view_strides(&[2, 3], &[3, 1], &[2, 3])[..], [3, 1]);
    }

    #[test]
    #[should_panic]
    fn pad_rank_rejects_shrinking() {
        pad_rank(&[2, 3], 1);
    }
}
