//! The dense, row-major `f32` tensor value type with strided views.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::shape::{self, Dims};
use crate::workspace::{self, Buffer};

/// Scoped counting of buffer materializations.
///
/// Every time a tensor's elements are physically copied to satisfy a layout
/// requirement (a `contiguous()` gather, a copy-on-write in
/// [`Tensor::data_mut`], a reshape of a non-contiguous view), the counter
/// [`KEY`](copy_metrics::KEY) increments in every full [`crate::metrics`]
/// scope open on the calling thread (it is an op-level record: a
/// [`crate::metrics::stage_scope`] does not count it). View operations — `reshape` of contiguous
/// tensors, `permute`, `transpose`, `narrow` — must not
/// move data and therefore must not bump this counter; tests assert exactly
/// that by opening a fresh scope and asserting the absolute count, which
/// cannot race with concurrently running tests (scopes are thread-local).
pub mod copy_metrics {
    use crate::metrics;

    /// Metric key under which buffer materializations are counted.
    pub const KEY: &str = "tensor/copies";

    /// Number of buffer materializations observed by the innermost open
    /// [`crate::metrics`] scope on this thread (0 when no scope is open, or
    /// when the innermost one is a stage scope, which does not count them).
    ///
    /// Open a fresh full [`metrics::scope`] innermost around the code under
    /// test and read the absolute value — never diff two reads of an ambient
    /// counter.
    pub fn copies() -> usize {
        metrics::current_counter(KEY) as usize
    }

    // Copies are recorded on the thread that calls the op — the parallel
    // matmul materializes operands before dispatching to workers.
    pub(crate) fn record_copy() {
        metrics::counter_add(KEY, 1);
    }
}

/// A dense, row-major tensor of `f32` values, possibly a strided view.
///
/// `Tensor` has value semantics: operations return new tensors and never
/// mutate their inputs. Cloning is cheap — the buffer is behind an [`Arc`]
/// and is copied lazily on mutation ([`Tensor::data_mut`]).
///
/// A tensor is a `(shape, strides, offset)` window over its shared buffer;
/// shape and strides are inline [`Dims`] (at most [`shape::MAX_RANK`]
/// dimensions), so a view or a clone allocates nothing and a new tensor
/// only its buffer's `Arc` header.
/// Freshly constructed tensors are contiguous; layout ops like `permute` and
/// `narrow` return views that reinterpret the same buffer without copying.
/// Kernels that need a flat slice call [`Tensor::contiguous`] (cheap when
/// already contiguous) or read through the stride metadata directly.
///
/// # Examples
///
/// ```
/// use tsdx_tensor::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// ```
#[derive(Clone)]
pub struct Tensor {
    shape: Dims,
    strides: Dims,
    offset: usize,
    data: Arc<Buffer>,
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the element count of `shape`,
    /// or `shape` has more than [`shape::MAX_RANK`] dimensions.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape::numel(shape),
            "buffer length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: Dims::new(shape),
            strides: shape::strides(shape),
            offset: 0,
            data: Arc::new(Buffer::new(data)),
        }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::from_vec(vec![v], &[])
    }

    /// Creates a tensor filled with `v`.
    ///
    /// The buffer comes from the [`crate::workspace`] arena when recycling
    /// is on; the fresh-allocation path is `vec![v; n]`, which for `0.0`
    /// the allocator serves from calloc-backed zero pages instead of a
    /// push-loop.
    pub fn full(shape: &[usize], v: f32) -> Self {
        Tensor::from_vec(workspace::take_filled(shape::numel(shape), v), shape)
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = shape::numel(shape);
        Tensor::from_extend(shape, |data| data.extend((0..n).map(&mut f)))
    }

    /// Creates a tensor from what `fill` appends, in row-major order, to an
    /// empty buffer with room for the whole of `shape` — taken from the
    /// [`crate::workspace`] arena when recycling is on, so a gather or a
    /// stack of inputs costs no allocation and no zero-fill.
    ///
    /// ```
    /// use tsdx_tensor::Tensor;
    /// let rows = [[1.0, 2.0], [3.0, 4.0]];
    /// let t = Tensor::from_extend(&[2, 2], |data| {
    ///     rows.iter().for_each(|row| data.extend_from_slice(row));
    /// });
    /// assert_eq!(t.at(&[1, 0]), 3.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `fill` leaves any other number of elements than `shape` has.
    pub fn from_extend(shape: &[usize], fill: impl FnOnce(&mut Vec<f32>)) -> Self {
        let mut data = workspace::take_reserve(shape::numel(shape));
        fill(&mut data);
        Tensor::from_vec(data, shape)
    }

    /// Creates a tensor from what `fill` writes over a buffer of the whole
    /// of `shape`, with no zero-fill pass: a recycled buffer keeps its stale
    /// values until then, so `fill` must write every element (unwritten
    /// ones would make the result depend on the [`crate::workspace`] arena).
    pub fn from_overwrite(shape: &[usize], fill: impl FnOnce(&mut [f32])) -> Self {
        let mut data = workspace::take_uninit(shape::numel(shape));
        fill(&mut data);
        Tensor::from_vec(data, shape)
    }

    /// Creates a rank-1 tensor holding `0.0, 1.0, ..., (n-1).0`.
    pub fn arange(n: usize) -> Self {
        Tensor::from_fn(&[n], |i| i as f32)
    }

    /// Builds a view over `base`'s buffer with explicit layout metadata.
    ///
    /// Callers (the shape ops) are responsible for choosing `shape`,
    /// `strides`, and `offset` such that every reachable element lies inside
    /// the buffer; this is checked in debug builds.
    pub(crate) fn view_of(base: &Tensor, shape: Dims, strides: Dims, offset: usize) -> Tensor {
        debug_assert_eq!(shape.len(), strides.len(), "view rank mismatch");
        debug_assert!(
            shape::numel(&shape) == 0
                || offset + shape.iter().zip(&strides).map(|(&d, &s)| (d - 1) * s).sum::<usize>()
                    < base.data.len(),
            "view escapes buffer: shape {shape:?} strides {strides:?} offset {offset}"
        );
        Tensor { shape, strides, offset, data: Arc::clone(&base.data) }
    }

    /// The dimension extents of this tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The per-dimension element strides into the backing buffer.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// The starting offset of this view in the backing buffer.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The backing buffer, ignoring this view's window. Kernels that walk
    /// strides index `raw_data()[offset + Σ idxᵢ·strideᵢ]`.
    pub(crate) fn raw_data(&self) -> &[f32] {
        &self.data
    }

    /// The rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        shape::numel(&self.shape)
    }

    /// The extent of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.rank()`.
    pub fn dim(&self, dim: usize) -> usize {
        self.shape[dim]
    }

    /// True when elements are laid out densely in row-major order, so the
    /// logical element sequence is a single slice of the buffer.
    ///
    /// Dimensions of extent 1 (and empty tensors) place no constraint on
    /// their stride.
    pub fn is_contiguous(&self) -> bool {
        if self.numel() == 0 {
            return true;
        }
        let mut acc = 1;
        for i in (0..self.shape.len()).rev() {
            if self.shape[i] == 1 {
                continue;
            }
            if self.strides[i] != acc {
                return false;
            }
            acc *= self.shape[i];
        }
        true
    }

    /// Returns a contiguous tensor with the same logical contents.
    ///
    /// Cheap (an `Arc` clone) when `self` is already contiguous; otherwise
    /// gathers into a fresh buffer and records a copy in
    /// [`copy_metrics`].
    pub fn contiguous(&self) -> Tensor {
        if self.is_contiguous() {
            return self.clone();
        }
        copy_metrics::record_copy();
        Tensor::from_vec(self.to_vec(), &self.shape)
    }

    /// The logical elements in row-major order as a fresh vector.
    pub fn to_vec(&self) -> Vec<f32> {
        let mut v = workspace::take_reserve(self.numel());
        if self.is_contiguous() {
            v.extend_from_slice(&self.data[self.offset..self.offset + self.numel()]);
            return v;
        }
        // Copy the view's dense trailing runs whole (the head-merge permute
        // keeps 16-float rows intact) and walk only the dims outside them.
        let (mut outer, mut run) = (self.shape.len(), 1);
        while outer > 0 && (self.shape[outer - 1] == 1 || self.strides[outer - 1] == run) {
            run *= self.shape[outer - 1];
            outer -= 1;
        }
        let mut starts = self.iter_prefix(outer);
        while let Some(off) = starts.next_offset() {
            v.extend_from_slice(&self.data[off..off + run]);
        }
        v
    }

    /// The logical elements in row-major order as one slice: borrowed when
    /// the tensor is contiguous, gathered ([`Tensor::to_vec`]) otherwise.
    pub fn flat(&self) -> Cow<'_, [f32]> {
        if self.is_contiguous() {
            Cow::Borrowed(self.data())
        } else {
            Cow::Owned(self.to_vec())
        }
    }

    /// Read-only view of the flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is a non-contiguous view; call
    /// [`Tensor::contiguous`] first (or iterate through the stride
    /// metadata).
    pub fn data(&self) -> &[f32] {
        assert!(
            self.is_contiguous(),
            "data() requires a contiguous tensor; this is a view with shape {:?} and strides \
             {:?} — call contiguous() first",
            self.shape,
            self.strides
        );
        &self.data[self.offset..self.offset + self.numel()]
    }

    /// Mutable view of the flat buffer.
    ///
    /// Copies only when necessary: a uniquely-owned contiguous tensor hands
    /// out its buffer directly (`Arc::get_mut` fast path); a shared or
    /// non-contiguous one first materializes a private copy.
    pub fn data_mut(&mut self) -> &mut [f32] {
        let n = self.numel();
        let canonical = self.offset == 0 && self.data.len() == n && self.is_contiguous();
        if !canonical {
            // A view (or a window into a larger buffer): gather into a
            // fresh, exactly-sized private buffer.
            copy_metrics::record_copy();
            let v = self.to_vec();
            self.data = Arc::new(Buffer::new(v));
            self.offset = 0;
            self.strides = shape::strides(&self.shape);
        } else if Arc::get_mut(&mut self.data).is_none() {
            // Shared buffer: clone-on-write.
            copy_metrics::record_copy();
            self.data = Arc::new(self.data.duplicate());
        }
        Arc::get_mut(&mut self.data).expect("buffer is uniquely owned here").as_mut_slice()
    }

    /// Element at a multi-dimensional `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or coordinates are invalid.
    pub fn at(&self, index: &[usize]) -> f32 {
        assert_eq!(index.len(), self.rank(), "rank mismatch in at()");
        let mut off = self.offset;
        for (d, (&i, &s)) in index.iter().zip(&self.strides).enumerate() {
            assert!(i < self.shape[d], "index {i} out of bounds for dim {d} in at()");
            off += i * s;
        }
        self.data[off]
    }

    /// Sets the element at `index` to `v`.
    pub fn set(&mut self, index: &[usize], v: f32) {
        // data_mut() canonicalizes the layout, so row-major offsets apply.
        let off = shape::offset_of(&self.shape, index);
        self.data_mut()[off] = v;
    }

    /// The value of a scalar (single-element) tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires a single-element tensor, shape {:?}",
            self.shape
        );
        self.data[self.offset]
    }

    /// Returns a tensor with the same elements and a new shape.
    ///
    /// A `usize::MAX` entry acts as a wildcard inferred from the remaining
    /// extents (at most one wildcard). On a contiguous tensor this is a
    /// zero-copy view; a non-contiguous view is first materialized.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ, inference is impossible, or
    /// `new_shape` has more than [`shape::MAX_RANK`] dimensions.
    pub fn reshape(&self, new_shape: &[usize]) -> Tensor {
        let resolved = resolve_wildcard(new_shape, self.numel());
        assert_eq!(
            shape::numel(&resolved),
            self.numel(),
            "reshape from {:?} to {:?} changes element count",
            self.shape,
            resolved
        );
        let src = self.contiguous();
        let strides = shape::strides(&resolved);
        Tensor { shape: resolved, strides, offset: src.offset, data: src.data }
    }

    /// Iterates the logical elements in row-major order.
    pub(crate) fn iter_elems(&self) -> ElemIter<'_> {
        self.iter_prefix(self.shape.len())
    }

    /// Row-major walk over the leading `dims` dimensions only, the trailing
    /// ones held at index 0.
    fn iter_prefix(&self, dims: usize) -> ElemIter<'_> {
        ElemIter {
            data: &self.data,
            shape: &self.shape[..dims],
            strides: &self.strides[..dims],
            idx: Dims::filled(dims, 0),
            off: self.offset,
            remaining: shape::numel(&self.shape[..dims]),
        }
    }

    /// Applies `f` elementwise, returning a new (contiguous) tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut v = workspace::take_reserve(self.numel());
        if self.is_contiguous() {
            let d = &self.data[self.offset..self.offset + self.numel()];
            v.extend(d.iter().map(|&x| f(x)));
        } else {
            v.extend(self.iter_elems().map(f));
        }
        Tensor::from_vec(v, &self.shape)
    }

    /// Combines two same-shaped tensors elementwise (no broadcasting; see
    /// [`crate::ops`] for broadcasting arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip requires identical shapes");
        let mut v = workspace::take_reserve(self.numel());
        if self.is_contiguous() && other.is_contiguous() {
            let a = &self.data[self.offset..self.offset + self.numel()];
            let b = &other.data[other.offset..other.offset + other.numel()];
            v.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y)));
        } else {
            v.extend(self.iter_elems().zip(other.iter_elems()).map(|(x, y)| f(x, y)));
        }
        Tensor::from_vec(v, &self.shape)
    }

    /// True when all elements of `self` and `other` differ by at most `tol`.
    ///
    /// Shapes must match exactly; returns `false` otherwise.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .iter_elems()
                .zip(other.iter_elems())
                .all(|(a, b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        if self.is_contiguous() {
            self.data[self.offset..self.offset + self.numel()].iter().sum()
        } else {
            self.iter_elems().sum()
        }
    }

    /// Mean of all elements (`NaN` for empty tensors).
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        self.iter_elems().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`+inf` for empty tensors).
    pub fn min(&self) -> f32 {
        self.iter_elems().fold(f32::INFINITY, f32::min)
    }

    /// True if any element is `NaN` or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.first_non_finite().is_some()
    }

    /// Row-major flat index of the first `NaN` or infinite element, scanned
    /// in place (no copy, whatever the layout).
    pub fn first_non_finite(&self) -> Option<usize> {
        if !self.is_contiguous() {
            return self.iter_elems().position(|x| !x.is_finite());
        }
        // An early-exit search does not vectorize; a branch-free verdict per
        // block does, and only a block that fails is searched.
        const BLOCK: usize = 64;
        let blocks = self.data().chunks(BLOCK);
        for (b, block) in blocks.enumerate() {
            if !block.iter().fold(true, |ok, x| ok & x.is_finite()) {
                let i = block.iter().position(|x| !x.is_finite());
                return i.map(|i| b * BLOCK + i);
            }
        }
        None
    }
}

/// Row-major traversal of a (possibly strided) tensor's elements.
pub(crate) struct ElemIter<'a> {
    data: &'a [f32],
    shape: &'a [usize],
    strides: &'a [usize],
    idx: Dims,
    off: usize,
    remaining: usize,
}

impl ElemIter<'_> {
    /// Buffer offset of the next element in row-major order.
    fn next_offset(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        let off = self.off;
        self.remaining -= 1;
        // Odometer increment over the index, updating the offset in place.
        for dim in (0..self.shape.len()).rev() {
            self.idx[dim] += 1;
            self.off += self.strides[dim];
            if self.idx[dim] < self.shape[dim] {
                break;
            }
            self.off -= self.strides[dim] * self.shape[dim];
            self.idx[dim] = 0;
        }
        Some(off)
    }
}

impl Iterator for ElemIter<'_> {
    type Item = f32;

    fn next(&mut self) -> Option<f32> {
        self.next_offset().map(|off| self.data[off])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ElemIter<'_> {}

impl PartialEq for Tensor {
    /// Logical equality: same shape and identical elements, regardless of
    /// the underlying layout (a transposed view equals its materialization).
    fn eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape && self.iter_elems().zip(other.iter_elems()).all(|(a, b)| a == b)
    }
}

impl Default for Tensor {
    /// The scalar `0.0`.
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

fn resolve_wildcard(shape: &[usize], numel: usize) -> Dims {
    let wilds = shape.iter().filter(|&&d| d == usize::MAX).count();
    assert!(wilds <= 1, "at most one wildcard dimension allowed in reshape");
    if wilds == 0 {
        return Dims::new(shape);
    }
    let known: usize = shape.iter().filter(|&&d| d != usize::MAX).product();
    assert!(
        known > 0 && numel.is_multiple_of(known),
        "cannot infer wildcard dimension for {numel} elements"
    );
    shape.iter().map(|&d| if d == usize::MAX { numel / known } else { d }).collect()
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ", self.shape)?;
        const LIMIT: usize = 16;
        let preview: Vec<f32> = self.iter_elems().take(LIMIT + 1).collect();
        if preview.len() <= LIMIT {
            write!(f, "{preview:?}")
        } else {
            write!(f, "{:?}...", &preview[..LIMIT])
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f32> for Tensor {
    fn from(v: f32) -> Self {
        Tensor::scalar(v)
    }
}

impl From<Vec<f32>> for Tensor {
    /// Builds a rank-1 tensor from a flat vector.
    fn from(v: Vec<f32>) -> Self {
        let n = v.len();
        Tensor::from_vec(v, &[n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.dim(1), 3);
        assert_eq!(t.at(&[0, 2]), 3.0);
        assert_eq!(t.at(&[1, 0]), 4.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_wrong_length() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn clone_is_cow() {
        let a = Tensor::zeros(&[4]);
        let mut b = a.clone();
        b.set(&[0], 9.0);
        assert_eq!(a.at(&[0]), 0.0);
        assert_eq!(b.at(&[0]), 9.0);
    }

    #[test]
    fn data_mut_skips_copy_when_unique() {
        let mut t = Tensor::arange(64);
        let _scope = crate::metrics::scope();
        t.data_mut()[0] = 5.0;
        t.data_mut()[1] = 6.0;
        assert_eq!(
            copy_metrics::copies(),
            0,
            "uniquely-owned contiguous buffer must mutate in place"
        );
        assert_eq!(t.at(&[0]), 5.0);
    }

    #[test]
    fn data_mut_copies_when_shared() {
        let mut t = Tensor::arange(8);
        let keep = t.clone();
        let _scope = crate::metrics::scope();
        t.data_mut()[0] = -1.0;
        assert_eq!(copy_metrics::copies(), 1);
        assert_eq!(keep.at(&[0]), 0.0);
    }

    #[test]
    fn reshape_shares_buffer_and_infers_wildcard() {
        let t = Tensor::arange(12);
        let r = t.reshape(&[3, usize::MAX]);
        assert_eq!(r.shape(), &[3, 4]);
        assert_eq!(r.at(&[2, 3]), 11.0);
    }

    #[test]
    fn reshape_of_contiguous_is_zero_copy() {
        let t = Tensor::arange(24);
        let _scope = crate::metrics::scope();
        let r = t.reshape(&[2, 3, 4]).reshape(&[6, 4]).reshape(&[24]);
        assert_eq!(copy_metrics::copies(), 0);
        assert_eq!(r, t);
    }

    #[test]
    #[should_panic]
    fn reshape_rejects_bad_count() {
        Tensor::arange(12).reshape(&[5, 3]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn allclose_tolerates_small_diffs() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0 + 1e-7, 2.0], &[2]);
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&b.reshape(&[2, 1]), 1e-5));
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(7.5).item(), 7.5);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.zip(&b, |x, y| x + y).data(), &[11.0, 22.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.set(&[1], f32::NAN);
        assert!(t.has_non_finite());
    }

    #[test]
    fn to_vec_copies_dense_runs_of_strided_views_in_logical_order() {
        // Head-merge layout: [B, H, T, Dh] viewed as [B, T, H, Dh] keeps its
        // Dh-long rows dense; an extent-1 dim with a junk stride must not
        // break the run, and a narrowed view must honour its offset.
        let t = Tensor::arange(2 * 3 * 4 * 5).reshape(&[2, 3, 4, 5]);
        let views = [
            Tensor::view_of(&t, Dims::new(&[2, 4, 3, 5]), Dims::new(&[60, 5, 20, 1]), 0),
            Tensor::view_of(&t, Dims::new(&[2, 4, 1, 3, 5]), Dims::new(&[60, 5, 7, 20, 1]), 0),
            Tensor::view_of(&t, Dims::new(&[3, 2, 5]), Dims::new(&[20, 5, 1]), 60 + 10),
            Tensor::view_of(&t, Dims::new(&[5, 4]), Dims::new(&[1, 5]), 0),
        ];
        for v in &views {
            assert!(!v.is_contiguous());
            let want: Vec<f32> =
                (0..v.numel()).map(|i| v.at(&shape::index_of(v.shape(), i))).collect();
            assert_eq!(v.to_vec(), want, "shape {:?} strides {:?}", v.shape(), v.strides());
        }
    }

    #[test]
    fn first_non_finite_reports_the_row_major_index() {
        // Past the first scan block, with a later offender that must not win.
        let mut t = Tensor::zeros(&[3, 50]);
        assert_eq!(t.first_non_finite(), None);
        t.set(&[2, 49], f32::NAN);
        t.set(&[1, 20], f32::INFINITY);
        assert_eq!(t.first_non_finite(), Some(70));
        // A transposed view is scanned in its own logical order, in place.
        let v = Tensor::view_of(&t, Dims::new(&[50, 3]), Dims::new(&[1, 50]), 0);
        assert_eq!(v.first_non_finite(), Some(20 * 3 + 1));
    }

    #[test]
    fn views_report_layout() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        assert!(t.is_contiguous());
        // A transposed view: shape [4,3], strides [1,4].
        let v = Tensor::view_of(&t, Dims::new(&[4, 3]), Dims::new(&[1, 4]), 0);
        assert!(!v.is_contiguous());
        assert_eq!(v.at(&[1, 2]), t.at(&[2, 1]));
        assert_eq!(v.to_vec(), vec![0.0, 4.0, 8.0, 1.0, 5.0, 9.0, 2.0, 6.0, 10.0, 3.0, 7.0, 11.0]);
        let c = v.contiguous();
        assert!(c.is_contiguous());
        assert_eq!(c.data(), v.to_vec().as_slice());
    }

    #[test]
    #[should_panic]
    fn data_panics_on_non_contiguous_view() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        let v = Tensor::view_of(&t, Dims::new(&[3, 2]), Dims::new(&[1, 3]), 0);
        let _ = v.data();
    }

    #[test]
    fn logical_equality_ignores_layout() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        let v = Tensor::view_of(&t, Dims::new(&[3, 2]), Dims::new(&[1, 3]), 0);
        assert_eq!(v, v.contiguous());
        assert_ne!(v, t);
    }

    #[test]
    fn set_on_view_materializes_first() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        let mut v = Tensor::view_of(&t, Dims::new(&[3, 2]), Dims::new(&[1, 3]), 0);
        v.set(&[0, 1], 99.0);
        assert_eq!(v.at(&[0, 1]), 99.0);
        // The original buffer is untouched.
        assert_eq!(t.at(&[1, 0]), 3.0);
    }
}
