//! Thread-local workspace-reuse allocator for kernel and tape buffers.
//!
//! The fwd/bwd hot path allocates and frees the same few dozen buffer
//! shapes every step (activation tensors, gradient accumulators, GEMM
//! packing panels, attention score rows). Those buffers are large enough
//! that the system allocator serves them with `mmap`/`munmap` pairs, so
//! every step pays page faults for memory it just released. This module
//! keeps freed buffers in a **thread-local, size-bucketed arena** and hands
//! them back to the next request of a compatible size.
//!
//! Design points (DESIGN.md §6.5):
//!
//! - **Buckets by power of two.** A freed `Vec<f32>` is filed under
//!   `floor(log2(capacity))`, so every vector in bucket `j` has capacity
//!   ≥ `2^j`. A request for `n` elements searches the bucket of
//!   `next_power_of_two(n)` (and the one above), guaranteeing any hit can
//!   hold `n` elements without reallocating.
//! - **Determinism contract.** Recycled memory is never observable:
//!   `take_zeroed`/`take_filled` overwrite every element before
//!   returning, and `take_uninit` is reserved for call sites that
//!   provably write every element before reading any. Results are
//!   therefore bit-identical with the arena on or off.
//! - **RAII.** Tensor buffers live in a `Buffer` whose `Drop` returns
//!   the allocation to the arena of whichever thread drops it; kernel
//!   scratch uses the `Scratch` guard, which returns its buffer even on
//!   panic unwind.
//! - **Test switch.** Recycling is always on for the process;
//!   [`RECYCLE`]`.with(false, ..)` turns it off per thread so one process
//!   can A/B both modes — the parity and allocation-regression tests do
//!   exactly that. The mode only changes where buffers come from and go to.
//! - **Observability.** `workspace/hit`, `workspace/miss`, and
//!   `workspace/bytes_recycled` count into every open [`crate::metrics`]
//!   scope.
//!
//! The arena is bounded (per-bucket entry cap and a total byte cap per
//! thread); overflow simply frees to the system allocator.

use std::cell::RefCell;

use crate::dial::RECYCLE;
use crate::metrics;

/// Smallest recycled allocation, in elements (2^6 × 4 B = 256 B). Smaller
/// vectors are cheaper to malloc than to bucket.
const MIN_CLASS: u32 = 6;
/// Largest recycled allocation class (2^26 elements = 256 MiB).
const MAX_CLASS: u32 = 26;
const BUCKETS: usize = (MAX_CLASS - MIN_CLASS + 1) as usize;
/// At most this many free vectors per bucket. The autograd tape keeps every
/// activation of a training step alive until the graph drops, so the whole
/// step's buffer population of a class floods back at once and must fit here
/// to be reusable next step; `TOTAL_BYTE_CAP` is the real memory bound.
const PER_BUCKET_CAP: usize = 512;
/// At most this many free bytes per thread arena.
const TOTAL_BYTE_CAP: usize = 192 << 20;

struct Arena {
    buckets: [Vec<Vec<f32>>; BUCKETS],
    free_bytes: usize,
}

impl Arena {
    const fn new() -> Self {
        Arena { buckets: [const { Vec::new() }; BUCKETS], free_bytes: 0 }
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = const { RefCell::new(Arena::new()) };
}

/// Bucket index for a capacity: `floor(log2(cap))`, clamped to the class
/// range; `None` when the capacity is too small or too large to recycle.
fn bucket_of_capacity(cap: usize) -> Option<usize> {
    if cap == 0 {
        return None;
    }
    let class = usize::BITS - 1 - cap.leading_zeros(); // floor(log2)
    (MIN_CLASS..=MAX_CLASS).contains(&class).then(|| (class - MIN_CLASS) as usize)
}

/// Bucket index that can satisfy a request for `n` elements:
/// `ceil(log2(n))` (so every resident vector's capacity covers `n`).
fn bucket_of_request(n: usize) -> Option<usize> {
    let class = (usize::BITS - n.next_power_of_two().leading_zeros() - 1).max(MIN_CLASS);
    (class <= MAX_CLASS).then(|| (class - MIN_CLASS) as usize)
}

/// Pops a free vector able to hold `n` elements, or `None` on miss. Hits
/// and misses are counted here so every `take_*` flavor shares the
/// bookkeeping.
fn pop(n: usize) -> Option<Vec<f32>> {
    if n == 0 || !RECYCLE.get() {
        return None;
    }
    let hit = bucket_of_request(n).and_then(|b| {
        ARENA
            .try_with(|a| {
                let a = &mut *a.borrow_mut();
                // Returned buffers live at floor(log2(capacity)) while
                // requests look from ceil(log2(n)), so a buffer whose
                // capacity is not a power of two sits one class *below*
                // where same-size requests start. Peek that class first —
                // under the LIFO discipline its most recent entry is
                // typically the exact buffer a same-size round-trip just
                // returned — taking it only when it genuinely fits.
                if b > 0 && a.buckets[b - 1].last().is_some_and(|v| v.capacity() >= n) {
                    let v = a.buckets[b - 1].pop().expect("peeked entry");
                    a.free_bytes -= v.capacity() * 4;
                    return Some(v);
                }
                // Then the guaranteed-fit classes: exact, and one above
                // (covers requests that straddle a power of two without
                // fragmenting).
                for idx in [Some(b), (b + 1 < BUCKETS).then_some(b + 1)].into_iter().flatten() {
                    if let Some(v) = a.buckets[idx].pop() {
                        a.free_bytes -= v.capacity() * 4;
                        return Some(v);
                    }
                }
                None
            })
            .ok()
            .flatten()
    });
    match &hit {
        Some(_) => {
            metrics::counter_add2("workspace/hit", 1, "workspace/bytes_recycled", n as u64 * 4)
        }
        None => {
            metrics::counter_add("workspace/miss", 1);
        }
    }
    hit
}

/// Capacity for a miss-path allocation: rounded up to the size class's
/// power of two whenever the arena could later adopt the buffer, so that
/// `bucket_of_capacity` on [`give`] files it into exactly the class
/// [`bucket_of_request`] searches. Without the rounding, a buffer of
/// non-power-of-two capacity lands at floor(log2) — one class below where
/// same-size requests look — and never recycles.
fn miss_capacity(n: usize) -> usize {
    if RECYCLE.get() && bucket_of_request(n).is_some() {
        n.next_power_of_two().max(1 << MIN_CLASS)
    } else {
        n
    }
}

/// A buffer of `n` zeros (bit-identical to `vec![0.0; n]`).
pub(crate) fn take_zeroed(n: usize) -> Vec<f32> {
    take_filled(n, 0.0)
}

/// A buffer of `n` copies of `fill`.
pub(crate) fn take_filled(n: usize, fill: f32) -> Vec<f32> {
    match pop(n) {
        Some(mut v) => {
            v.clear();
            v.resize(n, fill);
            v
        }
        None => {
            let mut v = Vec::with_capacity(miss_capacity(n));
            v.resize(n, fill);
            v
        }
    }
}

/// A buffer of length `n` with **arbitrary (but initialized) contents**:
/// recycled buffers keep their stale values. Only for call sites that
/// overwrite every element before any element is read — otherwise results
/// would depend on the arena state and break the determinism contract.
pub(crate) fn take_uninit(n: usize) -> Vec<f32> {
    match pop(n) {
        Some(mut v) => {
            if v.len() >= n {
                v.truncate(n);
            } else {
                v.resize(n, 0.0);
            }
            v
        }
        None => {
            let mut v = Vec::with_capacity(miss_capacity(n));
            v.resize(n, 0.0);
            v
        }
    }
}

/// An **empty** buffer with capacity for at least `n` elements, for
/// `push`/`extend` assembly (the workspace analogue of
/// `Vec::with_capacity`).
pub(crate) fn take_reserve(n: usize) -> Vec<f32> {
    match pop(n) {
        Some(mut v) => {
            v.clear();
            v
        }
        None => Vec::with_capacity(miss_capacity(n)),
    }
}

/// Returns a no-longer-needed buffer to this thread's arena (or frees it
/// when recycling is off, the size is out of range, or the arena is full).
pub(crate) fn give(v: Vec<f32>) {
    if !RECYCLE.get() {
        return; // drop: freed to the system allocator
    }
    let Some(bucket) = bucket_of_capacity(v.capacity()) else {
        return;
    };
    let bytes = v.capacity() * 4;
    // try_with: during thread teardown the arena TLS may already be gone;
    // dropping the vector normally is always correct.
    let _ = ARENA.try_with(|a| {
        let a = &mut *a.borrow_mut();
        if a.buckets[bucket].len() < PER_BUCKET_CAP && a.free_bytes + bytes <= TOTAL_BYTE_CAP {
            a.free_bytes += bytes;
            a.buckets[bucket].push(v);
        }
    });
}

/// The reference-counted backing store of every [`crate::Tensor`]: a plain
/// `Vec<f32>` whose allocation returns to the dropping thread's arena when
/// the last reference goes away. Dereferences to the full `[f32]` slice.
pub(crate) struct Buffer {
    data: Vec<f32>,
}

impl Buffer {
    pub(crate) fn new(data: Vec<f32>) -> Self {
        Buffer { data }
    }

    /// A private copy of the contents (the copy-on-write slow path).
    pub(crate) fn duplicate(&self) -> Buffer {
        let mut v = take_uninit(self.data.len());
        v.copy_from_slice(&self.data);
        Buffer { data: v }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data.as_mut_slice()
    }
}

impl std::ops::Deref for Buffer {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.data));
    }
}

/// RAII kernel scratch: a workspace buffer that returns to the arena when
/// the guard drops (including on panic unwind). Dereferences to `[f32]`.
pub(crate) struct Scratch {
    data: Vec<f32>,
}

impl Scratch {
    /// Scratch of length `n` with arbitrary initialized contents; see
    /// [`take_uninit`] for the overwrite-before-read obligation.
    pub(crate) fn uninit(n: usize) -> Self {
        Scratch { data: take_uninit(n) }
    }
}

impl std::ops::Deref for Scratch {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl std::ops::DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.data.as_mut_slice()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_the_allocation() {
        let v = take_zeroed(1024);
        let p = v.as_ptr();
        give(v);
        let v2 = take_zeroed(1000); // same power-of-two class
        assert_eq!(v2.as_ptr(), p, "a compatible request must reuse the freed buffer");
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(v2.len(), 1000);
    }

    #[test]
    fn take_zeroed_zeroes_recycled_garbage() {
        let mut v = take_uninit(512);
        v.iter_mut().for_each(|x| *x = f32::NAN);
        give(v);
        assert!(take_zeroed(512).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_filled_fills_every_element() {
        let mut v = take_uninit(300);
        v.iter_mut().for_each(|x| *x = 7.0);
        give(v);
        let f = take_filled(300, 2.5);
        assert_eq!(f.len(), 300);
        assert!(f.iter().all(|&x| x == 2.5));
    }

    #[test]
    fn disabled_mode_never_recycles() {
        // A give under disabled mode frees instead of filing, so the next
        // take in this thread's (fresh, test-private) arena must miss.
        RECYCLE.with(false, || give(take_zeroed(2048)));
        let scope = metrics::scope();
        let _v = take_zeroed(2048);
        let snap = scope.snapshot();
        assert_eq!(snap.counter("workspace/hit"), 0, "disabled give must not file the buffer");
        assert_eq!(snap.counter("workspace/miss"), 1);
    }

    #[test]
    fn scratch_guard_returns_on_drop() {
        let p = {
            let s = Scratch::uninit(4096);
            s.as_ptr()
        };
        let v = take_zeroed(4096);
        assert_eq!(v.as_ptr(), p, "scratch must return its buffer to the arena");
    }

    #[test]
    fn tiny_and_huge_requests_bypass_the_arena() {
        give(Vec::with_capacity(8)); // below MIN_CLASS: freed
        let v = take_reserve(8);
        assert!(v.capacity() < 64 || v.capacity() >= 8);
    }
}
