//! A counting global allocator: bytes and calls, on every thread, only
//! while the traced pass has switched it on (one relaxed load otherwise, so
//! the untraced rounds measure the system allocator as shipped).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus the counters above.
pub struct Counting;

#[inline]
fn count(bytes: usize) {
    // Relaxed: these are statistics and publish no other data.
    if ON.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from a prior call on this
        // allocator, which was a call on `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with counting on and returns its result with the bytes and
/// calls every thread allocated meanwhile.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (bytes0, calls0) = (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    (out, BYTES.load(Ordering::Relaxed) - bytes0, CALLS.load(Ordering::Relaxed) - calls0)
}
