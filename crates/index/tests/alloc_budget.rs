//! A query allocates O(workers · k), never O(n).
//!
//! The scan streams each score into a bounded [`tsdx_sdl::TopK`]; nothing
//! n-long — no `(id, score)` vector, no copy of a block — is ever built.
//! This test pins that with a counting global allocator: a k = 10 query
//! over 100 000 rows must stay under 64 KB of requested bytes, where
//! materializing the scores alone would take 16 B × 100 000 = 1.6 MB — also
//! for a query holding a NaN, whose every score is recomputed row by row,
//! and for an SDL-sparse query, whose lists of columns to read are the only
//! thing a scan allocates besides its survivors (a block's scores live on
//! the stack, 32 at a time) — at the host's scan worker count, the threads
//! it starts included. The expansion of the winning rows to their ids is
//! O(k) too: a k = 1000 query (`/search`'s largest) whose best row is
//! carried by 5 000 ids stays under 256 KB and answers with the reference's
//! ids and bits.
//!
//! Lives in its own integration-test file so the `#[global_allocator]`
//! override owns the whole process, and holds a single test so nothing
//! else allocates inside the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tsdx_index::VectorIndex;
use tsdx_sdl::{dot, rank_order, EMBED_DIM};

/// Forwards to the system allocator, counting requested bytes.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic
// with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const ROWS: usize = 100_000;
const K: usize = 10;
const BUDGET_BYTES: u64 = 64 * 1024;
/// `tsdx_serve::MAX_SEARCH_K`: the most hits `/search` asks for.
const MAX_SEARCH_K: usize = 1000;
/// Ids carrying the one repeated row.
const REPEATS: usize = 5000;
const EXPANSION_BUDGET_BYTES: u64 = 256 * 1024;

#[test]
fn a_top10_query_over_100k_rows_allocates_under_64kb() {
    // Cheap deterministic rows; the budget does not depend on the values.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut index = VectorIndex::default(); // 196 blocks: two scan runs on two cores
    let mut row = [0.0f32; EMBED_DIM];
    // Every 21st id carries `repeated`, and its scores against it are the
    // reference for the k = 1000 query.
    let repeated = [0.25f32; EMBED_DIM];
    let mut scored = Vec::with_capacity(ROWS + REPEATS);
    for i in 0..ROWS + REPEATS {
        if i % 21 == 20 {
            row = repeated;
        } else {
            for x in &mut row {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                *x = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            }
        }
        let id = index.push(&row).expect("EMBED_DIM rows");
        scored.push((id, dot(&repeated, &row)));
    }
    assert_eq!(index.len() - index.distinct_len(), REPEATS as u64 - 1);
    // More than one scan worker's worth of blocks (128 of 512 rows): on a
    // host with a second core, the runs' merge is inside the budget.
    assert!(index.distinct_len() > 128 * 512, "the budget must cover the merge of scan runs");
    scored.sort_by(rank_order::<u64>);
    scored.truncate(MAX_SEARCH_K);
    let q = index.row(ROWS as u64 / 2).expect("dense ids");

    // A NaN in the query makes every score NaN: no block is fast-rejected
    // and every row takes the `dot` recompute path — still O(workers · k).
    let mut poisoned = q.clone();
    poisoned[3] = f32::NAN;

    // Five non-zero components of 28, as `/search` embeds a short scenario.
    let mut sparse = vec![0.0f32; EMBED_DIM];
    for d in [1, 8, 12, 19, 25] {
        sparse[d] = q[d];
    }

    for (what, q) in [("finite", &q), ("NaN", &poisoned), ("SDL-sparse", &sparse)] {
        let warm = index.query(q, K).expect("dim matches"); // reads the worker count once
        let before = ALLOC_BYTES.load(Ordering::Relaxed);
        let hits = index.query(q, K).expect("dim matches");
        let spent = ALLOC_BYTES.load(Ordering::Relaxed) - before;
        let bits = |hits: &[(u64, f32)]| -> Vec<(u64, u32)> {
            hits.iter().map(|&(id, s)| (id, s.to_bits())).collect()
        };
        assert_eq!(bits(&hits), bits(&warm));
        assert_eq!(hits.len(), K);
        assert!(
            spent < BUDGET_BYTES,
            "{what} query: k={K} over {ROWS} rows allocated {spent} B (budget {BUDGET_BYTES} B; \
             an n-long score vector alone is {} B)",
            16 * ROWS
        );
        println!("{what} query: {spent} B, {} scan workers", index.scan_workers());
    }

    let bits = |hits: &[(u64, f32)]| -> Vec<(u64, u32)> {
        hits.iter().map(|&(id, s)| (id, s.to_bits())).collect()
    };
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let hits = index.query(&repeated, MAX_SEARCH_K).expect("dim matches");
    let spent = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(bits(&hits), bits(&scored));
    assert!(
        spent < EXPANSION_BUDGET_BYTES,
        "k={MAX_SEARCH_K} over a row carried by {REPEATS} ids allocated {spent} B \
         (budget {EXPANSION_BUDGET_BYTES} B)"
    );
    println!(
        "k = {MAX_SEARCH_K} query, best row carried by {REPEATS} ids: {spent} B, {} scan workers",
        index.scan_workers()
    );
}
