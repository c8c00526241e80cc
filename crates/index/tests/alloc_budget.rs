//! A query allocates O(k + groups + dim), never O(n).
//!
//! The scan streams each score into a bounded [`tsdx_sdl::TopK`]; nothing
//! n-long — no `(id, score)` vector, no copy of a block — is ever built.
//! This test pins that with a counting global allocator: a k = 10 query
//! over 100 000 scenarios must stay under 64 KB of requested bytes, where
//! materializing the scores alone would take 16 B × 100 000 = 1.6 MB — for
//! a query of a stored scenario and for a short one, whose group visit
//! order, list of columns to read and embedding are the only things a scan
//! allocates besides its survivors (a block's scores live on the stack, 32
//! at a time). The expansion of the winning rows to their ids is O(k) too:
//! a k = 1000 query (`/search`'s largest) whose best row is carried by
//! 5 000 ids stays under 256 KB and answers with the reference's ids and
//! bits.
//!
//! Lives in its own integration-test file so the `#[global_allocator]`
//! override owns the whole process, and holds a single test so nothing
//! else allocates inside the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tsdx_index::VectorIndex;
use tsdx_sdl::{
    dot, embed, parse_scenario, rank_order, vocab, ActorClause, EgoManeuver, Position, RoadKind,
    Scenario, MAX_ACTORS,
};

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

/// A xorshift draw in `0..n`.
fn draw(state: &mut u64, n: usize) -> usize {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 32) as usize % n
}

/// A random taxonomy-valid scenario.
fn random_scenario(state: &mut u64) -> Scenario {
    let ego = EgoManeuver::from_index(draw(state, EgoManeuver::COUNT));
    let road = RoadKind::from_index(draw(state, RoadKind::COUNT));
    let actors = (0..draw(state, MAX_ACTORS + 1))
        .map(|_| {
            let (kind, action) = vocab::EVENT_CLASSES[draw(state, vocab::EVENT_CLASSES.len())];
            let p = draw(state, 2 * Position::COUNT);
            let position = (p < Position::COUNT).then(|| Position::from_index(p));
            ActorClause { kind, action, position }
        })
        .collect();
    Scenario { ego, actors, road }
}

#[test]
fn a_top10_query_over_100k_rows_allocates_under_64kb() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut index = VectorIndex::default();
    // Every 21st id carries `repeated`, and every id's score against it is
    // the reference for the k = 1000 query.
    let repeated = parse_scenario(
        "ego lane-change-right; vehicle overtaking right; vehicle overtaking right; \
         cyclist leading ahead; road curve-right",
    )
    .expect("valid SDL");
    let mut stored = None;
    let mut scored = Vec::with_capacity(ROWS + REPEATS);
    for i in 0..ROWS + REPEATS {
        let s = if i % 21 == 20 { repeated.clone() } else { random_scenario(&mut state) };
        let id = index.push_scenario(&s).expect("taxonomy-valid scenario");
        scored.push((id, dot(&embed(&repeated), &embed(&s))));
        if i == ROWS / 2 {
            stored = Some(s);
        }
    }
    scored.sort_by(rank_order::<u64>);
    scored.truncate(MAX_SEARCH_K);
    let own = dot(&embed(&repeated), &embed(&repeated));
    assert!(scored.iter().all(|&(_, s)| s == own), "the best row is carried by 1 000 ids or more");

    let short = parse_scenario("ego turn-left; road intersection").expect("valid SDL");
    let bits = |hits: &[(u64, f32)]| -> Vec<(u64, u32)> {
        hits.iter().map(|&(id, s)| (id, s.to_bits())).collect()
    };
    for (what, q) in [("stored", &stored.expect("a stored scenario")), ("short", &short)] {
        let warm = index.query_scenario(q, K).expect("SDL query");
        let before = ALLOC_BYTES.load(Ordering::Relaxed);
        let hits = index.query_scenario(q, K).expect("SDL query");
        let spent = ALLOC_BYTES.load(Ordering::Relaxed) - before;
        assert_eq!(bits(&hits), bits(&warm));
        assert_eq!(hits.len(), K);
        assert!(
            spent < BUDGET_BYTES,
            "{what} query: k={K} over {ROWS} rows allocated {spent} B (budget {BUDGET_BYTES} B; \
             an n-long score vector alone is {} B)",
            16 * ROWS
        );
        println!("{what} query: {spent} B");
    }

    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let hits = index.query_scenario(&repeated, MAX_SEARCH_K).expect("SDL query");
    let spent = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(bits(&hits), bits(&scored));
    assert!(
        spent < EXPANSION_BUDGET_BYTES,
        "k={MAX_SEARCH_K} over a row carried by {REPEATS} ids allocated {spent} B \
         (budget {EXPANSION_BUDGET_BYTES} B)"
    );
    println!("k = {MAX_SEARCH_K} query, best row carried by {REPEATS} ids: {spent} B");
}
