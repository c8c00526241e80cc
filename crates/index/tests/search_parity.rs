//! Determinism and exactness contract of [`VectorIndex::query`].
//!
//! The bar, per the index's documentation: answers are equal to an exact
//! full-sort reference scan and immune to adversarial rows (NaN, zero
//! vectors) — and a scan that leaves the zero components of a query out
//! answers with the same bits as one that does not, one that scores each
//! distinct row once answers with the same bits as scoring every id, and
//! one that skips the groups whose score bound cannot reach the k-th
//! answers with the same bits as one that scores them all.

use proptest::prelude::*;
use tsdx_index::VectorIndex;
use tsdx_sdl::{
    dot, embed, rank_order, top_k, vocab, ActorClause, EgoManeuver, Position, RoadKind, Scenario,
    MAX_ACTORS,
};
use tsdx_tensor::metrics;

/// Rows that a well-behaved caller would never push: NaN-poisoned, zero,
/// and denormal-ish vectors alongside ordinary ones.
fn arb_adversarial_row(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        prop_oneof![
            -1.0f32..=1.0,
            Just(0.0f32),
            Just(f32::NAN),
            Just(f32::INFINITY),
            Just(f32::MIN_POSITIVE),
        ],
        dim..=dim,
    )
}

fn build(rows: &[Vec<f32>]) -> VectorIndex {
    let mut ix = VectorIndex::new(rows[0].len());
    for r in rows {
        ix.push(r).expect("fixed dim");
    }
    ix
}

/// Exact reference: score every row serially, full-sort with the same
/// total order, truncate.
fn reference_scan(q: &[f32], rows: &[Vec<f32>], k: usize) -> Vec<(u64, f32)> {
    let mut scored: Vec<(u64, f32)> =
        rows.iter().enumerate().map(|(i, r)| (i as u64, dot(q, r))).collect();
    scored.sort_by(rank_order::<u64>);
    scored.truncate(k);
    scored
}

fn bits(hits: &[(u64, f32)]) -> Vec<(u64, u32)> {
    hits.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

proptest! {
    #[test]
    fn query_matches_exact_reference_even_on_adversarial_rows(
        rows in prop::collection::vec(arb_adversarial_row(6), 1..40),
        q in arb_adversarial_row(6),
        k in 1usize..12,
    ) {
        let ix = build(&rows);
        let got = ix.query(&q, k).expect("dim matches");
        let want = reference_scan(&q, &rows, k);
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

#[test]
fn duplicate_rows_tie_break_on_ascending_id() {
    let row = vec![0.5f32, 0.5, 0.5, 0.5];
    let ix = build(&[row.clone(), row.clone(), row.clone(), row.clone(), row.clone()]);
    let hits = ix.query(&row, 3).expect("dim matches");
    assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![0, 1, 2]);
}

// ---- Blocked layout: `[dim][512]` blocks, zero-padded tail ---------------

/// Every class of value a row can hold, including the ones whose products
/// and sums produce NaNs of either sign.
fn arb_hostile_row(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        prop_oneof![
            -1.0f32..=1.0,
            -1.0f32..=1.0,
            Just(0.0f32),
            Just(-0.0f32),
            Just(f32::NAN),
            Just(-f32::NAN),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            Just(f32::MIN_POSITIVE),
            Just(1e-42f32),
        ],
        dim..=dim,
    )
}

/// Rows per full block of the in-memory layout (`BLOCK_ROWS`, private to the
/// crate): the boundary the row counts below straddle.
const R: usize = 512;

/// `(rows, query)` at one dim in `1..=40` (so `dim < 4` and `dim % 4 != 0`
/// are both covered), with a row count that is never a multiple of 8.
fn arb_ragged_corpus() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<f32>)> {
    (1usize..=40, 0usize..6, 1usize..8).prop_flat_map(|(dim, blocks, extra)| {
        let n = blocks * 8 + extra;
        (prop::collection::vec(arb_hostile_row(dim), n..=n), arb_hostile_row(dim))
    })
}

fn row_bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn blocked_query_matches_reference_at_every_dim_and_tail(
        (rows, q) in arb_ragged_corpus(),
        k_pick in 0usize..10_000,
    ) {
        let n = rows.len();
        prop_assert!(n % 8 != 0);
        let k = 1 + k_pick % (n + 5);
        let ix = build(&rows);
        let got = ix.query(&q, k).expect("dim matches");
        prop_assert_eq!(got.len(), k.min(n));
        prop_assert_eq!(bits(&got), bits(&reference_scan(&q, &rows, k)));
        for (id, row) in rows.iter().enumerate() {
            let stored = ix.row(id as u64).expect("dense ids");
            prop_assert_eq!(row_bits(&stored), row_bits(row));
        }
        prop_assert!(ix.row(n as u64).is_none());
    }
}

/// A query as `/search` embeds it: mostly zeros, of either sign.
fn arb_sparse_query(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        prop_oneof![Just(0.0f32), Just(-0.0f32), Just(0.0f32), -1.0f32..=1.0, Just(f32::INFINITY)],
        dim..=dim,
    )
}

fn arb_finite_row(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        prop_oneof![-1.0f32..=1.0, Just(0.0f32), Just(-0.0f32), Just(-1e-42f32), Just(0.5f32)],
        dim..=dim,
    )
}

/// Finite rows around the block boundary — `R − 1`, `R`, `R + 1` and one
/// past two blocks — a sparse query, and optionally one late non-finite
/// value, which turns skipping off for the block it lands in and no other.
fn arb_block_boundary_corpus() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<f32>)> {
    (
        1usize..=12,
        prop_oneof![Just(R - 1), Just(R), Just(R + 1), Just(2 * R + 3)],
        prop_oneof![Just(None), Just(Some(f32::INFINITY)), Just(Some(f32::NAN))],
        0usize..10_000,
    )
        .prop_flat_map(|(dim, n, poison, at)| {
            (prop::collection::vec(arb_finite_row(dim), n..=n), arb_sparse_query(dim)).prop_map(
                move |(mut rows, q)| {
                    if let Some(x) = poison {
                        rows[n - 1 - at % 40][at % dim] = x;
                    }
                    (rows, q)
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zero_skipping_scan_matches_reference_around_the_block_boundary(
        (rows, q) in arb_block_boundary_corpus(),
        k in prop_oneof![Just(1usize), Just(10), Just(3 * R)],
    ) {
        let want = bits(&reference_scan(&q, &rows, k));
        let got = build(&rows).query(&q, k).expect("dim matches");
        prop_assert_eq!(bits(&got), want);
    }
}

/// The cases the zero-skipping argument rests on, one by one, each against
/// the full-sort `dot` reference.
#[test]
fn zero_components_are_skipped_without_moving_a_bit() {
    let dim = 11; // two quads and a three-long tail
    let row = |i: usize| -> Vec<f32> {
        (0..dim)
            .map(|d| match (i * 7 + d * 3) % 11 {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => -1e-42, // underflows to -0 against a small query value
                m => (m as f32 - 6.5) * 0.125 * if i.is_multiple_of(2) { 1.0 } else { -1.0 },
            })
            .collect()
    };
    let mut rows: Vec<Vec<f32>> = (0..2 * R + 1).map(row).collect();
    // Rows whose visited products cancel: within one accumulator (d = 1, 5),
    // across two (d = 1, 2) and in the tail (d = 8, 9) — a `+0` accumulator
    // next to skipped products of either sign.
    rows[5] = vec![-3.0, 0.25, 0.0, -7.0, 9.0, -0.25, 0.0, 1.0, 0.0, 0.0, -2.0];
    rows[R] = vec![4.0, 0.25, -0.25, -7.0, -9.0, 0.0, 5.0, 1.0, 0.0, 0.0, 2.0];
    rows[R + 1] = vec![-4.0, 0.0, 0.0, 7.0, 9.0, 0.0, -5.0, 1.0, 0.5, -0.5, -2.0];
    let queries: Vec<(&str, Vec<f32>)> = vec![
        ("all zero", vec![0.0; dim]),
        ("all minus zero", vec![-0.0; dim]),
        ("cancelling", vec![0.0, 0.5, 0.5, -0.0, 0.0, 0.5, -0.0, 0.0, 0.5, 0.5, 0.0]),
        ("one component", vec![-0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, -0.0, 0.0]),
        ("tiny", vec![0.0, 1e-30, -0.0, 0.0, -1e-30, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-30]),
        ("infinite", vec![0.0, f32::INFINITY, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        ("NaN", vec![0.0, 0.0, f32::NAN, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
        ("dense", row(4).iter().map(|x| x + 3.0).collect()),
    ];
    // A late `inf` or NaN makes the block it lands in — and no other — read
    // every column: `0 × inf` is NaN, not zero.
    let mut late_inf = rows.clone();
    late_inf[2 * R][3] = f32::NEG_INFINITY;
    let mut late_nan = rows.clone();
    late_nan[R - 1][0] = f32::NAN;
    for (corpus, rows) in [("finite", &rows), ("late inf", &late_inf), ("late NaN", &late_nan)] {
        let ix = build(rows);
        for (name, q) in &queries {
            for k in [1usize, 10, rows.len(), rows.len() + 7] {
                let want = bits(&reference_scan(q, rows, k));
                assert_eq!(
                    bits(&ix.query(q, k).expect("dim matches")),
                    want,
                    "{corpus} rows, {name} query, k {k}"
                );
            }
        }
    }
}

// ---- Repetitive corpora: each distinct row scored once ------------------

/// Letters of a small alphabet, so rows repeat: `+0.0` against `-0.0` and two
/// NaN payloads are different bits, and so different rows.
fn arb_letter() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        Just(f32::NAN),
        Just(f32::from_bits(0x7fc0_1234)),
        Just(1.0f32),
        Just(-0.5f32),
    ]
}

/// `(rows, query)`: up to 300 rows of dim 1 to 4 over [`arb_letter`], and a
/// query over the same letters or anything in `[-1, 1]`.
fn arb_repetitive_corpus() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<f32>)> {
    (1usize..=4, 1usize..300).prop_flat_map(|(dim, n)| {
        (
            prop::collection::vec(prop::collection::vec(arb_letter(), dim..=dim), n..=n),
            prop::collection::vec(prop_oneof![arb_letter(), -1.0f32..=1.0], dim..=dim),
        )
    })
}

/// The most ids any one bit pattern has in `rows`.
fn largest_group(rows: &[Vec<f32>]) -> usize {
    let mut patterns: Vec<Vec<u32>> = rows.iter().map(|r| row_bits(r)).collect();
    patterns.sort();
    patterns.chunk_by(|a, b| a == b).map(<[_]>::len).max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_repetitive_corpus_matches_reference(
        (rows, q) in arb_repetitive_corpus(),
    ) {
        let n = rows.len();
        let largest = largest_group(&rows);
        let ix = build(&rows);
        prop_assert!(ix.distinct_len() <= n as u64);
        // The last k splits the largest group of bit-equal rows.
        for k in [1, 5, n, n + 3, (largest - 1).max(1)] {
            let want = bits(&reference_scan(&q, &rows, k));
            prop_assert_eq!(bits(&ix.query(&q, k).expect("dim matches")), want);
        }
    }
}

// ---- Groups: rows keyed by their first two slots not `+0.0` -------------

/// Letters rich in `+0.0`, `-0.0` and negatives, so a row's first two
/// slots not `+0.0` land anywhere: rows spread over many groups.
fn arb_spread_letter() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(0.0f32),
        Just(0.0f32),
        Just(-0.0f32),
        Just(-0.5f32),
        Just(-1.0f32),
        Just(0.25f32),
        Just(1.0f32),
        Just(1e-42f32),
    ]
}

/// A query component: negative, `±0`, infinite, NaN or anything in `[-1, 1]`.
fn arb_spread_query_component() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1.0f32..=1.0,
        -1.0f32..=1.0,
        -1.0f32..=1.0,
        Just(0.0f32),
        Just(0.0f32),
        Just(-0.0f32),
        Just(-0.75f32),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(f32::NAN),
    ]
}

/// `(rows, query)`: up to 200 rows of dim 3 to 8 over [`arb_spread_letter`],
/// and a query over [`arb_spread_query_component`] — finite in half the
/// cases, since a non-finite query never skips a group.
fn arb_spread_corpus() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<f32>)> {
    (3usize..=8, 1usize..200, any::<bool>()).prop_flat_map(|(dim, n, finite)| {
        let component =
            arb_spread_query_component()
                .prop_map(move |x| if finite && !x.is_finite() { -0.25 } else { x });
        (
            prop::collection::vec(prop::collection::vec(arb_spread_letter(), dim..=dim), n..=n),
            prop::collection::vec(component, dim..=dim),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rows_over_many_groups_match_reference(
        (rows, q) in arb_spread_corpus(),
    ) {
        let n = rows.len();
        let ix = build(&rows);
        for k in [1, 5, n, n + 3] {
            let want = bits(&reference_scan(&q, &rows, k));
            prop_assert_eq!(bits(&ix.query(&q, k).expect("dim matches")), want);
        }
    }
}

/// A xorshift draw in `0..n`.
fn draw(state: &mut u64, n: usize) -> usize {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 32) as usize % n
}

/// A random taxonomy-valid scenario: what the `/search` corpus is made of.
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

/// 20 000 random scenarios and 64 queries: every answer, at k = 1, 10 and
/// 1 000, has the ids and score bits of `sdl::top_k` over `dot` of every
/// row — the groups an SDL query skips hold nothing that could place.
#[test]
fn sdl_queries_match_top_k_over_every_row() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let rows: Vec<[f32; tsdx_sdl::EMBED_DIM]> =
        (0..20_000).map(|_| embed(&random_scenario(&mut state))).collect();
    let mut ix = VectorIndex::default();
    for row in &rows {
        ix.push(row).expect("EMBED_DIM rows");
    }
    let scope = metrics::scope();
    for _ in 0..64 {
        let q = embed(&random_scenario(&mut state));
        for k in [1, 10, 1000] {
            let scored = rows.iter().enumerate().map(|(i, r)| (i as u64, dot(&q, r))).collect();
            let want = bits(&top_k(scored, k));
            assert_eq!(bits(&ix.query(&q, k).expect("dim matches")), want, "k {k}, q {q:?}");
        }
    }
    let skipped = scope.snapshot().counter("index/groups_skipped");
    assert!(skipped > 64 * 3 * 5, "SDL queries must skip groups: {skipped} in {} queries", 64 * 3);
}

/// What a query's scan did, counted where it is done:
/// `(columns read, rows scored, groups visited, groups skipped)`.
type Counts = (u64, u64, u64, u64);

/// The [`Counts`] of one k = 10 query.
fn scan_counts(ix: &VectorIndex, q: &[f32]) -> Counts {
    let scope = metrics::scope();
    ix.query(q, 10).expect("dim matches");
    let counts = scope.snapshot();
    let [columns, rows, visited, skipped] =
        ["columns_visited", "rows_scored", "groups_visited", "groups_skipped"]
            .map(|key| counts.counter(&format!("index/{key}")));
    (columns, rows, visited, skipped)
}

/// The counts a scan records, on a corpus of two groups: a block reads the
/// query's non-zero components, less those below its group's second key
/// other than the first where the component is finite, and every dimension
/// once it holds a non-finite value; a group whose bound is below the k-th
/// is skipped whole, unless it or the query holds a non-finite value.
#[test]
fn a_query_reads_its_non_zero_columns_and_no_others() {
    let dim = 28;
    // Group {0, 1}: 2 500 rows, 20 distinct, one block.
    let near = |i: usize| -> Vec<f32> {
        (0..dim)
            .map(|d| match d {
                0 => 1.0,
                1 => 0.5 + (i % 20) as f32 * 0.125,
                _ => ((i + d) % 5) as f32 * 0.25,
            })
            .collect()
    };
    // Group {2, 3}: 600 distinct rows, two blocks, heavy keys and a light
    // tail — its bound is far below the k-th unless the second key's
    // column is counted in the tail as well.
    let far = |i: usize| -> Vec<f32> {
        let mut v = vec![0.0; dim];
        (v[2], v[3]) = (1.0, 2.0);
        v[4 + i % 24] = 0.01 * (1 + i / 24) as f32;
        v
    };
    let mut sparse = vec![0.0f32; dim];
    for d in [0, 9, 13, 20, 27] {
        sparse[d] = 0.4;
    }
    sparse[3] = -0.0;
    let dense: Vec<f32> = near(1).iter().map(|x| x + 1.0).collect();
    // An infinity below the far group's second key: that group must read it
    // (`inf × 0` is NaN), and nothing is skipped.
    let mut infinite = sparse.clone();
    infinite[1] = f32::INFINITY;
    let mut rows: Vec<Vec<f32>> = (0..2500).map(near).collect();
    let check = |rows: &[Vec<f32>], want: [(&[f32], Counts); 4]| {
        let ix = build(rows);
        for (q, counts) in want {
            assert_eq!(scan_counts(&ix, q), counts, "{} rows, q {q:?}", rows.len());
            let hits = ix.query(q, 10).expect("dim matches");
            assert_eq!(bits(&hits), bits(&reference_scan(q, rows, 10)));
        }
    };
    check(
        &rows,
        [
            (&sparse, (5, 20, 1, 0)),
            (&dense, (28, 20, 1, 0)),
            (&vec![0.0; dim], (0, 20, 1, 0)),
            (&infinite, (6, 20, 1, 0)),
        ],
    );
    rows.extend((0..600).map(far));
    check(
        &rows,
        [
            (&sparse, (5, 20, 1, 1)),
            (&dense, (28, 20, 1, 1)),
            // Every score is `+0.0`; the far bound is a hair above it.
            (&vec![0.0; dim], (0, 620, 2, 0)),
            (&infinite, (6 + 5 * 2, 620, 2, 0)),
        ],
    );
    // One infinity in the far group's second block: that block reads every
    // column, and the group is never skipped.
    let mut poisoned = far(0);
    poisoned[17] = f32::INFINITY;
    rows.push(poisoned);
    check(
        &rows,
        [
            (&sparse, (5 + 4 + dim as u64, 621, 2, 0)),
            (&dense, (28 + 26 + dim as u64, 621, 2, 0)),
            (&vec![0.0; dim], (dim as u64, 621, 2, 0)),
            (&infinite, (6 + 5 + dim as u64, 621, 2, 0)),
        ],
    );
}

/// A padding lane scores `0 * q` — better than any real row of these
/// corpora — so it would show up first if it were ever ranked.
#[test]
fn zero_padding_never_surfaces() {
    let q = vec![1.0f32, 0.0, 0.5, 0.0, 0.0];
    let negative = |i: usize| vec![-0.1 * (i + 1) as f32, 0.3, -0.2, 0.0, 1.0];
    // One NaN operand: the product and every later sum carry its sign.
    let minus_nan = |i: usize| vec![-f32::NAN, i as f32, 0.0, 0.0, 0.0];
    for n in [1usize, 7, 9, 11, 23] {
        let rows: Vec<Vec<f32>> = (0..n).map(negative).collect();
        let hits = build(&rows).query(&q, n + 5).expect("dim matches");
        assert_eq!(hits.len(), n, "n={n}");
        assert!(hits.iter().all(|h| h.1 < 0.0), "a padding lane (score 0) was ranked");
        assert_eq!(bits(&hits), bits(&reference_scan(&q, &rows, n + 5)));

        let rows: Vec<Vec<f32>> = (0..n).map(minus_nan).collect();
        let hits = build(&rows).query(&q, n + 5).expect("dim matches");
        assert_eq!(hits.len(), n, "n={n}");
        assert!(hits.iter().all(|h| h.1.is_nan() && h.1.is_sign_negative()));
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), (0..n as u64).collect::<Vec<_>>());
    }
}
