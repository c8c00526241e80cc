//! Exactness contract of [`VectorIndex::query_scenario`].
//!
//! The bar, per the index's documentation: every answer has the ids and
//! score bits of an exact full-sort reference — every stored scenario's
//! embedding scored with `dot`, sorted by the total order — so a scan that
//! leaves the zero components of a query out, one that scores each distinct
//! row once, and one that skips the groups whose score bound cannot reach
//! the k-th all answer with the same bits as one that does none of that.

use std::collections::HashSet;

use proptest::prelude::*;
use tsdx_index::VectorIndex;
use tsdx_sdl::{
    dot, embed, parse_scenario, rank_order, top_k, vocab, ActorAction, ActorClause, ActorKind,
    EgoManeuver, Position, RoadKind, Scenario, ScenarioFilter, MAX_ACTORS,
};
use tsdx_tensor::metrics;

fn build(rows: &[Scenario]) -> VectorIndex {
    let mut ix = VectorIndex::default();
    for r in rows {
        ix.push_scenario(r).expect("taxonomy-valid scenario");
    }
    ix
}

fn query(ix: &VectorIndex, q: &Scenario, k: usize) -> Vec<(u64, f32)> {
    ix.query_scenario(q, k).expect("SDL query")
}

/// Exact reference: score every row serially, full-sort with the same
/// total order, truncate.
fn reference_scan(q: &Scenario, rows: &[Scenario], k: usize) -> Vec<(u64, f32)> {
    let q = embed(q);
    let mut scored: Vec<(u64, f32)> =
        rows.iter().enumerate().map(|(i, r)| (i as u64, dot(&q, &embed(r)))).collect();
    scored.sort_by(rank_order::<u64>);
    scored.truncate(k);
    scored
}

fn bits(hits: &[(u64, f32)]) -> Vec<(u64, u32)> {
    hits.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

fn sdl(text: &str) -> Scenario {
    parse_scenario(text).expect("valid SDL")
}

/// A taxonomy-valid scenario: what an index stores.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let actor = ((0..vocab::EVENT_CLASSES.len()), 0..=Position::COUNT).prop_map(|(e, p)| {
        let (kind, action) = vocab::EVENT_CLASSES[e];
        let position = if p == Position::COUNT { None } else { Some(Position::from_index(p)) };
        ActorClause { kind, action, position }
    });
    (
        (0..EgoManeuver::COUNT).prop_map(EgoManeuver::from_index),
        (0..RoadKind::COUNT).prop_map(RoadKind::from_index),
        prop::collection::vec(actor, 0..=MAX_ACTORS),
    )
        .prop_map(|(ego, road, actors)| Scenario { ego, actors, road })
}

/// Any scenario SDL text parses to: any kind and action, up to eight
/// clauses — what `/search` answers without validating.
fn arb_query() -> impl Strategy<Value = Scenario> {
    let actor = (0..ActorKind::COUNT, 0..ActorAction::COUNT, 0..=Position::COUNT).prop_map(
        |(kind, action, p)| ActorClause {
            kind: ActorKind::from_index(kind),
            action: ActorAction::from_index(action),
            position: (p < Position::COUNT).then(|| Position::from_index(p)),
        },
    );
    (
        (0..EgoManeuver::COUNT).prop_map(EgoManeuver::from_index),
        (0..RoadKind::COUNT).prop_map(RoadKind::from_index),
        prop::collection::vec(actor, 0..=8),
    )
        .prop_map(|(ego, road, actors)| Scenario { ego, actors, road })
}

proptest! {
    #[test]
    fn query_matches_exact_reference(
        rows in prop::collection::vec(arb_scenario(), 1..60),
        q in arb_query(),
        k in 1usize..12,
    ) {
        let got = query(&build(&rows), &q, k);
        prop_assert_eq!(bits(&got), bits(&reference_scan(&q, &rows, k)));
    }

    #[test]
    fn a_stored_query_ranks_itself_first(
        entries in prop::collection::vec(arb_scenario(), 1..24),
        k in 1usize..8,
    ) {
        let hits = query(&build(&entries), &entries[0], k);
        prop_assert_eq!(hits.len(), k.min(entries.len()));
        // The query itself is stored, so the best hit is exact.
        prop_assert!((hits[0].1 - 1.0).abs() < 1e-5);
        // Scores are non-increasing under the total order.
        for w in hits.windows(2) {
            prop_assert!(w[0].1.total_cmp(&w[1].1).is_ge());
        }
    }

    // How `tsdx search --filter --like` ranks: an index of the filter's
    // matches, in order, whose ids map back to the corpus ascending.
    #[test]
    fn an_index_of_a_filters_matches_ranks_them_as_the_reference(
        entries in prop::collection::vec(arb_scenario(), 1..24),
        q in arb_query(),
        k in 1usize..8,
    ) {
        let filter: ScenarioFilter = "road=intersection".parse().expect("valid filter");
        let matching: Vec<usize> = (0..entries.len()).filter(|&i| filter.matches(&entries[i])).collect();
        let kept: Vec<Scenario> = matching.iter().map(|&i| entries[i].clone()).collect();
        let hits: Vec<(u64, f32)> = query(&build(&kept), &q, k)
            .into_iter()
            .map(|(id, score)| (matching[id as usize] as u64, score))
            .collect();
        let q_row = embed(&q);
        let scored = matching.iter().map(|&i| (i as u64, dot(&q_row, &embed(&entries[i])))).collect();
        prop_assert_eq!(hits.len(), k.min(matching.len()));
        prop_assert_eq!(bits(&hits), bits(&top_k(scored, k)));
    }
}

#[test]
fn duplicate_rows_tie_break_on_ascending_id() {
    for (text, copies, k, want) in [
        ("ego cruise; vehicle leading ahead; cyclist crossing right; road straight", 5, 3, 0..3),
        ("ego cruise; road straight", 3, 2, 0..2),
    ] {
        let s = sdl(text);
        let hits = query(&build(&vec![s.clone(); copies]), &s, k);
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), want.collect::<Vec<u64>>());
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

/// `n` scenarios of one ego and road with `min_actors` or more clauses,
/// no two with the same embedding: `n` distinct rows of one group.
fn distinct_in_group(
    ego: EgoManeuver,
    road: RoadKind,
    min_actors: usize,
    n: usize,
) -> Vec<Scenario> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut seen = HashSet::new();
    let mut rows = Vec::with_capacity(n);
    while rows.len() < n {
        let s = Scenario { ego, road, ..random_scenario(&mut state) };
        if s.actors.len() >= min_actors && seen.insert(embed(&s).map(f32::to_bits)) {
            rows.push(s);
        }
    }
    rows
}

// ---- Blocked layout: `[dim][512]` blocks, zero-padded tail ---------------

/// Rows per full block of the in-memory layout (`BLOCK_ROWS`, private to the
/// crate): the boundary the row counts below straddle.
const R: usize = 512;

/// `(rows, query)`: the first `n` of one group's distinct rows, `n` around
/// the block boundary — `R − 1`, `R`, `R + 1` and one past two blocks —
/// then repeats of some of them and rows of other groups.
fn arb_block_boundary_corpus() -> impl Strategy<Value = (Vec<Scenario>, Scenario)> {
    let group = distinct_in_group(EgoManeuver::TurnLeft, RoadKind::Intersection, 0, 2 * R + 3);
    (
        prop_oneof![Just(R - 1), Just(R), Just(R + 1), Just(2 * R + 3)],
        prop::collection::vec(0usize..2 * R + 3, 0..40),
        prop::collection::vec(arb_scenario(), 0..40),
        arb_query(),
    )
        .prop_map(move |(n, repeats, others, q)| {
            let mut rows = group[..n].to_vec();
            rows.extend(repeats.iter().map(|&i| group[i % n].clone()));
            rows.extend(others);
            (rows, q)
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
        prop_assert_eq!(bits(&query(&build(&rows), &q, k)), want);
    }
}

// ---- Repetitive corpora: each distinct row scored once ------------------

/// `(rows, query)`: up to 300 rows drawn from a pool of one to six
/// scenarios, so rows repeat, and a query from the pool or anywhere.
fn arb_repetitive_corpus() -> impl Strategy<Value = (Vec<Scenario>, Scenario)> {
    prop::collection::vec(arb_scenario(), 1..=6).prop_flat_map(|pool| {
        let n = pool.len();
        (
            prop::collection::vec(0..n, 1..300)
                .prop_map(move |picks| picks.iter().map(|&i| pool[i].clone()).collect()),
            arb_query(),
        )
    })
}

/// The most ids any one embedding has in `rows`.
fn largest_run(rows: &[Scenario]) -> usize {
    let mut patterns: Vec<_> = rows.iter().map(|r| embed(r).map(f32::to_bits)).collect();
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
        let largest = largest_run(&rows);
        let ix = build(&rows);
        prop_assert!(ix.distinct_len() <= 6);
        // The last k splits the largest run of equal rows.
        for k in [1, 5, n, n + 3, (largest - 1).max(1)] {
            let want = bits(&reference_scan(&q, &rows, k));
            prop_assert_eq!(bits(&query(&ix, &q, k)), want);
        }
    }
}

/// 20 000 random scenarios and 64 queries: every answer, at k = 1, 10 and
/// 1 000, has the ids and score bits of `sdl::top_k` over `dot` of every
/// row — the groups an SDL query skips hold nothing that could place.
#[test]
fn sdl_queries_match_top_k_over_every_row() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let scenarios: Vec<Scenario> = (0..20_000).map(|_| random_scenario(&mut state)).collect();
    let rows: Vec<[f32; tsdx_sdl::EMBED_DIM]> = scenarios.iter().map(embed).collect();
    let ix = build(&scenarios);
    let scope = metrics::scope();
    for _ in 0..64 {
        let s = random_scenario(&mut state);
        let q = embed(&s);
        for k in [1, 10, 1000] {
            let scored = rows.iter().enumerate().map(|(i, r)| (i as u64, dot(&q, r))).collect();
            let want = bits(&top_k(scored, k));
            assert_eq!(bits(&query(&ix, &s, k)), want, "k {k}, q {q:?}");
        }
    }
    let skipped = scope.snapshot().counter("index/groups_skipped");
    assert!(skipped > 64 * 3 * 5, "SDL queries must skip groups: {skipped} in {} queries", 64 * 3);
}

/// What a query's scan did, counted where it is done:
/// `(columns read, rows scored, groups visited, groups skipped)`.
type Counts = (u64, u64, u64, u64);

/// The [`Counts`] of one query.
fn scan_counts(ix: &VectorIndex, q: &Scenario, k: usize) -> Counts {
    let scope = metrics::scope();
    query(ix, q, k);
    let counts = scope.snapshot();
    let [columns, rows, visited, skipped] =
        ["columns_visited", "rows_scored", "groups_visited", "groups_skipped"]
            .map(|key| counts.counter(&format!("index/{key}")));
    (columns, rows, visited, skipped)
}

/// The counts a scan records, on a corpus of one group and then two: a
/// block reads the query's non-zero components, less those below its
/// group's second key other than the first; a group whose bound is below
/// the k-th is skipped whole.
///
/// Embedding dimensions: ego 0..7, road 7..11, events 11..24 (*none* is
/// 23), positions 24..28.
#[test]
fn a_query_reads_its_non_zero_columns_and_no_others() {
    // Group cruise × straight, key dims {0, 7}: 2 500 rows, 20 distinct —
    // four events at four positions or none — in one block.
    let near = |i: usize| -> Scenario {
        let (kind, action) = vocab::EVENT_CLASSES[i % 4];
        let p = i / 4 % 5;
        let position = (p < Position::COUNT).then(|| Position::from_index(p));
        Scenario::new(EgoManeuver::Cruise, RoadKind::Straight).with_actor(ActorClause {
            kind,
            action,
            position,
        })
    };
    // Group turn-left × intersection, key dims {2, 10}: 600 distinct rows of
    // one to four clauses, in two blocks. No row has the *none* flag, and
    // every row's norm past its keys is below 1.
    let far = distinct_in_group(EgoManeuver::TurnLeft, RoadKind::Intersection, 1, 600);
    // Non-zero at {0, 7, 13, 26}: all four read in the near group, {13, 26}
    // in the far one.
    let leading = sdl("ego cruise; vehicle leading ahead; road straight");
    // Non-zero at {0, 7, 23}: all three read in the near group.
    let alone = sdl("ego cruise; road straight");
    // Non-zero at {2, 10, 11..15, 24..28}: nine read in the near group, all
    // ten in the far one.
    let ten = sdl("ego turn-left; vehicle crossing left; vehicle oncoming right; \
         vehicle leading ahead; vehicle cut-in behind; road intersection");
    let mut rows: Vec<Scenario> = (0..2500).map(near).collect();
    let check = |rows: &[Scenario], want: [(&Scenario, usize, Counts); 4]| {
        let ix = build(rows);
        for (q, k, counts) in want {
            assert_eq!(scan_counts(&ix, q, k), counts, "{} rows, q {q}, k {k}", rows.len());
            assert_eq!(bits(&query(&ix, q, k)), bits(&reference_scan(q, rows, k)));
        }
    };
    check(
        &rows,
        [
            (&leading, 10, (4, 20, 1, 0)),
            (&alone, 10, (3, 20, 1, 0)),
            (&ten, 10, (9, 20, 1, 0)),
            (&ten, 3000, (9, 20, 1, 0)),
        ],
    );
    rows.extend(far);
    check(
        &rows,
        [
            // 125 ids carry the query's own row, so the k-th scores 1 and
            // the far group's bound, its tail norm below 1, is below it.
            (&leading, 10, (4, 20, 1, 1)),
            // The near rows score 2/√12 or 2/3 here, the far group's bound
            // is at most √(1/3) — and its every score is 0.
            (&alone, 10, (3, 20, 1, 1)),
            // Past the near group's 2 500 ids, nothing is skipped.
            (&leading, 3000, (4 + 2 * 2, 620, 2, 0)),
            (&ten, 3000, (9 + 2 * 10, 620, 2, 0)),
        ],
    );
}

/// A padding lane scores `+0.0` — as much as any row these queries share no
/// slot with — so it would show up among the ties if it were ever ranked.
#[test]
fn zero_padding_never_surfaces() {
    let q = sdl("ego cruise; pedestrian crossing left; road straight");
    for n in [1usize, 7, 9, 11, 23, 33] {
        let rows = distinct_in_group(EgoManeuver::Accelerate, RoadKind::CurveLeft, 0, 8 * n + 8);
        let rows: Vec<Scenario> = rows
            .into_iter()
            .filter(|s| {
                s.actors
                    .iter()
                    .all(|a| a.kind != ActorKind::Pedestrian && a.position != Some(Position::Left))
            })
            .take(n)
            .collect();
        assert_eq!(rows.len(), n);
        let hits = query(&build(&rows), &q, n + 5);
        assert_eq!(hits.len(), n, "n={n}");
        assert!(hits.iter().all(|h| h.1.to_bits() == 0), "every score is +0.0");
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), (0..n as u64).collect::<Vec<_>>());
        assert_eq!(bits(&hits), bits(&reference_scan(&q, &rows, n + 5)));
    }
}
