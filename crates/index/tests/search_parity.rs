//! Determinism and exactness contract of [`VectorIndex::query`].
//!
//! The bar, per the index's documentation: answers are bit-identical
//! across shard capacities, equal to an exact full-sort reference scan,
//! immune to adversarial rows (NaN, zero vectors), and stable across a
//! save/load round trip — and a scan that leaves the zero components of a
//! query out answers with the same bits as one that does not, and one that
//! scores each distinct row once answers with the same bits as scoring every
//! id. That the answer does not depend on how many threads scan the blocks
//! is a unit test beside the scan (`vector_index.rs`).

use proptest::prelude::*;
use tsdx_index::{IndexConfig, VectorIndex};
use tsdx_sdl::{dot, rank_order, vocab, ActorClause, EgoManeuver, Position, RoadKind, Scenario};
use tsdx_tensor::metrics;

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let actor = ((0..vocab::EVENT_CLASSES.len()), 0..=Position::COUNT).prop_map(|(e, p)| {
        let (kind, action) = vocab::EVENT_CLASSES[e];
        let position = if p == Position::COUNT { None } else { Some(Position::from_index(p)) };
        ActorClause { kind, action, position }
    });
    (
        (0..EgoManeuver::COUNT).prop_map(EgoManeuver::from_index),
        (0..RoadKind::COUNT).prop_map(RoadKind::from_index),
        prop::collection::vec(actor, 0..=4),
    )
        .prop_map(|(ego, road, actors)| Scenario { ego, actors, road })
}

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

fn build(capacity: usize, rows: &[Vec<f32>]) -> VectorIndex {
    let dim = rows[0].len();
    let mut ix = VectorIndex::new(IndexConfig { dim, shard_capacity: capacity });
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
        capacity in 1usize..9,
    ) {
        let ix = build(capacity, &rows);
        let got = ix.query(&q, k).expect("dim matches");
        let want = reference_scan(&q, &rows, k);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn query_is_bit_identical_across_shard_capacities(
        rows in prop::collection::vec(arb_adversarial_row(6), 1..40),
        q in arb_adversarial_row(6),
        k in 1usize..8,
        cap_a in 1usize..9,
        cap_b in 9usize..64,
    ) {
        let a = build(cap_a, &rows).query(&q, k).expect("dim matches");
        let b = build(cap_b, &rows).query(&q, k).expect("dim matches");
        prop_assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn scenario_queries_round_trip_through_disk(
        entries in prop::collection::vec(arb_scenario(), 1..20),
        k in 1usize..6,
        capacity in 1usize..7,
    ) {
        let mut ix = VectorIndex::new(IndexConfig {
            shard_capacity: capacity,
            ..IndexConfig::default()
        });
        for s in &entries {
            ix.push_scenario(s).expect("EMBED_DIM index");
        }
        let dir = std::env::temp_dir()
            .join(format!("tsdx-index-parity-{}-{}", std::process::id(), entries.len()));
        ix.save_to(&dir).expect("save");
        let back = VectorIndex::load(&dir).expect("load");
        std::fs::remove_dir_all(&dir).ok();

        let query = &entries[0];
        let a = ix.query_scenario(query, k).expect("dim matches");
        let b = back.query_scenario(query, k).expect("dim matches");
        prop_assert_eq!(bits(&a), bits(&b));
        // The query itself is indexed, so the best hit is exact.
        prop_assert!((a[0].1 - 1.0).abs() < 1e-5);
    }
}

#[test]
fn duplicate_rows_tie_break_on_ascending_id() {
    let row = vec![0.5f32, 0.5, 0.5, 0.5];
    let ix = build(2, &[row.clone(), row.clone(), row.clone(), row.clone(), row.clone()]);
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
/// crate): the boundary the row counts and capacities below straddle.
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
    fn blocked_query_matches_reference_at_every_dim_tail_and_capacity(
        (rows, q) in arb_ragged_corpus(),
        capacity in prop_oneof![Just(1usize), Just(3), Just(8), Just(9), Just(64)],
        k_pick in 0usize..10_000,
    ) {
        let n = rows.len();
        prop_assert!(n % 8 != 0);
        let k = 1 + k_pick % (n + 5);
        let ix = build(capacity, &rows);
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
        capacity in prop_oneof![Just(100usize), Just(R - 1), Just(R), Just(R + 1), Just(4 * R)],
        k in prop_oneof![Just(1usize), Just(10), Just(3 * R)],
    ) {
        let want = bits(&reference_scan(&q, &rows, k));
        let got = build(capacity, &rows).query(&q, k).expect("dim matches");
        prop_assert_eq!(bits(&got), want);
    }
}

/// The cases the zero-skipping argument rests on, one by one, each against
/// the full-sort `dot` reference and again after a save/load round trip.
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
    let dir = std::env::temp_dir().join(format!("tsdx-index-skip-{}", std::process::id()));
    for (corpus, rows) in [("finite", &rows), ("late inf", &late_inf), ("late NaN", &late_nan)] {
        for capacity in [100usize, R - 1, R, R + 1, 4 * R] {
            let ix = build(capacity, rows);
            ix.save_to(&dir).expect("save");
            let back = VectorIndex::load(&dir).expect("load");
            for (name, q) in &queries {
                for k in [1usize, 10, rows.len(), rows.len() + 7] {
                    let want = bits(&reference_scan(q, rows, k));
                    for ix in [&ix, &back] {
                        assert_eq!(
                            bits(&ix.query(q, k).expect("dim matches")),
                            want,
                            "{corpus} rows, {name} query, capacity {capacity}, k {k}"
                        );
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
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
    fn a_repetitive_corpus_matches_reference_before_and_after_disk(
        (rows, q) in arb_repetitive_corpus(),
        capacity in prop_oneof![Just(1usize), Just(3), Just(8), Just(64)],
    ) {
        let n = rows.len();
        let largest = largest_group(&rows);
        let ix = build(capacity, &rows);
        let dir = std::env::temp_dir()
            .join(format!("tsdx-index-repetitive-{}", std::process::id()));
        ix.save_to(&dir).expect("save");
        let back = VectorIndex::load(&dir).expect("load");
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(ix.distinct_len() <= n as u64);
        prop_assert_eq!(back.distinct_len(), ix.distinct_len());
        // The last k splits the largest group of bit-equal rows.
        for k in [1, 5, n, n + 3, (largest - 1).max(1)] {
            let want = bits(&reference_scan(&q, &rows, k));
            prop_assert_eq!(bits(&ix.query(&q, k).expect("dim matches")), want.clone());
            prop_assert_eq!(bits(&back.query(&q, k).expect("dim matches")), want);
        }
    }
}

/// `index/columns_visited` is the work a query did, counted where it is
/// done: the query's non-zero components per finite block of distinct rows,
/// every dimension per block holding a non-finite value.
#[test]
fn a_query_reads_its_non_zero_columns_and_no_others() {
    let dim = 28;
    let row = |i: usize| -> Vec<f32> { (0..dim).map(|d| ((i + d) % 5) as f32 * 0.25).collect() };
    // 2 500 rows, 5 distinct: one block.
    let mut ix = build(1000, &(0..2500).map(row).collect::<Vec<_>>());
    let mut sparse = vec![0.0f32; dim];
    for d in [0, 9, 13, 20, 27] {
        sparse[d] = 0.4;
    }
    sparse[3] = -0.0;
    let dense = row(1).iter().map(|x| x + 1.0).collect::<Vec<_>>();
    let columns = |ix: &VectorIndex, q: &[f32]| -> u64 {
        let scope = metrics::scope();
        ix.query(q, 10).expect("dim matches");
        scope.snapshot().counter("index/columns_visited")
    };
    assert_eq!(columns(&ix, &sparse), 5);
    assert_eq!(columns(&ix, &dense), dim as u64);
    assert_eq!(columns(&ix, &vec![0.0; dim]), 0);
    // 600 more distinct rows fill a second block.
    for i in 0..600 {
        let mut distinct = row(i);
        distinct[1] = 2.0 + i as f32;
        ix.push(&distinct).expect("dim matches");
    }
    assert_eq!(columns(&ix, &sparse), 5 * 2);
    // One infinity in the second block: it alone reads every column.
    let mut poisoned = row(0);
    poisoned[17] = f32::INFINITY;
    ix.push(&poisoned).expect("dim matches");
    assert_eq!(columns(&ix, &sparse), 5 + dim as u64);
    assert_eq!(columns(&ix, &dense), dim as u64 * 2);
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
        for capacity in [1usize, 3, 8, 9, 64] {
            let rows: Vec<Vec<f32>> = (0..n).map(negative).collect();
            let hits = build(capacity, &rows).query(&q, n + 5).expect("dim matches");
            assert_eq!(hits.len(), n, "n={n} capacity={capacity}");
            assert!(hits.iter().all(|h| h.1 < 0.0), "a padding lane (score 0) was ranked");
            assert_eq!(bits(&hits), bits(&reference_scan(&q, &rows, n + 5)));

            let rows: Vec<Vec<f32>> = (0..n).map(minus_nan).collect();
            let hits = build(capacity, &rows).query(&q, n + 5).expect("dim matches");
            assert_eq!(hits.len(), n, "n={n} capacity={capacity}");
            assert!(hits.iter().all(|h| h.1.is_nan() && h.1.is_sign_negative()));
            assert_eq!(
                hits.iter().map(|h| h.0).collect::<Vec<_>>(),
                (0..n as u64).collect::<Vec<_>>()
            );
        }
    }
}

/// The `TSDXIDX1` encoding of one shard, written out from the format's
/// documentation: what every commit before the blocked layout put on disk.
fn row_major_shard_bytes(dim: usize, base_id: u64, rows: &[Vec<f32>]) -> Vec<u8> {
    let data: Vec<u8> = rows.iter().flatten().flat_map(|x| x.to_le_bytes()).collect();
    let mut out = b"TSDXIDX1".to_vec();
    out.extend(((32 + data.len() + 8) as u64).to_le_bytes());
    out.extend((dim as u32).to_le_bytes());
    out.extend((rows.len() as u32).to_le_bytes());
    out.extend(base_id.to_le_bytes());
    out.extend(&data);
    out.extend(tsdx_nn::crc32(&data).to_le_bytes());
    let file_crc = tsdx_nn::crc32(&out);
    out.extend(file_crc.to_le_bytes());
    out
}

#[test]
fn shard_files_stay_row_major_and_round_trip_bitwise() {
    let dim = 5;
    let specials = [f32::NAN, -f32::NAN, f32::INFINITY, -0.0, 1e-42, f32::from_bits(0x7fc1_2345)];
    let rows: Vec<Vec<f32>> = (0..21usize)
        .map(|i| {
            (0..dim)
                .map(|d| match (i * dim + d) % 7 {
                    0 => specials[(i + d) % specials.len()],
                    m => (i as f32 - 10.0) * 0.03 + m as f32 * 0.11,
                })
                .collect()
        })
        .collect();
    let ix = build(8, &rows); // shards of 8, 8 and 5 rows
    let dir = std::env::temp_dir().join(format!("tsdx-index-rowmajor-{}", std::process::id()));
    ix.save_to(&dir).expect("save");
    for (s, chunk) in rows.chunks(8).enumerate() {
        let on_disk = std::fs::read(dir.join(format!("shard-{s:05}.idx"))).expect("shard file");
        assert_eq!(on_disk, row_major_shard_bytes(dim, s as u64 * 8, chunk), "shard {s}");
    }
    let back = VectorIndex::load(&dir).expect("load");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(back.len(), ix.len());
    for (id, row) in rows.iter().enumerate() {
        assert_eq!(row_bits(&back.row(id as u64).expect("dense ids")), row_bits(row));
    }
    for q in rows.iter().step_by(4) {
        for k in [1usize, 8, 26] {
            let want = bits(&ix.query(q, k).expect("dim matches"));
            assert_eq!(bits(&back.query(q, k).expect("dim matches")), want);
            assert_eq!(bits(&reference_scan(q, &rows, k)), want);
        }
    }
}
