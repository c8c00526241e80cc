//! The traced pass: the per-layer metrics of one workload.
//!
//! Runs after the untraced rounds and never mixes with them: (a) traced ops
//! with client-side spans, reply fields, server counter deltas and the
//! allocation counter on; (b) the in-process replay of the same inputs;
//! (c) standalone `nn`/`tensor` kernels at the workload's shapes. Every
//! per-layer metric is reported for every workload; a layer that is not on
//! a workload's path reads 0 there, which is the prediction "no change".

use std::collections::BTreeMap;
use std::time::Duration;

use tsdx_tensor::metrics::{self, Snapshot};

use crate::alloc;
use crate::replay::{kernels, Part, GRAPH_NODES};
use crate::rounds::{run_round, Measured, Round};
use crate::stats::median;
use crate::trace::{chunk_medians, per_request, SpanTimes, Tracer};
use crate::workloads::{ReplyFields, Workload};

/// Every per-layer metric as `(name, unit, better)`, in report order.
/// `BENCHMARK.json` lists the same (a unit test holds the two together).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("serve.http.read_head_us", "us", "lower"),
    ("serve.http.read_body_us", "us", "lower"),
    ("serve.http.write_response_us", "us", "lower"),
    ("serve.json.parse_us", "us", "lower"),
    ("serve.json.bytes_per_us", "B/us", "higher"),
    ("serve.batcher.handoff_us", "us", "lower"),
    ("serve.batcher.queue_us", "us", "lower"),
    ("serve.batcher.batch_size_mean", "count", "higher"),
    ("serve.batcher.mux_pair_share", "ratio", "higher"),
    ("serve.sessions.lookup_us", "us", "lower"),
    ("serve.search.query_us", "us", "lower"),
    ("serve.server.residual_us", "us", "lower"),
    ("serve.server.coverage", "ratio", "higher"),
    ("core.extract.validate_us", "us", "lower"),
    ("core.extract.batch1_us", "us", "lower"),
    ("core.extract.batch8_us", "us", "lower"),
    ("core.model.tubelets_us", "us", "lower"),
    ("core.model.bind_us", "us", "lower"),
    ("core.model.spatial_us", "us", "lower"),
    ("core.model.encoder_us", "us", "lower"),
    ("core.model.forward_us", "us", "lower"),
    ("core.model.decode_us", "us", "lower"),
    ("core.model.temporal_us", "us", "lower"),
    ("core.model.heads_us", "us", "lower"),
    ("core.session.stage_us", "us", "lower"),
    ("core.session.encode1_us", "us", "lower"),
    ("core.session.encode2_us", "us", "lower"),
    ("core.session.describe_us", "us", "lower"),
    ("core.session.cache_hit_share", "ratio", "higher"),
    ("nn.block_spatial_us", "us", "lower"),
    ("nn.block_temporal_us", "us", "lower"),
    ("nn.attention_us", "us", "lower"),
    ("nn.linear_us", "us", "lower"),
    ("nn.layernorm_us", "us", "lower"),
    ("tensor.gemm_68x64x64_us", "us", "lower"),
    ("tensor.gemm_68x64x128_us", "us", "lower"),
    ("tensor.gemm_544x64x128_us", "us", "lower"),
    ("tensor.q8_gemm_68x64x128_us", "us", "lower"),
    ("tensor.softmax_us", "us", "lower"),
    ("tensor.graph_node_ns", "ns", "lower"),
    ("tensor.pool.exec_us_per_item", "us", "lower"),
    ("tensor.pool.queue_wait_us_per_item", "us", "lower"),
    ("tensor.pool.tasks_per_item", "count", "lower"),
    ("sdl.parse_us", "us", "lower"),
    ("sdl.embed_us", "us", "lower"),
    ("sdl.render_us", "us", "lower"),
    ("index.query_us", "us", "lower"),
    ("index.rows_per_us", "1/us", "higher"),
    ("index.build_rows_per_s", "1/s", "higher"),
    ("data.clips_per_s", "1/s", "higher"),
    ("alloc.bytes_per_item", "B", "lower"),
    ("alloc.count_per_item", "count", "lower"),
    ("proc.cpu_ms_per_item", "ms", "lower"),
    ("host.steal_share", "ratio", "lower"),
    ("rounds_clean", "count", "higher"),
    ("client.latency_p90_ms", "ms", "lower"),
    ("client.latency_p99_ms", "ms", "lower"),
    ("client.send_us", "us", "lower"),
    ("client.wait_us", "us", "lower"),
    ("client.read_us", "us", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// Chunks the traced pass runs in. Each chunk takes its requests through
/// the traced ops, then the pipeline replay, then the breakdown replay, so
/// that host drift (which on this host moves latency by a fifth within
/// seconds, steal or no steal) hits the passes of a chunk alike; numbers
/// that relate two passes are computed per chunk. Every span metric is the
/// median over chunks of the chunk's median.
const CHUNKS: usize = 6;

/// Requests per chunk: enough for a steady chunk median, small enough that
/// the traced pass stays a few seconds.
fn chunk_len(workload: &str) -> usize {
    match workload {
        "bulk_batch8" => 10,
        "search_sdl" => 20,
        _ => 50,
    }
}

/// Kernel iterations of pass (c).
const KERNEL_ITERATIONS: usize = 200;

/// One layer of the waterfall.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Span name.
    pub name: &'static str,
    /// Median self time per request, µs.
    pub self_us: f64,
    /// Self time over the traced ops' median latency in the same chunk.
    pub share: f64,
}

/// What the traced pass of one workload produced.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Value of every [`PER_LAYER`] metric.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The waterfall.
    pub layers: Vec<Layer>,
    /// Sanity rules this run broke (mis-instrumentation, not noise).
    pub broken_rules: Vec<String>,
    /// The traced ops, checked against the reference like any others.
    pub round: Round,
}

/// What the batch worker (or, without a server, the calling thread) counted
/// while the traced ops ran, summed over the chunks.
#[derive(Debug, Default)]
struct WorkerCounts {
    /// Chunks the worker pool ran (`pool/exec/*` observations).
    pool_tasks: f64,
    /// Time those chunks ran, and waited in the pool's queue first.
    pool_exec_ns: f64,
    pool_wait_ns: f64,
    /// Group encodes a session's cache saved, and those it could not.
    cache_hits: f64,
    cache_misses: f64,
}

impl WorkerCounts {
    fn add_delta(&mut self, before: &Snapshot, after: &Snapshot) {
        // Count and nanoseconds over every histogram under `prefix`.
        let totals = |snap: &Snapshot, prefix: &str| {
            snap.hists
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .fold((0.0, 0.0), |(n, ns), (_, h)| (n + h.count as f64, ns + h.sum_ns as f64))
        };
        let (exec_n0, exec_ns0) = totals(before, "pool/exec/");
        let (exec_n1, exec_ns1) = totals(after, "pool/exec/");
        self.pool_tasks += exec_n1 - exec_n0;
        self.pool_exec_ns += exec_ns1 - exec_ns0;
        self.pool_wait_ns +=
            totals(after, "pool/queue_wait/").1 - totals(before, "pool/queue_wait/").1;
        let counted = |key: &str| (after.counter(key) - before.counter(key)) as f64;
        self.cache_hits += counted("stage/cache_hit");
        self.cache_misses += counted("stage/cache_miss");
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the traced pass of `w`. `untraced` is what its rounds measured.
pub fn traced_pass(
    w: &mut dyn Workload,
    seed: u64,
    untraced: &Measured,
    tracer: &mut Tracer,
) -> Traced {
    let name = w.name();
    let len = chunk_len(name);
    let items = (CHUNKS * len * w.items_per_op()) as f64;

    let mut worker = WorkerCounts::default();
    let mut round = Round::default();
    let (mut bytes, mut calls) = (0, 0);
    let mut next_op = 0;
    for chunk in 0..CHUNKS {
        // (a) Traced ops, with the allocation counter on. A workload without
        // a server records the worker pool's timings into a scope of this
        // thread's own, open only while its traced ops run.
        let own_scope = w.server_stats().is_none().then(metrics::scope);
        let worker_metrics = |w: &dyn Workload| match w.server_stats() {
            Some(s) => {
                // The worker publishes its metrics just after it answers:
                // hand it the CPU. Yielding, not sleeping: a vCPU that went
                // idle runs the next chunk's first ops slowly.
                let t0 = std::time::Instant::now();
                while t0.elapsed() < Duration::from_millis(20) {
                    std::thread::yield_now();
                }
                s.worker_metrics()
            }
            None => own_scope.as_ref().expect("opened above").snapshot(),
        };
        let before = worker_metrics(&*w);
        let (ops, b, c) =
            alloc::counted(|| run_round(w, &mut next_op, Duration::MAX, len, Some(&mut *tracer)));
        worker.add_delta(&before, &worker_metrics(&*w));
        drop(own_scope);
        round.absorb(ops);
        bytes += b;
        calls += c;
        // (b) In-process replay of the same inputs.
        for part in [Part::Pipeline, Part::Breakdown] {
            for i in chunk * len..(chunk + 1) * len {
                w.replay(part, i, tracer);
            }
        }
    }
    let fields: Vec<ReplyFields> = w.take_reply_fields();
    // (c) Kernels.
    if let Some(batches) = w.kernel_batches() {
        kernels(tracer, name, seed, batches, KERNEL_ITERATIONS);
    }

    let chunks: Vec<SpanTimes> = chunk_medians(&per_request(tracer.spans(), name), len);
    // Median over chunks of a number computed within each chunk.
    let over_chunks = |f: &dyn Fn(&SpanTimes) -> Option<f64>| -> f64 {
        median(&chunks.iter().filter_map(f).collect::<Vec<f64>>())
    };
    let span_us = |span: &str| over_chunks(&|c| c.get(span).map(|t| t.0));
    // The traced op's own latency, the denominator of every share.
    let op_us = |c: &SpanTimes| c.get("http_request").or(c.get("bulk_call")).map(|t| t.0);
    // Per chunk, for the sanity rules: a span's duration over the op's.
    let share_of_op = |span: &str| -> Vec<f64> {
        chunks.iter().filter_map(|c| Some(c.get(span)?.0 / op_us(c)?)).collect()
    };

    // Every metric that is a span's median duration.
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, _, _) in PER_LAYER {
        if let Some(span) = metric.strip_suffix("_us") {
            m.insert(metric, span_us(span));
        }
    }

    // In-process cost of a request: what the pipeline's spans cover (the
    // glue between them, copies of private serve helpers, is not a layer),
    // against the traced ops of the same chunk.
    let in_process = |c: &SpanTimes| c.get("pipeline").map(|&(total, glue)| total - glue);
    let coverage: Vec<f64> =
        chunks.iter().filter_map(|c| Some(in_process(c)? / op_us(c)?)).collect();
    m.insert("serve.server.coverage", median(&coverage));
    m.insert("serve.server.residual_us", over_chunks(&|c| Some(op_us(c)? - in_process(c)?)));
    // The batcher's round trip minus the same work run directly on the
    // replay thread: one forward for a clip; stage, one shared encode and
    // the readouts for a pair of pushes.
    let direct = [
        "core.extract.batch1",
        "core.session.stage",
        "core.session.encode2",
        "core.session.describe",
    ];
    m.insert(
        "serve.batcher.handoff_us",
        over_chunks(&|c| {
            let direct_us: f64 = direct.iter().filter_map(|s| c.get(s)).map(|t| t.0).sum();
            Some(c.get("serve.batcher.roundtrip")?.0 - direct_us)
        }),
    );

    // Reply fields and the batch worker's counters.
    let queued: Vec<f64> = fields.iter().map(|f| f.queued_us).collect();
    m.insert("serve.batcher.queue_us", median(&queued));
    let replies = fields.len() as f64;
    m.insert(
        "serve.batcher.batch_size_mean",
        ratio(fields.iter().map(|f| f.batch_size).sum(), replies),
    );
    let paired = fields.iter().filter(|f| f.batch_size >= 2.0).count() as f64;
    m.insert(
        "serve.batcher.mux_pair_share",
        if name == "stream_pair" { ratio(paired, replies) } else { 0.0 },
    );
    m.insert(
        "core.session.cache_hit_share",
        ratio(worker.cache_hits, worker.cache_hits + worker.cache_misses),
    );
    m.insert("tensor.pool.exec_us_per_item", worker.pool_exec_ns / 1e3 / items);
    m.insert("tensor.pool.queue_wait_us_per_item", worker.pool_wait_ns / 1e3 / items);
    m.insert("tensor.pool.tasks_per_item", worker.pool_tasks / items);

    // Derived from spans and counts.
    let json_bytes = tracer.mean_count(name, "serve.json.bytes");
    m.insert("serve.json.bytes_per_us", ratio(json_bytes, span_us("serve.json.parse")));
    m.insert(
        "core.model.temporal_us",
        (span_us("core.model.encoder") - span_us("core.model.spatial")).max(0.0),
    );
    m.insert(
        "core.model.heads_us",
        (span_us("core.model.forward") - span_us("core.model.encoder")).max(0.0),
    );
    m.insert("tensor.graph_node_ns", span_us("tensor.graph_node") * 1e3 / GRAPH_NODES as f64);
    m.insert(
        "index.rows_per_us",
        ratio(tracer.mean_count(name, "index.rows"), span_us("index.query")),
    );
    m.insert("index.build_rows_per_s", 0.0);
    m.insert("data.clips_per_s", 0.0);
    for (metric, value) in w.setup_rates() {
        m.insert(metric, value);
    }
    m.insert("alloc.bytes_per_item", bytes as f64 / items);
    m.insert("alloc.count_per_item", calls as f64 / items);

    // Context from the untraced rounds.
    m.insert("proc.cpu_ms_per_item", untraced.cpu_ms_per_item);
    m.insert("host.steal_share", untraced.steal_share);
    m.insert("rounds_clean", untraced.rounds_clean as f64);
    m.insert("client.latency_p90_ms", untraced.latency_p90_ms);
    m.insert("client.latency_p99_ms", untraced.latency_p99_ms);
    m.insert(
        "trace.overhead_share",
        ratio(median(&round.latencies_ms), untraced.latency_typical_ms) - 1.0,
    );

    // The waterfall: self time of every span that is part of a request.
    let mut names: Vec<&'static str> = chunks.iter().flat_map(|c| c.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let layers = names
        .into_iter()
        .filter(|span| !matches!(*span, "kernels" | "breakdown" | "http_request" | "bulk_call"))
        .map(|span| Layer {
            name: span,
            self_us: over_chunks(&|c| c.get(span).map(|t| t.1)),
            share: over_chunks(&|c| Some(c.get(span)?.1 / op_us(c)?)),
        })
        .collect();

    let broken_rules = broken_rules(name, &coverage, &share_of_op);
    Traced { metrics: m, layers, broken_rules, round }
}

/// The sanity rules: a traced run that breaks one is mis-instrumented.
/// `coverage` and `share_of_op` (a span's duration over the traced op's) hold
/// one value per chunk. A misplaced span is wrong in every chunk and a slow
/// phase of the host is not, so a rule is broken only when no chunk meets it.
fn broken_rules(
    workload: &str,
    coverage: &[f64],
    share_of_op: &dyn Fn(&str) -> Vec<f64>,
) -> Vec<String> {
    let mut broken = Vec::new();
    let mut rule = |what: &str, values: &[f64], ok: &dyn Fn(f64) -> bool| {
        if !values.iter().any(|&v| ok(v)) {
            broken.push(format!("{workload}: {what}; per chunk: {values:.3?}"));
        }
    };
    match workload {
        "clip_octet" | "clip_json" => {
            rule("serve.server.coverage outside (0.5, 1.1)", coverage, &|v| v > 0.5 && v < 1.1);
            let parse = share_of_op("serve.json.parse");
            if workload == "clip_json" {
                rule("serve.json.parse_us under 15% of the op", &parse, &|v| v >= 0.15);
            } else {
                // No span at all is the expected reading.
                rule("serve.json.parse_us over 2% of the op", &[median(&parse)], &|v| v <= 0.02);
            }
        }
        "search_sdl" => {
            rule("index.query_us under 50% of the op", &share_of_op("index.query"), &|v| v >= 0.5);
        }
        "bulk_batch8" => {
            rule(
                "core.extract.batch8_us under 90% of the op",
                &share_of_op("core.extract.batch8"),
                &|v| v >= 0.9,
            );
        }
        _ => {}
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanity_rules_fire_on_the_workload_they_guard() {
        let shares = |parse: &'static [f64], query: &'static [f64], batch: &'static [f64]| {
            move |span: &str| match span {
                "serve.json.parse" => parse.to_vec(),
                "index.query" => query.to_vec(),
                "core.extract.batch8" => batch.to_vec(),
                other => panic!("no rule reads {other}"),
            }
        };
        let none = shares(&[], &[], &[]);
        assert!(broken_rules("clip_json", &[0.8], &shares(&[0.25], &[], &[])).is_empty());
        // The same parse share on the octet path means the span is misplaced.
        assert_eq!(broken_rules("clip_octet", &[0.8], &shares(&[0.25], &[], &[])).len(), 1);
        assert!(broken_rules("clip_octet", &[0.8], &none).is_empty());
        assert_eq!(broken_rules("clip_octet", &[0.3, 0.4], &none).len(), 1);
        assert_eq!(broken_rules("clip_octet", &[1.2, 1.3], &none).len(), 1);
        assert_eq!(broken_rules("clip_json", &[0.3], &none).len(), 2);
        // One chunk in a slow phase of the host does not break a rule ...
        assert!(broken_rules(
            "clip_json",
            &[1.3, 0.9, 1.2],
            &shares(&[0.11, 0.19, 0.12], &[], &[])
        )
        .is_empty());
        // ... every chunk off does.
        assert_eq!(broken_rules("clip_json", &[0.9], &shares(&[0.11, 0.12], &[], &[])).len(), 1);
        assert!(broken_rules("search_sdl", &[], &shares(&[], &[0.4, 0.6], &[])).is_empty());
        assert_eq!(broken_rules("search_sdl", &[], &shares(&[], &[0.4], &[])).len(), 1);
        assert!(broken_rules("bulk_batch8", &[], &shares(&[], &[], &[1.0])).is_empty());
        assert_eq!(broken_rules("bulk_batch8", &[], &shares(&[], &[], &[0.8])).len(), 1);
        assert!(broken_rules("stream_pair", &[], &none).is_empty());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in PER_LAYER {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(matches!(*better, "lower" | "higher"));
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(
                name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
            assert!(
                unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
