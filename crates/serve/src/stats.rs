//! Server-lifetime counters and the `/stats` SLO snapshot.
//!
//! Two sources feed the endpoint. Cheap process-wide **counters** (atomics
//! here) record every admission decision — accepted, shed, rejected,
//! panicking — from whichever thread made it. **Latency distributions**
//! come from the metrics layer: the batch worker runs under a
//! [`tsdx_tensor::metrics::stage_scope`], so the per-stage histograms —
//! `stage/serve_batch` around a clip batch, `stage/tubelet_embed` →
//! `stage/encoder` → `stage/heads` → `stage/decode` inside it, and the
//! stream stages `stage/stream_stage`, `stage/mux_encode` and
//! `stage/stream_infer` — and the group-cache counters (`stage/cache_hit`,
//! `stage/cache_miss`, `stage/window_hit`) accumulate there and are
//! published after every batch for `/stats` to read without cross-thread
//! metric plumbing. The scope collects nothing op-level: a served forward
//! records its stages and no kernel or layer spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tsdx_tensor::metrics::Snapshot;

use crate::json::Object;

/// Declares [`ServeStats`] from the one table below: a counter is a line
/// there — doc, field, `/stats` key — so it cannot exist without being
/// served. `top` members render flat under the field's own name, in this
/// order; `mux` members render inside the `"mux"` object under the key given.
macro_rules! serve_stats {
    (
        top { $($(#[$top_doc:meta])* $top:ident,)* }
        mux { $($(#[$mux_doc:meta])* $mux:ident => $mux_key:literal,)* }
    ) => {
        /// Monotonic counters over the server's lifetime. All relaxed: they
        /// are observability, not synchronization.
        #[derive(Debug, Default)]
        pub struct ServeStats {
            $($(#[$top_doc])* pub $top: AtomicU64,)*
            $($(#[$mux_doc])* pub $mux: AtomicU64,)*
            /// Cross-stream batch-occupancy histogram: how many streams shared
            /// each group-encode forward, bucketed 1 / 2 / 3–4 / 5–8 / 9–16 / 17+.
            pub mux_occupancy: [AtomicU64; 6],
            /// Latest published worker-side metrics snapshot.
            worker_metrics: Mutex<Snapshot>,
        }

        impl ServeStats {
            fn write_top(&self, out: Object) -> Object {
                out$(.raw(stringify!($top), Self::get(&self.$top)))*
            }

            fn write_mux(&self, out: Object) -> Object {
                out$(.raw($mux_key, Self::get(&self.$mux)))*
            }
        }
    };
}

serve_stats! {
    top {
        /// Requests admitted into the batch queue.
        accepted,
        /// Admitted requests answered with a scenario (200).
        completed,
        /// Requests shed at admission with 429 (queue full).
        shed_queue_full,
        /// Requests shed with 503 before their forward (deadline unmakeable).
        shed_deadline,
        /// Connections turned away at the connection cap (503).
        shed_busy,
        /// Requests rejected 4xx (malformed HTTP, bad JSON, invalid video).
        rejected,
        /// Handler or batch-forward panics captured (500s served instead of
        /// a crash).
        panics_caught,
        /// Answers refused because the forward produced a non-finite logit
        /// (500 `internal`: the input overflowed inside the model).
        non_finite_outputs,
        /// Batched forwards executed.
        batches,
        /// Clips summed over all executed batches (mean batch size =
        /// `batched_clips / batches`).
        batched_clips,
        /// Current admission-queue depth (gauge, updated on enqueue/drain).
        queue_depth,
        /// Currently live sessions (gauge, updated on create/close/evict).
        active_sessions,
        /// Streaming sessions opened over the server's lifetime.
        sessions_opened,
        /// Sessions closed by an explicit `DELETE`.
        sessions_closed,
        /// Sessions evicted after their idle TTL.
        evicted_sessions,
        /// Session creates shed at the table capacity (429).
        shed_sessions,
        /// Stream chunk pushes answered successfully.
        stream_pushes,
    }
    mux {
        /// Cross-stream batched group-encode forwards executed.
        mux_batches => "batches",
        /// Time groups summed over all batched group encodes.
        mux_groups => "groups",
    }
}

/// JSON keys for the occupancy buckets, in order.
const OCCUPANCY_KEYS: [&str; 6] = ["1", "2", "3_4", "5_8", "9_16", "17_plus"];

impl ServeStats {
    /// Bumps `c` by one.
    pub fn inc(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads `c`.
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// Records one cross-stream batched group encode spanning `streams`
    /// concurrent streams and `groups` time groups.
    pub fn record_mux_batch(&self, streams: usize, groups: usize) {
        ServeStats::inc(&self.mux_batches);
        self.mux_groups.fetch_add(groups as u64, Ordering::Relaxed);
        let bucket = match streams {
            0..=1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            _ => 5,
        };
        ServeStats::inc(&self.mux_occupancy[bucket]);
    }

    /// Publishes the batch worker's accumulated metrics for `/stats`.
    pub fn publish_worker_metrics(&self, snap: Snapshot) {
        *self.worker_metrics.lock().unwrap_or_else(|e| e.into_inner()) = snap;
    }

    /// The latest published worker metrics.
    pub fn worker_metrics(&self) -> Snapshot {
        self.worker_metrics.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The `/stats` JSON document: admission counters plus p50/p99 (µs) of
    /// every worker-side stage histogram.
    pub fn to_json(&self, ready: bool) -> String {
        let snap = self.worker_metrics();
        let occupancy = OCCUPANCY_KEYS
            .iter()
            .zip(&self.mux_occupancy)
            .fold(Object::new(), |o, (key, bucket)| o.raw(key, Self::get(bucket)));
        let cache = Object::new()
            .raw("group_hits", snap.counter("stage/cache_hit"))
            .raw("group_misses", snap.counter("stage/cache_miss"))
            .raw("window_hits", snap.counter("stage/window_hit"));
        let stages = snap.hists.iter().fold(Object::new(), |o, (key, h)| {
            let stage = Object::new()
                .raw("count", h.count)
                .raw("mean_us", h.mean_ns() / 1_000)
                .raw("p50_us", h.quantile_ns(0.5) / 1_000)
                .raw("p99_us", h.quantile_ns(0.99) / 1_000);
            o.raw(key, stage)
        });
        self.write_top(Object::new().raw("ready", ready))
            .raw("mux", self.write_mux(Object::new()).raw("occupancy", occupancy))
            .raw("cache", cache)
            .raw("stages", stages)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_snapshot_carries_counters_and_stages() {
        let stats = ServeStats::default();
        ServeStats::inc(&stats.accepted);
        ServeStats::inc(&stats.shed_queue_full);
        let scope = tsdx_tensor::metrics::stage_scope();
        tsdx_tensor::metrics::stage("stage/serve_batch", || std::hint::black_box(1 + 1));
        stats.publish_worker_metrics(scope.snapshot());
        drop(scope);
        stats.record_mux_batch(3, 7);
        stats.record_mux_batch(1, 2);
        let j = stats.to_json(true);
        assert!(j.contains("\"accepted\":1"), "{j}");
        assert!(j.contains("\"shed_queue_full\":1"), "{j}");
        assert!(j.contains("\"stage/serve_batch\""), "{j}");
        assert!(j.contains("\"ready\":true"), "{j}");
        assert!(j.contains("\"active_sessions\":0"), "{j}");
        assert!(j.contains("\"mux\":{\"batches\":2,\"groups\":9"), "{j}");
        assert!(j.contains("\"3_4\":1"), "{j}");
        assert!(crate::json::parse(j.as_bytes()).is_ok(), "stats must be valid JSON: {j}");
    }

    #[test]
    fn occupancy_buckets_split_at_the_documented_edges() {
        let stats = ServeStats::default();
        for streams in [1, 2, 3, 4, 5, 8, 9, 16, 17, 40] {
            stats.record_mux_batch(streams, streams);
        }
        let got: Vec<u64> = stats.mux_occupancy.iter().map(ServeStats::get).collect();
        assert_eq!(got, vec![1, 1, 2, 2, 2, 2]);
    }
}
