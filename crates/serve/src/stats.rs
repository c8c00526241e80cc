//! Server-lifetime counters and the `/stats` SLO snapshot.
//!
//! Two sources feed the endpoint. Cheap process-wide **counters** (atomics
//! here) record every admission decision — accepted, shed, rejected,
//! panicking — from whichever thread made it. **Latency distributions**
//! come from the PR 4 metrics layer: the batch worker runs under a
//! [`tsdx_tensor::metrics::scope`], so the per-stage histograms
//! (`stage/tubelet_embed` → `stage/decode`, plus `stage/serve_batch`)
//! accumulate there and are published after every batch for `/stats` to
//! read without cross-thread metric plumbing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tsdx_tensor::metrics::Snapshot;

/// Monotonic counters over the server's lifetime. All relaxed: they are
/// observability, not synchronization.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests admitted into the batch queue.
    pub accepted: AtomicU64,
    /// Admitted requests answered with a scenario (200).
    pub completed: AtomicU64,
    /// Requests shed at admission with 429 (queue full).
    pub shed_queue_full: AtomicU64,
    /// Requests shed with 503 before their forward (deadline unmakeable).
    pub shed_deadline: AtomicU64,
    /// Connections turned away at the connection cap (503).
    pub shed_busy: AtomicU64,
    /// Requests rejected 4xx (malformed HTTP, bad JSON, invalid video).
    pub rejected: AtomicU64,
    /// Handler or batch-forward panics captured (500s served instead of a
    /// crash).
    pub panics_caught: AtomicU64,
    /// Batched forwards executed.
    pub batches: AtomicU64,
    /// Clips summed over all executed batches (mean batch size =
    /// `batched_clips / batches`).
    pub batched_clips: AtomicU64,
    /// Current admission-queue depth (gauge, updated on enqueue/drain).
    pub queue_depth: AtomicU64,
    /// Streaming sessions opened over the server's lifetime.
    pub sessions_opened: AtomicU64,
    /// Sessions closed by an explicit `DELETE`.
    pub sessions_closed: AtomicU64,
    /// Sessions evicted after their idle TTL.
    pub evicted_sessions: AtomicU64,
    /// Session creates shed at the table capacity (429).
    pub shed_sessions: AtomicU64,
    /// Currently live sessions (gauge, updated on create/close/evict).
    pub active_sessions: AtomicU64,
    /// Stream chunk pushes answered successfully.
    pub stream_pushes: AtomicU64,
    /// Cross-stream batched group-encode forwards executed.
    pub mux_batches: AtomicU64,
    /// Time groups summed over all batched group encodes.
    pub mux_groups: AtomicU64,
    /// Cross-stream batch-occupancy histogram: how many streams shared
    /// each group-encode forward, bucketed 1 / 2 / 3–4 / 5–8 / 9–16 / 17+.
    pub mux_occupancy: [AtomicU64; 6],
    /// Latest published worker-side metrics snapshot.
    worker_metrics: Mutex<Snapshot>,
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
        let mut stages = String::new();
        for (key, h) in &snap.hists {
            if !stages.is_empty() {
                stages.push(',');
            }
            stages.push_str(&format!(
                "\"{}\":{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{}}}",
                crate::json::escape(key),
                h.count,
                h.mean_ns() / 1_000,
                h.quantile_ns(0.5) / 1_000,
                h.quantile_ns(0.99) / 1_000,
            ));
        }
        let mut occupancy = String::new();
        for (key, bucket) in OCCUPANCY_KEYS.iter().zip(&self.mux_occupancy) {
            if !occupancy.is_empty() {
                occupancy.push(',');
            }
            occupancy.push_str(&format!("\"{key}\":{}", Self::get(bucket)));
        }
        format!(
            concat!(
                "{{\"ready\":{ready},\"accepted\":{accepted},\"completed\":{completed},",
                "\"shed_queue_full\":{sqf},\"shed_deadline\":{sd},\"shed_busy\":{sb},",
                "\"rejected\":{rej},\"panics_caught\":{pan},",
                "\"batches\":{batches},\"batched_clips\":{clips},\"queue_depth\":{depth},",
                "\"active_sessions\":{active},\"sessions_opened\":{opened},",
                "\"sessions_closed\":{closed_n},\"evicted_sessions\":{evicted},",
                "\"shed_sessions\":{shed_s},\"stream_pushes\":{pushes},",
                "\"mux\":{{\"batches\":{mux_b},\"groups\":{mux_g},",
                "\"occupancy\":{{{occupancy}}}}},",
                "\"cache\":{{\"group_hits\":{c_hit},\"group_misses\":{c_miss},",
                "\"window_hits\":{w_hit}}},",
                "\"stages\":{{{stages}}}}}"
            ),
            ready = ready,
            active = Self::get(&self.active_sessions),
            opened = Self::get(&self.sessions_opened),
            closed_n = Self::get(&self.sessions_closed),
            evicted = Self::get(&self.evicted_sessions),
            shed_s = Self::get(&self.shed_sessions),
            pushes = Self::get(&self.stream_pushes),
            mux_b = Self::get(&self.mux_batches),
            mux_g = Self::get(&self.mux_groups),
            occupancy = occupancy,
            c_hit = snap.counter("stage/cache_hit"),
            c_miss = snap.counter("stage/cache_miss"),
            w_hit = snap.counter("stage/window_hit"),
            accepted = Self::get(&self.accepted),
            completed = Self::get(&self.completed),
            sqf = Self::get(&self.shed_queue_full),
            sd = Self::get(&self.shed_deadline),
            sb = Self::get(&self.shed_busy),
            rej = Self::get(&self.rejected),
            pan = Self::get(&self.panics_caught),
            batches = Self::get(&self.batches),
            clips = Self::get(&self.batched_clips),
            depth = Self::get(&self.queue_depth),
            stages = stages,
        )
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
        let scope = tsdx_tensor::metrics::scope();
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
