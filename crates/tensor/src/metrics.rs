//! Scoped runtime metrics: counters, span timers, and latency histograms.
//!
//! This is the observability substrate for the whole stack. Three primitives
//! are collected:
//!
//! - **Counters** — monotonically increasing event counts
//!   ([`counter_add`]), e.g. buffer materializations or GEMM dispatches.
//! - **Spans** — wall-time intervals with *self-time* accounting
//!   ([`span`]/[`span_shared`]): nested spans subtract child time from their
//!   parent, so a per-kernel/per-layer table of self times sums to the
//!   instrumented wall time instead of double-counting nesting.
//! - **Histograms** — log₂-bucketed nanosecond latency distributions
//!   ([`observe_ns`], [`stage`]) with approximate quantiles.
//!
//! # Scopes: race-free collection
//!
//! All records land in **thread-local collectors**, never in process
//! globals, so concurrently running tests (and concurrent request handlers)
//! can each open a [`scope`] and observe *only their own* activity:
//!
//! ```
//! use tsdx_tensor::{metrics, ops, Tensor};
//! let scope = metrics::scope();
//! let a = Tensor::ones(&[8, 8]);
//! let _ = ops::matmul(&a, &a);
//! let snap = scope.snapshot();
//! assert_eq!(snap.counter(tsdx_tensor::copy_metrics::KEY), 0); // no copies
//! ```
//!
//! Scopes nest: every record goes to *all* scopes open on the recording
//! thread that collect its tier, so an outer scope still sees activity that
//! an inner test scope also measured.
//!
//! # Two tiers
//!
//! A [`scope`] is a **full** scope: it collects everything — the op-level
//! records ([`span`], [`span_shared`], [`time`], [`counter_add`]) that
//! attribute a forward's time to kernels and layers, and the stage records.
//! Tests and the benchmark's traced pass open one. A [`stage_scope`]
//! collects only the **stage** records — [`stage`] histograms,
//! [`observe_ns`] and [`stage_count`] — which is all a server's `/stats`
//! reads: the serve batch worker holds one for its whole life, so a served
//! B = 1 forward makes 4 records (`stage/tubelet_embed`, `stage/encoder`,
//! `stage/heads`, `stage/decode`) where a full scope makes about 160. A full
//! scope nested in a stage scope sees every record; the stage scope still
//! holds only stage keys.
//!
//! # Zero cost when disabled
//!
//! Two static atomics count the open scopes: one of either tier, one of
//! full scopes. A stage record checks the first, an op-level record the
//! second, so with no scope open anywhere in the process — and, for an
//! op-level record, while only stage scopes are open — every recording
//! function reduces to **one relaxed load of one static atomic and a
//! branch**: no allocation, no syscalls, no thread-local initialization
//! (`tests/metrics_overhead.rs` proves zero allocations and bounds the
//! wall-time cost). There is no variable to set: a scope is the only way to
//! collect.
//!
//! # Cheap when enabled
//!
//! A full scope sees a few hundred records per B = 1 extraction, and the
//! benchmark's traced pass times forwards under one. A collector therefore
//! keeps each kind of metric in a small vector scanned by the **address** of
//! the key — a call site passes the same literal (or the same shared name)
//! every time, so the scan is pointer compares and one short string compare
//! to confirm — and falls back to comparing names. A name is copied once,
//! when a collector first sees it; after that a record allocates nothing
//! (`tests/metrics_overhead.rs` counts). Sorted, `String`-keyed maps exist
//! only in a [`Snapshot`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of log₂ nanosecond buckets a [`Histogram`] keeps: bucket `i`
/// counts observations in `[2^i, 2^(i+1))` ns, so 40 buckets span ~1 ns to
/// ~18 minutes.
pub const HIST_BUCKETS: usize = 40;

// Open scopes of either tier across all threads: what a stage record
// checks, one relaxed load.
static ACTIVE_SINKS: AtomicUsize = AtomicUsize::new(0);
// Open full scopes across all threads: what an op-level record checks.
static FULL_SINKS: AtomicUsize = AtomicUsize::new(0);

/// True when at least one scope of either tier is open on some thread. The
/// disabled path is a single branch on a static: stage records call this
/// and return immediately.
#[inline]
pub fn active() -> bool {
    ACTIVE_SINKS.load(Ordering::Relaxed) != 0
}

/// True when at least one full [`scope`] is open on some thread: the
/// op-level records' branch.
#[inline]
fn full_active() -> bool {
    FULL_SINKS.load(Ordering::Relaxed) != 0
}

/// Aggregate statistics of one span key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall time, including child spans.
    pub total_ns: u64,
    /// Wall time minus time spent in child spans.
    pub self_ns: u64,
}

/// A log₂-bucketed nanosecond latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts observations in `[2^i, 2^(i+1))` ns.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed durations in nanoseconds.
    pub sum_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum_ns: 0 }
    }
}

impl Histogram {
    fn observe(&mut self, ns: u64) {
        let b = (u64::BITS - 1 - ns.max(1).leading_zeros()) as usize;
        self.buckets[b.min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate `q`-quantile (`0.0..=1.0`) in nanoseconds: the geometric
    /// midpoint of the bucket holding the `q`-th observation.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Geometric midpoint of [2^i, 2^(i+1)).
                return (1u64 << i) + (1u64 << i) / 2;
            }
        }
        1u64 << (HIST_BUCKETS - 1)
    }
}

/// A point-in-time copy of one collector's contents.
///
/// Returned by [`ScopeGuard::snapshot`]; all maps are keyed by the flat
/// metric key (`"op/matmul"`, `"layer/encoder.spatial.block0"` ...).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Completed-span statistics.
    pub spans: BTreeMap<String, SpanStat>,
    /// Latency histograms.
    pub hists: BTreeMap<String, Histogram>,
    /// Number of recording calls that reached this collector (one per
    /// `counter_add`/`observe_ns`/span close, independent of the amount a
    /// counter was bumped by).
    pub records: u64,
}

impl Snapshot {
    /// Counter value, 0 when never recorded.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Span statistics, zeroed when never recorded.
    pub fn span(&self, key: &str) -> SpanStat {
        self.spans.get(key).copied().unwrap_or_default()
    }

    /// Total recording calls across all three primitives (used by the
    /// overhead bench to count instrumentation call sites per step). A
    /// `counter_add(key, n)` is one record regardless of `n`: quantity
    /// counters like `workspace/bytes_recycled` bump by thousands per call.
    pub fn total_records(&self) -> u64 {
        self.records
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "counter {k} = {v}")?;
        }
        for (k, s) in &self.spans {
            writeln!(
                f,
                "span    {k}: n={} total={:.3}ms self={:.3}ms",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            )?;
        }
        for (k, h) in &self.hists {
            writeln!(
                f,
                "hist    {k}: n={} mean={}ns p50={}ns p99={}ns",
                h.count,
                h.mean_ns(),
                h.quantile_ns(0.5),
                h.quantile_ns(0.99)
            )?;
        }
        Ok(())
    }
}

/// One metric of a collector.
struct Row<T> {
    name: Box<str>,
    /// Where the key that last matched this row lives. Only ever compared: a
    /// key at the same address is almost always the same literal, and the
    /// name is checked anyway because a dynamic key's buffer can be reused.
    seen_at: *const u8,
    value: T,
}

/// The metrics of one kind in first-seen order. A forward touches ~25 keys;
/// a scan of that many addresses beats a tree walk over `String`s.
struct Table<T>(Vec<Row<T>>);

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table(Vec::new())
    }
}

impl<T: Default + Clone> Table<T> {
    /// The value recorded under `key`, created on first sight — the only
    /// time a record allocates.
    fn slot(&mut self, key: &str) -> &mut T {
        let rows = &mut self.0;
        let found = rows
            .iter()
            .position(|r| r.seen_at == key.as_ptr() && *r.name == *key)
            .or_else(|| rows.iter().position(|r| *r.name == *key));
        let i = found.unwrap_or_else(|| {
            rows.push(Row { name: key.into(), seen_at: key.as_ptr(), value: T::default() });
            rows.len() - 1
        });
        rows[i].seen_at = key.as_ptr();
        &mut rows[i].value
    }

    fn get(&self, key: &str) -> Option<&T> {
        self.0.iter().find(|r| *r.name == *key).map(|r| &r.value)
    }

    fn to_map(&self) -> BTreeMap<String, T> {
        self.0.iter().map(|r| (r.name.to_string(), r.value.clone())).collect()
    }
}

#[derive(Default)]
struct Collector {
    /// A full scope's collector; a stage scope's keeps stage records only.
    full: bool,
    counters: Table<u64>,
    spans: Table<SpanStat>,
    hists: Table<Histogram>,
    records: u64,
}

impl Collector {
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.to_map(),
            spans: self.spans.to_map(),
            hists: self.hists.to_map(),
            records: self.records,
        }
    }
}

thread_local! {
    // Innermost-last stack of this thread's open scopes.
    static COLLECTORS: RefCell<Vec<Rc<RefCell<Collector>>>> = const { RefCell::new(Vec::new()) };
    // Wall time of the spans closed so far inside the innermost open span —
    // what its self time excludes. An opening span parks the value in its
    // guard and starts from zero; closing, it puts the parked value back
    // plus its own wall time. Guards drop innermost-first, so this one cell
    // is the whole span stack.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Applies `f` to every collector open on this thread, or with `full_only`
/// to the full scopes' ones.
fn with_collectors(full_only: bool, f: impl Fn(&mut Collector)) {
    COLLECTORS.with(|c| {
        for rc in c.borrow().iter() {
            let mut c = rc.borrow_mut();
            if c.full || !full_only {
                f(&mut c);
            }
        }
    });
}

/// RAII guard for a metrics collection scope (see [`scope`]).
///
/// Dropping the guard closes the scope; [`ScopeGuard::snapshot`] reads its
/// current totals at any point. The guard is `!Send`: a scope belongs to
/// the thread that opened it.
pub struct ScopeGuard {
    collector: Rc<RefCell<Collector>>,
}

impl ScopeGuard {
    /// A copy of everything this scope has collected so far.
    pub fn snapshot(&self) -> Snapshot {
        self.collector.borrow().snapshot()
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.collector.borrow().full {
            FULL_SINKS.fetch_sub(1, Ordering::SeqCst);
        }
        COLLECTORS.with(|c| {
            let mut stack = c.borrow_mut();
            let pos = stack
                .iter()
                .rposition(|rc| Rc::ptr_eq(rc, &self.collector))
                .expect("scope collector still registered");
            stack.remove(pos);
        });
        ACTIVE_SINKS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Opens a full collection scope on the calling thread.
///
/// Until the returned guard is dropped, every metric recorded **by this
/// thread** — op-level and stage records alike — is collected and readable
/// via [`ScopeGuard::snapshot`]. Other threads' scopes are unaffected —
/// concurrent tests cannot observe each other. Scopes nest; inner activity
/// is visible to outer scopes.
pub fn scope() -> ScopeGuard {
    open_scope(true)
}

/// Opens a stage scope on the calling thread: like [`scope`], but it
/// collects only [`stage`] histograms, [`observe_ns`] and [`stage_count`].
/// The op-level records ([`span`], [`span_shared`], [`time`],
/// [`counter_add`]) never reach it, and while no full scope is open in the
/// process each of them is one static branch.
pub fn stage_scope() -> ScopeGuard {
    open_scope(false)
}

fn open_scope(full: bool) -> ScopeGuard {
    let collector = Rc::new(RefCell::new(Collector { full, ..Collector::default() }));
    COLLECTORS.with(|c| c.borrow_mut().push(Rc::clone(&collector)));
    ACTIVE_SINKS.fetch_add(1, Ordering::SeqCst);
    if full {
        FULL_SINKS.fetch_add(1, Ordering::SeqCst);
    }
    ScopeGuard { collector }
}

/// Adds `n` to the op-level counter `key` in every full scope open on this
/// thread. A no-op (single static branch, no allocation) while no full
/// scope is open.
#[inline]
pub fn counter_add(key: &str, n: u64) {
    if !full_active() {
        return;
    }
    count_slow(true, key, n);
}

/// Adds `n` to the stage counter `key` in every open scope of either tier
/// on this thread — the counters a server's `/stats` reads. A no-op (single
/// static branch, no allocation) when no scope is open.
#[inline]
pub fn stage_count(key: &str, n: u64) {
    if !active() {
        return;
    }
    count_slow(false, key, n);
}

#[cold]
fn count_slow(full_only: bool, key: &str, n: u64) {
    with_collectors(full_only, |c| {
        c.records += 1;
        *c.counters.slot(key) += n;
    });
}

/// Two op-level counters bumped by one event, as **one** record — a buffer
/// take is a hit and its bytes, and a forward takes dozens of buffers.
#[inline]
pub(crate) fn counter_add2(a: &str, na: u64, b: &str, nb: u64) {
    if !full_active() {
        return;
    }
    counter_add2_slow(a, na, b, nb);
}

#[cold]
fn counter_add2_slow(a: &str, na: u64, b: &str, nb: u64) {
    with_collectors(true, |c| {
        c.records += 1;
        *c.counters.slot(a) += na;
        *c.counters.slot(b) += nb;
    });
}

/// Current value of counter `key` in the innermost open collector on this
/// thread (0 when no collector is open or the counter never fired).
pub(crate) fn current_counter(key: &str) -> u64 {
    COLLECTORS.with(|c| {
        c.borrow().last().map_or(0, |rc| rc.borrow().counters.get(key).copied().unwrap_or(0))
    })
}

/// Records one observation of `ns` nanoseconds into histogram `key`, in
/// scopes of either tier. A no-op (single static branch) when no scope is
/// open.
#[inline]
pub fn observe_ns(key: &str, ns: u64) {
    if !active() {
        return;
    }
    observe_ns_slow(key, ns);
}

#[cold]
fn observe_ns_slow(key: &str, ns: u64) {
    with_collectors(false, |c| {
        c.records += 1;
        c.hists.slot(key).observe(ns);
    });
}

/// An open span timer; created by [`span`]/[`span_shared`], recorded on drop.
///
/// Inert (`None` payload, nothing allocated) when no scope of its tier was
/// open in the process at creation.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    key: SpanKey,
    start: Instant,
    also_hist: bool,
    /// The enclosing span's `CHILD_NS` so far.
    outer_child_ns: u64,
}

enum SpanKey {
    Static(&'static str),
    Shared(Arc<str>),
}

impl SpanKey {
    fn as_str(&self) -> &str {
        match self {
            SpanKey::Static(s) => s,
            SpanKey::Shared(s) => s,
        }
    }
}

/// Opens an op-level wall-time span named `key`, collected by full scopes.
/// The elapsed time is recorded when the returned guard drops; nested spans
/// subtract their time from this span's *self* time. Single static branch
/// and no allocation while no full scope is open.
#[inline]
pub fn span(key: &'static str) -> Span {
    if !full_active() {
        return Span { inner: None };
    }
    open_span(SpanKey::Static(key), false)
}

/// [`span`] under a name its owner built once and shares (a per-layer
/// label): the open span holds a reference, so no forward formats or
/// allocates a name.
#[inline]
pub fn span_shared(key: &Arc<str>) -> Span {
    if !full_active() {
        return Span { inner: None };
    }
    open_span(SpanKey::Shared(Arc::clone(key)), false)
}

/// Times `f` into the histogram `key` — the per-stage latency primitive
/// used on the inference path, collected by scopes of either tier — and,
/// in full scopes, under the span of the same key too.
#[inline]
pub fn stage<R>(key: &'static str, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    let _span = open_span(SpanKey::Static(key), true);
    f()
}

/// Times `f` under the op-level span `key` (no histogram).
#[inline]
pub fn time<R>(key: &'static str, f: impl FnOnce() -> R) -> R {
    if !full_active() {
        return f();
    }
    let _span = open_span(SpanKey::Static(key), false);
    f()
}

#[cold]
fn open_span(key: SpanKey, also_hist: bool) -> Span {
    let outer_child_ns = CHILD_NS.replace(0);
    Span { inner: Some(SpanInner { key, start: Instant::now(), also_hist, outer_child_ns }) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let elapsed = inner.start.elapsed().as_nanos() as u64;
        // Credit our wall time to the enclosing span's child accumulator.
        let child_ns = CHILD_NS.replace(inner.outer_child_ns + elapsed);
        let self_ns = elapsed.saturating_sub(child_ns);
        let key = inner.key.as_str();
        with_collectors(!inner.also_hist, |c| {
            c.records += 1;
            if c.full {
                let stat = c.spans.slot(key);
                stat.count += 1;
                stat.total_ns += elapsed;
                stat.self_ns += self_ns;
            }
            if inner.also_hist {
                c.hists.slot(key).observe(elapsed);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_current_counter_is_zero() {
        // No scope on this thread: nothing collects here.
        counter_add("test/never", 3);
        observe_ns("test/never", 100);
        assert_eq!(current_counter("test/never"), 0);
    }

    #[test]
    fn scope_collects_and_closes() {
        let s = scope();
        counter_add("test/a", 2);
        counter_add("test/a", 1);
        observe_ns("test/lat", 1500);
        {
            let _sp = span("test/span");
            std::hint::black_box(0);
        }
        let snap = s.snapshot();
        assert_eq!(snap.counter("test/a"), 3);
        assert_eq!(snap.hists["test/lat"].count, 1);
        assert_eq!(snap.span("test/span").count, 1);
        drop(s);
        counter_add("test/a", 10);
        assert_eq!(current_counter("test/a"), 0, "closed scope must stop collecting");
    }

    #[test]
    fn nested_scopes_both_observe() {
        let outer = scope();
        counter_add("test/n", 1);
        {
            let inner = scope();
            counter_add("test/n", 5);
            assert_eq!(inner.snapshot().counter("test/n"), 5);
        }
        counter_add("test/n", 1);
        assert_eq!(outer.snapshot().counter("test/n"), 7);
    }

    #[test]
    fn span_self_time_excludes_children() {
        let s = scope();
        {
            let _outer = span("test/outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test/inner");
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
        }
        let snap = s.snapshot();
        let outer = snap.span("test/outer");
        let inner = snap.span("test/inner");
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns < outer.total_ns,
            "child time must be subtracted: self={} total={}",
            outer.self_ns,
            outer.total_ns
        );
        assert_eq!(inner.self_ns, inner.total_ns, "leaf span is all self time");
        // Self times of a nest sum to the outer total.
        let sum = outer.self_ns + inner.self_ns;
        assert!(sum.abs_diff(outer.total_ns) < outer.total_ns / 10 + 1_000_000);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe(1_000); // bucket 9 (512..1024? no: 2^9=512, 2^10=1024 -> bucket 9)
        }
        for _ in 0..10 {
            h.observe(1_000_000);
        }
        assert_eq!(h.count, 100);
        assert!(h.quantile_ns(0.5) < 10_000);
        assert!(h.quantile_ns(0.99) > 500_000);
        assert_eq!(h.mean_ns(), (90 * 1_000 + 10 * 1_000_000) / 100);
    }

    #[test]
    fn display_formats_every_kind() {
        let s = scope();
        counter_add("test/c", 1);
        observe_ns("test/h", 42);
        time("test/t", || ());
        let text = s.snapshot().to_string();
        assert!(text.contains("counter test/c"));
        assert!(text.contains("hist    test/h"));
        assert!(text.contains("span    test/t"));
    }
}
