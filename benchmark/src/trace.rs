//! The span recorder of the traced pass.
//!
//! Spans are opened and closed from the benchmark's own files around calls
//! into the crates' public functions (nothing inside the program is
//! instrumented), kept in memory, and written to `out/trace.jsonl` when the
//! run ends.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

/// One closed interval. `parent` is the id of the enclosing span, or 0 for
/// a request's root span; ids start at 1 and are unique within a run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// Enclosing span's id; 0 marks a request root.
    pub parent: u32,
    /// Workload the request belongs to.
    pub workload: &'static str,
    /// Request number within its workload and pass.
    pub request: u32,
    /// Layer name: a per-layer metric's name without its unit suffix.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Handle of an open span, returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// In-memory span store with a stack of open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    workload: &'static str,
    request: u32,
    counts: BTreeMap<(&'static str, &'static str), (f64, u64)>,
}

impl Tracer {
    /// An empty store; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            workload: "",
            request: 0,
            counts: BTreeMap::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens the root span of request `request` of `workload`; every span
    /// until the matching [`close`](Self::close) belongs to it.
    pub fn open_request(
        &mut self,
        workload: &'static str,
        request: u32,
        name: &'static str,
    ) -> Open {
        assert!(self.stack.is_empty(), "request spans do not nest");
        self.workload = workload;
        self.request = request;
        self.open(name)
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            workload: self.workload,
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open(self.spans.len() - 1)
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn close(&mut self, span: Open) {
        let end_ns = self.ns(Instant::now());
        let s = &mut self.spans[span.0];
        assert_eq!(self.stack.pop(), Some(s.id), "spans close innermost first");
        s.end_ns = end_ns;
    }

    /// Times `f` as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.open(name);
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }

    /// Records a request whose root and leaf children were timed elsewhere
    /// (client phases timed by the connection): `(name, start, end)` each,
    /// the root first.
    pub fn record_request(
        &mut self,
        workload: &'static str,
        request: u32,
        root_and_leaves: &[(&'static str, Instant, Instant)],
    ) {
        assert!(self.stack.is_empty(), "request spans do not nest");
        let root = self.spans.len() as u32 + 1;
        for (n, &(name, start, end)) in root_and_leaves.iter().enumerate() {
            self.spans.push(Span {
                id: root + n as u32,
                parent: if n == 0 { 0 } else { root },
                workload,
                request,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Adds `value` to the count `name` of the request being traced (sizes
    /// of the inputs a span worked on, kept where the span is).
    pub fn count(&mut self, name: &'static str, value: f64) {
        let slot = self.counts.entry((self.workload, name)).or_default();
        slot.0 += value;
        slot.1 += 1;
    }

    /// Mean of the count `name` over `workload`'s requests; 0 when never
    /// counted.
    pub fn mean_count(&self, workload: &str, name: &str) -> f64 {
        match self.counts.iter().find(|((w, n), _)| *w == workload && *n == name) {
            Some((_, &(sum, n))) => sum / n as f64,
            None => 0.0,
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, one line per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.workload, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Duration and self time (duration minus the part child spans cover) of
/// each span name, in microseconds.
pub type SpanTimes = BTreeMap<&'static str, (f64, f64)>;

/// Per replayed or traced request of `workload` (one entry per root span,
/// in order): its request number and each span name's times. A name that
/// occurs several times in one request (two pushes per `stream_pair` op) is
/// summed, so the numbers are per request.
pub fn per_request(spans: &[Span], workload: &str) -> Vec<(u32, SpanTimes)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.workload == workload && s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    // Children follow their parents in `spans`, so a span's request is the
    // last one opened when it is reached.
    let mut requests: Vec<(u32, SpanTimes)> = Vec::new();
    for s in spans.iter().filter(|s| s.workload == workload) {
        if s.parent == 0 {
            requests.push((s.request, SpanTimes::new()));
        }
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let times = &mut requests.last_mut().expect("a root precedes its children").1;
        let slot = times.entry(s.name).or_default();
        slot.0 += total as f64 / 1e3;
        slot.1 += own as f64 / 1e3;
    }
    requests
}

/// The traced pass runs in chunks of `chunk_len` consecutive requests, each
/// chunk through every pass before the next starts, so that host drift hits
/// the passes of a chunk alike. This is each chunk's median times per span
/// name, over the requests of the chunk that have the span.
pub fn chunk_medians(requests: &[(u32, SpanTimes)], chunk_len: usize) -> Vec<SpanTimes> {
    let mut by_chunk: BTreeMap<usize, Vec<&SpanTimes>> = BTreeMap::new();
    for (request, times) in requests {
        by_chunk.entry(*request as usize / chunk_len).or_default().push(times);
    }
    by_chunk
        .into_values()
        .map(|members| {
            let names: BTreeSet<&'static str> =
                members.iter().flat_map(|t| t.keys().copied()).collect();
            names
                .into_iter()
                .map(|name| {
                    let (totals, owns): (Vec<f64>, Vec<f64>) =
                        members.iter().filter_map(|t| t.get(name)).copied().unzip();
                    (name, (median(&totals), median(&owns)))
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_every_one_names_its_parent_and_request() {
        let mut t = Tracer::new();
        let root = t.open_request("clip_octet", 7, "request");
        let a = t.open("serve.http.read_head");
        t.close(a);
        let b = t.open("pipeline");
        t.leaf("core.extract.validate", || ());
        t.close(b);
        t.close(root);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].id, s[0].parent), (1, 0));
        assert_eq!((s[1].id, s[1].parent), (2, 1));
        assert_eq!((s[2].id, s[2].parent), (3, 1));
        assert_eq!((s[3].id, s[3].parent), (4, 3));
        assert!(s.iter().all(|x| x.request == 7 && x.workload == "clip_octet"));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let lines: Vec<_> = t.to_jsonl().lines().map(str::to_owned).collect();
        assert_eq!(lines.len(), 4);
        for line in lines {
            let j = tsdx_serve::json::parse(line.as_bytes()).unwrap();
            for key in ["id", "parent", "workload", "request", "name", "start_ns", "end_ns"] {
                assert!(j.get(key).is_some(), "{key} missing in {line}");
            }
        }
    }

    #[test]
    fn self_time_subtracts_children_and_repeats_sum_per_request() {
        let span = |id, parent, request, name, start_ns, end_ns| Span {
            id,
            parent,
            workload: "w",
            request,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, 0, "request", 0, 10_000),
            span(2, 1, 0, "x", 1_000, 3_000),
            span(3, 1, 0, "x", 4_000, 5_000),
            span(4, 0, 1, "request", 20_000, 26_000),
            span(5, 4, 1, "x", 21_000, 22_000),
            span(6, 0, 2, "request", 30_000, 32_000),
        ];
        let requests = per_request(&spans, "w");
        assert_eq!(requests.len(), 3);
        let one = chunk_medians(&requests, 3);
        assert_eq!(one.len(), 1);
        // Durations 10, 6, 2 µs; self times 7, 5, 2 µs.
        assert_eq!(one[0]["request"], (6.0, 5.0));
        // Per request: 2+1 = 3 µs and 1 µs.
        assert_eq!(one[0]["x"], (2.0, 2.0));
        // Chunks of two requests: {0, 1} and {2}; the last has no `x`.
        let two = chunk_medians(&requests, 2);
        assert_eq!(two.len(), 2);
        assert_eq!(two[0]["request"], (8.0, 6.0));
        assert_eq!(two[1]["request"], (2.0, 2.0));
        assert!(!two[1].contains_key("x"));
        assert!(per_request(&spans, "other").is_empty());
    }
}
