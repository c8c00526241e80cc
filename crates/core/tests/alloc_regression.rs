//! Steady-state training steps barely touch the system allocator.
//!
//! The workspace arena (`tsdx_tensor::workspace`) exists to recycle the
//! large `f32` buffers behind activations, gradients, and kernel scratch:
//! after a few warm-up steps every big allocation should be served from the
//! arena, leaving only small metadata (an `Arc` buffer header per tensor,
//! the tape's node and gradient vectors) for the system allocator: shapes
//! and strides are held inline and allocate nothing. This test pins that
//! property with a counting global allocator: the same training step is
//! driven with the arena disabled and enabled, and the enabled run must
//! allocate at least 10× fewer bytes per step.
//!
//! Lives in its own integration-test file so the `#[global_allocator]`
//! override owns the whole process; the tests here serialize on a mutex
//! (the harness would otherwise interleave their timings), and the counts
//! are per thread: every kernel runs on its caller's thread, so every
//! allocation of the measured work lands on the counting thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, Once};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_core::{
    multitask_loss, ClipModel, ModelConfig, ScenarioExtractor, VideoScenarioTransformer,
};
use tsdx_data::{collate, generate_dataset, DatasetConfig};
use tsdx_render::RenderConfig;
use tsdx_tensor::dial::RunConfig;
use tsdx_tensor::{metrics, Graph, Tensor};

/// Forwards to the system allocator, counting calls and bytes per thread.
/// Per thread because the harness's own threads allocate while a test
/// measures (starting the next test, recording a result); the measured work
/// runs on the test's thread.
struct CountingAlloc;

thread_local! {
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `Cell` ops cannot allocate, so this does not recurse.
    COUNTS.with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

// SAFETY: delegates directly to `System`; the counters are thread-local
// cells with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocator `(calls, bytes)` of this thread so far.
fn snapshot() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

const WARMUP: usize = 3;
const MEASURED: usize = 5;

/// Allocator `(calls, bytes)` of `MEASURED` runs of `op` after `WARMUP`
/// unmeasured ones, all under `rc` — on this thread, because the arena is
/// thread-local and so is the meaning of a `RunConfig`.
fn steady_state(rc: RunConfig, mut op: impl FnMut()) -> (u64, u64) {
    rc.run(|| {
        (0..WARMUP).for_each(|_| op());
        let (c0, b0) = snapshot();
        (0..MEASURED).for_each(|_| op());
        let (c1, b1) = snapshot();
        (c1 - c0, b1 - b0)
    })
}

/// Serializes the measuring tests so one test's allocations never land in
/// another's measurement window. The first caller prints the run-time
/// switches: on a CPU without AVX-512F the f32 kernel is the portable one,
/// and the counts come from it.
fn measuring() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static SWITCHES: Once = Once::new();
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    SWITCHES.call_once(|| eprintln!("run-time switches: {}", tsdx_core::run_time_switches()));
    guard
}

#[test]
fn steady_state_step_allocations_drop_with_workspaces() {
    let _serial = measuring();
    // The evaluation-default model (8x32x32 clips, width 64): its activation
    // and gradient buffers are tens of KB each, so buffer traffic — the
    // thing the arena absorbs — dominates the byte counts. On a toy config
    // small tape/shape metadata would swamp the measurement instead.
    let model = VideoScenarioTransformer::new(ModelConfig::default(), 0);
    let clips = generate_dataset(&DatasetConfig {
        n_clips: 4,
        render: RenderConfig::default(),
        ..DatasetConfig::default()
    });
    let refs: Vec<&tsdx_data::Clip> = clips.iter().collect();
    let batch = collate(&refs);

    // As `train` records a step: the tape sized by the last step's.
    let tape_len = std::cell::Cell::new(0);
    let step = || {
        let mut g = Graph::with_capacity(tape_len.get());
        let binding = model.params().bind(&mut g);
        let mut rng = StdRng::seed_from_u64(1);
        let logits = model.forward(&mut g, &binding, &batch.videos, &mut rng, true);
        let loss = multitask_loss(&mut g, &logits, &batch);
        let grads = g.backward(loss);
        tape_len.set(g.len());
        std::hint::black_box(model.params().collect_grads(&binding, &grads));
    };

    let base = RunConfig::current();
    let (calls_off, bytes_off) = steady_state(RunConfig { recycle: false, ..base }, step);
    let (calls_on, bytes_on) = steady_state(RunConfig { recycle: true, ..base }, step);

    let per_step = |v: u64| v / MEASURED as u64;
    eprintln!(
        "alloc/step: arena off {} calls / {} bytes, arena on {} calls / {} bytes",
        per_step(calls_off),
        per_step(bytes_off),
        per_step(calls_on),
        per_step(bytes_on),
    );

    assert!(bytes_on > 0 && bytes_off > 0, "counting allocator saw no traffic");
    assert!(
        bytes_off >= 10 * bytes_on,
        "workspace arena no longer absorbs the f32 buffer traffic: \
         {} bytes/step with arena off vs {} with arena on (need >= 10x)",
        per_step(bytes_off),
        per_step(bytes_on),
    );
    // Call-count budget: metadata (Arc headers, the tape's vectors) still
    // allocates, but recycling must remove the per-buffer allocations too.
    assert!(
        calls_off > calls_on,
        "arena on should issue fewer allocator calls: off {calls_off} vs on {calls_on}"
    );
    // ...and what is left is per value: 353 calls, most of them `Arc`
    // headers (359 while each tape grew from empty, reallocating its node
    // vector six times). With two dim vectors per value it made 2781
    // (attention one node); with the head splits, kᵀ, q·kᵀ, scale, softmax,
    // p·v and the merge as nodes of their own 3068, and 3759 before a
    // linear layer was one node.
    assert!(
        per_step(calls_on) <= 359,
        "a training step allocates per value and the tape grew: {} calls/step",
        per_step(calls_on)
    );
}

#[test]
fn steady_state_extraction_allocates_per_value_not_per_tape_node() {
    let _serial = measuring();
    let ex = ScenarioExtractor::untrained(ModelConfig::default(), 0);
    let cfg = *ex.model().config();
    let video =
        Tensor::from_fn(&[cfg.frames, cfg.height, cfg.width], |i| (i as f32 * 0.0041).sin() * 0.5);
    let rc = RunConfig { recycle: true, ..RunConfig::current() };
    let (calls, bytes) =
        steady_state(rc, || drop(std::hint::black_box(ex.extract_checked(&video).unwrap())));

    let per = |v: u64| v / MEASURED as u64;
    eprintln!("alloc/extract: {} calls / {} bytes", per(calls), per(bytes));
    assert!(bytes > 0, "counting allocator saw no traffic");
    // Extraction runs the non-recording executor, so what allocates is the
    // values themselves, a buffer header per tensor: 63 calls per
    // extraction, the batched window forward at B = 1. Through a
    // single-window stream session it was 80; with a `Vec` of inputs per
    // concat 82; two dim vectors per tensor 436; binding ~100 parameters
    // into a tape and recording a node per op 797; the composed attention
    // graph 1061; the unfused tape 1577.
    assert!(
        per(calls) <= 66,
        "extraction allocates per value and the forward grew: {} calls",
        per(calls)
    );
}

#[test]
fn a_batch_of_eight_windows_stacks_and_gathers_in_the_arena() {
    let _serial = measuring();
    // The two largest buffers of a B = 8 call are its inputs: the stacked
    // `[8, T, H, W]` batch and the `[8, nt*ns, vol]` tubelet gather, 256 KiB
    // each at the default config. Built outside the arena they were the
    // whole of the call's allocator bytes (67 229 B per clip on the
    // `bulk_batch8` workload); from it, what is left is per-value metadata.
    let ex = ScenarioExtractor::untrained(ModelConfig::default(), 0);
    let cfg = *ex.model().config();
    let clips: Vec<Tensor> = (0..8)
        .map(|c| {
            Tensor::from_fn(&[cfg.frames, cfg.height, cfg.width], |i| {
                ((i + c * 977) as f32 * 0.0041).sin() * 0.5
            })
        })
        .collect();
    let refs: Vec<&Tensor> = clips.iter().collect();
    let rc = RunConfig { recycle: true, ..RunConfig::current() };
    let (calls, bytes) =
        steady_state(rc, || drop(std::hint::black_box(ex.extract_window_batch(&refs))));
    let per = |v: u64| v / MEASURED as u64;
    eprintln!("alloc/batch-8 extract: {} calls / {} bytes", per(calls), per(bytes));
    let inputs = 2 * 8 * cfg.frames * cfg.height * cfg.width * 4;
    // Measured 10 888 B per call; the ceiling is a sixteenth of the two
    // input buffers (4 KiB per clip), so either of them leaving the arena
    // breaks it eight-fold.
    assert!(
        per(bytes) <= inputs as u64 / 16,
        "a B = 8 extraction allocates {} B outside the arena (its two input buffers are {inputs} B)",
        per(bytes)
    );
}

/// Allocator calls of a steady-state B = 1 `extract_window_batch` with no
/// scope open and under the scope `open` returns, and that scope, still
/// open.
fn extraction_under(open: fn() -> metrics::ScopeGuard) -> (u64, u64, metrics::ScopeGuard) {
    let ex = ScenarioExtractor::untrained(ModelConfig::default(), 0);
    let cfg = *ex.model().config();
    let video =
        Tensor::from_fn(&[cfg.frames, cfg.height, cfg.width], |i| (i as f32 * 0.0041).sin() * 0.5);
    let rc = RunConfig { recycle: true, ..RunConfig::current() };
    let extract = || drop(std::hint::black_box(ex.extract_window_batch(&[&video])));
    let (calls_closed, _) = steady_state(rc, extract);
    let scope = open();
    let (calls_open, _) = steady_state(rc, extract);
    (calls_closed, calls_open, scope)
}

#[test]
fn a_stage_scope_costs_an_extraction_four_records_and_no_allocation() {
    let _serial = measuring();
    // A serving worker runs every forward under a stage scope, so these
    // records are on the request path: the forward's four stage histograms
    // and nothing op-level, allocating nothing once the collector has seen
    // their keys.
    let (calls_closed, calls_open, scope) = extraction_under(metrics::stage_scope);
    let snap = scope.snapshot();
    assert_eq!(calls_open, calls_closed, "records under a stage scope must not allocate");
    let forwards = (WARMUP + MEASURED) as u64;
    assert_eq!(snap.total_records(), 4 * forwards, "{snap}");
    let keys: Vec<&str> = snap.hists.keys().map(String::as_str).collect();
    assert_eq!(keys, ["stage/decode", "stage/encoder", "stage/heads", "stage/tubelet_embed"]);
    assert!(snap.counters.is_empty() && snap.spans.is_empty(), "{snap}");
}

/// The same fixed chain of dependent multiplies `tensor/tests/
/// metrics_overhead.rs` holds a record's cost against.
fn reference_work(n: u64) {
    let mut x = n;
    for _ in 0..16 {
        x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 29));
    }
}

/// ns per call of `f` over one tight loop.
fn loop_ns(f: &mut impl FnMut(u64)) -> f64 {
    const CALLS: u64 = 20_000;
    let t = std::time::Instant::now();
    (0..CALLS).for_each(|i| f(std::hint::black_box(i)));
    t.elapsed().as_nanos() as f64 / CALLS as f64
}

#[test]
fn a_full_metrics_scope_costs_an_extraction_no_allocation_and_bounded_time() {
    let _serial = measuring();
    // The benchmark's `bulk_batch8` traced pass times forwards under a full
    // scope, so its records are inside the numbers it reports. They must not
    // allocate once the collector has seen their keys, and what they cost —
    // how many a B = 1 forward makes, times what one costs among the
    // forward's keys — is held to the per-record ratios to a reference loop
    // that `tensor/tests/metrics_overhead.rs` asserts: a counter at most
    // 2.5x it, a span at most 7x it on top of its two clock reads.
    const COUNTER_BOUND: f64 = 2.5;
    const SPAN_BOUND: f64 = 7.0;
    let (calls_closed, calls_open, scope) = extraction_under(metrics::scope);
    let snap = scope.snapshot();
    assert_eq!(calls_open, calls_closed, "records under a full scope must not allocate");

    // Lowest ns per call over rounds that alternate with the reference, as
    // `metrics_overhead.rs` times them, under a scope that has seen a
    // forward's keys.
    let [mut reference, mut counter, mut span, mut clock] = [f64::INFINITY; 4];
    for _ in 0..20 {
        reference = reference.min(loop_ns(&mut reference_work));
        counter = counter.min(loop_ns(&mut |_| metrics::counter_add("workspace/miss", 0)));
        span = span.min(loop_ns(&mut |_| drop(metrics::span("op/matmul"))));
        clock = clock.min(loop_ns(&mut |_| {
            std::hint::black_box(std::time::Instant::now().elapsed());
        }));
    }
    drop(scope);

    let forwards = (WARMUP + MEASURED) as u64;
    let records = snap.total_records() / forwards;
    let spans = snap.spans.values().map(|s| s.count).sum::<u64>() / forwards;
    let counters = (records - spans) as f64;
    let cost_us = (spans as f64 * span + counters * counter) / 1e3;
    let bound_us = (spans as f64 * (SPAN_BOUND * reference + clock)
        + counters * COUNTER_BOUND * reference)
        / 1e3;
    eprintln!(
        "metrics/extract: {records} records per B = 1 forward ({spans} spans x {span:.0} ns + \
         {counters} counters x {counter:.0} ns = {cost_us:.1} us, bound {bound_us:.1} us at \
         {reference:.1} ns per reference call and {clock:.0} ns per two clock reads), {} \
         allocator calls scope open or closed",
        calls_open / MEASURED as u64,
    );
    // 160 records (56 spans, 104 counter bumps); the count's bound is that
    // + ~5 %.
    assert!(records <= 166, "a B = 1 forward makes {records} metric records");
    assert!(
        cost_us <= bound_us,
        "a full scope costs a B = 1 forward {cost_us:.1} us in records, over the {bound_us:.1} us \
         its per-record bounds allow"
    );
}

#[test]
fn steady_state_stream_push_allocates_per_frame_not_per_window() {
    let _serial = measuring();
    // A longer window (16 frames = 8 tubelet groups at the default model
    // width) makes the claim measurable: pushing one group into a warm
    // session must cost roughly one group's worth of spatial-stage work,
    // while a full-window recompute pays for all eight groups — so its
    // allocator traffic must dwarf the incremental push's. A session that
    // secretly re-encoded the whole ring on every push would collapse the
    // ratio to ~1x and fail here.
    let cfg = ModelConfig { frames: 16, ..ModelConfig::default() };
    let nt = cfg.n_time() as u64;
    let ex = ScenarioExtractor::untrained(cfg, 0);
    let frame_len = cfg.tubelet_t * cfg.height * cfg.width;
    let video = |start: usize, frames: usize| {
        Tensor::from_fn(&[frames, cfg.height, cfg.width], |i| {
            (((start * frame_len / cfg.tubelet_t) + i) as f32 * 0.003).sin()
        })
    };

    let warm = RunConfig { recycle: true, ..RunConfig::current() };
    let (calls_push, bytes_push, bytes_full) = warm.run(|| {
        // Warm session: a full window plus a few steady-state slides so
        // the arena and the session's own buffers reach steady state.
        let mut session = ex.open_stream();
        session.push_frames(&video(0, cfg.frames)).unwrap();
        session.logits().unwrap();
        let mut fed = cfg.frames;
        for _ in 0..WARMUP {
            session.push_frames(&video(fed, cfg.tubelet_t)).unwrap();
            fed += cfg.tubelet_t;
            session.logits().unwrap();
        }

        // Steady state: one new group per window slide.
        let (c0, b0) = snapshot();
        for _ in 0..MEASURED {
            session.push_frames(&video(fed, cfg.tubelet_t)).unwrap();
            fed += cfg.tubelet_t;
            std::hint::black_box(session.logits().unwrap());
        }
        let (c1, b1) = snapshot();

        // Full recompute of the same windows: a cold session per window,
        // arena equally warm.
        let mut start = cfg.frames;
        for _ in 0..WARMUP {
            let mut cold = ex.open_stream();
            cold.push_frames(&video(start, cfg.frames)).unwrap();
            cold.logits().unwrap();
            start += cfg.tubelet_t;
        }
        let (_, b2) = snapshot();
        for _ in 0..MEASURED {
            let mut cold = ex.open_stream();
            cold.push_frames(&video(start, cfg.frames)).unwrap();
            start += cfg.tubelet_t;
            std::hint::black_box(cold.logits().unwrap());
        }
        let (_, b3) = snapshot();
        (c1 - c0, b1 - b0, b3 - b2)
    });

    let per = |v: u64| v / MEASURED as u64;
    eprintln!(
        "alloc/window: incremental push {} calls / {} bytes, full recompute {} bytes \
         ({}x, {} groups/window)",
        per(calls_push),
        per(bytes_push),
        per(bytes_full),
        if bytes_push > 0 { bytes_full / bytes_push.max(1) } else { 0 },
        nt,
    );
    assert!(bytes_push > 0 && bytes_full > 0, "counting allocator saw no traffic");
    // O(new frames), not O(window): with 8 groups per window and one new
    // group per slide, full recompute must allocate measurably more than
    // the incremental push. The cold path encodes all 8 groups in one
    // batched `encode_group_batch` forward, so its spatial-stage traffic
    // is amortized rather than 8x a single group's — the healthy ratio is
    // ~1.8x, while a session that secretly re-encoded its whole ring per
    // push would pay the same batched 8-group forward as the cold path and
    // collapse to ~1.0x. 1.4x splits those regimes with headroom.
    assert!(
        bytes_full * 10 >= 14 * bytes_push,
        "streaming push no longer scales with new frames only: \
         {} bytes/slide streamed vs {} recomputed (need >= 1.4x)",
        per(bytes_push),
        per(bytes_full),
    );
    // A slide is two forwards (one group's spatial encode, the window's
    // readout), each allocating a buffer header per value: 70 calls, 62 of
    // them `Arc` headers. A `Vec` of inputs per concat made it 72; with two
    // dim vectors per value it was 426; on two tapes 784 with attention as
    // one node, 1048 with fused linear nodes only, 1597 before those.
    assert!(
        per(calls_push) <= 73,
        "a window slide allocates per value and its forwards grew: {} calls/slide",
        per(calls_push)
    );
}
