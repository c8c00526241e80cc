//! Integration tests for the scoped metrics layer: scope isolation under
//! real kernels, what each of the two tiers collects, and the guarantee that
//! turning metrics on — either tier — never changes numerical results.
//!
//! The cost proofs (zero allocations, <1% wall time disabled, bounded cost
//! enabled, no allocation by op-level records under a stage scope) live in
//! `tests/metrics_overhead.rs`, which must own its whole process.

use std::collections::BTreeSet;
use std::sync::{mpsc, Arc};

use tsdx_tensor::metrics::{self, Snapshot};
use tsdx_tensor::{ops, Tensor};

#[test]
fn scopes_isolate_concurrent_matmuls() {
    // Each thread opens its own scope and runs a different number of
    // matmuls; every snapshot must count exactly its own thread's spans.
    let outer = metrics::scope();
    let handles: Vec<_> = (1..=4)
        .map(|reps| {
            std::thread::spawn(move || {
                let scope = metrics::scope();
                let a = Tensor::from_fn(&[24, 24], |i| (i % 13) as f32 / 13.0);
                for _ in 0..reps {
                    std::hint::black_box(ops::matmul(&a, &a));
                }
                (reps as u64, scope.snapshot().span("op/matmul").count)
            })
        })
        .collect();
    for h in handles {
        let (reps, seen) = h.join().unwrap();
        assert_eq!(seen, reps, "scope must count exactly its own thread's matmuls");
    }
    assert_eq!(
        outer.snapshot().span("op/matmul").count,
        0,
        "other threads' spans must not leak into this scope"
    );
}

/// Runs `f` with no scope open, under a stage scope and under a full
/// scope, and asserts bit-identical outputs.
fn assert_parity(f: impl Fn() -> Tensor) {
    let bits = |t: Tensor| (t.shape().to_vec(), t.to_vec().iter().map(|x| x.to_bits()).collect());
    let plain: (Vec<usize>, Vec<u32>) = bits(f());
    for open in [metrics::stage_scope, metrics::scope] {
        let _scope = open();
        assert_eq!(bits(f()), plain, "metrics collection changed results");
    }
}

/// Every recording primitive once, a matmul's op-level records among them.
fn record_every_kind() {
    let a = Tensor::from_fn(&[8, 8], |i| (i % 5) as f32);
    std::hint::black_box(ops::matmul(&a, &a));
    drop(metrics::span("test/span"));
    drop(metrics::span_shared(&Arc::from("test/layer")));
    metrics::time("test/time", || ());
    metrics::counter_add("test/op_counter", 1);
    metrics::stage("test/stage", || ());
    metrics::observe_ns("test/observed", 1_000);
    metrics::stage_count("test/stage_counter", 2);
}

/// Every key a snapshot holds, of any kind.
fn keys(snap: &Snapshot) -> BTreeSet<&str> {
    let (c, s, h) = (snap.counters.keys(), snap.spans.keys(), snap.hists.keys());
    c.chain(s).chain(h).map(String::as_str).collect()
}

/// What a stage scope holds after [`record_every_kind`]: the two
/// histograms and the stage counter, three records.
fn assert_stage_records_only(snap: &Snapshot) {
    assert_eq!(keys(snap), BTreeSet::from(["test/observed", "test/stage", "test/stage_counter"]));
    assert!(snap.spans.is_empty(), "a stage scope keeps no span: {snap}");
    assert_eq!(snap.counter("test/stage_counter"), 2);
    assert_eq!(snap.total_records(), 3);
}

#[test]
fn a_stage_scope_collects_stage_records_only_while_another_thread_holds_a_full_scope() {
    std::thread::scope(|t| {
        let (opened, wait_opened) = mpsc::channel();
        let (recorded, wait_recorded) = mpsc::channel::<()>();
        let full = t.spawn(move || {
            let full = metrics::scope();
            opened.send(()).unwrap();
            // Returns once `recorded` drops, a failed assertion's unwind too.
            let _ = wait_recorded.recv();
            record_every_kind();
            full.snapshot()
        });
        wait_opened.recv().unwrap();
        let stage = metrics::stage_scope();
        record_every_kind();
        drop(recorded);
        assert_stage_records_only(&stage.snapshot());
        assert_every_record(&full.join().unwrap());
    });
}

/// What a full scope holds after [`record_every_kind`]: every record.
fn assert_every_record(snap: &Snapshot) {
    for key in ["op/matmul", "test/span", "test/layer", "test/time", "test/stage"] {
        assert_eq!(snap.span(key).count, 1, "{key}: {snap}");
    }
    assert_eq!(snap.counter("test/op_counter"), 1);
    assert_eq!(snap.counter("test/stage_counter"), 2);
    assert_eq!(snap.hists["test/stage"].count, 1);
    assert_eq!(snap.hists["test/observed"].count, 1);
}

#[test]
fn a_full_scope_nested_in_a_stage_scope_sees_every_record() {
    let stage = metrics::stage_scope();
    let full = metrics::scope();
    record_every_kind();
    assert_every_record(&full.snapshot());
    drop(full);
    assert_stage_records_only(&stage.snapshot());
    drop(stage);

    // The other way round: the outer full scope sees everything, the inner
    // stage scope its stage records only.
    let full = metrics::scope();
    let stage = metrics::stage_scope();
    record_every_kind();
    assert_stage_records_only(&stage.snapshot());
    assert_every_record(&full.snapshot());
}

#[test]
fn metrics_on_off_results_are_bit_identical() {
    let a = Tensor::from_fn(&[64, 48], |i| ((i * 31 % 17) as f32 - 8.0) / 8.0);
    let b = Tensor::from_fn(&[48, 80], |i| ((i * 7 % 23) as f32 - 11.0) / 11.0);
    let q = Tensor::from_fn(&[2, 4, 16, 8], |i| ((i * 13 % 29) as f32 - 14.0) / 14.0);
    assert_parity(|| ops::matmul(&a, &b));
    assert_parity(|| ops::sum_axis(&a, 1, false));
    assert_parity(|| ops::attention(&q, &q, &q, 1, 0.35));
    assert_parity(|| ops::softmax_last(&b));
}
