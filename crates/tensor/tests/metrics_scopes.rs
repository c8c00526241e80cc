//! Integration tests for the scoped metrics layer: scope isolation under
//! real kernels, named pool instrumentation, and the guarantee that turning
//! metrics on never changes numerical results.
//!
//! The disabled-path cost proofs (zero allocations, <1% wall time) live in
//! `tests/metrics_overhead.rs`, which must own its whole process.

use tsdx_tensor::{metrics, ops, pool, Tensor};

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

#[test]
fn pool_dispatch_records_named_kernel_metrics() {
    let scope = metrics::scope();
    let a = Tensor::from_fn(&[96, 96], |i| (i % 7) as f32 / 7.0);
    let c = pool::with_forced_threads(4, || ops::matmul(&a, &a));
    std::hint::black_box(&c);
    let snap = scope.snapshot();
    assert!(snap.counter("pool/dispatch/matmul") >= 1, "dispatch counter missing:\n{snap}");
    assert!(snap.counter("pool/chunks/matmul") >= 2, "chunk counter missing:\n{snap}");
    let exec = &snap.hists["pool/exec/matmul"];
    let wait = &snap.hists["pool/queue_wait/matmul"];
    assert_eq!(exec.count, snap.counter("pool/chunks/matmul"), "one exec sample per chunk");
    assert_eq!(wait.count, exec.count, "one queue-wait sample per chunk");
    assert!(snap.span("op/matmul").count >= 1);
}

#[test]
fn inline_execution_records_no_pool_metrics() {
    let scope = metrics::scope();
    let a = Tensor::from_fn(&[16, 16], |i| i as f32);
    std::hint::black_box(pool::with_forced_threads(1, || ops::matmul(&a, &a)));
    let snap = scope.snapshot();
    assert_eq!(snap.counter("pool/dispatch/matmul"), 0, "inline path must not meter:\n{snap}");
    assert!(snap.span("op/matmul").count >= 1, "the op span still records inline");
}

/// Runs `f` once with a metrics scope open and once without, at the given
/// pool size, and asserts bit-identical outputs.
fn assert_parity(threads: usize, f: impl Fn() -> Tensor) {
    let plain = pool::with_forced_threads(threads, &f);
    let metered = {
        let _scope = metrics::scope();
        pool::with_forced_threads(threads, &f)
    };
    assert_eq!(
        plain.to_vec(),
        metered.to_vec(),
        "metrics collection changed results at pool size {threads}"
    );
    assert_eq!(plain.shape(), metered.shape());
}

#[test]
fn metrics_on_off_results_are_bit_identical() {
    let a = Tensor::from_fn(&[64, 48], |i| ((i * 31 % 17) as f32 - 8.0) / 8.0);
    let b = Tensor::from_fn(&[48, 80], |i| ((i * 7 % 23) as f32 - 11.0) / 11.0);
    let q = Tensor::from_fn(&[2, 4, 16, 8], |i| ((i * 13 % 29) as f32 - 14.0) / 14.0);
    for threads in [1, 4] {
        assert_parity(threads, || ops::matmul(&a, &b));
        assert_parity(threads, || ops::sum_axis(&a, 1, false));
        assert_parity(threads, || ops::attention(&q, &q, &q, 1, 0.35));
        assert_parity(threads, || ops::softmax_last(&b));
    }
}
