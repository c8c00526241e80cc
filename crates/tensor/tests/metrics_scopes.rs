//! Integration tests for the scoped metrics layer: scope isolation under
//! real kernels, and the guarantee that turning metrics on never changes
//! numerical results.
//!
//! The disabled-path cost proofs (zero allocations, <1% wall time) live in
//! `tests/metrics_overhead.rs`, which must own its whole process.

use tsdx_tensor::{metrics, ops, Tensor};

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

/// Runs `f` once with a metrics scope open and once without, and asserts
/// bit-identical outputs.
fn assert_parity(f: impl Fn() -> Tensor) {
    let plain = f();
    let metered = {
        let _scope = metrics::scope();
        f()
    };
    assert_eq!(plain.to_vec(), metered.to_vec(), "metrics collection changed results");
    assert_eq!(plain.shape(), metered.shape());
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
