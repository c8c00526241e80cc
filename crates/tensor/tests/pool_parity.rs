//! Thread-parity and fused-attention equivalence tests.
//!
//! Every kernel that dispatches to the shared worker pool must be
//! **bit-identical** across pool sizes: work is partitioned as contiguous
//! chunks of output rows and every element is computed by exactly one chunk
//! with the same serial per-element code. These tests pin that contract by
//! running each kernel under [`pool::with_forced_threads`] with 1, 2, 3, and
//! 5 chunks (the override also bypasses serial thresholds, so small inputs
//! genuinely exercise the chunked path) and comparing raw bits.
//!
//! The fused attention op additionally gets a property test against the
//! composed matmul/softmax/matmul path and a finite-difference gradient
//! check through [`Graph::attention`].

use proptest::prelude::*;
use tsdx_tensor::{grad_check, ops, pool, Tensor};

const THREADS: [usize; 3] = [2, 3, 5];

/// Runs `f` once per forced thread count and asserts all results are
/// bit-identical to the single-chunk run.
fn assert_thread_parity(name: &str, f: impl Fn() -> Tensor) {
    let serial = pool::with_forced_threads(1, &f);
    for t in THREADS {
        let par = pool::with_forced_threads(t, &f);
        assert_eq!(serial.shape(), par.shape(), "{name}: shape diverged at {t} threads");
        let (a, b) = (serial.to_vec(), par.to_vec());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{name}: element {i} diverged at {t} threads: {x} vs {y}"
            );
        }
    }
}

fn input(shape: &[usize], freq: f32) -> Tensor {
    Tensor::from_fn(shape, |i| (i as f32 * freq).sin() * 2.0)
}

#[test]
fn matmul_is_bit_identical_across_pool_sizes() {
    let a = input(&[3, 17, 9], 0.13);
    let b = input(&[3, 9, 11], 0.07);
    assert_thread_parity("matmul", || ops::matmul(&a, &b));
}

#[test]
fn softmax_last_is_bit_identical_across_pool_sizes() {
    let x = input(&[7, 13], 0.29);
    assert_thread_parity("softmax_last", || ops::softmax_last(&x));
}

#[test]
fn log_softmax_last_is_bit_identical_across_pool_sizes() {
    let x = input(&[7, 13], 0.31);
    assert_thread_parity("log_softmax_last", || ops::log_softmax_last(&x));
}

#[test]
fn elementwise_unaries_are_bit_identical_across_pool_sizes() {
    let x = input(&[5, 9, 4], 0.17);
    assert_thread_parity("gelu", || ops::gelu(&x));
    assert_thread_parity("exp", || ops::exp(&x));
    assert_thread_parity("sigmoid", || ops::sigmoid(&x));
    assert_thread_parity("scale", || ops::scale(&x, 1.7));
}

#[test]
fn elementwise_binaries_are_bit_identical_across_pool_sizes() {
    let a = input(&[5, 9, 4], 0.11);
    let b = input(&[5, 9, 4], 0.23);
    assert_thread_parity("add", || ops::add(&a, &b));
    assert_thread_parity("mul", || ops::mul(&a, &b));
    assert_thread_parity("div", || {
        let b1 = ops::add_scalar(&ops::sigmoid(&b), 1.0); // keep denominators away from 0
        ops::div(&a, &b1)
    });
    assert_thread_parity("gelu_backward", || ops::gelu_backward(&a, &b));
}

#[test]
fn reductions_are_bit_identical_across_pool_sizes() {
    let x = input(&[6, 7, 5], 0.19);
    for axis in 0..3 {
        assert_thread_parity("sum_axis", || ops::sum_axis(&x, axis, false));
        assert_thread_parity("max_axis", || ops::max_axis(&x, axis, true));
    }
}

#[test]
fn im2col_is_bit_identical_across_pool_sizes() {
    let x = input(&[4, 3, 8, 8], 0.37);
    let spec = ops::Conv2dSpec::new(3, 1, 1);
    assert_thread_parity("im2col", || ops::im2col(&x, &spec));
}

#[test]
fn layer_norm_is_bit_identical_across_pool_sizes() {
    let x = input(&[9, 12], 0.41);
    let gamma = input(&[12], 0.05);
    let beta = input(&[12], 0.03);
    assert_thread_parity("layer_norm.out", || ops::layer_norm_forward(&x, &gamma, &beta, 1e-5).0);
    assert_thread_parity("layer_norm.mean", || ops::layer_norm_forward(&x, &gamma, &beta, 1e-5).1);
    assert_thread_parity("layer_norm.rstd", || ops::layer_norm_forward(&x, &gamma, &beta, 1e-5).2);
}

#[test]
fn fused_linear_is_bit_identical_across_pool_sizes() {
    use ops::Activation;
    // Each chunk finishes its own rows (bias, GELU, residual), whatever the
    // chunking: a dense input (batch dims folded into rows) and a permuted
    // view (walked batch matrix by batch matrix).
    let w = input(&[9, 21], 0.07);
    let b = input(&[21], 0.05);
    let r = input(&[3, 17, 21], 0.03);
    let dense = input(&[3, 17, 9], 0.13);
    let view = ops::permute(&input(&[17, 3, 9], 0.13), &[1, 0, 2]);
    for x in [&dense, &view] {
        assert_thread_parity("linear", || ops::linear(x, &w, Some(&b), Activation::Gelu, Some(&r)));
        let composed = ops::add(&ops::gelu(&ops::add(&ops::matmul(x, &w), &b)), &r);
        let fused = ops::linear(x, &w, Some(&b), Activation::Gelu, Some(&r));
        assert_eq!(fused.to_vec(), composed.to_vec(), "fused linear vs its composition");
    }
}

#[test]
fn layer_norm_without_stats_matches_the_differentiable_forward() {
    let x = input(&[9, 12], 0.41);
    let gamma = input(&[12], 0.05);
    let beta = input(&[12], 0.03);
    assert_thread_parity("layer_norm (no stats)", || ops::layer_norm(&x, &gamma, &beta, 1e-5));
    let with_stats = ops::layer_norm_forward(&x, &gamma, &beta, 1e-5).0;
    assert_eq!(ops::layer_norm(&x, &gamma, &beta, 1e-5).to_vec(), with_stats.to_vec());
}

#[test]
fn attention_forward_is_bit_identical_across_pool_sizes() {
    let q = input(&[2, 2, 6, 4], 0.13);
    let k = input(&[2, 2, 5, 4], 0.17);
    let v = input(&[2, 2, 5, 3], 0.19);
    assert_thread_parity("attention", || ops::attention(&q, &k, &v, 1, 0.5));
}

#[test]
fn attention_backward_is_bit_identical_across_pool_sizes() {
    let q = input(&[3, 4, 4], 0.13);
    let k = input(&[3, 5, 4], 0.17);
    let v = input(&[3, 5, 3], 0.19);
    let g = input(&[3, 4, 3], 0.23);
    assert_thread_parity("attention_backward.dq", || {
        ops::attention_backward(
            &ops::attention_with_probs(&q, &k, &v, 1, 0.5).1,
            &q,
            &k,
            &v,
            1,
            0.5,
            &g,
        )
        .0
    });
    assert_thread_parity("attention_backward.dk", || {
        ops::attention_backward(
            &ops::attention_with_probs(&q, &k, &v, 1, 0.5).1,
            &q,
            &k,
            &v,
            1,
            0.5,
            &g,
        )
        .1
    });
    assert_thread_parity("attention_backward.dv", || {
        ops::attention_backward(
            &ops::attention_with_probs(&q, &k, &v, 1, 0.5).1,
            &q,
            &k,
            &v,
            1,
            0.5,
            &g,
        )
        .2
    });
}

#[test]
fn gradcheck_through_fused_attention_op() {
    let q = Tensor::from_fn(&[2, 3, 4], |i| (i as f32 * 0.23).sin() * 0.5);
    let k = Tensor::from_fn(&[2, 5, 4], |i| (i as f32 * 0.19).cos() * 0.5);
    let v = Tensor::from_fn(&[2, 5, 3], |i| (i as f32 * 0.31).sin() * 0.5);
    grad_check::assert_gradients(&[q, k, v], 1e-2, 2e-2, |g, vars| {
        let ctx = g.attention(vars[0], vars[1], vars[2], 1, 0.7);
        let sq = g.mul(ctx, ctx); // non-uniform upstream gradient
        g.mean_all(sq)
    });
}

/// Strategy: (q, k, v) with a shared batch/feature geometry.
fn qkv() -> impl Strategy<Value = (Tensor, Tensor, Tensor)> {
    ((1usize..=3, 1usize..=4), (1usize..=4, 1usize..=4), 1usize..=4).prop_flat_map(
        |((b, tq), (tk, d), dv)| {
            let t = move |n: usize, shape: Vec<usize>| {
                prop::collection::vec(-3.0f32..3.0, n..=n)
                    .prop_map(move |data| Tensor::from_vec(data, &shape))
            };
            (
                t(b * tq * d, vec![b, tq, d]),
                t(b * tk * d, vec![b, tk, d]),
                t(b * tk * dv, vec![b, tk, dv]),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The fused kernel must agree with the composed
    // matmul/scale/softmax/matmul path to within 1e-5 for arbitrary
    // geometry and values.
    #[test]
    fn fused_attention_matches_composed((q, k, v) in qkv()) {
        let d = *q.shape().last().unwrap();
        let scale = 1.0 / (d as f32).sqrt();
        let fused = ops::attention(&q, &k, &v, 1, scale);
        let kt = ops::transpose_last2(&k);
        let scores = ops::scale(&ops::matmul(&q, &kt), scale);
        let probs = ops::softmax_last(&scores);
        let composed = ops::matmul(&probs, &v);
        prop_assert!(
            fused.allclose(&composed, 1e-5),
            "fused and composed attention diverged"
        );
    }

    // Fused-vs-composed must also hold under forced pool chunking.
    #[test]
    fn fused_attention_matches_composed_when_chunked((q, k, v) in qkv()) {
        let scale = 0.6;
        let serial = pool::with_forced_threads(1, || ops::attention(&q, &k, &v, 1, scale));
        let chunked = pool::with_forced_threads(3, || ops::attention(&q, &k, &v, 1, scale));
        prop_assert_eq!(serial.to_vec(), chunked.to_vec());
    }
}
