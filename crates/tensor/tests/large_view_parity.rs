//! Large-shape parity of strided views against contiguous copies.
//!
//! `ops::matmul` reads both operands through their strides — `B` in place
//! when its columns are unit-stride, gathered tile by tile otherwise — so a
//! transposed, narrowed, offset or batch-broadcast view must produce the
//! same bits as the same product on contiguous copies of its operands. Each
//! output element is one f32 accumulated in
//! ascending-k order whatever the layout, which is what makes bit equality
//! (not just allclose) the right assertion.
//!
//! Sizes here are the large ones — `B` of 160×256 and up, past any L1D,
//! `m·n·k ≥ 2²⁰` multiply-adds, `k` up to 600 — where tiles stream from L2;
//! small shapes are covered by `proptest_ops.rs` and `avx512_parity.rs`.
//! The one exception is `ops::linear` against the separate ops it fuses, at
//! the model's shapes and every block remainder around them.

use proptest::prelude::*;
use tsdx_tensor::dial::RunConfig;
use tsdx_tensor::ops::Activation;
use tsdx_tensor::{ops, Tensor};

/// Deterministic pseudo-random fill, cheap enough for million-element
/// operands inside a proptest case.
fn fill(shape: &[usize], seed: u32) -> Tensor {
    Tensor::from_fn(shape, |i| {
        let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed.wrapping_mul(40503));
        ((h >> 16) as f32 / 65536.0) - 0.5
    })
}

/// Asserts `ops::matmul` on the views `a`, `b` returns the bits of the
/// product of their contiguous copies.
fn assert_view_parity(a: &Tensor, b: &Tensor) {
    let reference = ops::matmul(&a.contiguous(), &b.contiguous());
    let viewed = ops::matmul(a, b);
    assert_eq!(viewed.shape(), reference.shape());
    let (p, r) = (viewed.to_vec(), reference.to_vec());
    for (i, (x, y)) in p.iter().zip(&r).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "product of views diverged from contiguous copies at flat index {i} \
             ({x} vs {y}, {:?} @ {:?})",
            a.shape(),
            b.shape()
        );
    }
}

#[test]
fn contiguous_operands_match() {
    let a = fill(&[48, 160], 1);
    let b = fill(&[160, 256], 2);
    assert_view_parity(&a, &b);
}

#[test]
fn transposed_b_view_matches() {
    // B arrives as a zero-copy transpose view: column-major strides.
    let bt = fill(&[256, 160], 3);
    let b = ops::transpose_last2(&bt);
    let a = fill(&[48, 160], 4);
    assert_view_parity(&a, &b);
}

#[test]
fn transposed_a_view_matches() {
    let at = fill(&[160, 48], 5);
    let a = ops::transpose_last2(&at);
    let b = fill(&[160, 256], 6);
    assert_view_parity(&a, &b);
}

#[test]
fn narrowed_views_match() {
    // Both operands are interior windows of larger buffers: non-zero
    // offset, row stride wider than the row length.
    let big_a = fill(&[64, 200], 7);
    let big_b = fill(&[200, 300], 8);
    let a = ops::narrow(&ops::narrow(&big_a, 0, 9, 48), 1, 17, 160);
    let b = ops::narrow(&ops::narrow(&big_b, 0, 17, 160), 1, 23, 256);
    assert_view_parity(&a, &b);
}

#[test]
fn batched_with_shared_b_matches() {
    // [4, 40, 160] @ [160, 256]: every batch element reuses one B, and the
    // contiguous A folds its batch into 160 rows.
    let a = fill(&[4, 40, 160], 9);
    let b = fill(&[160, 256], 10);
    assert_view_parity(&a, &b);
}

#[test]
fn batched_with_permuted_batch_matches() {
    // The batch axis of A is itself a permuted view.
    let a0 = fill(&[40, 3, 160], 11);
    let a = ops::permute(&a0, &[1, 0, 2]);
    let b = fill(&[3, 160, 256], 12);
    assert_view_parity(&a, &b);
}

#[test]
fn deep_fused_linear_matches_the_composition() {
    // `ops::linear` at a 600-deep contraction: same bits as the plain
    // product followed by the bias add, GELU and residual add it fuses.
    let x = fill(&[4, 40, 600], 13);
    let w = fill(&[600, 72], 14);
    let b = fill(&[72], 15);
    let r = fill(&[4, 40, 72], 16);
    let product = ops::matmul(&x, &w);
    let reference = ops::add(&ops::gelu(&ops::add(&product, &b)), &r);
    let fused = ops::linear(&x, &w, Some(&b), Activation::Gelu, Some(&r));
    assert_eq!(fused.shape(), reference.shape());
    let same =
        fused.to_vec().iter().zip(&reference.to_vec()).all(|(p, q)| p.to_bits() == q.to_bits());
    assert!(same, "fused linear diverged from its composition");
}

#[test]
fn linear_matches_its_composition_under_every_epilogue_and_run_config() {
    // Both kernels add the bias and the residual to an output block before
    // they store it, so comparing them with each other cannot catch an
    // epilogue they both get wrong. The reference here is the four separate
    // ops, each its own pass: every row remainder of the 4-, 6- and 8-row
    // blocks, one and two clips' tokens; widths inside one vector, at and
    // past one and two 64-column blocks, and the model's widths.
    for rc in RunConfig::matrix() {
        for rows in [1, 4, 5, 6, 7, 13, 68, 544] {
            for n in [3, 13, 16, 17, 63, 64, 65, 128, 129, 192] {
                for k in [64, 128] {
                    let seed = (rows * 1000 + n * 10 + k) as u32;
                    let (x, w) = (fill(&[rows, k], seed), fill(&[k, n], seed ^ 1));
                    let (bias, residual) = (fill(&[n], seed ^ 2), fill(&[rows, n], seed ^ 3));
                    for epilogue in 0..8 {
                        let b = (epilogue & 1 != 0).then_some(&bias);
                        let gelu = epilogue & 2 != 0;
                        let r = (epilogue & 4 != 0).then_some(&residual);
                        let act = if gelu { Activation::Gelu } else { Activation::None };
                        let (fused, composed) = rc.run(|| {
                            let mut want = ops::matmul(&x, &w);
                            if let Some(b) = b {
                                want = ops::add(&want, b);
                            }
                            if gelu {
                                want = ops::gelu(&want);
                            }
                            if let Some(r) = r {
                                want = ops::add(&want, r);
                            }
                            (ops::linear(&x, &w, b, act, r).to_vec(), want.to_vec())
                        });
                        let diverged = fused
                            .iter()
                            .zip(&composed)
                            .position(|(p, q)| p.to_bits() != q.to_bits());
                        assert!(
                            fused.len() == composed.len() && diverged.is_none(),
                            "{rc}: linear [{rows},{k}] @ [{k},{n}], epilogue {epilogue:03b}, \
                             diverged from its composition at flat index {diverged:?}"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random large geometry, with both operands narrowed out of larger
    // buffers so strides and offsets vary too.
    #[test]
    fn random_strided_views_match(
        m in 33usize..64,
        k in 128usize..160,
        n in 256usize..288,
        ao in 0usize..8,
        bo in 0usize..8,
        seed in 0u32..1000,
    ) {
        let big_a = fill(&[m + 8, k + 8], seed);
        let big_b = fill(&[k + 8, n + 8], seed ^ 0xdead);
        let a = ops::narrow(&ops::narrow(&big_a, 0, ao, m), 1, bo, k);
        let b = ops::narrow(&ops::narrow(&big_b, 0, bo, k), 1, ao, n);
        assert_view_parity(&a, &b);
    }
}
