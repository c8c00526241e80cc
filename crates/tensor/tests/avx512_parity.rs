//! Bit-parity of the AVX-512 GEMM micro-kernel against the portable kernel.
//!
//! Both build every output element as one accumulator fused-multiply-added
//! from zero in ascending `k`, then add the bias and the residual, so the
//! assertion is `to_bits` equality, not closeness. It covers every row count
//! (the 6-row blocks of four vectors and the 8-row blocks of one or two
//! with all their remainders), every width 1..=140 (full vectors, masked
//! last vectors, one, two and three 64-column blocks, and the narrow blocks
//! past them), every operand layout the model produces and every `linear`
//! epilogue. Both kernels apply the epilogue at their store, so
//! `tests/large_view_parity.rs` checks `linear` against the separate ops as
//! well. Each side runs under a `RunConfig` naming its kernel, a per-thread
//! override.
//!
//! On a host without AVX-512F the portable kernel is the only side and the
//! suite is vacuous.

use proptest::prelude::*;
use tsdx_tensor::dial::{Kernel, RunConfig};
use tsdx_tensor::ops::{self, Activation};
use tsdx_tensor::Tensor;

/// Deterministic pseudo-random fill in `[-0.5, 0.5)`.
fn fill(shape: &[usize], seed: u32) -> Tensor {
    Tensor::from_fn(shape, |i| {
        let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed.wrapping_mul(40503));
        ((h >> 16) as f32 / 65536.0) - 0.5
    })
}

/// Runs `f` on every kernel the CPU has and fails unless all results have
/// the bits of the portable kernel.
fn kernels_agree(what: &str, f: impl Fn() -> Tensor) -> Result<(), TestCaseError> {
    let base = RunConfig::current();
    let reference = RunConfig { kernel: Kernel::Portable, ..base }.run(&f).to_vec();
    for &kernel in Kernel::available() {
        let got = RunConfig { kernel, ..base }.run(&f);
        let diverged =
            got.to_vec().iter().zip(&reference).position(|(x, y)| x.to_bits() != y.to_bits());
        prop_assert!(
            got.numel() == reference.len() && diverged.is_none(),
            "{what}: {kernel} diverged from the portable kernel at flat index {diverged:?}"
        );
    }
    Ok(())
}

/// A `[rows, cols]` matrix in one of three layouts: dense, the transposed
/// view of a `[cols, rows]` buffer, or a window of a larger buffer (non-zero
/// offset, row stride wider than the row).
fn matrix(rows: usize, cols: usize, layout: usize, seed: u32) -> Tensor {
    match layout {
        0 => fill(&[rows, cols], seed),
        1 => ops::transpose_last2(&fill(&[cols, rows], seed)),
        _ => {
            let big = fill(&[rows + 5, cols + 9], seed);
            ops::narrow(&ops::narrow(&big, 0, 3, rows), 1, 7, cols)
        }
    }
}

/// Row counts: every remainder of the 6- and 8-row blocks twice over, plus
/// the model's one-clip and batch-of-eight token counts.
fn row_counts() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..=20, 0usize..=20, 0usize..=20, 0usize..=20, Just(68usize), Just(544usize)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plain_products_agree_in_every_layout(
        rows in row_counts(),
        k in 0usize..=130,
        n in 1usize..=140,
        layout_a in 0usize..3,
        layout_b in 0usize..3,
        seed in 0u32..1000,
    ) {
        let a = matrix(rows, k, layout_a, seed);
        let b = matrix(k, n, layout_b, seed ^ 0xbeef);
        kernels_agree(
            &format!("[{rows},{k}] (layout {layout_a}) @ [{k},{n}] (layout {layout_b})"),
            || ops::matmul(&a, &b),
        )?;
    }

    #[test]
    fn batched_head_split_products_agree(
        batch in 1usize..=2,
        heads in 1usize..=3,
        rows in row_counts(),
        k in 0usize..=40,
        n in 1usize..=140,
        b_kind in 0usize..4,
        seed in 0u32..1000,
    ) {
        // `A` as attention sees it: [B, T, H, Dh] permuted to [B, H, T, Dh].
        let a = ops::permute(&fill(&[batch, rows, heads, k], seed), &[0, 2, 1, 3]);
        let b = match b_kind {
            // One matrix broadcast across the batch.
            0 => fill(&[k, n], seed ^ 1),
            // A dense matrix per batch element.
            1 => fill(&[batch, heads, k, n], seed ^ 2),
            // p·v: per-batch head-split views, unit column stride.
            2 => ops::permute(&fill(&[batch, k, heads, n], seed ^ 3), &[0, 2, 1, 3]),
            // q·kᵀ: the transposed head-split view, gathered into tiles.
            _ => ops::transpose_last2(&ops::permute(
                &fill(&[batch, n, heads, k], seed ^ 4),
                &[0, 2, 1, 3],
            )),
        };
        kernels_agree(
            &format!("[{batch},{heads},{rows},{k}] @ B kind {b_kind} of width {n}"),
            || ops::matmul(&a, &b),
        )?;
    }

    #[test]
    fn linear_agrees_under_all_eight_epilogues(
        rows in row_counts(),
        k in 0usize..=130,
        n in 1usize..=140,
        layout_x in 0usize..3,
        seed in 0u32..1000,
    ) {
        let x = matrix(rows, k, layout_x, seed);
        let w = fill(&[k, n], seed ^ 5);
        let (bias, residual) = (fill(&[n], seed ^ 6), fill(&[rows, n], seed ^ 7));
        for epilogue in 0..8 {
            let b = (epilogue & 1 != 0).then_some(&bias);
            let act = if epilogue & 2 != 0 { Activation::Gelu } else { Activation::None };
            let r = (epilogue & 4 != 0).then_some(&residual);
            kernels_agree(
                &format!("linear [{rows},{k}] (layout {layout_x}) @ [{k},{n}], epilogue {epilogue:03b}"),
                || ops::linear(&x, &w, b, act, r),
            )?;
        }
    }
}

#[test]
fn views_ending_on_their_buffers_last_element_agree() {
    // Both operands are windows whose last element is their buffer's last:
    // a kernel (or an extent assert) that reached one lane or one row past
    // what the product needs would leave the buffer. Widths end in a masked
    // vector, a single masked lane, a full vector, a second column block and
    // one lane past two full blocks.
    let shapes = [(11usize, 19usize, 13usize), (8, 64, 17), (3, 5, 32), (17, 16, 70), (7, 32, 129)];
    for &(rows, k, n) in &shapes {
        let big_a = fill(&[rows + 3, k + 5], 91);
        let a = ops::narrow(&ops::narrow(&big_a, 0, 3, rows), 1, 5, k);
        let big_b = fill(&[k + 2, n + 7], 92);
        let b = ops::narrow(&ops::narrow(&big_b, 0, 2, k), 1, 7, n);
        // ...and the same two windows seen through a transpose.
        let big_at = fill(&[k + 5, rows + 3], 93);
        let at = ops::transpose_last2(&ops::narrow(&ops::narrow(&big_at, 0, 5, k), 1, 3, rows));
        let big_bt = fill(&[n + 7, k + 2], 94);
        let bt = ops::transpose_last2(&ops::narrow(&ops::narrow(&big_bt, 0, 7, n), 1, 2, k));
        for (a, b) in [(&a, &b), (&at, &b), (&a, &bt), (&at, &bt)] {
            kernels_agree(&format!("{rows}x{k}x{n} at the end of its buffers"), || {
                ops::matmul(a, b)
            })
            .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
