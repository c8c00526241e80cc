//! The bits of [`tsdx_tensor::quant::linear_q8`], pinned.
//!
//! One 64-bit FNV-1a digest over the output bits of `linear_q8` on fixed
//! inputs: with and without bias, an odd `k`, an `n` that is not a multiple
//! of 16, a `[2, 3, k]` batched input, a transposed weight view, an all-zero
//! weight channel and activation row, rows whose quantization lands on
//! exact `.5` ties, and the benchmark's `68×64 · 64×128`. Integer
//! accumulation is exact in any order, so a rewrite of the kernel that keeps
//! the quantization and dequantization rules keeps this constant; a changed
//! rounding rule or epilogue does not. A digest that moves on purpose is
//! updated in the same change that moves it.

use tsdx_tensor::quant::{linear_q8, QuantMatrix};
use tsdx_tensor::{metrics, ops, Tensor};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The digest of every case below, in order.
const LINEAR_Q8_DIGEST: u64 = 0xdc14_c5cd_d0c0_55c9;

/// Folds `bytes` into the FNV-1a state `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Folds a tensor's shape and the bits of its values into `h`.
fn fold_tensor(h: u64, t: &Tensor) -> u64 {
    let h = t.shape().iter().fold(h, |h, &d| fnv1a(h, &(d as u64).to_le_bytes()));
    t.to_vec().iter().fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

/// Deterministic values in about `[-scale, scale]`, varied by `salt`.
fn values(shape: &[usize], salt: u64, scale: f32) -> Tensor {
    Tensor::from_fn(shape, |i| {
        let h = (i as u64 + salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        ((h % 2001) as f32 - 1000.0) / 1000.0 * scale
    })
}

#[test]
fn linear_q8_output_bits_are_pinned() {
    let mut h = FNV_OFFSET;

    // Odd k, n = 21: a partial column tile, with and without bias.
    let a = values(&[9, 13], 1, 3.0);
    let w = QuantMatrix::quantize(&values(&[13, 21], 2, 0.5));
    let bias = values(&[21], 3, 0.2);
    h = fold_tensor(h, &linear_q8(&a, &w, None));
    h = fold_tensor(h, &linear_q8(&a, &w, Some(&bias)));

    // A [2, 3, k] batched input, odd k, n = 40.
    let a = values(&[2, 3, 17], 4, 2.0);
    let w = QuantMatrix::quantize(&values(&[17, 40], 5, 1.5));
    h = fold_tensor(h, &linear_q8(&a, &w, Some(&values(&[40], 6, 1.0))));

    // A transposed weight view ([n, k] stored, read as [k, n]).
    let wt = values(&[19, 24], 7, 0.8);
    let w = QuantMatrix::quantize(&ops::permute(&wt, &[1, 0]));
    h = fold_tensor(h, &linear_q8(&values(&[5, 24], 8, 1.0), &w, None));

    // An all-zero weight channel (column 2) and an all-zero activation row
    // (row 1); rows with amax 254 and odd integer values, whose scaled
    // values all land on exact `.5` ties.
    let w = QuantMatrix::quantize(&Tensor::from_fn(&[11, 7], |i| {
        if i % 7 == 2 {
            0.0
        } else {
            ((i * 29) % 97) as f32 / 31.0 - 1.5
        }
    }));
    let a = Tensor::from_fn(&[4, 11], |i| match (i / 11, i % 11) {
        (1, _) => 0.0,
        (_, 0) => 254.0,
        (r, c) => ((2 * (r * 11 + c) * 37) % 254) as f32 - 127.0,
    });
    h = fold_tensor(h, &linear_q8(&a, &w, Some(&values(&[7], 9, 0.3))));

    // The benchmark's 68×64 · 64×128, no bias.
    let w = QuantMatrix::quantize(&values(&[64, 128], 10, 0.25));
    h = fold_tensor(h, &linear_q8(&values(&[68, 64], 11, 1.0), &w, None));

    assert_eq!(h, LINEAR_Q8_DIGEST, "linear_q8 digest {h:#018x}");
}

#[test]
fn each_non_empty_call_counts_one_i8_dispatch() {
    let w = QuantMatrix::quantize(&values(&[8, 5], 12, 1.0));
    let a = values(&[3, 8], 13, 1.0);
    let scope = metrics::scope();
    linear_q8(&a, &w, None);
    linear_q8(&a, &w, None);
    assert_eq!(scope.snapshot().counter("dispatch/matmul_i8"), 2);

    let empty = metrics::scope();
    let out = linear_q8(&Tensor::from_vec(Vec::new(), &[0, 8]), &w, None);
    assert_eq!(out.shape(), [0, 5]);
    assert_eq!(empty.snapshot().counter("dispatch/matmul_i8"), 0);
    assert_eq!(scope.snapshot().counter("dispatch/matmul_i8"), 2);
}
