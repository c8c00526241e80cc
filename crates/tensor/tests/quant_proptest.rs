//! Property-based tests of the int8 quantization plane ([`tsdx_tensor::quant`]).
//!
//! Two contracts are pinned:
//!
//! 1. **Round-trip**: `dequantize(quantize(w))` is within half a
//!    quantization step of `w` per element, per channel — including
//!    channels with wildly different ranges and the degenerate all-zero /
//!    single-repeated-value channels.
//! 2. **Accuracy**: the i8 GEMM agrees with dequantize-then-f32-GEMM up to
//!    the analytic activation-quantization bound
//!    `0.5 · sa[i] · Σ_k |w_dq[k, j]|` (plus f32 accumulation slack), for
//!    contiguous and transposed views alike.

use proptest::prelude::*;
use tsdx_tensor::quant::QuantMatrix;
use tsdx_tensor::{ops, quant, Tensor};

/// Strategy: a `[k, n]` weight matrix whose channels span random
/// per-channel ranges (each column gets its own magnitude in
/// `[1e-3, 1e3]`), with a chance of degenerate all-zero and
/// single-repeated-value channels mixed in.
fn arb_weights() -> impl Strategy<Value = Tensor> {
    (2usize..24, 1usize..26, 0u64..1_000_000).prop_map(|(k, n, seed)| {
        Tensor::from_fn(&[k, n], move |i| {
            let j = i % n;
            let kk = i / n;
            // Per-channel deterministic "random" magnitude and values.
            let h = |x: u64| (x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed)) >> 33;
            match h(j as u64) % 7 {
                0 => 0.0,                                       // all-zero channel
                1 => (h(j as u64 + 1) % 19) as f32 * 0.3 - 2.7, // constant channel
                _ => {
                    let mag = 10f32.powi((h(j as u64 + 2) % 7) as i32 - 3);
                    let v = (h((kk * n + j) as u64) % 509) as f32 - 254.0;
                    v / 254.0 * mag
                }
            }
        })
    })
}

/// The analytic agreement bound between `linear_q8(a, q)` and
/// `a @ q.dequantize()`: activation rows quantize with error at most half
/// their scale per element, amplified by the dequantized column's absolute
/// sum, plus slack for the f32 reference's own accumulation rounding.
fn agreement_bound(a: &Tensor, wdq: &Tensor, i: usize, j: usize, reference: f32) -> f32 {
    let k = wdq.shape()[0];
    let row = &a.to_vec()[i * k..(i + 1) * k];
    let amax = row.iter().fold(0f32, |x, &v| x.max(v.abs()));
    let sa = amax / 127.0;
    let colabs: f32 = (0..k).map(|kk| wdq.at(&[kk, j]).abs()).sum();
    0.5 * sa * colabs + 1e-4 * (1.0 + reference.abs())
}

proptest! {
    #[test]
    fn roundtrip_error_is_within_half_a_step_per_channel(w in arb_weights()) {
        let q = QuantMatrix::quantize(&w);
        let dq = q.dequantize();
        let (k, n) = (w.shape()[0], w.shape()[1]);
        for j in 0..n {
            let s = q.scales()[j];
            // Half a step, with relative slack for the scale's own f32
            // rounding (scale = amax / 127 is not exact).
            let bound = s * (0.5 + 1e-4) + 1e-6;
            for kk in 0..k {
                let err = (w.at(&[kk, j]) - dq.at(&[kk, j])).abs();
                prop_assert!(err <= bound, "channel {j}: err {err} > {bound} (scale {s})");
            }
        }
        prop_assert!(q.error_bound() >= q.scales().iter().fold(0f32, |a, &s| a.max(s)) / 2.0);
    }

    #[test]
    fn degenerate_channels_reconstruct_exactly(k in 1usize..20, v in -4.0f32..4.0) {
        // Column 0 all zero, column 1 a single repeated value: the zero
        // channel must reconstruct as exact zeros (scale 0 by convention),
        // the constant channel quantizes to ±127 and reconstructs to
        // within f32 rounding of the original value.
        let w = Tensor::from_fn(&[k, 2], move |i| if i % 2 == 0 { 0.0 } else { v });
        let q = QuantMatrix::quantize(&w);
        prop_assert_eq!(q.scales()[0], 0.0);
        let dq = q.dequantize();
        for kk in 0..k {
            prop_assert_eq!(dq.at(&[kk, 0]), 0.0);
            let err = (dq.at(&[kk, 1]) - v).abs();
            prop_assert!(err <= 1e-5 * v.abs(), "constant channel err {err} for v {v}");
        }
    }

    #[test]
    fn i8_gemm_matches_f32_gemm_within_activation_bound(
        w in arb_weights(),
        ms in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        let (k, n) = (w.shape()[0], w.shape()[1]);
        let a = Tensor::from_fn(&[ms, k], move |i| {
            let h = (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(seed) >> 32;
            ((h % 1021) as f32 - 510.0) / 97.0
        });
        let q = QuantMatrix::quantize(&w);
        let wdq = q.dequantize();
        let reference = ops::matmul(&a, &wdq);
        let approx = quant::linear_q8(&a, &q, None);
        prop_assert_eq!(approx.shape(), &[ms, n]);
        for i in 0..ms {
            for j in 0..n {
                let (r, x) = (reference.at(&[i, j]), approx.at(&[i, j]));
                let bound = agreement_bound(&a, &wdq, i, j, r);
                prop_assert!((r - x).abs() <= bound, "({i},{j}): |{r} - {x}| > {bound}");
            }
        }
    }

    #[test]
    fn transposed_views_quantize_and_multiply_like_contiguous(
        k in 2usize..16,
        n in 1usize..20,
        ms in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        // Quantization reads weight views through their strides; the GEMM
        // materializes activation views. Both must agree bit for bit with
        // their contiguous counterparts.
        let wt = Tensor::from_fn(&[n, k], move |i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed) >> 33;
            ((h % 255) as f32 - 127.0) / 41.0
        });
        let w_view = ops::permute(&wt, &[1, 0]); // [k, n] transposed view
        let q_view = QuantMatrix::quantize(&w_view);
        let q_contig = QuantMatrix::quantize(&w_view.contiguous());
        let (dq_view, dq_contig) = (q_view.dequantize(), q_contig.dequantize());
        prop_assert_eq!(dq_view.data(), dq_contig.data());
        prop_assert_eq!(q_view.scales(), q_contig.scales());

        let at = Tensor::from_fn(&[k, ms], move |i| {
            let h = (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(seed) >> 32;
            ((h % 509) as f32 - 254.0) / 63.0
        });
        let a_view = ops::permute(&at, &[1, 0]); // [ms, k] transposed view
        let from_view = quant::linear_q8(&a_view, &q_view, None);
        let from_contig = quant::linear_q8(&a_view.contiguous(), &q_contig, None);
        prop_assert_eq!(from_view.data(), from_contig.data());
    }

    #[test]
    fn batched_and_flat_inputs_agree_bitwise(w in arb_weights(), half in 1usize..8) {
        let k = w.shape()[0];
        let q = QuantMatrix::quantize(&w);
        let a = Tensor::from_fn(&[2 * half, k], |i| ((i % 53) as f32 - 26.0) / 9.0);
        let batched = a.reshape(&[2, half, k]);
        let out = quant::linear_q8(&batched, &q, None);
        prop_assert_eq!(out.shape(), &[2, half, q.n()]);
        let flat = quant::linear_q8(&a, &q, None);
        prop_assert_eq!(out.data(), flat.data());
    }
}
