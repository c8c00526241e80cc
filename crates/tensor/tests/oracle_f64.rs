//! Independent f64 oracle for the forward kernels, at the shapes the model
//! runs.
//!
//! The parity suites prove the production paths agree with *each other*
//! (AVX-512 == portable, workspace on == off) bit for bit; none of them can
//! say any path is *right*. This file can: every reference here is a naive,
//! allocation-happy f64 loop over `Tensor::at` — no views, arena, tiling or
//! packing — and each kernel is bounded against it by a
//! forward-error bound stated next to the check. A kernel may change its
//! tiling, accumulation order or rounding (fused or not) and still pass; a
//! wrong index, a dropped term or a lost tail row/column cannot.
//!
//! Kernel level only: the whole-model f64 reference forward is ROADMAP
//! item 3's own PR, and this file is its first brick.

use tsdx_tensor::dial::{Kernel, KERNEL};
use tsdx_tensor::shape::index_of;
use tsdx_tensor::{ops, Tensor};

const EPS: f64 = f32::EPSILON as f64;

/// Deterministic fill in `[-1, 1)` (xorshift32, one stream per seed).
fn fill(shape: &[usize], seed: u32) -> Tensor {
    let mut s = seed.wrapping_mul(2_654_435_761).wrapping_add(0x9E37_79B9) | 1;
    Tensor::from_fn(shape, |_| {
        s ^= s << 13;
        s ^= s >> 17;
        s ^= s << 5;
        (s >> 8) as f32 / (1u32 << 23) as f32 - 1.0
    })
}

/// Naive f64 `a @ b` for operands with identical leading batch dims:
/// per output element, the exact-in-f64 product sum and `Σ|aᵢ·bᵢ|`.
fn matmul_f64(a: &Tensor, b: &Tensor) -> (Vec<usize>, Vec<(f64, f64)>) {
    let (ash, bsh) = (a.shape(), b.shape());
    let r = ash.len();
    assert_eq!(ash[..r - 2], bsh[..r - 2], "oracle matmul wants equal batch dims");
    let (m, k, n) = (ash[r - 2], ash[r - 1], bsh[r - 1]);
    assert_eq!(bsh[r - 2], k);
    let mut out_shape = ash[..r - 2].to_vec();
    out_shape.extend([m, n]);
    let total: usize = out_shape.iter().product();
    let mut out = Vec::with_capacity(total);
    for flat in 0..total {
        let idx = index_of(&out_shape, flat);
        let (batch, i, j) = (&idx[..r - 2], idx[r - 2], idx[r - 1]);
        let (mut sum, mut abs) = (0.0f64, 0.0f64);
        for kk in 0..k {
            let ai = [batch, &[i, kk]].concat();
            let bi = [batch, &[kk, j]].concat();
            let p = a.at(&ai) as f64 * b.at(&bi) as f64;
            sum += p;
            abs += p.abs();
        }
        out.push((sum, abs));
    }
    (out_shape, out)
}

/// Bounds `ops::matmul` against the oracle on the f32 kernel the host
/// selects and on the portable one (only the latter where there is no
/// AVX-512 — see `dial::KERNEL`).
///
/// Bound: `|got − want| ≤ C·k·ε·Σ|aᵢbᵢ|` with `C = 1`, ε = 2⁻²³. One
/// accumulator rounded once per term gives at most `k·(ε/2)·Σ|aᵢbᵢ|` to
/// first order (Higham, *Accuracy and Stability*, §3.1), fused or not and in
/// any order, so `C = 1` is twice the worst case any correct kernel can
/// reach (measured worst over this file: C = 0.085); one dropped term is
/// ~`Σ|aᵢbᵢ|/k`, thousands of times the bound.
fn assert_matmul_within_bound(a: &Tensor, b: &Tensor) {
    const C: f64 = 1.0;
    let k = *a.shape().last().expect("rank >= 2") as f64;
    let (out_shape, want) = matmul_f64(a, b);
    for &kernel in Kernel::available() {
        let got = KERNEL.with(kernel, || ops::matmul(a, b));
        assert_eq!(got.shape(), &out_shape[..]);
        for (flat, (&g, &(sum, abs))) in got.to_vec().iter().zip(&want).enumerate() {
            let bound = C * k * EPS * abs;
            assert!(
                (g as f64 - sum).abs() <= bound,
                "{:?} @ {:?}, {kernel}, element {:?}: got {g}, want {sum}, bound {bound:e}",
                a.shape(),
                b.shape(),
                index_of(&out_shape, flat),
            );
        }
    }
}

#[test]
fn linear_layer_products_at_model_shapes() {
    // [B·17, 64] tokens through q/k/v/o, fc1 and fc2 at B = 4 and B = 32
    // (one clip, the benchmark's batch of eight), and the temporal [5, 64].
    for &(m, k, n) in
        &[(68, 64, 64), (68, 64, 128), (68, 128, 64), (544, 64, 128), (544, 128, 64), (5, 64, 64)]
    {
        assert_matmul_within_bound(&fill(&[m, k], 1), &fill(&[k, n], 2));
    }
}

#[test]
fn more_products_at_model_shapes() {
    // The batch-of-eight q/k/v/o projection, fc2 at a batch whose token
    // count is a whole number of 8-row register blocks, and the widest
    // classification head on eight CLS rows (13 columns: less than one
    // vector on either kernel).
    for &(m, k, n) in &[(544, 64, 64), (512, 128, 64), (8, 64, 13)] {
        assert_matmul_within_bound(&fill(&[m, k], 71), &fill(&[k, n], 72));
    }
    // Dense per-head scores, q·kᵀ: [32, 17, 16] against the transposed view
    // of [32, 17, 16] — 17 columns, one past a vector.
    let (q, kt) = (fill(&[32, 17, 16], 73), ops::transpose_last2(&fill(&[32, 17, 16], 74)));
    assert_matmul_within_bound(&q, &kt);
}

#[test]
fn fused_linear_with_gelu_and_residual_at_model_shapes() {
    // `ops::linear(x, w, b, GELU, r)` against f64 `gelu(x·W + b) + r`: fc1's
    // shape at one clip, the temporal stage's q/k/v/o, fc2's at batch 8.
    //
    // Bound: the matmul bound above on the product, one rounding of the
    // bias add (ε·|z|), both carried through GELU (|gelu′| ≤ 1.13), plus the
    // GELU bound of `gelu_at_mlp_shapes` (1e-6·max(1, |gelu z|)) and one
    // rounding of the residual add (ε·|y|). Nothing new: each term is the
    // bound the separate kernel already meets.
    use ops::Activation;
    for &(m, k, n) in &[(68usize, 64usize, 128usize), (5, 64, 64), (544, 128, 64)] {
        let (x, w) = (fill(&[m, k], 61), fill(&[k, n], 62));
        let (b, r) = (fill(&[n], 63), fill(&[m, n], 64));
        let (_, product) = matmul_f64(&x, &w);
        let got = ops::linear(&x, &w, Some(&b), Activation::Gelu, Some(&r)).to_vec();
        for (flat, (&g, &(sum, abs))) in got.iter().zip(&product).enumerate() {
            let (i, j) = (flat / n, flat % n);
            let z = sum + b.at(&[j]) as f64;
            let u = (2.0 / std::f64::consts::PI).sqrt() * (z + 0.044715 * z.powi(3));
            let act = z / (1.0 + (-2.0 * u).exp());
            let want = act + r.at(&[i, j]) as f64;
            let bound = 1.13 * (k as f64 * EPS * abs + EPS * z.abs())
                + 1e-6 * act.abs().max(1.0)
                + EPS * want.abs();
            assert!(
                (g as f64 - want).abs() <= bound,
                "linear {m}x{k}x{n} [{i},{j}]: {g} vs {want}, bound {bound:e}"
            );
        }
    }
}

#[test]
fn packed_gate_products() {
    // B past 64 KB, so its tiles stream from beyond L1: once with every
    // register block full and once with tail rows (70 = 8·8 + 6 = 17·4 + 2)
    // and tail columns (136 = 4·32 + 8 = 8·16 + 8).
    assert_matmul_within_bound(&fill(&[96, 128], 3), &fill(&[128, 128], 4));
    assert_matmul_within_bound(&fill(&[70, 128], 5), &fill(&[128, 136], 6));
    // ...and a transposed-view B, gathered through its strides tile by tile.
    let bt = fill(&[136, 128], 7);
    assert_matmul_within_bound(&fill(&[70, 128], 8), &ops::transpose_last2(&bt));
}

#[test]
fn attention_core_products_on_head_split_views() {
    // The model's layout: [B, T, H·Dh] projections reshaped to [B, T, H, Dh]
    // and permuted to [B, H, T, Dh] — B = 4 clips' worth, H = 4, T = 17,
    // Dh = 16, i.e. 16 batch matrices, all strided views of one buffer.
    let split = |seed| ops::permute(&fill(&[4, 17, 4, 16], seed), &[0, 2, 1, 3]);
    let (q, k, v) = (split(11), split(12), split(13));
    // q·kᵀ: [16,17,16]·[16,16,17], B a transposed view (gathered tile plus
    // one tail column).
    assert_matmul_within_bound(&q, &ops::transpose_last2(&k));
    // p·v: [16,17,17]·[16,17,16], B a head-split view read in place.
    let p = ops::softmax_last(&fill(&[4, 4, 17, 17], 14));
    assert_matmul_within_bound(&p, &v);
}

#[test]
fn tail_rows_and_tail_columns() {
    // n = 50 = 3·16 + 2 tail columns; 7 and 70 rows are multiples of
    // neither 4 (portable kernel) nor 8 (AVX-512 kernel).
    assert_matmul_within_bound(&fill(&[7, 64], 21), &fill(&[64, 50], 22));
    assert_matmul_within_bound(&fill(&[70, 33], 23), &fill(&[33, 50], 24));
    // Same tails behind a transposed B and a transposed A.
    let bt = fill(&[50, 33], 25);
    assert_matmul_within_bound(&fill(&[7, 33], 26), &ops::transpose_last2(&bt));
    let at = fill(&[33, 70], 27);
    assert_matmul_within_bound(&ops::transpose_last2(&at), &fill(&[33, 50], 28));
    // Narrower than one tile, and a single row.
    assert_matmul_within_bound(&fill(&[1, 64], 29), &fill(&[64, 5], 30));
}

#[test]
fn softmax_at_attention_shapes() {
    // Bound: |got − want| ≤ 16ε·want. The exp argument x − max is exact to
    // one rounding of magnitude ≤ ε/2·|x − max| ≤ 4ε here (scores span
    // [-4, 4]), `fastmath::exp` adds ≤ 1.7ε (its own sweep), the 17-term
    // sum and the divide ≤ 2ε. Measured worst: 2.1ε.
    for &(shape, scale) in &[(&[32usize, 4, 17, 17][..], 4.0f32), (&[8, 4, 5, 5][..], 4.0)] {
        let x = ops::scale(&fill(shape, 31), scale);
        let d = *shape.last().expect("rank >= 1");
        let xv = x.to_vec();
        let got = ops::softmax_last(&x).to_vec();
        for (r, (row, grow)) in xv.chunks(d).zip(got.chunks(d)).enumerate() {
            let m = row.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v as f64));
            let e: Vec<f64> = row.iter().map(|&v| (v as f64 - m).exp()).collect();
            let sum: f64 = e.iter().sum();
            for (j, (&g, ej)) in grow.iter().zip(&e).enumerate() {
                let want = ej / sum;
                assert!(
                    (g as f64 - want).abs() <= 16.0 * EPS * want,
                    "softmax {shape:?} row {r} col {j}: {g} vs {want}"
                );
            }
        }
    }
}

#[test]
fn layer_norm_at_token_shapes() {
    // Bound: |got − want| ≤ 8ε·(|x̂·γ| + |β| + |γ|·max|x|/σ). The last term
    // is the cancellation in x − mean (the mean carries ~ε·max|x|, divided
    // by σ); the first two are the roundings of the affine epilogue.
    // Measured worst: 0.83ε of the parenthesis.
    let eps = 1e-5f32;
    for &rows in &[68usize, 544, 5] {
        let d = 64;
        let x = fill(&[rows, d], 41);
        let gamma = ops::add_scalar(&fill(&[d], 42), 1.5);
        let beta = fill(&[d], 43);
        let (xv, gv, bv) = (x.to_vec(), gamma.to_vec(), beta.to_vec());
        let (y, mean, rstd) = ops::layer_norm_forward(&x, &gamma, &beta, eps);
        let (yv, mv, rv) = (y.to_vec(), mean.to_vec(), rstd.to_vec());
        for (r, row) in xv.chunks(d).enumerate() {
            let mu = row.iter().map(|&v| v as f64).sum::<f64>() / d as f64;
            let var = row.iter().map(|&v| (v as f64 - mu).powi(2)).sum::<f64>() / d as f64;
            let rs = 1.0 / (var + eps as f64).sqrt();
            let xmax = row.iter().fold(0.0f64, |m, &v| m.max((v as f64).abs()));
            assert!((mv[r] as f64 - mu).abs() <= 4.0 * EPS * xmax, "mean row {r}");
            assert!((rv[r] as f64 - rs).abs() <= 8.0 * EPS * rs * (1.0 + xmax * rs), "rstd");
            for j in 0..d {
                let xhat = (row[j] as f64 - mu) * rs;
                let want = xhat * gv[j] as f64 + bv[j] as f64;
                let scale = (xhat * gv[j] as f64).abs()
                    + (bv[j] as f64).abs()
                    + (gv[j] as f64).abs() * xmax * rs;
                let got = yv[r * d + j] as f64;
                assert!(
                    (got - want).abs() <= 8.0 * EPS * scale,
                    "layer_norm rows {rows} [{r},{j}]: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn gelu_at_mlp_shapes() {
    // Bound: |got − want| ≤ 1e-6·max(1, |want|) against the tanh-form GELU,
    // written as x·σ(2u) so the f64 side does not cancel for x ≪ 0.
    // Measured worst on [-6, 6): 1.5e-7.
    for &rows in &[68usize, 544] {
        let x = ops::scale(&fill(&[rows, 128], 51), 6.0);
        let got = ops::gelu(&x).to_vec();
        for (i, (&xv, &g)) in x.to_vec().iter().zip(&got).enumerate() {
            let xd = xv as f64;
            let u = (2.0 / std::f64::consts::PI).sqrt() * (xd + 0.044715 * xd.powi(3));
            let want = xd / (1.0 + (-2.0 * u).exp());
            assert!(
                (g as f64 - want).abs() <= 1e-6 * want.abs().max(1.0),
                "gelu rows {rows} element {i}: gelu({xv}) = {g} vs {want}"
            );
        }
    }
}
