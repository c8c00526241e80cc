//! The forward's row kernels against the code they replaced, bit for bit.
//!
//! - Layer norm runs sixteen rows per lane block; every output, mean and
//!   `rstd` must have the bits of the one-row loop (copied below, with the
//!   lane sum it runs), at every row count around the blocks, every width
//!   around the eight-lane chunks and the sixteen-column transposes, with
//!   and without the saved statistics, hostile rows included.
//! - The row softmax runs as compiled for AVX-512F where the `KERNEL` dial
//!   says so; both compiles must give the bits of the one-row reference
//!   below, on rows holding NaN, ±∞, nothing but −∞, and maxima of mixed
//!   sign zeros.
//! - The attention op runs that softmax too: at the model's four shapes
//!   every kernel must give the same output bits.
//!
//! Each case runs under every kernel the CPU has; without AVX-512F the
//! portable one is the only side.

use tsdx_tensor::dial::{Kernel, RunConfig, KERNEL};
use tsdx_tensor::{fastmath, ops, Tensor};

/// Runs `f` under each kernel this CPU has.
fn each_kernel(mut f: impl FnMut(Kernel)) {
    for &kernel in Kernel::available() {
        RunConfig { kernel, ..RunConfig::current() }.run(|| f(kernel));
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic values in (−2, 2) from a seed.
fn values(seed: u64, shape: &[usize]) -> Tensor {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Tensor::from_fn(shape, |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f32 / (1u64 << 22) as f32 - 2.0
    })
}

/// The row sum the kernels used before rows were kept in flight: eight
/// lanes over the full chunks, folded pairwise, plus the remainder.
fn lane_sum(xs: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let c = xs.chunks_exact(8);
    let mut tail = 0.0f32;
    for &x in c.remainder() {
        tail += f(x);
    }
    let mut acc = [0.0f32; 8];
    for x in c {
        for (a, &v) in acc.iter_mut().zip(x) {
            *a += f(v);
        }
    }
    let quad = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    (quad[0] + quad[2]) + (quad[1] + quad[3]) + tail
}

/// The one-row layer norm loop: `(out, means, rstds)`.
fn layer_norm_reference(
    src: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let d = gamma.len();
    let (mut out, mut means, mut rstds) = (Vec::new(), Vec::new(), Vec::new());
    for row in src.chunks_exact(d) {
        let mean = lane_sum(row, |v| v) / d as f32;
        let var = lane_sum(row, |v| (v - mean) * (v - mean)) / d as f32;
        let rstd = 1.0 / (var + eps).sqrt();
        means.push(mean);
        rstds.push(rstd);
        for ((&v, &g), &b) in row.iter().zip(gamma).zip(beta) {
            out.push(((v - mean) * rstd).mul_add(g, b));
        }
    }
    (out, means, rstds)
}

#[test]
fn layer_norm_keeps_the_one_row_bits_at_every_row_count_and_width() {
    let rows = (0..=9).chain([68, 544]);
    for (n, d) in rows.flat_map(|n| [1, 3, 8, 9, 17, 64, 65, 128].map(|d| (n, d))) {
        let seed = (n * 1000 + d) as u64;
        let x = values(seed, &[n, d]);
        let (gamma, beta) = (values(seed ^ 1, &[d]), values(seed ^ 2, &[d]));
        let (want, want_mean, want_rstd) =
            layer_norm_reference(x.data(), gamma.data(), beta.data(), 1e-5);
        each_kernel(|kernel| {
            let (y, mean, rstd) = ops::layer_norm_forward(&x, &gamma, &beta, 1e-5);
            let plain = ops::layer_norm(&x, &gamma, &beta, 1e-5);
            let what = format!("[{n},{d}] under {kernel}");
            assert_eq!(bits(y.data()), bits(&want), "{what}: output");
            assert_eq!(bits(plain.data()), bits(&want), "{what}: output without stats");
            assert_eq!(bits(mean.data()), bits(&want_mean), "{what}: mean");
            assert_eq!(bits(rstd.data()), bits(&want_rstd), "{what}: rstd");
        });
    }
}

#[test]
fn layer_norm_keeps_the_one_row_bits_around_the_sixteen_row_blocks() {
    // Row counts on both sides of one and two lane blocks, widths off the
    // sixteen-column transposes (and the model's 64), a few hostile rows:
    // each lane is its own row, whatever its neighbours hold.
    for (n, d) in
        [15, 16, 17, 31, 32, 33].iter().flat_map(|&n| [1, 3, 9, 17, 20, 33, 64, 65].map(|d| (n, d)))
    {
        let seed = (n * 1000 + d) as u64;
        let mut x = values(seed, &[n, d]).to_vec();
        for (r, special) in [(1, f32::NAN), (n / 2, f32::INFINITY), (n - 1, f32::NEG_INFINITY)] {
            x[r * d + r % d] = special;
        }
        let x = Tensor::from_vec(x, &[n, d]);
        let (gamma, beta) = (values(seed ^ 1, &[d]), values(seed ^ 2, &[d]));
        let (want, want_mean, want_rstd) =
            layer_norm_reference(x.data(), gamma.data(), beta.data(), 1e-5);
        let nan_folded = |xs: &[f32]| {
            xs.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect::<Vec<_>>()
        };
        each_kernel(|kernel| {
            let (y, mean, rstd) = ops::layer_norm_forward(&x, &gamma, &beta, 1e-5);
            let plain = ops::layer_norm(&x, &gamma, &beta, 1e-5);
            let what = format!("[{n},{d}] under {kernel}");
            assert_eq!(nan_folded(y.data()), nan_folded(&want), "{what}: output");
            assert_eq!(nan_folded(plain.data()), nan_folded(&want), "{what}: output without stats");
            assert_eq!(nan_folded(mean.data()), nan_folded(&want_mean), "{what}: mean");
            assert_eq!(nan_folded(rstd.data()), nan_folded(&want_rstd), "{what}: rstd");
        });
    }
}

/// The one-row softmax: the running maximum ignores NaN and starts at −∞.
fn softmax_reference(src: &[f32], d: usize) -> Vec<f32> {
    let mut out = Vec::new();
    for row in src.chunks_exact(d) {
        let m = row.iter().fold(f32::NEG_INFINITY, |m, &x| if x > m { x } else { m });
        let e: Vec<f32> = row.iter().map(|&x| fastmath::exp(x - m)).collect();
        let denom = lane_sum(&e, |x| x);
        out.extend(e.iter().map(|&v| v / denom));
    }
    out
}

#[test]
fn softmax_keeps_its_bits_under_both_compiles_on_hostile_rows() {
    for d in [1, 5, 7, 8, 9, 17, 64] {
        let mut x = values(d as u64, &[12, d]).to_vec();
        let rows: Vec<&mut [f32]> = x.chunks_exact_mut(d).collect();
        for (r, row) in rows.into_iter().enumerate() {
            let j = (r * 5) % d;
            match r {
                0 => row[j] = f32::NAN,
                1 => row[j] = f32::INFINITY,
                2 => row[j] = f32::NEG_INFINITY,
                3 => row.fill(f32::NEG_INFINITY),
                4 => row.fill(f32::NAN),
                5 => (row[j], row[d - 1 - j]) = (f32::INFINITY, f32::NEG_INFINITY),
                // Maxima of mixed sign zeros: `-0.0` first, `+0.0` later.
                6 | 7 => {
                    for (i, v) in row.iter_mut().enumerate() {
                        *v = if i % 2 == r % 2 { -0.0 } else { 0.0 };
                    }
                    row[d / 2] = -1.5;
                }
                8 => row[j] = f32::from_bits(0x7fc0_1234),
                _ => {}
            }
        }
        let x = Tensor::from_vec(x, &[12, d]);
        let want = bits(&softmax_reference(x.data(), d));
        each_kernel(|kernel| {
            assert_eq!(bits(ops::softmax_last(&x).data()), want, "width {d} under {kernel}");
        });
    }
}

#[test]
fn attention_gives_the_same_bits_on_every_kernel_at_the_models_shapes() {
    // Spatial stage (32 sequences of 16 patches + CLS) and temporal stage
    // (8 sequences of 4 groups + CLS) at B = 8, full blocks and CLS rows.
    let (d, heads) = (64, 4);
    let scale = 1.0 / ((d / heads) as f32).sqrt();
    for (nb, t) in [(32, 17), (8, 5)] {
        for tq in [t, 1] {
            let seed = (nb * 100 + t * 10 + tq) as u64;
            let q = values(seed, &[nb, tq, d]);
            let (k, v) = (values(seed ^ 3, &[nb, t, d]), values(seed ^ 4, &[nb, t, d]));
            let want = KERNEL.with(Kernel::Portable, || ops::attention(&q, &k, &v, heads, scale));
            each_kernel(|kernel| {
                let got = ops::attention(&q, &k, &v, heads, scale);
                assert_eq!(
                    bits(got.data()),
                    bits(want.data()),
                    "q [{nb},{tq},{d}] k,v [{nb},{t},{d}] under {kernel}"
                );
            });
        }
    }
}
