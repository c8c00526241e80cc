//! Fast scalar transcendentals for hot kernels.
//!
//! `libm`'s `expf`/`tanhf` dominate softmax, attention, GELU, and the gated
//! recurrences once matmul is blocked. These are the classic
//! Cephes single-precision polynomial approximations (range reduction plus a
//! degree-5/6 minimax polynomial), under 1 ulp where this module's sweeps
//! measure them (8.3e-8 relative for `exp` over its whole range, 7.9e-8
//! absolute for `tanh`) — indistinguishable from `std` at every tolerance
//! this workspace tests and several times faster per call.
//!
//! Every function is written so that a loop calling it over a slice
//! **autovectorizes**, which is where the speed comes from (a slice of
//! 69 632 floats: 0.74–0.88 ns per element for `exp` against 3.8–5.0 ns for
//! `f32::exp`, an `x86-64-v3` build on one pinned vCPU of a 2-vCPU Xeon
//! with AVX-512F, three runs of 31 rounds each): straight-line bodies, no early
//! returns (ranges are computed both ways and selected), no float→int casts
//! (`as i32` saturates, which the vectorizer cannot express — `exp` reads its
//! integer out of the mantissa bits instead), polynomial steps as `mul_add`.
//! `mul_add` is unconditional, so results do not depend on the build's
//! target features; a target without FMA falls back to libm's `fmaf`, slowly.
//!
//! Every kernel that softmaxes, gates, or activates routes through this
//! module, so the *same* approximation is used everywhere: fused attention
//! matches the composed softmax path bit-for-bit in its exponentials.

// The Cephes coefficients are quoted digit-for-digit from the reference
// implementation; don't shorten them to whatever f32 round-trips to.
#![allow(clippy::excessive_precision)]

/// Upper clamp for [`exp`]: anything past `ln(f32::MAX)` (88.7228…) with
/// `n` still 128, so the final scale multiply overflows to `+inf` by itself.
pub(crate) const EXP_HI: f32 = 89.0;
/// Lower clamp for [`exp`]: just above `ln(f32::MIN_POSITIVE)` (−87.33654…),
/// so the result saturates at ~1.18e-38 and never goes subnormal — a
/// subnormal product costs a microcode assist per element.
pub(crate) const EXP_LO: f32 = -87.336_54;

/// log2(e), for range reduction.
pub(crate) const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split into a high part exactly representable in `f32`…
pub(crate) const LN2_HI: f32 = 0.693_359_375;
/// …and the low-order remainder (`ln 2 - LN2_HI`).
pub(crate) const LN2_LO: f32 = -2.121_944_4e-4;
/// Degree-5 minimax polynomial for `(e^r − 1 − r) / r²` on the reduced
/// range, highest power first (Horner's rule).
pub(crate) const EXP_POLY: [f32; 6] =
    [1.987_569_1e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_6e-1, 5.000_000_1e-1];
/// 1.5·2²³: adding it to `|v| < 2²²` rounds `v` to the nearest integer (ties
/// to even) and leaves that integer, two's complement, in the low mantissa
/// bits of the sum — a float→int conversion with no cast instruction.
pub(crate) const ROUND_MAGIC: f32 = 12_582_912.0;

/// `e^x`, Cephes `expf`: under 1 ulp (swept in the tests), exact at `x = 0`.
///
/// Straight-line and cast-free, so a loop over a slice vectorizes: the
/// argument is clamped instead of early-returning, `n = round(x·log2 e)`
/// comes from the `ROUND_MAGIC` add (an `as i32` cast would saturate,
/// which the vectorizer cannot express), the polynomial steps are
/// `mul_add`s, and `2^n` is built in the exponent bits. `n` reaches 128 at
/// the top of the range, one more than an `f32` exponent holds, so the scale
/// is applied as two factors `2^⌊n/2⌋ · 2^⌈n/2⌉`: results stay correct up
/// to `f32::MAX`, overflow to `+inf` above it, and below `EXP_LO` saturate
/// at the smallest normal magnitude rather than flushing to `0.0`.
#[inline]
pub fn exp(x: f32) -> f32 {
    let x = x.clamp(EXP_LO, EXP_HI);
    // x = n*ln2 + r with |r| <= ln2/2; e^x = 2^n * e^r.
    let shifted = x.mul_add(LOG2E, ROUND_MAGIC);
    let n = shifted - ROUND_MAGIC;
    let r = n.mul_add(-LN2_LO, n.mul_add(-LN2_HI, x));
    let mut p = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        p = p.mul_add(r, c);
    }
    let e_r = p.mul_add(r * r, r) + 1.0;
    // n in [-126, 128] as an integer, then halved so each factor's biased
    // exponent lands in [64, 191]: a normal float, never inf or zero.
    let ni = shifted.to_bits().wrapping_sub(ROUND_MAGIC.to_bits()) as i32;
    let lo = ni >> 1;
    let pow2 = |e: i32| f32::from_bits(((e + 127) as u32) << 23);
    e_r * pow2(lo) * pow2(ni - lo)
}

/// `tanh x`, Cephes `tanhf`: polynomial near zero, `exp`-based beyond.
///
/// Both ranges are computed and one is selected, so there is no branch for
/// the vectorizer to trip on. The `exp` form needs no saturation case: past
/// `|x| ≈ 9.01` the quotient `2/(e+1)` is below half an ulp of 1 and the
/// result is exactly `±1`, and [`exp`]'s clamp keeps it there.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let ax = x.abs();
    let e = exp(2.0 * ax);
    let big = (1.0 - 2.0 / (e + 1.0)).copysign(x);
    let z = x * x;
    let mut p = -5.704_988_6e-3_f32;
    p = p.mul_add(z, 2.063_908_9e-2);
    p = p.mul_add(z, -5.373_971_4e-2);
    p = p.mul_add(z, 1.333_144_2e-1);
    p = p.mul_add(z, -3.333_328_2e-1);
    let small = (p * z).mul_add(x, x);
    if ax >= 0.625 {
        big
    } else {
        small
    }
}

/// Logistic sigmoid `1 / (1 + e^-x)` via [`exp`].
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative error of `got` against the f64 reference `want`.
    fn rel_err(got: f32, want: f64) -> f64 {
        ((got as f64 - want) / want).abs()
    }

    #[test]
    fn exp_matches_f64_over_the_whole_clamp_range() {
        // Bound: k · 2e-7 with k = 1. Measured worst on this sweep: 8.3e-8
        // (k = 0.41, 0.7 ulp) at x ≈ 69.67.
        const BOUND: f64 = 2e-7;
        let mut worst = (0.0f64, 0.0f32);
        let mut check = |x: f32| {
            let want = (x as f64).exp();
            if x >= EXP_LO && want <= f32::MAX as f64 {
                let e = rel_err(exp(x), want);
                if e > worst.0 {
                    worst = (e, x);
                }
            }
        };
        // Every reduction boundary (n ± ½)·ln 2 for n in [-126, 128], four
        // floats either side: where `n` steps, and where `2^n` is split.
        for n in -126..=128 {
            for half in [-0.5f64, 0.5] {
                let mut x = ((n as f64 + half) * std::f64::consts::LN_2) as f32;
                for _ in 0..4 {
                    x = x.next_down();
                }
                for _ in 0..9 {
                    check(x);
                    x = x.next_up();
                }
            }
        }
        // ...and a plain sweep of everything between the clamps.
        let mut x = EXP_LO;
        while x < EXP_HI {
            check(x);
            x += 1.0 / 1024.0;
        }
        assert!(worst.0 <= BOUND, "exp worst relative error {:e} at x = {}", worst.0, worst.1);
    }

    #[test]
    fn exp_is_exact_at_zero_and_saturates_at_both_ends() {
        assert_eq!(exp(0.0), 1.0);
        // Finite up to f32::MAX, +inf above it and above the clamp.
        let ln_max = (f32::MAX as f64).ln() as f32; // rounds up: just past
        assert!(exp(ln_max.next_down()).is_finite());
        for x in [ln_max, EXP_HI, 100.0, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x})");
        }
        // Below the clamp: the smallest normal, never subnormal or zero —
        // negligible in every softmax denominator.
        for x in [EXP_LO, -100.0, f32::NEG_INFINITY] {
            assert!(exp(x) <= 1.2e-38 && exp(x) >= f32::MIN_POSITIVE, "exp({x})");
        }
        assert!(exp(f32::NAN).is_nan());
    }

    #[test]
    fn tanh_is_odd_monotone_saturating_and_accurate() {
        // Every float around the 0.625 seam between the two ranges, plus a
        // sweep of [-15, 15].
        let mut xs: Vec<f32> = (0..=15_000).map(|i| i as f32 * 0.001).collect();
        let mut x = 0.62f32;
        while x < 0.63 {
            xs.push(x);
            x = x.next_up();
        }
        xs.sort_by(f32::total_cmp);
        let mut worst = 0.0f64;
        let mut prev = 0.0f32;
        for &x in &xs {
            let t = tanh(x);
            worst = worst.max((t as f64 - (x as f64).tanh()).abs());
            assert!(t >= prev, "tanh not monotone at {x}: {t} < {prev}");
            assert!(tanh(-x) == -t, "tanh not odd at {x}");
            prev = t;
        }
        // Measured: 7.9e-8, at the seam.
        assert!(worst < 1e-6, "tanh worst absolute error {worst:e}");
        assert_eq!(tanh(0.0), 0.0);
        for x in [10.0, 20.0, 1e30, f32::INFINITY] {
            assert_eq!(tanh(x), 1.0);
            assert_eq!(tanh(-x), -1.0);
        }
        assert!(tanh(f32::NAN).is_nan());
    }

    #[test]
    fn sigmoid_matches_f64_and_is_symmetric() {
        assert_eq!(sigmoid(0.0), 0.5);
        let mut worst = 0.0f64;
        for i in -30_000..=30_000 {
            let x = i as f32 * 0.001;
            worst = worst.max(rel_err(sigmoid(x), 1.0 / (1.0 + (-(x as f64)).exp())));
            let s = sigmoid(x) as f64 + sigmoid(-x) as f64;
            assert!((s - 1.0).abs() < 1e-6, "sigmoid symmetry broke at {x}: {s}");
        }
        // Measured: 1.4e-7.
        assert!(worst < 4e-7, "sigmoid worst relative error {worst:e}");
    }
}
