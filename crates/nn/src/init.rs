//! Weight initializers.
//!
//! `rand` 0.9 ships only uniform sampling; the Gaussian here is a Box–Muller
//! transform so we avoid an extra dependency.

use rand::Rng;
use tsdx_tensor::Tensor;

/// Samples one standard-normal value via the Box–Muller transform.
pub(crate) fn standard_normal(rng: &mut impl Rng) -> f32 {
    // Guard against ln(0).
    let u1: f32 = rng.random_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Tensor of i.i.d. normal samples with the given `std`.
pub(crate) fn normal(shape: &[usize], std: f32, rng: &mut impl Rng) -> Tensor {
    Tensor::from_fn(shape, |_| standard_normal(rng) * std)
}

/// Tensor of i.i.d. uniform samples in `[-bound, bound]`.
pub(crate) fn uniform(shape: &[usize], bound: f32, rng: &mut impl Rng) -> Tensor {
    Tensor::from_fn(shape, |_| rng.random_range(-bound..=bound))
}

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight.
pub(crate) fn xavier_uniform(
    fan_in: usize,
    fan_out: usize,
    shape: &[usize],
    rng: &mut impl Rng,
) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(shape, bound, rng)
}

/// Kaiming/He normal initialization (for ReLU-family fan-in scaling).
pub(crate) fn kaiming_normal(fan_in: usize, shape: &[usize], rng: &mut impl Rng) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    normal(shape, std, rng)
}

/// Truncated-style small-normal init used for positional embeddings and
/// class tokens (std 0.02, transformer convention).
pub fn embedding_normal(shape: &[usize], rng: &mut impl Rng) -> Tensor {
    normal(shape, 0.02, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = normal(&[10_000], 1.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_respects_bound() {
        let mut rng = StdRng::seed_from_u64(8);
        let t = uniform(&[1000], 0.3, &mut rng);
        assert!(t.max() <= 0.3 && t.min() >= -0.3);
        // Not degenerate.
        assert!(t.max() > 0.2 && t.min() < -0.2);
    }

    #[test]
    fn xavier_bound_shrinks_with_fanin() {
        let mut rng = StdRng::seed_from_u64(9);
        let big = xavier_uniform(10, 10, &[100], &mut rng);
        let small = xavier_uniform(1000, 1000, &[100], &mut rng);
        assert!(
            big.data().iter().map(|x| x.abs()).fold(0.0, f32::max)
                > small.data().iter().map(|x| x.abs()).fold(0.0, f32::max)
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = normal(&[16], 1.0, &mut StdRng::seed_from_u64(3));
        let b = normal(&[16], 1.0, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
