//! Clip rendering: trajectory → video tensor.

use rand::Rng;
use tsdx_sim::{Trajectory, World};
use tsdx_tensor::Tensor;

use crate::camera::Camera;
use crate::raster::render_frame;
use crate::weather::{apply_weather, Weather};
use crate::worldmap::WorldMap;

/// Rendering configuration for video clips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderConfig {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Number of frames sampled evenly over the clip.
    pub frames: usize,
    /// Standard deviation of additive Gaussian pixel noise (0 disables).
    pub noise_std: f32,
    /// Half-range of the per-clip global brightness jitter (0 disables).
    pub brightness_jitter: f32,
    /// Atmospheric / lighting condition.
    pub weather: Weather,
}

impl Default for RenderConfig {
    /// The evaluation default: 8 frames of 32×32 with mild sensor noise.
    fn default() -> Self {
        RenderConfig {
            width: 32,
            height: 32,
            frames: 8,
            noise_std: 0.01,
            brightness_jitter: 0.05,
            weather: Weather::Clear,
        }
    }
}

/// Renders a simulated world into a grayscale video tensor `[T, H, W]`.
///
/// Frames are sampled evenly over the trajectory (first and last step
/// included). Noise is sampled from `rng`, so clips are reproducible under
/// a seeded generator.
pub fn render_video(
    world: &World,
    traj: &Trajectory,
    cfg: &RenderConfig,
    rng: &mut impl Rng,
) -> Tensor {
    let cam = Camera::standard(cfg.width, cfg.height);
    let map = WorldMap::of(&world.road);
    let indices = traj.frame_indices(cfg.frames);

    let brightness = if cfg.brightness_jitter > 0.0 {
        rng.random_range(-cfg.brightness_jitter..=cfg.brightness_jitter)
    } else {
        0.0
    };

    let mut data = Vec::with_capacity(cfg.frames * cfg.height * cfg.width);
    for &i in &indices {
        let ego = &traj.ego[i];
        let actors: Vec<_> =
            world.actors.iter().zip(&traj.actors).map(|(a, states)| (a.kind, states[i])).collect();
        let mut frame = render_frame(&cam, map, ego, &actors);
        apply_weather(cfg.weather, &cam, frame.data_mut());
        for &v in frame.data() {
            let noise =
                if cfg.noise_std > 0.0 { tsdx_nn_free_normal(rng) * cfg.noise_std } else { 0.0 };
            data.push((v + brightness + noise).clamp(0.0, 1.0));
        }
    }
    Tensor::from_vec(data, &[cfg.frames, cfg.height, cfg.width])
}

/// Box–Muller standard normal (local copy to avoid a dependency cycle with
/// `tsdx-nn`).
fn tsdx_nn_free_normal(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.random_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsdx_sim::{SamplerConfig, ScenarioSampler};

    fn sample_world() -> (World, Trajectory) {
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let g = sampler.sample(&mut rng);
        let traj = g.world.simulate(0.1);
        (g.world, traj)
    }

    #[test]
    fn video_shape_and_range() {
        let (world, traj) = sample_world();
        let cfg = RenderConfig::default();
        let mut rng = StdRng::seed_from_u64(4);
        let v = render_video(&world, &traj, &cfg, &mut rng);
        assert_eq!(v.shape(), &[8, 32, 32]);
        assert!(v.min() >= 0.0 && v.max() <= 1.0);
        assert!(!v.has_non_finite());
    }

    #[test]
    fn deterministic_under_seed() {
        let (world, traj) = sample_world();
        let cfg = RenderConfig::default();
        let a = render_video(&world, &traj, &cfg, &mut StdRng::seed_from_u64(5));
        let b = render_video(&world, &traj, &cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn noise_free_config_is_pure_function_of_world() {
        let (world, traj) = sample_world();
        let cfg =
            RenderConfig { noise_std: 0.0, brightness_jitter: 0.0, ..RenderConfig::default() };
        let a = render_video(&world, &traj, &cfg, &mut StdRng::seed_from_u64(1));
        let b = render_video(&world, &traj, &cfg, &mut StdRng::seed_from_u64(999));
        assert_eq!(a, b);
    }

    #[test]
    fn frames_change_over_time_when_ego_moves() {
        let (world, traj) = sample_world();
        let cfg =
            RenderConfig { noise_std: 0.0, brightness_jitter: 0.0, ..RenderConfig::default() };
        let v = render_video(&world, &traj, &cfg, &mut StdRng::seed_from_u64(0));
        let hw = 32 * 32;
        let first = &v.data()[..hw];
        let last = &v.data()[(cfg.frames - 1) * hw..];
        let diff: f32 = first.iter().zip(last).map(|(a, b)| (a - b).abs()).sum::<f32>() / hw as f32;
        assert!(diff > 0.005, "video is static: mean |diff| = {diff}");
    }

    #[test]
    fn custom_resolution_and_frame_count() {
        let (world, traj) = sample_world();
        let cfg = RenderConfig { width: 16, height: 24, frames: 4, ..RenderConfig::default() };
        let mut rng = StdRng::seed_from_u64(6);
        let v = render_video(&world, &traj, &cfg, &mut rng);
        assert_eq!(v.shape(), &[4, 24, 16]);
    }
}
