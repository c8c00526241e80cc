//! Property-based tests of renderer invariants over random scenarios.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_render::{apply_weather, render_video, Camera, RenderConfig, Weather};
use tsdx_sim::{SamplerConfig, ScenarioSampler};

fn small_cfg() -> RenderConfig {
    RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rendered_videos_are_bounded_and_finite(seed in 0u64..5_000) {
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let g = sampler.sample(&mut rng);
        let traj = g.world.simulate(0.1);
        let v = render_video(&g.world, &traj, &small_cfg(), &mut rng);
        prop_assert_eq!(v.shape(), &[4, 16, 16]);
        prop_assert!(!v.has_non_finite());
        prop_assert!(v.min() >= 0.0 && v.max() <= 1.0);
        // A real scene is never constant.
        prop_assert!(v.max() - v.min() > 0.05);
    }

    #[test]
    fn rendering_is_deterministic_per_seed(seed in 0u64..5_000) {
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let g = sampler.sample(&mut StdRng::seed_from_u64(seed));
        let traj = g.world.simulate(0.1);
        let a = render_video(&g.world, &traj, &small_cfg(), &mut StdRng::seed_from_u64(seed));
        let b = render_video(&g.world, &traj, &small_cfg(), &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fog_reduces_dynamic_range(seed in 0u64..5_000, k in 0.03f32..0.15) {
        let sampler = ScenarioSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let g = sampler.sample(&mut rng);
        let traj = g.world.simulate(0.1);
        let clear_cfg = RenderConfig { noise_std: 0.0, brightness_jitter: 0.0, ..small_cfg() };
        let fog_cfg = RenderConfig { weather: Weather::Fog(k), ..clear_cfg };
        let clear = render_video(&g.world, &traj, &clear_cfg, &mut StdRng::seed_from_u64(1));
        let foggy = render_video(&g.world, &traj, &fog_cfg, &mut StdRng::seed_from_u64(1));
        prop_assert!(foggy.max() - foggy.min() <= clear.max() - clear.min() + 1e-4);
        prop_assert!(!foggy.has_non_finite());
    }

    #[test]
    fn weather_post_process_stays_in_range(v0 in 0.0f32..1.0, k in 0.0f32..0.2) {
        let cam = Camera::standard(8, 8);
        for weather in [Weather::Clear, Weather::Fog(k), Weather::Night] {
            let mut frame = vec![v0; 64];
            apply_weather(weather, &cam, &mut frame);
            for &px in &frame {
                prop_assert!((0.0..=1.0 + 1e-5).contains(&px), "{weather:?}: {px}");
            }
        }
    }
}
