//! Clip generation: sampling, simulating, and rendering labeled videos.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tsdx_render::{render_video, RenderConfig};
use tsdx_sdl::Scenario;
use tsdx_sim::{SamplerConfig, ScenarioSampler};
use tsdx_tensor::Tensor;

use crate::labels::ClipLabels;

/// One labeled video clip.
#[derive(Debug, Clone, PartialEq)]
pub struct Clip {
    /// Grayscale video `[T, H, W]`, values in `[0, 1]`.
    pub video: Tensor,
    /// Ground-truth SDL description.
    pub truth: Scenario,
    /// Derived head labels.
    pub labels: ClipLabels,
}

/// Simulation timestep (s) of every generated clip.
const SIM_DT: f32 = 0.1;

/// Full dataset-generation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Number of clips to generate.
    pub n_clips: usize,
    /// Base RNG seed; clip `i` uses seed `base_seed + i`, so any clip can be
    /// regenerated alone.
    pub base_seed: u64,
    /// Scenario sampler configuration.
    pub sampler: SamplerConfig,
    /// Rendering configuration.
    pub render: RenderConfig,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            n_clips: 256,
            base_seed: 17,
            sampler: SamplerConfig::default(),
            render: RenderConfig::default(),
        }
    }
}

/// Generates the clip with index `i` under `cfg` (deterministic).
pub fn generate_clip(cfg: &DatasetConfig, i: usize) -> Clip {
    let mut rng = StdRng::seed_from_u64(cfg.base_seed.wrapping_add(i as u64));
    let sampler = ScenarioSampler::new(cfg.sampler);
    let generated = sampler.sample(&mut rng);
    let traj = generated.world.simulate(SIM_DT);
    let video = render_video(&generated.world, &traj, &cfg.render, &mut rng);
    let labels = ClipLabels::from_scenario(&generated.truth);
    Clip { video, truth: generated.truth, labels }
}

/// Generates a full dataset, clip by clip on the caller's thread.
pub fn generate_dataset(cfg: &DatasetConfig) -> Vec<Clip> {
    (0..cfg.n_clips).map(|i| generate_clip(cfg, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(n: usize) -> DatasetConfig {
        DatasetConfig {
            n_clips: n,
            render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
            ..DatasetConfig::default()
        }
    }

    #[test]
    fn clips_have_consistent_shapes_and_labels() {
        let cfg = tiny_cfg(6);
        let clips = generate_dataset(&cfg);
        assert_eq!(clips.len(), 6);
        for c in &clips {
            assert_eq!(c.video.shape(), &[4, 16, 16]);
            c.truth.validate().unwrap();
            assert_eq!(c.labels, ClipLabels::from_scenario(&c.truth));
        }
    }

    #[test]
    fn generation_is_deterministic_per_index() {
        let cfg = tiny_cfg(3);
        let a = generate_clip(&cfg, 2);
        let b = generate_clip(&cfg, 2);
        assert_eq!(a.video, b.video);
        assert_eq!(a.truth, b.truth);
        // Clip `i` does not depend on how many clips are generated, so a
        // shorter dataset is a prefix of a longer one.
        assert_eq!(generate_dataset(&tiny_cfg(5))[..3], generate_dataset(&tiny_cfg(3)));
    }

    #[test]
    fn different_seeds_give_different_data() {
        let a = generate_dataset(&tiny_cfg(4));
        let b = generate_dataset(&DatasetConfig { base_seed: 999, ..tiny_cfg(4) });
        assert!(a.iter().zip(&b).any(|(x, y)| x.truth != y.truth || x.video != y.video));
    }
}
