//! End-to-end integration: simulator → renderer → dataset → transformer →
//! SDL, across crate boundaries.

use tsdx::core::{evaluate, ModelConfig, ScenarioExtractor, TrainConfig, VideoScenarioTransformer};
use tsdx::data::{generate_dataset, stratified_split, DatasetConfig};
use tsdx::nn::LrSchedule;
use tsdx::render::RenderConfig;

/// Small-but-real configuration used by the integration tests.
fn tiny_model_cfg() -> ModelConfig {
    ModelConfig {
        frames: 4,
        height: 16,
        width: 16,
        tubelet_t: 2,
        patch: 8,
        dim: 32,
        spatial_depth: 1,
        temporal_depth: 1,
        heads: 2,
        mlp_ratio: 2,
        dropout: 0.0,
        ..ModelConfig::default()
    }
}

fn tiny_dataset(n: usize) -> Vec<tsdx::data::Clip> {
    generate_dataset(&DatasetConfig {
        n_clips: n,
        render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
        ..DatasetConfig::default()
    })
}

#[test]
fn training_beats_chance_on_held_out_clips() {
    let clips = tiny_dataset(240);
    let split = stratified_split(&clips, (0.8, 0.0), 3);
    let mut model = VideoScenarioTransformer::new(tiny_model_cfg(), 3);
    let steps = (split.train.len().div_ceil(16) * 50) as u32;
    tsdx::core::train(
        &mut model,
        &clips,
        &split.train,
        &TrainConfig {
            epochs: 50,
            batch_size: 16,
            schedule: LrSchedule::WarmupCosine { base: 1e-3, warmup: 20, total: steps, min: 5e-5 },
            seed: 3,
            ..TrainConfig::default()
        },
    );
    let s = evaluate(&model, &clips, &split.test);
    // Majority-class chance: ego ~30%, road ~30%. Require clear daylight on
    // at least the ego head and above-chance mean.
    assert!(s.ego_acc > 0.40, "ego accuracy too low: {:.3}", s.ego_acc);
    assert!(s.mean_accuracy() > 0.35, "mean accuracy too low: {:.3}", s.mean_accuracy());
}

#[test]
fn extractor_outputs_valid_parseable_sdl() {
    let clips = tiny_dataset(4);
    let extractor = ScenarioExtractor::untrained(tiny_model_cfg(), 5);
    for clip in &clips {
        let scenario =
            extractor.extract_checked(&clip.video).expect("rendered clips are well-formed");
        scenario.validate().expect("extracted SDL must validate");
        let text = scenario.to_string();
        let parsed: tsdx::Scenario = text.parse().expect("extracted SDL must parse");
        assert_eq!(parsed, scenario, "SDL text round-trip");
    }
}

#[test]
fn extraction_is_deterministic() {
    let clips = tiny_dataset(3);
    let a = ScenarioExtractor::untrained(tiny_model_cfg(), 9);
    let b = ScenarioExtractor::untrained(tiny_model_cfg(), 9);
    for clip in &clips {
        assert_eq!(a.extract_checked(&clip.video), b.extract_checked(&clip.video));
    }
}

#[test]
fn batch_extraction_matches_single_extraction() {
    let clips = tiny_dataset(5);
    let extractor = ScenarioExtractor::untrained(tiny_model_cfg(), 11);
    let videos: Vec<_> = clips.iter().map(|c| &c.video).collect();
    let batch = extractor.extract_window_batch(&videos);
    for (clip, from_batch) in clips.iter().zip(&batch) {
        assert_eq!(&extractor.extract_checked(&clip.video), from_batch);
    }
}
