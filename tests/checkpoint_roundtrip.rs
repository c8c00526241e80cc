//! Checkpoint integration: a trained model survives a save/load round trip
//! bit-exactly, across the nn/core crate boundary.

use tsdx::core::{
    ClipModel, ModelConfig, ScenarioExtractor, TrainConfig, VideoScenarioTransformer,
};
use tsdx::data::{generate_dataset, DatasetConfig};
use tsdx::nn::{load_checkpoint, read_checkpoint, save_checkpoint, LrSchedule};
use tsdx::render::RenderConfig;

fn tiny_cfg() -> ModelConfig {
    ModelConfig {
        frames: 4,
        height: 16,
        width: 16,
        tubelet_t: 2,
        patch: 8,
        dim: 16,
        spatial_depth: 1,
        temporal_depth: 1,
        heads: 2,
        dropout: 0.0,
        ..ModelConfig::default()
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tsdx-it-{name}-{}.bin", std::process::id()))
}

#[test]
fn trained_model_roundtrips_through_checkpoint() {
    let clips = generate_dataset(&DatasetConfig {
        n_clips: 24,
        render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
        ..DatasetConfig::default()
    });
    let mut extractor = ScenarioExtractor::untrained(tiny_cfg(), 1);
    extractor.fit(
        &clips,
        &TrainConfig {
            epochs: 3,
            batch_size: 8,
            schedule: LrSchedule::Constant(1e-3),
            ..TrainConfig::default()
        },
    );

    let path = tmp("roundtrip");
    save_checkpoint(extractor.model().params(), &path).unwrap();

    // Different init seed: every weight differs until the checkpoint loads.
    let mut fresh = ScenarioExtractor::untrained(tiny_cfg(), 777);
    let n = load_checkpoint(fresh.model_mut().params_mut(), &path).unwrap();
    assert_eq!(n, extractor.model().params().len(), "all tensors restored");

    for clip in &clips[..6] {
        assert_eq!(extractor.extract_checked(&clip.video), fresh.extract_checked(&clip.video));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_contents_match_parameter_names() {
    let model = VideoScenarioTransformer::new(tiny_cfg(), 2);
    let path = tmp("names");
    save_checkpoint(model.params(), &path).unwrap();
    let entries = read_checkpoint(&path).unwrap();
    assert_eq!(entries.len(), model.params().len());
    for (name, tensor) in &entries {
        let id = model
            .params()
            .ids()
            .find(|&id| model.params().name(id) == name)
            .unwrap_or_else(|| panic!("unknown checkpoint entry {name}"));
        assert_eq!(model.params().value(id), tensor);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mismatched_architecture_checkpoint_restores_partially() {
    let small = VideoScenarioTransformer::new(tiny_cfg(), 3);
    let path = tmp("partial");
    save_checkpoint(small.params(), &path).unwrap();

    // A deeper model shares the embedding/head names but not block 1+.
    let mut deeper =
        VideoScenarioTransformer::new(ModelConfig { spatial_depth: 2, ..tiny_cfg() }, 4);
    let restored = load_checkpoint(deeper.params_mut(), &path).unwrap();
    assert!(restored > 0, "shared tensors should restore");
    assert!(
        restored < deeper.params().len(),
        "extra-block tensors cannot come from the smaller checkpoint"
    );
    std::fs::remove_file(&path).ok();
}
