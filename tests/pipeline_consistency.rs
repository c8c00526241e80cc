//! Cross-crate consistency: the generator, simulator, kinematic labeler,
//! dataset labels, SDL embeddings, and baselines all agree with each other.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx::baselines::HeuristicExtractor;
use tsdx::data::{generate_dataset, ClipLabels, DatasetConfig};
use tsdx::metrics::{accuracy, scenario_report};
use tsdx::sdl::{embed, EMBED_DIM};
use tsdx::sim::{infer_ego_maneuver, SamplerConfig, ScenarioSampler};

#[test]
fn dataset_labels_always_derive_from_truth() {
    let clips = generate_dataset(&DatasetConfig { n_clips: 30, ..DatasetConfig::default() });
    for clip in &clips {
        clip.truth.validate().unwrap();
        assert_eq!(clip.labels, ClipLabels::from_scenario(&clip.truth));
        // The label decoding covers at least the primary actor.
        let decoded = clip.labels.to_scenario();
        assert_eq!(decoded.ego, clip.truth.ego);
        assert_eq!(decoded.road, clip.truth.road);
        assert_eq!(decoded.actors.len().min(1), clip.truth.actors.len().min(1));
    }
}

#[test]
fn kinematic_labeler_agrees_with_generator_at_scale() {
    let sampler = ScenarioSampler::new(SamplerConfig::default());
    let mut rng = StdRng::seed_from_u64(400);
    let mut ok = 0;
    let total = 40;
    for _ in 0..total {
        let g = sampler.sample(&mut rng);
        let traj = g.world.simulate(0.05);
        if infer_ego_maneuver(&traj, g.truth.road) == g.truth.ego {
            ok += 1;
        }
    }
    assert!(ok >= total - 2, "labeler/generator disagreement: {ok}/{total}");
}

#[test]
fn truth_embeddings_identify_their_own_scenario() {
    // Self-retrieval: each clip's truth embedding is most similar to itself
    // (cosine 1) and the report machinery sees perfect predictions.
    let clips = generate_dataset(&DatasetConfig { n_clips: 20, ..DatasetConfig::default() });
    let truths: Vec<_> = clips.iter().map(|c| c.truth.clone()).collect();
    let report = scenario_report(&truths, &truths);
    assert_eq!(report.exact_match, 1.0);
    for t in &truths {
        assert_eq!(embed(t).len(), EMBED_DIM);
        assert!((tsdx::sdl::dot(&embed(t), &embed(t)) - 1.0).abs() < 1e-5);
    }
}

#[test]
fn heuristic_beats_a_constant_majority_guess_on_ego() {
    let clips = generate_dataset(&DatasetConfig { n_clips: 80, ..DatasetConfig::default() });
    let h = HeuristicExtractor;
    let predictions: Vec<usize> = clips.iter().map(|c| h.predict(&c.video).ego).collect();
    let truths: Vec<usize> = clips.iter().map(|c| c.labels.ego).collect();
    let heuristic_acc = accuracy(&predictions, &truths);

    // Best constant guess.
    let mut counts = std::collections::HashMap::new();
    for &t in &truths {
        *counts.entry(t).or_insert(0usize) += 1;
    }
    let majority = *counts.values().max().unwrap() as f32 / truths.len() as f32;
    assert!(
        heuristic_acc > majority,
        "heuristic ({heuristic_acc:.3}) must beat the majority guess ({majority:.3})"
    );
}

#[test]
fn flip_augmentation_is_label_consistent_end_to_end() {
    let clips = generate_dataset(&DatasetConfig { n_clips: 12, ..DatasetConfig::default() });
    for clip in &clips {
        let flipped = tsdx::data::flip_clip(clip);
        flipped.truth.validate().unwrap();
        // Double flip restores everything.
        let twice = tsdx::data::flip_clip(&flipped);
        assert_eq!(twice.truth, clip.truth);
        assert_eq!(twice.video, clip.video);
        assert_eq!(twice.labels, clip.labels);
    }
}
