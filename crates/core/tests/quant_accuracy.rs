//! The int8 inference plane's accuracy gate.
//!
//! Two contracts:
//!
//! 1. **f32 is untouched**: under the f32 dial, extraction is bit-identical
//!    whether or not the model carries prepacked int8 weights — quantizing
//!    must never perturb the full-precision plane (the streaming-parity
//!    suite runs every path on both planes and relies on this test to pin
//!    the default).
//! 2. **int8 tracks f32**: on a trained model at the table-2 evaluation
//!    scale (the default `ModelConfig`), int8 extraction metrics stay
//!    within a declared epsilon of the f32 metrics, and the two planes
//!    agree on the large majority of individual head predictions.

use tsdx_core::{
    evaluate, predict_labels, ClipModel, ModelConfig, ScenarioExtractor, TrainConfig,
    VideoScenarioTransformer,
};
use tsdx_data::{generate_dataset, DatasetConfig};
use tsdx_tensor::dial::{Precision, PLANE};

/// Declared accuracy budget for the int8 plane at the table-2 scale:
/// per-head accuracy/F1 may move by at most this much.
const EPSILON: f32 = 0.03;
/// Minimum fraction of individual head predictions the two planes must
/// agree on.
const MIN_AGREEMENT: f32 = 0.9;

fn window_bits(ex: &ScenarioExtractor, video: &tsdx_tensor::Tensor) -> Vec<u32> {
    let mut s = ex.open_stream();
    s.push_frames(video).expect("well-formed video");
    let l = s.logits().expect("full window");
    [&l.ego, &l.road, &l.event, &l.position, &l.presence]
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn f32_plane_is_bit_identical_with_and_without_packed_weights() {
    let video = tsdx_tensor::Tensor::from_fn(&[8, 32, 32], |i| ((i as f32) * 0.0041).sin() * 0.5);
    let ex = ScenarioExtractor::untrained(ModelConfig::default(), 11);
    PLANE.with(Precision::F32, || {
        let before = window_bits(&ex, &video);
        // Prepacking the int8 plane must not perturb a single f32 bit.
        let report = ex.quantize();
        assert!(report.matrices > 0 && report.packed_bytes > 0, "nothing quantized: {report}");
        let after = window_bits(&ex, &video);
        assert_eq!(before, after, "quantize() changed f32 extraction bits");

        // And a twin model that never quantized agrees too.
        let twin = ScenarioExtractor::untrained(ModelConfig::default(), 11);
        assert_eq!(before, window_bits(&twin, &video), "f32 plane depends on quantization state");
    });
}

#[test]
fn quantize_is_idempotent_and_invalidated_by_mutation() {
    let mut ex = ScenarioExtractor::untrained(ModelConfig::default(), 3);
    let a = ex.quantize();
    let b = ex.quantize();
    assert_eq!(a, b, "repeated quantize() must report the same plane");
    // Mutating the parameters drops the packed plane; re-quantizing
    // rebuilds it at the same size.
    let _ = ex.model_mut().params_mut();
    let c = ex.quantize();
    assert_eq!(a, c, "rebuilt plane should cover the same matrices");
}

#[test]
fn int8_metrics_within_epsilon_of_f32_at_table2_scale() {
    // A short fit at the default (table-2) model scale: enough training
    // for confident logits with real margins — the quantization deltas are
    // then measured against a meaningful decision boundary rather than
    // argmax ties of a random model.
    let clips = generate_dataset(&DatasetConfig { n_clips: 48, ..DatasetConfig::default() });
    let mut ex = ScenarioExtractor::untrained(ModelConfig::default(), 0);
    ex.fit(
        &clips,
        &TrainConfig { epochs: 4, batch_size: 16, verbose: false, ..TrainConfig::default() },
    );
    ex.quantize();
    let model: &VideoScenarioTransformer = ex.model();
    let idx: Vec<usize> = (0..clips.len()).collect();

    let f32_eval = PLANE.with(Precision::F32, || evaluate(model, &clips, &idx));
    let i8_eval = PLANE.with(Precision::Int8, || evaluate(model, &clips, &idx));

    let pairs = [
        ("ego", f32_eval.ego_acc, i8_eval.ego_acc),
        ("road", f32_eval.road_acc, i8_eval.road_acc),
        ("event", f32_eval.event_acc, i8_eval.event_acc),
        ("position", f32_eval.position_acc, i8_eval.position_acc),
        ("presence-F1", f32_eval.presence_f1, i8_eval.presence_f1),
        ("mean", f32_eval.mean_accuracy(), i8_eval.mean_accuracy()),
    ];
    for (name, f, q) in pairs {
        eprintln!("{name}: f32 {f:.4} int8 {q:.4}");
        assert!(
            (f - q).abs() <= EPSILON,
            "{name} moved {:.4} under int8 (budget {EPSILON}): f32 {f:.4} vs int8 {q:.4}",
            (f - q).abs()
        );
    }

    // Per-prediction agreement between the planes, across every head.
    let f32_labels = PLANE.with(Precision::F32, || predict_labels(model, &clips, &idx));
    let i8_labels = PLANE.with(Precision::Int8, || predict_labels(model, &clips, &idx));
    let mut agree = 0usize;
    let mut total = 0usize;
    for (a, b) in f32_labels.iter().zip(&i8_labels) {
        for (x, y) in
            [(a.ego, b.ego), (a.road, b.road), (a.event, b.event), (a.position, b.position)]
        {
            agree += usize::from(x == y);
            total += 1;
        }
        for (x, y) in a.presence.iter().zip(&b.presence) {
            agree += usize::from(x == y);
            total += 1;
        }
    }
    let rate = agree as f32 / total as f32;
    eprintln!("plane agreement: {agree}/{total} = {rate:.4}");
    assert!(rate >= MIN_AGREEMENT, "planes agree on only {rate:.3} of predictions");
}
