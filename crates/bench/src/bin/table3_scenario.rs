//! **Table 3** — scenario-level quality and retrieval.
//!
//! Evaluates complete assembled SDL descriptions (exact match, mean
//! similarity) and scenario retrieval: each test clip's *predicted* SDL
//! queries a gallery of ground-truth descriptions; a gallery item is
//! relevant when its ego, road, and primary event all match the query
//! clip's truth. Ground-truth queries give the retrieval ceiling. Scores
//! are `tsdx_sdl::dot` of the embeddings, the bits `/search` ranks by.
//!
//! Run with `cargo run -p tsdx-bench --release --bin table3_scenario`.

use tsdx_bench::{fit_transformer, is_quick, pct, print_table, standard_clips, standard_split};
use tsdx_core::{ModelConfig, ScenarioExtractor};
use tsdx_data::Clip;
use tsdx_metrics::{mean_average_precision, mean_precision_at_k, scenario_report};
use tsdx_sdl::{dot, embed, Scenario};

/// Relevance: same ego maneuver, road kind, and primary event class.
fn relevant(a: &Scenario, b: &Scenario) -> bool {
    let ev = |s: &Scenario| s.primary_actor().map(|c| (c.kind, c.action));
    a.ego == b.ego && a.road == b.road && ev(a) == ev(b)
}

fn retrieval_rows(
    queries: &[Scenario],
    query_truths: &[Scenario],
    gallery: &[Scenario],
    skip_self: bool,
) -> (f32, f32) {
    let gallery_emb: Vec<_> = gallery.iter().map(embed).collect();
    let mut q = Vec::new();
    for (i, (pred, truth)) in queries.iter().zip(query_truths).enumerate() {
        let qe = embed(pred);
        let mut scores = Vec::with_capacity(gallery.len());
        let mut rel = Vec::with_capacity(gallery.len());
        for (j, ge) in gallery_emb.iter().enumerate() {
            if skip_self && i == j {
                continue;
            }
            scores.push(dot(&qe, ge));
            rel.push(relevant(truth, &gallery[j]));
        }
        q.push((scores, rel));
    }
    (mean_average_precision(&q), mean_precision_at_k(&q, 5))
}

fn main() {
    let (n, epochs) = if is_quick() { (300, 4) } else { (1500, 25) };
    eprintln!("generating {n} clips...");
    let clips = standard_clips(n);
    let split = standard_split(&clips);

    eprintln!("training video-transformer...");
    let model = fit_transformer(
        "table3-video-transformer",
        ModelConfig::default(),
        &clips,
        &split.train,
        epochs,
    );
    let extractor = ScenarioExtractor::new(model);

    let test_clips: Vec<Clip> = split.test.iter().map(|&i| clips[i].clone()).collect();
    let truths: Vec<Scenario> = test_clips.iter().map(|c| c.truth.clone()).collect();
    eprintln!("extracting {} descriptions...", test_clips.len());
    let videos: Vec<_> = test_clips.iter().map(|c| &c.video).collect();
    let predictions: Vec<Scenario> = videos
        .chunks(16)
        .flat_map(|chunk| extractor.extract_window_batch(chunk))
        .map(|p| p.expect("rendered clips are well-formed"))
        .collect();

    // Scenario-level report.
    let report = scenario_report(&predictions, &truths);
    print_table(
        "Table 3a: scenario-level quality (test split)",
        &["metric", "value (%)"],
        &[
            vec!["exact match".into(), pct(report.exact_match)],
            vec!["mean SDL similarity".into(), pct(report.mean_similarity)],
            vec!["ego slot accuracy".into(), pct(report.ego_accuracy)],
            vec!["road slot accuracy".into(), pct(report.road_accuracy)],
        ],
    );

    // Retrieval: predicted queries vs ground-truth ceiling.
    let (map_pred, p5_pred) = retrieval_rows(&predictions, &truths, &truths, true);
    let (map_gt, p5_gt) = retrieval_rows(&truths, &truths, &truths, true);
    print_table(
        "Table 3b: scenario retrieval over the test gallery",
        &["query source", "mAP (%)", "P@5 (%)"],
        &[
            vec!["predicted SDL".into(), pct(map_pred), pct(p5_pred)],
            vec!["ground-truth SDL (ceiling)".into(), pct(map_gt), pct(p5_gt)],
        ],
    );

    // A few qualitative extractions.
    println!("\n-- sample extractions --");
    for (p, t) in predictions.iter().zip(&truths).take(5) {
        println!("truth: {t}");
        println!(" pred: {p}\n");
    }
}
