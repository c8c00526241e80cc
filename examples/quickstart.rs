//! Quickstart: generate a synthetic driving dataset, train the video
//! scenario transformer, and extract SDL descriptions from held-out clips.
//!
//! Run with `cargo run --release --example quickstart`.

use tsdx::core::{evaluate, ModelConfig, ScenarioExtractor, TrainConfig};
use tsdx::data::{generate_dataset, select, stratified_split, DatasetConfig};
use tsdx::nn::LrSchedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data: 400 labeled clips from the traffic simulator + renderer.
    println!("generating 400 synthetic driving clips...");
    let clips = generate_dataset(&DatasetConfig { n_clips: 400, ..DatasetConfig::default() });
    let split = stratified_split(&clips, (0.8, 0.0), 7);
    println!("train: {} clips, test: {} clips", split.train.len(), split.test.len());

    // 2. Model: the paper's factorized space-time video transformer.
    let mut extractor = ScenarioExtractor::untrained(ModelConfig::default(), 7);
    println!("video scenario transformer: {} parameters", extractor.model().num_params());

    // 3. Train.
    println!("training (this takes a couple of minutes on one core)...");
    let train_clips: Vec<tsdx::data::Clip> =
        select(&clips, &split.train).into_iter().cloned().collect();
    let steps = (train_clips.len().div_ceil(16) * 25) as u32;
    let final_loss = extractor.fit(
        &train_clips,
        &TrainConfig {
            epochs: 25,
            batch_size: 16,
            schedule: LrSchedule::WarmupCosine { base: 3e-3, warmup: 20, total: steps, min: 1e-4 },
            verbose: true,
            ..TrainConfig::default()
        },
    );
    println!("final training loss: {final_loss:.3}");

    // 4. Evaluate on held-out clips.
    let summary = evaluate(extractor.model(), &clips, &split.test);
    println!(
        "test: ego {:.1}% | road {:.1}% | event {:.1}% | position {:.1}% | presence-F1 {:.1}%",
        summary.ego_acc * 100.0,
        summary.road_acc * 100.0,
        summary.event_acc * 100.0,
        summary.position_acc * 100.0,
        summary.presence_f1 * 100.0
    );

    // 5. Extract descriptions for a few test clips.
    println!("\nsample extractions, truth vs predicted ({}):", tsdx::core::run_time_switches());
    for &i in split.test.iter().take(6) {
        // `extract_checked` reports malformed clips as a typed
        // `ExtractError`; `?` surfaces it in the exit message.
        let predicted = extractor.extract_checked(&clips[i].video)?;
        println!("  truth: {}", clips[i].truth);
        println!("   pred: {predicted}\n");
    }
    Ok(())
}
