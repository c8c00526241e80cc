//! Train, checkpoint, reload: demonstrates the binary checkpoint format
//! and that a reloaded model reproduces its predictions exactly.
//!
//! Run with `cargo run --release --example train_and_checkpoint`.

use tsdx::core::{ClipModel, ModelConfig, ScenarioExtractor, TrainConfig};
use tsdx::data::{generate_dataset, DatasetConfig};
use tsdx::nn::{load_checkpoint, save_checkpoint, LrSchedule};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("generating 160 clips...");
    let clips = generate_dataset(&DatasetConfig { n_clips: 160, ..DatasetConfig::default() });

    let mut extractor = ScenarioExtractor::untrained(ModelConfig::default(), 3);
    println!("training briefly ({} params)...", extractor.model().num_params());
    extractor.fit(
        &clips,
        &TrainConfig {
            epochs: 6,
            batch_size: 16,
            schedule: LrSchedule::Constant(1e-3),
            verbose: true,
            ..TrainConfig::default()
        },
    );

    // Save.
    let path = std::env::temp_dir().join("tsdx-demo-checkpoint.bin");
    save_checkpoint(extractor.model().params(), &path)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!("checkpoint written: {} ({bytes} bytes)", path.display());

    // Reload into a fresh model and compare predictions.
    let mut fresh = ScenarioExtractor::untrained(ModelConfig::default(), 999);
    let restored = load_checkpoint(fresh.model_mut().params_mut(), &path)?;
    println!("restored {restored} parameter tensors");

    // Reloaded predictions must match (`extract_checked` reports malformed
    // input as a typed `ExtractError`; `?` surfaces it).
    println!("comparing predictions ({})...", tsdx::core::run_time_switches());
    let video = &clips[0].video;
    let a = extractor.extract_checked(video)?;
    let b = fresh.extract_checked(video)?;
    println!("original:  {a}");
    println!("restored:  {b}");
    assert_eq!(a, b, "restored model must reproduce predictions exactly");
    println!("predictions match.");

    std::fs::remove_file(&path).ok();
    Ok(())
}
