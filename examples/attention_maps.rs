//! Attention introspection: train a small extractor, then print where the
//! spatial attention looks for a few clips — per time group, as an ASCII
//! heat grid over the tubelet lattice.
//!
//! Run with `cargo run --release --example attention_maps`.

use tsdx::core::{ModelConfig, ScenarioExtractor, TrainConfig};
use tsdx::data::{generate_dataset, DatasetConfig};
use tsdx::nn::LrSchedule;

fn heat(v: f32, max: f32) -> char {
    const RAMP: &[u8] = b" .:-=+*#%@";
    if max <= 0.0 {
        return ' ';
    }
    let i = ((v / max) * (RAMP.len() - 1) as f32).round() as usize;
    RAMP[i.min(RAMP.len() - 1)] as char
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("generating 240 clips and training briefly...");
    let clips = generate_dataset(&DatasetConfig { n_clips: 240, ..DatasetConfig::default() });
    let mut extractor = ScenarioExtractor::untrained(ModelConfig::default(), 5);
    let steps = (clips.len().div_ceil(16) * 15) as u32;
    extractor.fit(
        &clips,
        &TrainConfig {
            epochs: 15,
            batch_size: 16,
            schedule: LrSchedule::WarmupCosine { base: 1e-3, warmup: 20, total: steps, min: 5e-5 },
            verbose: true,
            ..TrainConfig::default()
        },
    );

    println!("extracting ({})", tsdx::core::run_time_switches());
    let cfg = *extractor.model().config();
    let grid_w = cfg.width / cfg.patch;
    let grid_h = cfg.height / cfg.patch;

    for clip in clips.iter().take(3) {
        let video = clip.video.reshape(&[1, cfg.frames, cfg.height, cfg.width]);
        let map = extractor.model().attention_map(&video); // [1, nt, ns]
        let pred = extractor.extract_checked(&clip.video)?;
        println!("\ntruth: {}", clip.truth);
        println!(" pred: {pred}");
        println!("CLS spatial attention per time group ({grid_h}x{grid_w} tubelets):");
        let max = map.max();
        for t in 0..cfg.n_time() {
            println!("  t{t}  (frames {}..{})", t * cfg.tubelet_t, (t + 1) * cfg.tubelet_t - 1);
            for r in 0..grid_h {
                let row: String = (0..grid_w)
                    .map(|c| {
                        let v = map.at(&[0, t, r * grid_w + c]);
                        let ch = heat(v, max);
                        format!("{ch}{ch}")
                    })
                    .collect();
                println!("    {row}");
            }
        }
    }
    Ok(())
}
