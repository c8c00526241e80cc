//! **Table 2** — per-slot SDL extraction quality of every model.
//!
//! Trains the frame-MLP, CNN+GRU, and video-transformer models on the same
//! stratified split, evaluates all of them (plus the non-learned heuristic)
//! on the held-out test set, and prints one row per model.
//!
//! Run with `cargo run -p tsdx-bench --release --bin table2_extraction`
//! (`--quick` shrinks the dataset and epochs by ~5×). Add `--resume` to
//! checkpoint each training stage to `results/checkpoints/` after every
//! epoch and continue from there if the run is killed and restarted.

use tsdx_baselines::{CnnGru, CnnGruConfig, FrameMlp, FrameMlpConfig, HeuristicExtractor};
use tsdx_bench::{
    fit_model, fit_transformer, is_quick, pct, print_table, standard_clips, standard_split,
};
use tsdx_core::{evaluate, summarize, EvalSummary, ModelConfig};
use tsdx_data::ClipLabels;

fn row(name: &str, params: Option<usize>, s: &EvalSummary) -> Vec<String> {
    vec![
        name.to_string(),
        params.map_or("-".into(), |p| format!("{:.0}k", p as f32 / 1000.0)),
        pct(s.ego_acc),
        pct(s.ego_f1),
        pct(s.road_acc),
        pct(s.event_acc),
        pct(s.event_f1),
        pct(s.position_acc),
        pct(s.presence_f1),
        pct(s.mean_accuracy()),
    ]
}

fn main() {
    let (n, epochs) = if is_quick() { (300, 4) } else { (1500, 25) };
    eprintln!("generating {n} clips...");
    let clips = standard_clips(n);
    let split = standard_split(&clips);
    eprintln!("train {} / val {} / test {}", split.train.len(), split.val.len(), split.test.len());

    let truths: Vec<ClipLabels> = split.test.iter().map(|&i| clips[i].labels.clone()).collect();
    let mut rows = Vec::new();

    // Heuristic (no training).
    let heuristic = HeuristicExtractor;
    let preds: Vec<ClipLabels> =
        split.test.iter().map(|&i| heuristic.predict(&clips[i].video)).collect();
    rows.push(row("heuristic", None, &summarize(&preds, &truths)));

    // Frame-MLP.
    eprintln!("training frame-mlp...");
    let mut mlp = FrameMlp::new(FrameMlpConfig::default(), tsdx_bench::STD_SEED);
    fit_model("table2-frame-mlp", &mut mlp, &clips, &split.train, epochs);
    rows.push(row("frame-mlp", Some(mlp.num_params()), &evaluate(&mlp, &clips, &split.test)));

    // CNN+GRU.
    eprintln!("training cnn-gru...");
    let mut gru = CnnGru::new(CnnGruConfig::default(), tsdx_bench::STD_SEED);
    fit_model("table2-cnn-gru", &mut gru, &clips, &split.train, epochs);
    rows.push(row("cnn-gru", Some(gru.num_params()), &evaluate(&gru, &clips, &split.test)));

    // Video transformer (the paper's model).
    eprintln!("training video-transformer...");
    let vt = fit_transformer(
        "table2-video-transformer",
        ModelConfig::default(),
        &clips,
        &split.train,
        epochs,
    );
    rows.push(row("video-transformer", Some(vt.num_params()), &evaluate(&vt, &clips, &split.test)));

    print_table(
        "Table 2: SDL extraction quality (test split, %)",
        &[
            "model", "params", "ego", "ego-F1", "road", "event", "event-F1", "pos", "pres-F1",
            "mean",
        ],
        &rows,
    );
}
