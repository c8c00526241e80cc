//! Regenerates every table and figure of the evaluation (DESIGN.md §4,
//! EXPERIMENTS.md).
//!
//! ```text
//! cargo run -p tsdx-bench --release --bin reproduce -- [--quick | --resume] [NAME …]
//! ```
//!
//! runs the named experiments (`table1 table2 table3 fig2 fig3 fig4 fig5
//! fig6`), or all of them, in that order. The standard dataset is generated
//! once, as large as the largest experiment needs; clip `i` depends only on
//! the seed and `i`, so every experiment reads a prefix of it. Table 2's
//! video transformer is trained once: table 3 and fig 5 evaluate the same
//! model. A full run writes each experiment's tables to
//! `results/<name>.txt` and its log (split sizes, per-epoch training losses,
//! wall time) to `results/<name>.log`; `--quick` runs a reduced-size variant
//! and only prints. `--resume` checkpoints every training stage of a full
//! run to `results/checkpoints/<experiment>/<stage>.ckpt` (see
//! [`tsdx_bench::fit_model`]); `--quick` with `--resume` exits 2.

use std::cell::OnceCell;
use std::time::Instant;

use tsdx_baselines::{CnnGru, CnnGruConfig, FrameMlp, FrameMlpConfig, HeuristicExtractor};
use tsdx_bench::{
    augmented_train_set, fit_model, fit_transformer, pct, standard_clips, standard_dataset_config,
    standard_split, table, Experiment, STD_SEED,
};
use tsdx_core::{
    clip_macs, evaluate, predict_labels, summarize, AttentionKind, ClipModel, EvalSummary,
    ModelConfig, Readout, ScenarioExtractor, VideoScenarioTransformer,
};
use tsdx_data::{generate_clip, generate_dataset, Clip, ClipLabels, DatasetConfig, DatasetStats};
use tsdx_metrics::{mean_average_precision, mean_precision_at_k, scenario_report, ConfusionMatrix};
use tsdx_render::{RenderConfig, Weather};
use tsdx_sdl::{dot, embed, vocab, EgoManeuver, Scenario};

/// An experiment's body: it reads `clips`, the prefix of the shared
/// standard dataset its entry in [`EXPERIMENTS`] asks for.
type Body = fn(&Ctx, &mut Experiment, &[Clip]);

/// Table 2's dataset size and epochs, `[full, --quick]`; table 3 and fig 5
/// evaluate the transformer trained on them.
const T2_CLIPS: [usize; 2] = [1500, 300];
const T2_EPOCHS: [usize; 2] = [25, 4];

/// Every experiment in run order: its name, the standard clips it reads
/// (`[full, --quick]`) and its body.
const EXPERIMENTS: [(&str, [usize; 2], Body); 8] = [
    ("table1", [3000, 300], table1),
    ("table2", T2_CLIPS, table2),
    ("table3", T2_CLIPS, table3),
    ("fig2", [900, 240], fig2),
    ("fig3", [1600, 400], fig3),
    ("fig4", [1200, 300], fig4),
    ("fig5", T2_CLIPS, fig5),
    ("fig6", [1000, 240], fig6),
];

/// What the experiments of one run share.
struct Ctx {
    quick: bool,
    resume: bool,
    /// The standard dataset, as long as the longest requested prefix.
    clips: Vec<Clip>,
    transformer: OnceCell<VideoScenarioTransformer>,
}

impl Ctx {
    fn pick(&self, full_quick: [usize; 2]) -> usize {
        full_quick[self.quick as usize]
    }

    /// Table 2's video transformer, trained by the first experiment that
    /// asks for it (its losses land in that experiment's log) under the
    /// stage `table2/video-transformer`.
    fn transformer(&self, exp: &mut Experiment) -> &VideoScenarioTransformer {
        if let Some(vt) = self.transformer.get() {
            exp.note("video-transformer: table 2's, trained earlier in this run");
            return vt;
        }
        self.transformer.get_or_init(|| {
            let clips = &self.clips[..self.pick(T2_CLIPS)];
            let train = augmented_train_set(clips, &standard_split(clips).train);
            let mut t2 = Experiment::new("table2", self.resume);
            let cfg = ModelConfig::default();
            let vt =
                fit_transformer(&mut t2, "video-transformer", cfg, &train, self.pick(T2_EPOCHS));
            exp.log.push_str(&t2.log);
            vt
        })
    }
}

/// **Table 1** — dataset statistics: clips per scenario class, label
/// marginals, split sizes.
fn table1(_: &Ctx, exp: &mut Experiment, clips: &[Clip]) {
    let n = clips.len() as f32;
    let split = exp.split(clips);
    exp.line(DatasetStats::compute(clips));
    let rows: Vec<_> = [("train", &split.train), ("val", &split.val), ("test", &split.test)]
        .map(|(part, idx)| row([part.into(), idx.len().to_string()], &[idx.len() as f32 / n]))
        .into();
    exp.line(table("Table 1b: stratified split", &["part", "clips", "%"], &rows));
}

/// A table row: `cells` followed by `fractions` as percentages.
fn row<const N: usize>(cells: [String; N], fractions: &[f32]) -> Vec<String> {
    cells.into_iter().chain(fractions.iter().map(|&x| pct(x))).collect()
}

/// Thousands of parameters, as the tables print them.
fn kparams(n: usize) -> String {
    format!("{:.0}k", n as f32 / 1000.0)
}

fn slot_row(name: &str, params: String, s: &EvalSummary) -> Vec<String> {
    let slots = [s.ego_acc, s.ego_f1, s.road_acc, s.event_acc, s.event_f1, s.position_acc];
    row([name.into(), params], &[&slots[..], &[s.presence_f1, s.mean_accuracy()]].concat())
}

/// **Table 2** — per-slot SDL extraction quality of the heuristic, the
/// frame-MLP, the CNN+GRU and the video transformer on the same split.
fn table2(ctx: &Ctx, exp: &mut Experiment, clips: &[Clip]) {
    let split = exp.split(clips);
    let train = augmented_train_set(clips, &split.train);
    let epochs = ctx.pick(T2_EPOCHS);
    let truths: Vec<ClipLabels> = split.test.iter().map(|&i| clips[i].labels.clone()).collect();
    let preds: Vec<ClipLabels> =
        split.test.iter().map(|&i| HeuristicExtractor.predict(&clips[i].video)).collect();
    let mut rows = vec![slot_row("heuristic", "-".into(), &summarize(&preds, &truths))];

    let mut mlp = FrameMlp::new(FrameMlpConfig::default(), STD_SEED);
    fit_model(exp, "frame-mlp", &mut mlp, &train, epochs);
    let mut gru = CnnGru::new(CnnGruConfig::default(), STD_SEED);
    fit_model(exp, "cnn-gru", &mut gru, &train, epochs);
    let vt = ctx.transformer(exp);
    let models: [(&str, &dyn ClipModel); 3] =
        [("frame-mlp", &mlp), ("cnn-gru", &gru), ("video-transformer", vt)];
    for (name, model) in models {
        let params = kparams(model.params().num_scalars());
        rows.push(slot_row(name, params, &evaluate(model, clips, &split.test)));
    }
    exp.line(table(
        "Table 2: SDL extraction quality (test split, %)",
        &[
            "model", "params", "ego", "ego-F1", "road", "event", "event-F1", "pos", "pres-F1",
            "mean",
        ],
        &rows,
    ));
}

/// Relevance: same ego maneuver, road kind, and primary event class.
fn relevant(a: &Scenario, b: &Scenario) -> bool {
    let ev = |s: &Scenario| s.primary_actor().map(|c| (c.kind, c.action));
    a.ego == b.ego && a.road == b.road && ev(a) == ev(b)
}

/// mAP and P@5 of `queries[i]` against every true description but the
/// `i`-th, scored by `tsdx_sdl::dot` of the embeddings (the bits `/search`
/// ranks by).
fn retrieval(queries: &[Scenario], truths: &[Scenario]) -> (f32, f32) {
    let gallery_emb: Vec<_> = truths.iter().map(embed).collect();
    let mut q = Vec::new();
    for (i, (pred, truth)) in queries.iter().zip(truths).enumerate() {
        let qe = embed(pred);
        let (scores, rel) = gallery_emb
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(j, ge)| (dot(&qe, ge), relevant(truth, &truths[j])))
            .unzip();
        q.push((scores, rel));
    }
    (mean_average_precision(&q), mean_precision_at_k(&q, 5))
}

/// **Table 3** — complete assembled descriptions (exact match, mean
/// similarity) and scenario retrieval: each test clip's *predicted* SDL
/// queries a gallery of the other test clips' true descriptions; a gallery
/// item is relevant when its ego, road and primary event match the query
/// clip's truth. True-SDL queries give the ceiling.
fn table3(ctx: &Ctx, exp: &mut Experiment, clips: &[Clip]) {
    let split = exp.split(clips);
    let extractor = ScenarioExtractor::new(ctx.transformer(exp).clone());
    let truths: Vec<Scenario> = split.test.iter().map(|&i| clips[i].truth.clone()).collect();
    let videos: Vec<_> = split.test.iter().map(|&i| &clips[i].video).collect();
    let predictions: Vec<Scenario> = videos
        .chunks(16)
        .flat_map(|chunk| extractor.extract_window_batch(chunk))
        .map(|p| p.expect("rendered clips are well-formed"))
        .collect();

    let report = scenario_report(&predictions, &truths);
    exp.line(table(
        "Table 3a: scenario-level quality (test split)",
        &["metric", "value (%)"],
        &[
            vec!["exact match".into(), pct(report.exact_match)],
            vec!["mean SDL similarity".into(), pct(report.mean_similarity)],
            vec!["ego slot accuracy".into(), pct(report.ego_accuracy)],
            vec!["road slot accuracy".into(), pct(report.road_accuracy)],
        ],
    ));
    let (map_pred, p5_pred) = retrieval(&predictions, &truths);
    let (map_gt, p5_gt) = retrieval(&truths, &truths);
    exp.line(table(
        "Table 3b: scenario retrieval over the test gallery",
        &["query source", "mAP (%)", "P@5 (%)"],
        &[
            vec!["predicted SDL".into(), pct(map_pred), pct(p5_pred)],
            vec!["ground-truth SDL (ceiling)".into(), pct(map_gt), pct(p5_gt)],
        ],
    ));
    exp.line("\n-- sample extractions --");
    for (p, t) in predictions.iter().zip(&truths).take(5) {
        exp.line(format_args!("truth: {t}\n pred: {p}\n"));
    }
}

/// **Fig. 2** — accuracy vs input frames T ∈ {2, 4, 8, 16}: the same
/// scenarios re-sampled in time (T = 8 is the standard dataset), the
/// transformer trained at the matching configuration.
fn fig2(ctx: &Ctx, exp: &mut Experiment, clips: &[Clip]) {
    let base = standard_dataset_config(clips.len());
    let mut rows = Vec::new();
    for frames in [2usize, 4, 8, 16] {
        let resampled;
        let clips = if frames == base.render.frames {
            clips
        } else {
            exp.note(format_args!("T = {frames}: generating {} clips...", clips.len()));
            let render = RenderConfig { frames, ..base.render };
            resampled = generate_dataset(&DatasetConfig { render, ..base });
            &resampled
        };
        let split = exp.split(clips);
        let cfg = ModelConfig {
            frames,
            tubelet_t: if frames >= 4 { 2 } else { 1 },
            ..ModelConfig::default()
        };
        let train = augmented_train_set(clips, &split.train);
        let model = fit_transformer(exp, &format!("vt-t{frames}"), cfg, &train, ctx.pick([10, 4]));
        let s = evaluate(&model, clips, &split.test);
        let slots = [s.ego_acc, s.event_acc, s.road_acc, s.position_acc, s.mean_accuracy()];
        rows.push(row([frames.to_string()], &slots));
    }
    exp.line(table(
        "Fig 2: accuracy vs input frames (test split, %)",
        &["frames", "ego", "event", "road", "pos", "mean"],
        &rows,
    ));
}

/// **Fig. 3** — accuracy vs training-set size: the transformer and the
/// CNN+GRU on nested prefixes of the training split, one fixed test set.
fn fig3(ctx: &Ctx, exp: &mut Experiment, clips: &[Clip]) {
    let split = exp.split(clips);
    let (sizes, epochs) =
        if ctx.quick { (&[50, 100, 200][..], 4) } else { (&[100, 300, 600, 1100][..], 10) };
    let mut rows = Vec::new();
    for &size in sizes {
        assert!(split.train.len() >= size, "training split too small for size {size}");
        let train = augmented_train_set(clips, &split.train[..size]);
        let vt =
            fit_transformer(exp, &format!("vt-n{size}"), ModelConfig::default(), &train, epochs);
        let s_vt = evaluate(&vt, clips, &split.test);
        let mut gru = CnnGru::new(CnnGruConfig::default(), STD_SEED);
        fit_model(exp, &format!("cnn-gru-n{size}"), &mut gru, &train, epochs);
        let s_gru = evaluate(&gru, clips, &split.test);
        let slots = [s_vt.mean_accuracy(), s_gru.mean_accuracy(), s_vt.ego_acc, s_gru.ego_acc];
        rows.push(row([size.to_string()], &slots));
    }
    exp.line(table(
        "Fig 3: accuracy vs training-set size (test split, %)",
        &["n_train", "vt mean", "gru mean", "vt ego", "gru ego"],
        &rows,
    ));
}

/// **Fig. 4** — factorized vs joint space-time attention × CLS vs
/// mean-pool readout at equal parameter budget: test accuracy, analytic
/// MACs per clip, parameters and measured single-clip latency.
fn fig4(ctx: &Ctx, exp: &mut Experiment, clips: &[Clip]) {
    let split = exp.split(clips);
    let train = augmented_train_set(clips, &split.train);
    let variants = [
        ("factorized + cls", AttentionKind::Factorized, Readout::Cls),
        ("factorized + meanpool", AttentionKind::Factorized, Readout::MeanPool),
        ("joint + cls", AttentionKind::Joint, Readout::Cls),
        ("joint + meanpool", AttentionKind::Joint, Readout::MeanPool),
    ];
    let mut rows = Vec::new();
    for (name, attention, readout) in variants {
        let cfg = ModelConfig { attention, readout, ..ModelConfig::default() };
        let stage = name.replace(" + ", "-");
        let model = fit_transformer(exp, &stage, cfg, &train, ctx.pick([10, 4]));
        let s = evaluate(&model, clips, &split.test);

        // Measured single-clip inference latency in µs (median of 20).
        let video = clips[split.test[0]].video.reshape(&[1, cfg.frames, cfg.height, cfg.width]);
        let mut times: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                let _ = model.predict(&video);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let macs = format!("{:.1}M", clip_macs(&cfg) as f64 / 1e6);
        let latency = format!("{:.0}", times[times.len() / 2]);
        let cells = [name.into(), kparams(model.num_params()), macs, latency];
        rows.push(row(cells, &[s.mean_accuracy(), s.ego_acc, s.event_acc]));
    }
    exp.line(table(
        "Fig 4: attention/readout ablation (test split)",
        &["variant", "params", "MACs/clip", "latency µs", "mean %", "ego %", "event %"],
        &rows,
    ));
}

/// **Fig. 5** — ego-maneuver and primary-event confusion matrices of
/// table 2's transformer.
fn fig5(ctx: &Ctx, exp: &mut Experiment, clips: &[Clip]) {
    let split = exp.split(clips);
    let predictions = predict_labels(ctx.transformer(exp), clips, &split.test);
    type Slot = fn(&ClipLabels) -> usize;
    let panels: [(&str, &str, Vec<String>, Slot); 2] = [
        (
            "Fig 5a: ego-maneuver",
            "ego",
            EgoManeuver::ALL.iter().map(|m| m.as_str().into()).collect(),
            |l| l.ego,
        ),
        (
            "Fig 5b: primary-event",
            "event",
            (0..vocab::EVENT_COUNT).map(vocab::event_name).collect(),
            |l| l.event,
        ),
    ];
    for (title, slot, names, of) in panels {
        let truths: Vec<usize> = split.test.iter().map(|&i| of(&clips[i].labels)).collect();
        let preds: Vec<usize> = predictions.iter().map(of).collect();
        let mut cm = ConfusionMatrix::with_names(names);
        cm.record_all(&truths, &preds);
        exp.line(format_args!("\n== {title} confusion (rows = truth) ==\n{cm}"));
        exp.line(format_args!("overall {slot} accuracy: {:.1}%", cm.accuracy() * 100.0));
    }
}

/// **Fig. 6** (extension) — the transformer trained on clear daylight and
/// one trained with weather augmentation (clear + fog + night variants of
/// every training scenario), evaluated on the same held-out scenarios
/// re-rendered under fog and night.
fn fig6(ctx: &Ctx, exp: &mut Experiment, clips: &[Clip]) {
    let base = standard_dataset_config(clips.len());
    // Scenario sampling is deterministic per index, so only pixels change.
    let rerender = |idx: &[usize], weather| -> Vec<Clip> {
        let cfg = DatasetConfig { render: RenderConfig { weather, ..base.render }, ..base };
        idx.iter().map(|&i| generate_clip(&cfg, i)).collect()
    };
    let split = exp.split(clips);
    let clear_train: Vec<Clip> = split.train.iter().map(|&i| clips[i].clone()).collect();
    let mut aug_train = clear_train.clone();
    aug_train.extend(rerender(&split.train, Weather::Fog(0.06)));
    aug_train.extend(rerender(&split.train, Weather::Night));

    let epochs = ctx.pick([8, 3]);
    let cfg = ModelConfig::default();
    let clear_model = fit_transformer(exp, "clear-trained", cfg, &clear_train, epochs);
    let aug_model = fit_transformer(exp, "weather-augmented", cfg, &aug_train, epochs);

    let conditions = [
        Weather::Clear,
        Weather::Fog(0.03),
        Weather::Fog(0.07),
        Weather::Fog(0.12),
        Weather::Night,
    ];
    let mut rows = Vec::new();
    for weather in conditions {
        let test = rerender(&split.test, weather);
        let idx: Vec<usize> = (0..test.len()).collect();
        let s_clear = evaluate(&clear_model, &test, &idx);
        let s_aug = evaluate(&aug_model, &test, &idx);
        let slots =
            [s_clear.mean_accuracy(), s_clear.ego_acc, s_aug.mean_accuracy(), s_aug.ego_acc];
        rows.push(row([weather.name()], &slots));
    }
    exp.line(table(
        "Fig 6: robustness to weather shift (test split, %)",
        &["condition", "clear-trained mean", "clear ego", "aug-trained mean", "aug ego"],
        &rows,
    ));
}

/// Prints `error` and the usage line to stderr and exits 2.
fn usage_error(error: &str) -> ! {
    eprintln!("reproduce: {error}");
    eprintln!("usage: reproduce [--quick | --resume] [NAME ...]");
    std::process::exit(2);
}

fn main() {
    let (mut quick, mut resume, mut names) = (false, false, Vec::new());
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--resume" => resume = true,
            name if EXPERIMENTS.iter().any(|e| e.0 == name) => names.push(arg),
            other => {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
                usage_error(&format!(
                    "unknown argument `{other}`; the experiments are: {}",
                    valid.join(" ")
                ));
            }
        }
    }
    if quick && resume {
        // Both would write results/checkpoints/<experiment>/<stage>.ckpt, and
        // a later full `--resume` run would continue from the quick epochs.
        usage_error("`--quick` and `--resume` exclude each other");
    }
    let todo: Vec<_> =
        EXPERIMENTS.iter().filter(|e| names.is_empty() || names.iter().any(|n| n == e.0)).collect();
    let start = Instant::now();
    let n = todo.iter().map(|e| e.1[quick as usize]).max().expect("at least one experiment");
    eprintln!("generating {n} clips (seed {STD_SEED})...");
    let ctx = Ctx { quick, resume, clips: standard_clips(n), transformer: OnceCell::new() };
    eprintln!("generated in {:.1} s", start.elapsed().as_secs_f64());

    for &(name, sizes, body) in todo {
        let t = Instant::now();
        let mut exp = Experiment::new(name, resume);
        let n = sizes[quick as usize];
        exp.note(format_args!("{name}: the first {n} standard clips (seed {STD_SEED})"));
        body(&ctx, &mut exp, &ctx.clips[..n]);
        exp.note(format_args!("{name}: wall time {:.1} s", t.elapsed().as_secs_f64()));
        if !quick {
            for (ext, text) in [("txt", &exp.out), ("log", &exp.log)] {
                let path = format!("results/{name}.{ext}");
                std::fs::create_dir_all("results")
                    .and_then(|()| std::fs::write(&path, text))
                    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            }
        }
    }
    eprintln!("reproduce: total wall time {:.1} s", start.elapsed().as_secs_f64());
}
