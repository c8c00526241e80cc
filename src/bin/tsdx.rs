//! `tsdx` — command-line interface to the scenario-extraction stack.
//!
//! ```text
//! tsdx generate --clips 500 --out clips.bin [--seed 17]
//! tsdx stats    --data clips.bin
//! tsdx train    --data clips.bin --out model.ckpt [--epochs 20]
//! tsdx eval     --model model.ckpt --data clips.bin
//! tsdx extract  --model model.ckpt --data clips.bin [--limit 5]
//! tsdx search   --data clips.bin --filter "road=intersection" [--like "<sdl>"] [--top 5]
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use tsdx::core::{evaluate, ClipModel, ModelConfig, ScenarioExtractor, TrainConfig};
use tsdx::data::{generate_dataset, load_clips, save_clips, Clip, DatasetConfig, DatasetStats};
use tsdx::index::VectorIndex;
use tsdx::nn::{load_checkpoint, save_checkpoint, LrSchedule};
use tsdx::sdl::ScenarioFilter;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match COMMANDS.iter().find(|(name, ..)| name == command) {
        Some((_, flags, run)) => {
            parse_opts(rest, flags).map_err(|e| format!("{e}\n\n{USAGE}")).and_then(|o| run(&o))
        }
        None => Err(format!("unknown command `{command}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
tsdx — automated traffic scenario description extraction

USAGE:
  tsdx generate --clips N --out FILE [--seed S] [--frames T] [--size PX]
  tsdx stats    --data FILE
  tsdx train    --data FILE --out CKPT [--epochs E] [--seed S]
  tsdx eval     --model CKPT --data FILE
  tsdx extract  --model CKPT --data FILE [--limit N]
  tsdx search   --data FILE [--filter \"key=value ...\"] [--like \"SDL text\"] [--top K]

Filter keys: ego, road, actor, action, position (see SDL vocabulary).";

type Opts = HashMap<String, String>;

/// Each subcommand, the flags it takes, and what runs it.
type Subcommand = (&'static str, &'static [&'static str], fn(&Opts) -> Result<(), String>);

const COMMANDS: &[Subcommand] = &[
    ("generate", &["clips", "out", "seed", "frames", "size"], cmd_generate),
    ("stats", &["data"], cmd_stats),
    ("train", &["data", "out", "epochs", "seed"], cmd_train),
    ("eval", &["model", "data"], cmd_eval),
    ("extract", &["model", "data", "limit"], cmd_extract),
    ("search", &["data", "filter", "like", "top"], cmd_search),
];

/// `--name value` pairs, each name one of `flags` and given at most once.
fn parse_opts(args: &[String], flags: &[&str]) -> Result<Opts, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --option, got `{key}`"));
        };
        if !flags.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = it.next().ok_or_else(|| format!("missing value for --{name}"))?;
        if opts.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("--{name} given more than once"));
        }
    }
    Ok(opts)
}

fn require<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(String::as_str).ok_or_else(|| format!("missing required --{key}"))
}

fn numeric<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        Some(v) => v.parse().map_err(|_| format!("invalid --{key} value `{v}`")),
        None => Ok(default),
    }
}

fn load(opts: &Opts) -> Result<Vec<Clip>, String> {
    let path = require(opts, "data")?;
    load_clips(path).map_err(|e| e.to_string())
}

fn model_config_for(clips: &[Clip]) -> Result<ModelConfig, String> {
    let cfg = ModelConfig::default();
    let shape = clips.first().ok_or("dataset is empty")?.video.shape();
    if shape != [cfg.frames, cfg.height, cfg.width] {
        return Err(format!(
            "dataset clips are {shape:?} but the CLI model expects {:?}; regenerate with \
             --frames {} --size {}",
            [cfg.frames, cfg.height, cfg.width],
            cfg.frames,
            cfg.height
        ));
    }
    Ok(cfg)
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let n = numeric(opts, "clips", 500usize)?;
    let out = require(opts, "out")?;
    let seed = numeric(opts, "seed", 17u64)?;
    let frames = numeric(opts, "frames", 8usize)?;
    let size = numeric(opts, "size", 32usize)?;
    eprintln!("generating {n} clips ({frames}x{size}x{size}, seed {seed})...");
    let cfg = DatasetConfig {
        n_clips: n,
        base_seed: seed,
        render: tsdx::render::RenderConfig {
            frames,
            width: size,
            height: size,
            ..tsdx::render::RenderConfig::default()
        },
        ..DatasetConfig::default()
    };
    let clips = generate_dataset(&cfg);
    save_clips(&clips, out).map_err(|e| e.to_string())?;
    eprintln!("wrote {} clips to {out}", clips.len());
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let clips = load(opts)?;
    println!("{}", DatasetStats::compute(&clips));
    Ok(())
}

fn cmd_train(opts: &Opts) -> Result<(), String> {
    let clips = load(opts)?;
    let out = require(opts, "out")?;
    let epochs = numeric(opts, "epochs", 20usize)?;
    let seed = numeric(opts, "seed", 17u64)?;
    let cfg = model_config_for(&clips)?;
    let mut extractor = ScenarioExtractor::untrained(cfg, seed);
    eprintln!(
        "training on {} clips for {epochs} epochs ({} params)...",
        clips.len(),
        extractor.model().num_params()
    );
    let steps = (clips.len().div_ceil(16) * epochs) as u32;
    let loss = extractor.fit(
        &clips,
        &TrainConfig {
            epochs,
            batch_size: 16,
            schedule: LrSchedule::WarmupCosine {
                base: 1e-3,
                warmup: (steps / 20).max(5),
                total: steps,
                min: 5e-5,
            },
            seed,
            verbose: true,
            ..TrainConfig::default()
        },
    );
    eprintln!("final training loss: {loss:.3}");
    save_checkpoint(extractor.model().params(), out).map_err(|e| e.to_string())?;
    eprintln!("checkpoint written to {out}");
    Ok(())
}

fn load_model(opts: &Opts, clips: &[Clip]) -> Result<ScenarioExtractor, String> {
    let ckpt = require(opts, "model")?;
    let cfg = model_config_for(clips)?;
    let mut extractor = ScenarioExtractor::untrained(cfg, 0);
    let n = load_checkpoint(extractor.model_mut().params_mut(), ckpt).map_err(|e| e.to_string())?;
    if n != extractor.model().params().len() {
        return Err(format!(
            "checkpoint restored only {n}/{} tensors — architecture mismatch?",
            extractor.model().params().len()
        ));
    }
    Ok(extractor)
}

fn cmd_eval(opts: &Opts) -> Result<(), String> {
    let clips = load(opts)?;
    let extractor = load_model(opts, &clips)?;
    let idx: Vec<usize> = (0..clips.len()).collect();
    let s = evaluate(extractor.model(), &clips, &idx);
    println!("clips:            {}", s.n);
    println!("ego accuracy:     {:.1}%  (macro-F1 {:.1}%)", s.ego_acc * 100.0, s.ego_f1 * 100.0);
    println!("road accuracy:    {:.1}%", s.road_acc * 100.0);
    println!(
        "event accuracy:   {:.1}%  (macro-F1 {:.1}%)",
        s.event_acc * 100.0,
        s.event_f1 * 100.0
    );
    println!("position acc:     {:.1}%", s.position_acc * 100.0);
    println!("presence micro-F1 {:.1}%", s.presence_f1 * 100.0);
    println!("mean accuracy:    {:.1}%", s.mean_accuracy() * 100.0);
    Ok(())
}

/// Clips per forward of `tsdx extract`: the training batch size.
const EXTRACT_BATCH: usize = 16;

fn cmd_extract(opts: &Opts) -> Result<(), String> {
    let clips = load(opts)?;
    let extractor = load_model(opts, &clips)?;
    let limit = numeric(opts, "limit", 10usize)?.min(clips.len());
    // The file is outside input: every clip is validated on its own, and a
    // malformed one costs its own description, not the run.
    let predictions = clips[..limit].chunks(EXTRACT_BATCH).flat_map(|chunk| {
        let videos: Vec<_> = chunk.iter().map(|c| &c.video).collect();
        extractor.extract_window_batch(&videos)
    });
    let mut rejected = 0;
    for (i, (clip, pred)) in clips.iter().zip(predictions).enumerate() {
        println!("truth: {}", clip.truth);
        match pred {
            Ok(pred) => {
                println!(" pred: {pred}");
                println!("       \"{}\"\n", tsdx::sdl::to_sentence(&pred));
            }
            Err(e) => {
                rejected += 1;
                println!(" pred: none\n");
                eprintln!("clip {i}: {e}");
            }
        }
    }
    if rejected > 0 {
        return Err(format!("{rejected} of {limit} clips were malformed and not described"));
    }
    Ok(())
}

fn cmd_search(opts: &Opts) -> Result<(), String> {
    let clips = load(opts)?;
    let filter: ScenarioFilter = match opts.get("filter") {
        Some(text) => text.parse().map_err(|e| format!("{e}"))?,
        None => ScenarioFilter::any(),
    };
    let top = numeric(opts, "top", 5usize)?;
    // The clips the filter keeps, in clip order.
    let matches: Vec<(usize, &Clip)> =
        clips.iter().enumerate().filter(|(_, c)| filter.matches(&c.truth)).collect();
    match opts.get("like") {
        Some(sdl) => {
            let query = sdl.parse().map_err(|e| format!("bad --like SDL: {e}"))?;
            // Index ids ascend with clip ids, so ties rank by clip id.
            let mut index = VectorIndex::default();
            for (id, clip) in &matches {
                index.push_scenario(&clip.truth).map_err(|e| format!("clip {id}: {e}"))?;
            }
            let Ok(hits) = index.query_scenario(&query, top);
            println!("filter: {filter}");
            println!("query:  {query}");
            for (hit, score) in hits {
                let (id, clip) = matches[hit as usize];
                println!("  [clip {id:>4} | cos {score:.3}] {}", clip.truth);
            }
        }
        None => {
            println!("filter: {filter} — {} matches", matches.len());
            for (id, clip) in matches.into_iter().take(top) {
                println!("  [clip {id:>4}] {}", clip.truth);
            }
        }
    }
    Ok(())
}
