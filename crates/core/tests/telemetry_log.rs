//! Golden test for the JSONL training-log schema.
//!
//! The log is a machine-readable contract (dashboards and scripts parse
//! it), so this test pins the event vocabulary, the per-event required
//! fields, and basic JSON well-formedness — without depending on the
//! `TSDX_LOG` environment (an explicit `log_path` forces debug level).

use tsdx_core::{
    train_resilient, ModelConfig, ResilienceConfig, TrainConfig, VideoScenarioTransformer,
};
use tsdx_data::{generate_dataset, DatasetConfig};
use tsdx_nn::LrSchedule;
use tsdx_render::RenderConfig;

fn tiny_model(seed: u64) -> VideoScenarioTransformer {
    VideoScenarioTransformer::new(
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
            mlp_ratio: 2,
            dropout: 0.0,
            ..ModelConfig::default()
        },
        seed,
    )
}

/// Minimal structural JSON check: an object of `"key":value` pairs with no
/// nesting (the schema is flat by design) and correctly quoted strings.
fn assert_flat_json_object(line: &str) {
    assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
    assert!(!line.contains('\n'), "event spans lines: {line}");
    let inner = &line[1..line.len() - 1];
    assert!(!inner.contains('{') && !inner.contains('['), "schema must stay flat: {line}");
    // Quotes must balance (escaped quotes never appear in our keys and only
    // in path values on exotic filesystems).
    let quotes = inner.matches('"').count();
    assert_eq!(quotes % 2, 0, "unbalanced quotes: {line}");
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag).unwrap_or_else(|| panic!("missing field {key} in {line}"));
    let rest = &line[at + tag.len()..];
    let end = if let Some(quoted) = rest.strip_prefix('"') {
        quoted.find('"').map(|i| i + 2).unwrap_or(rest.len())
    } else {
        rest.find([',', '}']).unwrap_or(rest.len())
    };
    &rest[..end]
}

#[test]
fn training_log_matches_golden_schema() {
    let path = std::env::temp_dir().join(format!("tsdx-telemetry-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let ckpt = std::env::temp_dir().join(format!("tsdx-telemetry-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);

    let clips = generate_dataset(&DatasetConfig {
        n_clips: 8,
        render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
        ..DatasetConfig::default()
    });
    let idx: Vec<usize> = (0..8).collect();
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 4,
        schedule: LrSchedule::Constant(1e-3),
        ..TrainConfig::default()
    };
    let mut model = tiny_model(0);
    let r =
        ResilienceConfig { log_path: Some(path.clone()), ..ResilienceConfig::checkpoint_to(&ckpt) };
    let report = train_resilient(&mut model, &clips, &idx, &cfg, &r).unwrap();
    assert_eq!(report.epoch_losses.len(), 2);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();

    // Every line is a flat JSON object tagged with a known event.
    const KNOWN: [&str; 8] =
        ["train_start", "resume", "step", "skip", "epoch", "checkpoint", "diverged", "train_end"];
    for line in &lines {
        assert_flat_json_object(line);
        let ev = field(line, "event");
        assert!(KNOWN.iter().any(|k| ev == format!("\"{k}\"")), "unknown event {ev} in {line}");
    }

    // The run frame: header first, footer last.
    assert_eq!(field(lines[0], "event"), "\"train_start\"");
    assert_eq!(field(lines[0], "model"), "\"video-transformer\"");
    assert_eq!(field(lines[0], "epochs"), "2");
    assert_eq!(field(lines[0], "batch_size"), "4");
    assert_eq!(field(lines[0], "clips"), "8");
    let last = lines.last().unwrap();
    assert_eq!(field(last, "event"), "\"train_end\"");
    assert_eq!(field(last, "steps"), "4");
    assert_eq!(field(last, "skipped"), "0");

    // Per-event required fields.
    let steps: Vec<&&str> = lines.iter().filter(|l| field(l, "event") == "\"step\"").collect();
    assert_eq!(steps.len(), 4, "explicit log_path forces debug level (one event per step)");
    for (i, s) in steps.iter().enumerate() {
        assert_eq!(field(s, "step"), i.to_string());
        for k in ["epoch", "loss", "lr", "grad_norm"] {
            let v = field(s, k);
            assert!(!v.is_empty(), "empty {k} in {s}");
        }
        // Every step clips, so every step logs its norm.
        assert_ne!(field(s, "grad_norm"), "null");
    }
    let epochs: Vec<&&str> = lines.iter().filter(|l| field(l, "event") == "\"epoch\"").collect();
    assert_eq!(epochs.len(), 2);
    for e in &epochs {
        for k in ["epoch", "loss", "batches", "skipped"] {
            field(e, k);
        }
    }
    let ckpts: Vec<&&str> =
        lines.iter().filter(|l| field(l, "event") == "\"checkpoint\"").collect();
    assert_eq!(ckpts.len(), 2, "one checkpoint per epoch");
    for c in &ckpts {
        for k in ["epoch", "step", "path", "write_ms"] {
            field(c, k);
        }
        assert_ne!(field(c, "write_ms"), "null");
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn resumed_run_logs_resume_event() {
    let base = std::env::temp_dir().join(format!("tsdx-telemetry-resume-{}", std::process::id()));
    let log1 = base.with_extension("1.jsonl");
    let log2 = base.with_extension("2.jsonl");
    let ckpt = base.with_extension("ckpt");
    for p in [&log1, &log2, &ckpt] {
        let _ = std::fs::remove_file(p);
    }

    let clips = generate_dataset(&DatasetConfig {
        n_clips: 4,
        render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
        ..DatasetConfig::default()
    });
    let idx: Vec<usize> = (0..4).collect();
    let mut model = tiny_model(1);
    let cfg1 = TrainConfig {
        epochs: 1,
        batch_size: 4,
        schedule: LrSchedule::Constant(1e-3),
        ..TrainConfig::default()
    };
    let r1 =
        ResilienceConfig { log_path: Some(log1.clone()), ..ResilienceConfig::checkpoint_to(&ckpt) };
    train_resilient(&mut model, &clips, &idx, &cfg1, &r1).unwrap();

    let cfg2 = TrainConfig { epochs: 2, ..cfg1 };
    let r2 =
        ResilienceConfig { log_path: Some(log2.clone()), ..ResilienceConfig::resume_from(&ckpt) };
    train_resilient(&mut model, &clips, &idx, &cfg2, &r2).unwrap();

    let text = std::fs::read_to_string(&log2).unwrap();
    let resume_line = text
        .lines()
        .find(|l| l.contains("\"event\":\"resume\""))
        .expect("resumed run must log a resume event");
    assert!(resume_line.contains("\"epoch\":1"), "unexpected resume line: {resume_line}");
    // No resume event in the fresh run's log.
    assert!(!std::fs::read_to_string(&log1).unwrap().contains("\"event\":\"resume\""));

    for p in [&log1, &log2, &ckpt] {
        let _ = std::fs::remove_file(p);
    }
}
