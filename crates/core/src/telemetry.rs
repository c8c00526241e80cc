//! Structured JSONL training telemetry.
//!
//! [`train_resilient`](crate::train_resilient) emits one JSON object per
//! line describing the run: steps, losses, learning rates, gradient norms,
//! skipped-batch and backoff events, checkpoint write latency, and the
//! final outcome. The stream is machine-readable (one `event`-tagged object
//! per line, stable schema asserted by `crates/core/tests/telemetry_log.rs`)
//! so dashboards and scripts can tail a run without scraping stderr.
//!
//! # Control
//!
//! `TSDX_LOG` selects the level, read **once** at the first logger
//! construction: `off` (default — no file is created, no syscalls), `info`
//! (run/epoch/checkpoint/fault events), `debug` (additionally one `step`
//! event per optimizer step); anything else panics there, like every
//! [`mod@tsdx_tensor::dial`] variable. Files go to `results/logs/<model>-<pid>.jsonl`.
//! Setting [`ResilienceConfig::log_path`](crate::ResilienceConfig) overrides
//! both: events are written to the given path at `debug` level regardless of
//! the environment, which is what tests use to stay independent of ambient
//! variables.
//!
//! # Event schema
//!
//! | `event` | level | fields |
//! |---|---|---|
//! | `train_start` | info | `model`, `epochs`, `batch_size`, `clips` |
//! | `resume` | info | `epoch`, `step` |
//! | `step` | debug | `step`, `epoch`, `loss`, `lr`, `grad_norm` (before clipping) |
//! | `skip` | info | `step`, `loss`, `consecutive`, `lr_scale` |
//! | `epoch` | info | `epoch`, `loss`, `batches`, `skipped` |
//! | `checkpoint` | info | `epoch`, `step`, `path`, `write_ms` |
//! | `diverged` | info | `step`, `consecutive` |
//! | `train_end` | info | `epochs`, `steps`, `skipped`, `final_loss` |
//!
//! Non-finite floats serialize as `null` (JSON has no NaN). Writes are
//! best-effort: an unwritable log never fails or slows training more than
//! the write itself.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Verbosity of the JSONL training log, from `TSDX_LOG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// No log file at all (the default).
    Off,
    /// Run-level events: start/end, epochs, checkpoints, faults.
    Info,
    /// Everything, including one event per optimizer step.
    Debug,
}

fn parse_level(raw: Option<&str>) -> Result<LogLevel, String> {
    match raw {
        None | Some("off") => Ok(LogLevel::Off),
        Some("info") => Ok(LogLevel::Info),
        Some("debug") => Ok(LogLevel::Debug),
        Some(_) => Err("must be \"off\", \"info\" or \"debug\"".to_string()),
    }
}

tsdx_tensor::dial! {
    /// `TSDX_LOG`: the JSONL training log's level (default `off`).
    static LOG: LogLevel = Some("TSDX_LOG"), parse_level;
}

/// The live value of every run-time switch on this thread, as the one line
/// binaries print at start-up (README, "Run-time switches").
///
/// # Panics
///
/// Panics when a `TSDX_*` variable holds something it does not accept.
pub fn run_time_switches() -> String {
    let log = match LOG.get() {
        LogLevel::Off => "off",
        LogLevel::Info => "info",
        LogLevel::Debug => "debug",
    };
    format!("{} log={log}", tsdx_tensor::dial::RunConfig::current())
}

/// A JSON value formatter for the few shapes the log needs.
enum Val<'a> {
    Str(&'a str),
    U64(u64),
    F32(f32),
    OptF32(Option<f32>),
}

fn push_json(buf: &mut String, v: &Val<'_>) {
    match v {
        Val::Str(s) => {
            buf.push('"');
            for c in s.chars() {
                match c {
                    '"' => buf.push_str("\\\""),
                    '\\' => buf.push_str("\\\\"),
                    '\n' => buf.push_str("\\n"),
                    '\r' => buf.push_str("\\r"),
                    '\t' => buf.push_str("\\t"),
                    c if (c as u32) < 0x20 => buf.push_str(&format!("\\u{:04x}", c as u32)),
                    c => buf.push(c),
                }
            }
            buf.push('"');
        }
        Val::U64(n) => buf.push_str(&n.to_string()),
        Val::F32(x) | Val::OptF32(Some(x)) => {
            if x.is_finite() {
                buf.push_str(&format!("{x}"));
                // `{}` on f32 omits the point for integral values; keep the
                // field unambiguously a JSON number either way.
            } else {
                buf.push_str("null");
            }
        }
        Val::OptF32(None) => buf.push_str("null"),
    }
}

/// Best-effort JSONL writer for one training run.
///
/// Construct with [`TrainLogger::for_run`]; every `event` method is a no-op
/// (no allocation, no I/O) when the logger is disabled.
#[derive(Debug)]
pub struct TrainLogger {
    out: Option<BufWriter<fs::File>>,
    level: LogLevel,
}

impl TrainLogger {
    /// Opens the log for a training run of `model`.
    ///
    /// With `path` set (from `ResilienceConfig::log_path`) the file is
    /// created there and the level is forced to [`LogLevel::Debug`];
    /// otherwise the level comes from `TSDX_LOG` and the file goes to
    /// `results/logs/<model>-<pid>.jsonl`. A disabled logger touches the
    /// filesystem not at all.
    pub fn for_run(model: &str, path: Option<&Path>) -> TrainLogger {
        let (level, path) = match path {
            Some(p) => (LogLevel::Debug, p.to_path_buf()),
            None => {
                let level = LOG.get();
                if level == LogLevel::Off {
                    return TrainLogger { out: None, level };
                }
                let dir = PathBuf::from("results").join("logs");
                (level, dir.join(format!("{model}-{}.jsonl", std::process::id())))
            }
        };
        if let Some(dir) = path.parent() {
            let _ = fs::create_dir_all(dir);
        }
        let out = fs::File::create(&path).ok().map(BufWriter::new);
        TrainLogger { out, level }
    }

    /// A logger that records nothing.
    pub fn disabled() -> TrainLogger {
        TrainLogger { out: None, level: LogLevel::Off }
    }

    /// True when `step` events will be written.
    pub fn step_level(&self) -> bool {
        self.out.is_some() && self.level >= LogLevel::Debug
    }

    fn write(&mut self, event: &str, fields: &[(&str, Val<'_>)]) {
        let Some(out) = self.out.as_mut() else { return };
        let mut line = String::with_capacity(96);
        line.push_str("{\"event\":");
        push_json(&mut line, &Val::Str(event));
        for (k, v) in fields {
            line.push(',');
            push_json(&mut line, &Val::Str(k));
            line.push(':');
            push_json(&mut line, v);
        }
        line.push('}');
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }

    /// Run header.
    pub fn train_start(&mut self, model: &str, epochs: usize, batch_size: usize, clips: usize) {
        self.write(
            "train_start",
            &[
                ("model", Val::Str(model)),
                ("epochs", Val::U64(epochs as u64)),
                ("batch_size", Val::U64(batch_size as u64)),
                ("clips", Val::U64(clips as u64)),
            ],
        );
    }

    /// A checkpoint restore happened before the first epoch of this run.
    pub fn resume(&mut self, epoch: usize, step: u32) {
        self.write("resume", &[("epoch", Val::U64(epoch as u64)), ("step", Val::U64(step.into()))]);
    }

    /// One optimizer step (debug level only).
    pub fn step(&mut self, step: u32, epoch: usize, loss: f32, lr: f32, grad_norm: f32) {
        if self.level < LogLevel::Debug {
            return;
        }
        self.write(
            "step",
            &[
                ("step", Val::U64(step.into())),
                ("epoch", Val::U64(epoch as u64)),
                ("loss", Val::F32(loss)),
                ("lr", Val::F32(lr)),
                ("grad_norm", Val::F32(grad_norm)),
            ],
        );
    }

    /// A non-finite batch was skipped by the guard.
    pub fn skip(&mut self, step: u32, loss: f32, consecutive: u32, lr_scale: f32) {
        self.write(
            "skip",
            &[
                ("step", Val::U64(step.into())),
                ("loss", Val::F32(loss)),
                ("consecutive", Val::U64(consecutive.into())),
                ("lr_scale", Val::F32(lr_scale)),
            ],
        );
    }

    /// End-of-epoch summary.
    pub fn epoch(&mut self, epoch: usize, loss: f32, batches: usize, skipped: u32) {
        self.write(
            "epoch",
            &[
                ("epoch", Val::U64(epoch as u64)),
                ("loss", Val::F32(loss)),
                ("batches", Val::U64(batches as u64)),
                ("skipped", Val::U64(skipped.into())),
            ],
        );
    }

    /// A checkpoint was written in `write_ms` milliseconds.
    pub fn checkpoint(&mut self, epoch: usize, step: u32, path: &Path, write_ms: f32) {
        let shown = path.to_string_lossy();
        self.write(
            "checkpoint",
            &[
                ("epoch", Val::U64(epoch as u64)),
                ("step", Val::U64(step.into())),
                ("path", Val::Str(&shown)),
                ("write_ms", Val::F32(write_ms)),
            ],
        );
    }

    /// The guard gave up: too many consecutive bad batches.
    pub fn diverged(&mut self, step: u32, consecutive: u32) {
        self.write(
            "diverged",
            &[("step", Val::U64(step.into())), ("consecutive", Val::U64(consecutive.into()))],
        );
    }

    /// Run footer.
    pub fn train_end(&mut self, epochs: usize, steps: u32, skipped: u32, final_loss: Option<f32>) {
        self.write(
            "train_end",
            &[
                ("epochs", Val::U64(epochs as u64)),
                ("steps", Val::U64(steps.into())),
                ("skipped", Val::U64(skipped.into())),
                ("final_loss", Val::OptF32(final_loss)),
            ],
        );
    }
}

/// Runs `f`, returning its result and the elapsed milliseconds.
pub(crate) fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f32) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f32() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_specials() {
        let mut s = String::new();
        push_json(&mut s, &Val::Str("a\"b\\c\nd\te\u{1}"));
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut s = String::new();
        push_json(&mut s, &Val::F32(f32::NAN));
        assert_eq!(s, "null");
        let mut s = String::new();
        push_json(&mut s, &Val::F32(1.5));
        assert_eq!(s, "1.5");
        let mut s = String::new();
        push_json(&mut s, &Val::OptF32(None));
        assert_eq!(s, "null");
    }

    #[test]
    fn log_level_follows_the_one_parse_policy() {
        assert_eq!(LOG.parse(None), Ok(LogLevel::Off));
        let valid =
            [("off", LogLevel::Off), ("INFO", LogLevel::Info), (" debug\n", LogLevel::Debug)];
        for (raw, want) in valid {
            assert_eq!(LOG.parse(Some(raw)), Ok(want), "{raw:?}");
        }
        // A typo used to log nothing, silently; it is now the loud error the
        // dial policy gives: the variable, what it takes, and what it got.
        for raw in ["", " ", "dbug", "1", "verbose"] {
            let e = LOG.parse(Some(raw)).unwrap_err();
            assert!(e.starts_with("TSDX_LOG must be \"off\", \"info\" or \"debug\""), "{e}");
            assert!(e.ends_with(&format!("got {raw:?}")), "{e}");
        }
        assert!(LOG.with(LogLevel::Info, run_time_switches).ends_with(" log=info"));
    }

    #[test]
    fn disabled_logger_writes_nowhere() {
        let mut log = TrainLogger::disabled();
        log.train_start("m", 1, 1, 1);
        log.step(0, 0, 1.0, 1e-3, 1.0);
        log.train_end(1, 1, 0, Some(1.0));
        assert!(!log.step_level());
    }

    #[test]
    fn explicit_path_forces_debug_and_writes_jsonl() {
        let path =
            std::env::temp_dir().join(format!("tsdx-telemetry-unit-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut log = TrainLogger::for_run("test-model", Some(&path));
        assert!(log.step_level());
        log.train_start("test-model", 2, 4, 8);
        log.step(0, 0, 0.75, 1e-3, 2.5);
        log.train_end(2, 1, 0, Some(0.75));
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"event\":\"train_start\""));
        assert!(lines[1].contains("\"grad_norm\":2.5"));
        assert!(lines[2].contains("\"final_loss\":0.75"));
        let _ = std::fs::remove_file(&path);
    }
}
