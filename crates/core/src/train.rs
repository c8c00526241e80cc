//! Shared training loop and evaluation harness for all [`ClipModel`]s.
//!
//! Training is fault-tolerant (see [`train_resilient`]): a batch whose loss
//! or gradients are non-finite is skipped instead of corrupting the
//! parameters, repeated bad batches back off the learning rate, and the loop
//! can write a crash-safe checkpoint after every epoch that a later run
//! resumes from **bit-identically** — an interrupted-then-resumed run ends
//! with exactly the parameters of an uninterrupted one.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_data::{collate, epoch_batches, Clip, ClipLabels};
use tsdx_metrics::{accuracy, macro_f1, multilabel_report};
use tsdx_nn::{
    clip_global_norm, read_train_checkpoint, save_train_checkpoint, AdamW, CheckpointError,
    LrSchedule, TrainCheckpoint, TrainState,
};
use tsdx_sdl::{vocab, ActorKind, EgoManeuver};

use crate::heads::multitask_loss;
use crate::model::{decode_logits, ClipModel};
use crate::telemetry::{timed_ms, TrainLogger};

/// AdamW's decoupled weight decay.
const WEIGHT_DECAY: f32 = 1e-4;
/// The global gradient norm every step is clipped to.
const CLIP_NORM: f32 = 5.0;
/// More consecutive skipped batches than this is [`TrainError::Diverged`].
const MAX_CONSECUTIVE_BAD: u32 = 16;
/// Learning-rate multiplier applied on every repeated consecutive bad batch.
const BACKOFF: f32 = 0.5;
/// Floor of the backoff scale.
const MIN_LR_SCALE: f32 = 1.0 / 64.0;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule (per optimizer step).
    pub schedule: LrSchedule,
    /// RNG seed for shuffling and dropout.
    pub seed: u64,
    /// Print one line per epoch to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 16,
            schedule: LrSchedule::WarmupCosine { base: 1e-3, warmup: 20, total: 400, min: 5e-5 },
            seed: 0,
            verbose: false,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch (over non-skipped batches; only the
    /// epochs this call actually ran, so a resumed run reports the tail).
    pub epoch_losses: Vec<f32>,
    /// Optimizer steps taken (including skipped bad batches, which still
    /// advance the schedule).
    pub steps: u32,
    /// Batches skipped by the non-finite guard.
    pub skipped_steps: u32,
}

impl TrainReport {
    /// Final epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().expect("at least one epoch")
    }
}

/// Where [`train_resilient`] keeps its checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Checkpointing {
    /// No checkpoint is read or written.
    #[default]
    Off,
    /// A checkpoint is written to the path after every epoch; an existing
    /// file is overwritten, never read.
    WriteTo(PathBuf),
    /// As [`Checkpointing::WriteTo`], but training first resumes from the
    /// path when it exists (a missing file starts fresh, so the same
    /// invocation works for the first and every later attempt).
    ResumeFrom(PathBuf),
}

/// Fault-tolerance policy for [`train_resilient`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Where checkpoints are written, and whether training resumes from one.
    pub checkpoint: Checkpointing,
    /// Explicit JSONL telemetry destination. `None` (the default) defers to
    /// `TSDX_LOG` and the standard `results/logs/` location; `Some(path)`
    /// writes debug-level events to `path` regardless of the environment
    /// (see [`crate::TrainLogger`]).
    pub log_path: Option<PathBuf>,
}

impl ResilienceConfig {
    /// Checkpoints to `path` every epoch, without resuming.
    pub fn checkpoint_to(path: impl Into<PathBuf>) -> Self {
        ResilienceConfig { checkpoint: Checkpointing::WriteTo(path.into()), log_path: None }
    }

    /// Checkpoints to `path` every epoch **and** resumes from it when it
    /// already exists — the standard configuration for unattended runs.
    pub fn resume_from(path: impl Into<PathBuf>) -> Self {
        ResilienceConfig { checkpoint: Checkpointing::ResumeFrom(path.into()), log_path: None }
    }
}

/// Error terminating a resilient training run.
#[derive(Debug)]
#[non_exhaustive]
pub enum TrainError {
    /// Saving or restoring a checkpoint failed.
    Checkpoint(CheckpointError),
    /// Too many consecutive non-finite batches: the run is not recoverable
    /// by skipping (bad data or a genuinely diverged model).
    Diverged {
        /// Step at which the limit was exceeded.
        step: u32,
        /// Consecutive bad batches observed.
        consecutive: u32,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Checkpoint(e) => write!(f, "training checkpoint failed: {e}"),
            TrainError::Diverged { step, consecutive } => write!(
                f,
                "training diverged: {consecutive} consecutive non-finite batches at step {step}"
            ),
        }
    }
}

impl Error for TrainError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            TrainError::Diverged { .. } => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Trains `model` on `clips[train_idx]` in place.
///
/// Equivalent to [`train_resilient`] with the default
/// [`ResilienceConfig`] (non-finite batches are skipped, no
/// checkpointing).
///
/// # Panics
///
/// Panics if the training set is empty or the run diverges beyond the
/// guard's consecutive-bad-batch limit.
pub fn train(
    model: &mut dyn ClipModel,
    clips: &[Clip],
    train_idx: &[usize],
    cfg: &TrainConfig,
) -> TrainReport {
    train_resilient(model, clips, train_idx, cfg, &ResilienceConfig::default())
        .unwrap_or_else(|e| panic!("training failed: {e}"))
}

/// Trains `model` on `clips[train_idx]` in place, tolerating bad batches
/// and process death.
///
/// * **Non-finite guard** — a batch whose loss or collected gradients
///   contain NaN/Inf is skipped: parameters and optimizer moments are
///   untouched, the schedule still advances. Repeated consecutive bad
///   batches halve the learning rate (down to 1/64 of it); good steps
///   double it back up. More than 16 bad batches in a row is
///   [`TrainError::Diverged`].
/// * **Checkpointing** — unless `r.checkpoint` is [`Checkpointing::Off`], a
///   crash-safe checkpoint (parameters, optimizer moments, RNG state, guard
///   state) is written after every epoch.
/// * **Resume** — with [`Checkpointing::ResumeFrom`] and the checkpoint
///   present, training continues from the recorded epoch. The restored run
///   consumes the identical shuffle/dropout stream and optimizer state, so
///   the final parameters are **bit-identical** to a never-interrupted run
///   (`tests/resume_training.rs` asserts this).
///
/// # Errors
///
/// [`TrainError::Checkpoint`] on checkpoint I/O, format, or shape errors;
/// [`TrainError::Diverged`] when skipping cannot save the run.
///
/// # Panics
///
/// Panics if the training set is empty.
pub fn train_resilient(
    model: &mut dyn ClipModel,
    clips: &[Clip],
    train_idx: &[usize],
    cfg: &TrainConfig,
    r: &ResilienceConfig,
) -> Result<TrainReport, TrainError> {
    assert!(!train_idx.is_empty(), "empty training set");
    let mut opt = AdamW::new(WEIGHT_DECAY);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut step: u32 = 0;
    let mut start_epoch: usize = 0;
    let mut lr_scale: f32 = 1.0;
    let mut consecutive_bad: u32 = 0;
    let mut skipped: u32 = 0;
    let mut log = TrainLogger::for_run(model.name(), r.log_path.as_deref());
    log.train_start(model.name(), cfg.epochs, cfg.batch_size, train_idx.len());

    if let Checkpointing::ResumeFrom(path) = &r.checkpoint {
        if path.exists() {
            let ck = read_train_checkpoint(path)?;
            model.params_mut().try_load_named(&ck.params).map_err(|m| {
                CheckpointError::ShapeMismatch {
                    name: m.name,
                    expected: m.expected,
                    found: m.found,
                }
            })?;
            if let Some(state) = ck.opt {
                opt.import_state(state);
            }
            if let Some(s) = ck.state.rng {
                rng = StdRng::from_state(s);
            }
            start_epoch = ck.state.epoch as usize;
            step = ck.state.step;
            lr_scale = ck.state.lr_scale;
            consecutive_bad = ck.state.consecutive_bad;
            skipped = ck.state.skipped_steps;
            log.resume(start_epoch, step);
            if cfg.verbose {
                eprintln!(
                    "[{}] resumed from {} at epoch {start_epoch}, step {step}",
                    model.name(),
                    path.display()
                );
            }
        }
    }

    let skipped_at_start = skipped;
    let mut epoch_losses = Vec::with_capacity(cfg.epochs.saturating_sub(start_epoch));
    // Every step records the same graph: the last one's node count sizes
    // the next tape.
    let mut tape_len = 0;
    for epoch in start_epoch..cfg.epochs {
        let batches = epoch_batches(clips, train_idx, cfg.batch_size, &mut rng);
        let mut loss_sum = 0.0;
        let mut good_batches = 0usize;
        for batch in &batches {
            let mut g = tsdx_tensor::Graph::with_capacity(tape_len);
            let binding = model.params().bind(&mut g);
            let logits = model.forward(&mut g, &binding, &batch.videos, &mut rng, true);
            let loss = multitask_loss(&mut g, &logits, batch);
            let loss_val = g.value(loss).item();
            let grads = g.backward(loss);
            tape_len = g.len();
            let mut collected = model.params().collect_grads(&binding, &grads);
            #[cfg(feature = "fault-inject")]
            if tsdx_tensor::faults::NAN_GRAD.take_if(step) {
                collected[0] = tsdx_tensor::Tensor::full(collected[0].shape(), f32::NAN);
            }
            if !loss_val.is_finite() || collected.iter().any(|t| t.has_non_finite()) {
                skipped += 1;
                consecutive_bad += 1;
                if consecutive_bad > MAX_CONSECUTIVE_BAD {
                    log.diverged(step, consecutive_bad);
                    return Err(TrainError::Diverged { step, consecutive: consecutive_bad });
                }
                if consecutive_bad > 1 {
                    lr_scale = (lr_scale * BACKOFF).max(MIN_LR_SCALE);
                }
                log.skip(step, loss_val, consecutive_bad, lr_scale);
                if cfg.verbose {
                    eprintln!(
                        "[{}] step {step}: non-finite batch skipped ({consecutive_bad} in a \
                         row, lr scale {lr_scale})",
                        model.name()
                    );
                }
                step += 1;
                continue;
            }
            consecutive_bad = 0;
            lr_scale = (lr_scale * 2.0).min(1.0);
            loss_sum += loss_val;
            good_batches += 1;
            let grad_norm = clip_global_norm(&mut collected, CLIP_NORM);
            let lr = cfg.schedule.lr(step) * lr_scale;
            opt.step(model.params_mut(), &collected, lr);
            log.step(step, epoch, loss_val, lr, grad_norm);
            step += 1;
        }
        let mean = loss_sum / good_batches.max(1) as f32;
        epoch_losses.push(mean);
        log.epoch(epoch, mean, good_batches, skipped - skipped_at_start);
        if cfg.verbose {
            eprintln!("[{}] epoch {epoch:>3}: loss {mean:.4}", model.name());
        }
        if let Checkpointing::WriteTo(path) | Checkpointing::ResumeFrom(path) = &r.checkpoint {
            let done = epoch + 1;
            let ckpt = TrainCheckpoint {
                state: TrainState {
                    epoch: done as u32,
                    step,
                    lr_scale,
                    consecutive_bad,
                    skipped_steps: skipped,
                    rng: Some(rng.state()),
                },
                params: model.params().iter().map(|(n, t)| (n.to_string(), t.clone())).collect(),
                opt: Some(opt.export_state(model.params())),
            };
            let (saved, write_ms) = timed_ms(|| save_train_checkpoint(&ckpt, path));
            saved?;
            log.checkpoint(done, step, path, write_ms);
        }
    }
    log.train_end(cfg.epochs, step, skipped - skipped_at_start, epoch_losses.last().copied());
    Ok(TrainReport { epoch_losses, steps: step, skipped_steps: skipped - skipped_at_start })
}

/// Per-head evaluation summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSummary {
    /// Ego-maneuver accuracy.
    pub ego_acc: f32,
    /// Ego-maneuver macro-F1.
    pub ego_f1: f32,
    /// Road-kind accuracy.
    pub road_acc: f32,
    /// Primary-event accuracy.
    pub event_acc: f32,
    /// Primary-event macro-F1.
    pub event_f1: f32,
    /// Position accuracy.
    pub position_acc: f32,
    /// Actor-presence micro-F1 (threshold 0.5).
    pub presence_f1: f32,
    /// Number of evaluated clips.
    pub n: usize,
}

impl EvalSummary {
    /// Unweighted mean of the four classification accuracies (the single
    /// scalar used in ablation figures).
    pub fn mean_accuracy(&self) -> f32 {
        (self.ego_acc + self.road_acc + self.event_acc + self.position_acc) / 4.0
    }
}

impl std::fmt::Display for EvalSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} ego {:.1}% (F1 {:.1}%) road {:.1}% event {:.1}% (F1 {:.1}%) pos {:.1}% presence-F1 {:.1}% | mean {:.1}%",
            self.n,
            self.ego_acc * 100.0,
            self.ego_f1 * 100.0,
            self.road_acc * 100.0,
            self.event_acc * 100.0,
            self.event_f1 * 100.0,
            self.position_acc * 100.0,
            self.presence_f1 * 100.0,
            self.mean_accuracy() * 100.0
        )
    }
}

/// Runs batched inference, returning decoded labels per clip.
pub fn predict_labels(model: &dyn ClipModel, clips: &[Clip], idx: &[usize]) -> Vec<ClipLabels> {
    let mut out = Vec::with_capacity(idx.len());
    let mut rng = StdRng::seed_from_u64(0);
    let mut tape_len = 0;
    for chunk in idx.chunks(16) {
        let refs: Vec<&Clip> = chunk.iter().map(|&i| &clips[i]).collect();
        let batch = collate(&refs);
        let mut g = tsdx_tensor::Graph::with_capacity(tape_len);
        let binding = model.params().bind_frozen(&mut g);
        let logits = model.forward(&mut g, &binding, &batch.videos, &mut rng, false);
        tape_len = g.len();
        out.extend(decode_logits(
            g.value(logits.ego),
            g.value(logits.road),
            g.value(logits.event),
            g.value(logits.position),
            g.value(logits.presence),
        ));
    }
    out
}

/// Evaluates `model` on `clips[idx]`.
///
/// # Panics
///
/// Panics on an empty index set.
pub fn evaluate(model: &dyn ClipModel, clips: &[Clip], idx: &[usize]) -> EvalSummary {
    assert!(!idx.is_empty(), "empty evaluation set");
    let predictions = predict_labels(model, clips, idx);
    summarize(&predictions, &idx.iter().map(|&i| clips[i].labels.clone()).collect::<Vec<_>>())
}

/// Computes an [`EvalSummary`] from aligned prediction/truth label lists.
pub fn summarize(predictions: &[ClipLabels], truths: &[ClipLabels]) -> EvalSummary {
    assert_eq!(predictions.len(), truths.len(), "prediction/truth mismatch");
    let take = |f: fn(&ClipLabels) -> usize, xs: &[ClipLabels]| -> Vec<usize> {
        xs.iter().map(f).collect()
    };
    let p_ego = take(|l| l.ego, predictions);
    let t_ego = take(|l| l.ego, truths);
    let p_road = take(|l| l.road, predictions);
    let t_road = take(|l| l.road, truths);
    let p_event = take(|l| l.event, predictions);
    let t_event = take(|l| l.event, truths);
    let p_pos = take(|l| l.position, predictions);
    let t_pos = take(|l| l.position, truths);

    let scores: Vec<f32> = predictions.iter().flat_map(|l| l.presence).collect();
    let targets: Vec<f32> = truths.iter().flat_map(|l| l.presence).collect();
    let ml = multilabel_report(&scores, &targets, ActorKind::COUNT, 0.5);

    EvalSummary {
        ego_acc: accuracy(&p_ego, &t_ego),
        ego_f1: macro_f1(&p_ego, &t_ego, EgoManeuver::COUNT),
        road_acc: accuracy(&p_road, &t_road),
        event_acc: accuracy(&p_event, &t_event),
        event_f1: macro_f1(&p_event, &t_event, vocab::EVENT_COUNT),
        position_acc: accuracy(&p_pos, &t_pos),
        presence_f1: ml.micro_f1,
        n: predictions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::VideoScenarioTransformer;
    use tsdx_data::{generate_dataset, DatasetConfig};
    use tsdx_render::RenderConfig;

    fn tiny_model() -> VideoScenarioTransformer {
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
            3,
        )
    }

    fn tiny_clips(n: usize) -> Vec<Clip> {
        generate_dataset(&DatasetConfig {
            n_clips: n,
            render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
            ..DatasetConfig::default()
        })
    }

    #[test]
    fn training_reduces_loss_on_small_set() {
        let mut model = tiny_model();
        let clips = tiny_clips(16);
        let idx: Vec<usize> = (0..16).collect();
        let cfg = TrainConfig {
            epochs: 12,
            batch_size: 8,
            schedule: LrSchedule::Constant(3e-3),
            ..TrainConfig::default()
        };
        let report = train(&mut model, &clips, &idx, &cfg);
        assert_eq!(report.epoch_losses.len(), 12);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first * 0.7, "training did not reduce loss: {first:.3} -> {last:.3}");
        assert!(last.is_finite());
    }

    #[test]
    fn evaluate_reports_sane_ranges() {
        let model = tiny_model();
        let clips = tiny_clips(12);
        let idx: Vec<usize> = (0..12).collect();
        let s = evaluate(&model, &clips, &idx);
        assert_eq!(s.n, 12);
        for v in [s.ego_acc, s.road_acc, s.event_acc, s.position_acc, s.presence_f1, s.ego_f1] {
            assert!((0.0..=1.0).contains(&v), "metric out of range: {v}");
        }
        assert!((0.0..=1.0).contains(&s.mean_accuracy()));
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tsdx-train-test-{name}-{}.ckpt", std::process::id()))
    }

    fn params_of(model: &VideoScenarioTransformer) -> Vec<(String, Vec<f32>)> {
        model.params().iter().map(|(n, t)| (n.to_string(), t.to_vec())).collect()
    }

    #[test]
    fn interrupted_and_resumed_run_is_bit_identical() {
        let clips = tiny_clips(12);
        let idx: Vec<usize> = (0..12).collect();
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 4,
            schedule: LrSchedule::Constant(2e-3),
            ..TrainConfig::default()
        };

        // Uninterrupted reference run.
        let mut full = tiny_model();
        train(&mut full, &clips, &idx, &cfg);

        // Interrupted run: stop after 2 epochs (checkpointing each), then
        // resume into a model with a *different* init seed — every weight
        // must come from the checkpoint.
        let path = tmp("resume");
        std::fs::remove_file(&path).ok();
        let mut first = tiny_model();
        let half_cfg = TrainConfig { epochs: 2, ..cfg };
        train_resilient(
            &mut first,
            &clips,
            &idx,
            &half_cfg,
            &ResilienceConfig::checkpoint_to(&path),
        )
        .unwrap();

        let mut resumed = VideoScenarioTransformer::new(
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
            999,
        );
        let report = train_resilient(
            &mut resumed,
            &clips,
            &idx,
            &cfg,
            &ResilienceConfig::resume_from(&path),
        )
        .unwrap();
        assert_eq!(report.epoch_losses.len(), 2, "resumed run covers only the remaining epochs");
        assert_eq!(params_of(&full), params_of(&resumed), "resume must be bit-identical");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_with_completed_checkpoint_is_a_noop() {
        let clips = tiny_clips(8);
        let idx: Vec<usize> = (0..8).collect();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            schedule: LrSchedule::Constant(1e-3),
            ..TrainConfig::default()
        };
        let path = tmp("noop");
        std::fs::remove_file(&path).ok();
        let mut model = tiny_model();
        train_resilient(&mut model, &clips, &idx, &cfg, &ResilienceConfig::checkpoint_to(&path))
            .unwrap();
        let before = params_of(&model);
        let report =
            train_resilient(&mut model, &clips, &idx, &cfg, &ResilienceConfig::resume_from(&path))
                .unwrap();
        assert!(report.epoch_losses.is_empty());
        assert_eq!(report.steps, 4, "step counter restored from the checkpoint");
        assert_eq!(params_of(&model), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summarize_perfect_predictions() {
        let labels: Vec<ClipLabels> = tiny_clips(6).iter().map(|c| c.labels.clone()).collect();
        let s = summarize(&labels, &labels);
        assert_eq!(s.ego_acc, 1.0);
        assert_eq!(s.event_acc, 1.0);
        assert_eq!(s.presence_f1, 1.0);
    }
}
