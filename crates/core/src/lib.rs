//! # tsdx-core
//!
//! The paper's primary contribution: **automated traffic scenario
//! description extraction using video transformers**. An ego-camera video
//! clip is cut into spatio-temporal tubelets, encoded with a factorized
//! (or joint) space-time transformer, and decoded by multi-task heads into
//! a validated SDL [`Scenario`](tsdx_sdl::Scenario).
//!
//! Entry points:
//!
//! * [`ScenarioExtractor`] — end-to-end video → SDL API;
//! * [`VideoScenarioTransformer`] — the model itself;
//! * [`train`] / [`evaluate`] — the shared training and evaluation harness
//!   (also used by the baselines through the [`ClipModel`] trait);
//! * [`clip_macs`] — analytic compute cost for the ablation figures.
//!
//! # Examples
//!
//! ```
//! use tsdx_core::{ModelConfig, ScenarioExtractor};
//!
//! // A tiny config so this doc test stays fast.
//! let cfg = ModelConfig {
//!     frames: 4, height: 16, width: 16, tubelet_t: 2, patch: 8,
//!     dim: 16, spatial_depth: 1, temporal_depth: 1, heads: 2,
//!     ..ModelConfig::default()
//! };
//! let extractor = ScenarioExtractor::untrained(cfg, 0);
//! let video = tsdx_tensor::Tensor::zeros(&[4, 16, 16]);
//! let scenario = extractor.extract_checked(&video).expect("well-formed clip");
//! assert!(scenario.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attention_map;
mod config;
mod encoder;
#[cfg(test)]
mod executor_parity;
mod extract;
mod flops;
mod heads;
mod model;
mod session;
mod telemetry;
mod train;
mod tubelet;

pub use config::{AttentionKind, ModelConfig, Readout};
pub use extract::ExtractError;
pub use extract::ScenarioExtractor;
pub use flops::clip_macs;
pub use heads::{multitask_loss, HeadLogits, SdlHeads};
pub use model::{decode_logits, ClipModel, VideoScenarioTransformer};
pub use session::{
    encode_staged, readout_staged, MuxEncodeReport, StreamSession, StreamState, WindowLogits,
};
pub use telemetry::{run_time_switches, TrainLogger};
pub use train::{
    evaluate, predict_labels, summarize, train, train_resilient, Checkpointing, EvalSummary,
    ResilienceConfig, TrainConfig, TrainError, TrainReport,
};
pub use tubelet::extract_tubelets;
