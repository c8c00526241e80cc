//! # tsdx-baselines
//!
//! Comparator models for the extraction task, all consuming the same clips
//! and evaluated with the same harness as the video transformer:
//!
//! * [`HeuristicExtractor`] — non-learned pixel-statistics rules (table
//!   floor);
//! * [`FrameMlp`] — per-frame MLP + temporal mean pooling (order-blind);
//! * [`CnnGru`] — convolutional frame features + GRU (the standard
//!   pre-transformer video architecture).
//!
//! The learned baselines implement [`tsdx_core::ClipModel`], so
//! [`tsdx_core::train`] and [`tsdx_core::evaluate`] work on them unchanged.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cnn_gru;
mod frame_mlp;
mod heuristic;

pub use cnn_gru::{CnnGru, CnnGruConfig};
pub use frame_mlp::{FrameMlp, FrameMlpConfig};
pub use heuristic::HeuristicExtractor;
