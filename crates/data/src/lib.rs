//! # tsdx-data
//!
//! The dataset pipeline: deterministic generation of labeled video clips
//! from the simulator and renderer, stratified splits, mini-batching, and
//! label-aware augmentation.
//!
//! Determinism contract: clip `i` of a [`DatasetConfig`] always derives its
//! RNG seed from `base_seed + i`, so datasets are reproducible across runs
//! and any clip can be regenerated alone.
//!
//! # Examples
//!
//! ```
//! use tsdx_data::{generate_dataset, stratified_split, DatasetConfig};
//! use tsdx_render::RenderConfig;
//!
//! let cfg = DatasetConfig {
//!     n_clips: 12,
//!     render: RenderConfig { width: 8, height: 8, frames: 2, ..RenderConfig::default() },
//!     ..DatasetConfig::default()
//! };
//! let clips = generate_dataset(&cfg);
//! let split = stratified_split(&clips, (0.5, 0.25), 42);
//! assert_eq!(split.len(), 12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod augment;
mod batch;
mod clipgen;
pub mod io;
mod labels;
mod split;
mod stats;

pub use augment::{augment_with_flips, flip_clip, flip_scenario, flip_video, jitter_brightness};
pub use batch::{collate, epoch_batches, Batch};
pub use clipgen::{generate_clip, generate_dataset, Clip, DatasetConfig};
pub use io::{load_clips, save_clips, DatasetIoError};
pub use labels::{ClipLabels, POSITION_COUNT, POSITION_NONE};
pub use split::{select, stratified_split, Split};
pub use stats::DatasetStats;
