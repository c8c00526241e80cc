//! # tsdx — Traffic Scenario Description eXtraction
//!
//! A from-scratch Rust reproduction of *"Automated Traffic Scenario
//! Description Extraction Using Video Transformers"* (DATE 2024, ASD
//! initiative): ego-camera driving clips go in, structured, queryable SDL
//! scenario descriptions come out.
//!
//! This umbrella crate re-exports the whole stack:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`tensor`] | `tsdx-tensor` | dense `f32` tensors + reverse-mode autograd |
//! | [`nn`] | `tsdx-nn` | layers, optimizers, checkpoints |
//! | [`sdl`] | `tsdx-sdl` | the Scenario Description Language |
//! | [`sim`] | `tsdx-sim` | traffic micro-simulator with SDL ground truth |
//! | [`render`] | `tsdx-render` | ego-camera + BEV rasterizer |
//! | [`data`] | `tsdx-data` | dataset generation, splits, batching |
//! | [`core`] | `tsdx-core` | the video scenario transformer |
//! | [`baselines`] | `tsdx-baselines` | heuristic, frame-MLP, CNN+GRU |
//! | [`metrics`] | `tsdx-metrics` | evaluation arithmetic |
//! | [`serve`] | `tsdx-serve` | batched, fault-hardened HTTP serving |
//! | [`index`] | `tsdx-index` | in-memory SDL vector index + exact search |
//!
//! # Quickstart
//!
//! ```
//! use tsdx::data::{generate_dataset, DatasetConfig};
//! use tsdx::render::RenderConfig;
//!
//! // Generate four tiny labeled clips and look at one description.
//! let cfg = DatasetConfig {
//!     n_clips: 4,
//!     render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
//!     ..DatasetConfig::default()
//! };
//! let clips = generate_dataset(&cfg);
//! println!("{}", clips[0].truth); // e.g. "ego cruise; vehicle leading ahead; road straight"
//! ```
//!
//! See `examples/quickstart.rs` for the full train-and-extract loop.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use tsdx_baselines as baselines;
pub use tsdx_core as core;
pub use tsdx_data as data;
pub use tsdx_index as index;
pub use tsdx_metrics as metrics;
pub use tsdx_nn as nn;
pub use tsdx_render as render;
pub use tsdx_sdl as sdl;
pub use tsdx_serve as serve;
pub use tsdx_sim as sim;
pub use tsdx_tensor as tensor;

// Convenience re-exports of the headline types.
pub use tsdx_core::{ModelConfig, ScenarioExtractor, VideoScenarioTransformer};
pub use tsdx_sdl::Scenario;
