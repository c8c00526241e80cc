//! # tsdx-render
//!
//! Rasterizes [`tsdx_sim`] worlds into the pixel videos consumed by the
//! learned extractors: a pinhole ego camera with inverse ground-plane
//! projection, road maps rasterized once per road kind, actor billboards,
//! sensor noise — plus an orthographic bird's-eye view for inspection.
//!
//! # Examples
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use tsdx_render::{render_video, RenderConfig};
//! use tsdx_sim::{SamplerConfig, ScenarioSampler};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let generated = ScenarioSampler::new(SamplerConfig::default()).sample(&mut rng);
//! let trajectory = generated.world.simulate(0.1);
//! let video = render_video(&generated.world, &trajectory, &RenderConfig::default(), &mut rng);
//! assert_eq!(video.shape(), &[8, 32, 32]); // [T, H, W]
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bev;
mod camera;
mod raster;
mod video;
mod weather;
mod worldmap;

pub use bev::{render_bev, BevConfig};
pub use camera::Camera;
pub use raster::{actor_intensity, render_frame};
pub use video::{render_video, RenderConfig};
pub use weather::{apply_weather, Weather};
pub use worldmap::{intensity, WorldMap};
