//! # tsdx-sim
//!
//! A 2-D traffic micro-simulator that substitutes for real driving footage:
//! road layouts for every SDL road kind, a kinematic-bicycle ego vehicle
//! tracked by pure pursuit, scripted non-ego actors (vehicles, cyclists,
//! pedestrians), a constraint-aware random scenario sampler with exact SDL
//! ground truth, and a kinematic labeler that cross-validates the sampler.
//!
//! # Examples
//!
//! Sample a scenario, simulate it, and check the labeler agrees:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use tsdx_sim::{infer_ego_maneuver, SamplerConfig, ScenarioSampler};
//!
//! let sampler = ScenarioSampler::new(SamplerConfig::default());
//! let mut rng = StdRng::seed_from_u64(1);
//! let generated = sampler.sample(&mut rng);
//! let trajectory = generated.world.simulate(0.05);
//! let maneuver = infer_ego_maneuver(&trajectory, generated.truth.road);
//! assert_eq!(maneuver, generated.truth.ego);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod actors;
mod behavior;
pub mod geometry;
mod labeler;
mod path;
mod road;
mod scenario_gen;
mod vehicle;
mod world;

pub use actors::{body_size, Actor, ActorState, BodySize};
pub use behavior::SpeedProfile;
pub use labeler::{infer_actor_action, infer_ego_maneuver, relative_position};
pub use path::Path;
pub use road::{Lane, RoadLayout, APPROACH_LEN, HALF_LANE, LANE_WIDTH};
pub use scenario_gen::{ego_maneuvers_for, GeneratedScenario, SamplerConfig, ScenarioSampler};
pub use vehicle::{speed_control, BicycleModel, BicycleState, PurePursuit};
pub use world::{EgoSetup, EgoState, Trajectory, World};
