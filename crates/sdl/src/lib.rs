//! # tsdx-sdl
//!
//! The Scenario Description Language (SDL): a typed grammar of traffic
//! scenarios — ego maneuver, actor clauses, and road context — together with
//! its canonical text form, label vocabularies for learned extraction,
//! similarity measures, and Scenario2Vector-style embeddings for retrieval.
//!
//! # Examples
//!
//! ```
//! use tsdx_sdl::{parse_scenario, similarity};
//!
//! let a = parse_scenario("ego decelerate-to-stop; pedestrian crossing right; road intersection")?;
//! let b = parse_scenario("ego decelerate-to-stop; pedestrian crossing left; road intersection")?;
//! let sim = similarity(&a, &b);
//! assert!(sim > 0.5 && sim < 1.0); // same ego & road, near-miss on the actor
//! # Ok::<(), tsdx_sdl::ParseScenarioError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
pub mod embed;
mod filter;
mod grammar;
mod nl;
pub mod rank;
mod similarity;
pub mod vocab;

pub use ast::{
    ActorAction, ActorClause, ActorKind, EgoManeuver, ParseTokenError, Position, RoadKind,
    Scenario, ValidateScenarioError, MAX_ACTORS,
};
pub use embed::{dot, embed, embedding_similarity, is_unit_norm, EMBED_DIM};
pub use filter::{ParseFilterError, ScenarioFilter};
pub use grammar::{parse_scenario, ParseScenarioError};
pub use nl::to_sentence;
pub use rank::{rank_order, top_k, TopK};
pub use similarity::{distance, similarity};
