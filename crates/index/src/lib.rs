//! # tsdx-index
//!
//! An in-memory vector index over SDL scenario embeddings, built for the
//! retrieval experiments (Table 3) at ROADMAP scale: millions of extracted
//! descriptions and exact brute-force search.
//!
//! * **Embeddings** come from [`tsdx_sdl::embed`] — L2-normalized, so
//!   similarity is a plain dot product ([`tsdx_sdl::dot`]).
//! * **Storage** keeps each distinct row once — SDL descriptions come from a
//!   closed taxonomy, so a corpus repeats rows, and 200 000 random scenarios
//!   hold about 94 000 distinct embeddings — in the *group* named by its
//!   first two slots that are not `+0.0` (for an SDL embedding, its ego
//!   maneuver and road), in blocks laid out `[dim][stride]`, so one dimension
//!   of a block is a contiguous run. Each group keeps what bounds its rows'
//!   scores: the range of its two key columns and the largest norms.
//! * **Queries** visit the groups by descending score bound and skip every
//!   group whose bound cannot reach the current k-th — exactly, `dot`'s
//!   rounding included. In a visited group a scan reads only the dimensions
//!   whose query component is non-zero and that the group's rows do not all
//!   hold as `+0.0`, with the association of [`tsdx_sdl::dot`], so every
//!   score has `dot`'s bits (a block holding a NaN or an infinity reads every
//!   dimension). Each distinct row is scored once and streamed into the
//!   total-order [`tsdx_sdl::TopK`] accumulator under every id carrying it.
//!   Top-k answers are the ids and score bits of scoring every id, with an
//!   ascending-id tie-break, and a query allocates O(k + groups + dim)
//!   rather than O(n).
//!
//! # Examples
//!
//! ```
//! use tsdx_index::VectorIndex;
//! use tsdx_sdl::parse_scenario;
//!
//! let mut index = VectorIndex::default();
//! let a = parse_scenario("ego cruise; vehicle leading ahead; road straight")?;
//! let b = parse_scenario("ego decelerate-to-stop; pedestrian crossing; road intersection")?;
//! index.push_scenario(&a).expect("default index uses EMBED_DIM");
//! index.push_scenario(&b).expect("default index uses EMBED_DIM");
//!
//! let hits = index.query_scenario(&a, 1).expect("query dim matches");
//! assert_eq!(hits[0].0, 0); // the query itself
//! assert!((hits[0].1 - 1.0).abs() < 1e-5);
//! # Ok::<(), tsdx_sdl::ParseScenarioError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod vector_index;

use std::error::Error;
use std::fmt;

pub use vector_index::VectorIndex;

/// Error returned by [`VectorIndex`] pushes and queries.
#[derive(Debug)]
#[non_exhaustive]
pub enum IndexError {
    /// A vector's dimensionality conflicts with the index stride.
    DimMismatch {
        /// Stride the index was built with.
        expected: usize,
        /// Dimensionality found.
        found: usize,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::DimMismatch { expected, found } => {
                write!(f, "index dim mismatch: index stride is {expected}, vector has {found}")
            }
        }
    }
}

impl Error for IndexError {}
