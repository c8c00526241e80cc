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
//!   hold about 94 000 distinct embeddings — in 512-row blocks laid out
//!   `[dim][512]`, so one dimension of a block is 32 cache lines in a row. A
//!   scan reads only the dimensions whose query component is non-zero — at
//!   most ten of the 28 for anything [`tsdx_sdl::embed`] produced — with the
//!   association of [`tsdx_sdl::dot`], and every score still has `dot`'s
//!   bits: a dropped term is `±0` against finite rows, and a block holding a
//!   NaN or an infinity reads every dimension.
//! * **Queries** score each distinct row once and stream the scores into
//!   the total-order [`tsdx_sdl::TopK`] accumulator — one per scan worker,
//!   each scanning a contiguous run of blocks, merged afterwards — under
//!   the row's lowest id, then expand the winners to the ids that carry
//!   them. Top-k answers are the ids and score bits of scoring every id,
//!   identical across worker counts, with an ascending-id tie-break, and a
//!   query allocates O(workers · k) rather than O(n).
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
