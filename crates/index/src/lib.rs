//! # tsdx-index
//!
//! A vector index over SDL scenario embeddings, saved as shard files,
//! built for the retrieval experiments (Table 3) at ROADMAP scale: millions
//! of extracted descriptions, exact brute-force search, and crash-safe
//! persistence.
//!
//! * **Embeddings** come from [`tsdx_sdl::embed`] — L2-normalized, so
//!   similarity is a plain dot product ([`tsdx_sdl::dot`]).
//! * **Shards** are fixed-stride binary files in the checkpoint-v2
//!   integrity envelope (magic, declared length, CRC32 over rows and over
//!   the file, atomic temp+fsync+rename writes). Torn or bit-flipped
//!   shards load as typed [`IndexError`]s — never a panic, never silently
//!   wrong data.
//! * **In memory** each distinct row is stored once — SDL descriptions come
//!   from a closed taxonomy, so a corpus repeats rows, and 200 000 random
//!   scenarios hold about 94 000 distinct embeddings — in 512-row blocks
//!   laid out `[dim][512]` (the files stay row-major, one row per id;
//!   `save_to` gathers and `load` pushes), so one dimension of a block is 32
//!   cache lines in a row. A scan reads only the dimensions whose query
//!   component is non-zero — at most ten of the 28 for anything
//!   [`tsdx_sdl::embed`] produced — with the association of
//!   [`tsdx_sdl::dot`], and every score still has `dot`'s bits: a dropped
//!   term is `±0` against finite rows, and a block holding a NaN or an
//!   infinity reads every dimension.
//! * **Queries** score each distinct row once and stream the scores into
//!   the total-order [`tsdx_sdl::TopK`] accumulator — one per scan worker,
//!   each scanning a contiguous run of blocks, merged afterwards — under
//!   the row's lowest id, then expand the winners to the ids that carry
//!   them. Top-k answers are the ids and score bits of scoring every id,
//!   identical across worker counts and shard capacities, with an
//!   ascending-id tie-break, and a query allocates O(workers · k) rather
//!   than O(n).
//!
//! # Examples
//!
//! ```
//! use tsdx_index::{IndexConfig, VectorIndex};
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

mod shard;
mod vector_index;

pub use shard::IndexError;
pub use vector_index::{IndexConfig, VectorIndex, DEFAULT_SHARD_CAPACITY};
