//! # tsdx-index
//!
//! An in-memory index over SDL scenario embeddings, built for the retrieval
//! experiments (Table 3) and `/search` at ROADMAP scale: millions of
//! extracted descriptions and exact brute-force search. It is the
//! workspace's one similarity search.
//!
//! * **Embeddings** come from [`tsdx_sdl::embed`] — L2-normalized, so
//!   similarity is a plain dot product ([`tsdx_sdl::dot`]).
//! * **Storage** keeps each distinct row once. SDL descriptions come from a
//!   closed taxonomy, so a corpus repeats rows: 200 000 random scenarios
//!   hold about 93 000 distinct embeddings. A row is found by an exact key —
//!   the scenario's ego, road and 17 slot counts packed into a `u64`, which
//!   fits because [`tsdx_sdl::Scenario::validate`] allows at most
//!   [`tsdx_sdl::MAX_ACTORS`] clauses — so a repeat is linked without being
//!   embedded. Rows live in the *group* of their ego maneuver and road, in
//!   blocks laid out `[dim][stride]`, so one dimension of a block is a
//!   contiguous run. Each group keeps what bounds its rows' scores: the
//!   largest values of its two key columns and the largest norms.
//! * **Queries** visit the groups by descending score bound and skip every
//!   group whose bound cannot reach the current k-th — exactly, `dot`'s
//!   rounding included. In a visited group a scan reads only the dimensions
//!   whose query component is non-zero and that the group's rows do not all
//!   hold as `+0.0`, with the association of [`tsdx_sdl::dot`], so every
//!   score has `dot`'s bits. Each distinct row is scored once and streamed
//!   into the total-order [`tsdx_sdl::TopK`] accumulator under every id
//!   carrying it. Top-k answers are the ids and score bits of scoring every
//!   id, with an ascending-id tie-break, and a query allocates
//!   O(k + groups + dim) rather than O(n).
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
//! index.push_scenario(&a).expect("taxonomy-valid scenario");
//! index.push_scenario(&b).expect("taxonomy-valid scenario");
//!
//! let hits = index.query_scenario(&a, 1).expect("any scenario is a query");
//! assert_eq!(hits[0].0, 0); // the query itself
//! assert!((hits[0].1 - 1.0).abs() < 1e-5);
//! # Ok::<(), tsdx_sdl::ParseScenarioError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod vector_index;

pub use vector_index::VectorIndex;
