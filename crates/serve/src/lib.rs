//! Extraction-as-a-service: a fault-hardened, batched HTTP front for
//! [`tsdx_core::ScenarioExtractor`].
//!
//! The build is offline, so the server is hand-rolled over [`std::net`] —
//! no async runtime, no HTTP crate. The design keeps the hot path simple
//! and pushes all cleverness into *robustness*:
//!
//! * **Micro-batching** ([`batcher`]): concurrent `POST /v1/extract`
//!   requests coalesce into one batched encoder forward through
//!   [`ScenarioExtractor::extract_window_batch`], amortizing weight-packing
//!   across clips.
//! * **Multiplexed streaming sessions** ([`sessions`]): `POST /sessions`
//!   opens a server-side [`tsdx_core::StreamState`]; chunk pushes to
//!   `POST /sessions/<id>/frames` flow through the *same* batch queue, and
//!   newly completed time groups from concurrent streams are encoded in
//!   one cross-stream spatial forward ([`tsdx_core::encode_staged`]) —
//!   bit-identical to serving each stream alone. The table is bounded
//!   (typed 429) and idle sessions are evicted after a TTL.
//! * **Bounded admission**: the batch queue has a hard capacity; past it
//!   requests shed with a typed, retryable `429` *before* any model work.
//!   A connection cap sheds with `503` before reading a byte.
//! * **Deadlines**: `X-Deadline-Ms` propagates into the batcher, which
//!   drops entries whose budget an EWMA forward estimate says cannot be
//!   met — shedding beats accepting-then-missing.
//! * **Fault containment** ([`error`], [`http`]): every malformed request,
//!   slow client, disconnect, or handler panic maps to a typed
//!   [`ServeError`] and at worst closes *that* connection. The listener
//!   never dies; `tests/fault_injection.rs` proves it with injected accept
//!   stalls, mid-body disconnects, and handler panics.
//! * **Graceful shutdown**: `POST /admin/shutdown` (or [`Server::shutdown`])
//!   stops admission, answers every queued request, drains in-flight
//!   batches, then joins all threads.
//!
//! ```no_run
//! use tsdx_core::{ModelConfig, ScenarioExtractor, VideoScenarioTransformer};
//! use tsdx_serve::{Server, ServerConfig};
//!
//! let cfg = ModelConfig { frames: 4, height: 16, width: 16, ..ModelConfig::default() };
//! let extractor = ScenarioExtractor::new(VideoScenarioTransformer::new(cfg, 0));
//! let mut server = Server::start(extractor, ServerConfig::default()).unwrap();
//! // Name every run-time switch — the f32 kernel among them: timings from
//! // a CPU that fell back to the portable one are then recognisable as such.
//! println!("serving on http://{} ({})", server.local_addr(), tsdx_core::run_time_switches());
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batcher;
pub mod error;
pub mod http;
pub mod json;
pub mod search;
pub mod server;
pub mod sessions;
pub mod stats;

pub use batcher::{BatchConfig, Batcher, Extraction, StreamAnswer};
pub use error::ServeError;
pub use search::{Hit, SearchService, MAX_SEARCH_K};
pub use server::{Server, ServerConfig};
pub use sessions::{SessionConfig, SessionEntry, SessionManager};
pub use stats::ServeStats;
