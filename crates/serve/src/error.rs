//! The typed request-failure taxonomy and its stable HTTP mapping.
//!
//! Every way a request can fail has exactly one [`ServeError`] variant, one
//! stable status code, and one stable machine-readable `kind` string —
//! clients can dispatch on either without parsing prose. The mapping is
//! pinned by `tests/http_errors.rs`; changing a code or kind is a breaking
//! API change.

use std::error::Error;
use std::fmt;

use tsdx_core::ExtractError;

use crate::json::Object;

/// A failed request, as seen by one client.
///
/// The split mirrors the server's decision points: parse-time rejections
/// (`BadRequest`..`PayloadTooLarge`), admission-control sheds (`QueueFull`,
/// `Busy`, `ShuttingDown`), deadline enforcement (`DeadlineExceeded`),
/// input validation (`InvalidInput`), and the never-crash backstop
/// (`Internal`). Load sheds are **pre-acceptance**: a shed request has done
/// no model work and holds no queue slot, so retrying is always safe.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request line, headers, or body could not be parsed (400).
    BadRequest {
        /// What was malformed.
        detail: String,
    },
    /// No route matches the request path (404).
    NotFound {
        /// The path that matched nothing.
        path: String,
    },
    /// The path exists but not for this method (405).
    MethodNotAllowed {
        /// The offending method.
        method: String,
        /// The path it was tried on.
        path: String,
    },
    /// The client took longer than the read timeout to deliver its request
    /// (408). Slow clients cannot hold a handler hostage.
    ReadTimeout,
    /// The declared or actual body size exceeds the server limit (413).
    PayloadTooLarge {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// The video failed model-side validation (422); wraps the typed
    /// [`ExtractError`] so every variant keeps its identity on the wire.
    InvalidInput(ExtractError),
    /// The admission queue is full (429) — the canonical backpressure
    /// signal. Retry after a backoff.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The session table is full (429): every slot holds a live stream.
    /// Retry after a backoff, or after closing a stream you own.
    SessionLimit {
        /// The configured session capacity.
        capacity: usize,
    },
    /// No live session has this id (404): never created, already closed,
    /// or evicted after its idle TTL.
    UnknownSession {
        /// The id that matched nothing.
        id: u64,
    },
    /// The connection cap is reached (503): the listener accepted, said so,
    /// and hung up without reading the request.
    Busy {
        /// The configured connection cap.
        limit: usize,
    },
    /// The request cannot make its deadline (503): rejected *before* the
    /// batch forward rather than after wasting one.
    DeadlineExceeded {
        /// Milliseconds of budget the request arrived with.
        budget_ms: u64,
    },
    /// The server is draining for shutdown and admits no new work (503).
    ShuttingDown,
    /// A handler panicked or another invariant broke (500). The connection
    /// closes; the listener and every other connection are unaffected.
    Internal {
        /// Diagnostic detail (panic payload text).
        detail: String,
    },
}

impl ServeError {
    /// The stable HTTP status code for this failure.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest { .. } => 400,
            ServeError::NotFound { .. } => 404,
            ServeError::MethodNotAllowed { .. } => 405,
            ServeError::ReadTimeout => 408,
            ServeError::PayloadTooLarge { .. } => 413,
            ServeError::InvalidInput(_) => 422,
            ServeError::QueueFull { .. } | ServeError::SessionLimit { .. } => 429,
            ServeError::UnknownSession { .. } => 404,
            ServeError::Busy { .. } | ServeError::DeadlineExceeded { .. } => 503,
            ServeError::ShuttingDown => 503,
            ServeError::Internal { .. } => 500,
        }
    }

    /// The stable machine-readable discriminant for this failure. For
    /// `InvalidInput` this is the [`extract_error_kind`] of the wrapped
    /// validation error, so clients see *which* way the video was bad.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::NotFound { .. } => "not_found",
            ServeError::MethodNotAllowed { .. } => "method_not_allowed",
            ServeError::ReadTimeout => "read_timeout",
            ServeError::PayloadTooLarge { .. } => "payload_too_large",
            ServeError::InvalidInput(e) => extract_error_kind(e),
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::SessionLimit { .. } => "session_limit",
            ServeError::UnknownSession { .. } => "unknown_session",
            ServeError::Busy { .. } => "busy",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Internal { .. } => "internal",
        }
    }

    /// Whether the client may blindly retry (sheds and timeouts: the server
    /// did no work) versus must change the request first (4xx validation).
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ServeError::QueueFull { .. }
                | ServeError::SessionLimit { .. }
                | ServeError::Busy { .. }
                | ServeError::DeadlineExceeded { .. }
                | ServeError::ShuttingDown
                | ServeError::ReadTimeout
        )
    }

    /// The JSON error body sent to the client:
    /// `{"error":{"kind":...,"status":...,"retryable":...,"detail":...}}`.
    pub fn to_json(&self) -> String {
        let error = Object::new()
            .string("kind", self.kind())
            .raw("status", self.status())
            .raw("retryable", self.retryable())
            .string("detail", &self.to_string());
        Object::new().raw("error", error).finish()
    }
}

/// The stable wire `kind` for each [`ExtractError`] variant.
///
/// Kept exhaustive over today's variants with a deliberate fallback:
/// `ExtractError` is `#[non_exhaustive]`, and a new variant must degrade to
/// a generic-but-still-422 kind rather than break the server.
pub fn extract_error_kind(e: &ExtractError) -> &'static str {
    match e {
        ExtractError::BadRank { .. } => "bad_rank",
        ExtractError::BadShape { .. } => "bad_shape",
        ExtractError::NonFinite { .. } => "non_finite",
        ExtractError::Empty => "empty",
        ExtractError::TooShort { .. } => "too_short",
        ExtractError::BadFrameShape { .. } => "bad_frame_shape",
        ExtractError::NonFiniteOutput => "internal",
        _ => "invalid_input",
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest { detail } => write!(f, "malformed request: {detail}"),
            ServeError::NotFound { path } => write!(f, "no route for {path}"),
            ServeError::MethodNotAllowed { method, path } => {
                write!(f, "{method} is not allowed on {path}")
            }
            ServeError::ReadTimeout => write!(f, "client was too slow delivering the request"),
            ServeError::PayloadTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            ServeError::InvalidInput(e) => write!(f, "invalid video: {e}"),
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue is full ({capacity} waiting); retry with backoff")
            }
            ServeError::SessionLimit { capacity } => {
                write!(f, "session table is full ({capacity} live streams); retry with backoff")
            }
            ServeError::UnknownSession { id } => {
                write!(f, "no live session {id} (closed, evicted, or never created)")
            }
            ServeError::Busy { limit } => {
                write!(f, "connection limit ({limit}) reached; retry with backoff")
            }
            ServeError::DeadlineExceeded { budget_ms } => {
                write!(f, "cannot finish within the {budget_ms}ms deadline; rejected unstarted")
            }
            ServeError::ShuttingDown => write!(f, "server is draining for shutdown"),
            ServeError::Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::InvalidInput(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExtractError> for ServeError {
    /// A malformed input is the client's (422); a forward that overflowed
    /// is the server's (500 `internal`): the input passed validation.
    fn from(e: ExtractError) -> Self {
        match e {
            ExtractError::NonFiniteOutput => ServeError::Internal { detail: e.to_string() },
            e => ServeError::InvalidInput(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_errors_are_retryable_and_validation_is_not() {
        assert!(ServeError::QueueFull { capacity: 4 }.retryable());
        assert!(ServeError::SessionLimit { capacity: 4 }.retryable());
        assert!(!ServeError::UnknownSession { id: 9 }.retryable());
        assert!(ServeError::ShuttingDown.retryable());
        assert!(!ServeError::InvalidInput(ExtractError::Empty).retryable());
        assert!(!ServeError::BadRequest { detail: "x".into() }.retryable());
    }

    #[test]
    fn json_bodies_carry_kind_and_status() {
        let e = ServeError::DeadlineExceeded { budget_ms: 40 };
        let j = e.to_json();
        assert!(j.contains("\"kind\":\"deadline_exceeded\""), "{j}");
        assert!(j.contains("\"status\":503"), "{j}");
        assert!(j.contains("\"retryable\":true"), "{j}");
    }
}
