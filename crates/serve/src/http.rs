//! Hand-rolled HTTP/1.1 framing over any `BufRead`/`Write` pair.
//!
//! The build is offline (no tokio/hyper), and the subset a batched
//! inference server needs is small: request line + headers +
//! `Content-Length` bodies in, status + JSON out, sequential keep-alive.
//! Everything here is bounded — line lengths, header counts, body sizes —
//! so no request shape can make the server allocate or wait without limit;
//! malformed bytes produce a typed [`ServeError`], never a panic or a hang.
//! Working over traits instead of `TcpStream` keeps the parser unit-testable
//! against in-memory byte slices (`tests/http_errors.rs` fuzzes it).

use std::io::{self, BufRead, Write};

use crate::error::ServeError;

/// Longest accepted request line, in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted header line, in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Capacity of each connection's read buffer. The requests the server is
/// for — an 8×32×32 raw-f32 clip (32 KiB) or a 2-frame stream push
/// (8 KiB), head included — then arrive whole in one `read`; at the
/// standard 8 KiB buffer both take two, the body's tail bypassing the buffer.
pub const READ_BUFFER_BYTES: usize = 64 * 1024;

/// A parsed request head: everything before the body.
#[derive(Debug, Clone)]
pub struct Head {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any `?query` stripped.
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
}

impl Head {
    /// First value of header `name` (lowercase), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The declared body length.
    ///
    /// # Errors
    ///
    /// `BadRequest` when a value is anything but ASCII digits (`+5` too),
    /// when two `Content-Length` headers disagree (a peer or proxy framing
    /// by the other one would desynchronize the stream), or when a
    /// `Transfer-Encoding` is declared (chunked bodies are unsupported —
    /// rejecting them outright is what keeps body reads bounded).
    pub fn content_length(&self) -> Result<usize, ServeError> {
        if self.header("transfer-encoding").is_some() {
            return Err(ServeError::BadRequest {
                detail: "transfer-encoding is not supported; send Content-Length".into(),
            });
        }
        let bad = |detail: &str| ServeError::BadRequest { detail: detail.into() };
        let mut declared = None;
        for (_, v) in self.headers.iter().filter(|(k, _)| k == "content-length") {
            // `str::parse` alone would take a leading `+`.
            if !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad("bad Content-Length"));
            }
            let n = v.parse::<usize>().map_err(|_| bad("bad Content-Length"))?;
            if declared.is_some_and(|first| first != n) {
                return Err(bad("conflicting Content-Length headers"));
            }
            declared = Some(n);
        }
        Ok(declared.unwrap_or(0))
    }

    /// Whether the client asked for the connection to close after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Whether the client is waiting for `100 Continue` before sending the
    /// body (curl does this for large uploads).
    pub fn expects_continue(&self) -> bool {
        self.header("expect").is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
    }
}

/// Maps an I/O failure during request reading to the client-visible error:
/// timeouts get their own status (the client was too slow), everything else
/// is a malformed/aborted request.
fn io_error(e: io::Error, what: &'static str) -> ServeError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ServeError::ReadTimeout,
        _ => ServeError::BadRequest { detail: format!("{what}: {e}") },
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes, stripping the
/// terminator and any trailing `\r`. `Ok(None)` is clean EOF before the
/// first byte (a keep-alive client hanging up between requests).
fn read_line_bounded(
    r: &mut impl BufRead,
    max: usize,
    what: &'static str,
) -> Result<Option<Vec<u8>>, ServeError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = r.fill_buf().map_err(|e| io_error(e, what))?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(ServeError::BadRequest { detail: format!("{what}: truncated line") })
            };
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if line.len() + pos > max {
                return Err(ServeError::BadRequest { detail: format!("{what}: line too long") });
            }
            line.extend_from_slice(&buf[..pos]);
            r.consume(pos + 1);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(line));
        }
        line.extend_from_slice(buf);
        let n = buf.len();
        r.consume(n);
        if line.len() > max {
            return Err(ServeError::BadRequest { detail: format!("{what}: line too long") });
        }
    }
}

/// Reads and parses one request head.
///
/// `Ok(None)` means the client closed the connection cleanly before
/// sending anything — the keep-alive loop ends there.
///
/// # Errors
///
/// [`ServeError::BadRequest`] for any malformed or truncated head,
/// [`ServeError::ReadTimeout`] when the socket read timeout fires.
pub fn read_head(r: &mut impl BufRead) -> Result<Option<Head>, ServeError> {
    let Some(line) = read_line_bounded(r, MAX_REQUEST_LINE, "request line")? else {
        return Ok(None);
    };
    let line = String::from_utf8(line)
        .map_err(|_| ServeError::BadRequest { detail: "request line is not UTF-8".into() })?;
    let mut parts = line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(ServeError::BadRequest {
                detail: "request line must be 'METHOD /path HTTP/1.x'".into(),
            })
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::BadRequest { detail: format!("unsupported version {version}") });
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ServeError::BadRequest { detail: "bad method token".into() });
    }
    let path = target.split('?').next().unwrap_or(target);
    if !path.starts_with('/') {
        return Err(ServeError::BadRequest { detail: "target must be an absolute path".into() });
    }

    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line_bounded(r, MAX_HEADER_LINE, "header")? else {
            return Err(ServeError::BadRequest { detail: "truncated headers".into() });
        };
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(ServeError::BadRequest { detail: "too many headers".into() });
        }
        let line = String::from_utf8(line)
            .map_err(|_| ServeError::BadRequest { detail: "header is not UTF-8".into() })?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServeError::BadRequest { detail: "header without ':'".into() });
        };
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(ServeError::BadRequest { detail: "bad header name".into() });
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Some(Head { method: method.to_string(), path: path.to_string(), headers }))
}

/// Reads the request body declared by `head`, enforcing `max_body`.
///
/// # Errors
///
/// [`ServeError::PayloadTooLarge`] past the limit,
/// [`ServeError::ReadTimeout`] when the client stalls mid-body, and
/// [`ServeError::BadRequest`] when the client disconnects before delivering
/// the declared length (always a typed outcome — a truncated upload can
/// never wedge a handler or reach the model).
pub fn read_body(
    r: &mut impl BufRead,
    head: &Head,
    max_body: usize,
) -> Result<Vec<u8>, ServeError> {
    let len = head.content_length()?;
    if len > max_body {
        return Err(ServeError::PayloadTooLarge { limit: max_body });
    }
    // Fault injection: the client vanishes after N bytes of body.
    #[cfg(feature = "fault-inject")]
    let len_available = tsdx_tensor::faults::BODY_DISCONNECT.take().map_or(len, |cut| cut.min(len));
    #[cfg(not(feature = "fault-inject"))]
    let len_available = len;

    let mut body = vec![0u8; len_available];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ServeError::ReadTimeout,
        _ => ServeError::BadRequest { detail: "client disconnected mid-body".into() },
    })?;
    if len_available < len {
        return Err(ServeError::BadRequest { detail: "client disconnected mid-body".into() });
    }
    Ok(body)
}

/// The reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body (every endpoint speaks JSON).
    pub body: String,
    /// Extra headers (`Retry-After`, ...).
    pub extra: Vec<(&'static str, String)>,
    /// Whether to announce and perform a connection close.
    pub close: bool,
}

impl Response {
    /// A 200 with the given JSON body.
    pub fn ok(body: String) -> Self {
        Response { status: 200, body, extra: Vec::new(), close: false }
    }

    /// The response for a failed request: the error's stable status and
    /// JSON body, a `Retry-After` hint on retryable sheds, and a close on
    /// errors that leave the stream unsynchronized (we cannot know where
    /// the next request would start after a malformed or truncated one).
    pub fn from_error(e: &ServeError) -> Self {
        let mut extra = Vec::new();
        if e.retryable() {
            extra.push(("Retry-After", "1".to_string()));
        }
        let close = matches!(
            e,
            ServeError::BadRequest { .. }
                | ServeError::ReadTimeout
                | ServeError::PayloadTooLarge { .. }
                | ServeError::Internal { .. }
                | ServeError::Busy { .. }
        );
        Response { status: e.status(), body: e.to_json(), extra, close }
    }
}

/// Writes `resp` in full (status line, headers, body) with **one**
/// `write_all`: head and body are rendered into one buffer first. On a
/// `TCP_NODELAY` socket two writes are two segments, and a client reading
/// the reply wakes for each; one write is one segment for any reply up to
/// the MSS.
///
/// # Errors
///
/// Propagates socket write failures; the caller treats any of them as the
/// client having gone away.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(160 + resp.body.len());
    // Writing into a `String` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.body.len()
    );
    for (k, v) in &resp.extra {
        let _ = write!(out, "{k}: {v}\r\n");
    }
    if resp.close {
        out.push_str("connection: close\r\n");
    }
    out.push_str("\r\n");
    out.push_str(&resp.body);
    w.write_all(out.as_bytes())?;
    w.flush()
}

/// Writes the interim `100 Continue` that unblocks clients sending
/// `Expect: 100-continue`.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_continue(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn head_of(raw: &str) -> Result<Option<Head>, ServeError> {
        read_head(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_full_head() {
        let h = head_of("POST /v1/extract?x=1 HTTP/1.1\r\nHost: a\r\nX-Deadline-Ms: 250\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(h.method, "POST");
        assert_eq!(h.path, "/v1/extract");
        assert_eq!(h.header("x-deadline-ms"), Some("250"));
        assert!(!h.wants_close());
        assert!(!h.expects_continue());
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_typed() {
        assert!(head_of("").unwrap().is_none());
        assert!(matches!(head_of("GARBAGE\r\n\r\n"), Err(ServeError::BadRequest { .. })));
        assert!(matches!(head_of("GET /x SPDY/3\r\n\r\n"), Err(ServeError::BadRequest { .. })));
        assert!(matches!(head_of("GET x HTTP/1.1\r\n\r\n"), Err(ServeError::BadRequest { .. })));
        assert!(matches!(
            head_of("GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ServeError::BadRequest { .. })
        ));
        // Truncated: head ends before the blank line.
        assert!(matches!(
            head_of("GET / HTTP/1.1\r\nHost: a\r\n"),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn bounds_are_enforced() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE + 1));
        assert!(matches!(head_of(&long), Err(ServeError::BadRequest { .. })));
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(head_of(&many), Err(ServeError::BadRequest { .. })));
    }

    #[test]
    fn body_respects_declared_length_and_limit() {
        let raw = "POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nhelloEXTRA";
        let mut r = BufReader::new(raw.as_bytes());
        let h = read_head(&mut r).unwrap().unwrap();
        assert_eq!(read_body(&mut r, &h, 16).unwrap(), b"hello");
        assert!(matches!(read_body(&mut r, &h, 4), Err(ServeError::PayloadTooLarge { .. })));

        let truncated = "POST / HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort";
        let mut r = BufReader::new(truncated.as_bytes());
        let h = read_head(&mut r).unwrap().unwrap();
        assert!(matches!(read_body(&mut r, &h, 64), Err(ServeError::BadRequest { .. })));

        // Unframeable: chunked, two lengths that disagree, a length that is
        // not digits only.
        for framing in [
            "transfer-encoding: chunked",
            "content-length: 5\r\ncontent-length: 50",
            "content-length: +5",
        ] {
            let raw = format!("POST / HTTP/1.1\r\n{framing}\r\n\r\nhello");
            let mut r = BufReader::new(raw.as_bytes());
            let h = read_head(&mut r).unwrap().unwrap();
            assert!(
                matches!(read_body(&mut r, &h, 64), Err(ServeError::BadRequest { .. })),
                "{framing}"
            );
        }
        // The same length twice is one length.
        let raw = "POST / HTTP/1.1\r\ncontent-length: 5\r\nContent-Length: 5\r\n\r\nhello";
        let mut r = BufReader::new(raw.as_bytes());
        let h = read_head(&mut r).unwrap().unwrap();
        assert_eq!(read_body(&mut r, &h, 16).unwrap(), b"hello");
    }

    #[test]
    fn responses_frame_correctly() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::ok("{\"a\":1}".into())).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));

        let mut out = Vec::new();
        let shed = ServeError::QueueFull { capacity: 8 };
        write_response(&mut out, &Response::from_error(&shed)).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("\"kind\":\"queue_full\""));
    }

    /// Keeps what is written and counts the `write` calls that deliver it.
    struct CountingWriter(Vec<u8>, usize);

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.1 += 1;
            self.0.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_leaves_in_one_write() {
        let mut large = Response::ok(format!("{{\"pad\":\"{}\"}}", "x".repeat(9 * 1024)));
        large.extra.push(("Retry-After", "1".into()));
        let shed = Response::from_error(&ServeError::QueueFull { capacity: 8 });
        let mut closing = Response::ok("{}".into());
        closing.close = true;
        for resp in [large, shed, closing] {
            let mut w = CountingWriter(Vec::new(), 0);
            write_response(&mut w, &resp).unwrap();
            assert_eq!(w.1, 1, "status {} close {}", resp.status, resp.close);
            assert!(w.0.ends_with(format!("\r\n\r\n{}", resp.body).as_bytes()));
        }
    }

    /// Hands out all it still holds on every `read`, counting the calls.
    struct CountingReader<'a>(&'a [u8], usize);

    impl io::Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 += 1;
            io::Read::read(&mut self.0, buf)
        }
    }

    #[test]
    fn a_clip_or_a_push_arrives_in_one_read() {
        for (path, shape, frames) in
            [("/v1/extract", "8x32x32", 8), ("/sessions/1/frames", "2x32x32", 2)]
        {
            let len = frames * 32 * 32 * 4;
            let mut bytes = format!(
                "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/octet-stream\r\n\
                 x-video-shape: {shape}\r\ncontent-length: {len}\r\n\r\n"
            )
            .into_bytes();
            bytes.resize(bytes.len() + len, 7);
            let mut r = BufReader::with_capacity(READ_BUFFER_BYTES, CountingReader(&bytes, 0));
            let head = read_head(&mut r).unwrap().unwrap();
            assert_eq!(read_body(&mut r, &head, 1 << 20).unwrap(), vec![7; len]);
            assert_eq!(r.get_ref().1, 1, "{path}");
        }
    }
}
