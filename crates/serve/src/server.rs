//! The TCP front: listener, connection handling, routing, and graceful
//! shutdown.
//!
//! One OS thread per live connection (bounded by
//! [`ServerConfig::max_connections`] — past the cap a connection is told
//! `503 busy` and closed without reading a byte), sequential HTTP/1.1
//! keep-alive per connection, and every handler wrapped in `catch_unwind`
//! so a panic answers `500` and closes **that** connection while the
//! listener and every other connection keep going. Slow clients are bounded
//! by socket read/write timeouts.
//!
//! Every model-bound POST (`/v1/extract`, `/search` by clip,
//! `/sessions/<id>/frames`) is the same four steps, each written once here:
//! **admit** (`Request::admit`: draining check, `X-Deadline-Ms`,
//! `100-continue`, bounded body read), **decode** (`Body`: the body parsed
//! once), **submit and await** (`submit_and_await`: deadline clock, the
//! [`Batcher`]'s queue — where admission control and deadlines are enforced
//! — and the bounded wait) and **render** (the `*_reply` functions over
//! [`crate::json::Object`]).

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tsdx_core::{ModelConfig, ScenarioExtractor};
use tsdx_tensor::Tensor;

use crate::batcher::{BatchConfig, Batcher, Extraction, StreamAnswer};
use crate::error::ServeError;
use crate::http::{self, Head, Response};
use crate::json::{self, Json, Object};
use crate::search::{hits_to_json, Hit, SearchService, MAX_SEARCH_K};
use crate::sessions::{SessionConfig, SessionManager};
use crate::stats::ServeStats;

/// Longest a handler will wait on the batcher for an answer beyond the
/// request's own deadline. The batcher always replies — this is the
/// never-hang backstop, not a tuning knob.
const REPLY_SLACK: Duration = Duration::from_secs(60);

/// Server tuning. The defaults favor shedding early over queueing deep.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Micro-batching queue tuning.
    pub batch: BatchConfig,
    /// Most simultaneously open connections; the next one is told `503
    /// busy` and closed.
    pub max_connections: usize,
    /// Socket read timeout: a client that stalls longer mid-request gets
    /// `408` and the connection closed.
    pub read_timeout: Duration,
    /// Socket write timeout: a client that stops reading its response this
    /// long has the connection closed.
    pub write_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Deadline applied to requests that do not send `X-Deadline-Ms`.
    /// `None` means such requests never expire.
    pub default_deadline_ms: Option<u64>,
    /// Streaming session table bounds (capacity and idle TTL).
    pub sessions: SessionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batch: BatchConfig::default(),
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_body_bytes: 16 * 1024 * 1024,
            default_deadline_ms: None,
            sessions: SessionConfig::default(),
        }
    }
}

/// Hits served to requests that do not pick a `k` themselves.
const DEFAULT_SEARCH_K: usize = 5;

struct Inner {
    cfg: ServerConfig,
    extractor: Arc<ScenarioExtractor>,
    batcher: Batcher,
    /// Scenario corpus behind `POST /search`; servers started without one
    /// answer `404` there.
    search: Option<Arc<SearchService>>,
    /// Live streaming sessions behind the `/sessions` routes.
    sessions: SessionManager,
    stats: Arc<ServeStats>,
    shutting_down: AtomicBool,
    /// Accepted-request counter; also the index the handler-panic fault
    /// keys on.
    next_request: AtomicU64,
    /// Live connection count, guarded so shutdown can wait for it to reach
    /// zero.
    conns: Mutex<usize>,
    conns_cv: Condvar,
    local_addr: SocketAddr,
}

/// A running scenario-extraction server.
///
/// Start with [`Server::start`], stop with [`Server::shutdown`] (also runs
/// on drop). The listener thread, connection threads, and batch worker are
/// all owned here; nothing outlives the struct.
pub struct Server {
    inner: Arc<Inner>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and batch worker, and returns once the
    /// server is reachable.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and a failure to spawn the accept thread.
    pub fn start(extractor: ScenarioExtractor, cfg: ServerConfig) -> std::io::Result<Server> {
        Server::start_with_search(extractor, None, cfg)
    }

    /// [`Server::start`] plus a scenario corpus served at `POST /search`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and a failure to spawn the accept thread.
    pub fn start_with_search(
        extractor: ScenarioExtractor,
        search: Option<Arc<SearchService>>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let extractor = Arc::new(extractor);
        let stats = Arc::new(ServeStats::default());
        let batcher = Batcher::start(Arc::clone(&extractor), cfg.batch.clone(), Arc::clone(&stats));
        let sessions = SessionManager::new(cfg.sessions.clone(), Arc::clone(&stats));
        let inner = Arc::new(Inner {
            cfg,
            extractor,
            batcher,
            search,
            sessions,
            stats,
            shutting_down: AtomicBool::new(false),
            next_request: AtomicU64::new(0),
            conns: Mutex::new(0),
            conns_cv: Condvar::new(),
            local_addr,
        });
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("tsdx-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_inner))?;
        Ok(Server { inner, accept_thread: Some(accept_thread) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Lifetime counters (shared with the batcher).
    pub fn stats(&self) -> &ServeStats {
        &self.inner.stats
    }

    /// The live streaming-session table behind the `/sessions` routes.
    pub fn sessions(&self) -> &SessionManager {
        &self.inner.sessions
    }

    /// Whether the server is still admitting work.
    pub fn ready(&self) -> bool {
        !self.inner.shutting_down.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, let open connections finish their
    /// current exchange, answer everything already admitted to the batch
    /// queue, then join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.begin_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    /// The shutdown sequence shared by [`Server::shutdown`] and the
    /// `/admin/shutdown` endpoint.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            // Someone else is already draining; the batcher join below is
            // idempotent and makes every caller block until fully drained.
            self.batcher.drain();
            return;
        }
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        // Let in-flight connections finish their exchange. Socket timeouts
        // bound each read/write, so this converges; the extra slack covers
        // a final batched forward.
        let bound = self.cfg.read_timeout + self.cfg.write_timeout + Duration::from_secs(10);
        let deadline = Instant::now() + bound;
        let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        while *conns > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break; // never hang shutdown on a wedged connection
            }
            let (guard, _timeout) =
                self.conns_cv.wait_timeout(conns, left).unwrap_or_else(|e| e.into_inner());
            conns = guard;
        }
        drop(conns);
        // Answer everything already admitted, then stop the worker.
        self.batcher.drain();
    }

    fn connection_opened(&self) -> usize {
        let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        *conns += 1;
        *conns
    }

    fn connection_closed(&self) {
        let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        *conns = conns.saturating_sub(1);
        drop(conns);
        self.conns_cv.notify_all();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    for stream in listener.incoming() {
        if inner.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Fault injection: the listener stalls before handling the next
        // connection (a GC pause, a noisy neighbor). Requests queued behind
        // the stall must still complete.
        #[cfg(feature = "fault-inject")]
        if let Some(ms) = tsdx_tensor::faults::ACCEPT_STALL.take() {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let open = inner.connection_opened();
        if open > inner.cfg.max_connections {
            ServeStats::inc(&inner.stats.shed_busy);
            let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
            let mut stream = stream;
            let busy = ServeError::Busy { limit: inner.cfg.max_connections };
            let _ = http::write_response(&mut stream, &Response::from_error(&busy));
            inner.connection_closed();
            continue;
        }
        let conn_inner = Arc::clone(inner);
        let spawned = std::thread::Builder::new().name("tsdx-serve-conn".into()).spawn(move || {
            handle_connection(&conn_inner, stream);
            conn_inner.connection_closed();
        });
        if spawned.is_err() {
            inner.connection_closed();
        }
    }
}

/// One request on its way through the server: what every route reads, in
/// one place — the one a request id (ROADMAP item 6) would join.
struct Request<'a> {
    inner: &'a Arc<Inner>,
    head: &'a Head,
    reader: &'a mut BufReader<TcpStream>,
    writer: &'a mut TcpStream,
    /// Position in the server's accepted-request order; every reply echoes
    /// it as `"request"`, and the handler-panic fault keys on it.
    index: u64,
    /// Whether a route read the declared body off the stream.
    body_read: bool,
}

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::with_capacity(http::READ_BUFFER_BYTES, read_half);
    let mut writer = stream;

    loop {
        let head = match http::read_head(&mut reader) {
            Ok(Some(head)) => head,
            Ok(None) => return, // clean keep-alive hang-up
            Err(e) => {
                ServeStats::inc(&inner.stats.rejected);
                let _ = http::write_response(&mut writer, &Response::from_error(&e));
                return; // stream position is unknown; never try to resync
            }
        };
        let index = inner.next_request.fetch_add(1, Ordering::SeqCst);
        let mut request = Request {
            inner,
            head: &head,
            reader: &mut reader,
            writer: &mut writer,
            index,
            body_read: false,
        };

        // The handler boundary: a panic anywhere in routing answers 500 on
        // this connection and leaves the process serving.
        let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            if tsdx_tensor::faults::HANDLER_PANIC.take_if(index) {
                panic!("injected fault: handler panic at request {index}");
            }
            route(&mut request)
        }));
        let mut response = match routed {
            Ok(Ok(response)) => response,
            Ok(Err(e)) => {
                // A shed has a counter of its own; `rejected` is the rest
                // of the 4xx: malformed HTTP, bad JSON, invalid video.
                let shed =
                    matches!(e, ServeError::QueueFull { .. } | ServeError::SessionLimit { .. });
                if e.status() < 500 && !shed {
                    ServeStats::inc(&inner.stats.rejected);
                }
                Response::from_error(&e)
            }
            Err(payload) => {
                ServeStats::inc(&inner.stats.panics_caught);
                let detail = crate::batcher::panic_text(payload.as_ref());
                Response::from_error(&ServeError::Internal { detail })
            }
        };
        // A body no route read would be parsed as the next request: the
        // stream is only in sync again past it, so close instead.
        let unread_body = !request.body_read && head.content_length().is_ok_and(|n| n > 0);
        if inner.shutting_down.load(Ordering::SeqCst) || head.wants_close() || unread_body {
            response.close = true;
        }
        if http::write_response(&mut writer, &response).is_err() {
            return; // client went away mid-response
        }
        if response.close {
            return;
        }
    }
}

/// Dispatches one parsed request head to its endpoint, once its body
/// framing is known to be valid (a malformed `Content-Length` is a 400 on
/// every route, not only on those that read a body).
fn route(req: &mut Request) -> Result<Response, ServeError> {
    req.head.content_length()?;
    let inner = req.inner;
    match (req.head.method.as_str(), req.head.path.as_str()) {
        ("GET", "/healthz") => Ok(Response::ok("{\"status\":\"ok\"}".into())),
        ("GET", "/readyz") => {
            if inner.shutting_down.load(Ordering::SeqCst) {
                return Err(ServeError::ShuttingDown);
            }
            let ready = Object::new().raw("ready", true).raw("queue_depth", inner.batcher.depth());
            Ok(Response::ok(ready.finish()))
        }
        ("GET", "/stats" | "/metrics") => {
            Ok(Response::ok(inner.stats.to_json(!inner.shutting_down.load(Ordering::SeqCst))))
        }
        ("POST", "/v1/extract") => extract_endpoint(req),
        ("POST", "/search") => search_endpoint(req),
        (_, p) if p == "/sessions" || p.starts_with("/sessions/") => {
            // Fault injection: the session-route handler dies before
            // touching any session state. The connection-boundary
            // catch_unwind turns this into a 500; the listener and every
            // other session must be unaffected.
            #[cfg(feature = "fault-inject")]
            if tsdx_tensor::faults::SESSION_ROUTE_PANIC.take().is_some() {
                panic!("injected fault: session route panic at request {}", req.index);
            }
            session_route(req)
        }
        ("POST", "/admin/shutdown") => {
            // Drain on a helper thread: this handler's own connection must
            // close for the connection count to reach zero.
            let drain_inner = Arc::clone(inner);
            let _ = std::thread::Builder::new()
                .name("tsdx-serve-shutdown".into())
                .spawn(move || drain_inner.begin_shutdown());
            let mut r = Response::ok("{\"status\":\"draining\"}".into());
            r.status = 202;
            r.close = true;
            Ok(r)
        }
        (
            _,
            "/healthz" | "/readyz" | "/stats" | "/metrics" | "/v1/extract" | "/search"
            | "/admin/shutdown",
        ) => Err(req.method_not_allowed()),
        (_, path) => Err(ServeError::NotFound { path: path.to_string() }),
    }
}

impl Request<'_> {
    /// Step 1 of every model-bound POST — **admit**: refuse while draining
    /// (before the possibly large upload), read the `X-Deadline-Ms` budget,
    /// unblock a client waiting on `100 Continue`, read the bounded body. A
    /// torn upload fails here, before any session or queue slot is touched.
    fn admit(&mut self) -> Result<(Option<u64>, Vec<u8>), ServeError> {
        let inner = self.inner;
        if inner.shutting_down.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let budget_ms = match self.head.header("x-deadline-ms") {
            None => inner.cfg.default_deadline_ms,
            Some(v) => Some(v.parse::<u64>().map_err(|_| ServeError::BadRequest {
                detail: "X-Deadline-Ms must be an integer millisecond budget".into(),
            })?),
        };
        if self.head.expects_continue() {
            http::write_continue(self.writer)
                .map_err(|_| ServeError::BadRequest { detail: "client went away".into() })?;
        }
        let body = http::read_body(self.reader, self.head, inner.cfg.max_body_bytes)?;
        self.body_read = true;
        Ok((budget_ms, body))
    }

    fn method_not_allowed(&self) -> ServeError {
        let head = self.head;
        ServeError::MethodNotAllowed { method: head.method.clone(), path: head.path.clone() }
    }

    fn not_found(&self) -> ServeError {
        ServeError::NotFound { path: self.head.path.clone() }
    }
}

/// Step 3 — **submit and await**: start the deadline clock (after the
/// upload: the budget covers queueing and inference, not the client's send
/// rate), hand the job to the batcher through `submit`, wait for its answer.
fn submit_and_await<T>(
    budget_ms: Option<u64>,
    submit: impl FnOnce(Option<Instant>, u64) -> Result<Receiver<Result<T, ServeError>>, ServeError>,
) -> Result<T, ServeError> {
    let deadline = budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let rx = submit(deadline, budget_ms.unwrap_or(0))?;
    let left = deadline.map_or(Duration::ZERO, |d| d.saturating_duration_since(Instant::now()));
    rx.recv_timeout(left + REPLY_SLACK).map_err(|_| ServeError::Internal {
        detail: "batch worker did not answer within the reply bound".into(),
    })?
}

/// `POST /v1/extract`: admit, decode and validate the clip, await the
/// batched answer.
fn extract_endpoint(req: &mut Request) -> Result<Response, ServeError> {
    let (budget_ms, body) = req.admit()?;
    let answer = extract(req, budget_ms, decode_video(req.head, &body)?)?;
    Ok(Response::ok(extract_reply(&answer, req.index)))
}

/// Validates one window and runs it through the batcher.
fn extract(req: &Request, budget_ms: Option<u64>, video: Tensor) -> Result<Extraction, ServeError> {
    req.inner.extractor.validate_window(&video)?;
    submit_and_await(budget_ms, |deadline, ms| req.inner.batcher.submit(video, deadline, ms))
}

/// Step 4 — **render**, here and in the `*_reply` functions below: the body
/// as an ordered [`Object`]. These three members say how an extraction was
/// served, wherever one is answered.
fn extraction_members(out: Object, answer: &Extraction) -> Object {
    out.string("scenario", &answer.scenario.to_string())
        .raw("batch_size", answer.batch_size)
        .raw("queued_us", answer.queued_us)
}

fn extract_reply(answer: &Extraction, request_index: u64) -> String {
    extraction_members(Object::new(), answer).raw("request", request_index).finish()
}

/// `POST /search`: the `k` most similar indexed scenarios — to an SDL
/// query string (`{"sdl":"...","k":3}`, no model work), or to a clip
/// (extract → embed → query; same body encodings, admission control, and
/// deadline handling as `/v1/extract`, with `k` from the `X-Search-K`
/// header or a `"k"` body field).
fn search_endpoint(req: &mut Request) -> Result<Response, ServeError> {
    // A server started without an index has no search surface at all.
    let Some(search) = req.inner.search.as_ref() else { return Err(req.not_found()) };
    let (budget_ms, body) = req.admit()?;
    let body = Body::decode(req.head, &body)?;
    let k = match &body {
        Body::Octets(_) => req.head.header("x-search-k").map(|v| v.parse::<f64>().ok()),
        Body::Json(parsed) => parsed.get("k").map(Json::as_num),
    };
    let k = k.map_or(Ok(DEFAULT_SEARCH_K), validate_k)?;
    let reply = |hits: &[Hit], answer| search_reply(hits, k, search.len(), answer, req.index);

    // Query-by-SDL: rank against a parsed description, no model work.
    if let Body::Json(parsed) = &body {
        if let Some(sdl) = parsed.get("sdl") {
            let text = sdl.as_str().ok_or_else(|| ServeError::BadRequest {
                detail: "\"sdl\" must be a string of SDL text".into(),
            })?;
            let query = tsdx_sdl::parse_scenario(text)
                .map_err(|e| ServeError::BadRequest { detail: format!("bad SDL query: {e}") })?;
            let Ok(hits) = search.query(&query, k);
            return Ok(Response::ok(reply(&hits, None)));
        }
    }

    // Query-by-clip: extract through the batcher (full admission control
    // and deadline gating), then rank.
    let answer = extract(req, budget_ms, body.video(req.head)?)?;
    let Ok(hits) = search.query(&answer.scenario, k);
    Ok(Response::ok(reply(&hits, Some(&answer))))
}

/// A query by clip also says how its extraction was served.
fn search_reply(
    hits: &[Hit],
    k: usize,
    indexed: u64,
    answer: Option<&Extraction>,
    request_index: u64,
) -> String {
    let out = Object::new().raw("hits", hits_to_json(hits)).raw("k", k).raw("indexed", indexed);
    let out = match answer {
        Some(answer) => extraction_members(out, answer),
        None => out,
    };
    out.raw("request", request_index).finish()
}

/// Dispatches the `/sessions` route family.
///
/// * `POST /sessions` — open a session, answer its id;
/// * `POST /sessions/<id>/frames` — push a chunk through the batch queue;
/// * `DELETE /sessions/<id>` — close a session, freeing its slot.
fn session_route(req: &mut Request) -> Result<Response, ServeError> {
    let method = req.head.method.as_str();
    let path = req.head.path.as_str();
    if path == "/sessions" {
        if method != "POST" {
            return Err(req.method_not_allowed());
        }
        return create_session_endpoint(req);
    }
    let rest = &path["/sessions/".len()..];
    let (id_text, tail) = match rest.split_once('/') {
        None => (rest, None),
        Some((id, tail)) => (id, Some(tail)),
    };
    let Ok(id) = id_text.parse::<u64>() else { return Err(req.not_found()) };
    match (method, tail) {
        ("DELETE", None) => {
            req.inner.sessions.close(id)?;
            Ok(Response::ok(session_closed_reply(id, req.index)))
        }
        ("POST", Some("frames")) => frames_endpoint(req, id),
        (_, None | Some("frames")) => Err(req.method_not_allowed()),
        _ => Err(req.not_found()),
    }
}

fn session_closed_reply(id: u64, request_index: u64) -> String {
    let out = Object::new().raw("session", id).string("status", "closed");
    out.raw("request", request_index).finish()
}

/// `POST /sessions`: opens a streaming session sized to the server's model.
fn create_session_endpoint(req: &Request) -> Result<Response, ServeError> {
    if req.inner.shutting_down.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let cfg = req.inner.extractor.model().config();
    let entry = req.inner.sessions.create(*cfg)?;
    Ok(Response::ok(session_opened_reply(entry.id(), cfg, req.index)))
}

fn session_opened_reply(id: u64, cfg: &ModelConfig, request_index: u64) -> String {
    Object::new()
        .raw("session", id)
        .raw("window_frames", cfg.frames)
        .raw("frame_shape", json::array([cfg.height, cfg.width]))
        .raw("tubelet_t", cfg.tubelet_t)
        .raw("request", request_index)
        .finish()
}

/// `POST /sessions/<id>/frames`: admit and decode a chunk (same body
/// encodings as `/v1/extract`, any frame count), push it through the mixed
/// batch queue, and answer with the session's current window state. Newly
/// completed time groups are encoded alongside every other stream in the
/// same drain round — one cross-stream spatial forward.
fn frames_endpoint(req: &mut Request, id: u64) -> Result<Response, ServeError> {
    let (budget_ms, body) = req.admit()?;
    let chunk = decode_video(req.head, &body)?;
    // Looked up only after the upload: a torn one leaves the stream in its
    // pre-push state and the client can resend the whole chunk.
    let entry = req.inner.sessions.get(id)?;
    let answer = submit_and_await(budget_ms, |deadline, ms| {
        req.inner.batcher.submit_stream(entry, chunk, deadline, ms)
    })?;
    Ok(Response::ok(frames_reply(&answer, req.index)))
}

fn frames_reply(answer: &StreamAnswer, request_index: u64) -> String {
    let out = Object::new()
        .raw("session", answer.session)
        .raw("groups_new", answer.groups_new)
        .raw("frames_seen", answer.frames_seen)
        .raw("ready", answer.ready);
    let out = match &answer.scenario {
        Some(s) => out.string("scenario", &s.to_string()),
        None => out.raw("scenario", "null"),
    };
    out.raw("mux_streams", answer.mux_streams)
        .raw("mux_groups", answer.mux_groups)
        .raw("queued_us", answer.queued_us)
        .raw("request", request_index)
        .finish()
}

/// Bounds a requested hit count: an integer in `1..=MAX_SEARCH_K`.
fn validate_k(k: Option<f64>) -> Result<usize, ServeError> {
    k.filter(|n| n.fract() == 0.0 && (1.0..=MAX_SEARCH_K as f64).contains(n))
        .map(|n| n as usize)
        .ok_or_else(|| ServeError::BadRequest {
            detail: format!("k must be an integer in 1..={MAX_SEARCH_K}"),
        })
}

/// Step 2 — **decode**: a request body after its one parse. Two encodings:
/// * `application/octet-stream` — raw little-endian f32 pixels, shape in an
///   `X-Video-Shape: TxHxW` header (the fast path; the benchmark's
///   `clip_octet` uses it);
/// * JSON (the default) — `{"shape":[T,H,W],"pixels":[...]}`, or for
///   `/search` `{"sdl":"...","k":3}`.
enum Body<'a> {
    Octets(&'a [u8]),
    Json(Json),
}

impl<'a> Body<'a> {
    fn decode(head: &Head, body: &'a [u8]) -> Result<Body<'a>, ServeError> {
        let content_type = head.header("content-type").unwrap_or("application/json");
        if content_type.starts_with("application/octet-stream") {
            return Ok(Body::Octets(body));
        }
        json::parse(body)
            .map(Body::Json)
            .map_err(|e| ServeError::BadRequest { detail: format!("bad JSON body: {e}") })
    }

    /// The `[T, H, W]` video tensor the body carries.
    fn video(&self, head: &Head) -> Result<Tensor, ServeError> {
        let bad = |detail: &str| ServeError::BadRequest { detail: detail.into() };
        match self {
            Body::Octets(body) => {
                let dims: Vec<usize> = head
                    .header("x-video-shape")
                    .ok_or_else(|| bad("octet-stream bodies need an X-Video-Shape: TxHxW header"))?
                    .split('x')
                    .map(|d| d.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("X-Video-Shape must be three integers like 8x32x32"))?;
                let [t, h, w] = dims[..] else {
                    return Err(bad("X-Video-Shape must have exactly three dimensions"));
                };
                let numel = checked_numel(t, h, w)?;
                if body.len() != numel * 4 {
                    return Err(ServeError::BadRequest {
                        detail: format!(
                            "body is {} bytes but {t}x{h}x{w} f32 pixels need {}",
                            body.len(),
                            numel * 4
                        ),
                    });
                }
                let pixels: Vec<f32> = body
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                Ok(Tensor::from_vec(pixels, &[t, h, w]))
            }
            Body::Json(parsed) => {
                let dim = |j: &Json| -> Option<usize> {
                    let n = j.as_num()?;
                    (n.fract() == 0.0 && (0.0..=1e9).contains(&n)).then_some(n as usize)
                };
                let shape: Vec<usize> = parsed
                    .get("shape")
                    .and_then(Json::as_arr)
                    .and_then(|a| a.iter().map(&dim).collect::<Option<Vec<_>>>())
                    .ok_or_else(|| {
                        bad("body needs \"shape\": an array of non-negative integers")
                    })?;
                let [t, h, w] = shape[..] else {
                    return Err(bad("\"shape\" must be exactly [frames, height, width]"));
                };
                let numel = checked_numel(t, h, w)?;
                let pixels: Vec<f32> = parsed
                    .get("pixels")
                    .and_then(Json::as_arr)
                    .and_then(|a| {
                        a.iter().map(|j| j.as_num().map(|n| n as f32)).collect::<Option<Vec<_>>>()
                    })
                    .ok_or_else(|| bad("body needs \"pixels\": an array of numbers"))?;
                if pixels.len() != numel {
                    return Err(ServeError::BadRequest {
                        detail: format!(
                            "\"pixels\" has {} values but shape {t}x{h}x{w} needs {numel}",
                            pixels.len()
                        ),
                    });
                }
                Ok(Tensor::from_vec(pixels, &[t, h, w]))
            }
        }
    }
}

/// Decodes a request body that can only be a clip.
fn decode_video(head: &Head, body: &[u8]) -> Result<Tensor, ServeError> {
    Body::decode(head, body)?.video(head)
}

fn checked_numel(t: usize, h: usize, w: usize) -> Result<usize, ServeError> {
    t.checked_mul(h)
        .and_then(|th| th.checked_mul(w))
        .filter(|&n| n <= (1 << 30))
        .ok_or_else(|| ServeError::BadRequest { detail: "video shape is absurdly large".into() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head_with(headers: &[(&str, &str)]) -> Head {
        Head {
            method: "POST".into(),
            path: "/v1/extract".into(),
            headers: headers.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        }
    }

    #[test]
    fn octet_stream_bodies_decode_with_shape_header() {
        let pixels: Vec<u8> =
            [0.5f32, -1.0, 2.0, 0.0].iter().flat_map(|f| f.to_le_bytes()).collect();
        let head =
            head_with(&[("content-type", "application/octet-stream"), ("x-video-shape", "1x2x2")]);
        let t = decode_video(&head, &pixels).unwrap();
        assert_eq!(t.shape(), &[1, 2, 2]);
        assert_eq!(t.data(), &[0.5, -1.0, 2.0, 0.0]);

        let wrong_len = decode_video(&head, &pixels[..12]);
        assert!(matches!(wrong_len, Err(ServeError::BadRequest { .. })));
        let no_shape = head_with(&[("content-type", "application/octet-stream")]);
        assert!(matches!(decode_video(&no_shape, &pixels), Err(ServeError::BadRequest { .. })));
        let bad_shape =
            head_with(&[("content-type", "application/octet-stream"), ("x-video-shape", "1x-2x2")]);
        assert!(matches!(decode_video(&bad_shape, &pixels), Err(ServeError::BadRequest { .. })));
    }

    #[test]
    fn json_bodies_decode_and_misshapes_are_typed() {
        let head = head_with(&[]);
        let t = decode_video(&head, br#"{"shape":[1,2,2],"pixels":[1,2,3,4]}"#).unwrap();
        assert_eq!(t.shape(), &[1, 2, 2]);
        for bad in [
            &b"not json"[..],
            br#"{"shape":[1,2],"pixels":[1,2]}"#,
            br#"{"shape":[1,2,2],"pixels":[1,2,3]}"#,
            br#"{"shape":[1,2,2.5],"pixels":[1,2,3,4,5]}"#,
            br#"{"pixels":[1,2,3,4]}"#,
            br#"{"shape":[1,2,2]}"#,
            br#"{"shape":[99999999,99999999,99999999],"pixels":[]}"#,
        ] {
            let e = decode_video(&head, bad);
            assert!(matches!(e, Err(ServeError::BadRequest { .. })), "{e:?}");
        }
    }

    #[test]
    fn numel_overflow_is_rejected() {
        assert!(checked_numel(usize::MAX, 2, 2).is_err());
        assert!(checked_numel(1 << 29, 4, 4).is_err());
        assert_eq!(checked_numel(8, 32, 32).unwrap(), 8192);
    }

    /// The wire format, byte for byte: key order, nesting and number
    /// formatting of every 200 body, the error envelope and `/stats`. The
    /// literals were produced by the `format!` bodies this writer replaced.
    #[test]
    fn reply_bodies_are_byte_stable() {
        use crate::batcher::{Extraction, StreamAnswer};
        use crate::search::Hit;
        use tsdx_core::{ExtractError, ModelConfig};
        use tsdx_tensor::dial::Precision;

        let scenario = tsdx_sdl::parse_scenario("ego turn-left; road intersection").unwrap();
        let extraction = Extraction {
            scenario: scenario.clone(),
            plane: Precision::F32,
            queued_us: 41,
            batch_size: 3,
        };
        assert_eq!(
            extract_reply(&extraction, 7),
            r#"{"scenario":"ego turn-left; road intersection","batch_size":3,"queued_us":41,"request":7}"#
        );
        let hits = [
            Hit { id: 2, similarity: 1.0, sdl: "ego turn-left; road intersection".into() },
            Hit { id: 0, similarity: 0.25, sdl: "a \"b\"\n".into() },
            Hit { id: 9, similarity: f32::NAN, sdl: String::new() },
        ];
        assert_eq!(
            search_reply(&hits, 3, 200_000, None, 8),
            concat!(
                r#"{"hits":[{"id":2,"similarity":1,"sdl":"ego turn-left; road intersection"},"#,
                r#"{"id":0,"similarity":0.25,"sdl":"a \"b\"\n"},"#,
                r#"{"id":9,"similarity":null,"sdl":""}],"k":3,"indexed":200000,"request":8}"#
            )
        );
        assert_eq!(
            search_reply(&hits[..1], 1, 3, Some(&extraction), 9),
            concat!(
                r#"{"hits":[{"id":2,"similarity":1,"sdl":"ego turn-left; road intersection"}],"#,
                r#""k":1,"indexed":3,"scenario":"ego turn-left; road intersection","#,
                r#""batch_size":3,"queued_us":41,"request":9}"#
            )
        );
        assert_eq!(
            search_reply(&[], 5, 0, None, 0),
            r#"{"hits":[],"k":5,"indexed":0,"request":0}"#
        );
        let cfg = ModelConfig {
            frames: 4,
            height: 16,
            width: 24,
            tubelet_t: 2,
            ..ModelConfig::default()
        };
        assert_eq!(
            session_opened_reply(5, &cfg, 10),
            r#"{"session":5,"window_frames":4,"frame_shape":[16,24],"tubelet_t":2,"request":10}"#
        );
        let mut push = StreamAnswer {
            session: 5,
            groups_new: 2,
            frames_seen: 4,
            ready: true,
            scenario: Some(scenario),
            plane: Precision::F32,
            queued_us: 12,
            mux_streams: 2,
            mux_groups: 4,
        };
        assert_eq!(
            frames_reply(&push, 11),
            concat!(
                r#"{"session":5,"groups_new":2,"frames_seen":4,"ready":true,"#,
                r#""scenario":"ego turn-left; road intersection","#,
                r#""mux_streams":2,"mux_groups":4,"queued_us":12,"request":11}"#
            )
        );
        (push.ready, push.scenario) = (false, None);
        assert_eq!(
            frames_reply(&push, 12),
            concat!(
                r#"{"session":5,"groups_new":2,"frames_seen":4,"ready":false,"scenario":null,"#,
                r#""mux_streams":2,"mux_groups":4,"queued_us":12,"request":12}"#
            )
        );
        assert_eq!(session_closed_reply(5, 13), r#"{"session":5,"status":"closed","request":13}"#);

        // One variant per status code: `kind`, `status`, `retryable`, `detail`.
        for (e, kind_status_retryable, detail) in [
            (
                ServeError::BadRequest { detail: "bad \"JSON\"\n".into() },
                r#""bad_request","status":400,"retryable":false"#,
                r#"malformed request: bad \"JSON\"\n"#,
            ),
            (
                ServeError::NotFound { path: "/nope".into() },
                r#""not_found","status":404,"retryable":false"#,
                "no route for /nope",
            ),
            (
                ServeError::MethodNotAllowed { method: "PUT".into(), path: "/search".into() },
                r#""method_not_allowed","status":405,"retryable":false"#,
                "PUT is not allowed on /search",
            ),
            (
                ServeError::ReadTimeout,
                r#""read_timeout","status":408,"retryable":true"#,
                "client was too slow delivering the request",
            ),
            (
                ServeError::PayloadTooLarge { limit: 16 },
                r#""payload_too_large","status":413,"retryable":false"#,
                "request body exceeds the 16-byte limit",
            ),
            (
                ServeError::InvalidInput(ExtractError::Empty),
                r#""empty","status":422,"retryable":false"#,
                "invalid video: video has no frames",
            ),
            (
                ServeError::SessionLimit { capacity: 2 },
                r#""session_limit","status":429,"retryable":true"#,
                "session table is full (2 live streams); retry with backoff",
            ),
            (
                ServeError::Internal { detail: "boom".into() },
                r#""internal","status":500,"retryable":false"#,
                "internal error: boom",
            ),
            (
                ServeError::DeadlineExceeded { budget_ms: 40 },
                r#""deadline_exceeded","status":503,"retryable":true"#,
                "cannot finish within the 40ms deadline; rejected unstarted",
            ),
        ] {
            assert_eq!(
                e.to_json(),
                format!(r#"{{"error":{{"kind":{kind_status_retryable},"detail":"{detail}"}}}}"#)
            );
        }

        let stats = ServeStats::default();
        stats.record_mux_batch(3, 7);
        let counters = concat!(
            r#""accepted":0,"completed":0,"shed_queue_full":0,"shed_deadline":0,"shed_busy":0,"#,
            r#""rejected":0,"panics_caught":0,"non_finite_outputs":0,"batches":0,"#,
            r#""batched_clips":0,"queue_depth":0,"#,
            r#""active_sessions":0,"sessions_opened":0,"sessions_closed":0,"evicted_sessions":0,"#,
            r#""shed_sessions":0,"stream_pushes":0,"mux":{"batches":1,"groups":7,"occupancy":"#,
            r#"{"1":0,"2":0,"3_4":1,"5_8":0,"9_16":0,"17_plus":0}},"#,
        );
        assert_eq!(
            stats.to_json(true),
            format!(
                r#"{{"ready":true,{counters}"cache":{{"group_hits":0,"group_misses":0,"window_hits":0}},"stages":{{}}}}"#
            )
        );
        let scope = tsdx_tensor::metrics::stage_scope();
        tsdx_tensor::metrics::observe_ns("stage/decode", 3_000);
        tsdx_tensor::metrics::observe_ns("stage/serve_batch", 7_000);
        tsdx_tensor::metrics::stage_count("stage/cache_miss", 2);
        stats.publish_worker_metrics(scope.snapshot());
        assert_eq!(
            stats.to_json(false),
            format!(
                concat!(
                    r#"{{"ready":false,{}"cache":{{"group_hits":0,"group_misses":2,"window_hits":0}},"#,
                    r#""stages":{{"stage/decode":{{"count":1,"mean_us":3,"p50_us":3,"p99_us":3}},"#,
                    r#""stage/serve_batch":{{"count":1,"mean_us":7,"p50_us":6,"p99_us":6}}}}}}"#
                ),
                counters
            )
        );
    }
}
