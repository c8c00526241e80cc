//! The TCP front: listener, connection handling, routing, and graceful
//! shutdown.
//!
//! One OS thread per live connection (bounded by
//! [`ServerConfig::max_connections`] — past the cap a connection is told
//! `503 busy` and closed without reading a byte), sequential HTTP/1.1
//! keep-alive per connection, and every handler wrapped in `catch_unwind`
//! so a panic answers `500` and closes **that** connection while the
//! listener and every other connection keep going. Slow clients are bounded
//! by socket read/write timeouts. Extraction requests funnel into the
//! [`Batcher`]; admission control and deadlines are enforced there.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tsdx_core::ScenarioExtractor;
use tsdx_tensor::Tensor;

use crate::batcher::{BatchConfig, Batcher};
use crate::error::ServeError;
use crate::http::{self, Head, Response};
use crate::json::{self, Json};
use crate::search::{hits_to_json, SearchService, MAX_SEARCH_K};
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
    /// Propagates bind failures.
    pub fn start(extractor: ScenarioExtractor, cfg: ServerConfig) -> std::io::Result<Server> {
        Server::start_with_search(extractor, None, cfg)
    }

    /// [`Server::start`] plus a scenario corpus served at `POST /search`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
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
            .spawn(move || accept_loop(&listener, &accept_inner))
            .expect("spawn accept loop");
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
        if let Some(ms) = tsdx_tensor::faults::take_accept_stall() {
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

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
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
        let request_index = inner.next_request.fetch_add(1, Ordering::SeqCst);
        let wants_close = head.wants_close();

        // The handler boundary: a panic anywhere in routing answers 500 on
        // this connection and leaves the process serving.
        let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            if tsdx_tensor::faults::handler_panic_at(request_index) {
                panic!("injected fault: handler panic at request {request_index}");
            }
            route(inner, &head, &mut reader, &mut writer, request_index)
        }));
        let mut response = match routed {
            Ok(Ok(response)) => response,
            Ok(Err(e)) => {
                if e.status() < 500 && !matches!(e, ServeError::QueueFull { .. }) {
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
        if inner.shutting_down.load(Ordering::SeqCst) || wants_close {
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

/// Dispatches one parsed request head to its endpoint.
fn route(
    inner: &Arc<Inner>,
    head: &Head,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request_index: u64,
) -> Result<Response, ServeError> {
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/healthz") => Ok(Response::ok("{\"status\":\"ok\"}".into())),
        ("GET", "/readyz") => {
            if inner.shutting_down.load(Ordering::SeqCst) {
                Err(ServeError::ShuttingDown)
            } else {
                Ok(Response::ok(format!(
                    "{{\"ready\":true,\"queue_depth\":{}}}",
                    inner.batcher.depth()
                )))
            }
        }
        ("GET", "/stats" | "/metrics") => {
            Ok(Response::ok(inner.stats.to_json(!inner.shutting_down.load(Ordering::SeqCst))))
        }
        ("POST", "/v1/extract") => extract_endpoint(inner, head, reader, writer, request_index),
        ("POST", "/search") => search_endpoint(inner, head, reader, writer, request_index),
        (_, p) if p == "/sessions" || p.starts_with("/sessions/") => {
            // Fault injection: the session-route handler dies before
            // touching any session state. The connection-boundary
            // catch_unwind turns this into a 500; the listener and every
            // other session must be unaffected.
            #[cfg(feature = "fault-inject")]
            if tsdx_tensor::faults::take_session_route_panic() {
                panic!("injected fault: session route panic at request {request_index}");
            }
            session_route(inner, head, reader, writer, request_index)
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
        ) => Err(ServeError::MethodNotAllowed {
            method: head.method.clone(),
            path: head.path.clone(),
        }),
        (_, path) => Err(ServeError::NotFound { path: path.to_string() }),
    }
}

/// `POST /v1/extract`: read and decode the body, validate, admit, await the
/// batched answer.
fn extract_endpoint(
    inner: &Arc<Inner>,
    head: &Head,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request_index: u64,
) -> Result<Response, ServeError> {
    // Reject before the (possibly large) body upload when already draining.
    if inner.shutting_down.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let budget_ms = match head.header("x-deadline-ms") {
        None => inner.cfg.default_deadline_ms,
        Some(v) => Some(v.parse::<u64>().map_err(|_| ServeError::BadRequest {
            detail: "X-Deadline-Ms must be an integer millisecond budget".into(),
        })?),
    };
    if head.expects_continue() {
        http::write_continue(writer)
            .map_err(|_| ServeError::BadRequest { detail: "client went away".into() })?;
    }
    let body = http::read_body(reader, head, inner.cfg.max_body_bytes)?;
    let video = decode_video(head, &body)?;
    inner.extractor.validate_window(&video)?;

    // The deadline clock starts after upload: the budget covers queueing
    // and inference, not the client's own send rate.
    let deadline = budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let rx = inner.batcher.submit(video, deadline, budget_ms.unwrap_or(0))?;
    let wait = deadline
        .map(|d| d.saturating_duration_since(Instant::now()) + REPLY_SLACK)
        .unwrap_or(REPLY_SLACK);
    let answer = rx.recv_timeout(wait).map_err(|_| ServeError::Internal {
        detail: "batch worker did not answer within the reply bound".into(),
    })??;
    Ok(Response::ok(format!(
        concat!(
            "{{\"scenario\":\"{scenario}\",",
            "\"batch_size\":{batch},\"queued_us\":{queued},\"request\":{index}}}"
        ),
        scenario = json::escape(&answer.scenario.to_string()),
        batch = answer.batch_size,
        queued = answer.queued_us,
        index = request_index,
    )))
}

/// `POST /search`: the `k` most similar indexed scenarios — to an SDL
/// query string (`{"sdl":"...","k":3}`, no model work), or to a clip
/// (extract → embed → query; same body encodings, admission control, and
/// deadline handling as `/v1/extract`, with `k` from the `X-Search-K`
/// header or a `"k"` body field).
fn search_endpoint(
    inner: &Arc<Inner>,
    head: &Head,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request_index: u64,
) -> Result<Response, ServeError> {
    // A server started without an index has no search surface at all.
    let Some(search) = inner.search.as_ref() else {
        return Err(ServeError::NotFound { path: head.path.clone() });
    };
    if inner.shutting_down.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let budget_ms = match head.header("x-deadline-ms") {
        None => inner.cfg.default_deadline_ms,
        Some(v) => Some(v.parse::<u64>().map_err(|_| ServeError::BadRequest {
            detail: "X-Deadline-Ms must be an integer millisecond budget".into(),
        })?),
    };
    if head.expects_continue() {
        http::write_continue(writer)
            .map_err(|_| ServeError::BadRequest { detail: "client went away".into() })?;
    }
    let body = http::read_body(reader, head, inner.cfg.max_body_bytes)?;

    let content_type = head.header("content-type").unwrap_or("application/json");
    let k;
    if content_type.starts_with("application/octet-stream") {
        k = match head.header("x-search-k") {
            None => DEFAULT_SEARCH_K,
            Some(v) => validate_k(v.parse::<f64>().ok())?,
        };
    } else {
        let parsed = json::parse(&body)
            .map_err(|e| ServeError::BadRequest { detail: format!("bad JSON body: {e}") })?;
        k = match parsed.get("k") {
            None => DEFAULT_SEARCH_K,
            Some(j) => validate_k(j.as_num())?,
        };
        // Query-by-SDL: rank against a parsed description, no model work.
        if let Some(sdl) = parsed.get("sdl") {
            let text = sdl.as_str().ok_or_else(|| ServeError::BadRequest {
                detail: "\"sdl\" must be a string of SDL text".into(),
            })?;
            let query = tsdx_sdl::parse_scenario(text)
                .map_err(|e| ServeError::BadRequest { detail: format!("bad SDL query: {e}") })?;
            let hits = search.query(&query, k).map_err(index_internal)?;
            return Ok(Response::ok(format!(
                "{{\"hits\":{hits},\"k\":{k},\"indexed\":{len},\"request\":{request_index}}}",
                hits = hits_to_json(&hits),
                len = search.len(),
            )));
        }
    }

    // Query-by-clip: extract through the batcher (full admission control,
    // deadline gating, and degrade-under-pressure reuse), then rank.
    let video = decode_video(head, &body)?;
    inner.extractor.validate_window(&video)?;
    let deadline = budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let rx = inner.batcher.submit(video, deadline, budget_ms.unwrap_or(0))?;
    let wait = deadline
        .map(|d| d.saturating_duration_since(Instant::now()) + REPLY_SLACK)
        .unwrap_or(REPLY_SLACK);
    let answer = rx.recv_timeout(wait).map_err(|_| ServeError::Internal {
        detail: "batch worker did not answer within the reply bound".into(),
    })??;
    let hits = search.query(&answer.scenario, k).map_err(index_internal)?;
    Ok(Response::ok(format!(
        concat!(
            "{{\"hits\":{hits},\"k\":{k},\"indexed\":{len},\"scenario\":\"{scenario}\",",
            "\"batch_size\":{batch},\"queued_us\":{queued},\"request\":{index}}}"
        ),
        hits = hits_to_json(&hits),
        k = k,
        len = search.len(),
        scenario = json::escape(&answer.scenario.to_string()),
        batch = answer.batch_size,
        queued = answer.queued_us,
        index = request_index,
    )))
}

/// Dispatches the `/sessions` route family.
///
/// * `POST /sessions` — open a session, answer its id;
/// * `POST /sessions/<id>/frames` — push a chunk through the batch queue;
/// * `DELETE /sessions/<id>` — close a session, freeing its slot.
fn session_route(
    inner: &Arc<Inner>,
    head: &Head,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request_index: u64,
) -> Result<Response, ServeError> {
    let method = head.method.as_str();
    let path = head.path.as_str();
    if path == "/sessions" {
        if method != "POST" {
            return Err(ServeError::MethodNotAllowed {
                method: head.method.clone(),
                path: head.path.clone(),
            });
        }
        return create_session_endpoint(inner, request_index);
    }
    let rest = &path["/sessions/".len()..];
    let (id_text, tail) = match rest.split_once('/') {
        None => (rest, None),
        Some((id, tail)) => (id, Some(tail)),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Err(ServeError::NotFound { path: head.path.clone() });
    };
    match (method, tail) {
        ("DELETE", None) => {
            inner.sessions.close(id)?;
            Ok(Response::ok(format!(
                "{{\"session\":{id},\"status\":\"closed\",\"request\":{request_index}}}"
            )))
        }
        (_, None) => Err(ServeError::MethodNotAllowed {
            method: head.method.clone(),
            path: head.path.clone(),
        }),
        ("POST", Some("frames")) => frames_endpoint(inner, head, reader, writer, id, request_index),
        (_, Some("frames")) => Err(ServeError::MethodNotAllowed {
            method: head.method.clone(),
            path: head.path.clone(),
        }),
        _ => Err(ServeError::NotFound { path: head.path.clone() }),
    }
}

/// `POST /sessions`: opens a streaming session sized to the server's model.
fn create_session_endpoint(inner: &Arc<Inner>, request_index: u64) -> Result<Response, ServeError> {
    if inner.shutting_down.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let entry = inner.sessions.create(*inner.extractor.model().config())?;
    let cfg = inner.extractor.model().config();
    Ok(Response::ok(format!(
        concat!(
            "{{\"session\":{id},\"window_frames\":{frames},",
            "\"frame_shape\":[{h},{w}],\"tubelet_t\":{tt},\"request\":{index}}}"
        ),
        id = entry.id(),
        frames = cfg.frames,
        h = cfg.height,
        w = cfg.width,
        tt = cfg.tubelet_t,
        index = request_index,
    )))
}

/// `POST /sessions/<id>/frames`: read and decode a chunk (same body
/// encodings as `/v1/extract`, any frame count), admit it into the mixed
/// batch queue, and answer with the session's current window state. Newly
/// completed time groups are encoded alongside every other stream in the
/// same drain round — one cross-stream spatial forward.
fn frames_endpoint(
    inner: &Arc<Inner>,
    head: &Head,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    id: u64,
    request_index: u64,
) -> Result<Response, ServeError> {
    if inner.shutting_down.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let budget_ms = match head.header("x-deadline-ms") {
        None => inner.cfg.default_deadline_ms,
        Some(v) => Some(v.parse::<u64>().map_err(|_| ServeError::BadRequest {
            detail: "X-Deadline-Ms must be an integer millisecond budget".into(),
        })?),
    };
    if head.expects_continue() {
        http::write_continue(writer)
            .map_err(|_| ServeError::BadRequest { detail: "client went away".into() })?;
    }
    // A torn upload (client disconnect mid-chunk) fails here, before the
    // session is looked up or touched: the stream keeps its pre-push state
    // and the client can resend the whole chunk.
    let body = http::read_body(reader, head, inner.cfg.max_body_bytes)?;
    let chunk = decode_video(head, &body)?;
    let entry = inner.sessions.get(id)?;

    let deadline = budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let rx = inner.batcher.submit_stream(entry, chunk, deadline, budget_ms.unwrap_or(0))?;
    let wait = deadline
        .map(|d| d.saturating_duration_since(Instant::now()) + REPLY_SLACK)
        .unwrap_or(REPLY_SLACK);
    let answer = rx.recv_timeout(wait).map_err(|_| ServeError::Internal {
        detail: "batch worker did not answer within the reply bound".into(),
    })??;
    let scenario = match &answer.scenario {
        Some(s) => format!("\"{}\"", json::escape(&s.to_string())),
        None => "null".into(),
    };
    Ok(Response::ok(format!(
        concat!(
            "{{\"session\":{id},\"groups_new\":{gn},\"frames_seen\":{fs},",
            "\"ready\":{ready},\"scenario\":{scenario},",
            "\"mux_streams\":{ms},\"mux_groups\":{mg},\"queued_us\":{queued},",
            "\"request\":{index}}}"
        ),
        id = answer.session,
        gn = answer.groups_new,
        fs = answer.frames_seen,
        ready = answer.ready,
        scenario = scenario,
        ms = answer.mux_streams,
        mg = answer.mux_groups,
        queued = answer.queued_us,
        index = request_index,
    )))
}

/// Bounds a requested hit count: an integer in `1..=MAX_SEARCH_K`.
fn validate_k(k: Option<f64>) -> Result<usize, ServeError> {
    k.filter(|n| n.fract() == 0.0 && (1.0..=MAX_SEARCH_K as f64).contains(n))
        .map(|n| n as usize)
        .ok_or_else(|| ServeError::BadRequest {
            detail: format!("k must be an integer in 1..={MAX_SEARCH_K}"),
        })
}

/// The index is constructed server-side, so a scan error is our bug, not
/// the client's: surface it as a 500 with the typed detail.
fn index_internal(e: tsdx_index::IndexError) -> ServeError {
    ServeError::Internal { detail: format!("index scan failed: {e}") }
}

/// Decodes a request body into a `[T, H, W]` video tensor.
///
/// Two encodings:
/// * `application/octet-stream` — raw little-endian f32 pixels, shape in an
///   `X-Video-Shape: TxHxW` header (the fast path; the benchmark's `clip_octet` uses it);
/// * JSON (the default) — `{"shape":[T,H,W],"pixels":[...]}`.
fn decode_video(head: &Head, body: &[u8]) -> Result<Tensor, ServeError> {
    let content_type = head.header("content-type").unwrap_or("application/json");
    if content_type.starts_with("application/octet-stream") {
        let shape_header = head.header("x-video-shape").ok_or_else(|| ServeError::BadRequest {
            detail: "octet-stream bodies need an X-Video-Shape: TxHxW header".into(),
        })?;
        let dims: Vec<usize> = shape_header
            .split('x')
            .map(|d| d.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| ServeError::BadRequest {
                detail: "X-Video-Shape must be three integers like 8x32x32".into(),
            })?;
        let [t, h, w] = dims[..] else {
            return Err(ServeError::BadRequest {
                detail: "X-Video-Shape must have exactly three dimensions".into(),
            });
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
        let pixels: Vec<f32> =
            body.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
        Ok(Tensor::from_vec(pixels, &[t, h, w]))
    } else {
        let parsed = json::parse(body)
            .map_err(|e| ServeError::BadRequest { detail: format!("bad JSON body: {e}") })?;
        let dim = |j: &Json| -> Option<usize> {
            let n = j.as_num()?;
            (n.fract() == 0.0 && (0.0..=1e9).contains(&n)).then_some(n as usize)
        };
        let shape: Vec<usize> = parsed
            .get("shape")
            .and_then(Json::as_arr)
            .and_then(|a| a.iter().map(&dim).collect::<Option<Vec<_>>>())
            .ok_or_else(|| ServeError::BadRequest {
                detail: "body needs \"shape\": an array of non-negative integers".into(),
            })?;
        let [t, h, w] = shape[..] else {
            return Err(ServeError::BadRequest {
                detail: "\"shape\" must be exactly [frames, height, width]".into(),
            });
        };
        let numel = checked_numel(t, h, w)?;
        let pixels: Vec<f32> = parsed
            .get("pixels")
            .and_then(Json::as_arr)
            .and_then(|a| {
                a.iter().map(|j| j.as_num().map(|n| n as f32)).collect::<Option<Vec<_>>>()
            })
            .ok_or_else(|| ServeError::BadRequest {
                detail: "body needs \"pixels\": an array of numbers".into(),
            })?;
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
}
