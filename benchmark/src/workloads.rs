//! The five workloads: fixtures built from the seed, one closed-loop op
//! each, and the reference every reply is checked against.
//!
//! References are computed in set-up through a *different* path than the
//! one served: the single-window session path (`extract_checked`) against
//! the served batched `predict` path, a solo `StreamSession` replay against
//! the multiplexed session route, and an in-process `SearchService::query`
//! on the typed scenario against the HTTP/JSON/SDL-text route.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsdx_core::{ModelConfig, ScenarioExtractor};
use tsdx_data::{generate_dataset, DatasetConfig};
use tsdx_sdl::{vocab, ActorClause, EgoManeuver, Position, RoadKind, Scenario, MAX_ACTORS};
use tsdx_serve::json::{self, Json};
use tsdx_serve::{SearchService, ServeStats, Server, ServerConfig};
use tsdx_tensor::Tensor;

use crate::client::{request_bytes, Conn, Phases};
use crate::replay::{self, Part};
use crate::trace::Tracer;

/// Clips (or SDL queries) per workload: ops cycle through the pool, so no
/// request repeats the previous one.
pub const POOL: usize = 64;
/// Scenarios behind `/search`.
pub const CORPUS_ROWS: usize = 200_000;
/// Hits asked for per search.
pub const SEARCH_K: usize = 10;
/// Clips per `bulk_batch8` call.
pub const BULK_BATCH: usize = 8;

/// Workload names, in the order rounds interleave them.
pub const NAMES: [&str; 5] =
    ["clip_octet", "clip_json", "stream_pair", "search_sdl", "bulk_batch8"];

/// Fields of a reply the traced pass aggregates.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplyFields {
    /// `queued_us`: enqueue to answer, as the batcher reports it.
    pub queued_us: f64,
    /// Requests that shared the forward: `batch_size` of a clip reply,
    /// `mux_streams` of a push reply.
    pub batch_size: f64,
}

/// One workload: a fixture plus the closed-loop op over it.
pub trait Workload {
    /// Name as listed in `BENCHMARK.json`.
    fn name(&self) -> &'static str;
    /// Clips, pushes or queries completed by one op.
    fn items_per_op(&self) -> usize;
    /// Opens this round's connections (fresh per round: the server answers
    /// a keep-alive connection left idle past its 5 s read timeout with
    /// `408` and closes it).
    fn connect(&mut self) -> io::Result<()>;
    /// Drops the round's connections.
    fn disconnect(&mut self);
    /// Runs op number `i` and checks every reply against the reference.
    /// Returns the op's latency; the check itself is outside it. With a
    /// tracer, records the client-side spans and keeps the reply fields.
    fn op(&mut self, i: usize, tracer: Option<&mut Tracer>) -> Result<Duration, String>;
    /// Walks `part` of op `i` in-process, stage by stage, through the
    /// crates' public functions, one span per call.
    fn replay(&mut self, part: Part, i: usize, tracer: &mut Tracer);
    /// Counters of the server under load, when the workload has one.
    fn server_stats(&self) -> Option<&ServeStats>;
    /// Reply fields kept by traced ops since the last call.
    fn take_reply_fields(&mut self) -> Vec<ReplyFields>;
    /// Rates measured while the fixture was built: `(metric, value)`.
    fn setup_rates(&self) -> Vec<(&'static str, f64)>;
    /// Spatial and temporal batch sizes of the model forward this workload
    /// runs (`[b, 17, 64]` and `[b, 5, 64]` token blocks); `None` when the
    /// model is not on its path.
    fn kernel_batches(&self) -> Option<(usize, usize)>;
}

/// Builds workload `name` from `seed`.
pub fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "clip_octet" => Box::new(ClipHttp::new("clip_octet", false, seed)),
        "clip_json" => Box::new(ClipHttp::new("clip_json", true, seed)),
        "stream_pair" => Box::new(StreamPair::new(seed)),
        "search_sdl" => Box::new(SearchSdl::new(seed)),
        "bulk_batch8" => Box::new(Bulk::new(seed)),
        other => panic!("unknown workload {other}"),
    }
}

/// The evaluation model, untrained: timing does not depend on the weights.
fn extractor(seed: u64) -> ScenarioExtractor {
    ScenarioExtractor::untrained(ModelConfig::default(), seed)
}

/// `POOL` rendered clips and the rate they were generated at. `lane` keeps
/// the workloads' pools apart under one seed.
fn clip_pool(seed: u64, lane: u64) -> (Vec<Tensor>, f64) {
    let t0 = Instant::now();
    let cfg = DatasetConfig {
        n_clips: POOL,
        base_seed: seed.wrapping_mul(1_000_003).wrapping_add(lane * POOL as u64),
        ..DatasetConfig::default()
    };
    let videos: Vec<Tensor> = generate_dataset(&cfg).into_iter().map(|c| c.video).collect();
    (videos, POOL as f64 / t0.elapsed().as_secs_f64())
}

fn le_bytes(pixels: &[f32]) -> Vec<u8> {
    pixels.iter().flat_map(|f| f.to_le_bytes()).collect()
}

fn octet_request(path: &str, shape: &str, pixels: &[f32]) -> Vec<u8> {
    let headers = [("content-type", "application/octet-stream"), ("x-video-shape", shape)];
    request_bytes("POST", path, &headers, &le_bytes(pixels))
}

fn parse_reply(status: u16, body: &[u8]) -> Result<Json, String> {
    if status != 200 {
        return Err(format!("status {status}: {}", String::from_utf8_lossy(body)));
    }
    json::parse(body)
        .map_err(|e| format!("reply is not JSON ({e}): {}", String::from_utf8_lossy(body)))
}

fn num(reply: &Json, key: &str) -> f64 {
    reply.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

fn check_scenario(reply: &Json, expected: Option<&str>) -> Result<(), String> {
    let got = reply.get("scenario").and_then(Json::as_str);
    if got == expected {
        Ok(())
    } else {
        Err(format!("scenario {got:?} differs from the reference {expected:?}"))
    }
}

fn record_exchange(t: &mut Tracer, workload: &'static str, i: usize, start: Instant, p: &Phases) {
    let spans = [
        ("http_request", start, p.done),
        ("client.send", start, p.sent),
        ("client.wait", p.sent, p.first_byte),
        ("client.read", p.first_byte, p.done),
    ];
    t.record_request(workload, i as u32, &spans);
}

fn connection(conn: &mut Option<Conn>) -> Result<&mut Conn, String> {
    conn.as_mut().ok_or_else(|| "no connection".to_string())
}

// ---------------------------------------------------------------- clips --

/// `clip_octet` and `clip_json`: one connection, `POST /v1/extract`.
pub struct ClipHttp {
    pub(crate) name: &'static str,
    pub(crate) json: bool,
    server: Server,
    addr: SocketAddr,
    pub(crate) extractor: ScenarioExtractor,
    pub(crate) videos: Vec<Tensor>,
    pub(crate) requests: Vec<Vec<u8>>,
    expected: Vec<String>,
    clips_per_s: f64,
    conn: Option<Conn>,
    body: Vec<u8>,
    fields: Vec<ReplyFields>,
    pub(crate) replay: Option<replay::ClipReplay>,
}

impl ClipHttp {
    fn new(name: &'static str, json: bool, seed: u64) -> ClipHttp {
        let (videos, clips_per_s) = clip_pool(seed, 0);
        let extractor = extractor(seed);
        let requests = videos
            .iter()
            .map(|v| {
                let pixels = v.to_vec();
                if json {
                    let text: Vec<String> = pixels.iter().map(f32::to_string).collect();
                    let body = format!("{{\"shape\":[8,32,32],\"pixels\":[{}]}}", text.join(","));
                    request_bytes("POST", "/v1/extract", &[], body.as_bytes())
                } else {
                    octet_request("/v1/extract", "8x32x32", &pixels)
                }
            })
            .collect();
        let expected = videos
            .iter()
            .map(|v| {
                extractor.extract_checked(v).expect("rendered clips are well-formed").to_string()
            })
            .collect();
        let server =
            Server::start(extractor.clone(), ServerConfig::default()).expect("bind loopback");
        let addr = server.local_addr();
        ClipHttp {
            name,
            json,
            server,
            addr,
            extractor,
            videos,
            requests,
            expected,
            clips_per_s,
            conn: None,
            body: Vec::new(),
            fields: Vec::new(),
            replay: None,
        }
    }
}

impl Workload for ClipHttp {
    fn name(&self) -> &'static str {
        self.name
    }

    fn items_per_op(&self) -> usize {
        1
    }

    fn connect(&mut self) -> io::Result<()> {
        self.conn = Some(Conn::open(self.addr)?);
        Ok(())
    }

    fn disconnect(&mut self) {
        self.conn = None;
    }

    fn op(&mut self, i: usize, tracer: Option<&mut Tracer>) -> Result<Duration, String> {
        let k = i % POOL;
        let conn = connection(&mut self.conn)?;
        let start = Instant::now();
        let (status, phases) =
            conn.exchange(&self.requests[k], &mut self.body).map_err(|e| e.to_string())?;
        let latency = phases.done - start;
        let reply = parse_reply(status, &self.body)?;
        check_scenario(&reply, Some(&self.expected[k]))?;
        if let Some(t) = tracer {
            record_exchange(t, self.name, i, start, &phases);
            self.fields.push(ReplyFields {
                queued_us: num(&reply, "queued_us"),
                batch_size: num(&reply, "batch_size"),
            });
        }
        Ok(latency)
    }

    fn replay(&mut self, part: Part, i: usize, tracer: &mut Tracer) {
        replay::clip(self, part, i, tracer);
    }

    fn server_stats(&self) -> Option<&ServeStats> {
        Some(self.server.stats())
    }

    fn take_reply_fields(&mut self) -> Vec<ReplyFields> {
        std::mem::take(&mut self.fields)
    }

    fn setup_rates(&self) -> Vec<(&'static str, f64)> {
        vec![("data.clips_per_s", self.clips_per_s)]
    }

    fn kernel_batches(&self) -> Option<(usize, usize)> {
        Some((4, 1))
    }
}

// -------------------------------------------------------------- streams --

/// Sessions (and connections) of `stream_pair`.
pub const STREAMS: usize = 2;

/// `stream_pair`: one thread, two connections, two sessions; an op pushes
/// one 2-frame group to both sessions back to back, then reads both
/// replies. Session `s` streams clips `s * POOL/2 ..` of the pool end to
/// end, forever: push `n` carries group `n % groups`, and from the fourth
/// push on the expected scenario depends only on `n % groups`.
pub struct StreamPair {
    server: Server,
    addr: SocketAddr,
    pub(crate) extractor: ScenarioExtractor,
    /// `chunks[s][g]`: group `g` of session `s`'s stream, two frames.
    pub(crate) chunks: [Vec<Tensor>; STREAMS],
    /// `requests[s][g]`: the push of `chunks[s][g]`.
    pub(crate) requests: [Vec<Vec<u8>>; STREAMS],
    /// `expected[s][g]`: the scenario after a push of group `g` once the
    /// window is full.
    expected: [Vec<String>; STREAMS],
    /// Ops completed so far: both sessions have taken this many pushes.
    pushes: usize,
    clips_per_s: f64,
    conns: [Option<Conn>; STREAMS],
    bodies: [Vec<u8>; STREAMS],
    fields: Vec<ReplyFields>,
    pub(crate) replay: Option<replay::StreamReplay>,
}

impl StreamPair {
    fn new(seed: u64) -> StreamPair {
        let (videos, clips_per_s) = clip_pool(seed, 1);
        let extractor = extractor(seed);
        let cfg = *extractor.model().config();
        let group_len = cfg.tubelet_t * cfg.height * cfg.width;
        let window = cfg.n_time();
        let server =
            Server::start(extractor.clone(), ServerConfig::default()).expect("bind loopback");
        let addr = server.local_addr();

        let mut setup_conn = Conn::open(addr).expect("connect to own server");
        let mut body = Vec::new();
        let mut chunks: [Vec<Tensor>; STREAMS] = Default::default();
        let mut requests: [Vec<Vec<u8>>; STREAMS] = Default::default();
        let mut expected: [Vec<String>; STREAMS] = Default::default();
        for s in 0..STREAMS {
            setup_conn.send(&request_bytes("POST", "/sessions", &[], b"")).expect("open session");
            let status = setup_conn.recv(&mut body).expect("open session");
            let reply = parse_reply(status, &body).expect("open session");
            let path = format!("/sessions/{}/frames", num(&reply, "session") as u64);

            let pixels: Vec<f32> = videos[s * POOL / STREAMS..(s + 1) * POOL / STREAMS]
                .iter()
                .flat_map(|v| v.to_vec())
                .collect();
            let shape = [cfg.tubelet_t, cfg.height, cfg.width];
            chunks[s] = pixels
                .chunks_exact(group_len)
                .map(|g| Tensor::from_vec(g.to_vec(), &shape))
                .collect();
            requests[s] =
                chunks[s].iter().map(|c| octet_request(&path, "2x32x32", &c.to_vec())).collect();

            // Solo replay: after the first lap the window wraps, so push
            // `groups + j` (j < window - 1) fixes the reference of group j.
            let mut solo = extractor.open_stream();
            let mut refs = vec![String::new(); chunks[s].len()];
            for n in 0..chunks[s].len() + window - 1 {
                let g = n % chunks[s].len();
                solo.push_frames(&chunks[s][g]).expect("pooled frames are well-formed");
                if solo.ready() {
                    refs[g] = solo.describe().expect("window is full").to_string();
                }
            }
            expected[s] = refs;
        }
        StreamPair {
            server,
            addr,
            extractor,
            chunks,
            requests,
            expected,
            pushes: 0,
            clips_per_s,
            conns: Default::default(),
            bodies: Default::default(),
            fields: Vec::new(),
            replay: None,
        }
    }

    /// Groups per lap of one session's stream.
    pub(crate) fn groups(&self) -> usize {
        self.requests[0].len()
    }
}

impl Workload for StreamPair {
    fn name(&self) -> &'static str {
        "stream_pair"
    }

    fn items_per_op(&self) -> usize {
        STREAMS
    }

    fn connect(&mut self) -> io::Result<()> {
        for conn in &mut self.conns {
            *conn = Some(Conn::open(self.addr)?);
        }
        Ok(())
    }

    fn disconnect(&mut self) {
        self.conns = Default::default();
    }

    fn op(&mut self, i: usize, tracer: Option<&mut Tracer>) -> Result<Duration, String> {
        // The sessions outlive rounds, so the group to push follows the
        // sessions' own push count, not the round's op number.
        let n = self.pushes;
        let g = n % self.groups();
        let window = self.extractor.model().config().n_time();
        let start = Instant::now();
        for (conn, requests) in self.conns.iter_mut().zip(&self.requests) {
            connection(conn)?.send(&requests[g]).map_err(|e| e.to_string())?;
        }
        let sent = Instant::now();
        let mut statuses = [0u16; STREAMS];
        let mut first_byte = sent;
        for (s, (conn, body)) in self.conns.iter_mut().zip(&mut self.bodies).enumerate() {
            statuses[s] = connection(conn)?.recv(body).map_err(|e| e.to_string())?;
            if s == 0 {
                first_byte = Instant::now();
            }
        }
        let done = Instant::now();
        // Both pushes were accepted or the sessions are out of step for
        // good; count them only once both replies are in.
        self.pushes += 1;
        for (s, status) in statuses.into_iter().enumerate() {
            let reply = parse_reply(status, &self.bodies[s])?;
            let expected = (n + 1 >= window).then(|| self.expected[s][g].as_str());
            check_scenario(&reply, expected)?;
            if tracer.is_some() {
                self.fields.push(ReplyFields {
                    queued_us: num(&reply, "queued_us"),
                    batch_size: num(&reply, "mux_streams"),
                });
            }
        }
        if let Some(t) = tracer {
            // `client.wait` ends when the first session's reply is in,
            // `client.read` when the second is.
            record_exchange(t, "stream_pair", i, start, &Phases { sent, first_byte, done });
        }
        Ok(done - start)
    }

    fn replay(&mut self, part: Part, i: usize, tracer: &mut Tracer) {
        replay::stream(self, part, i, tracer);
    }

    fn server_stats(&self) -> Option<&ServeStats> {
        Some(self.server.stats())
    }

    fn take_reply_fields(&mut self) -> Vec<ReplyFields> {
        std::mem::take(&mut self.fields)
    }

    fn setup_rates(&self) -> Vec<(&'static str, f64)> {
        vec![("data.clips_per_s", self.clips_per_s)]
    }

    fn kernel_batches(&self) -> Option<(usize, usize)> {
        Some((STREAMS, 1))
    }
}

// --------------------------------------------------------------- search --

/// One random taxonomy-valid scenario.
fn random_scenario(rng: &mut StdRng) -> Scenario {
    let ego = EgoManeuver::from_index(rng.random_range(0..EgoManeuver::COUNT));
    let road = RoadKind::from_index(rng.random_range(0..RoadKind::COUNT));
    let actors = (0..rng.random_range(0..=MAX_ACTORS))
        .map(|_| {
            let (kind, action) =
                vocab::EVENT_CLASSES[rng.random_range(0..vocab::EVENT_CLASSES.len())];
            let position = rng
                .random_bool(0.5)
                .then(|| Position::from_index(rng.random_range(0..Position::COUNT)));
            ActorClause { kind, action, position }
        })
        .collect();
    Scenario { ego, actors, road }
}

/// `search_sdl`: one connection, `POST /search` with an SDL query.
pub struct SearchSdl {
    server: Server,
    addr: SocketAddr,
    pub(crate) service: Arc<SearchService>,
    pub(crate) corpus: Vec<Scenario>,
    pub(crate) queries: Vec<Scenario>,
    pub(crate) requests: Vec<Vec<u8>>,
    expected: Vec<Vec<u64>>,
    corpus_rows_per_s: f64,
    conn: Option<Conn>,
    body: Vec<u8>,
    pub(crate) replay: Option<replay::SearchReplay>,
}

impl SearchSdl {
    fn new(seed: u64) -> SearchSdl {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus: Vec<Scenario> = (0..CORPUS_ROWS).map(|_| random_scenario(&mut rng)).collect();
        let t0 = Instant::now();
        let service = Arc::new(SearchService::build(corpus.iter().cloned()));
        let corpus_rows_per_s = CORPUS_ROWS as f64 / t0.elapsed().as_secs_f64();
        let queries: Vec<Scenario> = (0..POOL).map(|_| random_scenario(&mut rng)).collect();
        let requests = queries
            .iter()
            .map(|q| {
                let body =
                    format!("{{\"sdl\":\"{}\",\"k\":{SEARCH_K}}}", json::escape(&q.to_string()));
                request_bytes("POST", "/search", &[], body.as_bytes())
            })
            .collect();
        let expected = queries
            .iter()
            .map(|q| {
                let hits = service.query(q, SEARCH_K).expect("index matches EMBED_DIM");
                hits.into_iter().map(|h| h.id).collect()
            })
            .collect();
        // /search does no model work; the server still needs a model.
        let server = Server::start_with_search(
            extractor(seed),
            Some(Arc::clone(&service)),
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let addr = server.local_addr();
        SearchSdl {
            server,
            addr,
            service,
            corpus,
            queries,
            requests,
            expected,
            corpus_rows_per_s,
            conn: None,
            body: Vec::new(),
            replay: None,
        }
    }
}

impl Workload for SearchSdl {
    fn name(&self) -> &'static str {
        "search_sdl"
    }

    fn items_per_op(&self) -> usize {
        1
    }

    fn connect(&mut self) -> io::Result<()> {
        self.conn = Some(Conn::open(self.addr)?);
        Ok(())
    }

    fn disconnect(&mut self) {
        self.conn = None;
    }

    fn op(&mut self, i: usize, tracer: Option<&mut Tracer>) -> Result<Duration, String> {
        let k = i % POOL;
        let conn = connection(&mut self.conn)?;
        let start = Instant::now();
        let (status, phases) =
            conn.exchange(&self.requests[k], &mut self.body).map_err(|e| e.to_string())?;
        let latency = phases.done - start;
        let reply = parse_reply(status, &self.body)?;
        let ids: Option<Vec<u64>> = reply.get("hits").and_then(Json::as_arr).map(|hits| {
            hits.iter()
                .map(|h| h.get("id").and_then(Json::as_num).map_or(u64::MAX, |n| n as u64))
                .collect()
        });
        if ids.as_ref() != Some(&self.expected[k]) {
            return Err(format!("hits {ids:?} differ from the reference {:?}", self.expected[k]));
        }
        if let Some(t) = tracer {
            record_exchange(t, "search_sdl", i, start, &phases);
        }
        Ok(latency)
    }

    fn replay(&mut self, part: Part, i: usize, tracer: &mut Tracer) {
        replay::search(self, part, i, tracer);
    }

    fn server_stats(&self) -> Option<&ServeStats> {
        Some(self.server.stats())
    }

    fn take_reply_fields(&mut self) -> Vec<ReplyFields> {
        Vec::new()
    }

    fn setup_rates(&self) -> Vec<(&'static str, f64)> {
        vec![("index.build_rows_per_s", self.corpus_rows_per_s)]
    }

    fn kernel_batches(&self) -> Option<(usize, usize)> {
        None
    }
}

// ----------------------------------------------------------------- bulk --

/// `bulk_batch8`: no HTTP; one thread calls `extract_window_batch` on
/// eight clips at a time.
pub struct Bulk {
    pub(crate) extractor: ScenarioExtractor,
    pub(crate) videos: Vec<Tensor>,
    expected: Vec<String>,
    clips_per_s: f64,
}

impl Bulk {
    fn new(seed: u64) -> Bulk {
        let (videos, clips_per_s) = clip_pool(seed, 2);
        let extractor = extractor(seed);
        let expected = videos
            .iter()
            .map(|v| {
                extractor.extract_checked(v).expect("rendered clips are well-formed").to_string()
            })
            .collect();
        Bulk { extractor, videos, expected, clips_per_s }
    }

    /// The eight clips of op `i`.
    pub(crate) fn batch(&self, i: usize) -> Vec<&Tensor> {
        let first = (i * BULK_BATCH) % POOL;
        self.videos[first..first + BULK_BATCH].iter().collect()
    }
}

impl Workload for Bulk {
    fn name(&self) -> &'static str {
        "bulk_batch8"
    }

    fn items_per_op(&self) -> usize {
        BULK_BATCH
    }

    fn connect(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn disconnect(&mut self) {}

    fn op(&mut self, i: usize, tracer: Option<&mut Tracer>) -> Result<Duration, String> {
        let batch = self.batch(i);
        let start = Instant::now();
        let results = std::hint::black_box(self.extractor.extract_window_batch(&batch));
        let done = Instant::now();
        if let Some(t) = tracer {
            let spans = [("bulk_call", start, done), ("core.extract.batch8", start, done)];
            t.record_request("bulk_batch8", i as u32, &spans);
        }
        let first = (i * BULK_BATCH) % POOL;
        for (j, r) in results.iter().enumerate() {
            let got = r.as_ref().map(Scenario::to_string).map_err(|e| e.to_string())?;
            if got != self.expected[first + j] {
                return Err(format!(
                    "clip {}: {got:?} differs from the reference {:?}",
                    first + j,
                    self.expected[first + j]
                ));
            }
        }
        Ok(done - start)
    }

    fn replay(&mut self, part: Part, i: usize, tracer: &mut Tracer) {
        replay::bulk(self, part, i, tracer);
    }

    fn server_stats(&self) -> Option<&ServeStats> {
        None
    }

    fn take_reply_fields(&mut self) -> Vec<ReplyFields> {
        Vec::new()
    }

    fn setup_rates(&self) -> Vec<(&'static str, f64)> {
        vec![("data.clips_per_s", self.clips_per_s)]
    }

    fn kernel_batches(&self) -> Option<(usize, usize)> {
        Some((4 * BULK_BATCH, BULK_BATCH))
    }
}
