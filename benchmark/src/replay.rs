//! The in-process replay of the traced pass: one thread walks a request's
//! pipeline stage by stage through the crates' public functions, one span
//! per call.
//!
//! It runs as two passes over the same inputs, each request under a root
//! span of the pass's name. `pipeline` runs the stages a served request
//! runs, once each and in order, so the sum of its spans is the request's
//! in-process cost and what is left of the end-to-end latency is sockets,
//! wake-ups and hand-offs (`serve.server.residual_us`). `breakdown` re-runs
//! the model work of the same inputs piecewise through finer public
//! functions; its spans overlap each other and the pipeline's batcher round
//! trip and are never summed. The passes are separate loops so the
//! pipeline is timed in the steady state a served request sees, not
//! between five extra forwards that evict its working set.
//!
//! The steps between spans that copy a private helper of `tsdx-serve`
//! (`decode_video`, the handlers' `format!`, `hits_to_json`) run outside any
//! span: they are not calls into a public function, and they stay in the
//! residual.

use std::io::Cursor;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsdx_core::{
    decode_logits, encode_staged, extract_tubelets, ClipModel, ScenarioExtractor, StreamState,
};
use tsdx_index::VectorIndex;
use tsdx_nn::{LayerNorm, Linear, MultiHeadAttention, ParamStore, TransformerBlock};
use tsdx_sdl::{embed, parse_scenario};
use tsdx_serve::http::{self, Response};
use tsdx_serve::json::{self, Json};
use tsdx_serve::{
    BatchConfig, Batcher, ServeStats, ServerConfig, SessionConfig, SessionEntry, SessionManager,
};
use tsdx_tensor::quant::{linear_q8, QuantMatrix};
use tsdx_tensor::{ops, Graph, Tensor};

use crate::trace::Tracer;
use crate::workloads::{Bulk, ClipHttp, SearchSdl, StreamPair, POOL, SEARCH_K, STREAMS};

/// The two passes of the replay (see the module comment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// The stages a served request runs, once each and in order.
    Pipeline,
    /// The model work of the same inputs, piecewise.
    Breakdown,
}

/// Tape nodes recorded per `tensor.graph_node` span.
pub const GRAPH_NODES: usize = 256;

fn batcher(extractor: &ScenarioExtractor) -> (Batcher, Arc<ServeStats>) {
    let stats = Arc::new(ServeStats::default());
    let batcher =
        Batcher::start(Arc::new(extractor.clone()), BatchConfig::default(), Arc::clone(&stats));
    (batcher, stats)
}

/// Parses one of the benchmark's own requests the way a connection thread
/// does, and returns its body.
fn read_request(t: &mut Tracer, request: &[u8]) -> Vec<u8> {
    let mut cursor = Cursor::new(request);
    let head = t
        .leaf("serve.http.read_head", || http::read_head(&mut cursor))
        .expect("own request parses")
        .expect("own request is not empty");
    let max_body = ServerConfig::default().max_body_bytes;
    t.leaf("serve.http.read_body", || http::read_body(&mut cursor, &head, max_body))
        .expect("own body is complete")
}

fn octet_tensor(body: &[u8], shape: &[usize]) -> Tensor {
    let pixels =
        body.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
    Tensor::from_vec(pixels, shape)
}

fn write_reply(t: &mut Tracer, sink: &mut Vec<u8>, body: String) {
    let response = Response::ok(body);
    sink.clear();
    t.leaf("serve.http.write_response", || http::write_response(sink, &response))
        .expect("writing to memory cannot fail");
}

/// The model work of `videos` (one forward at batch `videos.len()`), piece
/// by piece. `batch_span` names the whole-call span, when the caller has not
/// recorded it already.
fn model_breakdown(
    t: &mut Tracer,
    extractor: &ScenarioExtractor,
    videos: &[&Tensor],
    batch_span: Option<&'static str>,
) {
    let model = extractor.model();
    let cfg = model.config();
    if let Some(name) = batch_span {
        t.leaf(name, || extractor.extract_window_batch(videos));
    }
    let pixels: Vec<f32> = videos.iter().flat_map(|v| v.to_vec()).collect();
    let group_len = cfg.tubelet_t * cfg.height * cfg.width;
    let groups: Vec<&[f32]> = pixels.chunks_exact(group_len).collect();
    let stacked =
        Tensor::from_vec(pixels.clone(), &[videos.len(), cfg.frames, cfg.height, cfg.width]);

    t.leaf("core.model.tubelets", || extract_tubelets(cfg, &stacked));
    t.leaf("core.model.bind", || {
        let mut g = Graph::new();
        let p = model.bind_eval_active(&mut g);
        (g, p)
    });
    t.leaf("core.model.spatial", || model.encode_group_batch(&groups));
    t.leaf("core.model.encoder", || model.embed_clips(&stacked));
    let (g, logits) = t.leaf("core.model.forward", || {
        let mut g = Graph::new();
        let p = model.bind_eval_active(&mut g);
        let mut rng = StdRng::seed_from_u64(0);
        let logits = model.forward(&mut g, &p, &stacked, &mut rng, false);
        (g, logits)
    });
    t.leaf("core.model.decode", || {
        decode_logits(
            g.value(logits.ego),
            g.value(logits.road),
            g.value(logits.event),
            g.value(logits.position),
            g.value(logits.presence),
        )
    });
}

// ---------------------------------------------------------------- clips --

/// What the clip replay keeps between requests.
pub struct ClipReplay {
    batcher: Batcher,
    sink: Vec<u8>,
}

pub(crate) fn clip(w: &mut ClipHttp, part: Part, i: usize, t: &mut Tracer) {
    let k = i % POOL;
    if part == Part::Breakdown {
        let root = t.open_request(w.name, i as u32, "breakdown");
        model_breakdown(t, &w.extractor, &[&w.videos[k]], Some("core.extract.batch1"));
        t.close(root);
        return;
    }
    let state = w
        .replay
        .get_or_insert_with(|| ClipReplay { batcher: batcher(&w.extractor).0, sink: Vec::new() });
    let root = t.open_request(w.name, i as u32, "pipeline");
    let body = read_request(t, &w.requests[k]);
    let video = if w.json {
        let parsed = t.leaf("serve.json.parse", || json::parse(&body)).expect("own JSON parses");
        t.count("serve.json.bytes", body.len() as f64);
        let pixels = parsed
            .get("pixels")
            .and_then(Json::as_arr)
            .expect("own body has pixels")
            .iter()
            .map(|j| j.as_num().expect("pixel is a number") as f32)
            .collect();
        Tensor::from_vec(pixels, &[8, 32, 32])
    } else {
        octet_tensor(&body, &[8, 32, 32])
    };
    t.leaf("core.extract.validate", || w.extractor.validate_window(&video))
        .expect("pooled clip is valid");
    let answer = t
        .leaf("serve.batcher.roundtrip", || {
            state.batcher.submit(video, None, 0).and_then(|rx| rx.recv().expect("worker answers"))
        })
        .expect("batcher serves the clip");
    let scenario = t.leaf("sdl.render", || answer.scenario.to_string());
    let reply = format!(
        "{{\"scenario\":\"{}\",\"plane\":\"{}\",\"batch_size\":{},\"queued_us\":{},\"request\":{i}}}",
        json::escape(&scenario),
        answer.plane.label(),
        answer.batch_size,
        answer.queued_us,
    );
    write_reply(t, &mut state.sink, reply);
    t.close(root);
}

// -------------------------------------------------------------- streams --

/// What the stream replay keeps between ops: a batcher and session table of
/// its own, and stream states fed the same groups as the served sessions.
pub struct StreamReplay {
    batcher: Batcher,
    manager: SessionManager,
    session_ids: [u64; STREAMS],
    /// Fed pairwise: one `encode_staged` over both.
    pair: [StreamState; STREAMS],
    /// Fed alone: one `encode_staged` over one state.
    solo: StreamState,
    sink: Vec<u8>,
}

pub(crate) fn stream(w: &mut StreamPair, part: Part, i: usize, t: &mut Tracer) {
    let cfg = *w.extractor.model().config();
    let state = w.replay.get_or_insert_with(|| {
        let (batcher, stats) = batcher(&w.extractor);
        let manager = SessionManager::new(SessionConfig::default(), stats);
        let session_ids = [(); STREAMS].map(|()| manager.create(cfg).expect("table has room").id());
        StreamReplay {
            batcher,
            manager,
            session_ids,
            pair: [(); STREAMS].map(|()| StreamState::new(cfg)),
            solo: StreamState::new(cfg),
            sink: Vec::new(),
        }
    });
    let model = w.extractor.model();
    let g = i % w.requests[0].len();

    if part == Part::Breakdown {
        let root = t.open_request("stream_pair", i as u32, "breakdown");
        for (s, st) in state.pair.iter_mut().enumerate() {
            t.leaf("core.session.stage", || st.stage_frames(&w.chunks[s][g]))
                .expect("pooled frames are valid");
        }
        {
            let [a, b] = &mut state.pair;
            t.leaf("core.session.encode2", || encode_staged(model, &mut [a, b]));
        }
        for st in &mut state.pair {
            if st.ready() {
                t.leaf("core.session.describe", || st.describe(model)).expect("window is full");
            }
        }
        state.solo.stage_frames(&w.chunks[0][g]).expect("pooled frames are valid");
        t.leaf("core.session.encode1", || encode_staged(model, &mut [&mut state.solo]));
        t.close(root);
        return;
    }

    let root = t.open_request("stream_pair", i as u32, "pipeline");
    let mut pushes: Vec<(Arc<SessionEntry>, Tensor)> = Vec::new();
    for s in 0..STREAMS {
        let body = read_request(t, &w.requests[s][g]);
        let chunk = octet_tensor(&body, &[cfg.tubelet_t, cfg.height, cfg.width]);
        let id = state.session_ids[s];
        let entry =
            t.leaf("serve.sessions.lookup", || state.manager.get(id)).expect("session is live");
        pushes.push((entry, chunk));
    }
    let answers = t.leaf("serve.batcher.roundtrip", || {
        let receivers: Vec<_> = pushes
            .into_iter()
            .map(|(entry, chunk)| {
                state.batcher.submit_stream(entry, chunk, None, 0).expect("queue has room")
            })
            .collect();
        receivers
            .into_iter()
            .map(|rx| rx.recv().expect("worker answers").expect("push is served"))
            .collect::<Vec<_>>()
    });
    for a in &answers {
        let scenario = match &a.scenario {
            Some(s) => format!("\"{}\"", json::escape(&t.leaf("sdl.render", || s.to_string()))),
            None => "null".into(),
        };
        let reply = format!(
            "{{\"session\":{},\"groups_new\":{},\"frames_seen\":{},\"ready\":{},\"scenario\":{scenario},\
             \"plane\":\"{}\",\"mux_streams\":{},\"mux_groups\":{},\"queued_us\":{},\"request\":{i}}}",
            a.session,
            a.groups_new,
            a.frames_seen,
            a.ready,
            a.plane.label(),
            a.mux_streams,
            a.mux_groups,
            a.queued_us,
        );
        write_reply(t, &mut state.sink, reply);
    }
    t.close(root);
}

// --------------------------------------------------------------- search --

/// What the search replay keeps between requests.
pub struct SearchReplay {
    /// A second index over the same corpus: the service's own is private.
    index: VectorIndex,
    sink: Vec<u8>,
}

pub(crate) fn search(w: &mut SearchSdl, part: Part, i: usize, t: &mut Tracer) {
    let k = i % POOL;
    let state = w.replay.get_or_insert_with(|| {
        let mut index = VectorIndex::default();
        for s in &w.corpus {
            index.push_scenario(s).expect("default index matches EMBED_DIM");
        }
        SearchReplay { index, sink: Vec::new() }
    });

    if part == Part::Breakdown {
        let query = &w.queries[k];
        let root = t.open_request("search_sdl", i as u32, "breakdown");
        t.leaf("sdl.embed", || embed(query));
        let hits =
            t.leaf("index.query", || state.index.query_scenario(query, SEARCH_K)).expect("scan");
        t.count("index.rows", state.index.len() as f64);
        t.leaf("sdl.render", || {
            hits.iter().map(|&(id, _)| w.corpus[id as usize].to_string()).collect::<Vec<_>>()
        });
        t.close(root);
        return;
    }

    let root = t.open_request("search_sdl", i as u32, "pipeline");
    let body = read_request(t, &w.requests[k]);
    let parsed = t.leaf("serve.json.parse", || json::parse(&body)).expect("own JSON parses");
    t.count("serve.json.bytes", body.len() as f64);
    let text = parsed.get("sdl").and_then(Json::as_str).expect("own body has sdl");
    let query = t.leaf("sdl.parse", || parse_scenario(text)).expect("own SDL parses");
    let hits = t.leaf("serve.search.query", || w.service.query(&query, SEARCH_K)).expect("scan");
    let mut rendered = String::from("[");
    for (n, h) in hits.iter().enumerate() {
        let sep = if n > 0 { "," } else { "" };
        rendered.push_str(&format!(
            "{sep}{{\"id\":{},\"similarity\":{},\"sdl\":\"{}\"}}",
            h.id,
            h.similarity,
            json::escape(&h.sdl)
        ));
    }
    rendered.push(']');
    let reply = format!(
        "{{\"hits\":{rendered},\"k\":{SEARCH_K},\"indexed\":{},\"request\":{i}}}",
        w.service.len()
    );
    write_reply(t, &mut state.sink, reply);
    t.close(root);
}

// ----------------------------------------------------------------- bulk --

/// `bulk_batch8` has no pipeline pass: the traced op is the whole call.
pub(crate) fn bulk(w: &mut Bulk, part: Part, i: usize, t: &mut Tracer) {
    if part == Part::Pipeline {
        return;
    }
    let root = t.open_request("bulk_batch8", i as u32, "breakdown");
    t.leaf("core.extract.validate", || w.extractor.validate_window(&w.videos[i % POOL]))
        .expect("pooled clip is valid");
    model_breakdown(t, &w.extractor, &w.batch(i), None);
    t.close(root);
}

// -------------------------------------------------------------- kernels --

fn random_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    Tensor::from_fn(shape, |_| rng.random_range(-1.0f32..1.0))
}

/// Standalone `nn` layers and `tensor` kernels at the model's shapes:
/// `[spatial_b, 17, 64]` and `[temporal_b, 5, 64]` token blocks (what the
/// workload's forward runs), and the GEMM shapes named in the metrics.
pub fn kernels(
    t: &mut Tracer,
    workload: &'static str,
    seed: u64,
    (spatial_b, temporal_b): (usize, usize),
    iterations: usize,
) {
    let (dim, heads, mlp_ratio) = (64, 4, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let block = TransformerBlock::new(&mut store, &mut rng, "block", dim, heads, mlp_ratio, 0.0);
    let attention = MultiHeadAttention::new(&mut store, &mut rng, "attn", dim, heads);
    let linear = Linear::new(&mut store, &mut rng, "linear", dim, mlp_ratio * dim);
    let norm = LayerNorm::new(&mut store, "norm", dim);

    let spatial = random_tensor(&mut rng, &[spatial_b, 17, dim]);
    let temporal = random_tensor(&mut rng, &[temporal_b, 5, dim]);
    let a68 = random_tensor(&mut rng, &[68, 64]);
    let a544 = random_tensor(&mut rng, &[544, 64]);
    let w64 = random_tensor(&mut rng, &[64, 64]);
    let w128 = random_tensor(&mut rng, &[64, 128]);
    let q128 = QuantMatrix::quantize(&w128);
    let scores = random_tensor(&mut rng, &[4, heads, 17, 17]);

    for i in 0..iterations {
        let root = t.open_request(workload, i as u32, "kernels");
        let mut g = Graph::new();
        let p = store.bind_frozen(&mut g);
        let xs = g.constant(spatial.clone());
        let xt = g.constant(temporal.clone());
        t.leaf("nn.block_spatial", || block.forward_eval(&mut g, &p, xs));
        t.leaf("nn.block_temporal", || block.forward_eval(&mut g, &p, xt));
        t.leaf("nn.attention", || attention.forward(&mut g, &p, xs));
        t.leaf("nn.linear", || linear.forward(&mut g, &p, xs));
        t.leaf("nn.layernorm", || norm.forward(&mut g, &p, xs));

        t.leaf("tensor.gemm_68x64x64", || ops::matmul(&a68, &w64));
        t.leaf("tensor.gemm_68x64x128", || ops::matmul(&a68, &w128));
        t.leaf("tensor.gemm_544x64x128", || ops::matmul(&a544, &w128));
        t.leaf("tensor.q8_gemm_68x64x128", || linear_q8(&a68, &q128, None));
        t.leaf("tensor.softmax", || ops::softmax_last(&scores));
        t.leaf("tensor.graph_node", || {
            let mut tape = Graph::new();
            let mut v = tape.constant(Tensor::scalar(1.0));
            for _ in 0..GRAPH_NODES {
                v = tape.scale(v, 1.0);
            }
            tape
        });
        t.close(root);
    }
}
