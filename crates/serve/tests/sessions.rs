//! End-to-end coverage of the multiplexed streaming session routes:
//! lifecycle, parity with independent core sessions, typed limits and
//! evictions, and the `/stats` observability fields they feed.

mod common;

use std::net::SocketAddr;
use std::time::Duration;

use common::{
    create_session, get, parse_u64_field, post_clip, tiny_extractor, valid_pixels, Client,
    HttpResponse,
};
use tsdx_serve::{json, Server, ServerConfig, SessionConfig};

/// `POST /sessions/<id>/frames` with an octet-stream chunk.
fn push_chunk(addr: SocketAddr, id: u64, shape: &str, pixels: &[f32]) -> HttpResponse {
    let body: Vec<u8> = pixels.iter().flat_map(|f| f.to_le_bytes()).collect();
    Client::connect(addr)
        .request(
            "POST",
            &format!("/sessions/{id}/frames"),
            &[("content-type", "application/octet-stream"), ("x-video-shape", shape)],
            &body,
        )
        .unwrap()
}

/// Frames for stream `s`, chunk `c`: distinct per stream so parity checks
/// cannot pass by accident.
fn chunk_pixels(s: usize, c: usize) -> Vec<f32> {
    (0..2 * 16 * 16).map(|i| ((i + 1000 * s + 131 * c) as f32 * 0.011).sin()).collect()
}

fn chunk_tensor(s: usize, c: usize) -> tsdx_tensor::Tensor {
    tsdx_tensor::Tensor::from_vec(chunk_pixels(s, c), &[2, 16, 16])
}

#[test]
fn session_lifecycle_round_trip() {
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let id = create_session(addr);
    assert!(id > 0);
    // The create response describes the window the stream must fill.
    let resp = Client::connect(addr).request("POST", "/sessions", &[], b"").unwrap();
    assert!(resp.body.contains("\"window_frames\":4"), "{}", resp.body);
    assert!(resp.body.contains("\"frame_shape\":[16,16]"), "{}", resp.body);

    // Half a window: accepted, staged+encoded, not yet describable.
    let resp = push_chunk(addr, id, "2x16x16", &chunk_pixels(0, 0));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"ready\":false"), "{}", resp.body);
    assert!(resp.body.contains("\"scenario\":null"), "{}", resp.body);
    assert_eq!(parse_u64_field(&resp.body, "groups_new"), 1);
    assert_eq!(parse_u64_field(&resp.body, "frames_seen"), 2);

    // The second half completes the window and answers a scenario.
    let resp = push_chunk(addr, id, "2x16x16", &chunk_pixels(0, 1));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"ready\":true"), "{}", resp.body);
    assert!(resp.body.contains("\"scenario\":\""), "{}", resp.body);
    assert_eq!(parse_u64_field(&resp.body, "frames_seen"), 4);

    // Close frees the slot; everything after is a typed 404.
    let resp =
        Client::connect(addr).request("DELETE", &format!("/sessions/{id}"), &[], b"").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"status\":\"closed\""), "{}", resp.body);
    let resp = push_chunk(addr, id, "2x16x16", &chunk_pixels(0, 2));
    assert_eq!(resp.status, 404, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"unknown_session\""), "{}", resp.body);
    let resp =
        Client::connect(addr).request("DELETE", &format!("/sessions/{id}"), &[], b"").unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);

    server.shutdown();
}

#[test]
fn stats_serve_every_stage_histogram_and_the_group_cache() {
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    assert_eq!(post_clip(addr, "4x16x16", &valid_pixels(), &[]).unwrap().status, 200);
    let window: Vec<f32> = (0..2).flat_map(|c| chunk_pixels(0, c)).collect();
    for _ in 0..2 {
        let resp = push_chunk(addr, create_session(addr), "4x16x16", &window);
        assert!(resp.body.contains("\"ready\":true"), "{}", resp.body);
    }
    // The worker publishes after each round: by this clip's reply, every
    // round before it is in `/stats`.
    assert_eq!(post_clip(addr, "4x16x16", &valid_pixels(), &[]).unwrap().status, 200);

    let stats = get(addr, "/stats");
    let doc = json::parse(stats.body.as_bytes()).unwrap();
    let Some(json::Json::Obj(stages)) = doc.get("stages") else { panic!("{}", stats.body) };
    let keys: Vec<&str> = stages.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "stage/decode",
            "stage/encoder",
            "stage/heads",
            "stage/mux_encode",
            "stage/serve_batch",
            "stage/stream_infer",
            "stage/stream_stage",
            "stage/tubelet_embed",
        ],
        "{}",
        stats.body
    );
    assert!(parse_u64_field(&stats.body, "group_misses") > 0, "{}", stats.body);
    server.shutdown();
}

#[test]
fn interleaved_http_streams_match_independent_core_sessions() {
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    // The same deterministic weights the server holds.
    let reference = tiny_extractor();

    let ids: Vec<u64> = (0..3).map(|_| create_session(addr)).collect();
    let mut solo: Vec<_> = (0..3).map(|_| reference.open_stream()).collect();

    // Six chunks per stream (three sliding windows), pushed round-robin so
    // consecutive HTTP pushes belong to different sessions.
    for c in 0..6 {
        for (s, &id) in ids.iter().enumerate() {
            let resp = push_chunk(addr, id, "2x16x16", &chunk_pixels(s, c));
            assert_eq!(resp.status, 200, "{}", resp.body);
            solo[s].push_frames(&chunk_tensor(s, c)).unwrap();
            if c >= 1 {
                // Window complete: the HTTP answer must match the
                // independent single-stream session bit for bit (the
                // scenario string is a function of the head logits).
                let expected = format!(
                    "\"scenario\":\"{}\"",
                    json::escape(&solo[s].describe().unwrap().to_string())
                );
                assert!(
                    resp.body.contains(&expected),
                    "stream {s} chunk {c}: {} !~ {expected}",
                    resp.body
                );
            } else {
                assert!(resp.body.contains("\"scenario\":null"), "{}", resp.body);
            }
        }
    }

    // The cross-stream occupancy histogram is exposed; every push also
    // bumps the stream counter.
    let stats = get(addr, "/stats");
    assert_eq!(stats.status, 200);
    assert_eq!(parse_u64_field(&stats.body, "stream_pushes"), 18);
    assert!(stats.body.contains("\"occupancy\""), "{}", stats.body);
    assert!(stats.body.contains("\"active_sessions\":3"), "{}", stats.body);
    assert_eq!(parse_u64_field(&stats.body, "sessions_opened"), 3);

    server.shutdown();
}

#[test]
fn session_paths_answer_typed_404s_and_405s() {
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let resp = Client::connect(addr).request("GET", "/sessions", &[], b"").unwrap();
    assert_eq!(resp.status, 405, "{}", resp.body);
    let resp = Client::connect(addr).request("PUT", "/sessions/1", &[], b"").unwrap();
    assert_eq!(resp.status, 405, "{}", resp.body);
    let resp = Client::connect(addr).request("GET", "/sessions/1/frames", &[], b"").unwrap();
    assert_eq!(resp.status, 405, "{}", resp.body);
    let resp = Client::connect(addr).request("POST", "/sessions/abc/frames", &[], b"").unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    let resp = Client::connect(addr).request("POST", "/sessions/1/nope", &[], b"").unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    let resp = Client::connect(addr).request("DELETE", "/sessions/424242", &[], b"").unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"unknown_session\""), "{}", resp.body);

    // A bad chunk on a real session is a 422 with the model's taxonomy.
    let id = create_session(addr);
    let resp = push_chunk(addr, id, "2x8x8", &[0.0; 2 * 8 * 8]);
    assert_eq!(resp.status, 422, "{}", resp.body);
    server.shutdown();
}

#[test]
fn session_table_capacity_is_a_typed_retryable_429() {
    let cfg = ServerConfig {
        sessions: SessionConfig { max_sessions: 2, ..SessionConfig::default() },
        ..ServerConfig::default()
    };
    let mut server = Server::start(tiny_extractor(), cfg).unwrap();
    let addr = server.local_addr();

    let a = create_session(addr);
    let _b = create_session(addr);
    let resp = Client::connect(addr).request("POST", "/sessions", &[], b"").unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"session_limit\""), "{}", resp.body);
    assert!(resp.body.contains("\"retryable\":true"), "{}", resp.body);
    assert!(resp.header("retry-after").is_some(), "sheds advertise a backoff");

    // Closing one stream frees the slot for the retry.
    let resp =
        Client::connect(addr).request("DELETE", &format!("/sessions/{a}"), &[], b"").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let _c = create_session(addr);
    let stats = get(addr, "/stats");
    assert_eq!(parse_u64_field(&stats.body, "shed_sessions"), 1);
    assert_eq!(parse_u64_field(&stats.body, "rejected"), 0, "a shed is not a malformed request");
    server.shutdown();
}

#[test]
fn idle_sessions_are_evicted_and_counted() {
    let cfg = ServerConfig {
        sessions: SessionConfig { idle_ttl: Duration::from_millis(60), ..SessionConfig::default() },
        ..ServerConfig::default()
    };
    let mut server = Server::start(tiny_extractor(), cfg).unwrap();
    let addr = server.local_addr();

    let id = create_session(addr);
    let resp = push_chunk(addr, id, "2x16x16", &chunk_pixels(0, 0));
    assert_eq!(resp.status, 200, "{}", resp.body);

    // Past the TTL the next touch evicts the abandoned stream.
    std::thread::sleep(Duration::from_millis(120));
    let resp = push_chunk(addr, id, "2x16x16", &chunk_pixels(0, 1));
    assert_eq!(resp.status, 404, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"unknown_session\""), "{}", resp.body);

    let stats = get(addr, "/stats");
    assert_eq!(parse_u64_field(&stats.body, "evicted_sessions"), 1);
    assert!(stats.body.contains("\"active_sessions\":0"), "{}", stats.body);
    assert_eq!(server.sessions().len(), 0);
    server.shutdown();
}
