//! The HTTP error-mapping contract: every way a request can be wrong maps
//! to a stable status code and a typed JSON body — and no byte sequence,
//! however malformed or truncated, can panic or hang the server.

mod common;

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use common::{get, post_clip, tiny_extractor, valid_pixels, Client};
use proptest::prelude::*;
use tsdx_core::ExtractError;
use tsdx_serve::{ServeError, Server, ServerConfig};

/// Every `ExtractError` variant has a stable status and kind string — the
/// wire contract clients and dashboards key on.
#[test]
fn every_extract_error_variant_maps_stably() {
    let cases: Vec<(ExtractError, &str)> = vec![
        (ExtractError::BadRank { found: 2 }, "bad_rank"),
        (ExtractError::BadShape { expected: [4, 16, 16], found: vec![4, 16, 8] }, "bad_shape"),
        (ExtractError::NonFinite { index: 7 }, "non_finite"),
        (ExtractError::Empty, "empty"),
        (ExtractError::TooShort { frames: 2, min: 4 }, "too_short"),
        (ExtractError::BadFrameShape { expected: [16, 16], found: [16, 8] }, "bad_frame_shape"),
    ];
    for (e, kind) in cases {
        let serve_err = ServeError::from(e);
        assert_eq!(serve_err.status(), 422, "{kind} must be 422");
        assert_eq!(serve_err.kind(), kind);
        assert!(!serve_err.retryable(), "validation failures are not retryable");
        let body = serve_err.to_json();
        let parsed = tsdx_serve::json::parse(body.as_bytes()).expect("error body is JSON");
        let err = parsed.get("error").expect("error envelope");
        assert_eq!(err.get("kind"), Some(&tsdx_serve::json::Json::Str(kind.into())));
        assert_eq!(err.get("status").and_then(|j| j.as_num()), Some(422.0));
    }
}

/// A finite clip that overflows inside the forward (every pixel `f32::MAX`)
/// passes validation but has no answer: one-shot, stream push and search by
/// clip each serve 500 `internal`, `/stats` counts each, and the server
/// keeps answering well-formed clips.
#[test]
fn an_overflowing_clip_is_500_internal_on_every_route() {
    let e = ServeError::from(ExtractError::NonFiniteOutput);
    assert_eq!((e.status(), e.kind(), e.retryable()), (500, "internal", false));

    let corpus = std::sync::Arc::new(tsdx_serve::SearchService::build(
        ["ego cruise; road straight", "ego turn-left; road intersection"]
            .iter()
            .map(|t| tsdx_sdl::parse_scenario(t).expect("valid SDL")),
    ));
    let mut server =
        Server::start_with_search(tiny_extractor(), Some(corpus), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let octets = |pixels: &[f32]| pixels.iter().flat_map(|f| f.to_le_bytes()).collect::<Vec<_>>();
    let (hot, good) = (octets(&[f32::MAX; 4 * 16 * 16]), octets(&valid_pixels()));
    let clip = [("content-type", "application/octet-stream"), ("x-video-shape", "4x16x16")];
    type Post<'a> = &'a dyn Fn(&[u8]) -> common::HttpResponse;
    let routes: [(&str, Post); 3] = [
        ("/v1/extract", &|body| {
            Client::connect(addr).request("POST", "/v1/extract", &clip, body).unwrap()
        }),
        ("/sessions/<id>/frames", &|body| {
            let path = format!("/sessions/{}/frames", common::create_session(addr));
            Client::connect(addr).request("POST", &path, &clip, body).unwrap()
        }),
        ("/search", &|body| Client::connect(addr).request("POST", "/search", &clip, body).unwrap()),
    ];
    for (i, (route, post)) in routes.iter().enumerate() {
        let resp = post(&hot);
        assert_eq!(resp.status, 500, "{route}: {}", resp.body);
        assert!(resp.body.contains("\"kind\":\"internal\""), "{route}: {}", resp.body);
        let stats = get(addr, "/stats").body;
        assert!(stats.contains(&format!("\"non_finite_outputs\":{}", i + 1)), "{route}: {stats}");
        let resp = post(&good);
        assert_eq!(resp.status, 200, "{route}: {}", resp.body);
    }
    server.shutdown();
}

/// The reachable validation failures, exercised over a real socket.
#[test]
fn invalid_videos_get_422_over_the_wire() {
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Wrong spatial shape.
    let resp = post_clip(addr, "4x16x8", &vec![0.0; 4 * 16 * 8], &[]).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"bad_shape\""), "{}", resp.body);

    // No frames at all.
    let resp = post_clip(addr, "0x16x16", &[], &[]).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"empty\""), "{}", resp.body);

    // Too few frames for one window.
    let resp = post_clip(addr, "2x16x16", &vec![0.0; 2 * 16 * 16], &[]).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"too_short\""), "{}", resp.body);

    // A NaN pixel — unrepresentable in JSON, so sent on the binary path.
    let mut pixels = valid_pixels();
    pixels[100] = f32::NAN;
    let resp = post_clip(addr, "4x16x16", &pixels, &[]).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"non_finite\""), "{}", resp.body);

    server.shutdown();
}

/// Routing and framing failures, each with its stable status.
#[test]
fn routing_and_framing_failures_are_typed() {
    let cfg = ServerConfig { max_body_bytes: 1024, ..ServerConfig::default() };
    let mut server = Server::start(tiny_extractor(), cfg).unwrap();
    let addr = server.local_addr();

    let resp = get(addr, "/no/such/path");
    assert_eq!(resp.status, 404);
    assert!(resp.body.contains("\"kind\":\"not_found\""), "{}", resp.body);

    let resp = Client::connect(addr).request("DELETE", "/v1/extract", &[], b"").unwrap();
    assert_eq!(resp.status, 405);
    assert!(resp.body.contains("\"kind\":\"method_not_allowed\""), "{}", resp.body);

    let mut c = Client::connect(addr);
    let resp = c.request("POST", "/v1/extract", &[], b"this is not json").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("\"kind\":\"bad_request\""), "{}", resp.body);

    // Over the body limit: 413 names the limit.
    let resp = post_clip(addr, "4x16x16", &valid_pixels(), &[]).unwrap();
    assert_eq!(resp.status, 413, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"payload_too_large\""), "{}", resp.body);

    // A bad deadline header is caught before any body handling.
    let resp = Client::connect(addr)
        .request("POST", "/v1/extract", &[("x-deadline-ms", "soon")], b"{}")
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);

    // Garbage on the wire: typed 400, then the connection closes.
    let mut c = Client::connect(addr);
    c.send_raw(b"GARBAGE WITHOUT MEANING\r\n\r\n").unwrap();
    let resp = c.read_response().unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(resp.header("connection"), Some("close"));

    server.shutdown();
}

/// A body whose length the head does not state once and plainly is never
/// read: two `Content-Length` headers that disagree (a proxy framing by the
/// other one would desynchronize the stream) and a signed one both answer
/// 400 and close, and a fresh connection is served as if nothing happened.
#[test]
fn ambiguous_content_length_is_400_and_closes() {
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let pixels = valid_pixels();
    let body: Vec<u8> = pixels.iter().flat_map(|f| f.to_le_bytes()).collect();
    let n = body.len();
    for framing in [
        format!("content-length: {n}\r\ncontent-length: {}", n + 7),
        format!("content-length: +{n}"),
    ] {
        let mut c = Client::connect(addr);
        c.send_raw(
            format!(
                "POST /v1/extract HTTP/1.1\r\nhost: test\r\ncontent-type: application/octet-stream\r\n\
                 x-video-shape: 4x16x16\r\n{framing}\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
        c.send_raw(&body).unwrap();
        let resp = c.read_response().unwrap();
        assert_eq!(resp.status, 400, "{framing}: {}", resp.body);
        assert!(resp.body.contains("\"kind\":\"bad_request\""), "{}", resp.body);
        assert_eq!(resp.header("connection"), Some("close"), "{framing}");

        let honest = post_clip(addr, "4x16x16", &pixels, &[]).unwrap();
        assert_eq!(honest.status, 200, "{}", honest.body);
    }
    server.shutdown();
}

/// A body no route reads is never parsed as the next request. Each keep-alive
/// request below carries a complete `GET /stats` request as its body; the
/// server answers it once, announces the close, and the second request is
/// never answered.
#[test]
fn an_unread_body_closes_the_connection_instead_of_desyncing_it() {
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let smuggled = "GET /stats HTTP/1.1\r\nhost: test\r\n\r\n";
    for (method, path, status) in [
        ("GET", "/healthz", 200),
        ("GET", "/readyz", 200),
        ("GET", "/stats", 200),
        ("POST", "/sessions", 200),
        ("GET", "/no/such/path", 404),
        ("DELETE", "/v1/extract", 405),
    ] {
        let mut c = Client::connect(addr);
        // One write, so the body is on the wire before the head is parsed.
        c.send_raw(
            format!(
                "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{smuggled}",
                smuggled.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let resp = c.read_response().unwrap();
        assert_eq!(resp.status, status, "{method} {path}: {}", resp.body);
        assert_eq!(resp.header("connection"), Some("close"), "{method} {path}");
        assert!(c.read_response().is_err(), "{method} {path}: the body was served as a request");
    }
    // Without a body the same connection stays open.
    let mut c = Client::connect(addr);
    for _ in 0..2 {
        let resp = c.request("GET", "/healthz", &[], b"").unwrap();
        assert_eq!((resp.status, resp.header("connection")), (200, None));
    }
    server.shutdown();
}

/// Three honest clients at once, four extractions each: the statuses they
/// got. The fault tests run them beside their misbehaving client — a
/// stalled or vanished peer must cost them nothing.
fn honest_clients(addr: SocketAddr) -> Vec<u16> {
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(move || {
                    let pixels = valid_pixels();
                    (0..4)
                        .map(|_| post_clip(addr, "4x16x16", &pixels, &[]).unwrap().status)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("honest client")).collect()
    })
}

/// A client that disconnects mid-body can never wedge a handler: the
/// server sees the truncation and moves on, and the next connection works.
#[test]
fn truncated_bodies_close_cleanly_and_the_listener_survives() {
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut w = stream.try_clone().unwrap();
    w.write_all(b"POST /v1/extract HTTP/1.1\r\nhost: t\r\ncontent-length: 4096\r\n\r\nonly-this")
        .unwrap();
    w.flush().unwrap();
    // Its handler is parked mid-body; honest traffic is served around it.
    assert_eq!(honest_clients(addr), [200; 12]);
    stream.shutdown(Shutdown::Write).unwrap();
    // The server answers 400 (or just closes) — either way, no hang:
    let mut reader = BufReader::new(stream);
    let _ = std::io::BufRead::fill_buf(&mut reader);

    // And the listener is still alive and correct.
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    server.shutdown();
}

/// A client that connects and stalls is bounded by the read timeout.
#[test]
fn slow_clients_time_out_with_408() {
    let cfg = ServerConfig { read_timeout: Duration::from_millis(200), ..ServerConfig::default() };
    let mut server = Server::start(tiny_extractor(), cfg).unwrap();
    let addr = server.local_addr();

    let mut c = Client::connect(addr);
    // Half a request line, then silence — while honest traffic, started
    // after the stall began, is served around it.
    c.send_raw(b"POST /v1/ex").unwrap();
    let honest = std::thread::spawn(move || honest_clients(addr));
    let resp = c.read_response().unwrap();
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"read_timeout\""), "{}", resp.body);

    assert_eq!(honest.join().unwrap(), [200; 12]);
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // No byte sequence can panic the head parser; the outcome is always
    // a typed result.
    #[test]
    fn arbitrary_bytes_never_panic_the_head_parser(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = tsdx_serve::http::read_head(&mut BufReader::new(bytes.as_slice()));
    }

    // No byte sequence can panic the JSON parser.
    #[test]
    fn arbitrary_bytes_never_panic_the_json_parser(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = tsdx_serve::json::parse(&bytes);
    }

    // Truncating a valid request at any byte still yields a typed result
    // from the parser stack (a `Head`, a clean EOF, or a `BadRequest`) —
    // the failure mode a dying client actually produces.
    #[test]
    fn truncated_valid_requests_stay_typed(cut in 0usize..120) {
        let full = b"POST /v1/extract HTTP/1.1\r\nhost: t\r\ncontent-length: 20\r\n\r\n{\"shape\":[1],\"pixels\"";
        let cut = cut.min(full.len());
        let mut r = BufReader::new(&full[..cut]);
        if let Ok(Some(head)) = tsdx_serve::http::read_head(&mut r) {
            let _ = tsdx_serve::http::read_body(&mut r, &head, 1024);
        }
    }
}
