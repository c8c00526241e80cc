//! End-to-end smoke: boot a real server on a real socket, health-check it,
//! run extraction round-trips in both encodings, and prove graceful
//! shutdown answers everything already admitted.

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use common::{get, post_clip, tiny_extractor, valid_pixels, Client};
use tsdx_sdl::parse_scenario;
use tsdx_serve::{BatchConfig, SearchService, Server, ServerConfig};

fn test_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

#[test]
fn health_ready_stats_round_trip() {
    let mut server = Server::start(tiny_extractor(), test_config()).unwrap();
    let addr = server.local_addr();

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200, "{}", health.body);
    assert!(health.body.contains("\"ok\""));

    let ready = get(addr, "/readyz");
    assert_eq!(ready.status, 200, "{}", ready.body);
    assert!(ready.body.contains("\"ready\":true"));

    let stats = get(addr, "/stats");
    assert_eq!(stats.status, 200);
    assert!(
        tsdx_serve::json::parse(stats.body.as_bytes()).is_ok(),
        "stats must be valid JSON: {}",
        stats.body
    );

    server.shutdown();
}

#[test]
fn extraction_round_trips_in_both_encodings_under_the_stage_tier() {
    let mut server = Server::start(tiny_extractor(), test_config()).unwrap();
    let addr = server.local_addr();
    let pixels = valid_pixels();

    // Fast path: raw f32 little-endian body + shape header.
    let resp = post_clip(addr, "4x16x16", &pixels, &[]).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = tsdx_serve::json::parse(resp.body.as_bytes()).unwrap();
    let scenario = parsed.get("scenario").expect("response carries a scenario");
    assert!(matches!(scenario, tsdx_serve::json::Json::Str(s) if s.contains("ego ")));

    // JSON path answers the same scenario for the same pixels.
    let pixel_list = pixels.iter().map(|p| format!("{p}")).collect::<Vec<_>>().join(",");
    let body = format!("{{\"shape\":[4,16,16],\"pixels\":[{pixel_list}]}}");
    // A temporary client: a connection left open would hold `shutdown`
    // for the whole read timeout.
    let json_resp =
        Client::connect(addr).request("POST", "/v1/extract", &[], body.as_bytes()).unwrap();
    assert_eq!(json_resp.status, 200, "{}", json_resp.body);
    let json_parsed = tsdx_serve::json::parse(json_resp.body.as_bytes()).unwrap();
    assert_eq!(json_parsed.get("scenario"), parsed.get("scenario"));

    server.shutdown();
    // Both forwards ran under the worker's stage scope, which keeps what
    // `/stats` serves and nothing op-level. (That no served forward reaches
    // the int8 GEMM is `tsdx-core`'s `tests/streaming_parity.rs`, under a
    // full scope.)
    let worker = server.stats().worker_metrics();
    assert_eq!(worker.hists.get("stage/serve_batch").map_or(0, |h| h.count), 2);
    let op_level = ["op/", "layer/", "dispatch/"];
    let keys = worker.counters.keys().chain(worker.spans.keys()).chain(worker.hists.keys());
    for key in keys {
        assert!(!op_level.iter().any(|p| key.starts_with(p)), "the worker collected {key}");
    }
}

fn tiny_corpus() -> Arc<SearchService> {
    Arc::new(SearchService::build(
        [
            "ego cruise; vehicle leading ahead; road straight",
            "ego decelerate-to-stop; pedestrian crossing; road intersection",
            "ego turn-left; road intersection",
            "ego accelerate; cyclist crossing left; road straight",
        ]
        .iter()
        .map(|t| parse_scenario(t).expect("valid SDL")),
    ))
}

#[test]
fn search_by_sdl_round_trips_with_typed_rejections() {
    let mut server =
        Server::start_with_search(tiny_extractor(), Some(tiny_corpus()), test_config()).unwrap();
    let addr = server.local_addr();

    let body = br#"{"sdl":"ego turn-left; road intersection","k":2}"#;
    let resp = Client::connect(addr).request("POST", "/search", &[], body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = tsdx_serve::json::parse(resp.body.as_bytes()).unwrap();
    let hits = parsed.get("hits").and_then(|h| h.as_arr()).expect("hits array");
    assert_eq!(hits.len(), 2);
    // The query is itself indexed (id 2): exact match first.
    assert_eq!(hits[0].get("id").and_then(|j| j.as_num()), Some(2.0));
    let sim = hits[0].get("similarity").and_then(|j| j.as_num()).expect("similarity");
    assert!((sim - 1.0).abs() < 1e-4, "{sim}");
    assert!(matches!(
        hits[0].get("sdl"),
        Some(tsdx_serve::json::Json::Str(s)) if s == "ego turn-left; road intersection"
    ));
    assert_eq!(parsed.get("indexed").and_then(|j| j.as_num()), Some(4.0));

    // Malformed queries are typed 400s, wrong method a 405.
    for bad in [
        &br#"{"sdl":"ego warp-drive; road moon"}"#[..],
        br#"{"sdl":42}"#,
        br#"{"sdl":"ego cruise; road straight","k":0}"#,
        br#"{"sdl":"ego cruise; road straight","k":1e9}"#,
    ] {
        let r = Client::connect(addr).request("POST", "/search", &[], bad).unwrap();
        assert_eq!(r.status, 400, "{bad:?} gave {}", r.body);
    }
    let r = Client::connect(addr).request("GET", "/search", &[], b"").unwrap();
    assert_eq!(r.status, 405, "{}", r.body);

    server.shutdown();
}

#[test]
fn search_by_clip_round_trips_in_both_encodings() {
    let mut server =
        Server::start_with_search(tiny_extractor(), Some(tiny_corpus()), test_config()).unwrap();
    let addr = server.local_addr();
    let pixels = valid_pixels();

    // Fast path: raw pixels + shape header, k from X-Search-K.
    let body: Vec<u8> = pixels.iter().flat_map(|f| f.to_le_bytes()).collect();
    let headers = [
        ("content-type", "application/octet-stream"),
        ("x-video-shape", "4x16x16"),
        ("x-search-k", "3"),
    ];
    let resp = Client::connect(addr).request("POST", "/search", &headers, &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = tsdx_serve::json::parse(resp.body.as_bytes()).unwrap();
    let hits = parsed.get("hits").and_then(|h| h.as_arr()).expect("hits array");
    assert_eq!(hits.len(), 3);
    assert!(matches!(
        parsed.get("scenario"),
        Some(tsdx_serve::json::Json::Str(s)) if s.contains("ego ")
    ));

    // JSON clip variant: same pixels, k in the body, identical extraction.
    let pixel_list = pixels.iter().map(|p| format!("{p}")).collect::<Vec<_>>().join(",");
    let json_body = format!("{{\"shape\":[4,16,16],\"pixels\":[{pixel_list}],\"k\":3}}");
    let json_resp =
        Client::connect(addr).request("POST", "/search", &[], json_body.as_bytes()).unwrap();
    assert_eq!(json_resp.status, 200, "{}", json_resp.body);
    let json_parsed = tsdx_serve::json::parse(json_resp.body.as_bytes()).unwrap();
    assert_eq!(json_parsed.get("scenario"), parsed.get("scenario"));
    assert_eq!(json_parsed.get("hits"), parsed.get("hits"));

    server.shutdown();
}

#[test]
fn search_without_an_index_is_not_found() {
    let mut server = Server::start(tiny_extractor(), test_config()).unwrap();
    let body = br#"{"sdl":"ego cruise; road straight"}"#;
    let resp = Client::connect(server.local_addr()).request("POST", "/search", &[], body).unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    server.shutdown();
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let mut server = Server::start(tiny_extractor(), test_config()).unwrap();
    let mut c = Client::connect(server.local_addr());
    for _ in 0..3 {
        let r = c.request("GET", "/healthz", &[], b"").unwrap();
        assert_eq!(r.status, 200);
    }
    // An explicit Connection: close is honored.
    let r = c.request("GET", "/healthz", &[("connection", "close")], b"").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("connection"), Some("close"));
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_everything_admitted() {
    let cfg = ServerConfig {
        batch: BatchConfig { max_batch: 4, ..BatchConfig::default() },
        ..test_config()
    };
    let mut server = Server::start(tiny_extractor(), cfg).unwrap();
    let addr = server.local_addr();
    let pixels = valid_pixels();

    // A burst of concurrent extractions...
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let pixels = pixels.clone();
            std::thread::spawn(move || post_clip(addr, "4x16x16", &pixels, &[]).unwrap().status)
        })
        .collect();
    // ...and a graceful shutdown racing them.
    std::thread::sleep(Duration::from_millis(20));
    server.shutdown();

    let statuses: Vec<u16> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    // Every request got a typed answer: 200 if admitted, 503 if it arrived
    // after draining began. Nothing was accepted-then-dropped.
    for s in &statuses {
        assert!(*s == 200 || *s == 503, "unexpected status {s} in {statuses:?}");
    }
    let stats = server.stats();
    let accepted = stats.accepted.load(Ordering::Relaxed);
    let completed = stats.completed.load(Ordering::Relaxed);
    assert_eq!(
        accepted, completed,
        "drain must answer every admitted request (accepted={accepted} completed={completed})"
    );
    assert_eq!(statuses.iter().filter(|&&s| s == 200).count() as u64, completed);

    // The listener is gone: readiness probes now fail to connect.
    assert!(
        std::net::TcpStream::connect(addr).is_err() || {
            // Accept loop may have exited with the socket still in TIME_WAIT on
            // some kernels; a connect that succeeds must at least get no answer.
            let mut c = Client::connect(addr);
            c.request("GET", "/readyz", &[], b"").map(|r| r.status == 503).unwrap_or(true)
        }
    );
}

#[test]
fn overload_sheds_typed_and_drops_nothing_admitted() {
    // Far more concurrent demand than a four-slot queue drained two at a
    // time can hold: the surplus must be shed with typed, retryable
    // envelopes, and everything admitted must be answered inside its budget.
    let (clients, requests, deadline_ms) = (12usize, 6usize, 2000u64);
    let cfg =
        ServerConfig { batch: BatchConfig { queue_capacity: 4, max_batch: 2 }, ..test_config() };
    let mut server = Server::start(tiny_extractor(), cfg).unwrap();
    let addr = server.local_addr();
    let start = std::sync::Barrier::new(clients);
    let (pixels, budget) = (valid_pixels(), deadline_ms.to_string());

    let replies: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    (0..requests)
                        .map(|_| post_clip(addr, "4x16x16", &pixels, &[("x-deadline-ms", &budget)]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect()
    });
    let (mut ok, mut shed) = (0usize, 0usize);
    assert_eq!(replies.len(), clients * requests);
    for resp in replies {
        let resp = resp.expect("every request gets an answer");
        let body = tsdx_serve::json::parse(resp.body.as_bytes()).expect("JSON reply");
        if resp.status == 200 {
            ok += 1;
            let queued = body.get("queued_us").and_then(|j| j.as_num()).expect("queued_us");
            assert!(queued <= (deadline_ms * 1000) as f64, "served past its budget: {queued}");
        } else {
            shed += 1;
            assert!(matches!(resp.status, 429 | 503), "untyped outcome: {resp:?}");
            let err = body.get("error").expect("error envelope");
            assert_eq!(err.get("status").and_then(|j| j.as_num()), Some(resp.status as f64));
            assert_eq!(err.get("retryable"), Some(&tsdx_serve::json::Json::Bool(true)));
            assert!(resp.header("retry-after").is_some(), "{resp:?}");
        }
    }
    assert!(shed > 0, "a 4-slot queue under {clients} clients must shed");

    server.shutdown();
    let stats = server.stats();
    let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    assert_eq!(
        count(&stats.accepted),
        count(&stats.completed) + count(&stats.shed_deadline),
        "admitted requests must be answered, never dropped"
    );
    assert_eq!(count(&stats.completed), ok as u64);
}

#[test]
fn admin_shutdown_endpoint_drains_remotely() {
    let mut server = Server::start(tiny_extractor(), test_config()).unwrap();
    let addr = server.local_addr();

    let resp = Client::connect(addr).request("POST", "/admin/shutdown", &[], b"").unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    assert!(resp.body.contains("draining"));

    // The server refuses new work while draining and is fully down soon.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match std::net::TcpStream::connect(addr) {
            Err(_) => break, // listener closed: drained
            Ok(_) => {
                assert!(std::time::Instant::now() < deadline, "drain never finished");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    server.shutdown(); // idempotent
}
