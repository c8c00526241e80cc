//! Injected serve-side faults — an accept-loop stall, a client dying
//! mid-body, a handler panicking — and the invariant they all share: the
//! listener survives and keeps answering.
//!
//! Gated on `--features fault-inject`; `scripts/check.sh` runs it.

#![cfg(feature = "fault-inject")]

mod common;

use std::sync::Mutex;
use std::time::{Duration, Instant};

use common::{create_session, get, post_clip, tiny_extractor, valid_pixels};
use tsdx_serve::{Server, ServerConfig};

/// The fault registry is process-global; serialize the tests that arm it.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tsdx_tensor::faults::clear_all();
    guard
}

#[test]
fn accept_stall_delays_but_never_drops_requests() {
    let _guard = locked();
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    tsdx_tensor::faults::ACCEPT_STALL.arm(300);
    let t0 = Instant::now();
    // The first connection eats the stall; the one behind it queues in the
    // OS backlog and still completes.
    let first = std::thread::spawn(move || get(addr, "/healthz").status);
    let second = std::thread::spawn(move || get(addr, "/healthz").status);
    assert_eq!(first.join().unwrap(), 200);
    assert_eq!(second.join().unwrap(), 200);
    assert!(t0.elapsed() >= Duration::from_millis(300), "the stall must actually bite");

    let resp = post_clip(addr, "4x16x16", &valid_pixels(), &[]).unwrap();
    assert_eq!(resp.status, 200, "listener must keep extracting after the stall");
    server.shutdown();
}

#[test]
fn mid_body_disconnect_is_typed_and_contained() {
    let _guard = locked();
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // The injected fault truncates the body read partway through, exactly
    // what a client dying mid-upload produces.
    tsdx_tensor::faults::BODY_DISCONNECT.arm(64);
    let resp = post_clip(addr, "4x16x16", &valid_pixels(), &[]).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("mid-body"), "{}", resp.body);

    // Fresh connection, fresh request: full service.
    let resp = post_clip(addr, "4x16x16", &valid_pixels(), &[]).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    server.shutdown();
}

/// Two frames (half a window) of deterministic pixels, distinct per `salt`.
fn half_window_pixels(salt: usize) -> Vec<f32> {
    (0..2 * 16 * 16).map(|i| ((i + 131 * salt) as f32 * 0.011).sin()).collect()
}

/// An untouched in-process stream fed the half windows `salts`, in order.
fn solo_scenario(salts: &[usize]) -> String {
    let reference = tiny_extractor();
    let mut solo = reference.open_stream();
    for &salt in salts {
        let frames = tsdx_tensor::Tensor::from_vec(half_window_pixels(salt), &[2, 16, 16]);
        solo.push_frames(&frames).unwrap();
    }
    solo.describe().unwrap().to_string()
}

/// `POST /sessions/<id>/frames` with the 2 frames of [`half_window_pixels`].
fn push_half_window(addr: std::net::SocketAddr, id: u64, salt: usize) -> common::HttpResponse {
    let body: Vec<u8> = half_window_pixels(salt).iter().flat_map(|f| f.to_le_bytes()).collect();
    common::Client::connect(addr)
        .request(
            "POST",
            &format!("/sessions/{id}/frames"),
            &[("content-type", "application/octet-stream"), ("x-video-shape", "2x16x16")],
            &body,
        )
        .unwrap()
}

#[test]
fn mid_chunk_disconnect_leaves_the_session_resumable() {
    let _guard = locked();
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let id = create_session(addr);

    let resp = push_half_window(addr, id, 0);
    assert_eq!(resp.status, 200, "{}", resp.body);

    // The client dies mid-chunk: a typed 400 before the session is even
    // looked up — no torn frames land in the stream.
    tsdx_tensor::faults::BODY_DISCONNECT.arm(64);
    let resp = push_half_window(addr, id, 1);
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("mid-body"), "{}", resp.body);

    // Resending the same chunk completes the window, and the result matches
    // an untouched independent stream of the same frames: the disconnect
    // left no residue.
    let resp = push_half_window(addr, id, 1);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"ready\":true"), "{}", resp.body);
    assert!(resp.body.contains("\"frames_seen\":4"), "{}", resp.body);
    let expected =
        format!("\"scenario\":\"{}\"", tsdx_serve::json::escape(&solo_scenario(&[0, 1])));
    assert!(resp.body.contains(&expected), "{} !~ {expected}", resp.body);
    server.shutdown();
}

#[test]
fn batched_readout_panic_answers_500s_and_every_session_streams_on() {
    let _guard = locked();
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let ids = [create_session(addr), create_session(addr)];
    // Session `s` pushes the chunks salted 10·s, 10·s + 1, 10·s + 2.
    for (s, &id) in ids.iter().enumerate() {
        let resp = push_half_window(addr, id, 10 * s);
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    // The second halves fill both windows, pushed concurrently: the round
    // that reads out first — one session or both — dies after its forward,
    // before any window memo is written, and answers typed 500s.
    tsdx_tensor::faults::READOUT_PANIC.arm(());
    let pushes: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(s, &id)| std::thread::spawn(move || push_half_window(addr, id, 10 * s + 1)))
        .collect();
    let replies: Vec<_> = pushes.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(replies.iter().any(|r| r.status == 500), "the armed readout must fire");
    for resp in &replies {
        if resp.status == 500 {
            assert!(resp.body.contains("\"kind\":\"internal\""), "{}", resp.body);
            assert!(resp.body.contains("injected fault"), "{}", resp.body);
        } else {
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert!(resp.body.contains("\"ready\":true"), "{}", resp.body);
        }
    }
    assert_eq!(server.stats().panics_caught.load(std::sync::atomic::Ordering::Relaxed), 1);

    // Poisoned or not, every session kept the chunk it staged and slides
    // on: its next push reads out exactly what an untouched solo stream of
    // the same six frames reads out.
    for (s, &id) in ids.iter().enumerate() {
        let resp = push_half_window(addr, id, 10 * s + 2);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"frames_seen\":6"), "{}", resp.body);
        let solo = solo_scenario(&[10 * s, 10 * s + 1, 10 * s + 2]);
        let expected = format!("\"scenario\":\"{}\"", tsdx_serve::json::escape(&solo));
        assert!(resp.body.contains(&expected), "{} !~ {expected}", resp.body);
    }
    server.shutdown();
}

#[test]
fn session_table_exhaustion_is_typed_and_transient() {
    let _guard = locked();
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // The injected fault makes the table report capacity without filling
    // 256 real slots.
    tsdx_tensor::faults::SESSION_TABLE_FULL.arm(());
    let resp = common::Client::connect(addr).request("POST", "/sessions", &[], b"").unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"session_limit\""), "{}", resp.body);
    assert!(resp.body.contains("\"retryable\":true"), "{}", resp.body);

    // The shed is admission-time only: the retry succeeds and streams.
    let id = create_session(addr);
    let resp = push_half_window(addr, id, 0);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(server.stats().shed_sessions.load(std::sync::atomic::Ordering::Relaxed), 1);
    server.shutdown();
}

#[test]
fn session_route_panic_spares_listener_and_other_sessions() {
    let _guard = locked();
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // An innocent bystander session with half a window in flight.
    let id = create_session(addr);
    let resp = push_half_window(addr, id, 0);
    assert_eq!(resp.status, 200, "{}", resp.body);

    // The next session-route handler dies before touching any state.
    tsdx_tensor::faults::SESSION_ROUTE_PANIC.arm(());
    let resp = common::Client::connect(addr).request("POST", "/sessions", &[], b"").unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(resp.body.contains("injected fault"), "{}", resp.body);

    // The listener survives, and the bystander session streams on with its
    // buffered half-window intact.
    assert_eq!(get(addr, "/healthz").status, 200);
    let resp = push_half_window(addr, id, 1);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"ready\":true"), "{}", resp.body);
    assert!(resp.body.contains("\"frames_seen\":4"), "{}", resp.body);
    assert_eq!(server.stats().panics_caught.load(std::sync::atomic::Ordering::Relaxed), 1);
    server.shutdown();
}

#[test]
fn handler_panic_answers_500_and_spares_the_listener() {
    let _guard = locked();
    let mut server = Server::start(tiny_extractor(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Request indices are assigned in arrival order; the first request on a
    // fresh server is index 0.
    tsdx_tensor::faults::HANDLER_PANIC.arm(0);
    let resp = get(addr, "/healthz");
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"internal\""), "{}", resp.body);
    assert!(resp.body.contains("injected fault"), "{}", resp.body);

    // The panic was contained to that connection: the very next request —
    // including real model work — succeeds.
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    let resp = post_clip(addr, "4x16x16", &valid_pixels(), &[]).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(server.stats().panics_caught.load(std::sync::atomic::Ordering::Relaxed), 1);
    server.shutdown();
}
