//! Streaming sessions are bit-identical to full recompute, window by window.
//!
//! The parity contract of `StreamSession` (see `crates/core/src/session.rs`)
//! is that sliding over a long video and reading out head logits after each
//! new group produces **exactly** the bits a from-scratch forward pass over
//! the same window produces — for every readout, attention kind, pool size,
//! and workspace mode. The reference here is a *fresh* session per window,
//! which is the same single forward path `extract_checked` uses, so the two
//! public entry points cannot drift apart either.
//!
//! Bitwise equality (via `f32::to_bits`) is deliberate: the caches reuse
//! per-group spatial outputs, rounds batch encodes and readouts across
//! streams, and any reassociation of the arithmetic would show up as a
//! one-ulp wobble long before it became a wrong label.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_core::precision::{self, Precision};
use tsdx_core::{
    encode_staged, readout_staged, AttentionKind, ClipModel, ModelConfig, Readout,
    ScenarioExtractor, StreamState, WindowLogits,
};
use tsdx_tensor::{metrics, ops, pool, workspace, Graph, Tensor};

fn tiny_cfg(attention: AttentionKind, readout: Readout) -> ModelConfig {
    ModelConfig {
        frames: 4,
        height: 16,
        width: 16,
        tubelet_t: 2,
        patch: 8,
        dim: 16,
        spatial_depth: 1,
        temporal_depth: 1,
        heads: 2,
        mlp_ratio: 2,
        dropout: 0.0,
        attention,
        readout,
    }
}

/// A long synthetic video `[frames, 16, 16]` with smoothly varying content
/// so no two windows are identical.
fn long_video(frames: usize, seed: f32) -> Tensor {
    Tensor::from_fn(&[frames, 16, 16], |i| ((i as f32 * 0.0137) + seed).sin() * 0.5)
}

/// Frames `[start, start + len)` of `video` as a standalone `[len, H, W]`
/// tensor.
fn slice_frames(video: &Tensor, start: usize, len: usize) -> Tensor {
    let sh = video.shape();
    let frame = sh[1] * sh[2];
    Tensor::from_vec(
        video.data()[start * frame..(start + len) * frame].to_vec(),
        &[len, sh[1], sh[2]],
    )
}

/// Full-recompute reference: a fresh session fed exactly one window — the
/// same forward path as `extract_checked`, with no warm caches to reuse.
fn reference_logits(ex: &ScenarioExtractor, window: &Tensor) -> WindowLogits {
    let mut s = ex.open_stream();
    s.push_frames(window).expect("well-formed window");
    s.logits().expect("full window")
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(a: &WindowLogits, b: &WindowLogits, ctx: &str) {
    for (name, x, y) in [
        ("ego", &a.ego, &b.ego),
        ("road", &a.road, &b.road),
        ("event", &a.event, &b.event),
        ("position", &a.position, &b.position),
        ("presence", &a.presence, &b.presence),
    ] {
        assert_eq!(bits(x), bits(y), "{name} logits diverged ({ctx})");
    }
}

/// Streams `video` into a session chunk by chunk; after every chunk that
/// completes at least one group and fills a window, compares the session's
/// logits against a fresh full recompute of the same window.
fn check_schedule(ex: &ScenarioExtractor, video: &Tensor, chunks: &[usize], ctx: &str) {
    let cfg = *ex.model().config();
    let mut session = ex.open_stream();
    let mut fed = 0usize;
    let mut windows_checked = 0usize;
    for (ci, &n) in chunks.iter().enumerate() {
        let chunk = slice_frames(video, fed, n);
        session.push_frames(&chunk).expect("well-formed chunk");
        fed += n;
        let Some((start, end)) = session.window_groups() else { continue };
        let streamed = session.logits().expect("ready session");
        let start_frame = start as usize * cfg.tubelet_t;
        assert_eq!(end as usize * cfg.tubelet_t, (fed / cfg.tubelet_t) * cfg.tubelet_t);
        let window = slice_frames(video, start_frame, cfg.frames);
        let full = reference_logits(ex, &window);
        assert_bit_identical(
            &streamed,
            &full,
            &format!("{ctx}, chunk {ci}, window {start}..{end}"),
        );
        windows_checked += 1;
    }
    assert!(windows_checked > 0, "schedule never produced a full window ({ctx})");
    assert_eq!(fed, chunks.iter().sum::<usize>());
}

#[test]
fn sliding_sessions_match_full_recompute_across_threads_and_workspace_modes() {
    // 20 frames = 10 groups = 7 overlapping windows at stride 1 group; the
    // schedule mixes whole windows, single frames, and group-straddling
    // chunks so pending-buffer bookkeeping is exercised too.
    let chunks = [4usize, 1, 2, 3, 2, 1, 1, 2, 4];
    let video = long_video(20, 0.3);
    for threads in [1usize, 2] {
        for ws in [false, true] {
            pool::with_forced_threads(threads, || {
                workspace::with_mode(ws, || {
                    for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
                        for readout in [Readout::Cls, Readout::MeanPool] {
                            let ex = ScenarioExtractor::untrained(tiny_cfg(attention, readout), 11);
                            let ctx = format!(
                                "threads={threads}, workspace={ws}, {attention:?}/{readout:?}"
                            );
                            check_schedule(&ex, &video, &chunks, &ctx);
                        }
                    }
                })
            });
        }
    }
}

#[test]
fn multiplexed_batched_encodes_match_independent_sessions_across_dials() {
    // N interleaved streams whose group encodes go through the cross-stream
    // batched scheduler path (`stage_frames` + one `encode_staged` per
    // tick) must be bit-identical to N independent self-encoding sessions —
    // under every pool size, workspace mode, and precision plane. This is
    // the invariant the serving layer's mixed batch queue rests on.
    let n = 3usize;
    let chunks = [2usize, 3, 1, 2, 2, 2]; // group-aligned and straddling pushes
    for threads in [1usize, 2] {
        for ws in [false, true] {
            for plane in [Precision::F32, Precision::Int8] {
                pool::with_forced_threads(threads, || {
                    workspace::with_mode(ws, || {
                        precision::with_forced(plane, || {
                            for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
                                let ctx = format!(
                                    "threads={threads}, workspace={ws}, plane={plane:?}, \
                                     {attention:?}"
                                );
                                let ex = ScenarioExtractor::untrained(
                                    tiny_cfg(attention, Readout::Cls),
                                    47,
                                );
                                let model = ex.model();
                                let videos: Vec<Tensor> =
                                    (0..n).map(|s| long_video(12, s as f32 * 0.9 + 0.1)).collect();
                                let mut muxed: Vec<StreamState> =
                                    (0..n).map(|_| StreamState::new(*model.config())).collect();
                                let mut solo: Vec<_> = (0..n).map(|_| ex.open_stream()).collect();
                                let mut fed = 0usize;
                                for &len in &chunks {
                                    for s in 0..n {
                                        let chunk = slice_frames(&videos[s], fed, len);
                                        muxed[s].stage_frames(&chunk).unwrap();
                                        solo[s].push_frames(&chunk).unwrap();
                                    }
                                    fed += len;
                                    let mut refs: Vec<&mut StreamState> =
                                        muxed.iter_mut().collect();
                                    let report = encode_staged(model, &mut refs);
                                    assert!(
                                        report.streams == n || report.groups == 0,
                                        "all streams push in lockstep ({ctx}): {report:?}"
                                    );
                                    for s in 0..n {
                                        assert_eq!(
                                            muxed[s].ready(),
                                            solo[s].ready(),
                                            "readiness diverged ({ctx}, stream {s})"
                                        );
                                        if muxed[s].ready() {
                                            let a = muxed[s].logits(model).unwrap();
                                            let b = solo[s].logits().unwrap();
                                            assert_bit_identical(
                                                &a,
                                                &b,
                                                &format!("{ctx}, stream {s}, fed {fed}"),
                                            );
                                        }
                                    }
                                }
                            }
                        })
                    })
                });
            }
        }
    }
}

#[test]
fn batched_readout_matches_solo_describe_on_ragged_rounds_across_dials() {
    // One `readout_staged` over three states in three different conditions
    // per round — `fresh` slid by a group (stale memo: joins the forward),
    // `idle` got nothing since its last readout (memo hit: no forward),
    // `short` is still short of a window (the same `TooShort` a solo
    // describe answers) — must give each exactly what reading out alone
    // gives: equal results, and bit-identical logits.
    let rounds = 3usize; // `short` ends one frame short of a window
    for threads in [1usize, 2] {
        for ws in [false, true] {
            for plane in [Precision::F32, Precision::Int8] {
                for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
                    let ctx = format!(
                        "threads={threads}, workspace={ws}, plane={plane:?}, {attention:?}"
                    );
                    let run = || {
                        let ex =
                            ScenarioExtractor::untrained(tiny_cfg(attention, Readout::Cls), 53);
                        let model = ex.model();
                        let videos: Vec<Tensor> =
                            (0..3).map(|s| long_video(12, s as f32 * 0.7 + 0.2)).collect();
                        let mut muxed: Vec<StreamState> =
                            (0..3).map(|_| StreamState::new(*model.config())).collect();
                        let mut solo: Vec<_> = (0..3).map(|_| ex.open_stream()).collect();
                        let mut fed = [0usize; 3];
                        for round in 0..rounds {
                            // fresh: a window, then a group per round; idle:
                            // a window once; short: one frame per round.
                            let lens =
                                [if round == 0 { 4 } else { 2 }, 4 * (round == 0) as usize, 1];
                            for s in 0..3 {
                                let chunk = slice_frames(&videos[s], fed[s], lens[s]);
                                muxed[s].stage_frames(&chunk).unwrap();
                                solo[s].push_frames(&chunk).unwrap();
                                fed[s] += lens[s];
                            }
                            let scope = metrics::scope();
                            let mut refs: Vec<&mut StreamState> = muxed.iter_mut().collect();
                            encode_staged(model, &mut refs);
                            let got = readout_staged(model, &mut refs);
                            let snap = scope.snapshot();
                            drop(scope);
                            let forwards =
                                snap.hists.get("stage/stream_infer").map_or(0, |h| h.count);
                            assert_eq!(forwards, 1, "one readout forward per round ({ctx})");
                            let idle_hit = u64::from(round > 0);
                            assert_eq!(snap.counter("stage/window_hit"), idle_hit, "{ctx}");
                            for s in 0..3 {
                                let want = solo[s].describe();
                                assert_eq!(got[s], want, "{ctx}, round {round}, stream {s}");
                                if want.is_ok() {
                                    assert_bit_identical(
                                        &muxed[s].logits(model).unwrap(),
                                        &solo[s].logits().unwrap(),
                                        &format!("{ctx}, round {round}, stream {s}"),
                                    );
                                }
                            }
                            assert!(got[2].is_err(), "`short` never fills a window ({ctx})");
                        }
                        // Nothing stale: no forward at all.
                        let scope = metrics::scope();
                        let mut refs: Vec<&mut StreamState> = muxed.iter_mut().collect();
                        readout_staged(model, &mut refs);
                        let snap = scope.snapshot();
                        assert!(!snap.hists.contains_key("stage/stream_infer"), "{ctx}");
                        assert_eq!(snap.counter("stage/window_hit"), 2, "{ctx}");
                    };
                    pool::with_forced_threads(threads, || {
                        workspace::with_mode(ws, || precision::with_forced(plane, run))
                    });
                }
            }
        }
    }
}

#[test]
fn served_batch_of_eight_matches_eight_solo_extractions_across_dials() {
    // The shape a full serving batch runs: eight default-config clips
    // stacked into one forward. A CLS stack's last block scores one query
    // row against all keys, so its composed/fused dispatch is on
    // `B·H·1·T`; the blocks before it dispatch on `B·H·T·T`. At B = 8 both
    // are on the composed side a solo clip takes, so every row of the
    // stacked logits must carry that clip's solo bits.
    let cfg = ModelConfig::default();
    let clips: Vec<Tensor> = (0..8)
        .map(|c| {
            Tensor::from_fn(&[cfg.frames, cfg.height, cfg.width], |i| {
                ((i as f32 * 0.0137) + c as f32 * 0.61).sin() * 0.5
            })
        })
        .collect();
    let stacked = Tensor::from_vec(
        clips.iter().flat_map(|c| c.data().iter().copied()).collect(),
        &[8, cfg.frames, cfg.height, cfg.width],
    );
    let ex = ScenarioExtractor::untrained(cfg, 59);
    for threads in [1usize, 2] {
        for ws in [false, true] {
            for plane in [Precision::F32, Precision::Int8] {
                let ctx = format!("threads={threads}, workspace={ws}, plane={plane:?}");
                let run = || {
                    let model = ex.model();
                    let mut g = Graph::new();
                    let p = model.bind_eval(&mut g);
                    let l =
                        model.forward(&mut g, &p, &stacked, &mut StdRng::seed_from_u64(0), false);
                    for (c, clip) in clips.iter().enumerate() {
                        let row = |v| ops::narrow(g.value(v), 0, c, 1);
                        let batched = WindowLogits {
                            ego: row(l.ego),
                            road: row(l.road),
                            event: row(l.event),
                            position: row(l.position),
                            presence: row(l.presence),
                        };
                        let solo = reference_logits(&ex, clip);
                        assert_bit_identical(&batched, &solo, &format!("{ctx}, clip {c}"));
                    }
                };
                pool::with_forced_threads(threads, || {
                    workspace::with_mode(ws, || precision::with_forced(plane, run))
                });
            }
        }
    }
}

#[test]
fn streamed_windows_match_extract_checked_labels() {
    // The decoded scenario — not just the raw logits — must agree with the
    // one-shot public API on every window of a longer stream.
    let ex = ScenarioExtractor::untrained(tiny_cfg(AttentionKind::Factorized, Readout::Cls), 23);
    let cfg = *ex.model().config();
    let video = long_video(12, 1.7);
    let mut session = ex.open_stream();
    for start in (0..=video.shape()[0] - cfg.frames).step_by(cfg.tubelet_t) {
        let upto = start + cfg.frames;
        let already = session.frames_seen() as usize;
        session.push_frames(&slice_frames(&video, already, upto - already)).unwrap();
        let window = slice_frames(&video, start, cfg.frames);
        assert_eq!(
            session.describe().unwrap(),
            ex.extract_checked(&window).unwrap(),
            "window starting at frame {start}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random push schedules (chunk sizes 1..=7) slide a session over a
    // random-phase video; every full window must match full recompute
    // bit for bit. Windows land on arbitrary stride/overlap patterns
    // depending on where chunks happen to complete groups.
    #[test]
    fn random_chunk_schedules_preserve_bitwise_parity(
        chunks in pvec(1usize..=7, 4..8),
        seed in 0.0f32..10.0,
    ) {
        // >= 4 chunks of >= 1 frame guarantees at least one full window.
        let total: usize = chunks.iter().sum();
        let ex = ScenarioExtractor::untrained(
            tiny_cfg(AttentionKind::Factorized, Readout::Cls),
            31,
        );
        let video = long_video(total, seed);
        let ctx = format!("chunks={chunks:?}, seed={seed}");
        // `check_schedule` asserts at least one window was produced, which
        // holds because total >= frames and every frame is eventually fed.
        check_schedule(&ex, &video, &chunks, &ctx);
    }
}
