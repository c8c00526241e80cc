//! Streaming sessions are bit-identical to full recompute, window by window.
//!
//! The parity contract of `StreamSession` (see `crates/core/src/session.rs`)
//! is that sliding over a long video and reading out head logits after each
//! new group produces **exactly** the bits a from-scratch forward pass over
//! the same window produces — for every readout, attention kind, workspace
//! mode and f32 kernel (`RunConfig::matrix`). The reference here is
//! a *fresh* session per window: the stream route with nothing cached.
//! `extract_checked` takes the other route, the batched window forward;
//! the matrix test below holds the two to the same scenarios, and
//! `executor_parity.rs` holds both routes' logits to the tape bit for bit.
//! Nor do the bits move with the metrics tier a forward runs under.
//!
//! Bitwise equality (via `f32::to_bits`) is deliberate: the caches reuse
//! per-group spatial outputs, rounds batch encodes and readouts across
//! streams, and any reassociation of the arithmetic would show up as a
//! one-ulp wobble long before it became a wrong label.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_core::{
    encode_staged, readout_staged, AttentionKind, ClipModel, ModelConfig, Readout,
    ScenarioExtractor, StreamState, WindowLogits,
};
use tsdx_tensor::dial::{Kernel, RunConfig};
use tsdx_tensor::{metrics, ops, Graph, Tensor};

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

/// Full-recompute reference: a fresh session fed exactly one window, with
/// no warm caches to reuse.
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
fn sliding_sessions_match_full_recompute_across_run_configurations() {
    // 20 frames = 10 groups = 7 overlapping windows at stride 1 group; the
    // schedule mixes whole windows, single frames, and group-straddling
    // chunks so pending-buffer bookkeeping is exercised too.
    let chunks = [4usize, 1, 2, 3, 2, 1, 1, 2, 4];
    let video = long_video(20, 0.3);
    for rc in RunConfig::matrix() {
        rc.run(|| {
            for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
                for readout in [Readout::Cls, Readout::MeanPool] {
                    let ex = ScenarioExtractor::untrained(tiny_cfg(attention, readout), 11);
                    check_schedule(
                        &ex,
                        &video,
                        &chunks,
                        &format!("{rc}, {attention:?}/{readout:?}"),
                    );
                }
            }
        });
    }
}

#[test]
fn multiplexed_batched_encodes_match_independent_sessions_across_dials() {
    // N interleaved streams whose group encodes go through the cross-stream
    // batched scheduler path (`stage_frames` + one `encode_staged` per
    // tick) must be bit-identical to N independent self-encoding sessions —
    // under every workspace mode and kernel. This is the
    // invariant the serving layer's mixed batch queue rests on.
    let n = 3usize;
    let chunks = [2usize, 3, 1, 2, 2, 2]; // group-aligned and straddling pushes
    let run = |ctx: String, attention| {
        let ex = ScenarioExtractor::untrained(tiny_cfg(attention, Readout::Cls), 47);
        let model = ex.model();
        let videos: Vec<Tensor> = (0..n).map(|s| long_video(12, s as f32 * 0.9 + 0.1)).collect();
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
            let mut refs: Vec<&mut StreamState> = muxed.iter_mut().collect();
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
                    assert_bit_identical(&a, &b, &format!("{ctx}, stream {s}, fed {fed}"));
                }
            }
        }
    };
    for rc in RunConfig::matrix() {
        for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
            rc.run(|| run(format!("{rc}, {attention:?}"), attention));
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
    for rc in RunConfig::matrix() {
        for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
            let ctx = format!("{rc}, {attention:?}");
            rc.run(|| {
                let ex = ScenarioExtractor::untrained(tiny_cfg(attention, Readout::Cls), 53);
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
                    let lens = [if round == 0 { 4 } else { 2 }, 4 * (round == 0) as usize, 1];
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
                    let forwards = snap.hists.get("stage/stream_infer").map_or(0, |h| h.count);
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
            });
        }
    }
}

#[test]
fn every_path_agrees_bitwise_under_every_run_configuration() {
    // The one in-process matrix. Four paths compute a window's logits — a
    // cold single-window session, a row of the batch of eight a full serving batch
    // stacks, a session slid over the video, and a stream muxed with another
    // through one batched encode and one batched readout per round — and
    // `RunConfig::matrix` lists every recycling mode and f32 kernel a
    // process can run under. At the default model, factorized and
    // joint: within a configuration every path carries the one-shot bits,
    // and the one-shot bits do not move with the configuration. The dispatch
    // counters prove the kernel axis really switched, and that no linear
    // layer of the model reaches the int8 GEMM `tsdx_tensor::quant` keeps.
    for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
        let cfg = ModelConfig { attention, ..ModelConfig::default() };
        let ex = ScenarioExtractor::untrained(cfg, 59);
        let videos: Vec<Tensor> = (0..3)
            .map(|v| {
                Tensor::from_fn(&[12, cfg.height, cfg.width], |i| {
                    ((i as f32 * 0.0137) + v as f32 * 0.61).sin() * 0.5
                })
            })
            .collect();
        // Eight clips: the three windows of each video, less the last.
        let starts = [0, cfg.tubelet_t, 2 * cfg.tubelet_t];
        let clips: Vec<Tensor> = videos
            .iter()
            .flat_map(|v| starts.map(|s| slice_frames(v, s, cfg.frames)))
            .take(8)
            .collect();
        let stacked = Tensor::from_vec(
            clips.iter().flat_map(|c| c.data().iter().copied()).collect(),
            &[8, cfg.frames, cfg.height, cfg.width],
        );
        let mut first: Option<Vec<Vec<u32>>> = None;
        for rc in RunConfig::matrix() {
            let ctx = format!("{rc}, {attention:?}");
            let scope = metrics::scope();
            let one_shot: Vec<WindowLogits> = rc.run(|| {
                let one_shot: Vec<_> = clips.iter().map(|c| reference_logits(&ex, c)).collect();

                let model = ex.model();
                let mut g = Graph::new();
                let p = model.params().bind_frozen(&mut g);
                let l = model.forward(&mut g, &p, &stacked, &mut StdRng::seed_from_u64(0), false);
                for (c, solo) in one_shot.iter().enumerate() {
                    let row = |v| ops::narrow(g.value(v), 0, c, 1);
                    let batched = WindowLogits {
                        ego: row(l.ego),
                        road: row(l.road),
                        event: row(l.event),
                        position: row(l.position),
                        presence: row(l.presence),
                    };
                    assert_bit_identical(&batched, solo, &format!("batch-8 row {c} ({ctx})"));
                }

                let mut session = ex.open_stream();
                let mut muxed = [StreamState::new(cfg), StreamState::new(cfg)];
                for (w, &start) in starts.iter().enumerate() {
                    // The first window whole, then one new group per slide.
                    let new = if w == 0 { cfg.frames } else { cfg.tubelet_t };
                    let from = start + cfg.frames - new;
                    session.push_frames(&slice_frames(&videos[0], from, new)).unwrap();
                    let streamed = session.logits().unwrap();
                    assert_bit_identical(&streamed, &one_shot[w], &format!("streamed {w} ({ctx})"));
                    // The decoded scenario too, against the one-shot public API.
                    assert_eq!(session.describe(), ex.extract_checked(&clips[w]), "{ctx}");
                    for (state, v) in muxed.iter_mut().zip(&videos) {
                        state.stage_frames(&slice_frames(v, from, new)).unwrap();
                    }
                    let mut refs: Vec<&mut StreamState> = muxed.iter_mut().collect();
                    encode_staged(model, &mut refs);
                    readout_staged(model, &mut refs);
                    for (s, state) in muxed.iter_mut().enumerate() {
                        let got = state.logits(model).unwrap();
                        let want = &one_shot[starts.len() * s + w];
                        assert_bit_identical(&got, want, &format!("muxed {s}/{w} ({ctx})"));
                    }
                }
                one_shot
            });
            let snap = scope.snapshot();
            drop(scope);

            assert_eq!(snap.counter("dispatch/matmul_i8"), 0, "{ctx}");
            assert!(snap.span("op/matmul").count > 0, "no f32 product was counted ({ctx})");
            let avx512 = snap.counter("dispatch/matmul_avx512") > 0;
            assert_eq!(avx512, rc.kernel == Kernel::Avx512, "{ctx}");

            let got: Vec<Vec<u32>> = one_shot
                .iter()
                .map(|l| [&l.ego, &l.road, &l.event, &l.position, &l.presence].map(bits).concat())
                .collect();
            let want = first.get_or_insert_with(|| got.clone());
            assert!(got == *want, "the one-shot logits moved with the configuration ({ctx})");
        }

        // Nor do they move with the metrics tier: no scope, the stage scope
        // a serving worker holds, a full scope. The served B = 8 batch
        // decodes the same scenarios under each.
        let refs: Vec<&Tensor> = clips.iter().collect();
        let mut served = None;
        for open in [None, Some(metrics::stage_scope as fn() -> _), Some(metrics::scope)] {
            let _scope = open.map(|open| open());
            let got: Vec<Vec<u32>> = clips
                .iter()
                .map(|c| reference_logits(&ex, c))
                .map(|l| [&l.ego, &l.road, &l.event, &l.position, &l.presence].map(bits).concat())
                .collect();
            assert!(
                Some(&got) == first.as_ref(),
                "a metrics tier moved the logits ({attention:?})"
            );
            let scenarios: Vec<_> =
                ex.extract_window_batch(&refs).into_iter().map(Result::unwrap).collect();
            assert_eq!(
                &scenarios,
                served.get_or_insert_with(|| scenarios.clone()),
                "{attention:?}"
            );
        }
    }
}

#[test]
fn a_two_stream_round_makes_six_stage_records() {
    // What a serving worker's stage scope collects of a coalesced round:
    // one group encode, a cache miss per new group, one readout and a
    // cache-hit count per window, and nothing op-level.
    let cfg = tiny_cfg(AttentionKind::Factorized, Readout::Cls);
    let ex = ScenarioExtractor::untrained(cfg, 61);
    let videos = [long_video(cfg.frames + cfg.tubelet_t, 0.3), long_video(cfg.frames + 2, 1.7)];
    let mut muxed = [StreamState::new(cfg), StreamState::new(cfg)];
    let mut round = |from: usize, len: usize| {
        for (state, v) in muxed.iter_mut().zip(&videos) {
            state.stage_frames(&slice_frames(v, from, len)).unwrap();
        }
        let mut refs: Vec<&mut StreamState> = muxed.iter_mut().collect();
        encode_staged(ex.model(), &mut refs);
        for readout in readout_staged(ex.model(), &mut refs) {
            readout.unwrap();
        }
    };
    round(0, cfg.frames);
    let scope = metrics::stage_scope();
    round(cfg.frames, cfg.tubelet_t);
    let snap = scope.snapshot();
    assert_eq!(snap.total_records(), 6, "{snap}");
    let keys: Vec<&str> =
        snap.counters.keys().chain(snap.hists.keys()).map(String::as_str).collect();
    assert_eq!(
        keys,
        ["stage/cache_hit", "stage/cache_miss", "stage/mux_encode", "stage/stream_infer"]
    );
    assert!(snap.spans.is_empty(), "{snap}");
    assert_eq!(snap.counter("stage/cache_miss"), 2);
    assert_eq!(snap.counter("stage/cache_hit"), 2 * (cfg.n_time() as u64 - 1));
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
        for rc in RunConfig::matrix() {
            rc.run(|| check_schedule(&ex, &video, &chunks, &format!("{ctx}, {rc}")));
        }
    }
}
