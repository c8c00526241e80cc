//! The two executors agree bit for bit on the whole model.
//!
//! Every inference entry point runs the layers' wiring on the non-recording
//! executor; `train`, `evaluate` and the public `forward(g, p, ..)` methods
//! run the same wiring on the tape. This matrix pins them to each other —
//! logits and embeddings, not only decoded scenarios — across encoder
//! variants, batch sizes, and every run-time switch. Both extraction
//! routes are in it: the batched window forward `extract_window_batch`
//! runs, and a stream's staged group encode and readout. In-crate because
//! the window forward and the tape side of an embedding or a group encode
//! are built from the model's crate-private parts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_nn::{Exec, Tape};
use tsdx_tensor::dial::RunConfig;
use tsdx_tensor::{ops, Graph, Tensor};

use crate::config::{AttentionKind, ModelConfig, Readout};
use crate::model::ClipModel;
use crate::session::{encode_staged, readout_staged, StreamState, WindowLogits};
use crate::tubelet::extract_tubelets;
use crate::{ScenarioExtractor, VideoScenarioTransformer};

fn bits(t: &Tensor) -> Vec<u32> {
    t.to_vec().into_iter().map(f32::to_bits).collect()
}

/// Tape values of the five heads for `videos` (`[B, T, H, W]`), one row of
/// all 32 logits per clip.
fn tape_logits(model: &VideoScenarioTransformer, videos: &Tensor) -> Vec<Vec<u32>> {
    let mut g = Graph::new();
    let p = model.params().bind_frozen(&mut g);
    let l = model.forward(&mut g, &p, videos, &mut StdRng::seed_from_u64(0), false);
    (0..videos.shape()[0])
        .map(|c| {
            [l.ego, l.road, l.event, l.position, l.presence]
                .iter()
                .flat_map(|&v| bits(&ops::narrow(g.value(v), 0, c, 1)))
                .collect()
        })
        .collect()
}

/// Tape value of the stage [`VideoScenarioTransformer::encode_group_batch`]
/// caches, and of the clip embedding, for `videos`.
fn tape_stages(model: &VideoScenarioTransformer, videos: &Tensor) -> (Tensor, Tensor) {
    let cfg = model.config();
    let mut g = Graph::new();
    let p = model.params().bind_frozen(&mut g);
    let ex = &mut Tape::eval(&mut g, &p);
    let tubs = ex.constant(extract_tubelets(cfg, videos));
    let tokens = model.embed_ref().forward(ex, &tubs);
    let groups = match cfg.attention {
        AttentionKind::Factorized => model.encoder_ref().first_stage(ex, &tokens, false).0,
        AttentionKind::Joint => tokens,
    };
    let emb = model.encoder_ref().forward(ex, &tokens);
    (g.value(groups).clone(), g.value(emb).clone())
}

/// All 32 logits of one window, in [`tape_logits`]' order.
fn window_bits(l: &WindowLogits) -> Vec<u32> {
    [&l.ego, &l.road, &l.event, &l.position, &l.presence].iter().flat_map(|t| bits(t)).collect()
}

#[test]
fn eval_executor_matches_the_tape_on_every_entry_point() {
    for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
        for readout in [Readout::Cls, Readout::MeanPool] {
            let cfg = ModelConfig { attention, readout, ..ModelConfig::default() };
            let ex = ScenarioExtractor::untrained(cfg, 23);
            let model = ex.model();
            let frame = cfg.height * cfg.width;
            let group = cfg.tubelet_t * frame;
            // One long feed: clip `c` is its window starting at group `c`.
            let feed =
                Tensor::from_fn(&[cfg.frames + 16 * cfg.tubelet_t, cfg.height, cfg.width], {
                    |i| (i as f32 * 0.0137).sin() * 0.5
                });
            let window = |c: usize| -> &[f32] { &feed.data()[c * group..][..cfg.frames * frame] };
            for rc in RunConfig::matrix() {
                rc.run(|| {
                    for b in [1usize, 3, 8, 16] {
                        let ctx = format!("{attention:?}/{readout:?}, B = {b}, {rc}");
                        let videos = Tensor::from_vec(
                            (0..b).flat_map(|c| window(c).iter().copied()).collect(),
                            &[b, cfg.frames, cfg.height, cfg.width],
                        );
                        let want = tape_logits(model, &videos);
                        let (want_groups, want_emb) = tape_stages(model, &videos);

                        // The batched window forward `extract_window_batch` runs.
                        let l = model.run(&mut model.eval(), &videos);
                        for (c, want) in want.iter().enumerate() {
                            let got: Vec<u32> =
                                [&l.ego, &l.road, &l.event, &l.position, &l.presence]
                                    .iter()
                                    .flat_map(|t| bits(&ops::narrow(t, 0, c, 1)))
                                    .collect();
                            assert_eq!(&got, want, "window forward, clip {c}, {ctx}");
                        }

                        // Stream logits: B windows staged, one batched group
                        // encode, one batched readout.
                        let mut states: Vec<StreamState> =
                            (0..b).map(|_| StreamState::new(cfg)).collect();
                        for (c, s) in states.iter_mut().enumerate() {
                            let clip = ops::narrow(&videos, 0, c, 1);
                            s.stage_frames(&clip.reshape(&[cfg.frames, cfg.height, cfg.width]))
                                .expect("well-formed window");
                        }
                        let mut refs: Vec<&mut StreamState> = states.iter_mut().collect();
                        encode_staged(model, &mut refs);
                        readout_staged(model, &mut refs);
                        for (c, s) in states.iter_mut().enumerate() {
                            let got = window_bits(&s.logits(model).expect("full window"));
                            assert_eq!(got, want[c], "logits, clip {c}, {ctx}");
                        }

                        assert_eq!(bits(&model.embed_clips(&videos)), bits(&want_emb), "{ctx}");

                        let pixels = videos.contiguous();
                        let groups: Vec<&[f32]> = pixels.data().chunks_exact(group).collect();
                        let got: Vec<u32> =
                            model.encode_group_batch(&groups).iter().flat_map(bits).collect();
                        assert_eq!(got, bits(&want_groups), "group encode, {ctx}");
                    }

                    // A 12-push stream: every slid window against the tape's
                    // forward of that window alone.
                    let mut session = ex.open_stream();
                    for push in 0..12 {
                        let from =
                            if push == 0 { 0 } else { cfg.frames + (push - 1) * cfg.tubelet_t };
                        let n = if push == 0 { cfg.frames } else { cfg.tubelet_t };
                        let chunk = Tensor::from_vec(
                            feed.data()[from * frame..(from + n) * frame].to_vec(),
                            &[n, cfg.height, cfg.width],
                        );
                        session.push_frames(&chunk).expect("well-formed chunk");
                        let got = window_bits(&session.logits().expect("full window"));
                        let alone = Tensor::from_vec(
                            window(push).to_vec(),
                            &[1, cfg.frames, cfg.height, cfg.width],
                        );
                        assert_eq!(
                            got,
                            tape_logits(model, &alone)[0],
                            "push {push}, {attention:?}/{readout:?}, {rc}"
                        );
                    }
                });
            }
        }
    }
}
