//! Whole-model f64 reference forward, and the f32 model bounded against it.
//!
//! Every parity suite compares two production paths with each other, and
//! since the last block of each encoder stack computes only the row its
//! readout keeps, most of them share that pruning's algebra too. This file
//! shares nothing: the reference below is a naive f64 loop over nested
//! `Vec`s — no tensors, views, arena, tape, packing or fusing — that
//! cuts its own tubelets, runs **every block over every row**, and only
//! then reads row 0 (or the mean) out. It reads the parameters by their
//! registered names and nothing else from the model.
//!
//! What it can catch that bitwise self-parity cannot: a row mix-up, a
//! dropped residual, a wrong key/value row count, a stale cached group — a
//! mistake every production path makes alike.
//!
//! The bound is absolute, on logits of magnitude up to ~1.5 (untrained
//! Xavier heads on a LayerNorm-ed embedding): `|f32 − f64| ≤ 2e-5`.
//! Measured worst case over everything below: 1.8e-6 one-shot, 3.0e-6
//! batched (default config, B = 8 and B = 16), 2.2e-6 streamed — about 25 ulps of a
//! logit near 1.0, the accumulated rounding of four blocks of f32 GEMM,
//! softmax and LayerNorm. Feeding the last block's K and V one row instead
//! of all of them moves a logit by 2.5, a hundred thousand times the bound.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_core::{
    AttentionKind, ClipModel, ModelConfig, Readout, ScenarioExtractor, VideoScenarioTransformer,
    WindowLogits,
};
use tsdx_tensor::{Graph, Tensor};

const BOUND: f64 = 2e-5;

type Mat = Vec<Vec<f64>>;

/// The model's parameters by name, widened to f64.
struct Reference<'m> {
    model: &'m VideoScenarioTransformer,
}

impl Reference<'_> {
    fn cfg(&self) -> &ModelConfig {
        self.model.config()
    }

    /// A rank-1 parameter, or a `[1, D]` / `[D]`-like one flattened.
    fn vector(&self, name: &str) -> Vec<f64> {
        let (_, t) = self
            .model
            .params()
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no parameter named {name}"));
        t.to_vec().into_iter().map(f64::from).collect()
    }

    /// A parameter whose last dimension is `cols`, as rows of that width.
    fn matrix(&self, name: &str, cols: usize) -> Mat {
        self.vector(name).chunks(cols).map(<[f64]>::to_vec).collect()
    }

    /// `x @ W + b` for the linear layer registered under `name`.
    fn linear(&self, name: &str, x: &Mat, out: usize) -> Mat {
        let w = self.matrix(&format!("{name}.weight"), out); // [in][out]
        let b = self.vector(&format!("{name}.bias"));
        x.iter()
            .map(|row| {
                assert_eq!(row.len(), w.len(), "{name}: input width");
                (0..out)
                    .map(|j| b[j] + (0..row.len()).map(|k| row[k] * w[k][j]).sum::<f64>())
                    .collect()
            })
            .collect()
    }

    fn layer_norm(&self, name: &str, x: &Mat) -> Mat {
        let gamma = self.vector(&format!("{name}.gamma"));
        let beta = self.vector(&format!("{name}.beta"));
        x.iter()
            .map(|row| {
                let d = row.len() as f64;
                let mean = row.iter().sum::<f64>() / d;
                let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / d;
                let rstd = 1.0 / (var + 1e-5).sqrt();
                row.iter()
                    .zip(gamma.iter().zip(&beta))
                    .map(|(v, (g, b))| (v - mean) * rstd * g + b)
                    .collect()
            })
            .collect()
    }

    /// A full pre-norm block over all `x.len()` rows.
    fn block(&self, name: &str, x: &Mat) -> Mat {
        let (d, h) = (self.cfg().dim, self.cfg().heads);
        let dh = d / h;
        let n1 = self.layer_norm(&format!("{name}.ln1"), x);
        let q = self.linear(&format!("{name}.attn.wq"), &n1, d);
        let k = self.linear(&format!("{name}.attn.wk"), &n1, d);
        let v = self.linear(&format!("{name}.attn.wv"), &n1, d);
        let t = x.len();
        let mut ctx = vec![vec![0.0; d]; t];
        for head in 0..h {
            let cols = head * dh..(head + 1) * dh;
            for i in 0..t {
                let scores: Vec<f64> = (0..t)
                    .map(|j| {
                        cols.clone().map(|c| q[i][c] * k[j][c]).sum::<f64>() / (dh as f64).sqrt()
                    })
                    .collect();
                let top = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = scores.iter().map(|s| (s - top).exp()).collect();
                let z: f64 = exps.iter().sum();
                for c in cols.clone() {
                    ctx[i][c] = (0..t).map(|j| exps[j] / z * v[j][c]).sum();
                }
            }
        }
        let a = self.linear(&format!("{name}.attn.wo"), &ctx, d);
        let x1 = add(x, &a);
        let n2 = self.layer_norm(&format!("{name}.ln2"), &x1);
        let mut hid = self.linear(&format!("{name}.mlp.fc1"), &n2, self.cfg().mlp_ratio * d);
        for v in hid.iter_mut().flatten() {
            let u = (2.0 / std::f64::consts::PI).sqrt() * (*v + 0.044_715 * v.powi(3));
            *v = 0.5 * *v * (1.0 + u.tanh());
        }
        add(&x1, &self.linear(&format!("{name}.mlp.fc2"), &hid, d))
    }

    /// One encoder stage: optional CLS row, `depth` full blocks, the final
    /// norm over all rows, and only then the readout.
    fn stage(&self, name: &str, depth: usize, cls: &str, seq: &Mat) -> Vec<f64> {
        let mut x = seq.clone();
        if self.cfg().readout == Readout::Cls {
            x.insert(0, self.vector(cls));
        }
        for i in 0..depth {
            x = self.block(&format!("{name}.block{i}"), &x);
        }
        let x = self.layer_norm(&format!("{name}.ln_final"), &x);
        match self.cfg().readout {
            Readout::Cls => x[0].clone(),
            Readout::MeanPool => (0..self.cfg().dim)
                .map(|c| x.iter().map(|r| r[c]).sum::<f64>() / x.len() as f64)
                .collect(),
        }
    }

    /// Logits for one `[frames, H, W]` window, heads concatenated in
    /// `WindowLogits` field order.
    fn logits(&self, clip: &[f32]) -> Vec<f64> {
        let cfg = self.cfg();
        let (tt, p, h, w, d) = (cfg.tubelet_t, cfg.patch, cfg.height, cfg.width, cfg.dim);
        let (nt, ns) = (cfg.n_time(), cfg.n_space());
        assert_eq!(clip.len(), cfg.frames * h * w);
        let pos_space = self.matrix("embed.pos_space", d); // [ns][D]
        let pos_time = self.matrix("encoder.pos_time", d); // [nt][D]

        // tokens[g][s]: tubelet (frames g*tt.., patch s) projected, plus
        // the spatial position.
        let tokens: Vec<Mat> = (0..nt)
            .map(|g| {
                let tubelets: Mat = (0..ns)
                    .map(|s| {
                        let (py, px) = (s / (w / p), s % (w / p));
                        let mut flat = Vec::with_capacity(tt * p * p);
                        for f in 0..tt {
                            for r in 0..p {
                                for c in 0..p {
                                    let at = ((g * tt + f) * h + py * p + r) * w + px * p + c;
                                    flat.push(f64::from(clip[at]));
                                }
                            }
                        }
                        flat
                    })
                    .collect();
                add(&self.linear("embed.proj", &tubelets, d), &pos_space)
            })
            .collect();
        let with_time =
            |row: &[f64], g: usize| row.iter().zip(&pos_time[g]).map(|(a, b)| a + b).collect();
        let embedding = match cfg.attention {
            AttentionKind::Factorized => {
                let frames: Mat = tokens
                    .iter()
                    .enumerate()
                    .map(|(g, group)| {
                        let summary = self.stage(
                            "encoder.spatial",
                            cfg.spatial_depth,
                            "encoder.cls_space",
                            group,
                        );
                        with_time(&summary, g)
                    })
                    .collect();
                self.stage("encoder.temporal", cfg.temporal_depth, "encoder.cls_time", &frames)
            }
            AttentionKind::Joint => {
                let grid: Mat = tokens
                    .iter()
                    .enumerate()
                    .flat_map(|(g, group)| group.iter().map(move |row| (g, row)))
                    .map(|(g, row)| with_time(row, g))
                    .collect();
                let depth = cfg.spatial_depth + cfg.temporal_depth;
                self.stage("encoder.joint", depth, "encoder.cls_joint", &grid)
            }
        };
        let emb = vec![embedding];
        ["ego", "road", "event", "position", "presence"]
            .iter()
            .flat_map(|head| {
                let name = format!("heads.{head}");
                let out = self.vector(&format!("{name}.bias")).len();
                self.linear(&name, &emb, out).remove(0)
            })
            .collect()
    }
}

fn add(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x.iter().zip(y).map(|(p, q)| p + q).collect()).collect()
}

fn clip(cfg: &ModelConfig, frames: usize, phase: f32) -> Tensor {
    Tensor::from_fn(&[frames, cfg.height, cfg.width], |i| ((i as f32 * 0.0137) + phase).sin() * 0.5)
}

/// The heads of one window, concatenated like [`Reference::logits`].
fn flatten(l: &WindowLogits) -> Vec<f32> {
    [&l.ego, &l.road, &l.event, &l.position, &l.presence].iter().flat_map(|t| t.to_vec()).collect()
}

/// Largest `|got − want|`, asserted under [`BOUND`].
fn assert_within_bound(got: &[f32], want: &[f64], ctx: &str) -> f64 {
    assert_eq!(got.len(), want.len(), "{ctx}: logit count");
    let scale = want.iter().fold(0f64, |m, v| m.max(v.abs()));
    assert!(scale > 0.05, "{ctx}: reference logits are degenerate (max {scale})");
    let worst = got.iter().zip(want).map(|(g, w)| (f64::from(*g) - w).abs()).fold(0f64, f64::max);
    assert!(worst <= BOUND, "{ctx}: |f32 - f64| = {worst:e} exceeds {BOUND:e}");
    worst
}

fn check(cfg: ModelConfig, tag: &str) {
    let ex = ScenarioExtractor::untrained(cfg, 71);
    let model = ex.model();
    let reference = Reference { model };
    let per = cfg.frames * cfg.height * cfg.width;

    // One-shot (B = 1) and batched (B = 8 and 16, stacked), through the same
    // `ClipModel::forward` training, `predict` and the server's batch use.
    // Sixteen is training's batch, and past the size at which attention used
    // to switch realizations.
    let clips: Vec<Tensor> = (0..16).map(|c| clip(&cfg, cfg.frames, c as f32 * 0.61)).collect();
    let want: Vec<Vec<f64>> = clips.iter().map(|c| reference.logits(c.data())).collect();
    let mut worst = [0f64; 3];
    for batch in [1usize, 8, 16] {
        let stacked = Tensor::from_vec(
            clips[..batch].iter().flat_map(|c| c.data().iter().copied()).collect(),
            &[batch, cfg.frames, cfg.height, cfg.width],
        );
        let mut g = Graph::new();
        let p = model.params().bind_frozen(&mut g);
        let l = model.forward(&mut g, &p, &stacked, &mut StdRng::seed_from_u64(0), false);
        let heads = [l.ego, l.road, l.event, l.position, l.presence].map(|v| g.value(v).clone());
        for (c, want) in want[..batch].iter().enumerate() {
            let got: Vec<f32> = heads
                .iter()
                .flat_map(|t| {
                    let width = t.shape()[1];
                    t.data()[c * width..(c + 1) * width].to_vec()
                })
                .collect();
            let slot = usize::from(batch > 1);
            worst[slot] = worst[slot].max(assert_within_bound(
                &got,
                want,
                &format!("{tag} B={batch} clip {c}"),
            ));
        }
    }

    // Streamed: a session slid over a longer video one group at a time;
    // every window it reads out (cached groups included) against the
    // reference run on that window's pixels.
    let slides = 5;
    let long = clip(&cfg, cfg.frames + slides * cfg.tubelet_t, 0.3);
    let frame = cfg.height * cfg.width;
    let mut session = ex.open_stream();
    let mut fed = 0;
    let mut push = |session: &mut tsdx_core::StreamSession<'_>, n: usize| {
        let chunk = Tensor::from_vec(
            long.data()[fed * frame..(fed + n) * frame].to_vec(),
            &[n, cfg.height, cfg.width],
        );
        session.push_frames(&chunk).expect("well-formed chunk");
        fed += n;
        fed
    };
    push(&mut session, cfg.frames - cfg.tubelet_t);
    for slide in 0..=slides {
        let end = push(&mut session, cfg.tubelet_t);
        let window = &long.data()[end * frame - per..end * frame];
        let got = flatten(&session.logits().expect("full window"));
        let ctx = format!("{tag} streamed window {slide}");
        worst[2] = worst[2].max(assert_within_bound(&got, &reference.logits(window), &ctx));
    }
    println!(
        "{tag}: worst |f32 - f64| one-shot {:.2e}, batched {:.2e}, streamed {:.2e}",
        worst[0], worst[1], worst[2]
    );
}

#[test]
fn default_config_logits_stay_within_bound_of_the_f64_reference() {
    check(ModelConfig::default(), "default");
}

#[test]
fn small_config_logits_stay_within_bound_for_every_encoder_variant() {
    // 16×16 frames: four spatial tokens per group, so sequences of 5 (CLS)
    // and 4 (mean-pool) rows factorized, 17 and 16 joint.
    for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
        for readout in [Readout::Cls, Readout::MeanPool] {
            let cfg =
                ModelConfig { height: 16, width: 16, attention, readout, ..ModelConfig::default() };
            check(cfg, &format!("16x16 {attention:?}/{readout:?}"));
        }
    }
}
