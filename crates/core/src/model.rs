//! The video scenario transformer and the [`ClipModel`] abstraction shared
//! with the baselines.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_data::{ClipLabels, POSITION_COUNT};
use tsdx_nn::{Binding, Eval, Exec, ParamStore, Tape};
use tsdx_sdl::{vocab, ActorKind, EgoManeuver, RoadKind};
use tsdx_tensor::{metrics, ops, Graph, Tensor};

use crate::config::{AttentionKind, ModelConfig};
use crate::encoder::ClipEncoder;
use crate::heads::{HeadLogits, SdlHeads};
use crate::tubelet::{extract_tubelets, TubeletEmbed};

/// Anything that maps a video batch to SDL head logits and can be trained.
///
/// Implemented by the video scenario transformer here and by the learned
/// baselines in `tsdx-baselines`, so the training loop and evaluation
/// harness are shared.
pub trait ClipModel {
    /// The parameter store holding all trainable tensors.
    fn params(&self) -> &ParamStore;

    /// Mutable access for optimizers and checkpoint loading.
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Builds the forward pass for `videos` (`[B, T, H, W]`) on the tape.
    ///
    /// `rng` drives dropout when `train` is true.
    fn forward(
        &self,
        g: &mut Graph,
        p: &Binding,
        videos: &Tensor,
        rng: &mut StdRng,
        train: bool,
    ) -> HeadLogits;

    /// Human-readable model name for reports.
    fn name(&self) -> &str;
}

/// Decodes head logit *values* into per-clip labels (argmax heads,
/// presence threshold 0.5 on the sigmoid).
pub fn decode_logits(
    ego: &Tensor,
    road: &Tensor,
    event: &Tensor,
    position: &Tensor,
    presence: &Tensor,
) -> Vec<ClipLabels> {
    let b = ego.shape()[0];
    assert!(ego.shape() == [b, EgoManeuver::COUNT], "bad ego logits shape");
    assert!(road.shape() == [b, RoadKind::COUNT], "bad road logits shape");
    assert!(event.shape() == [b, vocab::EVENT_COUNT], "bad event logits shape");
    assert!(position.shape() == [b, POSITION_COUNT], "bad position logits shape");
    assert!(presence.shape() == [b, ActorKind::COUNT], "bad presence logits shape");
    let ego_idx = ops::argmax_last(ego);
    let road_idx = ops::argmax_last(road);
    let event_idx = ops::argmax_last(event);
    let pos_idx = ops::argmax_last(position);
    (0..b)
        .map(|i| {
            let mut pres = [0.0f32; ActorKind::COUNT];
            for (k, slot) in pres.iter_mut().enumerate() {
                // Sigmoid(logit) >= 0.5 <=> logit >= 0.
                *slot = if presence.at(&[i, k]) >= 0.0 { 1.0 } else { 0.0 };
            }
            ClipLabels {
                ego: ego_idx.data()[i] as usize,
                road: road_idx.data()[i] as usize,
                event: event_idx.data()[i] as usize,
                position: pos_idx.data()[i] as usize,
                presence: pres,
            }
        })
        .collect()
}

/// The paper's model: tubelet embedding, factorized (or joint) space-time
/// transformer encoder, and multi-task SDL heads.
///
/// # Examples
///
/// ```
/// use tsdx_core::{ModelConfig, VideoScenarioTransformer};
/// let model = VideoScenarioTransformer::new(ModelConfig::default(), 42);
/// assert!(model.num_params() > 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct VideoScenarioTransformer {
    cfg: ModelConfig,
    store: ParamStore,
    embed: TubeletEmbed,
    encoder: ClipEncoder,
    heads: SdlHeads,
}

impl VideoScenarioTransformer {
    /// Builds a model with freshly initialized parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ModelConfig::validate`].
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid model configuration");
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let embed = TubeletEmbed::new(&mut store, &mut rng, "embed", &cfg);
        let encoder = ClipEncoder::new(&mut store, &mut rng, "encoder", &cfg);
        let heads = SdlHeads::new(&mut store, &mut rng, "heads", cfg.dim);
        VideoScenarioTransformer { cfg, store, embed, encoder, heads }
    }

    // pinned by benchmark/src/replay.rs — goes with the re-pin, ROADMAP item 1
    /// [`ParamStore::bind_frozen`] on this model's parameters.
    pub fn bind_eval_active(&self, g: &mut Graph) -> Binding {
        self.store.bind_frozen(g)
    }

    /// The executor inference runs on: no tape, weights read in place.
    pub(crate) fn eval(&self) -> Eval<'_> {
        Eval::new(&self.store)
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Computes the clip embedding (`[B, D]`) for a video batch without the
    /// heads — used for representation probing and retrieval.
    pub fn embed_clips(&self, videos: &Tensor) -> Tensor {
        let ex = &mut self.eval();
        let tokens = self.embed.forward(ex, &extract_tubelets(&self.cfg, videos));
        self.encoder.forward(ex, &tokens)
    }

    pub(crate) fn embed_ref(&self) -> &TubeletEmbed {
        &self.embed
    }

    pub(crate) fn encoder_ref(&self) -> &ClipEncoder {
        &self.encoder
    }

    pub(crate) fn heads_ref(&self) -> &SdlHeads {
        &self.heads
    }

    /// Encodes a batch of complete time groups — each `tubelet_t * H * W`
    /// pixels — through the cacheable stage in **one forward** along the
    /// batch dimension, returning one stage output per group (factorized:
    /// the frame summary `[D]`; joint: projected tokens `[n_space, D]`).
    ///
    /// The tubelet embedding and the spatial encoder are free of temporal
    /// position and row-independent across the batch dimension (the PR 6
    /// invariant behind group caching), so stacking groups gathered from
    /// *different streams* is sound: row `i` of the batched forward is
    /// bit-identical to encoding group `i` alone. This is the amortization
    /// primitive behind cross-stream multiplexing — N streams completing a
    /// group in the same tick pay one forward at batch N instead of N
    /// forwards at batch 1.
    ///
    /// # Panics
    ///
    /// Panics if any group has the wrong pixel count.
    pub fn encode_group_batch(&self, groups: &[&[f32]]) -> Vec<Tensor> {
        let cfg = &self.cfg;
        let n = groups.len();
        if n == 0 {
            return Vec::new();
        }
        let group_len = cfg.tubelet_t * cfg.height * cfg.width;
        // One batch row per group: [N, tubelet_t, H, W].
        let batch = Tensor::from_extend(&[n, cfg.tubelet_t, cfg.height, cfg.width], |pixels| {
            for (i, group) in groups.iter().enumerate() {
                assert_eq!(group.len(), group_len, "group {i} has the wrong pixel count");
                pixels.extend_from_slice(group);
            }
        });
        metrics::stage("stage/mux_encode", || {
            let ex = &mut self.eval();
            // [N, ns, D]
            let tokens = self.embed.forward(ex, &extract_tubelets(cfg, &batch));
            // One output per group: a frame summary [D], or for joint
            // attention, which has no deeper cacheable stage, tokens [ns, D].
            let dims = [cfg.n_space(), cfg.dim];
            let (out, shape) = match cfg.attention {
                AttentionKind::Factorized => {
                    (self.encoder.spatial_summaries(ex, tokens, false).0, &dims[1..])
                }
                AttentionKind::Joint => (tokens, &dims[..]),
            };
            let out = out.contiguous();
            out.data()
                .chunks_exact(shape.iter().product())
                .map(|row| Tensor::from_extend(shape, |d| d.extend_from_slice(row)))
                .collect()
        })
    }

    /// The model's one wiring — tubelets, embedding, encoder, heads — on
    /// either executor, each stage under its latency histogram
    /// (`stage/tubelet_embed`, `stage/encoder`, `stage/heads`).
    pub(crate) fn run<E: Exec>(&self, ex: &mut E, videos: &Tensor) -> HeadLogits<E::V> {
        // Streamed pushes may extract partial windows, but the batched
        // forward is strictly whole-window.
        assert_eq!(
            videos.shape()[1],
            self.cfg.frames,
            "expected {} frames per clip, got {}",
            self.cfg.frames,
            videos.shape()[1]
        );
        let tokens = metrics::stage("stage/tubelet_embed", || {
            let tubs = ex.constant(extract_tubelets(&self.cfg, videos));
            self.embed.forward(ex, &tubs)
        });
        let emb = metrics::stage("stage/encoder", || self.encoder.forward(ex, &tokens));
        metrics::stage("stage/heads", || self.heads.forward(ex, &emb))
    }
}

impl ClipModel for VideoScenarioTransformer {
    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn forward(
        &self,
        g: &mut Graph,
        p: &Binding,
        videos: &Tensor,
        rng: &mut StdRng,
        train: bool,
    ) -> HeadLogits {
        // Ops execute eagerly as the tape is built, so the stage timings of
        // the shared wiring time the forward compute itself.
        self.run(&mut Tape::new(g, p, train.then_some(rng)), videos)
    }

    fn name(&self) -> &str {
        "video-transformer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Readout;

    fn tiny_cfg() -> ModelConfig {
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
            attention: AttentionKind::Factorized,
            readout: Readout::Cls,
        }
    }

    #[test]
    fn embeddings_have_model_width() {
        let model = VideoScenarioTransformer::new(tiny_cfg(), 2);
        let videos = Tensor::zeros(&[2, 4, 16, 16]);
        let emb = model.embed_clips(&videos);
        assert_eq!(emb.shape(), &[2, 16]);
    }

    #[test]
    fn decode_logits_thresholds_presence_at_zero() {
        let ego = Tensor::zeros(&[1, EgoManeuver::COUNT]);
        let road = Tensor::zeros(&[1, RoadKind::COUNT]);
        let event = Tensor::zeros(&[1, vocab::EVENT_COUNT]);
        let position = Tensor::zeros(&[1, POSITION_COUNT]);
        let presence = Tensor::from_vec(vec![1.5, -0.5, 0.0], &[1, 3]);
        let labels = decode_logits(&ego, &road, &event, &position, &presence);
        assert_eq!(labels[0].presence, [1.0, 0.0, 1.0]);
    }
}
