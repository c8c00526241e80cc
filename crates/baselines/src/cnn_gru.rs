//! CNN+GRU baseline: convolutional frame features with a recurrent
//! temporal head — the standard pre-transformer video architecture.

use rand::rngs::StdRng;
use tsdx_core::{ClipModel, HeadLogits, SdlHeads};
use tsdx_nn::{Binding, Conv2d, Gru, Linear, ParamStore, Tape};
use tsdx_tensor::ops::Conv2dSpec;
use tsdx_tensor::{Graph, Tensor};

/// Configuration of the CNN+GRU baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnnGruConfig {
    /// Frames per clip.
    pub frames: usize,
    /// Frame height (px), must be divisible by 4 (two 2× pools).
    pub height: usize,
    /// Frame width (px), must be divisible by 4.
    pub width: usize,
    /// Channels of the first conv layer (second uses 2×).
    pub channels: usize,
    /// Frame feature width fed to the GRU.
    pub feature: usize,
    /// GRU hidden width (input to the heads).
    pub hidden: usize,
}

impl Default for CnnGruConfig {
    fn default() -> Self {
        CnnGruConfig { frames: 8, height: 32, width: 32, channels: 8, feature: 64, hidden: 64 }
    }
}

/// The CNN+GRU baseline model.
#[derive(Debug, Clone)]
pub struct CnnGru {
    cfg: CnnGruConfig,
    store: ParamStore,
    conv1: Conv2d,
    conv2: Conv2d,
    proj: Linear,
    gru: Gru,
    heads: SdlHeads,
}

impl CnnGru {
    /// Builds the baseline with fresh parameters.
    ///
    /// # Panics
    ///
    /// Panics if the spatial size is not divisible by 4.
    pub fn new(cfg: CnnGruConfig, seed: u64) -> Self {
        use rand::SeedableRng;
        assert!(
            cfg.height.is_multiple_of(4) && cfg.width.is_multiple_of(4),
            "frame size must be divisible by 4 for the two pooling stages"
        );
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let conv1 = Conv2d::new(
            &mut store,
            &mut rng,
            "cnn.conv1",
            1,
            cfg.channels,
            Conv2dSpec::new(3, 1, 1),
        );
        let conv2 = Conv2d::new(
            &mut store,
            &mut rng,
            "cnn.conv2",
            cfg.channels,
            cfg.channels * 2,
            Conv2dSpec::new(3, 1, 1),
        );
        let flat = cfg.channels * 2 * (cfg.height / 4) * (cfg.width / 4);
        let proj = Linear::new(&mut store, &mut rng, "cnn.proj", flat, cfg.feature);
        let gru = Gru::new(&mut store, &mut rng, "gru", cfg.feature, cfg.hidden);
        let heads = SdlHeads::new(&mut store, &mut rng, "heads", cfg.hidden);
        CnnGru { cfg, store, conv1, conv2, proj, gru, heads }
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }
}

impl ClipModel for CnnGru {
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
        _rng: &mut StdRng,
        _train: bool,
    ) -> HeadLogits {
        let sh = videos.shape();
        assert_eq!(
            &sh[1..],
            &[self.cfg.frames, self.cfg.height, self.cfg.width],
            "video shape mismatch"
        );
        let b = sh[0];
        let (t, h, w) = (self.cfg.frames, self.cfg.height, self.cfg.width);
        // Frames as independent images: [B*T, 1, H, W].
        let x = g.constant(videos.reshape(&[b * t, 1, h, w]));
        let c1 = self.conv1.forward(g, p, x);
        let a1 = g.relu(c1);
        let p1 = g.avg_pool2d(a1, 2);
        let c2 = self.conv2.forward(g, p, p1);
        let a2 = g.relu(c2);
        let p2 = g.avg_pool2d(a2, 2); // [B*T, 2C, H/4, W/4]
        let flat_w = self.cfg.channels * 2 * (h / 4) * (w / 4);
        let flat = g.reshape(p2, &[b * t, flat_w]);
        let feat = self.proj.forward(g, p, flat);
        let feat = g.relu(feat);
        let seq = g.reshape(feat, &[b, t, self.cfg.feature]);
        let hidden = self.gru.forward(g, p, seq); // [B, hidden]
        self.heads.forward(&mut Tape::eval(g, p), &hidden)
    }

    fn name(&self) -> &str {
        "cnn-gru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tsdx_core::predict_labels;
    use tsdx_data::{generate_dataset, DatasetConfig};
    use tsdx_render::RenderConfig;

    fn tiny() -> (CnnGru, Vec<tsdx_data::Clip>) {
        let cfg =
            CnnGruConfig { frames: 4, height: 16, width: 16, channels: 4, feature: 16, hidden: 16 };
        let clips = generate_dataset(&DatasetConfig {
            n_clips: 6,
            render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
            ..DatasetConfig::default()
        });
        (CnnGru::new(cfg, 0), clips)
    }

    #[test]
    fn predicts_labels() {
        let (model, clips) = tiny();
        let idx: Vec<usize> = (0..clips.len()).collect();
        let labels = predict_labels(&model, &clips, &idx);
        assert_eq!(labels.len(), clips.len());
    }

    #[test]
    fn temporal_order_matters_to_the_gru() {
        // Unlike the frame-MLP, reversing the clip changes the logits.
        let (model, clips) = tiny();
        let v = &clips[0].video;
        let sh = v.shape().to_vec();
        let (t, h, w) = (sh[0], sh[1], sh[2]);
        let mut rev = Vec::with_capacity(v.numel());
        for f in (0..t).rev() {
            rev.extend_from_slice(&v.data()[f * h * w..(f + 1) * h * w]);
        }
        let forward = v.reshape(&[1, t, h, w]);
        let reversed = Tensor::from_vec(rev, &[t, h, w]).reshape(&[1, t, h, w]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut g = Graph::new();
        let p = model.params().bind_frozen(&mut g);
        let a = model.forward(&mut g, &p, &forward, &mut rng, false);
        let b = model.forward(&mut g, &p, &reversed, &mut rng, false);
        assert!(!g.value(a.ego).allclose(g.value(b.ego), 1e-6), "GRU should be order-sensitive");
    }

    #[test]
    fn overfits_a_handful_of_clips() {
        // Learning smoke test: loss drops markedly on a tiny subset.
        let (mut model, clips) = tiny();
        let idx: Vec<usize> = (0..clips.len()).collect();
        let report = tsdx_core::train(
            &mut model,
            &clips,
            &idx,
            &tsdx_core::TrainConfig {
                epochs: 20,
                batch_size: 6,
                schedule: tsdx_nn::LrSchedule::Constant(4e-3),
                ..tsdx_core::TrainConfig::default()
            },
        );
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first * 0.75, "no learning: {first} -> {last}");
    }

    #[test]
    #[should_panic]
    fn rejects_unpoolable_sizes() {
        CnnGru::new(CnnGruConfig { height: 18, ..CnnGruConfig::default() }, 0);
    }
}
