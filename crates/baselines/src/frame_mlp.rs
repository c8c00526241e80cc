//! Frame-MLP baseline: per-frame MLP features, temporal mean pooling.
//!
//! The weakest learned baseline: it sees every frame independently and can
//! only aggregate by averaging, so it has no access to motion order — the
//! quantity that separates, say, `accelerate` from `decelerate-to-stop`.

use rand::rngs::StdRng;
use tsdx_core::{ClipModel, HeadLogits, SdlHeads};
use tsdx_nn::{Binding, Linear, ParamStore, Tape};
use tsdx_tensor::{Graph, Tensor};

/// Configuration of the frame-MLP baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameMlpConfig {
    /// Frames per clip.
    pub frames: usize,
    /// Frame height (px).
    pub height: usize,
    /// Frame width (px).
    pub width: usize,
    /// Hidden width of the per-frame MLP.
    pub hidden: usize,
    /// Frame feature width (input to the heads).
    pub feature: usize,
}

impl Default for FrameMlpConfig {
    fn default() -> Self {
        FrameMlpConfig { frames: 8, height: 32, width: 32, hidden: 128, feature: 64 }
    }
}

/// The frame-MLP baseline model.
#[derive(Debug, Clone)]
pub struct FrameMlp {
    cfg: FrameMlpConfig,
    store: ParamStore,
    fc1: Linear,
    fc2: Linear,
    heads: SdlHeads,
}

impl FrameMlp {
    /// Builds the baseline with fresh parameters.
    pub fn new(cfg: FrameMlpConfig, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let hw = cfg.height * cfg.width;
        let fc1 = Linear::new(&mut store, &mut rng, "mlp.fc1", hw, cfg.hidden);
        let fc2 = Linear::new(&mut store, &mut rng, "mlp.fc2", cfg.hidden, cfg.feature);
        let heads = SdlHeads::new(&mut store, &mut rng, "heads", cfg.feature);
        FrameMlp { cfg, store, fc1, fc2, heads }
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }
}

impl ClipModel for FrameMlp {
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
        let hw = self.cfg.height * self.cfg.width;
        let x = g.constant(videos.reshape(&[b * self.cfg.frames, hw]));
        let h = self.fc1.forward(g, p, x);
        let h = g.relu(h);
        let f = self.fc2.forward(g, p, h); // [B*T, F]
        let grid = g.reshape(f, &[b, self.cfg.frames, self.cfg.feature]);
        let pooled = g.mean_axis(grid, 1, false); // [B, F]
        self.heads.forward(&mut Tape::eval(g, p), &pooled)
    }

    fn name(&self) -> &str {
        "frame-mlp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tsdx_core::predict_labels;
    use tsdx_data::{generate_dataset, DatasetConfig};
    use tsdx_render::RenderConfig;

    fn tiny() -> (FrameMlp, Vec<tsdx_data::Clip>) {
        let cfg = FrameMlpConfig { frames: 4, height: 16, width: 16, hidden: 32, feature: 16 };
        let clips = generate_dataset(&DatasetConfig {
            n_clips: 8,
            render: RenderConfig { width: 16, height: 16, frames: 4, ..RenderConfig::default() },
            ..DatasetConfig::default()
        });
        (FrameMlp::new(cfg, 0), clips)
    }

    #[test]
    fn predicts_labels_for_all_clips() {
        let (model, clips) = tiny();
        let idx: Vec<usize> = (0..clips.len()).collect();
        let labels = predict_labels(&model, &clips, &idx);
        assert_eq!(labels.len(), clips.len());
    }

    #[test]
    fn temporal_order_is_invisible_to_the_mlp() {
        // Mean pooling destroys frame order: reversing the video must give
        // identical logits. This is exactly the weakness the transformer
        // addresses — encoded here as a test of the baseline's contract.
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
        assert!(g.value(a.ego).allclose(g.value(b.ego), 1e-4));
        assert!(g.value(a.event).allclose(g.value(b.event), 1e-4));
    }

    #[test]
    fn trains_without_nans() {
        let (mut model, clips) = tiny();
        let idx: Vec<usize> = (0..clips.len()).collect();
        let report = tsdx_core::train(
            &mut model,
            &clips,
            &idx,
            &tsdx_core::TrainConfig {
                epochs: 2,
                batch_size: 4,
                schedule: tsdx_nn::LrSchedule::Constant(1e-3),
                ..tsdx_core::TrainConfig::default()
            },
        );
        assert!(report.final_loss().is_finite());
    }
}
