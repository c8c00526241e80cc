//! Tubelet extraction and embedding.
//!
//! A video `[B, T, H, W]` is cut into non-overlapping spatio-temporal boxes
//! ("tubelets") of `tubelet_t × patch × patch` pixels. Each tubelet is
//! flattened and linearly projected to the model width. Because videos are
//! inputs (no gradient needed), the rearrangement runs as a plain tensor
//! transform; only the projection lives on the autograd tape.
//!
//! Embedding stops at the projection plus the *spatial* position: the
//! temporal position is a window-relative quantity, so it is applied at the
//! temporal-stage boundary by the encoder (see
//! [`ClipEncoder`](crate::encoder::ClipEncoder)). That split is what lets a
//! streaming session cache per-group embeddings by absolute frame index —
//! a group's embedding no longer depends on where the group happens to sit
//! inside the current window.

use rand::Rng;
use tsdx_nn::{Exec, Linear, ParamStore};
use tsdx_tensor::ops::Activation;
use tsdx_tensor::Tensor;

use crate::config::ModelConfig;

/// Rearranges a video batch `[B, T, H, W]` into flattened tubelets
/// `[B, nt*ns, tubelet_volume]`, in `(time-group, row-major space)` token
/// order, where `nt = T / tubelet_t`.
///
/// `T` may be any positive multiple of `cfg.tubelet_t` — a full window, or
/// a single group of `tubelet_t` frames arriving on a stream.
///
/// # Panics
///
/// Panics if the spatial dimensions disagree with `cfg`, or if `T` is zero
/// or not a multiple of `cfg.tubelet_t`.
pub fn extract_tubelets(cfg: &ModelConfig, videos: &Tensor) -> Tensor {
    let sh = videos.shape();
    assert_eq!(sh.len(), 4, "expected [B, T, H, W] videos");
    assert_eq!(&sh[2..], &[cfg.height, cfg.width], "video shape {:?} does not match config", sh);
    let frames = sh[1];
    let tt = cfg.tubelet_t;
    assert!(
        frames > 0 && frames.is_multiple_of(tt),
        "frame count {frames} is not a positive multiple of tubelet_t ({tt})"
    );
    let b = sh[0];
    let videos = videos.contiguous(); // the pixel gather below indexes the flat buffer
    let shape = [b, frames / tt * cfg.n_space(), cfg.tubelet_volume()];
    // Written in place into an arena buffer, one `p`-long run per patch row,
    // in token order. A run whose length is a constant compiles to a couple
    // of vector moves; one known only at run time is a `memcpy` call each,
    // so the default patch gets its own compile.
    Tensor::from_overwrite(&shape, |out| match cfg.patch {
        8 => gather::<8>(cfg, videos.data(), out),
        _ => gather::<0>(cfg, videos.data(), out),
    })
}

/// Writes the tubelets of the packed clips `src` over `out`, in token
/// order. `P` is `cfg.patch` as a constant, or 0 for a patch with no arm of
/// its own, whose runs then take their length from `cfg` — the same
/// elements either way. Every element of `out` is written once.
fn gather<const P: usize>(cfg: &ModelConfig, src: &[f32], out: &mut [f32]) {
    let p = if P == 0 { cfg.patch } else { P };
    debug_assert_eq!(p, cfg.patch);
    let (tt, h, w) = (cfg.tubelet_t, cfg.height, cfg.width);
    let nw = w / p;
    // A clip holds whole groups, so the groups of all clips are `src` cut
    // in `tt`-frame pieces; each yields its `ns` patches row-major.
    let patches = src.chunks_exact(tt * h * w).flat_map(|group| {
        (0..cfg.n_space()).map(move |s| (group, (s / nw) * p * w + (s % nw) * p))
    });
    for (tubelet, (group, at)) in out.chunks_exact_mut(tt * p * p).zip(patches) {
        // One tubelet: the group's `tt` frames at this patch, row by row.
        for (dst, frame) in tubelet.chunks_exact_mut(p * p).zip(group.chunks_exact(h * w)) {
            for (run, row) in dst.chunks_exact_mut(p).zip(frame[at..].chunks(w)) {
                run.copy_from_slice(&row[..p]);
            }
        }
    }
}

/// Learned tubelet embedding: projection plus the spatial positional
/// embedding, shared across the batch and across time groups.
///
/// Deliberately *time-invariant*: two groups with identical pixels embed
/// identically regardless of their position in the clip, so streaming
/// sessions can cache group embeddings by absolute index. The temporal
/// position lives in the encoder's temporal stage instead.
#[derive(Debug, Clone)]
pub(crate) struct TubeletEmbed {
    proj: Linear,
    /// Spatial positional embedding `[1, ns, D]` (broadcast over time).
    pos_space: tsdx_nn::ParamId,
    n_space: usize,
    dim: usize,
}

impl TubeletEmbed {
    /// Registers the projection and spatial positional parameters.
    pub(crate) fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        cfg: &ModelConfig,
    ) -> Self {
        let proj = Linear::new(store, rng, &format!("{name}.proj"), cfg.tubelet_volume(), cfg.dim);
        let pos_space = store.add(
            format!("{name}.pos_space"),
            tsdx_nn::init::embedding_normal(&[1, cfg.n_space(), cfg.dim], rng),
        );
        TubeletEmbed { proj, pos_space, n_space: cfg.n_space(), dim: cfg.dim }
    }

    /// Embeds pre-extracted tubelets `[B, nt*ns, vol]` to tokens
    /// `[B, nt*ns, D]` with the spatial position added. Accepts any number
    /// of time groups (`nt >= 1`) — the computation is per-group, so a
    /// single streamed group embeds bit-identically to the same group
    /// inside a full window.
    pub(crate) fn forward<E: Exec>(&self, ex: &mut E, tubelets: &E::V) -> E::V {
        let sh = ex.shape(tubelets);
        let (b, n) = (sh[0], sh[1]);
        assert!(
            n.is_multiple_of(self.n_space),
            "token count {n} is not a multiple of ns ({})",
            self.n_space
        );
        let nt = n / self.n_space;
        // Project to [B, nt*ns, D], then add the spatial position: reshape
        // to [B, nt, ns, D] and add pos_space [1, ns, D] (broadcast over
        // batch and time).
        let tokens = self.proj.run(ex, tubelets, Activation::None, None);
        let grid = ex.reshape(&tokens, &[b, nt, self.n_space, self.dim]);
        let ps = ex.param(self.pos_space);
        let with_space = ex.add(&grid, &ps);
        ex.reshape(&with_space, &[b, n, self.dim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsdx_nn::Eval;

    fn tiny_cfg() -> ModelConfig {
        ModelConfig {
            frames: 4,
            height: 8,
            width: 8,
            tubelet_t: 2,
            patch: 4,
            dim: 8,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn tubelet_shapes() {
        let cfg = tiny_cfg();
        let v = Tensor::zeros(&[3, 4, 8, 8]);
        let t = extract_tubelets(&cfg, &v);
        // nt=2, ns=4, vol=32.
        assert_eq!(t.shape(), &[3, 8, 32]);
    }

    #[test]
    fn tubelet_values_come_from_the_right_pixels() {
        let cfg = tiny_cfg();
        // Encode pixel identity: value = f*10000 + r*100 + c.
        let v = Tensor::from_fn(&[1, 4, 8, 8], |i| {
            let f = i / 64;
            let r = (i / 8) % 8;
            let c = i % 8;
            (f * 10000 + r * 100 + c) as f32
        });
        let t = extract_tubelets(&cfg, &v);
        // Token 0 = time group 0 (frames 0..2), patch (0,0).
        // Its first element is frame 0, pixel (0,0) = 0.
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        // Element 16 within token 0 starts frame 1 of the tubelet.
        assert_eq!(t.at(&[0, 0, 16]), 10000.0);
        // Token 1 = patch (0,1): first pixel is (0,4) of frame 0.
        assert_eq!(t.at(&[0, 1, 0]), 4.0);
        // Token 4 = time group 1, patch (0,0): frame 2 pixel (0,0).
        assert_eq!(t.at(&[0, 4, 0]), 20000.0);
    }

    #[test]
    fn partial_windows_extract_the_same_tubelets() {
        // A single streamed group must gather exactly the tokens the full
        // window gathers for that group — the cache-keying contract.
        let cfg = tiny_cfg();
        let v = Tensor::from_fn(&[1, 4, 8, 8], |i| (i as f32 * 0.37).sin());
        let full = extract_tubelets(&cfg, &v);
        let second_group = Tensor::from_vec(v.data()[2 * 64..4 * 64].to_vec(), &[1, 2, 8, 8]);
        let partial = extract_tubelets(&cfg, &second_group);
        assert_eq!(partial.shape(), &[1, 4, 32]);
        for token in 0..4 {
            for e in 0..32 {
                assert_eq!(partial.at(&[0, token, e]), full.at(&[0, 4 + token, e]));
            }
        }
    }

    /// The tubelets written out one pixel at a time: token `g·ns + py·nw +
    /// px`, element `f·p² + r·p + c` is pixel `(py·p + r, px·p + c)` of
    /// frame `g·tt + f`.
    fn naive_tubelets(cfg: &ModelConfig, v: &Tensor) -> Vec<f32> {
        let (b, frames) = (v.shape()[0], v.shape()[1]);
        let (tt, p, h, w) = (cfg.tubelet_t, cfg.patch, cfg.height, cfg.width);
        let mut out = Vec::new();
        for bi in 0..b {
            for g in 0..frames / tt {
                for py in 0..h / p {
                    for px in 0..w / p {
                        for f in 0..tt {
                            for r in 0..p {
                                for c in 0..p {
                                    out.push(v.at(&[bi, g * tt + f, py * p + r, px * p + c]));
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn the_default_patch_gathers_what_a_naive_loop_gathers() {
        let cfg = ModelConfig::default();
        assert_eq!(cfg.patch, 8, "the fixed-width gather this test covers");
        let (h, w) = (cfg.height, cfg.width);
        // Whole windows at B = 1 and 3, and one streamed group.
        for (b, frames) in [(1, cfg.frames), (3, cfg.frames), (1, cfg.tubelet_t)] {
            let v = Tensor::from_fn(&[b, frames, h, w], |i| (i as f32 * 0.37).sin());
            let t = extract_tubelets(&cfg, &v);
            assert_eq!(
                t.shape(),
                &[b, frames / cfg.tubelet_t * cfg.n_space(), cfg.tubelet_volume()]
            );
            let want = naive_tubelets(&cfg, &v);
            let same = t.data().iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same && t.numel() == want.len(), "B = {b}, {frames} frames");
        }
    }

    #[test]
    fn embedding_is_time_invariant_but_space_aware() {
        let cfg = tiny_cfg();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let embed = TubeletEmbed::new(&mut store, &mut rng, "tub", &cfg);
        let val = embed.forward(&mut Eval::new(&store), &Tensor::zeros(&[2, 8, 32]));
        assert_eq!(val.shape(), &[2, 8, 8]);
        // With zero input, output tokens are pure positional embeddings.
        let t0: Vec<f32> = (0..8).map(|d| val.at(&[0, 0, d])).collect();
        let t1: Vec<f32> = (0..8).map(|d| val.at(&[0, 1, d])).collect();
        let t4: Vec<f32> = (0..8).map(|d| val.at(&[0, 4, d])).collect();
        assert_ne!(t0, t1, "spatial positions must differentiate tokens");
        // Same patch in a different time group embeds identically — the
        // temporal position is applied later, at the temporal stage, so
        // group embeddings are cacheable by absolute index.
        assert_eq!(t0, t4, "tubelet embedding must be time-invariant");
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let cfg = tiny_cfg();
        extract_tubelets(&cfg, &Tensor::zeros(&[1, 4, 8, 10]));
    }

    #[test]
    #[should_panic]
    fn non_multiple_frame_count_panics() {
        let cfg = tiny_cfg();
        extract_tubelets(&cfg, &Tensor::zeros(&[1, 3, 8, 8]));
    }
}
