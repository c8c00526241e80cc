//! End-to-end scenario extraction API.

use std::error::Error;
use std::fmt;

use tsdx_data::Clip;
use tsdx_sdl::Scenario;
use tsdx_tensor::Tensor;

use crate::model::VideoScenarioTransformer;
use crate::session::StreamSession;
use crate::train::TrainConfig;

/// A malformed extraction input, reported by
/// [`ScenarioExtractor::extract_checked`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExtractError {
    /// The video tensor is not rank 3 (`[T, H, W]`).
    BadRank {
        /// Rank of the offending input.
        found: usize,
    },
    /// The video's dimensions disagree with the model configuration.
    BadShape {
        /// `[frames, height, width]` the model was built for.
        expected: [usize; 3],
        /// Shape of the offending input.
        found: Vec<usize>,
    },
    /// A pixel is NaN or infinite.
    NonFinite {
        /// Flat index of the first offending pixel (within the offending
        /// tensor — the whole video for one-shot extraction, the pushed
        /// chunk for streams).
        index: usize,
    },
    /// The video has no frames at all (`T == 0`).
    Empty,
    /// Fewer frames than the model's window requires — e.g. a clip shorter
    /// than the tubelet temporal extent, or a stream asked to describe
    /// before a full window has arrived.
    TooShort {
        /// Frames available.
        frames: usize,
        /// Frames one window requires.
        min: usize,
    },
    /// A streamed frame chunk's spatial dimensions disagree with the model
    /// (the frame count of a chunk is free; height and width are not).
    BadFrameShape {
        /// `[height, width]` the model was built for.
        expected: [usize; 2],
        /// `[height, width]` of the offending chunk.
        found: [usize; 2],
    },
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::BadRank { found } => {
                write!(f, "expected a single [T, H, W] video (rank 3), got rank {found}")
            }
            ExtractError::BadShape { expected, found } => {
                write!(f, "video shape {found:?} does not match the model's expected {expected:?}")
            }
            ExtractError::NonFinite { index } => {
                write!(f, "video contains a non-finite pixel at flat index {index}")
            }
            ExtractError::Empty => write!(f, "video has no frames"),
            ExtractError::TooShort { frames, min } => {
                write!(f, "only {frames} frame(s) available, a window needs {min}")
            }
            ExtractError::BadFrameShape { expected, found } => {
                write!(
                    f,
                    "frame dimensions {found:?} do not match the model's expected {expected:?}"
                )
            }
        }
    }
}

impl Error for ExtractError {}

/// High-level extractor: video in, SDL description out.
///
/// Wraps a trained [`VideoScenarioTransformer`] together with the greedy
/// decoding from head outputs to a validated [`Scenario`].
///
/// # Examples
///
/// ```no_run
/// use tsdx_core::{ModelConfig, ScenarioExtractor};
/// use tsdx_tensor::Tensor;
///
/// let extractor = ScenarioExtractor::untrained(ModelConfig::default(), 0);
/// let clip = Tensor::zeros(&[8, 32, 32]);
/// let description = extractor.extract_checked(&clip).expect("well-formed clip");
/// println!("{description}");
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioExtractor {
    model: VideoScenarioTransformer,
}

// Serving shares one extractor between threads: inference keeps no per-call
// state in the model (no tape, no cache it writes, no lock).
const _: () = {
    const fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<VideoScenarioTransformer>();
    send_and_sync::<ScenarioExtractor>();
};

impl ScenarioExtractor {
    /// Wraps an already-trained model.
    pub fn new(model: VideoScenarioTransformer) -> Self {
        ScenarioExtractor { model }
    }

    /// Creates an extractor with random weights (for demos and tests; train
    /// it with [`ScenarioExtractor::fit`]).
    pub fn untrained(cfg: crate::ModelConfig, seed: u64) -> Self {
        ScenarioExtractor { model: VideoScenarioTransformer::new(cfg, seed) }
    }

    /// Trains the underlying model on `clips` (all indices) and returns the
    /// final mean training loss.
    pub fn fit(&mut self, clips: &[Clip], cfg: &TrainConfig) -> f32 {
        let idx: Vec<usize> = (0..clips.len()).collect();
        let report = crate::train::train(&mut self.model, clips, &idx, cfg);
        report.final_loss()
    }

    /// Extracts the SDL description of a single video `[T, H, W]`,
    /// validating the input first.
    ///
    /// Implemented as a single-window [`StreamSession`]: one-shot and
    /// streaming extraction share exactly one forward path, so their
    /// outputs cannot drift apart.
    ///
    /// The returned scenario always satisfies [`Scenario::validate`].
    ///
    /// # Errors
    ///
    /// [`ExtractError::BadRank`] unless the input is rank 3,
    /// [`ExtractError::Empty`] when it has no frames,
    /// [`ExtractError::TooShort`] when it has fewer frames than one window,
    /// [`ExtractError::BadShape`] when its dimensions otherwise disagree
    /// with the model configuration, and [`ExtractError::NonFinite`] when
    /// any pixel is NaN or infinite — never a panic, so a malformed request
    /// cannot take down a serving process.
    pub fn extract_checked(&self, video: &Tensor) -> Result<Scenario, ExtractError> {
        self.validate_window(video)?;
        let mut session = self.open_stream();
        session.push_frames(video)?;
        session.describe()
    }

    /// Checks that `video` is exactly one well-formed `[T, H, W]` window for
    /// this model, without running any inference.
    ///
    /// This is the admission-time half of
    /// [`extract_checked`](Self::extract_checked), split out so a serving layer
    /// can reject malformed requests *before* they occupy a batch slot.
    /// Non-finite pixels are reported here too — a batched forward must
    /// never see NaN from a neighboring request.
    ///
    /// # Errors
    ///
    /// The same typed [`ExtractError`]s as
    /// [`extract_checked`](Self::extract_checked).
    pub fn validate_window(&self, video: &Tensor) -> Result<(), ExtractError> {
        let sh = video.shape();
        if sh.len() != 3 {
            return Err(ExtractError::BadRank { found: sh.len() });
        }
        let cfg = self.model.config();
        let expected = [cfg.frames, cfg.height, cfg.width];
        if sh[0] == 0 {
            return Err(ExtractError::Empty);
        }
        if sh[1] != cfg.height || sh[2] != cfg.width {
            return Err(ExtractError::BadShape { expected, found: sh.to_vec() });
        }
        if sh[0] < cfg.frames {
            return Err(ExtractError::TooShort { frames: sh[0], min: cfg.frames });
        }
        if sh[0] > cfg.frames {
            return Err(ExtractError::BadShape { expected, found: sh.to_vec() });
        }
        if let Some(index) = video.first_non_finite() {
            return Err(ExtractError::NonFinite { index });
        }
        Ok(())
    }

    /// Extracts descriptions for many independent `[T, H, W]` windows in
    /// **one batched forward pass** — the entry point for a serving layer
    /// that coalesces concurrent requests.
    ///
    /// Each window is validated independently
    /// ([`validate_window`](Self::validate_window)); the well-formed ones are
    /// stacked into a single `[B, T, H, W]` batch and pushed through the
    /// encoder once, so one tape, one parameter binding and one pass over
    /// each weight matrix serve the whole batch — what amortizes is that
    /// per-forward fixed cost; the arithmetic per clip is the same, and so
    /// are its bits: every kernel computes a clip's rows from that clip
    /// alone, at any batch size. Malformed windows
    /// get their own typed error and never contaminate the batch. The
    /// output is positionally aligned with `videos`.
    pub fn extract_window_batch(&self, videos: &[&Tensor]) -> Vec<Result<Scenario, ExtractError>> {
        let mut out: Vec<Option<Result<Scenario, ExtractError>>> = Vec::with_capacity(videos.len());
        let mut valid: Vec<usize> = Vec::with_capacity(videos.len());
        for (i, v) in videos.iter().enumerate() {
            match self.validate_window(v) {
                Ok(()) => {
                    valid.push(i);
                    out.push(None);
                }
                Err(e) => out.push(Some(Err(e))),
            }
        }
        if !valid.is_empty() {
            let cfg = self.model.config();
            let shape = [valid.len(), cfg.frames, cfg.height, cfg.width];
            let batch = Tensor::from_extend(&shape, |stacked| {
                for &i in &valid {
                    stacked.extend_from_slice(&videos[i].flat());
                }
            });
            let labels = self.model.predict(&batch);
            for (&i, l) in valid.iter().zip(&labels) {
                out[i] = Some(Ok(l.to_scenario()));
            }
        }
        out.into_iter().map(|r| r.expect("every slot filled")).collect()
    }

    /// Opens a streaming session over this extractor's model: push frames
    /// as they arrive, describe the newest window incrementally. The
    /// session borrows the extractor, so the model cannot be mutated (and
    /// its caches silently invalidated) while a stream is live.
    pub fn open_stream(&self) -> StreamSession<'_> {
        StreamSession::new(&self.model)
    }

    /// The wrapped model.
    pub fn model(&self) -> &VideoScenarioTransformer {
        &self.model
    }

    /// Mutable access to the wrapped model (e.g. for checkpoint loading).
    pub fn model_mut(&mut self) -> &mut VideoScenarioTransformer {
        &mut self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    fn tiny_extractor() -> ScenarioExtractor {
        ScenarioExtractor::untrained(
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
                dropout: 0.0,
                ..ModelConfig::default()
            },
            0,
        )
    }

    #[test]
    fn extract_checked_roundtrips_valid_input() {
        let ex = tiny_extractor();
        let video = Tensor::from_fn(&[4, 16, 16], |i| (i % 7) as f32 / 7.0);
        let scenario = ex.extract_checked(&video).unwrap();
        scenario.validate().unwrap();
        let reparsed: Scenario = scenario.to_string().parse().unwrap();
        assert_eq!(reparsed, scenario);
    }

    #[test]
    fn extract_checked_rejects_malformed_input_with_typed_errors() {
        let ex = tiny_extractor();
        assert_eq!(
            ex.extract_checked(&Tensor::zeros(&[2, 4, 16, 16])),
            Err(ExtractError::BadRank { found: 4 })
        );
        assert_eq!(
            ex.extract_checked(&Tensor::zeros(&[4, 8, 16])),
            Err(ExtractError::BadShape { expected: [4, 16, 16], found: vec![4, 8, 16] })
        );
        let mut bad = Tensor::zeros(&[4, 16, 16]);
        bad.set(&[1, 2, 3], f32::NAN);
        let flat = (16 * 16) + 2 * 16 + 3;
        assert_eq!(ex.extract_checked(&bad), Err(ExtractError::NonFinite { index: flat }));
        let mut inf = Tensor::zeros(&[4, 16, 16]);
        inf.set(&[0, 0, 0], f32::INFINITY);
        assert_eq!(inf.rank(), 3);
        assert_eq!(ex.extract_checked(&inf), Err(ExtractError::NonFinite { index: 0 }));
    }
}
