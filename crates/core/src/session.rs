//! Streaming inference sessions: incremental, cache-aware extraction over
//! continuous frame feeds.
//!
//! A whole window asked about once is not a stream: it runs the batched
//! window forward of
//! [`extract_window_batch`](crate::ScenarioExtractor::extract_window_batch).
//! This module serves feeds whose windows overlap. A [`StreamSession`]
//! takes frames in arbitrary chunks via
//! [`push_frames`](StreamSession::push_frames), and
//! [`describe`](StreamSession::describe) reads out the scenario for the
//! most recent window. Overlapping windows share most of their frames, and
//! the factorized architecture makes that shareable work explicit:
//!
//! * **Tubelet + spatial stage, cached per group.** Every `tubelet_t`
//!   consecutive frames form a time group. The tubelet embedding and the
//!   spatial encoder are free of temporal position (see
//!   [`ClipEncoder::spatial_summaries`](crate::encoder::ClipEncoder::spatial_summaries)),
//!   so a group's frame summary depends only on its own pixels and is
//!   cached in a ring keyed by **absolute group index**. Sliding the window
//!   recomputes only newly arrived groups.
//! * **Temporal stage, recomputed per window.** Temporal positions are
//!   window-relative, so a slid window re-runs the temporal encoder and the
//!   heads over the `nt` cached summaries — about 0.7 MFlop at the default
//!   width, most of its cost per-forward overhead, which is why
//!   [`readout_staged`] runs it once for every stream of a round. Nothing
//!   attention-level carries over between windows: bidirectional attention
//!   leaves only the CLS row's block-0 key/value rows reusable, and reusing
//!   them measured as noise (DESIGN.md §6.6).
//! * **Whole-window logits cache.** Asking twice about the same window
//!   costs one lookup.
//!
//! # Stage / consume split for cross-stream batching
//!
//! The per-stream bookkeeping lives in a model-free [`StreamState`]: chunks
//! are **staged** ([`StreamState::stage_frames`] validates and buffers
//! pixels, queueing completed groups without any forward pass), and staged
//! groups are later **consumed** by whoever owns the forward —
//! [`encode_staged`] gathers the staged groups of *many* states and encodes
//! them in one [`VideoScenarioTransformer::encode_group_batch`] call along
//! the batch dimension. The stage is row-independent, so the batched
//! forward is bit-identical per group to encoding each alone. The readout
//! has the same shape: [`readout_staged`] stacks the windows of every state
//! whose memo is stale into one temporal-stage + heads forward, whose rows
//! are batch-independent too. A serving scheduler multiplexing N streams
//! therefore pays **two forwards per tick** whatever N is.
//! [`StreamSession`] is the single-stream API: it stages and immediately
//! self-consumes on every push, and reads out through the same function at
//! N = 1.
//!
//! Parity is the contract: a session's head logits are **bit-identical** to
//! the batched window forward over the same window (all readouts,
//! workspace modes, and batched-vs-solo group encodes and readouts) —
//! pinned by `tests/streaming_parity.rs` and, against the tape, by
//! `executor_parity.rs`. Cache effectiveness is observable through
//! the `stage/cache_hit`, `stage/cache_miss`, and `stage/window_hit`
//! metric counters.

use std::collections::VecDeque;

use tsdx_sdl::Scenario;
use tsdx_tensor::{metrics, ops, Tensor};

use crate::config::{AttentionKind, ModelConfig};
use crate::extract::ExtractError;
use crate::heads::HeadLogits;
use crate::model::{decode_logits, VideoScenarioTransformer};

/// One cached time group: the stage outputs that depend only on the
/// group's own pixels.
struct GroupCache {
    /// Absolute group index since the start of the stream (frame index
    /// `index * tubelet_t` onward) — the cache key.
    index: u64,
    /// Factorized: the frame summary `[D]` out of the spatial stage.
    /// Joint: projected, spatially positioned tokens `[ns, D]` (joint
    /// attention offers no deeper position-free boundary).
    data: Tensor,
}

/// A completed time group whose pixels are buffered but not yet encoded —
/// the unit of work a cross-stream scheduler batches.
struct StagedGroup {
    /// Absolute group index (assigned at staging time).
    index: u64,
    /// The group's raw pixels, `tubelet_t * H * W` values, in an arena
    /// buffer.
    pixels: Tensor,
}

/// Head-logit values for one window (batch dimension 1; field shapes
/// `[1, C]` as in [`HeadLogits`]), exposed so parity harnesses and serving
/// layers can compare or post-process raw scores.
pub type WindowLogits = HeadLogits<Tensor>;

/// Window `i` of a batched readout (`[N, C]` heads) as `[1, C]` views.
fn window_row(l: &WindowLogits, i: usize) -> WindowLogits {
    let row = |t: &Tensor| ops::narrow(t, 0, i, 1);
    WindowLogits {
        ego: row(&l.ego),
        road: row(&l.road),
        event: row(&l.event),
        position: row(&l.position),
        presence: row(&l.presence),
    }
}

/// Memoized result for the most recently inferred window.
struct WindowCache {
    /// Exclusive end group index of the window the result belongs to.
    end: u64,
    logits: WindowLogits,
    scenario: Scenario,
}

/// What one [`encode_staged`] call did — occupancy numbers for the
/// scheduler's observability plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MuxEncodeReport {
    /// States that contributed at least one staged group.
    pub streams: usize,
    /// Total groups encoded in the single batched forward.
    pub groups: usize,
}

/// Encodes every staged group across `states` in **one** batched forward
/// and distributes the outputs back into each state's group-cache ring.
///
/// This is the cross-stream amortization point: N streams that each
/// completed a group pay one `encode_group_batch` at batch N instead of N
/// single-group forwards. Row independence of the spatial stage makes the
/// result bit-identical to each state encoding its own groups (pinned by
/// `tests/streaming_parity.rs`). States with nothing staged are skipped;
/// passing an empty slice (or all-idle states) performs no forward at all.
///
/// # Panics
///
/// Panics if any state was created for a different model configuration.
pub fn encode_staged(
    model: &VideoScenarioTransformer,
    states: &mut [&mut StreamState],
) -> MuxEncodeReport {
    let mut owners: Vec<usize> = Vec::new();
    let mut streams = 0usize;
    for (i, s) in states.iter().enumerate() {
        assert_eq!(&s.cfg, model.config(), "stream state configuration does not match the model");
        if !s.staged.is_empty() {
            streams += 1;
            owners.extend(std::iter::repeat_n(i, s.staged.len()));
        }
    }
    if owners.is_empty() {
        return MuxEncodeReport::default();
    }
    let groups: Vec<&[f32]> =
        states.iter().flat_map(|s| s.staged.iter().map(|g| g.pixels.data())).collect();
    let encoded = model.encode_group_batch(&groups);
    let report = MuxEncodeReport { streams, groups: encoded.len() };
    let mut outputs = encoded.into_iter();
    for (i, data) in owners.into_iter().zip(&mut outputs) {
        states[i].consume_encoded(data);
    }
    report
}

/// Reads out the current window of every state in **one** forward: the
/// cached group outputs of each state whose window memo is stale are
/// stacked into `[N, nt, D]` (joint attention: `[N, nt·ns, D]`) and run
/// through a single forward — temporal stage, heads, decode — and each row is
/// installed as its state's memo. Returns one scenario per state, in order.
///
/// This is the readout twin of [`encode_staged`]: with it a scheduler's
/// round is exactly two forwards whatever the number of streams. Rows of
/// the temporal stage and the heads are batch-independent, so every row is
/// bit-identical to that state reading out alone —
/// [`StreamState::describe`] and [`StreamState::logits`] are this function
/// at N = 1.
///
/// Per state, the semantics are `describe`'s: a state without a full window
/// answers [`ExtractError::TooShort`] and takes no part in the forward; a
/// state whose memo already holds this window is a cache hit and takes no
/// part either (no stale state, no forward at all); groups still staged on a
/// ready state are encoded first; a window whose logits are not all finite
/// answers [`ExtractError::NonFiniteOutput`] and memoizes nothing. A memo is
/// written only after the forward has completed, so a panic inside it leaves
/// every state as it was.
///
/// # Panics
///
/// Panics if a ready state was created for a different model configuration.
pub fn readout_staged(
    model: &VideoScenarioTransformer,
    states: &mut [&mut StreamState],
) -> Vec<Result<Scenario, ExtractError>> {
    let fresh = refresh_windows(model, states);
    fresh
        .into_iter()
        .zip(states.iter())
        .map(|(r, s)| r.map(|()| s.window.as_ref().expect("refreshed above").scenario.clone()))
        .collect()
}

/// Ensures the window memo of every ready state in `states` holds its
/// current window (see [`readout_staged`]).
fn refresh_windows(
    model: &VideoScenarioTransformer,
    states: &mut [&mut StreamState],
) -> Vec<Result<(), ExtractError>> {
    let cfg = *model.config();
    let nt = cfg.n_time();
    if states.iter().any(|s| s.ready() && !s.staged.is_empty()) {
        let mut ready: Vec<&mut StreamState> =
            states.iter_mut().map(|s| &mut **s).filter(|s| s.ready()).collect();
        encode_staged(model, &mut ready);
    }
    let mut stale: Vec<usize> = Vec::new();
    let mut results: Vec<Result<(), ExtractError>> = states
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if !s.ready() {
                return Err(ExtractError::TooShort {
                    frames: usize::try_from(s.frames_seen).unwrap_or(usize::MAX),
                    min: s.cfg.frames,
                });
            }
            assert_eq!(s.cfg, cfg, "stream state configuration does not match the model");
            if s.window.as_ref().is_some_and(|w| w.end == s.next_group) {
                // Unchanged window: every group reused, no forward pass.
                metrics::stage_count("stage/cache_hit", nt as u64);
                metrics::stage_count("stage/window_hit", 1);
            } else {
                stale.push(i);
            }
            Ok(())
        })
        .collect();
    if stale.is_empty() {
        return results;
    }

    // Stack the stale windows' cached stage outputs: one batch row each.
    let tokens = match cfg.attention {
        AttentionKind::Factorized => nt,
        AttentionKind::Joint => nt * cfg.n_space(),
    };
    let mut buf = Vec::with_capacity(stale.len() * tokens * cfg.dim);
    for &i in &stale {
        for c in &states[i].ring {
            buf.extend_from_slice(c.data.data());
        }
    }
    let windows = Tensor::from_vec(buf, &[stale.len(), tokens, cfg.dim]);
    let logits = metrics::stage("stage/stream_infer", || infer_windows(model, windows));
    let labels =
        decode_logits(&logits.ego, &logits.road, &logits.event, &logits.position, &logits.presence);
    #[cfg(feature = "fault-inject")]
    if tsdx_tensor::faults::READOUT_PANIC.take().is_some() {
        panic!("injected fault: batched window readout");
    }
    for (row, (&i, label)) in stale.iter().zip(&labels).enumerate() {
        let s = &mut *states[i];
        metrics::stage_count("stage/cache_hit", nt.saturating_sub(s.fresh_groups) as u64);
        s.fresh_groups = 0;
        if !logits.row_is_finite(row) {
            // No answer to memoize: the next readout runs the forward again.
            results[i] = Err(ExtractError::NonFiniteOutput);
            s.window = None;
            continue;
        }
        s.window = Some(WindowCache {
            end: s.next_group,
            logits: window_row(&logits, row),
            scenario: label.to_scenario(),
        });
    }
    results
}

/// The window-level forward over stacked stage outputs `[N, tokens, D]`:
/// head logits `[N, C]`, row `i` belonging to window `i`.
fn infer_windows(model: &VideoScenarioTransformer, windows: Tensor) -> WindowLogits {
    let ex = &mut model.eval();
    let emb = match model.config().attention {
        AttentionKind::Factorized => model.encoder_ref().temporal_readout(ex, &windows),
        // Joint attention reruns the whole encoder; only the projection
        // work was cached.
        AttentionKind::Joint => model.encoder_ref().forward(ex, &windows),
    };
    model.heads_ref().forward(ex, &emb)
}

/// Per-stream extraction state with no model reference — safe to park in a
/// session table while a scheduler owns the batched forward.
///
/// Methods that need compute take the model explicitly; the configuration
/// is captured at construction and checked against the model on use.
/// [`StreamSession`] wraps one of these with a borrowed model for the
/// simple single-stream API.
pub struct StreamState {
    cfg: ModelConfig,
    /// Frames that do not yet fill a tubelet group, flattened pixel rows;
    /// always shorter than one group. Reused across pushes.
    pending: Vec<f32>,
    /// Completed groups awaiting their spatial encode, oldest first.
    staged: VecDeque<StagedGroup>,
    /// The newest `nt` group caches, oldest first.
    ring: VecDeque<GroupCache>,
    /// Total frames accepted so far.
    frames_seen: u64,
    /// Index the next completed group will receive.
    next_group: u64,
    /// Groups computed since the last inference — the work the cache could
    /// not save for the next window.
    fresh_groups: usize,
    window: Option<WindowCache>,
}

impl StreamState {
    /// Creates an empty stream state for models of `cfg`.
    pub fn new(cfg: ModelConfig) -> Self {
        StreamState {
            cfg,
            pending: Vec::new(),
            staged: VecDeque::new(),
            ring: VecDeque::with_capacity(cfg.n_time()),
            frames_seen: 0,
            next_group: 0,
            fresh_groups: 0,
            window: None,
        }
    }

    /// Total frames accepted so far.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Whether a full window of frames has arrived (staged groups count —
    /// they are encoded on demand), i.e. whether describe will succeed.
    pub fn ready(&self) -> bool {
        self.next_group >= self.cfg.n_time() as u64
    }

    /// Absolute group index range `[start, end)` of the current window, or
    /// `None` before the first full window.
    pub(crate) fn window_groups(&self) -> Option<(u64, u64)> {
        if !self.ready() {
            return None;
        }
        Some((self.next_group - self.cfg.n_time() as u64, self.next_group))
    }

    /// Validates and buffers a chunk of frames `[n, H, W]`, queueing every
    /// newly completed time group for a later encode — **no forward pass
    /// happens here**. Returns the number of groups staged. Chunk sizes
    /// are arbitrary; `n == 0` is a no-op.
    ///
    /// The caller (a batching scheduler, or [`StreamSession::push_frames`])
    /// consumes the staged groups via [`encode_staged`]; reads like
    /// [`describe`](Self::describe) self-serve any still-staged groups, so
    /// staging never changes observable results — only who pays for the
    /// forward and at what batch size.
    ///
    /// # Errors
    ///
    /// [`ExtractError::BadRank`] unless the chunk is rank 3,
    /// [`ExtractError::BadFrameShape`] unless its spatial dimensions match
    /// the model, and [`ExtractError::NonFinite`] when any pixel is NaN or
    /// infinite (reported with its flat index within the chunk, and the
    /// chunk is rejected whole — session state is unchanged).
    pub fn stage_frames(&mut self, frames: &Tensor) -> Result<usize, ExtractError> {
        let sh = frames.shape();
        if sh.len() != 3 {
            return Err(ExtractError::BadRank { found: sh.len() });
        }
        if sh[1] != self.cfg.height || sh[2] != self.cfg.width {
            return Err(ExtractError::BadFrameShape {
                expected: [self.cfg.height, self.cfg.width],
                found: [sh[1], sh[2]],
            });
        }
        if sh[0] == 0 {
            return Ok(0);
        }
        if let Some(index) = frames.first_non_finite() {
            return Err(ExtractError::NonFinite { index });
        }
        let frames = frames.contiguous();
        let data = frames.data();

        let group_len = self.cfg.tubelet_t * self.cfg.height * self.cfg.width;
        self.pending.extend_from_slice(data);
        self.frames_seen += sh[0] as u64;
        let mut completed = 0;
        while self.pending.len() >= group_len {
            let pixels =
                Tensor::from_extend(&[group_len], |d| d.extend(self.pending.drain(..group_len)));
            self.staged.push_back(StagedGroup { index: self.next_group, pixels });
            self.next_group += 1;
            completed += 1;
        }
        Ok(completed)
    }

    /// Installs one encoded stage output into the ring, in staging order.
    fn consume_encoded(&mut self, data: Tensor) {
        let group = self.staged.pop_front().expect("consume without a staged group");
        debug_assert!(
            self.ring.back().is_none_or(|c| c.index + 1 == group.index),
            "group cache ring must stay contiguous"
        );
        metrics::stage_count("stage/cache_miss", 1);
        if self.ring.len() == self.cfg.n_time() {
            self.ring.pop_front();
        }
        self.ring.push_back(GroupCache { index: group.index, data });
        self.fresh_groups += 1;
    }

    /// Head logits for the window ending at the newest staged group,
    /// bit-identical to a full recompute of that window. Encodes any
    /// still-staged groups first. The one-state case of
    /// [`readout_staged`].
    ///
    /// # Errors
    ///
    /// [`ExtractError::TooShort`] before the first full window of frames
    /// has arrived, [`ExtractError::NonFiniteOutput`] when the window's
    /// forward overflows.
    pub fn logits(
        &mut self,
        model: &VideoScenarioTransformer,
    ) -> Result<WindowLogits, ExtractError> {
        refresh_windows(model, &mut [&mut *self]).pop().expect("one result per state")?;
        Ok(self.window.as_ref().expect("refreshed above").logits.clone())
    }

    /// The scenario description of the current window (see
    /// [`logits`](Self::logits) for windowing and errors). The returned
    /// scenario always satisfies [`Scenario::validate`].
    pub fn describe(&mut self, model: &VideoScenarioTransformer) -> Result<Scenario, ExtractError> {
        readout_staged(model, &mut [self]).pop().expect("one result per state")
    }
}

impl std::fmt::Debug for StreamState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamState")
            .field("frames_seen", &self.frames_seen)
            .field("cached_groups", &self.ring.len())
            .field("staged_groups", &self.staged.len())
            .field("ready", &self.ready())
            .finish_non_exhaustive()
    }
}

/// An incremental extraction session over one video stream.
///
/// Created by [`ScenarioExtractor::open_stream`](crate::ScenarioExtractor::open_stream);
/// borrows the model immutably, so weights cannot change under a live
/// session (which would invalidate every cache here). A thin wrapper over
/// [`StreamState`] that stages and immediately encodes on every push; a
/// serving scheduler that wants to batch encodes across streams holds bare
/// `StreamState`s instead and drives [`encode_staged`] itself.
///
/// # Examples
///
/// ```
/// use tsdx_core::{ModelConfig, ScenarioExtractor};
/// use tsdx_tensor::Tensor;
///
/// let cfg = ModelConfig {
///     frames: 4, height: 16, width: 16, tubelet_t: 2, patch: 8,
///     dim: 16, spatial_depth: 1, temporal_depth: 1, heads: 2,
///     ..ModelConfig::default()
/// };
/// let extractor = ScenarioExtractor::untrained(cfg, 0);
/// let mut session = extractor.open_stream();
/// // Feed frames as they arrive — chunk sizes are arbitrary.
/// session.push_frames(&Tensor::zeros(&[3, 16, 16])).unwrap();
/// assert!(!session.ready());
/// session.push_frames(&Tensor::zeros(&[1, 16, 16])).unwrap();
/// let scenario = session.describe().unwrap();
/// scenario.validate().unwrap();
/// ```
pub struct StreamSession<'m> {
    model: &'m VideoScenarioTransformer,
    state: StreamState,
}

impl<'m> StreamSession<'m> {
    pub(crate) fn new(model: &'m VideoScenarioTransformer) -> Self {
        StreamSession { model, state: StreamState::new(*model.config()) }
    }

    /// Whether a full window of frames has arrived, i.e. whether
    /// [`describe`](Self::describe) will succeed.
    pub fn ready(&self) -> bool {
        self.state.ready()
    }

    /// Absolute group index range `[start, end)` of the current window, or
    /// `None` before the first full window.
    pub fn window_groups(&self) -> Option<(u64, u64)> {
        self.state.window_groups()
    }

    /// Feeds a chunk of frames `[n, H, W]` into the stream and returns the
    /// number of newly completed (and therefore newly encoded) time
    /// groups. Chunk sizes are arbitrary; `n == 0` is a no-op.
    ///
    /// Only new groups are encoded — steady-state cost is proportional to
    /// the frames pushed, not to the window length. All groups completed
    /// by one push share a single batched forward
    /// ([`VideoScenarioTransformer::encode_group_batch`]).
    ///
    /// # Errors
    ///
    /// See [`StreamState::stage_frames`]; a rejected chunk leaves session
    /// state unchanged.
    pub fn push_frames(&mut self, frames: &Tensor) -> Result<usize, ExtractError> {
        let completed = self.state.stage_frames(frames)?;
        if completed > 0 {
            metrics::stage("stage/stream_push", || {
                encode_staged(self.model, &mut [&mut self.state]);
            });
        }
        Ok(completed)
    }

    /// Head logits for the window ending at the newest pushed group,
    /// bit-identical to a full recompute of that window.
    ///
    /// # Errors
    ///
    /// [`ExtractError::TooShort`] before the first full window of frames
    /// has arrived, [`ExtractError::NonFiniteOutput`] when the window's
    /// forward overflows.
    pub fn logits(&mut self) -> Result<WindowLogits, ExtractError> {
        self.state.logits(self.model)
    }

    /// The scenario description of the current window (see
    /// [`logits`](Self::logits) for windowing and errors). The returned
    /// scenario always satisfies [`Scenario::validate`].
    pub fn describe(&mut self) -> Result<Scenario, ExtractError> {
        self.state.describe(self.model)
    }
}

impl std::fmt::Debug for StreamSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession").field("state", &self.state).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Readout;
    use crate::ScenarioExtractor;

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

    fn video(frames: usize, seed: f32) -> Tensor {
        Tensor::from_fn(&[frames, 16, 16], |i| ((i as f32 + seed) * 0.013).sin())
    }

    #[test]
    fn session_matches_one_shot_extraction_on_the_first_window() {
        for attention in [AttentionKind::Factorized, AttentionKind::Joint] {
            for readout in [Readout::Cls, Readout::MeanPool] {
                let ex = ScenarioExtractor::untrained(tiny_cfg(attention, readout), 5);
                let v = video(4, 1.0);
                let mut s = ex.open_stream();
                assert_eq!(s.push_frames(&v).unwrap(), 2);
                assert!(s.ready());
                assert_eq!(
                    s.describe().unwrap(),
                    ex.extract_checked(&v).unwrap(),
                    "{attention:?}/{readout:?}"
                );
            }
        }
    }

    #[test]
    fn ragged_chunks_accumulate_like_one_push() {
        let ex = ScenarioExtractor::untrained(tiny_cfg(AttentionKind::Factorized, Readout::Cls), 7);
        let v = video(4, 2.0);
        let mut whole = ex.open_stream();
        whole.push_frames(&v).unwrap();
        let mut ragged = ex.open_stream();
        for i in 0..4 {
            let frame = Tensor::from_vec(v.data()[i * 256..(i + 1) * 256].to_vec(), &[1, 16, 16]);
            ragged.push_frames(&frame).unwrap();
        }
        assert_eq!(whole.state.frames_seen, ragged.state.frames_seen);
        assert_eq!(whole.window_groups(), ragged.window_groups());
        assert_eq!(whole.logits().unwrap(), ragged.logits().unwrap());
    }

    #[test]
    fn sliding_recomputes_only_new_groups() {
        let ex = ScenarioExtractor::untrained(tiny_cfg(AttentionKind::Factorized, Readout::Cls), 9);
        let mut s = ex.open_stream();
        s.push_frames(&video(4, 3.0)).unwrap();
        s.describe().unwrap();
        assert_eq!(s.window_groups(), Some((0, 2)));
        // Slide by one group: exactly one new group is encoded.
        assert_eq!(s.push_frames(&video(2, 9.0)).unwrap(), 1);
        s.describe().unwrap();
        assert_eq!(s.window_groups(), Some((1, 3)));
        assert_eq!(s.state.frames_seen, 6);
    }

    #[test]
    fn a_steady_slide_encodes_one_group_whatever_the_window_length() {
        // What "sublinear in window length" means: a slide pays the spatial
        // stage for its one new group and reads the other `nt − 1` from the
        // cache, at any `nt` — and still answers what a cold session does.
        for frames in [8usize, 16] {
            let cfg = ModelConfig { frames, ..tiny_cfg(AttentionKind::Factorized, Readout::Cls) };
            let (nt, step) = (cfg.n_time() as u64, cfg.tubelet_t);
            let ex = ScenarioExtractor::untrained(cfg, 8);
            // Frames `start..start + n` of one endless feed.
            let feed = |start: usize, n: usize| video(n, (start * 256) as f32);
            let mut s = ex.open_stream();
            let scope = metrics::scope();
            s.push_frames(&feed(0, frames)).unwrap();
            s.logits().unwrap();
            let snap = scope.snapshot();
            drop(scope);
            // The first window encodes each of its groups once.
            assert_eq!(snap.counter("stage/cache_miss"), nt, "{frames} frames");
            assert_eq!(snap.counter("stage/cache_hit"), 0, "{frames} frames");
            let mut fed = frames;
            let mut slide = |s: &mut StreamSession| {
                s.push_frames(&feed(fed, step)).unwrap();
                fed += step;
                (fed, s.logits().unwrap())
            };
            for _ in 0..2 {
                slide(&mut s);
            }
            let scope = metrics::scope();
            let slides: Vec<_> = (0..5).map(|_| slide(&mut s)).collect();
            let snap = scope.snapshot();
            drop(scope);
            assert_eq!(snap.counter("stage/cache_miss"), 5, "{frames} frames");
            assert_eq!(snap.counter("stage/cache_hit"), 5 * (nt - 1), "{frames} frames");
            for (end, got) in slides {
                let mut cold = ex.open_stream();
                cold.push_frames(&feed(end - frames, frames)).unwrap();
                assert_eq!(got, cold.logits().unwrap(), "{frames} frames, window ending at {end}");
            }
        }
    }

    #[test]
    fn describe_before_a_full_window_is_a_typed_error() {
        let ex = ScenarioExtractor::untrained(tiny_cfg(AttentionKind::Factorized, Readout::Cls), 1);
        let mut s = ex.open_stream();
        assert_eq!(s.describe(), Err(ExtractError::TooShort { frames: 0, min: 4 }));
        s.push_frames(&video(3, 0.0)).unwrap();
        assert!(!s.ready());
        assert_eq!(s.describe(), Err(ExtractError::TooShort { frames: 3, min: 4 }));
    }

    #[test]
    fn malformed_chunks_are_rejected_without_corrupting_state() {
        let ex = ScenarioExtractor::untrained(tiny_cfg(AttentionKind::Factorized, Readout::Cls), 2);
        let mut s = ex.open_stream();
        assert_eq!(
            s.push_frames(&Tensor::zeros(&[1, 2, 16, 16])),
            Err(ExtractError::BadRank { found: 4 })
        );
        assert_eq!(
            s.push_frames(&Tensor::zeros(&[1, 8, 16])),
            Err(ExtractError::BadFrameShape { expected: [16, 16], found: [8, 16] })
        );
        let mut bad = Tensor::zeros(&[1, 16, 16]);
        bad.set(&[0, 0, 3], f32::NAN);
        assert_eq!(s.push_frames(&bad), Err(ExtractError::NonFinite { index: 3 }));
        // Nothing was buffered by the failed pushes.
        assert_eq!(s.state.frames_seen, 0);
        let v = video(4, 5.0);
        s.push_frames(&v).unwrap();
        assert_eq!(s.describe().unwrap(), ex.extract_checked(&v).unwrap());
    }

    #[test]
    fn repeated_describe_serves_the_cached_window() {
        let ex = ScenarioExtractor::untrained(tiny_cfg(AttentionKind::Factorized, Readout::Cls), 3);
        let mut s = ex.open_stream();
        s.push_frames(&video(4, 7.0)).unwrap();
        let scope = metrics::scope();
        let first = s.describe().unwrap();
        let again = s.describe().unwrap();
        let snap = scope.snapshot();
        drop(scope);
        assert_eq!(first, again);
        assert_eq!(snap.counter("stage/window_hit"), 1);
        // First describe: 2 fresh groups, 0 hits; second: 2 hits.
        assert_eq!(snap.counter("stage/cache_hit"), 2);
    }

    #[test]
    fn staged_state_defers_the_forward_until_consumed() {
        let ex = ScenarioExtractor::untrained(tiny_cfg(AttentionKind::Factorized, Readout::Cls), 4);
        let mut st = StreamState::new(*ex.model().config());
        let v = video(4, 11.0);
        let scope = metrics::scope();
        assert_eq!(st.stage_frames(&v).unwrap(), 2);
        assert_eq!(st.staged.len(), 2);
        assert!(st.ready(), "staged groups count toward readiness");
        let snap = scope.snapshot();
        drop(scope);
        assert_eq!(snap.counter("stage/cache_miss"), 0, "staging must not encode");
        // Describe self-serves the staged groups and matches one-shot.
        assert_eq!(st.describe(ex.model()).unwrap(), ex.extract_checked(&v).unwrap());
        assert_eq!(st.staged.len(), 0);
    }

    #[test]
    fn cross_stream_batched_encode_is_bit_identical_to_solo() {
        let ex = ScenarioExtractor::untrained(tiny_cfg(AttentionKind::Factorized, Readout::Cls), 6);
        let vids: Vec<Tensor> = (0..3).map(|i| video(4, 20.0 + i as f32)).collect();
        // Independent sessions, each encoding its own groups.
        let mut sessions: Vec<StreamSession> = vids
            .iter()
            .map(|v| {
                let mut s = ex.open_stream();
                s.push_frames(v).unwrap();
                s
            })
            .collect();
        let solo: Vec<WindowLogits> = sessions.iter_mut().map(|s| s.logits().unwrap()).collect();
        // One mux round encodes all staged groups in a single forward.
        let mut states: Vec<StreamState> = vids
            .iter()
            .map(|v| {
                let mut st = StreamState::new(*ex.model().config());
                st.stage_frames(v).unwrap();
                st
            })
            .collect();
        let mut refs: Vec<&mut StreamState> = states.iter_mut().collect();
        let report = encode_staged(ex.model(), &mut refs);
        assert_eq!(report, MuxEncodeReport { streams: 3, groups: 6 });
        for (st, want) in states.iter_mut().zip(&solo) {
            let got = st.logits(ex.model()).unwrap();
            assert_eq!(&got, want, "batched encode must be bit-identical");
        }

        // Then every stream slides one group per tick. Staged and encoded
        // together, a tick is one forward over every stream; served one
        // session at a time, it is one forward per stream.
        let forwards = |scope: metrics::ScopeGuard| {
            scope.snapshot().hists.get("stage/mux_encode").map_or(0, |h| h.count)
        };
        for tick in 0..3 {
            let group = |s: usize| video(2, 40.0 + (10 * s + tick) as f32);
            let scope = metrics::scope();
            for (s, session) in sessions.iter_mut().enumerate() {
                session.push_frames(&group(s)).unwrap();
            }
            assert_eq!(forwards(scope), 3, "tick {tick}, one stream at a time");
            let scope = metrics::scope();
            for (s, st) in states.iter_mut().enumerate() {
                st.stage_frames(&group(s)).unwrap();
            }
            let mut refs: Vec<&mut StreamState> = states.iter_mut().collect();
            let report = encode_staged(ex.model(), &mut refs);
            assert_eq!(forwards(scope), 1, "tick {tick}, muxed");
            assert_eq!(report, MuxEncodeReport { streams: 3, groups: 3 }, "tick {tick}");
            for (st, session) in states.iter_mut().zip(&mut sessions) {
                assert_eq!(
                    st.logits(ex.model()).unwrap(),
                    session.logits().unwrap(),
                    "tick {tick}"
                );
            }
        }
    }
}
