//! The dynamic micro-batching queue between connection handlers and the
//! model.
//!
//! Concurrent requests land in one bounded **mixed** queue that a single
//! worker thread drains in rounds of up to `max_batch`. Every request is one
//! `Job` envelope — arrival time, deadline, budget — around its work, so
//! admission, the deadline gate, panic containment and drain are written
//! once; only the forwards differ by kind:
//!
//! * **One-shot clips** (`POST /v1/extract`): one batched encoder forward
//!   ([`ScenarioExtractor::extract_window_batch`]).
//! * **Stream chunk pushes** (`POST /sessions/<id>/frames`): each chunk is
//!   staged into its session's [`tsdx_core::StreamState`], then **one**
//!   cross-stream [`tsdx_core::encode_staged`] forward encodes every newly
//!   completed time group and **one** [`tsdx_core::readout_staged`] forward
//!   reads out every ready window — N streams pay two forwards per round
//!   (bit-identical per stream, by the row independence of both stages).
//!
//! **Policy.** Two pure steps decide a round; neither locks, reads the clock,
//! sends on a channel or touches the model. `drain_round` (under the queue
//! lock) takes up to `max_batch` jobs in order, but a session's second push
//! ends the drain and stays at the head: FIFO holds per session and each
//! reply reports exactly its own groups. `gate` (after the lock) sets apart
//! the jobs the round's EWMA-estimated cost (`Estimates`) would make miss
//! their deadline: they are answered [`ServeError::DeadlineExceeded`].
//!
//! **Driver.** The worker waits, yields the CPU once, drains, gates, answers
//! the late jobs, runs the forwards and feeds their cost to its `Estimates`.
//! The yield lets an already-runnable connection thread (the other stream's
//! push) enqueue first on one core, so two streams share a round; a round
//! can then wait out another runnable thread's time slice (a `/search`
//! scan). DESIGN §6.10 has the measurements. Around the steps:
//!
//! * **Bounded admission.** [`Batcher::submit`] / [`Batcher::submit_stream`]
//!   shed a typed [`ServeError::QueueFull`] at capacity, before the request
//!   occupies a slot.
//! * **Panic containment.** Every forward runs under `catch_unwind`: a panic
//!   answers its jobs a typed 500 and leaves staged groups staged and window
//!   memos unwritten, so the next push redoes them; the worker serves on.
//! * **Drain, never drop.** [`Batcher::drain`] stops admission; the worker
//!   answers everything still queued before it exits.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tsdx_core::{ExtractError, ScenarioExtractor};
use tsdx_sdl::Scenario;
use tsdx_tensor::dial::Precision;
use tsdx_tensor::{metrics, Tensor};

use crate::error::ServeError;
use crate::sessions::SessionEntry;
use crate::stats::ServeStats;

/// Tuning for the batching queue.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Most requests that may wait in the admission queue; one more is a
    /// 429.
    pub queue_capacity: usize,
    /// Most jobs (clips + stream pushes) coalesced into one drain round.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { queue_capacity: 64, max_batch: 8 }
    }
}

/// A successful extraction, annotated with how it was served.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The decoded scenario.
    pub scenario: Scenario,
    // pinned by benchmark/src/replay.rs — goes with the re-pin, ROADMAP item 1
    /// Numeric plane the batch ran on.
    pub plane: Precision,
    /// Time spent waiting in the queue — admission to the worker's drain,
    /// before any model work — µs.
    pub queued_us: u64,
    /// How many clips shared the forward.
    pub batch_size: usize,
}

/// What a handler gets back for one submitted one-shot request.
pub type BatchResult = Result<Extraction, ServeError>;

/// A successful stream chunk push, annotated with how it was served.
#[derive(Debug, Clone)]
pub struct StreamAnswer {
    /// The session the chunk landed in.
    pub session: u64,
    /// Time groups this push completed (and the round encoded).
    pub groups_new: usize,
    /// Total frames the session has accepted.
    pub frames_seen: u64,
    /// Whether a full window has arrived.
    pub ready: bool,
    /// The current window's scenario; `None` before the first full window.
    pub scenario: Option<Scenario>,
    // pinned by benchmark/src/replay.rs — goes with the re-pin, ROADMAP item 1
    /// Numeric plane the round ran on.
    pub plane: Precision,
    /// Time spent waiting in the queue — admission to the worker's drain,
    /// before any model work — µs.
    pub queued_us: u64,
    /// Streams whose groups shared this round's batched spatial forward.
    pub mux_streams: usize,
    /// Total groups that forward encoded.
    pub mux_groups: usize,
}

/// What a handler gets back for one submitted stream push.
pub type StreamResult = Result<StreamAnswer, ServeError>;

/// One admitted request — the envelope every kind of work travels in:
/// when it arrived, what it may cost, and the work itself. Admission, the
/// deadline gate, the panic fan-out and shutdown see only the envelope.
struct Job<W = Work> {
    enqueued: Instant,
    deadline: Option<Instant>,
    budget_ms: u64,
    work: W,
}

/// A one-shot window and where its answer goes.
struct Clip {
    video: Tensor,
    reply: Sender<BatchResult>,
}

/// A chunk pushed into a session and where its answer goes.
struct Stream {
    entry: Arc<SessionEntry>,
    chunk: Tensor,
    reply: Sender<StreamResult>,
}

enum Work {
    Clip(Clip),
    Stream(Stream),
}

impl From<Clip> for Work {
    fn from(c: Clip) -> Work {
        Work::Clip(c)
    }
}

impl From<Stream> for Work {
    fn from(s: Stream) -> Work {
        Work::Stream(s)
    }
}

impl<W: Into<Work>> Job<W> {
    fn new(work: W, deadline: Option<Instant>, budget_ms: u64) -> Job {
        Job { enqueued: Instant::now(), deadline, budget_ms, work: work.into() }
    }

    /// Answers the job with `e`, whatever its kind (a handler that has
    /// stopped listening is not an error).
    fn fail(self, e: ServeError) {
        match self.work.into() {
            Work::Clip(c) => drop(c.reply.send(Err(e))),
            Work::Stream(s) => drop(s.reply.send(Err(e))),
        }
    }

    /// The job's queue wait: admission to the worker's drain, µs.
    fn queued_us(&self, drained: Instant) -> u64 {
        drained.saturating_duration_since(self.enqueued).as_micros() as u64
    }
}

struct Queue {
    items: VecDeque<Job>,
    draining: bool,
}

struct Shared {
    q: Mutex<Queue>,
    cv: Condvar,
    cfg: BatchConfig,
    stats: Arc<ServeStats>,
}

/// The gate's cost estimates in µs, owned by the worker: EWMAs of completed
/// forwards per clip and per stream time group (0 = no estimate yet).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Estimates {
    clip_us: u64,
    group_us: u64,
}

impl Estimates {
    /// Folds a forward of `elapsed_us` over `units` into `estimate`: the first
    /// sample as is, then 3:1 old:new, never below 1; no units, no change.
    fn observe(estimate: &mut u64, elapsed_us: u64, units: usize) {
        if units > 0 {
            let per_unit = elapsed_us / units as u64;
            let next = if *estimate == 0 { per_unit } else { (3 * *estimate + per_unit) / 4 };
            *estimate = next.max(1);
        }
    }
}

/// The batching queue plus its worker thread. Dropping the batcher drains
/// it.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Starts the worker thread over `extractor`.
    pub fn start(
        extractor: Arc<ScenarioExtractor>,
        cfg: BatchConfig,
        stats: Arc<ServeStats>,
    ) -> Batcher {
        let q = Mutex::new(Queue { items: VecDeque::new(), draining: false });
        let shared = Arc::new(Shared { q, cv: Condvar::new(), cfg, stats });
        let worker_shared = Arc::clone(&shared);
        // Invariant: a process that cannot spawn one thread at startup cannot
        // serve. The signature stays infallible (the benchmark calls it).
        let worker = std::thread::Builder::new()
            .name("tsdx-serve-batcher".into())
            .spawn(move || worker_loop(&worker_shared, &extractor))
            .expect("spawn batch worker");
        Batcher { shared, worker: Mutex::new(Some(worker)) }
    }

    /// Admits one validated window into the queue.
    ///
    /// `deadline` is absolute; `budget_ms` is the client-visible budget it
    /// was derived from (echoed in shed responses).
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`drain`](Batcher::drain) and
    /// [`ServeError::QueueFull`] at capacity — both *before* the request
    /// occupies a slot.
    pub fn submit(
        &self,
        video: Tensor,
        deadline: Option<Instant>,
        budget_ms: u64,
    ) -> Result<Receiver<BatchResult>, ServeError> {
        let (reply, rx) = mpsc::channel();
        self.admit(Job::new(Clip { video, reply }, deadline, budget_ms))?;
        Ok(rx)
    }

    /// Admits one stream chunk push for `entry` into the queue (same
    /// admission and deadline rules as [`submit`](Batcher::submit)). The
    /// chunk is validated and staged by the worker, so a bad chunk answers
    /// a typed 422 with the session untouched.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`drain`](Batcher::drain) and
    /// [`ServeError::QueueFull`] at capacity.
    pub fn submit_stream(
        &self,
        entry: Arc<SessionEntry>,
        chunk: Tensor,
        deadline: Option<Instant>,
        budget_ms: u64,
    ) -> Result<Receiver<StreamResult>, ServeError> {
        let (reply, rx) = mpsc::channel();
        self.admit(Job::new(Stream { entry, chunk, reply }, deadline, budget_ms))?;
        Ok(rx)
    }

    fn admit(&self, job: Job) -> Result<(), ServeError> {
        {
            let mut q = lock(&self.shared.q);
            if q.draining {
                return Err(ServeError::ShuttingDown);
            }
            if q.items.len() >= self.shared.cfg.queue_capacity {
                ServeStats::inc(&self.shared.stats.shed_queue_full);
                return Err(ServeError::QueueFull { capacity: self.shared.cfg.queue_capacity });
            }
            q.items.push_back(job);
            self.shared.stats.queue_depth.store(q.items.len() as u64, Ordering::Relaxed);
        }
        ServeStats::inc(&self.shared.stats.accepted);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Current queue depth (for readiness probes and tests).
    pub fn depth(&self) -> usize {
        lock(&self.shared.q).items.len()
    }

    /// Stops admission, answers everything already queued, and joins the
    /// worker. Idempotent; callable from any thread holding the batcher.
    pub fn drain(&self) {
        {
            let mut q = lock(&self.shared.q);
            q.draining = true;
        }
        self.shared.cv.notify_all();
        if let Some(worker) = lock(&self.worker).take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.drain();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // The queue holds no invariants across a panic (entries are
    // self-contained), so recover the data instead of poisoning the server.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The driver: waits for work, yields once, drains a round under the queue
/// lock ([`drain_round`]) and runs it with the lock released ([`run_round`]).
fn worker_loop(shared: &Shared, extractor: &ScenarioExtractor) {
    // Every round's stage histograms and counters record here — what /stats
    // serves, nothing op-level — and a snapshot is published after each.
    let scope = metrics::stage_scope();
    let mut est = Estimates::default();
    loop {
        // Wait for work, then let an already-runnable push join this round.
        drop(shared.cv.wait_while(lock(&shared.q), |q| q.items.is_empty() && !q.draining));
        std::thread::yield_now();
        let mut q = lock(&shared.q);
        if q.items.is_empty() {
            break; // draining and nothing left
        }
        let jobs = drain_round(&mut q.items, shared.cfg.max_batch);
        shared.stats.queue_depth.store(q.items.len() as u64, Ordering::Relaxed);
        drop(q);
        run_round(shared, extractor, &mut est, jobs, Instant::now());
        shared.stats.publish_worker_metrics(scope.snapshot());
    }
    shared.stats.publish_worker_metrics(scope.snapshot());
}

/// The drain step, under the queue lock: pops up to `max_batch` jobs in queue
/// order and stops at a session's second push, which stays at the head.
fn drain_round(items: &mut VecDeque<Job>, max_batch: usize) -> Vec<Job> {
    let session =
        |job: &Job| if let Work::Stream(s) = &job.work { Some(s.entry.id()) } else { None };
    let mut round: Vec<Job> = Vec::new();
    while let Some(job) = items.front().filter(|_| round.len() < max_batch) {
        if session(job).is_some_and(|id| round.iter().any(|j| session(j) == Some(id))) {
            break;
        }
        round.extend(items.pop_front());
    }
    round
}

/// A gated round: its clips, its stream pushes and its late jobs.
type Gated = (Vec<Job<Clip>>, Vec<Job<Stream>>, Vec<Job>);

/// The gate step, after the queue lock: splits a drained round into clips,
/// pushes and late jobs. A job is late iff its deadline is before `now` plus
/// the round's estimated cost (cold start: only expired deadlines are).
fn gate(jobs: Vec<Job>, now: Instant, est: &Estimates, tubelet_t: usize) -> Gated {
    let cost_us = |job: &Job| match &job.work {
        Work::Clip(_) => est.clip_us,
        Work::Stream(s) => {
            let groups = s.chunk.shape().first().map_or(0, |f| f.div_ceil(tubelet_t.max(1)));
            est.group_us.saturating_mul(groups as u64 + 1) // +1 ≈ the window readout
        }
    };
    let finish_by =
        now + Duration::from_micros(jobs.iter().map(cost_us).fold(0, u64::saturating_add));
    let (mut clips, mut streams, mut late) = (Vec::new(), Vec::new(), Vec::new());
    for job in jobs {
        if job.deadline.is_some_and(|d| d < finish_by) {
            late.push(job);
            continue;
        }
        let Job { enqueued, deadline, budget_ms, work } = job;
        match work {
            Work::Clip(work) => clips.push(Job { enqueued, deadline, budget_ms, work }),
            Work::Stream(work) => streams.push(Job { enqueued, deadline, budget_ms, work }),
        }
    }
    (clips, streams, late)
}

/// One drained round: the gate, the late jobs' answers, then at most three
/// forwards (clips; stream encode and readout) whose costs feed `est`.
/// `drained` is the gate's `now` and the end of every job's queue wait.
fn run_round(
    shared: &Shared,
    extractor: &ScenarioExtractor,
    est: &mut Estimates,
    jobs: Vec<Job>,
    drained: Instant,
) {
    let (clips, streams, late) = gate(jobs, drained, est, extractor.model().config().tubelet_t);
    for job in late {
        ServeStats::inc(&shared.stats.shed_deadline);
        let budget_ms = job.budget_ms;
        job.fail(ServeError::DeadlineExceeded { budget_ms });
    }
    if clips.is_empty() && streams.is_empty() {
        return;
    }
    ServeStats::inc(&shared.stats.batches);
    run_clips(shared, extractor, &mut est.clip_us, clips, drained);
    run_streams(shared, extractor, &mut est.group_us, streams, drained);
}

/// One forward of a round, timed under `catch_unwind`. A completed forward
/// returns the jobs with its output and feeds its cost per `units` to
/// `estimate`; a panic answers every job a typed 500 and the worker serves on.
fn guarded<W: Into<Work>, T>(
    shared: &Shared,
    jobs: Vec<Job<W>>,
    estimate: &mut u64,
    forward: impl FnOnce(&[Job<W>]) -> (T, usize),
) -> Option<(Vec<Job<W>>, T)> {
    let t0 = Instant::now();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| forward(&jobs))) {
        Ok((out, units)) => {
            Estimates::observe(estimate, t0.elapsed().as_micros() as u64, units);
            Some((jobs, out))
        }
        Err(payload) => {
            ServeStats::inc(&shared.stats.panics_caught);
            let detail = panic_text(payload.as_ref());
            for job in jobs {
                job.fail(ServeError::Internal { detail: detail.clone() });
            }
            None
        }
    }
}

/// The one-shot half of a round: one batched window forward.
fn run_clips(
    shared: &Shared,
    extractor: &ScenarioExtractor,
    estimate: &mut u64,
    live: Vec<Job<Clip>>,
    drained: Instant,
) {
    if live.is_empty() {
        return;
    }
    let size = live.len();
    let served = guarded(shared, live, estimate, |live| {
        let videos: Vec<&Tensor> = live.iter().map(|job| &job.work.video).collect();
        let results =
            metrics::stage("stage/serve_batch", || extractor.extract_window_batch(&videos));
        (results, size)
    });
    shared.stats.batched_clips.fetch_add(size as u64, Ordering::Relaxed);
    let Some((live, results)) = served else { return };
    for (job, r) in live.into_iter().zip(results) {
        let reply = match r {
            Ok(scenario) => {
                ServeStats::inc(&shared.stats.completed);
                Ok(Extraction {
                    scenario,
                    plane: Precision::F32,
                    queued_us: job.queued_us(drained),
                    batch_size: size,
                })
            }
            // Validation happens at admission, so this is an overflowing
            // forward unless a caller submitted unvalidated input.
            Err(e) => Err(refused(shared, e)),
        };
        let _ = job.work.reply.send(reply);
    }
}

/// The streaming half of a round: stage every chunk, encode all completed
/// groups across sessions in one batched forward, then read out every ready
/// window in another.
fn run_streams(
    shared: &Shared,
    extractor: &ScenarioExtractor,
    estimate: &mut u64,
    jobs: Vec<Job<Stream>>,
    drained: Instant,
) {
    // Sessions closed or evicted while the push waited in the queue answer
    // typed 404s; their chunks never touch the dead state.
    let (dead, live): (Vec<_>, Vec<_>) = jobs.into_iter().partition(|j| j.work.entry.is_closed());
    for job in dead {
        let id = job.work.entry.id();
        job.fail(ServeError::UnknownSession { id });
    }
    if live.is_empty() {
        return;
    }
    // A panic in the group encode or the window readout leaves staged groups
    // staged and window memos unwritten (ring and memo are only written
    // after a completed forward), so the sessions stay consistent and the
    // next push re-encodes or re-reads them.
    let served =
        guarded(shared, live, estimate, |live| stream_round(shared, extractor, live, drained));
    let Some((live, replies)) = served else { return };
    for (job, r) in live.into_iter().zip(replies) {
        if r.is_ok() {
            ServeStats::inc(&shared.stats.stream_pushes);
        }
        let _ = job.work.reply.send(r);
    }
}

/// The lock-stage-encode-readout body of the streaming half. Returns one
/// reply per job (same order) and the number of groups encoded.
fn stream_round(
    shared: &Shared,
    extractor: &ScenarioExtractor,
    jobs: &[Job<Stream>],
    drained: Instant,
) -> (Vec<StreamResult>, usize) {
    // Hold every session's state lock for the whole round: staging, the
    // shared batched encode, and the shared readout are one atomic step per
    // session. The worker is the only contender (session routes go through
    // the queue), so these locks never wait.
    let mut guards: Vec<_> = jobs.iter().map(|j| lock(&j.work.entry.state)).collect();

    // Stage every chunk. A bad chunk gets its typed error and leaves its
    // session untouched (the rejected-chunk contract); the rest of the
    // round proceeds without it.
    let staged: Vec<Result<usize, ServeError>> = jobs
        .iter()
        .zip(guards.iter_mut())
        .map(|(j, g)| {
            metrics::stage("stage/stream_stage", || g.stage_frames(&j.work.chunk))
                .map_err(ServeError::from)
        })
        .collect();

    // Two forwards for the whole round, over the sessions whose chunk
    // staged: one cross-stream spatial encode of every group staged, one
    // cross-stream readout (temporal stage + heads) of every ready window.
    let mut refs: Vec<&mut tsdx_core::StreamState> = guards
        .iter_mut()
        .zip(&staged)
        .filter(|(_, staged)| staged.is_ok())
        .map(|(g, _)| &mut **g)
        .collect();
    let report = tsdx_core::encode_staged(extractor.model(), &mut refs);
    if report.groups > 0 {
        shared.stats.record_mux_batch(report.streams, report.groups);
    }
    // One readout per staged push, in order: zipped here, once.
    let mut readouts = tsdx_core::readout_staged(extractor.model(), &mut refs).into_iter();
    let staged = staged.into_iter().map(|s| s.map(|groups_new| (groups_new, readouts.next())));

    let replies = jobs
        .iter()
        .zip(&guards)
        .zip(staged)
        .map(|((j, g), staged)| {
            let (groups_new, readout) = staged?;
            // A session short of its first full window has no scenario yet;
            // that is its readout's only error.
            let scenario =
                readout.filter(|_| g.ready()).transpose().map_err(|e| refused(shared, e))?;
            Ok(StreamAnswer {
                session: j.work.entry.id(),
                groups_new,
                frames_seen: g.frames_seen(),
                ready: g.ready(),
                scenario,
                plane: Precision::F32,
                queued_us: j.queued_us(drained),
                mux_streams: report.streams,
                mux_groups: report.groups,
            })
        })
        .collect();
    (replies, report.groups)
}

/// The reply for a readout that found no answer, counting the forwards that
/// overflowed.
fn refused(shared: &Shared, e: ExtractError) -> ServeError {
    if e == ExtractError::NonFiniteOutput {
        ServeStats::inc(&shared.stats.non_finite_outputs);
    }
    e.into()
}

/// Best-effort text of a panic payload.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sessions::{SessionConfig, SessionManager};
    use proptest::{fnv, TestRng};
    use std::collections::{BTreeMap, BTreeSet};
    use tsdx_core::ModelConfig;

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
            dropout: 0.0,
            ..ModelConfig::default()
        }
    }

    fn tiny_extractor() -> Arc<ScenarioExtractor> {
        Arc::new(ScenarioExtractor::untrained(tiny_cfg(), 0))
    }

    fn video(seed: f32) -> Tensor {
        Tensor::from_fn(&[4, 16, 16], |i| ((i as f32 + seed) * 0.01).sin())
    }

    const WAIT: Duration = Duration::from_secs(30);

    /// A batcher with no worker thread: what is submitted stays queued until
    /// the test runs a step, a round or the driver itself on its own thread.
    fn idle_batcher(cfg: BatchConfig, stats: &Arc<ServeStats>) -> Batcher {
        let q = Mutex::new(Queue { items: VecDeque::new(), draining: false });
        let shared = Arc::new(Shared { q, cv: Condvar::new(), cfg, stats: Arc::clone(stats) });
        Batcher { shared, worker: Mutex::new(None) }
    }

    /// Stops admission and runs the driver on this thread until it has
    /// answered everything queued and returned.
    fn drive_to_end(b: &Batcher, ex: &ScenarioExtractor) {
        b.drain();
        worker_loop(&b.shared, ex);
    }

    fn clip_job(enqueued: Instant, deadline: Option<Instant>, budget_ms: u64) -> Job {
        let video = video(budget_ms as f32);
        Job { enqueued, deadline, budget_ms, work: Clip { video, reply: mpsc::channel().0 }.into() }
    }

    fn push_job(
        entry: &Arc<SessionEntry>,
        chunk: Tensor,
        enqueued: Instant,
        deadline: Option<Instant>,
        budget_ms: u64,
    ) -> (Job, Receiver<StreamResult>) {
        let (reply, rx) = mpsc::channel();
        let work = Stream { entry: Arc::clone(entry), chunk, reply }.into();
        (Job { enqueued, deadline, budget_ms, work }, rx)
    }

    fn session_of(job: &Job) -> Option<u64> {
        match &job.work {
            Work::Clip(_) => None,
            Work::Stream(s) => Some(s.entry.id()),
        }
    }

    /// Each job's `budget_ms`, which these tests use as its name.
    fn tags<W>(jobs: &[Job<W>]) -> Vec<u64> {
        jobs.iter().map(|j| j.budget_ms).collect()
    }

    #[test]
    fn six_queued_clips_are_one_round_of_six() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let b = idle_batcher(BatchConfig::default(), &stats);
        let rxs: Vec<_> = (0..6).map(|i| b.submit(video(i as f32), None, 0).unwrap()).collect();
        assert_eq!(b.depth(), 6);
        drive_to_end(&b, &ex);
        for (i, rx) in rxs.into_iter().enumerate() {
            let out = rx.recv_timeout(WAIT).unwrap().unwrap();
            assert_eq!(out.batch_size, 6);
            assert_eq!(out.scenario, ex.extract_checked(&video(i as f32)).unwrap());
        }
        assert_eq!(ServeStats::get(&stats.batches), 1);
        assert_eq!(ServeStats::get(&stats.batched_clips), 6);
        assert_eq!(ServeStats::get(&stats.completed), 6);
    }

    #[test]
    fn the_driver_stamps_queued_us_at_each_rounds_drain() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let b = idle_batcher(BatchConfig { queue_capacity: 64, max_batch: 16 }, &stats);
        // Each clip's admission instant is at or before its `enqueued`.
        let (admitted, rxs): (Vec<_>, Vec<_>) =
            (0..32).map(|i| (Instant::now(), b.submit(video(i as f32), None, 0).unwrap())).unzip();
        drive_to_end(&b, &ex);
        let end = Instant::now();
        let forwards = stats.worker_metrics().hists["stage/serve_batch"].clone();
        assert_eq!(forwards.count, 2, "two rounds of 16");
        // Each forward took at least the lower edge of the lowest bucket hit.
        let bucket = forwards.buckets.iter().position(|&c| c > 0).unwrap();
        let forward = Duration::from_nanos(1 << bucket);
        let queued: Vec<u64> =
            rxs.into_iter().map(|rx| rx.recv_timeout(WAIT).unwrap().unwrap().queued_us).collect();
        // The second round's clips waited out the first round's forward, and
        // no clip's wait holds its own forward: admission, wait and forward
        // fit before `end` (a stamp taken after the forward would not).
        for &q in &queued[16..] {
            assert!(Duration::from_micros(q + 1) > forward, "{q} µs, {forward:?}");
        }
        for (t, q) in admitted.into_iter().zip(queued) {
            assert!(t + Duration::from_micros(q) + forward <= end, "{q} µs + {forward:?}");
        }
    }

    #[test]
    fn a_full_queue_sheds_typed_429_and_the_drain_answers_the_rest() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let b = idle_batcher(BatchConfig { queue_capacity: 2, max_batch: 1 }, &stats);
        let (kept, shed): (Vec<_>, Vec<_>) =
            (0..50).map(|i| b.submit(video(i as f32), None, 0)).partition(Result::is_ok);
        assert_eq!((kept.len(), shed.len()), (2, 48));
        for e in shed {
            let e = e.unwrap_err();
            assert!(matches!(e, ServeError::QueueFull { capacity: 2 }), "{e:?}");
        }
        assert_eq!(ServeStats::get(&stats.shed_queue_full), 48);
        assert_eq!(ServeStats::get(&stats.accepted), 2);
        drive_to_end(&b, &ex);
        for rx in kept {
            assert_eq!(rx.unwrap().recv_timeout(WAIT).unwrap().unwrap().batch_size, 1);
        }
        assert_eq!(ServeStats::get(&stats.batches), 2, "max_batch 1: one round per clip");
        assert!(matches!(b.submit(video(0.0), None, 0), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn drain_answers_everything_and_rejects_new_work() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let b = Batcher::start(Arc::clone(&ex), BatchConfig::default(), Arc::clone(&stats));
        let rxs: Vec<_> = (0..5).map(|i| b.submit(video(i as f32), None, 0).unwrap()).collect();
        b.drain();
        for rx in rxs {
            assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().is_ok());
        }
        assert!(matches!(b.submit(video(0.0), None, 0), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn a_second_push_of_a_session_ends_the_drain_and_stays_at_the_head() {
        let stats = Arc::new(ServeStats::default());
        let sessions = SessionManager::new(SessionConfig::default(), Arc::clone(&stats));
        let (a, b) = (sessions.create(tiny_cfg()).unwrap(), sessions.create(tiny_cfg()).unwrap());
        let t = Instant::now();
        let push =
            |e: &Arc<SessionEntry>, tag| push_job(e, Tensor::zeros(&[2, 16, 16]), t, None, tag).0;
        // a1 c2 b3 a4 c5 b6: a's second push (4) ends the first round.
        let (c2, c5) = (clip_job(t, None, 2), clip_job(t, None, 5));
        let mut q = VecDeque::from([push(&a, 1), c2, push(&b, 3), push(&a, 4), c5, push(&b, 6)]);
        assert_eq!(tags(&drain_round(&mut q, 8)), [1, 2, 3]);
        assert_eq!(q.front().map(|j| j.budget_ms), Some(4), "the held push stays at the head");
        assert_eq!(tags(&drain_round(&mut q, 8)), [4, 5, 6]);
        assert!(q.is_empty());
        // `max_batch` caps a round of clips; the rest wait in order.
        let mut q: VecDeque<Job> = (0..5).map(|i| clip_job(t, None, i)).collect();
        assert_eq!(tags(&drain_round(&mut q, 3)), [0, 1, 2]);
        assert_eq!(tags(&drain_round(&mut q, 3)), [3, 4]);
    }

    #[test]
    fn the_gate_sheds_exactly_the_jobs_the_round_estimate_cannot_meet() {
        let stats = Arc::new(ServeStats::default());
        let sessions = SessionManager::new(SessionConfig::default(), Arc::clone(&stats));
        let entry = sessions.create(tiny_cfg()).unwrap();
        let now = Instant::now();
        let at = |us: i64| {
            let d = Duration::from_micros(us.unsigned_abs());
            Some(if us < 0 { now - d } else { now + d })
        };
        // With tubelet_t 2 a 3-frame push costs 2 groups + 1 readout.
        let est = Estimates { clip_us: 100, group_us: 10 };
        type Row = (Estimates, &'static [(bool, Option<i64>)], &'static [u64]);
        let rows: &[Row] = &[
            // Cold start: only deadlines already past are late.
            (Estimates::default(), &[(false, Some(-1)), (false, Some(0)), (true, None)], &[0]),
            // One clip (100) + one push (30) = 130 µs.
            (est, &[(false, Some(130)), (true, Some(129))], &[1]),
            (est, &[(false, Some(129)), (true, Some(130))], &[0]),
            (est, &[(false, None), (true, Some(131))], &[]),
            // Two clips + two pushes: 260 µs; every job sees the same round.
            (
                est,
                &[(false, Some(259)), (true, None), (false, Some(260)), (true, Some(0))],
                &[0, 3],
            ),
        ];
        let job = |i: usize, &(push, deadline): &(bool, Option<i64>)| {
            let (deadline, tag) = (deadline.and_then(at), i as u64);
            let chunk = Tensor::zeros(&[3, 1, 1]);
            if push {
                push_job(&entry, chunk, now, deadline, tag).0
            } else {
                clip_job(now, deadline, tag)
            }
        };
        for (row, &(est, jobs, late)) in rows.iter().enumerate() {
            let jobs: Vec<Job> = jobs.iter().enumerate().map(|(i, j)| job(i, j)).collect();
            let kinds: Vec<bool> = jobs.iter().map(|j| session_of(j).is_some()).collect();
            let (clips, streams, gated_late) = gate(jobs, now, &est, 2);
            assert_eq!(tags(&gated_late), late, "row {row}");
            let planned = |push: bool| -> Vec<u64> {
                (0..kinds.len() as u64)
                    .filter(|i| kinds[*i as usize] == push && !late.contains(i))
                    .collect()
            };
            assert_eq!(tags(&clips), planned(false), "row {row}");
            assert_eq!(tags(&streams), planned(true), "row {row}");
        }
    }

    #[test]
    fn the_estimates_fold_each_forward_as_a_3_to_1_ewma() {
        // (elapsed µs, units, estimate after), each row from the one above.
        let rows: &[(u64, usize, u64)] = &[
            (1_000, 0, 0),                         // no units: nothing learned
            (1_000, 4, 250),                       // first sample taken as is
            (2_000, 4, 312),                       // (3 * 250 + 500) / 4
            (312, 1, 312),                         // a steady cost stays put
            (0, 1, 234),                           // (3 * 312 + 0) / 4
            (5, 2, 176),                           // (3 * 234 + 2) / 4
            (0, 1, 132),                           // (3 * 176 + 0) / 4
            (u64::MAX / 8, 1, u64::MAX / 32 + 99), // a huge sample does not overflow
        ];
        let mut est = 0;
        for (i, &(elapsed_us, units, want)) in rows.iter().enumerate() {
            Estimates::observe(&mut est, elapsed_us, units);
            assert_eq!(est, want, "row {i}");
        }
        // A first sample of 0 µs per unit is floored at 1, and so is the
        // EWMA after it.
        for (elapsed_us, units) in [(3, 4), (0, 1), (0, 7)] {
            let mut est = 0;
            Estimates::observe(&mut est, elapsed_us, units);
            assert_eq!(est, 1);
            Estimates::observe(&mut est, 0, 1);
            assert_eq!(est, 1);
        }
    }

    #[test]
    fn late_jobs_answer_503_before_any_forward() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let b = idle_batcher(BatchConfig::default(), &stats);
        let now = Instant::now();
        let mut est = Estimates::default();
        // A deadline already past is unmakeable even with no cost estimate;
        // a round of late jobs only runs no forward.
        let past = now - Duration::from_millis(5);
        let late = b.submit(video(1.0), Some(past), 5).unwrap();
        run_round(&b.shared, &ex, &mut est, drain_round(&mut lock(&b.shared.q).items, 8), now);
        let out = late.recv_timeout(WAIT).unwrap();
        assert!(matches!(out, Err(ServeError::DeadlineExceeded { budget_ms: 5 })), "{out:?}");
        assert_eq!(
            (ServeStats::get(&stats.shed_deadline), ServeStats::get(&stats.batches)),
            (1, 0)
        );
        assert_eq!(est, Estimates::default(), "no forward, nothing learned");
        // A late job and a generous one: only the generous one is extracted.
        let late = b.submit(video(1.0), Some(past), 5).unwrap();
        let kept = b.submit(video(2.0), Some(now + Duration::from_secs(60)), 60_000).unwrap();
        run_round(&b.shared, &ex, &mut est, drain_round(&mut lock(&b.shared.q).items, 8), now);
        assert!(matches!(
            late.recv_timeout(WAIT).unwrap(),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        let out = kept.recv_timeout(WAIT).unwrap().unwrap();
        assert_eq!((out.batch_size, out.scenario), (1, ex.extract_checked(&video(2.0)).unwrap()));
        assert_eq!(
            (ServeStats::get(&stats.shed_deadline), ServeStats::get(&stats.batches)),
            (2, 1)
        );
        assert!(est.clip_us > 0 && est.group_us == 0, "{est:?}");
    }

    #[test]
    fn a_panicking_encode_round_answers_500_and_the_next_round_is_served() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let sessions = SessionManager::new(SessionConfig::default(), Arc::clone(&stats));
        let b = idle_batcher(BatchConfig::default(), &stats);
        let mut est = Estimates::default();

        // A session that cuts 4-pixel patches the extractor's 8-pixel
        // embedding cannot multiply: the round's one encode forward panics.
        let entry = sessions.create(ModelConfig { patch: 4, ..tiny_cfg() }).unwrap();
        let half = Tensor::from_fn(&[2, 16, 16], |i| (i as f32 * 0.01).sin());
        let (job, rx) = push_job(&entry, half, Instant::now(), None, 0);
        run_round(&b.shared, &ex, &mut est, vec![job], Instant::now());
        let e = rx.recv_timeout(WAIT).unwrap().unwrap_err();
        assert!(matches!(e, ServeError::Internal { .. }), "{e:?}");
        assert_eq!(ServeStats::get(&stats.panics_caught), 1);
        assert_eq!(est, Estimates::default(), "a panicked forward teaches the gate nothing");

        // The next round is served, with the answer a direct extraction gives.
        let lone = b.submit(video(5.0), None, 0).unwrap();
        drive_to_end(&b, &ex);
        let out = lone.recv_timeout(WAIT).unwrap().unwrap();
        assert_eq!(out.scenario, ex.extract_checked(&video(5.0)).unwrap());
    }

    #[test]
    fn stream_pushes_flow_through_the_mixed_queue() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let sessions = SessionManager::new(SessionConfig::default(), Arc::clone(&stats));
        let b = Batcher::start(Arc::clone(&ex), BatchConfig::default(), Arc::clone(&stats));
        let entry = sessions.create(tiny_cfg()).unwrap();

        // Half a window first: staged + encoded, not ready.
        let half = Tensor::from_fn(&[2, 16, 16], |i| (i as f32 * 0.01).sin());
        let rx = b.submit_stream(Arc::clone(&entry), half.clone(), None, 0).unwrap();
        let a = rx.recv_timeout(WAIT).unwrap().unwrap();
        assert_eq!(a.groups_new, 1);
        assert_eq!(a.frames_seen, 2);
        assert!(!a.ready);
        assert!(a.scenario.is_none());

        // Second half: ready, scenario matches an independent session.
        let rest = Tensor::from_fn(&[2, 16, 16], |i| ((i + 512) as f32 * 0.01).sin());
        let rx = b.submit_stream(Arc::clone(&entry), rest.clone(), None, 0).unwrap();
        let a = rx.recv_timeout(WAIT).unwrap().unwrap();
        assert!(a.ready);
        let mut solo = ex.open_stream();
        solo.push_frames(&half).unwrap();
        solo.push_frames(&rest).unwrap();
        assert_eq!(a.scenario.unwrap(), solo.describe().unwrap());
        assert_eq!(ServeStats::get(&stats.stream_pushes), 2);
        assert_eq!(ServeStats::get(&stats.mux_batches), 2, "one group encode per push");

        // A bad chunk is a typed error and leaves the session intact.
        let rx = b.submit_stream(Arc::clone(&entry), Tensor::zeros(&[1, 8, 8]), None, 0).unwrap();
        let e = rx.recv_timeout(WAIT).unwrap().unwrap_err();
        assert!(matches!(e, ServeError::InvalidInput(_)), "{e:?}");
        let rx = b.submit_stream(Arc::clone(&entry), Tensor::zeros(&[0, 16, 16]), None, 0).unwrap();
        let a = rx.recv_timeout(WAIT).unwrap().unwrap();
        assert_eq!(a.frames_seen, 4, "failed pushes must not consume frames");

        // Closing the session mid-queue answers 404, not a write.
        sessions.close(entry.id()).unwrap();
        let rx = b.submit_stream(Arc::clone(&entry), half, None, 0).unwrap();
        let e = rx.recv_timeout(WAIT).unwrap().unwrap_err();
        assert!(matches!(e, ServeError::UnknownSession { .. }), "{e:?}");
        b.drain();
    }

    #[test]
    fn four_sessions_pushes_form_one_round() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let sessions = SessionManager::new(SessionConfig::default(), Arc::clone(&stats));
        let b = idle_batcher(BatchConfig { max_batch: 16, ..BatchConfig::default() }, &stats);
        let entries: Vec<_> = (0..4).map(|_| sessions.create(tiny_cfg()).unwrap()).collect();
        let window =
            |s: usize| Tensor::from_fn(&[4, 16, 16], |i| ((i + s * 777) as f32 * 0.013).sin());
        let rxs: Vec<_> = entries
            .iter()
            .enumerate()
            .map(|(s, e)| b.submit_stream(Arc::clone(e), window(s), None, 0).unwrap())
            .collect();
        drive_to_end(&b, &ex);
        for (s, rx) in rxs.into_iter().enumerate() {
            let a = rx.recv_timeout(WAIT).unwrap().unwrap();
            assert!(a.ready);
            assert_eq!((a.mux_streams, a.mux_groups), (4, 8), "one round served all four");
            let mut solo = ex.open_stream();
            solo.push_frames(&window(s)).unwrap();
            assert_eq!(a.scenario.unwrap(), solo.describe().unwrap(), "mux parity for stream {s}");
        }
        assert_eq!((ServeStats::get(&stats.batches), ServeStats::get(&stats.mux_batches)), (1, 1));
    }

    #[test]
    fn a_round_of_three_pushes_is_two_forwards_with_queued_us_stamped_at_drain() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let sessions = SessionManager::new(SessionConfig::default(), Arc::clone(&stats));
        let b = idle_batcher(BatchConfig::default(), &stats);
        let window =
            |s: usize| Tensor::from_fn(&[4, 16, 16], |i| ((i + s * 555) as f32 * 0.017).sin());
        let enqueued = Instant::now();
        let (jobs, rxs): (Vec<_>, Vec<_>) = (0..3)
            .map(|s| push_job(&sessions.create(tiny_cfg()).unwrap(), window(s), enqueued, None, 0))
            .unzip();
        // The round is drained 7 ms after admission and its forwards take
        // what they take: every push's queue wait is the 7 ms.
        let drained = enqueued + Duration::from_millis(7);
        let scope = metrics::stage_scope();
        run_round(&b.shared, &ex, &mut Estimates::default(), jobs, drained);
        let snap = scope.snapshot();
        for (s, rx) in rxs.into_iter().enumerate() {
            let a = rx.recv_timeout(WAIT).unwrap().unwrap();
            assert_eq!(a.queued_us, 7_000);
            assert_eq!((a.mux_streams, a.mux_groups), (3, 6), "one round served all three");
            let mut solo = ex.open_stream();
            solo.push_frames(&window(s)).unwrap();
            assert_eq!(a.scenario.unwrap(), solo.describe().unwrap(), "stream {s}");
        }
        // One encode of six groups, one readout of three windows.
        let records = |key: &str| snap.hists.get(key).map_or(0, |h| h.count);
        assert_eq!(records("stage/mux_encode"), 1);
        assert_eq!(records("stage/stream_infer"), 1);
        assert_eq!(snap.counter("stage/cache_miss"), 6);
    }

    /// What a schedule has admitted and what has left the queue, by tag,
    /// plus counts that show the schedules reach every branch of the policy.
    #[derive(Default)]
    struct Ledger {
        admitted: BTreeMap<u64, Option<u64>>,
        left: BTreeSet<u64>,
        /// The last tag each session's pushes left with.
        last: BTreeMap<u64, u64>,
        shed: u64,
        late: usize,
        kept: usize,
        held: usize,
    }

    impl Ledger {
        /// One admission attempt at queue depth `depth`: refused iff full.
        fn admission(
            &mut self,
            tag: u64,
            session: Option<u64>,
            outcome: Result<Receiver<impl Sized>, ServeError>,
            depth: usize,
            capacity: usize,
        ) {
            match outcome {
                Ok(_) => {
                    assert!(depth < capacity);
                    self.admitted.insert(tag, session);
                }
                Err(e) => {
                    assert!(depth == capacity, "{e:?} at depth {depth} of {capacity}");
                    assert!(matches!(e, ServeError::QueueFull { .. }), "{e:?}");
                    self.shed += 1;
                }
            }
        }
    }

    /// One round of a simulated schedule, `drain_round` then `gate`, checked
    /// against the invariants. Returns how many jobs the round took.
    fn simulated_round(
        b: &Batcher,
        now: Instant,
        est: &Estimates,
        tubelet_t: usize,
        ledger: &mut Ledger,
    ) -> usize {
        let max_batch = b.shared.cfg.max_batch;
        let (jobs, head) = {
            let mut q = lock(&b.shared.q);
            let before = tags(q.items.make_contiguous());
            let jobs = drain_round(&mut q.items, max_batch);
            assert_eq!(tags(&jobs), before[..jobs.len()], "a round is the queue's head, in order");
            (jobs, q.items.front().map(session_of))
        };
        // At most `max_batch` jobs and one push per session.
        let sessions: Vec<u64> = jobs.iter().filter_map(session_of).collect();
        assert!(jobs.len() <= max_batch);
        assert_eq!(sessions.iter().collect::<BTreeSet<_>>().len(), sessions.len(), "{sessions:?}");
        if jobs.len() < max_batch {
            // Only an empty queue or a held push stops a drain short.
            assert!(head.is_none_or(|h| h.is_some_and(|id| sessions.contains(&id))), "{head:?}");
            ledger.held += usize::from(head.is_some());
        }
        // Every job leaves once, and a session's pushes leave in order.
        for job in &jobs {
            assert_eq!(ledger.admitted.get(&job.budget_ms).copied(), Some(session_of(job)));
            assert!(ledger.left.insert(job.budget_ms), "job {} left twice", job.budget_ms);
            if let Some(id) = session_of(job) {
                let last = ledger.last.insert(id, job.budget_ms);
                assert!(last < Some(job.budget_ms), "session {id} out of order");
            }
        }
        // Late iff the deadline is before `now` plus the round's cost, summed
        // here from the jobs.
        let cost: u64 = jobs
            .iter()
            .map(|j| match &j.work {
                Work::Clip(_) => est.clip_us,
                Work::Stream(s) => {
                    est.group_us * (s.chunk.shape()[0].div_ceil(tubelet_t) as u64 + 1)
                }
            })
            .sum();
        let finish_by = now + Duration::from_micros(cost);
        let (want_late, want_kept): (Vec<_>, Vec<_>) =
            jobs.iter().partition(|j| j.deadline.is_some_and(|d| d < finish_by));
        let (want_late, want_kept) = (tags_of(&want_late), tags_of(&want_kept));
        let n = jobs.len();
        let (clips, streams, late) = gate(jobs, now, est, tubelet_t);
        assert_eq!(tags(&late), want_late);
        let mut kept = [tags(&clips), tags(&streams)].concat();
        kept.sort_unstable();
        assert_eq!(kept, want_kept);
        ledger.late += late.len();
        ledger.kept += kept.len();
        n
    }

    fn tags_of(jobs: &[&Job]) -> Vec<u64> {
        jobs.iter().map(|j| j.budget_ms).collect()
    }

    /// A seeded schedule simulator, no threads and no sleeps: per seed, a
    /// batcher without a worker takes random clips and pushes over a few
    /// sessions through the real admission path, with deadlines before and
    /// after the round, estimates that move, sessions that close, rounds at
    /// random points of a virtual clock and a final drain. Every round is
    /// checked by `simulated_round`; every job leaves the queue exactly once.
    #[test]
    fn seeded_schedules_keep_every_round_invariant() {
        let mut reached = (0, 0, 0);
        for seed in 0..300 {
            let mut rng = TestRng::deterministic(fnv("batcher schedules"), seed);
            let stats = Arc::new(ServeStats::default());
            let sessions = SessionManager::new(SessionConfig::default(), Arc::clone(&stats));
            let capacity = 1 + rng.index(12);
            let b = idle_batcher(
                BatchConfig { queue_capacity: capacity, max_batch: 1 + rng.index(6) },
                &stats,
            );
            let tubelet_t = 1 + rng.index(3);
            let mut open: Vec<_> =
                (0..1 + rng.index(4)).map(|_| sessions.create(tiny_cfg()).unwrap()).collect();
            let (t0, mut clock) = (Instant::now(), Duration::ZERO);
            let (mut est, mut ledger) = (Estimates::default(), Ledger::default());
            for tag in 0..120u64 {
                clock += Duration::from_micros(rng.index(300) as u64);
                let now = t0 + clock;
                // No deadline, or one from 0.5 ms ago to 1.5 ms ahead.
                let ahead = Duration::from_micros(rng.index(2_000) as u64);
                let deadline = (rng.index(3) > 0).then(|| now + ahead - Duration::from_micros(500));
                let depth = b.depth();
                match rng.index(20) {
                    0..=5 => {
                        let outcome = b.submit(Tensor::zeros(&[1, 1, 1]), deadline, tag);
                        ledger.admission(tag, None, outcome, depth, capacity);
                    }
                    6..=12 if !open.is_empty() => {
                        let entry = &open[rng.index(open.len())];
                        let chunk = Tensor::zeros(&[rng.index(6), 1, 1]);
                        let outcome = b.submit_stream(Arc::clone(entry), chunk, deadline, tag);
                        ledger.admission(tag, Some(entry.id()), outcome, depth, capacity);
                    }
                    13 if !open.is_empty() => {
                        sessions.close(open.swap_remove(rng.index(open.len())).id()).unwrap();
                    }
                    14 => {
                        let (clip_us, group_us) = (rng.index(3_000), rng.index(500));
                        Estimates::observe(&mut est.clip_us, clip_us as u64, 1 + rng.index(8));
                        Estimates::observe(&mut est.group_us, group_us as u64, 1 + rng.index(8));
                    }
                    15 => est = Estimates::default(),
                    _ => drop(simulated_round(&b, now, &est, tubelet_t, &mut ledger)),
                }
            }
            // The final drain: admission stops, and rounds empty the queue.
            b.drain();
            let refused = b.submit(Tensor::zeros(&[1, 1, 1]), None, 0);
            assert!(matches!(refused, Err(ServeError::ShuttingDown)));
            for _ in 0..=ledger.admitted.len() {
                if b.depth() == 0 {
                    break;
                }
                assert!(simulated_round(&b, t0 + clock, &est, tubelet_t, &mut ledger) > 0);
            }
            assert_eq!(b.depth(), 0, "seed {seed}: the drain left jobs queued");
            assert_eq!(ledger.left, ledger.admitted.keys().copied().collect(), "seed {seed}");
            assert_eq!(ServeStats::get(&stats.accepted), ledger.admitted.len() as u64);
            assert_eq!(ServeStats::get(&stats.shed_queue_full), ledger.shed);
            reached = (reached.0 + ledger.late, reached.1 + ledger.kept, reached.2 + ledger.held);
        }
        // The schedules shed late jobs, kept others and held pushes back.
        assert!(reached.0 > 0 && reached.1 > 0 && reached.2 > 0, "{reached:?}");
    }
}
