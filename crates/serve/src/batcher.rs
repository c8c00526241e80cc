//! The dynamic micro-batching queue between connection handlers and the
//! model.
//!
//! Concurrent requests land in one bounded **mixed** queue; a single worker
//! thread drains up to `max_batch` of them at a time. Every request is one
//! `Job` envelope — arrival time, deadline, budget — around its work, so
//! admission, the deadline gate, panic containment and drain are written
//! once; only the forwards differ by kind:
//!
//! * **One-shot clips** (`POST /v1/extract`): coalesced into one batched
//!   encoder forward ([`ScenarioExtractor::extract_window_batch`]).
//! * **Stream chunk pushes** (`POST /sessions/<id>/frames`): each chunk is
//!   staged into its session's [`tsdx_core::StreamState`], then every newly completed
//!   time group across *all* streams in the round is encoded in **one**
//!   cross-stream [`tsdx_core::encode_staged`] forward, and every ready
//!   window is then read out in **one** [`tsdx_core::readout_staged`]
//!   forward — N concurrent streams pay two forwards per round, whatever
//!   N is (bit-identical per stream, by the row independence of both
//!   stages).
//!
//! The robustness rules:
//!
//! * **Bounded admission.** [`Batcher::submit`] / [`Batcher::submit_stream`]
//!   shed with a typed [`ServeError::QueueFull`] the moment the queue is at
//!   capacity — the server never accepts work it has no room for.
//! * **Deadline budget propagation.** Each entry carries its deadline into
//!   the worker; before a forward, entries that cannot finish within an
//!   EWMA-estimated cost (per clip for one-shots, per group for streams)
//!   are answered [`ServeError::DeadlineExceeded`] instead of wasting model
//!   time.
//! * **Panic containment.** Every forward runs under `catch_unwind`; a panic
//!   answers the affected jobs with a typed 500 and the worker keeps
//!   serving. A panic inside the group encode leaves staged groups staged —
//!   the next push simply re-encodes them — and one inside the batched
//!   readout leaves every window memo unwritten, so the next push re-reads.
//! * **Drain, never drop.** [`Batcher::drain`] stops admission, then the
//!   worker answers everything still queued — clip or stream — before
//!   exiting.
//! * **FIFO per session.** At most one push per session joins a round, and
//!   queue order is preserved, so replies report exactly the groups that
//!   push completed.
//!
//! Woken by a job, the worker yields the CPU once before it forms the
//! round: on one core a connection thread that is already runnable (the
//! other stream's push) then enqueues first, and two streams share one
//! round instead of paying two. The trade: a round can wait out another
//! runnable thread's time slice (a `/search` scan) that used to wait for
//! it. DESIGN §6.10 has the measurements.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tsdx_core::ScenarioExtractor;
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
    /// EWMA of per-clip forward cost in µs (0 = no estimate yet).
    est_clip_us: AtomicU64,
    /// EWMA of per-group stream-encode cost in µs (0 = no estimate yet).
    est_group_us: AtomicU64,
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
        let shared = Arc::new(Shared {
            q: Mutex::new(Queue { items: VecDeque::new(), draining: false }),
            cv: Condvar::new(),
            cfg,
            stats,
            est_clip_us: AtomicU64::new(0),
            est_group_us: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
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

fn worker_loop(shared: &Shared, extractor: &ScenarioExtractor) {
    // Every batch's stage histograms and stage counters record into this
    // scope — what /stats serves, and nothing op-level — and a snapshot is
    // published after each batch.
    let scope = metrics::stage_scope();
    loop {
        let batch = {
            let mut q = lock(&shared.q);
            while q.items.is_empty() && !q.draining {
                q = shared.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            // Let an already-runnable push join this round (module doc).
            drop(q);
            std::thread::yield_now();
            let mut q = lock(&shared.q);
            if q.items.is_empty() {
                break; // draining and nothing left
            }
            // Take up to max_batch jobs, but at most one push per session:
            // a second push for a session already in the round stops the
            // drain there (FIFO preserved), so each reply reports exactly
            // its own push's groups.
            let mut batch: Vec<Job> = Vec::new();
            let mut in_round: HashSet<u64> = HashSet::new();
            while batch.len() < shared.cfg.max_batch {
                let Some(job) = q.items.pop_front() else { break };
                match &job.work {
                    Work::Stream(s) if !in_round.insert(s.entry.id()) => {
                        q.items.push_front(job);
                        break;
                    }
                    _ => batch.push(job),
                }
            }
            shared.stats.queue_depth.store(q.items.len() as u64, Ordering::Relaxed);
            batch
        };
        run_round(shared, extractor, batch, Instant::now());
        shared.stats.publish_worker_metrics(scope.snapshot());
    }
    shared.stats.publish_worker_metrics(scope.snapshot());
}

/// One drain round: deadline-gate every job, then at most three forwards —
/// one batched clip extraction, one cross-stream group encode and one
/// cross-stream window readout. `drained` is when the worker took the jobs
/// off the queue: the end of every job's queue wait.
fn run_round(shared: &Shared, extractor: &ScenarioExtractor, batch: Vec<Job>, drained: Instant) {
    // Deadline gate: answer entries that cannot make it instead of
    // spending a forward on them. The round's cost estimate is the clip
    // forward plus the stream groups this round will encode; with no
    // estimate yet (cold start) only already-expired deadlines are shed.
    let tubelet_t = extractor.model().config().tubelet_t.max(1);
    let est_us: u64 = batch
        .iter()
        .map(|job| match &job.work {
            Work::Clip(_) => shared.est_clip_us.load(Ordering::Relaxed),
            Work::Stream(s) => {
                let frames = s.chunk.shape().first().copied().unwrap_or(0);
                // +1 ≈ the window readout
                let groups = (frames.div_ceil(tubelet_t) + 1) as u64;
                shared.est_group_us.load(Ordering::Relaxed).saturating_mul(groups)
            }
        })
        .fold(0, u64::saturating_add);
    let finish_by = Instant::now() + Duration::from_micros(est_us);
    let mut clips: Vec<Job<Clip>> = Vec::new();
    let mut streams: Vec<Job<Stream>> = Vec::new();
    for job in batch {
        if job.deadline.is_some_and(|d| finish_by > d) {
            ServeStats::inc(&shared.stats.shed_deadline);
            let budget_ms = job.budget_ms;
            job.fail(ServeError::DeadlineExceeded { budget_ms });
            continue;
        }
        let Job { enqueued, deadline, budget_ms, work } = job;
        match work {
            Work::Clip(work) => clips.push(Job { enqueued, deadline, budget_ms, work }),
            Work::Stream(work) => streams.push(Job { enqueued, deadline, budget_ms, work }),
        }
    }
    if clips.is_empty() && streams.is_empty() {
        return;
    }

    ServeStats::inc(&shared.stats.batches);
    run_clips(shared, extractor, clips, drained);
    run_streams(shared, extractor, streams, drained);
}

/// One forward of a round: runs `forward` over `jobs` under `catch_unwind`
/// and times it. A completed forward returns the jobs with its output and
/// feeds its cost per `units` (3:1 old:new EWMA in `estimate_us`) to the
/// next deadline gate; a panic anywhere in it answers every job a typed 500
/// and leaves the worker serving.
fn guarded<W: Into<Work>, T>(
    shared: &Shared,
    jobs: Vec<Job<W>>,
    estimate_us: &AtomicU64,
    forward: impl FnOnce(&[Job<W>]) -> (T, usize),
) -> Option<(Vec<Job<W>>, T)> {
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| forward(&jobs)));
    let elapsed = t0.elapsed();
    match outcome {
        Ok((out, units)) => {
            if units > 0 {
                let per_unit = (elapsed.as_micros() as u64) / units as u64;
                let old = estimate_us.load(Ordering::Relaxed);
                let next = if old == 0 { per_unit } else { (3 * old + per_unit) / 4 };
                estimate_us.store(next.max(1), Ordering::Relaxed);
            }
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
    live: Vec<Job<Clip>>,
    drained: Instant,
) {
    if live.is_empty() {
        return;
    }
    let size = live.len();
    let served = guarded(shared, live, &shared.est_clip_us, |live| {
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
            // Validation normally happens at admission; this arm only fires
            // if a caller submitted unvalidated input.
            Err(e) => Err(ServeError::InvalidInput(e)),
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
    let served = guarded(shared, live, &shared.est_group_us, |live| {
        stream_round(shared, extractor, live, drained)
    });
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
            let scenario = readout.filter(|_| g.ready()).transpose()?;
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

    #[test]
    fn coalesces_concurrent_submissions_into_one_forward() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let b = Batcher::start(Arc::clone(&ex), BatchConfig::default(), Arc::clone(&stats));
        let rxs: Vec<_> = (0..6).map(|i| b.submit(video(i as f32), None, 0).unwrap()).collect();
        let mut sizes = Vec::new();
        for (i, rx) in rxs.into_iter().enumerate() {
            let out = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
            assert_eq!(out.scenario, ex.extract_checked(&video(i as f32)).unwrap());
            sizes.push(out.batch_size);
        }
        // At least one batch carried more than one clip (the first may run
        // alone if the worker won the race to the queue).
        assert!(
            ServeStats::get(&stats.batches) < 6 || sizes.iter().any(|&s| s > 1),
            "batches={} sizes={sizes:?}",
            ServeStats::get(&stats.batches)
        );
        assert_eq!(ServeStats::get(&stats.completed), 6);
        b.drain();
    }

    #[test]
    fn queue_capacity_sheds_typed_429() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        // Stall the worker with a first entry whose forward takes real time,
        // then fill the queue behind it.
        let b = Batcher::start(
            Arc::clone(&ex),
            BatchConfig { queue_capacity: 2, max_batch: 1 },
            Arc::clone(&stats),
        );
        let mut kept = Vec::new();
        let mut shed = 0;
        for i in 0..50 {
            match b.submit(video(i as f32), None, 0) {
                Ok(rx) => kept.push(rx),
                Err(e) => {
                    assert!(matches!(e, ServeError::QueueFull { capacity: 2 }), "{e:?}");
                    shed += 1;
                }
            }
        }
        assert!(shed > 0, "50 rapid submits into a 2-slot queue must shed");
        // Every accepted request still gets answered.
        for rx in kept {
            assert!(rx.recv_timeout(Duration::from_secs(30)).unwrap().is_ok());
        }
        assert_eq!(ServeStats::get(&stats.shed_queue_full), shed);
        b.drain();
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
    fn expired_deadlines_are_shed_before_the_forward() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let b = Batcher::start(Arc::clone(&ex), BatchConfig::default(), Arc::clone(&stats));
        // A deadline already in the past is unmakeable even with no cost
        // estimate.
        let past = Instant::now() - Duration::from_millis(5);
        let rx = b.submit(video(1.0), Some(past), 5).unwrap();
        let out = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(out, Err(ServeError::DeadlineExceeded { budget_ms: 5 })), "{out:?}");
        assert_eq!(ServeStats::get(&stats.shed_deadline), 1);
        // A generous deadline passes.
        let rx = b.submit(video(2.0), Some(Instant::now() + Duration::from_secs(60)), 60_000);
        assert!(rx.unwrap().recv_timeout(Duration::from_secs(30)).unwrap().is_ok());
        b.drain();
    }

    #[test]
    fn a_panicking_encode_round_answers_500_and_the_worker_keeps_serving() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let sessions = SessionManager::new(SessionConfig::default(), Arc::clone(&stats));
        let b = Batcher::start(Arc::clone(&ex), BatchConfig::default(), Arc::clone(&stats));

        // A session that cuts 4-pixel patches the extractor's 8-pixel
        // embedding cannot multiply: the round's one encode forward panics.
        let entry = sessions.create(ModelConfig { patch: 4, ..tiny_cfg() }).unwrap();
        let half = Tensor::from_fn(&[2, 16, 16], |i| (i as f32 * 0.01).sin());
        let rx = b.submit_stream(entry, half, None, 0).unwrap();
        let e = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap_err();
        assert!(matches!(e, ServeError::Internal { .. }), "{e:?}");
        assert_eq!(ServeStats::get(&stats.panics_caught), 1);

        // The next round is served, with the answer a direct extraction gives.
        let lone = b.submit(video(5.0), None, 0).unwrap();
        let out = lone.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
        assert_eq!(out.scenario, ex.extract_checked(&video(5.0)).unwrap());
        b.drain();
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
        let a = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
        assert_eq!(a.groups_new, 1);
        assert_eq!(a.frames_seen, 2);
        assert!(!a.ready);
        assert!(a.scenario.is_none());

        // Second half: ready, scenario matches an independent session.
        let rest = Tensor::from_fn(&[2, 16, 16], |i| ((i + 512) as f32 * 0.01).sin());
        let rx = b.submit_stream(Arc::clone(&entry), rest.clone(), None, 0).unwrap();
        let a = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
        assert!(a.ready);
        let mut solo = ex.open_stream();
        solo.push_frames(&half).unwrap();
        solo.push_frames(&rest).unwrap();
        assert_eq!(a.scenario.unwrap(), solo.describe().unwrap());
        assert_eq!(ServeStats::get(&stats.stream_pushes), 2);
        assert!(ServeStats::get(&stats.mux_batches) >= 2);

        // A bad chunk is a typed error and leaves the session intact.
        let rx = b.submit_stream(Arc::clone(&entry), Tensor::zeros(&[1, 8, 8]), None, 0).unwrap();
        let e = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap_err();
        assert!(matches!(e, ServeError::InvalidInput(_)), "{e:?}");
        let rx = b.submit_stream(Arc::clone(&entry), Tensor::zeros(&[0, 16, 16]), None, 0).unwrap();
        let a = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
        assert_eq!(a.frames_seen, 4, "failed pushes must not consume frames");

        // Closing the session mid-queue answers 404, not a write.
        sessions.close(entry.id()).unwrap();
        let rx = b.submit_stream(Arc::clone(&entry), half, None, 0).unwrap();
        let e = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap_err();
        assert!(matches!(e, ServeError::UnknownSession { .. }), "{e:?}");
        b.drain();
    }

    #[test]
    fn interleaved_streams_share_one_batched_encode() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let sessions = SessionManager::new(SessionConfig::default(), Arc::clone(&stats));
        let b = Batcher::start(
            Arc::clone(&ex),
            BatchConfig { max_batch: 16, ..BatchConfig::default() },
            Arc::clone(&stats),
        );
        let entries: Vec<_> = (0..4).map(|_| sessions.create(tiny_cfg()).unwrap()).collect();
        let window =
            |s: usize| Tensor::from_fn(&[4, 16, 16], |i| ((i + s * 777) as f32 * 0.013).sin());

        // Submit a full window for every stream before the worker can run:
        // the round coalesces their group encodes.
        let rxs: Vec<_> = entries
            .iter()
            .enumerate()
            .map(|(s, e)| b.submit_stream(Arc::clone(e), window(s), None, 0).unwrap())
            .collect();
        let mut max_mux = 0;
        for (s, rx) in rxs.into_iter().enumerate() {
            let a = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
            assert!(a.ready);
            let mut solo = ex.open_stream();
            solo.push_frames(&window(s)).unwrap();
            assert_eq!(a.scenario.unwrap(), solo.describe().unwrap(), "mux parity for stream {s}");
            max_mux = max_mux.max(a.mux_streams);
        }
        // At least one round served more than one stream (the first may run
        // alone if the worker won the race to the queue).
        assert!(
            max_mux > 1 || ServeStats::get(&stats.mux_batches) >= 4,
            "max_mux={max_mux} batches={}",
            ServeStats::get(&stats.mux_batches)
        );
        b.drain();
    }

    #[test]
    fn a_stream_round_is_two_forwards_whatever_the_stream_count() {
        let ex = tiny_extractor();
        let stats = Arc::new(ServeStats::default());
        let sessions = SessionManager::new(SessionConfig::default(), Arc::clone(&stats));
        let b = Batcher::start(Arc::clone(&ex), BatchConfig::default(), Arc::clone(&stats));
        let entries: Vec<_> = (0..3).map(|_| sessions.create(tiny_cfg()).unwrap()).collect();
        let window =
            |s: usize| Tensor::from_fn(&[4, 16, 16], |i| ((i + s * 555) as f32 * 0.017).sin());

        // Park the worker inside a round of its own: it drains the blocker's
        // push, then waits on the session lock this thread holds — while the
        // three real pushes queue up behind it into one round.
        let blocker = sessions.create(tiny_cfg()).unwrap();
        let parked = lock(&blocker.state);
        let half = Tensor::from_fn(&[2, 16, 16], |i| (i as f32 * 0.01).sin());
        let submitted = Instant::now();
        let blocked = b.submit_stream(Arc::clone(&blocker), half, None, 0).unwrap();
        while b.depth() > 0 {
            std::thread::yield_now();
        }
        let drained_within = submitted.elapsed();
        let rxs: Vec<_> = entries
            .iter()
            .enumerate()
            .map(|(s, e)| b.submit_stream(Arc::clone(e), window(s), None, 0).unwrap())
            .collect();
        drop(parked);

        let a = blocked.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
        assert!(!a.ready, "the blocker holds half a window: no readout in its round");
        // Its queue wait ended when the worker drained it, not when the
        // round it then sat parked in was finally served.
        assert!(u128::from(a.queued_us) <= drained_within.as_micros(), "{a:?}");
        for (s, rx) in rxs.into_iter().enumerate() {
            let a = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
            assert_eq!((a.mux_streams, a.mux_groups), (3, 6), "one round served all three");
            let mut solo = ex.open_stream();
            solo.push_frames(&window(s)).unwrap();
            assert_eq!(a.scenario.unwrap(), solo.describe().unwrap(), "stream {s}");
        }
        b.drain(); // joins the worker: its last metrics snapshot is published
        let snap = stats.worker_metrics();
        let records = |key: &str| snap.hists.get(key).map_or(0, |h| h.count);
        // Two rounds ran. Each encoded once; only the three-stream round had
        // windows to read, and it read all three in one forward.
        assert_eq!(records("stage/mux_encode"), 2);
        assert_eq!(records("stage/stream_infer"), 1);
        assert_eq!(snap.counter("stage/cache_miss"), 1 + 6);
    }
}
