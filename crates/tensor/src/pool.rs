//! Shared persistent worker pool for parallel kernels.
//!
//! Every parallel kernel in this crate (matmul, softmax, layer norm,
//! elementwise arithmetic, axis reductions, im2col, fused attention) runs on
//! one process-wide pool of long-lived worker threads instead of spawning
//! scoped threads per call. The pool is created lazily on first parallel
//! dispatch and lives for the rest of the process.
//!
//! # Sizing
//!
//! The pool holds [`THREADS`] workers: `TSDX_NUM_THREADS` when that
//! variable is set, else one per core reported by
//! [`std::thread::available_parallelism`]; a value that is not a positive
//! integer panics with a diagnostic rather than being silently ignored.
//!
//! # Determinism contract
//!
//! Work is distributed as contiguous chunks of the output index space, and
//! every output element is computed by exactly one chunk using the same
//! serial per-element code regardless of how many chunks exist or which
//! worker runs them. Kernels never split a single accumulation across
//! chunks, so results are bit-identical for every pool size (asserted by the
//! `pool_parity` test suite, and end to end by `tsdx-core`'s
//! `streaming_parity` matrix).
//!
//! # Thresholds
//!
//! Parallel dispatch costs two channel hops and one output-assembly pass per
//! chunk, so each kernel keeps small problems on the calling thread behind a
//! per-kernel serial threshold. [`with_forced_threads`] overrides both the
//! pool size and those thresholds within a closure — tests use it to force
//! chunked execution on tiny inputs.
//!
//! # Panic contract
//!
//! A panicking job never kills its worker thread and never deadlocks or
//! poisons the dispatcher. Each job runs under `catch_unwind`; the captured
//! payload and panic location travel back over the result channel, the
//! dispatcher **drains every remaining chunk**, and then re-raises the
//! *original* payload (lowest chunk index wins when several chunks panic,
//! so the surfaced panic is deterministic) on the calling thread via
//! [`std::panic::resume_unwind`]. The chunk index and source location of
//! the re-raised panic are readable afterwards through [`last_panic`].
//! Workers stay alive and the pool stays usable for subsequent dispatches.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Instant;

use crate::dial::THREADS;
use crate::metrics;

/// A job shipped to a worker: boxed so the queue is homogeneous, `'static`
/// because the workers outlive every caller (kernels move `Arc` clones of
/// tensor buffers into their jobs instead of borrowing).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Per-chunk `(queue_wait_ns, exec_ns)` samples shared between a metered
/// dispatch and its worker jobs.
type ChunkMeter = Arc<Mutex<Vec<(u64, u64)>>>;

/// The process-wide pool: a shared injector queue drained by the workers.
struct WorkerPool {
    injector: Mutex<mpsc::Sender<Job>>,
}

static POOL: OnceLock<WorkerPool> = OnceLock::new();

thread_local! {
    // Set inside pool workers so nested parallel kernels run inline instead
    // of deadlocking the queue.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    // True while a worker runs a job under catch_unwind: tells the panic
    // hook to record the location silently instead of printing a backtrace
    // for a panic that will be re-raised on the dispatcher anyway.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static CAPTURED_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
    // Dispatcher-side record of the panic most recently re-raised by
    // `map_chunks_named` on this thread.
    static LAST_PANIC: RefCell<Option<PanicInfo>> = const { RefCell::new(None) };
}

/// Diagnostic record of a worker-job panic re-raised by [`map_chunks_named`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicInfo {
    /// Chunk index whose job panicked.
    pub chunk: usize,
    /// `file:line:column` of the panic site, when the hook saw it.
    pub location: Option<String>,
}

/// A captured worker-job panic traveling back to the dispatcher.
struct ChunkPanic {
    chunk: usize,
    location: Option<String>,
    payload: Box<dyn Any + Send + 'static>,
}

/// Info about the panic most recently re-raised by [`map_chunks_named`] on the
/// calling thread, for diagnostics after catching it. Cleared at the start
/// of every dispatch.
pub fn last_panic() -> Option<PanicInfo> {
    LAST_PANIC.with(|p| p.borrow().clone())
}

/// Installs (once) a panic hook that records the location of panics raised
/// inside pool jobs and suppresses their default stderr report; all other
/// panics go to the previously installed hook untouched.
fn install_capture_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CAPTURING.with(Cell::get) {
                let loc =
                    info.location().map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()));
                CAPTURED_LOCATION.with(|c| *c.borrow_mut() = loc);
            } else {
                prev(info);
            }
        }));
    });
}

/// Runs `f` under `catch_unwind`, tagging the thread so the capture hook
/// records the panic location instead of printing it.
fn run_captured<T>(chunk: usize, f: impl FnOnce() -> T) -> Result<T, ChunkPanic> {
    CAPTURING.with(|c| c.set(true));
    CAPTURED_LOCATION.with(|c| c.borrow_mut().take());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CAPTURING.with(|c| c.set(false));
    result.map_err(|payload| ChunkPanic {
        chunk,
        location: CAPTURED_LOCATION.with(|c| c.borrow_mut().take()),
        payload,
    })
}

fn pool() -> &'static WorkerPool {
    POOL.get_or_init(|| {
        install_capture_hook();
        let size = THREADS.process();
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..size {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("tsdx-worker-{i}"))
                .spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    loop {
                        // Hold the lock only while dequeuing, never while
                        // running the job.
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break,
                        };
                        match job {
                            Ok(job) => {
                                // Jobs catch their own panics and ship the
                                // payload back (see `map_chunks_named`); this
                                // backstop only guards job-queue plumbing so
                                // a worker can never die mid-epoch.
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            Err(_) => break,
                        }
                    }
                })
                .expect("failed to spawn tsdx worker thread");
        }
        WorkerPool { injector: Mutex::new(tx) }
    })
}

/// The worker count the pool has (or will have) — [`THREADS`]: inside
/// [`with_forced_threads`] the forced value, else the process's.
pub fn num_threads() -> usize {
    THREADS.get()
}

/// True when the calling thread is itself a pool worker (nested parallel
/// kernels must run inline rather than re-enter the queue).
fn on_worker_thread() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Runs `f` with the apparent pool size overridden to `threads`.
///
/// Inside the closure every parallel kernel partitions its work into
/// `threads` chunks **even below its serial threshold**, so tests can assert
/// bit-identical results across chunk counts on small inputs. The jobs
/// still execute on the real pool (or inline when `threads == 1`). The
/// previous sizing is back when the closure returns or unwinds.
pub fn with_forced_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads > 0, "forced thread count must be positive");
    THREADS.with(threads, f)
}

/// True when a kernel given `work_elems` total scalar work and a per-kernel
/// `serial_below` threshold should dispatch to the pool.
///
/// Serial when: the pool would have one worker, the problem is below the
/// threshold (unless a forced thread count overrides it), or the caller is
/// already a pool worker.
pub(crate) fn should_parallelize(work_elems: usize, serial_below: usize) -> bool {
    if on_worker_thread() {
        return false;
    }
    match THREADS.forced() {
        Some(n) => n > 1,
        None => work_elems >= serial_below && num_threads() > 1,
    }
}

/// Fault injection: panics, once, inside the job of the armed chunk.
#[inline]
fn injected_panic(_chunk: usize) {
    #[cfg(feature = "fault-inject")]
    if crate::faults::WORKER_PANIC.take_if(_chunk) {
        panic!("injected fault: worker panic at chunk {_chunk}");
    }
}

/// Runs `task(chunk_index)` for every `chunk_index in 0..chunks` on the pool
/// and returns the results ordered by chunk index.
///
/// The caller blocks until all chunks complete. Chunks run concurrently on
/// however many workers the pool has; ordering of *execution* is
/// unspecified, ordering of *results* is by index.
///
/// `kernel` names the dispatch for [`crate::metrics`]. When metrics are
/// enabled (a scope is open on the dispatching thread), every *pool*
/// dispatch records, keyed by `kernel`:
/// counters `pool/dispatch/<kernel>` (one per dispatch) and
/// `pool/chunks/<kernel>` (chunks per dispatch), and histograms
/// `pool/queue_wait/<kernel>` (enqueue to job start) and
/// `pool/exec/<kernel>` (job run time), one observation per chunk. Workers
/// measure their own timings and ship them back over a shared buffer; the
/// dispatcher records them after the drain barrier, so all metric state
/// stays local to the dispatching thread and metering never changes which
/// chunk computes which output (the determinism contract is unaffected —
/// the parity suite runs with metrics on and off). Inline runs (one chunk
/// or nested dispatch) are not pool traffic and record nothing.
///
/// # Panics
///
/// If one or more chunk tasks panic, every remaining chunk still runs to
/// completion, the workers survive, and the payload of the panicking chunk
/// with the **lowest index** is re-raised on the calling thread exactly as
/// the job raised it ([`last_panic`] reports the chunk index and source
/// location afterwards).
pub fn map_chunks_named<T, F>(kernel: &'static str, chunks: usize, task: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if chunks == 0 {
        return Vec::new();
    }
    if chunks == 1 || on_worker_thread() {
        return (0..chunks)
            .map(|i| {
                injected_panic(i);
                task(i)
            })
            .collect();
    }
    // Per-chunk (queue_wait_ns, exec_ns) samples, allocated only when a
    // metrics sink is live at dispatch time. Workers push, the dispatcher
    // reads after the drain barrier below.
    let meter: Option<ChunkMeter> = metrics::active().then(|| {
        metrics::counter_add(&format!("pool/dispatch/{kernel}"), 1);
        metrics::counter_add(&format!("pool/chunks/{kernel}"), chunks as u64);
        Arc::new(Mutex::new(Vec::with_capacity(chunks)))
    });
    let pool = pool();
    let task = Arc::new(task);
    let (tx, rx) = mpsc::channel::<Result<(usize, T), ChunkPanic>>();
    {
        let injector = pool.injector.lock().expect("pool injector poisoned");
        for i in 0..chunks {
            let task = Arc::clone(&task);
            let tx = tx.clone();
            let meter = meter.clone();
            let enqueued = meter.as_ref().map(|_| Instant::now());
            injector
                .send(Box::new(move || {
                    let timer = enqueued.map(|t| (t.elapsed().as_nanos() as u64, Instant::now()));
                    let r = run_captured(i, || {
                        injected_panic(i);
                        task(i)
                    });
                    if let (Some(m), Some((wait_ns, start))) = (&meter, timer) {
                        let exec_ns = start.elapsed().as_nanos() as u64;
                        if let Ok(mut v) = m.lock() {
                            v.push((wait_ns, exec_ns));
                        }
                    }
                    let _ = tx.send(r.map(|v| (i, v)));
                }))
                .expect("pool queue closed");
        }
    }
    drop(tx);
    LAST_PANIC.with(|p| p.borrow_mut().take());
    let mut slots: Vec<Option<T>> = (0..chunks).map(|_| None).collect();
    let mut first_panic: Option<ChunkPanic> = None;
    // Drain every chunk before deciding the outcome: the channel closes once
    // all jobs (panicked or not) have reported, so no result is left behind
    // in flight and the pool is immediately reusable.
    while let Ok(r) = rx.recv() {
        match r {
            Ok((i, v)) => slots[i] = Some(v),
            Err(p) => {
                if first_panic.as_ref().is_none_or(|prev| p.chunk < prev.chunk) {
                    first_panic = Some(p);
                }
            }
        }
    }
    if let Some(m) = meter {
        // All workers have reported (the channel closed), so the lock is
        // uncontended and the samples are complete.
        let samples = m.lock().map(|v| v.clone()).unwrap_or_default();
        let wait_key = format!("pool/queue_wait/{kernel}");
        let exec_key = format!("pool/exec/{kernel}");
        for (wait_ns, exec_ns) in samples {
            metrics::observe_ns(&wait_key, wait_ns);
            metrics::observe_ns(&exec_key, exec_ns);
        }
    }
    if let Some(p) = first_panic {
        LAST_PANIC.with(|slot| {
            *slot.borrow_mut() = Some(PanicInfo { chunk: p.chunk, location: p.location })
        });
        std::panic::resume_unwind(p.payload);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| unreachable!("chunk {i} neither completed nor panicked")))
        .collect()
}

/// Computes a `rows * row_len` output buffer by partitioning whole rows into
/// `threads` contiguous chunks executed on the pool.
///
/// `work(first_row, out)` must fill `out` (whose length is a multiple of
/// `row_len`) with rows `first_row ..` in order, **storing every element**:
/// buffers arrive with arbitrary (recycled-workspace) contents, so a worker
/// that skips positions would leak stale values and break the determinism
/// contract. Each row is produced by exactly one chunk with the same
/// per-row code on every path, so the result is bit-identical for every
/// `threads` value. Pool dispatches record the per-`kernel` counters and
/// histograms of [`map_chunks_named`].
pub fn parallel_rows_named<F>(
    kernel: &'static str,
    rows: usize,
    row_len: usize,
    threads: usize,
    work: F,
) -> Vec<f32>
where
    F: Fn(usize, &mut [f32]) + Send + Sync + 'static,
{
    let n = rows * row_len;
    let threads = threads.max(1).min(rows.max(1));
    if threads == 1 || n == 0 || on_worker_thread() {
        let mut out = crate::workspace::take_uninit(n);
        if n > 0 {
            work(0, &mut out);
        }
        return out;
    }
    let rows_per = rows.div_ceil(threads);
    let chunks = rows.div_ceil(rows_per);
    let work = Arc::new(work);
    let parts = map_chunks_named(kernel, chunks, move |c| {
        let first = c * rows_per;
        let count = rows_per.min(rows - first);
        // Chunk buffers carry arbitrary recycled contents (the `work`
        // contract requires every element to be stored); they return to
        // the dispatcher's arena after assembly below.
        let mut buf = crate::workspace::take_uninit(count * row_len);
        work(first, &mut buf);
        buf
    });
    let mut out = crate::workspace::take_reserve(n);
    for p in parts {
        out.extend_from_slice(&p);
        crate::workspace::give(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_orders_results_by_index() {
        let r = map_chunks_named("test", 8, |i| i * 10);
        assert_eq!(r, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn parallel_rows_matches_serial_fill() {
        let fill = |first: usize, out: &mut [f32]| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (first * 5 + j) as f32 * 0.5;
            }
        };
        let serial = parallel_rows_named("test", 13, 5, 1, fill);
        for threads in [2usize, 3, 7, 13, 40] {
            let par = parallel_rows_named("test", 13, 5, threads, fill);
            assert_eq!(serial, par, "threads={threads} diverged");
        }
    }

    #[test]
    fn forced_threads_are_scoped_and_restored_when_the_closure_panics() {
        let before = num_threads();
        assert_eq!(with_forced_threads(7, num_threads), 7);
        assert_eq!(num_threads(), before);
        let caught = std::panic::catch_unwind(|| with_forced_threads(before + 5, || panic!("x")));
        assert!(caught.is_err());
        assert_eq!(num_threads(), before, "a caught panic left the pool size forced");
        assert!(!should_parallelize(1, usize::MAX), "…and its serial thresholds bypassed");
    }

    #[test]
    fn forced_threads_bypass_serial_threshold() {
        assert!(with_forced_threads(4, || should_parallelize(1, usize::MAX)));
        assert!(!with_forced_threads(1, || should_parallelize(usize::MAX, 0)));
    }

    #[test]
    fn map_chunks_zero_and_one() {
        assert!(map_chunks_named("test", 0, |i| i).is_empty());
        assert_eq!(map_chunks_named("test", 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn panicking_job_reraises_original_payload_and_pool_survives() {
        let err = std::panic::catch_unwind(|| {
            map_chunks_named("test", 6, |i| {
                if i == 3 {
                    panic!("chunk {i} exploded");
                }
                i * 2
            })
        })
        .expect_err("dispatch must re-raise the job panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload should be the original panic message");
        assert_eq!(msg, "chunk 3 exploded", "payload must be the job's own, unwrapped");
        let info = last_panic().expect("panic diagnostics recorded");
        assert_eq!(info.chunk, 3);
        let loc = info.location.expect("location captured by the hook");
        assert!(loc.contains("pool.rs"), "unexpected location {loc}");

        // The long-lived workers survived and the pool is immediately usable.
        let r = map_chunks_named("test", 8, |i| i + 100);
        assert_eq!(r, (100..108).collect::<Vec<_>>());
        assert!(last_panic().is_none(), "a clean dispatch clears the record");
    }

    #[test]
    fn lowest_chunk_wins_when_several_panic() {
        let err = std::panic::catch_unwind(|| {
            map_chunks_named("test", 8, |i| {
                if i % 2 == 1 {
                    panic!("boom {i}");
                }
                i
            })
        })
        .expect_err("dispatch must re-raise");
        let msg = err.downcast_ref::<String>().cloned().unwrap();
        assert_eq!(msg, "boom 1", "deterministic choice: lowest panicking chunk");
        assert_eq!(last_panic().unwrap().chunk, 1);
        assert_eq!(map_chunks_named("test", 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn parallel_rows_propagates_job_panics() {
        let err = std::panic::catch_unwind(|| {
            parallel_rows_named("test", 8, 2, 4, |first, _out| {
                if first >= 4 {
                    panic!("row chunk starting at {first} failed");
                }
            })
        })
        .expect_err("parallel_rows_named must surface the panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap();
        assert!(msg.contains("row chunk starting at"), "{msg}");
        // Still usable for the normal case.
        let out = parallel_rows_named("test", 4, 2, 2, |first, out| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = (first * 2 + j) as f32;
            }
        });
        assert_eq!(out, (0..8).map(|x| x as f32).collect::<Vec<_>>());
    }
}
