//! Deterministic fault-injection registry (compiled only with the
//! `fault-inject` feature).
//!
//! The registry is a process-global set of one-shot "armed" faults that the
//! production code paths poll at well-defined points:
//!
//! * [`arm_worker_panic`] — the worker pool panics inside the job for the
//!   given chunk index on the next parallel dispatch (exercises the pool's
//!   panic capture/re-raise path, see [`crate::pool::map_chunks`]);
//! * [`arm_checkpoint_tear`] — the next checkpoint save writes only the
//!   first `n` bytes to the destination, simulating a crash mid-write of a
//!   non-atomic writer;
//! * [`arm_checkpoint_bit_flip`] — the next checkpoint save flips bit `k`
//!   of the encoded file, simulating silent storage corruption;
//! * [`arm_nan_grad`] — the training loop poisons the collected gradients
//!   with a NaN at the given optimizer step (exercises the bad-batch guard);
//! * [`arm_accept_stall`] — the serve layer's accept loop stalls for the
//!   given duration before handling the next connection, simulating a
//!   listener hiccup (liveness probes must keep answering afterwards);
//! * [`arm_body_disconnect`] — the serve layer's request-body reader sees
//!   the client vanish after `n` bytes (unexpected EOF mid-body);
//! * [`arm_handler_panic`] — the serve layer's request handler panics while
//!   processing accepted request number `i` (0-indexed, counted across the
//!   process), exercising the connection-boundary panic capture;
//! * [`arm_shard_tear`] — the next vector-index shard save writes only the
//!   first `n` bytes, simulating a crash mid-write of a non-atomic writer;
//! * [`arm_shard_bit_flip`] — the next vector-index shard save flips bit
//!   `k` of the encoded shard, simulating silent at-rest corruption;
//! * [`arm_session_table_full`] — the serve layer's next session create
//!   behaves as if the session table were at capacity (typed 429 without
//!   filling hundreds of real slots);
//! * [`arm_session_route_panic`] — the serve layer's next session-route
//!   handler panics before touching session state (the listener and every
//!   *other* session must survive);
//! * [`arm_readout_panic`] — the next batched stream-window readout panics
//!   after its forward and before any session's window memo is written
//!   (every session of the round must stay as it was).
//!
//! Every fault fires **at most once** and is disarmed when it fires, so a
//! test arms exactly the failure it wants and the rest of the run proceeds
//! normally. Faults are global state: suites that use them must serialize
//! their tests (see `tests/fault_injection.rs`).

use std::sync::Mutex;

struct Armed {
    worker_panic_chunk: Option<usize>,
    checkpoint_tear_after: Option<u64>,
    checkpoint_flip_bit: Option<u64>,
    nan_grad_step: Option<u32>,
    accept_stall_ms: Option<u64>,
    body_disconnect_after: Option<usize>,
    handler_panic_request: Option<u64>,
    shard_tear_after: Option<u64>,
    shard_flip_bit: Option<u64>,
    session_table_full: bool,
    session_route_panic: bool,
    readout_panic: bool,
}

static ARMED: Mutex<Armed> = Mutex::new(Armed {
    worker_panic_chunk: None,
    checkpoint_tear_after: None,
    checkpoint_flip_bit: None,
    nan_grad_step: None,
    accept_stall_ms: None,
    body_disconnect_after: None,
    handler_panic_request: None,
    shard_tear_after: None,
    shard_flip_bit: None,
    session_table_full: false,
    session_route_panic: false,
    readout_panic: false,
});

fn armed() -> std::sync::MutexGuard<'static, Armed> {
    // The registry holds no invariants across a panic, so recover the data
    // rather than poisoning every later test in the process.
    ARMED.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms a panic inside the pool job that executes chunk `chunk` of the next
/// parallel dispatch.
pub fn arm_worker_panic(chunk: usize) {
    armed().worker_panic_chunk = Some(chunk);
}

/// Arms a torn checkpoint write: the next save leaves only the first
/// `bytes` bytes at the destination path.
pub fn arm_checkpoint_tear(bytes: u64) {
    armed().checkpoint_tear_after = Some(bytes);
}

/// Arms a single-bit flip at bit index `bit` of the next encoded
/// checkpoint (bit `bit % 8` of byte `bit / 8`).
pub fn arm_checkpoint_bit_flip(bit: u64) {
    armed().checkpoint_flip_bit = Some(bit);
}

/// Arms a NaN gradient injection at optimizer step `step` (0-indexed,
/// counted across the whole run including resumed epochs).
pub fn arm_nan_grad(step: u32) {
    armed().nan_grad_step = Some(step);
}

/// Arms an accept-loop stall: the next connection the serve layer accepts
/// is only handled after `ms` milliseconds.
pub fn arm_accept_stall(ms: u64) {
    armed().accept_stall_ms = Some(ms);
}

/// Arms a mid-body client disconnect: the next request body the serve
/// layer reads hits EOF after `bytes` bytes, regardless of the declared
/// `Content-Length`.
pub fn arm_body_disconnect(bytes: usize) {
    armed().body_disconnect_after = Some(bytes);
}

/// Arms a panic inside the serve layer's handler for accepted request
/// number `request` (0-indexed, counted process-wide).
pub fn arm_handler_panic(request: u64) {
    armed().handler_panic_request = Some(request);
}

/// Arms a torn shard write: the next vector-index shard save leaves only
/// the first `bytes` bytes at the destination path.
pub fn arm_shard_tear(bytes: u64) {
    armed().shard_tear_after = Some(bytes);
}

/// Arms a single-bit flip at bit index `bit` of the next encoded
/// vector-index shard (bit `bit % 8` of byte `bit / 8`, modulo length).
pub fn arm_shard_bit_flip(bit: u64) {
    armed().shard_flip_bit = Some(bit);
}

/// Arms a session-table exhaustion: the serve layer's next session create
/// reports the table at capacity.
pub fn arm_session_table_full() {
    armed().session_table_full = true;
}

/// Arms a panic inside the serve layer's next session-route handler,
/// firing before any session state is touched.
pub fn arm_session_route_panic() {
    armed().session_route_panic = true;
}

/// Arms a panic inside the next batched stream-window readout, firing after
/// the forward and before any window memo is written.
pub fn arm_readout_panic() {
    armed().readout_panic = true;
}

/// Disarms every pending fault.
pub fn clear_all() {
    let mut a = armed();
    a.worker_panic_chunk = None;
    a.checkpoint_tear_after = None;
    a.checkpoint_flip_bit = None;
    a.nan_grad_step = None;
    a.accept_stall_ms = None;
    a.body_disconnect_after = None;
    a.handler_panic_request = None;
    a.shard_tear_after = None;
    a.shard_flip_bit = None;
    a.session_table_full = false;
    a.session_route_panic = false;
    a.readout_panic = false;
}

/// Polled by the pool: panics (once) when chunk `chunk` is armed.
///
/// # Panics
///
/// Panics with a recognizable payload when the fault fires — that is the
/// point.
pub fn maybe_panic_worker(chunk: usize) {
    let fire = {
        let mut a = armed();
        if a.worker_panic_chunk == Some(chunk) {
            a.worker_panic_chunk = None;
            true
        } else {
            false
        }
    };
    if fire {
        panic!("injected fault: worker panic at chunk {chunk}");
    }
}

/// Polled by the checkpoint writer: takes a pending tear length.
pub fn take_checkpoint_tear() -> Option<u64> {
    armed().checkpoint_tear_after.take()
}

/// Polled by the checkpoint writer: takes a pending bit-flip index.
pub fn take_checkpoint_bit_flip() -> Option<u64> {
    armed().checkpoint_flip_bit.take()
}

/// Polled by the training loop: true (once) when `step` is armed.
pub fn nan_grad_at(step: u32) -> bool {
    let mut a = armed();
    if a.nan_grad_step == Some(step) {
        a.nan_grad_step = None;
        true
    } else {
        false
    }
}

/// Polled by the shard writer: takes a pending tear length.
pub fn take_shard_tear() -> Option<u64> {
    armed().shard_tear_after.take()
}

/// Polled by the shard writer: takes a pending bit-flip index.
pub fn take_shard_bit_flip() -> Option<u64> {
    armed().shard_flip_bit.take()
}

/// Polled by the serve accept loop: takes a pending stall in milliseconds.
pub fn take_accept_stall() -> Option<u64> {
    armed().accept_stall_ms.take()
}

/// Polled by the serve body reader: takes a pending mid-body disconnect
/// byte count.
pub fn take_body_disconnect() -> Option<usize> {
    armed().body_disconnect_after.take()
}

/// Polled by the serve session table: true (once) when exhaustion is
/// armed.
pub fn take_session_table_full() -> bool {
    let mut a = armed();
    std::mem::take(&mut a.session_table_full)
}

/// Polled by the serve session routes: true (once) when a route panic is
/// armed. The caller panics when this fires — the registry only decides
/// *when*.
pub fn take_session_route_panic() -> bool {
    let mut a = armed();
    std::mem::take(&mut a.session_route_panic)
}

/// Polled by the batched stream-window readout: true (once) when its panic
/// is armed. The caller panics when this fires.
pub fn take_readout_panic() -> bool {
    let mut a = armed();
    std::mem::take(&mut a.readout_panic)
}

/// Polled by the serve request handler: true (once) when accepted request
/// number `request` is armed.
///
/// The caller panics when this fires — the registry only decides *when*.
pub fn handler_panic_at(request: u64) -> bool {
    let mut a = armed();
    if a.handler_panic_request == Some(request) {
        a.handler_panic_request = None;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once() {
        clear_all();
        arm_nan_grad(3);
        assert!(!nan_grad_at(2));
        assert!(nan_grad_at(3));
        assert!(!nan_grad_at(3), "fault must disarm after firing");

        arm_checkpoint_tear(17);
        assert_eq!(take_checkpoint_tear(), Some(17));
        assert_eq!(take_checkpoint_tear(), None);

        arm_checkpoint_bit_flip(9);
        assert_eq!(take_checkpoint_bit_flip(), Some(9));
        assert_eq!(take_checkpoint_bit_flip(), None);

        arm_accept_stall(25);
        assert_eq!(take_accept_stall(), Some(25));
        assert_eq!(take_accept_stall(), None);

        arm_body_disconnect(64);
        assert_eq!(take_body_disconnect(), Some(64));
        assert_eq!(take_body_disconnect(), None);

        arm_handler_panic(5);
        assert!(!handler_panic_at(4));
        assert!(handler_panic_at(5));
        assert!(!handler_panic_at(5), "fault must disarm after firing");

        arm_shard_tear(33);
        assert_eq!(take_shard_tear(), Some(33));
        assert_eq!(take_shard_tear(), None);

        arm_shard_bit_flip(12);
        assert_eq!(take_shard_bit_flip(), Some(12));
        assert_eq!(take_shard_bit_flip(), None);

        arm_session_table_full();
        assert!(take_session_table_full());
        assert!(!take_session_table_full(), "fault must disarm after firing");

        arm_session_route_panic();
        assert!(take_session_route_panic());
        assert!(!take_session_route_panic(), "fault must disarm after firing");

        arm_readout_panic();
        assert!(take_readout_panic());
        assert!(!take_readout_panic(), "fault must disarm after firing");
        clear_all();
    }
}
