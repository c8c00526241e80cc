//! Deterministic fault-injection registry (compiled only with the
//! `fault-inject` feature).
//!
//! Every injectable failure is one [`Fault`] static in the table at the
//! bottom of this file. A test arms it with a value; the production path
//! that owns the failure polls it at one well-defined point —
//! [`Fault::take`] where the value is a parameter of the next occurrence
//! ("tear the next save after `n` bytes"), [`Fault::take_if`] where it
//! numbers the occurrence ("poison optimizer step `k`") — and simulates the
//! failure when the poll fires.
//!
//! Every fault fires **at most once** and is disarmed when it fires, so a
//! test arms exactly the failure it wants and the rest of the run proceeds
//! normally. Faults are global state: suites that use them must serialize
//! their tests and [`clear_all`] on both ends (see
//! `tests/fault_injection.rs`).

use std::sync::{Mutex, MutexGuard};

/// One armable one-shot fault carrying a `T`: a byte count, a step number,
/// `()` for a plain trigger.
#[derive(Debug)]
pub struct Fault<T>(Mutex<Option<T>>);

impl<T: PartialEq> Fault<T> {
    const fn new() -> Self {
        Fault(Mutex::new(None))
    }

    fn slot(&self) -> MutexGuard<'_, Option<T>> {
        // The slot holds no invariant across a panic — and panicking is what
        // half these faults are for — so recover it rather than poisoning
        // every later test in the process.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms the fault with `v`, replacing a pending one.
    pub fn arm(&self, v: T) {
        *self.slot() = Some(v);
    }

    /// Polled by the faulted path: the armed value, once.
    pub fn take(&self) -> Option<T> {
        self.slot().take()
    }

    /// Polled by a path that counts its occurrences: true, once, at the
    /// occurrence the fault was armed with.
    pub fn take_if(&self, v: T) -> bool {
        let mut slot = self.slot();
        let fire = *slot == Some(v);
        if fire {
            *slot = None;
        }
        fire
    }
}

/// A value of the fault's type that no production poll asks for, so the unit
/// test can arm a real static beside tests that run the faulted paths.
#[cfg(test)]
macro_rules! unpolled {
    (()) => {
        ()
    };
    ($ty:tt) => {
        <$ty>::MAX
    };
}

/// Declares the registry: the statics, [`clear_all`] over all of them, and
/// the unit test that every one of them disarms after firing.
macro_rules! faults {
    ($($(#[$doc:meta])* pub static $name:ident: $ty:tt;)*) => {
        $($(#[$doc])* pub static $name: Fault<$ty> = Fault::new();)*

        /// Disarms every pending fault.
        pub fn clear_all() {
            $($name.take();)*
        }

        #[cfg(test)]
        #[test]
        fn faults_fire_exactly_once() {
            $(
                let v = unpolled!($ty);
                $name.arm(v);
                assert_eq!($name.take(), Some(v));
                assert_eq!($name.take(), None, "{} must disarm after firing", stringify!($name));
                $name.arm(v);
                assert!($name.take_if(v));
                assert!(!$name.take_if(v), "{} must disarm after firing", stringify!($name));
                $name.arm(v);
            )*
            clear_all();
            $(assert_eq!($name.take(), None, "clear_all missed {}", stringify!($name));)*
        }
    };
}

faults! {
    /// The next checkpoint save leaves only the first `n` bytes at the
    /// destination: a crash mid-write of a non-atomic writer.
    pub static CHECKPOINT_TEAR: u64;
    /// The next checkpoint save flips bit `k` of the encoded file (bit
    /// `k % 8` of byte `k / 8`): silent storage corruption.
    pub static CHECKPOINT_BIT_FLIP: u64;
    /// The training loop poisons the collected gradients with a NaN at this
    /// optimizer step (0-indexed across the run, resumed epochs included).
    pub static NAN_GRAD: u32;
    /// The serve accept loop stalls this many milliseconds before handling
    /// the next connection (liveness probes must keep answering afterwards).
    pub static ACCEPT_STALL: u64;
    /// The next request body the serve layer reads hits EOF after `n`
    /// bytes, whatever its `Content-Length`: the client vanished mid-body.
    pub static BODY_DISCONNECT: usize;
    /// The serve request handler panics on accepted request number `i`
    /// (0-indexed, process-wide): the connection-boundary panic capture.
    pub static HANDLER_PANIC: u64;
    /// The next session create reports the table at capacity (a typed 429
    /// without filling hundreds of real slots).
    pub static SESSION_TABLE_FULL: ();
    /// The next session-route handler panics before touching session state
    /// (the listener and every *other* session must survive).
    pub static SESSION_ROUTE_PANIC: ();
    /// The next batched stream-window readout panics after its forward and
    /// before any window memo is written (every session of the round must
    /// stay as it was).
    pub static READOUT_PANIC: ();
}

#[cfg(test)]
#[test]
fn a_numbered_fault_waits_for_its_occurrence() {
    let step: Fault<u32> = Fault::new();
    step.arm(3);
    assert!(!step.take_if(2));
    assert!(step.take_if(3));
    assert!(!step.take_if(3), "fault must disarm after firing");
}
