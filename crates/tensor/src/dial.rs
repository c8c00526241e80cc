//! Run-time switches: the one place the process reads its environment.
//!
//! A [`Dial`] is a process-wide value with a per-thread override:
//!
//! - The **process value** is parsed **once**, at first use, from an optional
//!   `TSDX_*` variable under one policy: unset → the default, a valid
//!   spelling (surrounding whitespace and ASCII case ignored) → that value,
//!   anything else — empty, garbage, not UTF-8 — → a panic naming the
//!   variable and what it accepts, not a silent fallback.
//! - The **override** ([`Dial::with`]) applies to the calling thread for the
//!   length of a closure and is put back by a drop guard — also when the
//!   closure panics, so a server that runs a forward under `catch_unwind`
//!   cannot be left on the overridden value.
//!
//! Every switch of the stack is a `Dial`: the one `TSDX_*` variable
//! (`TSDX_LOG`, in `tsdx-core`'s telemetry) and two with no variable that
//! exist for the parity suites ([`RECYCLE`], [`KERNEL`]). No
//! other module calls `std::env::var` or keeps an override thread-local.
//! [`RunConfig`] is the two the model's results must not depend on, as one
//! value; results are bit-identical across all of its combinations.

use std::cell::Cell;
use std::fmt;
use std::sync::OnceLock;
use std::thread::LocalKey;

/// One run-time switch; see the module docs. Declared with [`dial!`](crate::dial!).
pub struct Dial<T: Copy + 'static> {
    var: Option<&'static str>,
    parse: fn(Option<&str>) -> Result<T, String>,
    process: OnceLock<T>,
    forced: &'static LocalKey<Cell<Option<T>>>,
}

/// Declares `static` [`Dial`]s, each with its override thread-local:
/// `dial! { pub static NAME: Type = Some("TSDX_…"), parse_fn; }`. `parse_fn`
/// gets `None` when the variable is unset (or there is none), else its
/// trimmed, lower-cased value; its `Err` says what the variable must be.
#[macro_export]
macro_rules! dial {
    ($($(#[$meta:meta])* $vis:vis static $name:ident: $t:ty = $var:expr, $parse:expr;)+) => {$(
        $(#[$meta])*
        $vis static $name: $crate::dial::Dial<$t> = {
            ::std::thread_local! {
                static FORCED: ::std::cell::Cell<Option<$t>> =
                    const { ::std::cell::Cell::new(None) };
            }
            $crate::dial::Dial::new($var, $parse, &FORCED)
        };
    )+};
}

impl<T: Copy + 'static> Dial<T> {
    #[doc(hidden)]
    pub const fn new(
        var: Option<&'static str>,
        parse: fn(Option<&str>) -> Result<T, String>,
        forced: &'static LocalKey<Cell<Option<T>>>,
    ) -> Self {
        Dial { var, parse, process: OnceLock::new(), forced }
    }

    /// The value in effect on this thread: the override when one is active,
    /// else the process value (which panics on a variable it does not accept).
    pub fn get(&self) -> T {
        self.forced().unwrap_or_else(|| self.process())
    }

    /// The process value, whatever this thread overrides.
    pub fn process(&self) -> T {
        *self.process.get_or_init(|| {
            let raw = self.var.and_then(|var| match std::env::var(var) {
                Ok(v) => Some(v),
                Err(std::env::VarError::NotPresent) => None,
                Err(std::env::VarError::NotUnicode(v)) => Some(v.to_string_lossy().into_owned()),
            });
            self.parse(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"))
        })
    }

    /// This thread's override, if one is active.
    pub fn forced(&self) -> Option<T> {
        self.forced.with(Cell::get)
    }

    /// Runs `f` with the dial overridden to `value` **on this thread**; the
    /// previous override (or none) is back when `with` returns or unwinds.
    pub fn with<R>(&self, value: T, f: impl FnOnce() -> R) -> R {
        struct Restore<T: Copy + 'static>(&'static LocalKey<Cell<Option<T>>>, Option<T>);
        impl<T: Copy + 'static> Drop for Restore<T> {
            fn drop(&mut self) {
                self.0.with(|c| c.set(self.1));
            }
        }
        let _restore = Restore(self.forced, self.forced.with(|c| c.replace(Some(value))));
        f()
    }

    /// What the process value would be if the variable held `raw` (`None`:
    /// unset) — the whole parse policy, without touching the environment.
    /// The error is the message the process would panic with.
    pub fn parse(&self, raw: Option<&str>) -> Result<T, String> {
        let cleaned = raw.map(|v| v.trim().to_ascii_lowercase());
        (self.parse)(cleaned.as_deref())
            .map_err(|e| format!("{} {e}, got {:?}", self.var.unwrap_or("dial"), raw.unwrap_or("")))
    }
}

// pinned by benchmark/src/replay.rs — goes with the re-pin, ROADMAP item 1
/// The numeric plane a served answer was computed on. The model runs f32
/// only, so there is one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full-precision kernels.
    F32,
}

impl Precision {
    /// The plane's spelling, `"f32"`.
    pub fn label(self) -> &'static str {
        "f32"
    }
}

/// The lanes the vector kernels of [`crate::ops`] run with — the GEMM, the
/// GELU pass, the row softmax, attention and layer norm — named after the
/// GEMM micro-kernel it brings. Both produce the same bits; only timings
/// differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Safe `[f32; 16]` loops and the 4×16 GEMM register tile, compiled for
    /// the build baseline: every CPU runs them.
    Portable,
    /// `zmm` registers and the explicit micro-kernel — 6×64 GEMM register
    /// blocks, 8×32 on narrow columns — with each kernel compiled for
    /// AVX-512F; selected where the CPU has it.
    Avx512,
}

impl Kernel {
    /// The kernels this CPU can run, portable first.
    pub fn available() -> &'static [Kernel] {
        if crate::ops::avx512f() {
            &[Kernel::Portable, Kernel::Avx512]
        } else {
            &[Kernel::Portable]
        }
    }
}

impl fmt::Display for Kernel {
    /// `portable 4x16` / `avx512 6x64` — what a server's start-up line and
    /// `check.sh`'s allocation stage print, so a timing from a host that
    /// fell back is recognisable as such.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kernel::Portable => "portable 4x16",
            Kernel::Avx512 => "avx512 6x64",
        })
    }
}

dial! {
    /// Whether [`crate::workspace`] recycles buffers. No variable: on for
    /// the process, off per thread in the parity and allocation suites.
    pub static RECYCLE: bool = None, |_| Ok(true);

    /// The f32 kernels' lanes, read by one function (`ops::simd::run`). No
    /// variable: the widest the CPU has for the process, narrowed per thread
    /// by the kernel-parity suites.
    pub static KERNEL: Kernel = None, |_| Ok(*Kernel::available().last().expect("portable"));
}

/// The two numeric switches of the model as one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// [`RECYCLE`].
    pub recycle: bool,
    /// [`KERNEL`].
    pub kernel: Kernel,
}

impl RunConfig {
    /// What this thread runs with now.
    pub fn current() -> RunConfig {
        RunConfig { recycle: RECYCLE.get(), kernel: KERNEL.get() }
    }

    /// Runs `f` on this thread with both switches overridden, restoring them
    /// afterwards, also on unwind. Panics on a kernel this CPU cannot run.
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        assert!(Kernel::available().contains(&self.kernel), "{} needs AVX-512F", self.kernel);
        RECYCLE.with(self.recycle, || KERNEL.with(self.kernel, f))
    }

    /// Every combination the parity suites exercise: recycling off and on ×
    /// each kernel this CPU has.
    pub fn matrix() -> Vec<RunConfig> {
        let mut all = Vec::new();
        for recycle in [false, true] {
            for &kernel in Kernel::available() {
                all.push(RunConfig { recycle, kernel });
            }
        }
        all
    }
}

impl fmt::Display for RunConfig {
    /// The live-values line binaries print at start-up.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let recycle = if self.recycle { "on" } else { "off" };
        write!(f, "f32-kernel=\"{}\" recycle={recycle}", self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn overrides_nest_and_are_restored_when_the_closure_panics() {
        let before = RunConfig::current();
        RECYCLE.with(false, || {
            RECYCLE.with(true, || assert!(RECYCLE.get()));
            assert_eq!(
                (RECYCLE.get(), RECYCLE.forced(), RECYCLE.process()),
                (false, Some(false), true)
            );
        });
        let other = RunConfig { recycle: !before.recycle, kernel: Kernel::Portable };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            other.run(|| {
                assert_eq!(RunConfig::current(), other);
                panic!("mid-forward");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(RunConfig::current(), before);
        assert_eq!((RECYCLE.forced(), KERNEL.forced()), (None, None));
    }

    #[test]
    fn the_matrix_lists_every_combination_once() {
        let all = RunConfig::matrix();
        assert_eq!(all.len(), 2 * Kernel::available().len());
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "{a} listed twice");
            a.run(|| assert_eq!(RunConfig::current(), *a));
        }
    }
}
