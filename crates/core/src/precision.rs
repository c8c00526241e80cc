//! The `TSDX_PRECISION` inference dial.
//!
//! `TSDX_PRECISION=f32` (the default) keeps every inference path on the
//! f32 kernels — bit-identical to the pre-quantization behavior.
//! `TSDX_PRECISION=int8` routes the eval-time bindings of the video
//! scenario transformer ([`crate::VideoScenarioTransformer`]'s `predict`,
//! `extract_checked`, and [`crate::StreamSession`]) through prepacked
//! per-channel int8 weights and the exact-integer i8 GEMM
//! ([`tsdx_tensor::quant`]). Training always runs f32: the dial only
//! affects frozen (inference) bindings.
//!
//! The environment variable is read **once** per process, like
//! `TSDX_NUM_THREADS` and `TSDX_WORKSPACE`; [`with_forced`] overrides the
//! choice per thread so one process can A/B both planes (the accuracy
//! gate does exactly that).

use std::cell::Cell;
use std::sync::OnceLock;

/// Numeric plane used by eval-time (frozen) model bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full-precision kernels — the bit-parity reference.
    F32,
    /// Per-channel int8 weights + dynamic per-row int8 activations.
    Int8,
}

impl Precision {
    /// The dial value's spelling (`"f32"` / `"int8"`).
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    /// Parses the dial spelling (`"f32"` / `"int8"`), as accepted by
    /// `TSDX_PRECISION` — used by servers and CLIs that take the plane as
    /// configuration instead of (or overriding) the environment.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(Precision::F32),
            "int8" => Ok(Precision::Int8),
            other => Err(format!("precision must be \"f32\" or \"int8\", got {other:?}")),
        }
    }
}

fn from_env() -> Precision {
    static ENV: OnceLock<Precision> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("TSDX_PRECISION") {
        Err(std::env::VarError::NotPresent) => Precision::F32,
        Ok(v) if v == "f32" => Precision::F32,
        Ok(v) if v == "int8" => Precision::Int8,
        v => panic!("TSDX_PRECISION must be \"f32\" or \"int8\", got {v:?}"),
    })
}

thread_local! {
    static FORCED: Cell<Option<Precision>> = const { Cell::new(None) };
}

/// The active precision: a per-thread [`with_forced`] override when one is
/// in effect, else `TSDX_PRECISION` (read once per process; default
/// [`Precision::F32`]).
///
/// # Panics
///
/// Panics if `TSDX_PRECISION` is set to anything but `f32` or `int8`.
pub fn active() -> Precision {
    FORCED.with(|c| c.get()).unwrap_or_else(from_env)
}

/// Runs `f` with the active precision forced to `p` on this thread
/// (restored on exit, even across nested uses).
pub fn with_forced<R>(p: Precision, f: impl FnOnce() -> R) -> R {
    FORCED.with(|c| {
        let prev = c.replace(Some(p));
        let out = f();
        c.set(prev);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_f32_and_forcing_nests() {
        // The suite also runs under TSDX_PRECISION=int8 (check.sh), so
        // only pin the default when the dial is genuinely unset.
        if std::env::var("TSDX_PRECISION").is_err() {
            assert_eq!(active(), Precision::F32);
        }
        with_forced(Precision::Int8, || {
            assert_eq!(active(), Precision::Int8);
            with_forced(Precision::F32, || assert_eq!(active(), Precision::F32));
            assert_eq!(active(), Precision::Int8);
        });
        assert_eq!(Precision::Int8.label(), "int8");
    }

    #[test]
    fn parses_dial_spellings() {
        assert_eq!("f32".parse::<Precision>(), Ok(Precision::F32));
        assert_eq!("int8".parse::<Precision>(), Ok(Precision::Int8));
        assert!("fp16".parse::<Precision>().is_err());
        assert!("".parse::<Precision>().is_err());
    }
}
