//! # tsdx-tensor
//!
//! A small, dependency-free dense `f32` tensor library with reverse-mode
//! automatic differentiation, purpose-built for the `tsdx` traffic-scenario
//! extraction stack.
//!
//! The crate has three layers:
//!
//! 1. [`Tensor`] — an immutable, row-major value type with cheap
//!    (`Arc`-backed) clones and zero-copy strided views: `reshape` (of
//!    contiguous tensors), `permute`, `transpose` and `narrow` are O(1)
//!    metadata edits over a shared buffer, with
//!    [`Tensor::contiguous`] as the explicit materialization point.
//! 2. [`ops`] — pure forward kernels: broadcasting arithmetic, a
//!    register-tiled batched matmul (an explicit AVX-512 micro-kernel where
//!    the CPU has it, see [`dial::KERNEL`]), softmax, layer norm, im2col convolution,
//!    average pooling, fused scaled-dot-product attention, and fused classification
//!    losses. Elementwise and reduction kernels are stride-aware and consume
//!    views directly. Every kernel runs on its caller's thread; every
//!    run-time switch lives in [`mod@dial`].
//! 3. [`Graph`] — a define-by-run autograd tape recording op applications
//!    and replaying them in reverse to produce [`Gradients`]. View-op
//!    backwards are themselves views (a permute's gradient is the inverse
//!    permute view — no copy).
//!
//! # Examples
//!
//! Train-step skeleton — build a tape, compute a loss, read gradients:
//!
//! ```
//! use tsdx_tensor::{Graph, Tensor};
//!
//! let w = Tensor::from_vec(vec![0.5, -0.5], &[2, 1]);
//! let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//!
//! let mut g = Graph::new();
//! let wv = g.leaf(w);
//! let xv = g.constant(x);
//! let y = g.matmul(xv, wv);          // [2, 1]
//! let loss = g.mean_all(y);
//! let grads = g.backward(loss);
//! assert_eq!(grads.get(wv).unwrap().shape(), &[2, 1]);
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the crate is safe code except for one
// audited island that allows `unsafe_code` — `ops::matmul::avx512`, the
// 512-bit f32 GEMM micro-kernel (which LLVM does not form from safe loops),
// the AVX-512F compiles of the safe GELU and softmax bodies, and the `zmm`
// lanes of the attention and layer-norm kernels. It is
// selected at run time, checks its extents and the CPU feature at a safe
// entry, and is pinned bit-identical to a safe reference by a parity test
// (see its module docs).
#![deny(unsafe_code)]

mod cpu;
pub mod dial;
pub mod fastmath;
#[cfg(feature = "fault-inject")]
pub mod faults;
pub mod grad_check;
mod graph;
pub mod metrics;
pub mod ops;
// pinned by benchmark/src/replay.rs — goes with the re-pin, ROADMAP item 1
pub mod quant;
pub mod shape;
mod tensor;
pub mod workspace;

pub use graph::{Gradients, Graph, Var};
pub use tensor::{copy_metrics, Tensor};
