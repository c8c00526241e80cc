//! # tsdx-nn
//!
//! Neural-network building blocks on top of [`tsdx_tensor`]: a parameter
//! registry, initializers, standard layers (linear, layer norm, multi-head
//! attention, transformer encoder, 2-D convolution, GRU, dropout),
//! optimizers with schedules, and binary checkpointing.
//!
//! The design is deliberately explicit: layers own [`ParamId`] handles into
//! a shared [`ParamStore`], and every training forward pass threads an
//! autograd [`Graph`](tsdx_tensor::Graph) plus a [`Binding`] produced by
//! [`ParamStore::bind`]. This keeps parameter ownership, tape lifetime, and
//! update logic all visible at the call site — no hidden globals.
//!
//! Each layer's wiring is written once, generic over an executor ([`Exec`]):
//! the recording [`Tape`] behind every `forward(g, p, ..)` here, and the
//! non-recording [`Eval`] that inference runs on — same operations, same
//! order, same bits, no graph.
//!
//! # Examples
//!
//! A three-step training loop for a tiny regressor:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use tsdx_nn::{AdamW, Linear, Optimizer, ParamStore};
//! use tsdx_tensor::{Graph, Tensor};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, &mut rng, "fc", 2, 1);
//! let mut opt = AdamW::new(0.0);
//!
//! for _ in 0..3 {
//!     let mut g = Graph::new();
//!     let p = store.bind(&mut g);
//!     let x = g.constant(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
//!     let y = layer.forward(&mut g, &p, x);
//!     let sq = g.mul(y, y);
//!     let loss = g.mean_all(sq);
//!     let grads = g.backward(loss);
//!     let gv = store.collect_grads(&p, &grads);
//!     opt.step(&mut store, &gv, 1e-2);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attention;
mod conv;
mod dropout;
mod exec;
pub mod init;
mod linear;
mod norm;
mod optim;
mod params;
mod rnn;
pub mod serialize;
mod transformer;

pub use attention::MultiHeadAttention;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use exec::{Eval, Exec, Tape};
pub use linear::Linear;
pub use norm::LayerNorm;
pub use optim::{clip_global_norm, AdamW, AdamWState, LrSchedule, Optimizer, Sgd};
pub use params::{Binding, ParamId, ParamStore, ShapeMismatch};
pub use rnn::Gru;
pub use serialize::{
    crc32, load_checkpoint, read_checkpoint, read_train_checkpoint, save_checkpoint,
    save_train_checkpoint, write_atomic, CheckpointError, TrainCheckpoint, TrainState,
};
pub use transformer::{Mlp, TransformerBlock, TransformerEncoder};
