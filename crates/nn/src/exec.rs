//! The two ways a layer's wiring is executed.
//!
//! Every layer describes its computation **once**, as calls on an [`Exec`]:
//! a value handle plus the dozen operations the models here are built from.
//! Two executors implement it:
//!
//! * [`Tape`] records each operation as a node of an autograd
//!   [`Graph`] over a [`Binding`] — what training, `evaluate` and the
//!   baselines run on, and what the `forward(g, p, ..)` methods of the
//!   layers wrap. Handle: [`Var`].
//! * [`Eval`] records nothing. It reads the weights in place from the
//!   [`ParamStore`] and hands tensors back; an intermediate is freed when
//!   the wiring drops it.
//!   Handle: [`Tensor`].
//!
//! **Same bits.** A tape node over frozen inputs computes its value with one
//! `tsdx_tensor::ops` call; each [`Eval`] operation is that same call on the
//! same operands, and the wiring issues them in the same order. Nothing is
//! reassociated, so the two executors agree bit for bit (pinned by
//! `tests/proptest_nn.rs` here and `executor_parity.rs` in `tsdx-core`).

use rand::rngs::StdRng;
use rand::Rng;
use tsdx_tensor::ops::{self, Activation};
use tsdx_tensor::{Graph, Tensor, Var};

use crate::dropout::Dropout;
use crate::params::{Binding, ParamId, ParamStore};

/// What a layer's wiring is written against: a value handle and the
/// operations of the model. Operands are borrowed, so a handle that owns its
/// value (a [`Tensor`]) is never cloned to be read.
pub trait Exec {
    /// Handle to a value: a tape node or the tensor itself.
    type V;

    /// Shape of `v`.
    fn shape<'a>(&'a self, v: &'a Self::V) -> &'a [usize];

    /// The current value of parameter `id`.
    fn param(&mut self, id: ParamId) -> Self::V;

    /// A value from outside the model (pixels, a broadcast helper).
    fn constant(&mut self, value: Tensor) -> Self::V;

    /// `act(x @ weight + bias) + residual` (see [`ops::linear`]).
    fn linear(
        &mut self,
        x: &Self::V,
        weight: ParamId,
        bias: ParamId,
        act: Activation,
        residual: Option<&Self::V>,
    ) -> Self::V;

    /// Layer normalization over the last dimension.
    fn layer_norm(&mut self, x: &Self::V, gamma: ParamId, beta: ParamId, eps: f32) -> Self::V;

    /// Multi-head attention on unsplit projections (see [`ops::attention`]);
    /// the probabilities `[..., heads, Tq, Tk]` too when `want_probs`.
    fn attention(
        &mut self,
        q: &Self::V,
        k: &Self::V,
        v: &Self::V,
        heads: usize,
        scale: f32,
        want_probs: bool,
    ) -> (Self::V, Option<Self::V>);

    /// Broadcasting addition.
    fn add(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// Batched matrix product.
    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// Reshape.
    fn reshape(&mut self, a: &Self::V, shape: &[usize]) -> Self::V;

    /// Contiguous slice along `axis`.
    fn narrow(&mut self, a: &Self::V, axis: usize, start: usize, len: usize) -> Self::V;

    /// `a` followed by `b` along `axis`.
    fn concat(&mut self, a: &Self::V, b: &Self::V, axis: usize) -> Self::V;

    /// Mean over one axis.
    fn mean_axis(&mut self, a: &Self::V, axis: usize, keepdim: bool) -> Self::V;

    /// True when `site` masks anything on this pass. A wiring asks before it
    /// fuses an add past the site.
    fn drops(&self, site: &Dropout) -> bool;

    /// A dropout site; the identity unless [`drops`](Self::drops).
    fn dropout(&mut self, site: &Dropout, x: Self::V) -> Self::V;
}

/// The recording executor: each operation becomes a node of `g`.
#[derive(Debug)]
pub struct Tape<'a, R = StdRng> {
    g: &'a mut Graph,
    p: &'a Binding,
    /// The training RNG; `None` for an eval pass, which has no dropout sites.
    rng: Option<&'a mut R>,
}

impl<'a, R: Rng> Tape<'a, R> {
    /// Records onto `g` with parameters bound by `p`; `rng` drives the
    /// dropout sites of a training pass.
    pub fn new(g: &'a mut Graph, p: &'a Binding, rng: Option<&'a mut R>) -> Self {
        Tape { g, p, rng }
    }
}

impl<'a> Tape<'a> {
    /// An eval pass on the tape: no RNG, no dropout sites.
    pub fn eval(g: &'a mut Graph, p: &'a Binding) -> Self {
        Tape { g, p, rng: None }
    }
}

impl<R: Rng> Exec for Tape<'_, R> {
    type V = Var;

    fn shape<'a>(&'a self, v: &'a Var) -> &'a [usize] {
        self.g.shape(*v)
    }

    fn param(&mut self, id: ParamId) -> Var {
        self.p.var(id)
    }

    fn constant(&mut self, value: Tensor) -> Var {
        self.g.constant(value)
    }

    fn linear(
        &mut self,
        x: &Var,
        weight: ParamId,
        bias: ParamId,
        act: Activation,
        residual: Option<&Var>,
    ) -> Var {
        self.g.linear(*x, self.p.var(weight), Some(self.p.var(bias)), act, residual.copied())
    }

    fn layer_norm(&mut self, x: &Var, gamma: ParamId, beta: ParamId, eps: f32) -> Var {
        self.g.layer_norm(*x, self.p.var(gamma), self.p.var(beta), eps)
    }

    fn attention(
        &mut self,
        q: &Var,
        k: &Var,
        v: &Var,
        heads: usize,
        scale: f32,
        want_probs: bool,
    ) -> (Var, Option<Var>) {
        if want_probs {
            let (ctx, probs) = self.g.attention_with_probs(*q, *k, *v, heads, scale);
            (ctx, Some(probs))
        } else {
            (self.g.attention(*q, *k, *v, heads, scale), None)
        }
    }

    fn add(&mut self, a: &Var, b: &Var) -> Var {
        self.g.add(*a, *b)
    }

    fn matmul(&mut self, a: &Var, b: &Var) -> Var {
        self.g.matmul(*a, *b)
    }

    fn reshape(&mut self, a: &Var, shape: &[usize]) -> Var {
        self.g.reshape(*a, shape)
    }

    fn narrow(&mut self, a: &Var, axis: usize, start: usize, len: usize) -> Var {
        self.g.narrow(*a, axis, start, len)
    }

    fn concat(&mut self, a: &Var, b: &Var, axis: usize) -> Var {
        self.g.concat(&[*a, *b], axis)
    }

    fn mean_axis(&mut self, a: &Var, axis: usize, keepdim: bool) -> Var {
        self.g.mean_axis(*a, axis, keepdim)
    }

    fn drops(&self, site: &Dropout) -> bool {
        self.rng.is_some() && site.p() > 0.0
    }

    fn dropout(&mut self, site: &Dropout, x: Var) -> Var {
        match &mut self.rng {
            Some(rng) => site.forward(self.g, x, &mut **rng, true),
            None => x,
        }
    }
}

/// The non-recording executor: each operation is the `tsdx_tensor::ops` call
/// the tape's node makes over frozen inputs, on weights read in place.
#[derive(Debug)]
pub struct Eval<'a> {
    store: &'a ParamStore,
}

impl<'a> Eval<'a> {
    /// Runs on the values of `store`.
    pub fn new(store: &'a ParamStore) -> Self {
        Eval { store }
    }
}

impl Exec for Eval<'_> {
    type V = Tensor;

    fn shape<'a>(&'a self, v: &'a Tensor) -> &'a [usize] {
        v.shape()
    }

    fn param(&mut self, id: ParamId) -> Tensor {
        self.store.value(id).clone()
    }

    fn constant(&mut self, value: Tensor) -> Tensor {
        value
    }

    fn linear(
        &mut self,
        x: &Tensor,
        weight: ParamId,
        bias: ParamId,
        act: Activation,
        residual: Option<&Tensor>,
    ) -> Tensor {
        ops::linear(x, self.store.value(weight), Some(self.store.value(bias)), act, residual)
    }

    fn layer_norm(&mut self, x: &Tensor, gamma: ParamId, beta: ParamId, eps: f32) -> Tensor {
        ops::layer_norm(x, self.store.value(gamma), self.store.value(beta), eps)
    }

    fn attention(
        &mut self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        heads: usize,
        scale: f32,
        want_probs: bool,
    ) -> (Tensor, Option<Tensor>) {
        if want_probs {
            let (ctx, probs) = ops::attention_with_probs(q, k, v, heads, scale);
            (ctx, Some(probs))
        } else {
            (ops::attention(q, k, v, heads, scale), None)
        }
    }

    fn add(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        ops::add(a, b)
    }

    fn matmul(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        ops::matmul(a, b)
    }

    fn reshape(&mut self, a: &Tensor, shape: &[usize]) -> Tensor {
        a.reshape(shape)
    }

    fn narrow(&mut self, a: &Tensor, axis: usize, start: usize, len: usize) -> Tensor {
        ops::narrow(a, axis, start, len)
    }

    fn concat(&mut self, a: &Tensor, b: &Tensor, axis: usize) -> Tensor {
        ops::concat(&[a, b], axis)
    }

    fn mean_axis(&mut self, a: &Tensor, axis: usize, keepdim: bool) -> Tensor {
        ops::mean_axis(a, axis, keepdim)
    }

    fn drops(&self, _site: &Dropout) -> bool {
        false
    }

    fn dropout(&mut self, _site: &Dropout, x: Tensor) -> Tensor {
        x
    }
}
