//! Reverse-mode automatic differentiation on a tape of tensor operations.
//!
//! A [`Graph`] records every operation applied to its [`Var`] handles in
//! construction order, which is already a topological order. Calling
//! [`Graph::backward`] on a scalar loss walks the tape in reverse and
//! accumulates gradients for every variable that requires them.
//!
//! The tape is rebuilt for every training step (define-by-run), which keeps
//! control flow in plain Rust — loops over timesteps or layers simply record
//! more nodes.
//!
//! # Examples
//!
//! ```
//! use tsdx_tensor::{Graph, Tensor};
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![2.0], &[1]));
//! let y = g.mul(x, x); // y = x^2
//! let loss = g.sum_all(y);
//! let grads = g.backward(loss);
//! assert_eq!(grads.get(x).unwrap().data(), &[4.0]); // dy/dx = 2x
//! ```

use crate::ops;
use crate::ops::{Activation, Conv2dSpec};
use crate::shape::Dims;
use crate::Tensor;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The node index inside its graph (useful for debugging).
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Debug)]
enum Op {
    Leaf,
    Add(Var, Var),
    Mul(Var, Var),
    Neg(Var),
    Scale(Var, f32),
    AddScalar(Var),
    Matmul(Var, Var),
    Linear(LinearOp),
    Relu(Var),
    Gelu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Reshape(Var),
    Permute(Var, Dims),
    Concat(Vec<Var>, usize),
    Narrow { input: Var, axis: usize, start: usize },
    SoftmaxLast(Var),
    // The saved tensors of these two are boxed: inline, their 256 bytes
    // would set the size of every node on the tape.
    LayerNorm { x: Var, gamma: Var, beta: Var, stats: Option<Box<(Tensor, Tensor)>> },
    Attention { q: Var, k: Var, v: Var, heads: usize, scale: f32, probs: Option<Tensor> },
    SumAll(Var),
    MeanAll(Var),
    MeanAxis { input: Var, axis: usize, keepdim: bool },
    CrossEntropy { logits: Var, labels: Vec<usize>, probs: Tensor },
    BceLogits { logits: Var, targets_sigmoids: Box<(Tensor, Tensor)> },
    Conv2d { input: Var, weight: Var, spec: Conv2dSpec, cols: Tensor },
    AvgPool2d { input: Var, k: usize },
}

/// Operands of a [`Graph::linear`] node: `act(x @ w + bias) + residual`.
#[derive(Debug)]
struct LinearOp {
    x: Var,
    w: Var,
    bias: Option<Var>,
    act: Activation,
    residual: Option<Var>,
    /// `x @ w + bias` before a non-identity activation; kept only when the
    /// node needs grad (the activation's backward reads it).
    pre: Option<Tensor>,
}

impl Op {
    /// Static metric key for the backward span of this op kind.
    fn bwd_span_key(&self) -> &'static str {
        match self {
            Op::Leaf => "bwd/leaf",
            Op::Add(..) => "bwd/add",
            Op::Mul(..) => "bwd/mul",
            Op::Neg(..) => "bwd/neg",
            Op::Scale(..) => "bwd/scale",
            Op::AddScalar(..) => "bwd/add_scalar",
            Op::Matmul(..) => "bwd/matmul",
            Op::Linear(..) => "bwd/linear",
            Op::Relu(..) => "bwd/relu",
            Op::Gelu(..) => "bwd/gelu",
            Op::Sigmoid(..) => "bwd/sigmoid",
            Op::Tanh(..) => "bwd/tanh",
            Op::Reshape(..) => "bwd/reshape",
            Op::Permute(..) => "bwd/permute",
            Op::Concat(..) => "bwd/concat",
            Op::Narrow { .. } => "bwd/narrow",
            Op::SoftmaxLast(..) => "bwd/softmax",
            Op::LayerNorm { .. } => "bwd/layer_norm",
            Op::Attention { .. } => "bwd/attention",
            Op::SumAll(..) => "bwd/sum_all",
            Op::MeanAll(..) => "bwd/mean_all",
            Op::MeanAxis { .. } => "bwd/mean_axis",
            Op::CrossEntropy { .. } => "bwd/cross_entropy",
            Op::BceLogits { .. } => "bwd/bce",
            Op::Conv2d { .. } => "bwd/conv2d",
            Op::AvgPool2d { .. } => "bwd/avg_pool2d",
        }
    }
}

#[derive(Debug)]
struct Node {
    op: Op,
    value: Tensor,
    needs_grad: bool,
}

/// A tape of tensor operations supporting reverse-mode differentiation.
///
/// See the crate-level documentation for an overview and example.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

/// Gradients produced by [`Graph::backward`], indexed by [`Var`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `v`, if `v` required one and was reached.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Takes ownership of the gradient for `v`, leaving `None` behind.
    pub fn take(&mut self, v: Var) -> Option<Tensor> {
        self.grads.get_mut(v.0).and_then(|g| g.take())
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Creates an empty tape with room for `nodes` nodes: a loop that
    /// records the same step again passes the last step's [`len`](Self::len)
    /// and the tape never reallocates while it grows.
    pub fn with_capacity(nodes: usize) -> Self {
        Graph { nodes: Vec::with_capacity(nodes) }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a differentiable input (a parameter or an input requiring
    /// sensitivity analysis).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(Op::Leaf, value, true)
    }

    /// Records a non-differentiable input (data, masks, targets).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(Op::Leaf, value, false)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Shape of the forward value of `v`.
    pub fn shape(&self, v: Var) -> &[usize] {
        self.nodes[v.0].value.shape()
    }

    fn push(&mut self, op: Op, value: Tensor, needs_grad: bool) -> Var {
        self.nodes.push(Node { op, value, needs_grad });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    fn unary(&mut self, input: Var, value: Tensor, op: Op) -> Var {
        let needs = self.needs(input);
        self.push(op, value, needs)
    }

    fn binary(&mut self, a: Var, b: Var, value: Tensor, op: Op) -> Var {
        let needs = self.needs(a) || self.needs(b);
        self.push(op, value, needs)
    }

    // ---- arithmetic -----------------------------------------------------

    /// Broadcasting addition.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = ops::add(self.value(a), self.value(b));
        self.binary(a, b, v, Op::Add(a, b))
    }

    /// Broadcasting multiplication.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = ops::mul(self.value(a), self.value(b));
        self.binary(a, b, v, Op::Mul(a, b))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = ops::neg(self.value(a));
        self.unary(a, v, Op::Neg(a))
    }

    /// Multiplication by a compile-time constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = ops::scale(self.value(a), c);
        self.unary(a, v, Op::Scale(a, c))
    }

    /// Addition of a scalar constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = ops::add_scalar(self.value(a), c);
        self.unary(a, v, Op::AddScalar(a))
    }

    /// Batched matrix multiplication (see [`ops::matmul`]).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = ops::matmul(self.value(a), self.value(b));
        self.binary(a, b, v, Op::Matmul(a, b))
    }

    /// Fused affine map `act(x @ w + bias) + residual` as **one** tape node
    /// (see [`ops::linear`]): `x` is `[..., k]`, `w` is `[k, n]`, `bias` is
    /// `[n]`, `residual` is `[..., n]`.
    ///
    /// The forward value is bit-identical to composing [`Graph::matmul`],
    /// [`Graph::add`], [`Graph::gelu`] and [`Graph::add`]. Backward yields
    /// `dx`, `dW`, `db` (column sums) and `dr = g`; a non-identity
    /// activation differentiates through its pre-activation, which the node
    /// keeps only when some input needs grad.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch (see [`ops::linear`]).
    pub fn linear(
        &mut self,
        x: Var,
        w: Var,
        bias: Option<Var>,
        act: Activation,
        residual: Option<Var>,
    ) -> Var {
        let needs = [Some(x), Some(w), bias, residual].into_iter().flatten().any(|v| self.needs(v));
        let (xv, wv) = (self.value(x), self.value(w));
        let (bv, rv) = (bias.map(|b| self.value(b)), residual.map(|r| self.value(r)));
        let (value, pre) = match act {
            Activation::Gelu if needs => {
                let z = ops::linear(xv, wv, bv, Activation::None, None);
                let y = ops::gelu(&z);
                (if let Some(r) = rv { ops::add(&y, r) } else { y }, Some(z))
            }
            _ => (ops::linear(xv, wv, bv, act, rv), None),
        };
        self.push(Op::Linear(LinearOp { x, w, bias, act, residual, pre }), value, needs)
    }

    // ---- activations -----------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = ops::relu(self.value(a));
        self.unary(a, v, Op::Relu(a))
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&mut self, a: Var) -> Var {
        let v = ops::gelu(self.value(a));
        self.unary(a, v, Op::Gelu(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = ops::sigmoid(self.value(a));
        self.unary(a, v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = ops::tanh(self.value(a));
        self.unary(a, v, Op::Tanh(a))
    }

    // ---- shape -----------------------------------------------------------

    /// Reshape (supports one `usize::MAX` wildcard, see [`Tensor::reshape`]).
    pub fn reshape(&mut self, a: Var, new_shape: &[usize]) -> Var {
        let v = self.value(a).reshape(new_shape);
        self.unary(a, v, Op::Reshape(a))
    }

    /// Dimension permutation (see [`ops::permute`]).
    pub fn permute(&mut self, a: Var, perm: &[usize]) -> Var {
        let v = ops::permute(self.value(a), perm);
        self.unary(a, v, Op::Permute(a, Dims::new(perm)))
    }

    /// Swap of the last two dimensions.
    pub fn transpose_last2(&mut self, a: Var) -> Var {
        let rank = self.shape(a).len();
        let mut perm: Dims = (0..rank).collect();
        perm.swap(rank - 2, rank - 1);
        self.permute(a, &perm)
    }

    /// Concatenation along `axis`.
    pub fn concat(&mut self, inputs: &[Var], axis: usize) -> Var {
        let tensors: Vec<&Tensor> = inputs.iter().map(|&v| self.value(v)).collect();
        let v = ops::concat(&tensors, axis);
        let needs = inputs.iter().any(|&i| self.needs(i));
        self.push(Op::Concat(inputs.to_vec(), axis), v, needs)
    }

    /// Contiguous slice along `axis` (see [`ops::narrow`]).
    pub fn narrow(&mut self, a: Var, axis: usize, start: usize, len: usize) -> Var {
        let v = ops::narrow(self.value(a), axis, start, len);
        self.unary(a, v, Op::Narrow { input: a, axis, start })
    }

    // ---- normalization / softmax ------------------------------------------

    /// Softmax over the last dimension.
    pub fn softmax_last(&mut self, a: Var) -> Var {
        let v = ops::softmax_last(self.value(a));
        self.unary(a, v, Op::SoftmaxLast(a))
    }

    /// Layer normalization over the last dimension with affine parameters.
    ///
    /// `gamma` and `beta` must be rank-1 of length `D` where `D` is the last
    /// dimension of `x`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let needs = self.needs(x) || self.needs(gamma) || self.needs(beta);
        let (xv, gv, bv) = (self.value(x), self.value(gamma), self.value(beta));
        // The row statistics exist for backward: frozen inputs skip them.
        let (value, stats) = if needs {
            let (value, mean, rstd) = ops::layer_norm_forward(xv, gv, bv, eps);
            (value, Some(Box::new((mean, rstd))))
        } else {
            (ops::layer_norm(xv, gv, bv, eps), None)
        };
        self.push(Op::LayerNorm { x, gamma, beta, stats }, value, needs)
    }

    /// Multi-head scaled-dot-product attention on unsplit projections (see
    /// [`ops::attention`]) as **one** tape node: `q` is `[..., Tq, D]`, `k`
    /// is `[..., Tk, D]`, `v` is `[..., Tk, Dv]`, `heads` divides `D` and
    /// `Dv`; the result is the merged `[..., Tq, Dv]`.
    ///
    /// The forward value is bit-identical to composing [`Graph::reshape`],
    /// [`Graph::permute`], [`Graph::matmul`], [`Graph::scale`] and
    /// [`Graph::softmax_last`], and so are the gradients: backward is the
    /// composed rule on the probabilities, which the node keeps only when
    /// some input needs grad.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatches between `q`, `k`, and `v`.
    pub fn attention(&mut self, q: Var, k: Var, v: Var, heads: usize, scale: f32) -> Var {
        self.attention_node(q, k, v, heads, scale, false).0
    }

    /// [`Graph::attention`] that also hands out the probabilities
    /// `[..., heads, Tq, Tk]`, as a constant (introspection reads them; no
    /// gradient flows through the second handle).
    pub fn attention_with_probs(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        scale: f32,
    ) -> (Var, Var) {
        let (ctx, probs) = self.attention_node(q, k, v, heads, scale, true);
        (ctx, self.constant(probs.expect("asked for")))
    }

    /// Records the node; the probabilities exist for backward and for
    /// whoever asks (`want_probs`), and are returned when they exist.
    fn attention_node(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        scale: f32,
        want_probs: bool,
    ) -> (Var, Option<Tensor>) {
        let needs = self.needs(q) || self.needs(k) || self.needs(v);
        let (qv, kv, vv) = (self.value(q), self.value(k), self.value(v));
        let (value, probs) = if needs || want_probs {
            let (value, probs) = ops::attention_with_probs(qv, kv, vv, heads, scale);
            (value, Some(probs))
        } else {
            (ops::attention(qv, kv, vv, heads, scale), None)
        };
        let node = Op::Attention { q, k, v, heads, scale, probs: probs.clone() };
        (self.push(node, value, needs), probs)
    }

    // ---- reductions -------------------------------------------------------

    /// Sum of all elements (scalar result).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = ops::sum_all(self.value(a));
        self.unary(a, v, Op::SumAll(a))
    }

    /// Mean of all elements (scalar result).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = ops::mean_all(self.value(a));
        self.unary(a, v, Op::MeanAll(a))
    }

    /// Mean over one axis.
    pub fn mean_axis(&mut self, a: Var, axis: usize, keepdim: bool) -> Var {
        let v = ops::mean_axis(self.value(a), axis, keepdim);
        self.unary(a, v, Op::MeanAxis { input: a, axis, keepdim })
    }

    // ---- losses -----------------------------------------------------------

    /// Mean cross-entropy from logits `[N, C]` against integer labels.
    pub fn cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let (loss, probs) = ops::cross_entropy_logits(self.value(logits), labels);
        let needs = self.needs(logits);
        self.push(
            Op::CrossEntropy { logits, labels: labels.to_vec(), probs },
            Tensor::scalar(loss),
            needs,
        )
    }

    /// Mean binary cross-entropy with logits against 0/1 `targets`.
    pub fn bce_logits(&mut self, logits: Var, targets: &Tensor) -> Var {
        let (loss, sigmoids) = ops::bce_with_logits(self.value(logits), targets);
        let needs = self.needs(logits);
        self.push(
            Op::BceLogits { logits, targets_sigmoids: Box::new((targets.clone(), sigmoids)) },
            Tensor::scalar(loss),
            needs,
        )
    }

    // ---- convolution ------------------------------------------------------

    /// 2-D convolution: input `[B, C, H, W]`, weight `[O, C, KH, KW]` (see
    /// [`ops::conv2d`]).
    ///
    /// The unfolded column matrix is cached for the backward pass.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between input, weight, and `spec`.
    pub fn conv2d(&mut self, input: Var, weight: Var, spec: Conv2dSpec) -> Var {
        let (out, cols) = ops::conv2d(self.value(input), self.value(weight), &spec);
        let needs = self.needs(input) || self.needs(weight);
        self.push(Op::Conv2d { input, weight, spec, cols }, out, needs)
    }

    /// Average pooling with square window `k`, stride `k`.
    pub fn avg_pool2d(&mut self, input: Var, k: usize) -> Var {
        let v = ops::avg_pool2d(self.value(input), k);
        self.unary(input, v, Op::AvgPool2d { input, k })
    }

    // ---- backward -----------------------------------------------------------

    /// Computes gradients of the scalar `loss` w.r.t. every differentiable
    /// variable reachable on the tape.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).numel(), 1, "backward requires a scalar loss");
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::full(self.value(loss).shape(), 1.0));

        for id in (0..=loss.0).rev() {
            if !self.nodes[id].needs_grad {
                grads[id] = None;
                continue;
            }
            let Some(g) = grads[id].take() else { continue };
            self.backprop_node(id, &g, &mut grads);
            // Keep the gradient available for callers (leaves and
            // intermediates alike).
            grads[id] = Some(g);
        }
        // Gradients of view ops are views themselves (e.g. a permute's
        // gradient is the inverse permute view). Materialize at the API
        // boundary so callers can rely on `Gradients::get(..).data()`.
        for g in grads.iter_mut().flatten() {
            if !g.is_contiguous() {
                *g = g.contiguous();
            }
        }
        Gradients { grads }
    }

    fn accumulate(&self, grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        match &mut grads[v.0] {
            // In-place accumulation: reuse the existing gradient buffer
            // instead of allocating a fresh sum tensor per contribution.
            Some(existing) => ops::add_assign(existing, &g),
            slot @ None => *slot = Some(g),
        }
    }

    fn backprop_node(&self, id: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        let _span = crate::metrics::span(self.nodes[id].op.bwd_span_key());
        match &self.nodes[id].op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                let ga = ops::unbroadcast(g, self.shape(*a));
                let gb = ops::unbroadcast(g, self.shape(*b));
                self.accumulate(grads, *a, ga);
                self.accumulate(grads, *b, gb);
            }
            Op::Mul(a, b) => {
                let ga = ops::unbroadcast(&ops::mul(g, self.value(*b)), self.shape(*a));
                let gb = ops::unbroadcast(&ops::mul(g, self.value(*a)), self.shape(*b));
                self.accumulate(grads, *a, ga);
                self.accumulate(grads, *b, gb);
            }
            Op::Neg(a) => self.accumulate(grads, *a, ops::neg(g)),
            Op::Scale(a, c) => self.accumulate(grads, *a, ops::scale(g, *c)),
            Op::AddScalar(a) => self.accumulate(grads, *a, g.clone()),
            Op::Matmul(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                // dA = g @ B^T ; dB = A^T @ g, reduced over broadcast batches.
                let bt = ops::transpose_last2(bv);
                let at = ops::transpose_last2(av);
                let da = ops::matmul(g, &bt);
                let db = ops::matmul(&at, g);
                self.accumulate(grads, *a, reduce_batch(&da, av.shape()));
                self.accumulate(grads, *b, reduce_batch(&db, bv.shape()));
            }
            Op::Linear(LinearOp { x, w, bias, act, residual, pre }) => {
                if let Some(r) = residual {
                    self.accumulate(grads, *r, g.clone());
                }
                // dz: gradient at the pre-activation `x·W + b`.
                let dz = match (act, pre) {
                    (Activation::None, _) => g.clone(),
                    (Activation::Gelu, Some(z)) => ops::gelu_backward(z, g),
                    (Activation::Gelu, None) => {
                        unreachable!("a node that needs grad keeps its pre-activation")
                    }
                };
                let (xv, wv) = (self.value(*x), self.value(*w));
                let (k, n) = (wv.shape()[0], wv.shape()[1]);
                if self.needs(*x) {
                    let dx = ops::matmul(&dz, &ops::transpose_last2(wv));
                    self.accumulate(grads, *x, dx);
                }
                let dz = dz.reshape(&[usize::MAX, n]);
                if self.needs(*w) {
                    let xt = ops::transpose_last2(&xv.reshape(&[usize::MAX, k]));
                    self.accumulate(grads, *w, ops::matmul(&xt, &dz));
                }
                if let Some(b) = bias {
                    self.accumulate(grads, *b, ops::sum_axis(&dz, 0, false));
                }
            }
            Op::Relu(a) => {
                self.accumulate(grads, *a, ops::relu_backward(self.value(*a), g));
            }
            Op::Gelu(a) => {
                self.accumulate(grads, *a, ops::gelu_backward(self.value(*a), g));
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[id].value;
                let dg = y.zip(g, |yv, gv| gv * yv * (1.0 - yv));
                self.accumulate(grads, *a, dg);
            }
            Op::Tanh(a) => {
                let y = &self.nodes[id].value;
                let dg = y.zip(g, |yv, gv| gv * (1.0 - yv * yv));
                self.accumulate(grads, *a, dg);
            }
            Op::Reshape(a) => {
                self.accumulate(grads, *a, g.reshape(self.shape(*a)));
            }
            Op::Permute(a, perm) => {
                let mut inv = Dims::filled(perm.len(), 0);
                for (i, &p) in perm.iter().enumerate() {
                    inv[p] = i;
                }
                self.accumulate(grads, *a, ops::permute(g, &inv));
            }
            Op::Concat(inputs, axis) => {
                let mut start = 0;
                for &inp in inputs {
                    let len = self.shape(inp)[*axis];
                    let piece = ops::narrow(g, *axis, start, len);
                    self.accumulate(grads, inp, piece);
                    start += len;
                }
            }
            Op::Narrow { input, axis, start } => {
                let back = ops::narrow_backward(g, self.shape(*input), *axis, *start);
                self.accumulate(grads, *input, back);
            }
            Op::SoftmaxLast(a) => {
                let y = &self.nodes[id].value;
                self.accumulate(grads, *a, ops::softmax_last_backward(y, g));
            }
            Op::LayerNorm { x, gamma, beta, stats } => {
                let (mean, rstd) =
                    &**stats.as_ref().expect("a node that needs grad keeps its row statistics");
                let (dx, dgamma, dbeta) =
                    layer_norm_backward(self.value(*x), self.value(*gamma), mean, rstd, g);
                self.accumulate(grads, *x, dx);
                self.accumulate(grads, *gamma, dgamma);
                self.accumulate(grads, *beta, dbeta);
            }
            Op::Attention { q, k, v, heads, scale, probs } => {
                let probs = probs.as_ref().expect("a node that needs grad keeps its probabilities");
                let (dq, dk, dv) = ops::attention_backward(
                    probs,
                    self.value(*q),
                    self.value(*k),
                    self.value(*v),
                    *heads,
                    *scale,
                    g,
                );
                self.accumulate(grads, *q, dq);
                self.accumulate(grads, *k, dk);
                self.accumulate(grads, *v, dv);
            }
            Op::SumAll(a) => {
                let scalar = g.item();
                self.accumulate(grads, *a, Tensor::full(self.shape(*a), scalar));
            }
            Op::MeanAll(a) => {
                let n = self.value(*a).numel() as f32;
                let scalar = g.item() / n;
                self.accumulate(grads, *a, Tensor::full(self.shape(*a), scalar));
            }
            Op::MeanAxis { input, axis, keepdim } => {
                let d = self.shape(*input)[*axis] as f32;
                let back = spread_axis(g, self.shape(*input), *axis, *keepdim, 1.0 / d);
                self.accumulate(grads, *input, back);
            }
            Op::CrossEntropy { logits, labels, probs } => {
                let back = ops::cross_entropy_logits_backward(probs, labels, g.item());
                self.accumulate(grads, *logits, back);
            }
            Op::BceLogits { logits, targets_sigmoids } => {
                let (targets, sigmoids) = &**targets_sigmoids;
                let back = ops::bce_with_logits_backward(sigmoids, targets, g.item());
                self.accumulate(grads, *logits, back);
            }
            Op::Conv2d { input, weight, spec, cols } => {
                let ish = Dims::new(self.shape(*input));
                let wsh = Dims::new(self.shape(*weight));
                let (o, ckk) = (wsh[0], wsh[1] * spec.kh * spec.kw);
                let (oh, ow) = spec.out_size(ish[2], ish[3]);
                let gmat = g.reshape(&[ish[0], o, oh * ow]);
                // dW = sum_b g_b @ cols_b^T
                let colst = ops::transpose_last2(cols);
                let dw_b = ops::matmul(&gmat, &colst); // [B, O, CKK]
                let dw = ops::sum_axis(&dw_b, 0, false).reshape(&wsh);
                // dX = col2im(W^T @ g)
                let wmat = self.value(*weight).reshape(&[o, ckk]);
                let wt = ops::transpose_last2(&wmat);
                let dcols = ops::matmul(&wt, &gmat); // [B, CKK, OHOW]
                let dx = ops::col2im(&dcols, spec, ish[1], ish[2], ish[3]);
                self.accumulate(grads, *weight, dw);
                self.accumulate(grads, *input, dx);
            }
            Op::AvgPool2d { input, k } => {
                let ish = self.shape(*input);
                let back = ops::avg_pool2d_backward(g, *k, ish[2], ish[3]);
                self.accumulate(grads, *input, back);
            }
        }
    }
}

/// Reduces matmul gradients over broadcast batch dimensions back to the
/// operand's shape.
fn reduce_batch(grad: &Tensor, target: &[usize]) -> Tensor {
    if grad.shape() == target {
        grad.clone()
    } else {
        ops::unbroadcast(grad, target)
    }
}

/// Broadcasts an axis-reduced gradient back over `orig_shape`, scaling by
/// `factor` (1/d for means).
fn spread_axis(
    g: &Tensor,
    orig_shape: &[usize],
    axis: usize,
    keepdim: bool,
    factor: f32,
) -> Tensor {
    let outer: usize = orig_shape[..axis].iter().product();
    let d = orig_shape[axis];
    let inner: usize = orig_shape[axis + 1..].iter().product();
    let g = g.contiguous(); // the slice kernel below needs packed rows
    let gd = g.data();
    debug_assert_eq!(gd.len(), outer * inner, "reduced grad size mismatch (keepdim={keepdim})");
    let mut out = crate::workspace::take_reserve(outer * d * inner);
    for o in 0..outer {
        let row = &gd[o * inner..(o + 1) * inner];
        for _ in 0..d {
            out.extend(row.iter().map(|&v| v * factor));
        }
    }
    Tensor::from_vec(out, orig_shape)
}

/// Layer-norm backward over the last dimension.
fn layer_norm_backward(
    x: &Tensor,
    gamma: &Tensor,
    mean: &Tensor,
    rstd: &Tensor,
    g: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let d = *x.shape().last().expect("rank >= 1");
    let rows = x.numel() / d;
    let (x, g) = (x.contiguous(), g.contiguous());
    let xd = x.data();
    let gd = g.data();
    let gam = gamma.to_vec();
    let md = mean.data();
    let rd = rstd.data();
    let mut dx = crate::workspace::take_zeroed(x.numel());
    let mut dgamma = crate::workspace::take_zeroed(d);
    let mut dbeta = crate::workspace::take_zeroed(d);
    for r in 0..rows {
        let xrow = &xd[r * d..(r + 1) * d];
        let grow = &gd[r * d..(r + 1) * d];
        let (m, rs) = (md[r], rd[r]);
        // xhat and the two row means needed by the dx formula.
        let mut mean_dxhat = 0.0;
        let mut mean_dxhat_xhat = 0.0;
        for i in 0..d {
            let xhat = (xrow[i] - m) * rs;
            let dxhat = grow[i] * gam[i];
            dgamma[i] += grow[i] * xhat;
            dbeta[i] += grow[i];
            mean_dxhat += dxhat;
            mean_dxhat_xhat += dxhat * xhat;
        }
        mean_dxhat /= d as f32;
        mean_dxhat_xhat /= d as f32;
        let drow = &mut dx[r * d..(r + 1) * d];
        for i in 0..d {
            let xhat = (xrow[i] - m) * rs;
            let dxhat = grow[i] * gam[i];
            drow[i] = rs * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat);
        }
    }
    (Tensor::from_vec(dx, x.shape()), Tensor::from_vec(dgamma, &[d]), Tensor::from_vec(dbeta, &[d]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tape_node_stays_small() {
        // Its value plus the largest inline payload (a linear's `pre`); a
        // variant that saves two tensors inline would make it 424.
        assert!(std::mem::size_of::<Node>() <= 320, "{}", std::mem::size_of::<Node>());
    }

    #[test]
    fn simple_chain_rule() {
        // f = sum((x * 3 + 1)^2), df/dx = 2*(3x+1)*3
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0, -2.0], &[2]));
        let a = g.scale(x, 3.0);
        let b = g.add_scalar(a, 1.0);
        let c = g.mul(b, b);
        let loss = g.sum_all(c);
        let grads = g.backward(loss);
        let dx = grads.get(x).unwrap();
        assert_eq!(dx.data(), &[24.0, -30.0]);
    }

    #[test]
    fn constants_get_no_grad() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0));
        let c = g.constant(Tensor::scalar(5.0));
        let y = g.mul(x, c);
        let grads = g.backward(y);
        assert_eq!(grads.get(x).unwrap().item(), 5.0);
        assert!(grads.get(c).is_none());
    }

    #[test]
    fn gradient_accumulates_on_reuse() {
        // f = x*x + x  ->  df/dx = 2x + 1
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(3.0));
        let sq = g.mul(x, x);
        let f = g.add(sq, x);
        let grads = g.backward(f);
        assert_eq!(grads.get(x).unwrap().item(), 7.0);
    }

    #[test]
    fn matmul_gradients() {
        // loss = sum(A @ B); dA = ones @ B^T, dB = A^T @ ones.
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = g.leaf(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn broadcast_bias_grad_is_summed() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::arange(6).reshape(&[2, 3]));
        let bias = g.leaf(Tensor::zeros(&[3]));
        let y = g.add(x, bias);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(bias).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn cross_entropy_leaf_grad_shape() {
        let mut g = Graph::new();
        let logits = g.leaf(Tensor::zeros(&[2, 3]));
        let loss = g.cross_entropy(logits, &[0, 2]);
        let grads = g.backward(loss);
        let dl = grads.get(logits).unwrap();
        assert_eq!(dl.shape(), &[2, 3]);
        // Each row sums to zero (softmax - onehot property).
        for r in 0..2 {
            let s: f32 = dl.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn broadcast_batched_matmul_grad_reduces() {
        // a: [2,2,2] (batch), b: [2,2] shared -> db must sum over batch.
        let mut g = Graph::new();
        let a = g.constant(Tensor::ones(&[2, 2, 2]));
        let b = g.leaf(Tensor::ones(&[2, 2]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        let grads = g.backward(loss);
        assert_eq!(grads.get(b).unwrap().shape(), &[2, 2]);
        assert_eq!(grads.get(b).unwrap().data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "kernel/spec mismatch")]
    fn conv2d_rejects_a_weight_whose_kernel_disagrees_with_its_spec() {
        // A [3, 2, 1, 9] weight holds as many scalars per output channel as
        // a 3x3 kernel over two channels, so only the shape check sees it.
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[1, 2, 5, 5]));
        let w = g.leaf(Tensor::ones(&[3, 2, 1, 9]));
        g.conv2d(x, w, Conv2dSpec::new(3, 1, 1));
    }

    #[test]
    #[should_panic]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2]));
        let y = g.relu(x);
        g.backward(y);
    }
}
