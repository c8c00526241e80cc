//! Pure (non-autograd) tensor operations.
//!
//! Every function here is a pure forward computation: inputs are borrowed,
//! a fresh [`Tensor`](crate::Tensor) is returned. The autograd layer in
//! [`Graph`](crate::Graph) builds on these kernels and adds the corresponding
//! backward rules.

mod attention;
mod conv;
mod elementwise;
mod loss;
mod matmul;
mod norm;
mod reduce;
mod shapeops;

pub use attention::{attention, attention_backward, attention_with_probs};
pub use conv::{
    avg_pool2d, avg_pool2d_backward, col2im, conv2d, im2col, max_pool2d, max_pool2d_backward,
    pad2d, Conv2dSpec,
};
pub use elementwise::{
    add, add_assign, add_scalar, binary_broadcast, div, exp, gelu, gelu_backward, ln, mul, neg,
    relu, relu_backward, scale, sigmoid, sqrt, sub, tanh, unbroadcast,
};
pub use loss::{
    bce_with_logits, bce_with_logits_backward, cross_entropy_logits, cross_entropy_logits_backward,
};
pub use matmul::{linear, matmul, Activation};
pub use norm::{layer_norm, layer_norm_forward};
pub use reduce::{
    argmax_last, log_softmax_last, max_axis, mean_all, mean_axis, softmax_last, sum_all, sum_axis,
};
pub use shapeops::{concat, index_select, narrow, permute, slice, split, stack, transpose_last2};

pub(crate) use reduce::{log_softmax_last_backward, softmax_last_backward};
pub(crate) use shapeops::{index_select_backward, narrow_backward};
