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
mod simd;

pub use attention::{attention, attention_with_probs};
pub use conv::{avg_pool2d, conv2d, Conv2dSpec};
pub use elementwise::{
    add, add_scalar, binary_broadcast, gelu, mul, neg, relu, scale, sigmoid, tanh, unbroadcast,
};
pub use loss::{bce_with_logits, cross_entropy_logits};
pub use matmul::{linear, matmul, Activation};
pub use norm::{layer_norm, layer_norm_forward};
pub use reduce::{argmax_last, mean_all, mean_axis, softmax_last, sum_all, sum_axis};
pub use shapeops::{concat, narrow, permute, transpose_last2};

pub(crate) use attention::attention_backward;
pub(crate) use conv::{avg_pool2d_backward, col2im};
pub(crate) use elementwise::{add_assign, gelu_backward, relu_backward};
pub(crate) use loss::{bce_with_logits_backward, cross_entropy_logits_backward};
pub(crate) use reduce::softmax_last_backward;
pub(crate) use shapeops::narrow_backward;
pub(crate) use simd::avx512f;
