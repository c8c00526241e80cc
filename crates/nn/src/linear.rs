//! Fully-connected (affine) layer.

use rand::Rng;
use tsdx_tensor::ops::Activation;
use tsdx_tensor::{Graph, Var};

use crate::exec::{Exec, Tape};
use crate::init;
use crate::params::{Binding, ParamId, ParamStore};

/// An affine map `y = x @ W + b` applied to the last dimension.
///
/// `x` may have any rank ≥ 2; the leading dimensions are treated as batch
/// dimensions (`[..., in] -> [..., out]`).
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_features: usize,
}

impl Linear {
    /// Registers a Xavier-initialized linear layer under `name`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_features: usize,
        out_features: usize,
    ) -> Self {
        let weight = store.add(
            format!("{name}.weight"),
            init::xavier_uniform(in_features, out_features, &[in_features, out_features], rng),
        );
        let bias = store.add(format!("{name}.bias"), tsdx_tensor::Tensor::zeros(&[out_features]));
        Linear { weight, bias, in_features }
    }

    /// Applies the layer on the tape: one [`Graph::linear`] node (see
    /// [`run`](Self::run)).
    ///
    /// # Panics
    ///
    /// Panics (inside the tensor ops) if the last dimension of `x` is not
    /// `in_features`.
    pub fn forward(&self, g: &mut Graph, p: &Binding, x: Var) -> Var {
        self.run(&mut Tape::eval(g, p), &x, Activation::None, None)
    }

    /// The layer with an epilogue, `act(x @ W + b) + residual`, on either
    /// executor — one operation, bit-identical to applying the activation
    /// and the residual add as separate ops. Each output row depends only on
    /// its input row, which is what keeps caching and cross-stream batching
    /// layered on top sound.
    pub fn run<E: Exec>(
        &self,
        ex: &mut E,
        x: &E::V,
        act: Activation,
        residual: Option<&E::V>,
    ) -> E::V {
        let d = *ex.shape(x).last().expect("linear input must have rank >= 1");
        assert_eq!(d, self.in_features, "linear expected {} inputs, got {d}", self.in_features);
        ex.linear(x, self.weight, self.bias, act, residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsdx_tensor::Tensor;

    #[test]
    fn forward_shape_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, &mut rng, "l", 3, 5);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::ones(&[2, 4, 3]));
        let y = lin.forward(&mut g, &p, x);
        assert_eq!(g.shape(y), &[2, 4, 5]);
    }

    #[test]
    fn zero_weight_outputs_bias() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, &mut rng, "l", 2, 2);
        // Zero the weight, set bias to [1, -1].
        store.set_value(lin.weight, Tensor::zeros(&[2, 2]));
        store.set_value(lin.bias, Tensor::from_vec(vec![1.0, -1.0], &[2]));
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::ones(&[3, 2]));
        let y = lin.forward(&mut g, &p, x);
        assert_eq!(g.value(y).data(), &[1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn gradients_flow_to_weight_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 2);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::ones(&[3, 4]));
        let y = lin.forward(&mut g, &p, x);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        let collected = store.collect_grads(&p, &grads);
        assert_eq!(collected[0].shape(), &[4, 2]);
        assert_eq!(collected[1].shape(), &[2]);
        // d loss / d bias = batch size per output.
        assert_eq!(collected[1].data(), &[3.0, 3.0]);
    }
}
