//! Convolutional layer wrapper.

use rand::Rng;
use tsdx_tensor::ops::Conv2dSpec;
use tsdx_tensor::{Graph, Tensor, Var};

use crate::init;
use crate::params::{Binding, ParamId, ParamStore};

/// A 2-D convolution layer with bias: `[B, C, H, W] -> [B, O, OH, OW]`.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: ParamId,
    bias: ParamId,
    spec: Conv2dSpec,
    out_channels: usize,
}

impl Conv2d {
    /// Registers a Kaiming-initialized convolution under `name`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        spec: Conv2dSpec,
    ) -> Self {
        let fan_in = in_channels * spec.kh * spec.kw;
        let weight = store.add(
            format!("{name}.weight"),
            init::kaiming_normal(fan_in, &[out_channels, in_channels, spec.kh, spec.kw], rng),
        );
        let bias = store.add(format!("{name}.bias"), Tensor::zeros(&[out_channels]));
        Conv2d { weight, bias, spec, out_channels }
    }

    /// Applies the convolution plus per-channel bias.
    pub fn forward(&self, g: &mut Graph, p: &Binding, x: Var) -> Var {
        let y = g.conv2d(x, p.var(self.weight), self.spec);
        // Broadcast bias [O] as [1, O, 1, 1].
        let b = p.var(self.bias);
        let b = g.reshape(b, &[1, self.out_channels, 1, 1]);
        g.add(y, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(&mut store, &mut rng, "c", 3, 8, Conv2dSpec::new(3, 1, 1));
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::zeros(&[2, 3, 8, 8]));
        let y = conv.forward(&mut g, &p, x);
        assert_eq!(g.shape(y), &[2, 8, 8, 8]);
    }

    #[test]
    fn bias_shifts_every_pixel_of_its_channel() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv2d::new(&mut store, &mut rng, "c", 1, 2, Conv2dSpec::new(1, 1, 0));
        store.set_value(conv.weight, Tensor::zeros(&[2, 1, 1, 1]));
        store.set_value(conv.bias, Tensor::from_vec(vec![3.0, -1.0], &[2]));
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::ones(&[1, 1, 2, 2]));
        let y = conv.forward(&mut g, &p, x);
        let v = g.value(y);
        assert!(v.data()[..4].iter().all(|&z| z == 3.0));
        assert!(v.data()[4..].iter().all(|&z| z == -1.0));
    }

    #[test]
    fn gradients_reach_weight_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let conv = Conv2d::new(&mut store, &mut rng, "c", 2, 3, Conv2dSpec::new(3, 1, 1));
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 0.1).sin()));
        let y = conv.forward(&mut g, &p, x);
        let loss = g.mean_all(y);
        let grads = g.backward(loss);
        let collected = store.collect_grads(&p, &grads);
        assert!(collected[0].data().iter().any(|&v| v != 0.0));
        assert!(collected[1].data().iter().any(|&v| v != 0.0));
    }
}
