//! Layer normalization.

use tsdx_tensor::{Graph, Tensor, Var};

use crate::exec::{Exec, Tape};
use crate::params::{Binding, ParamId, ParamStore};

/// Layer normalization over the last dimension with learned affine
/// parameters (`gamma` initialized to 1, `beta` to 0).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Registers a layer norm over vectors of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add(format!("{name}.gamma"), Tensor::ones(&[dim]));
        let beta = store.add(format!("{name}.beta"), Tensor::zeros(&[dim]));
        LayerNorm { gamma, beta, eps: 1e-5 }
    }

    /// Applies the normalization on the tape.
    pub fn forward(&self, g: &mut Graph, p: &Binding, x: Var) -> Var {
        self.run(&mut Tape::eval(g, p), &x)
    }

    /// Applies the normalization on either executor.
    pub fn run<E: Exec>(&self, ex: &mut E, x: &E::V) -> E::V {
        ex.layer_norm(x, self.gamma, self.beta, self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_rows_are_standardized() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x =
            g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0], &[2, 4]));
        let y = ln.forward(&mut g, &p, x);
        let yd = g.value(y);
        for r in 0..2 {
            let row = &yd.data()[r * 4..(r + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn affine_params_scale_and_shift() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 2);
        store.set_value(ln.gamma, Tensor::from_vec(vec![2.0, 2.0], &[2]));
        store.set_value(ln.beta, Tensor::from_vec(vec![10.0, 10.0], &[2]));
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]));
        let y = ln.forward(&mut g, &p, x);
        let out = g.value(y).data().to_vec();
        // Normalized row is ~[-1, 1]; scaled by 2, shifted by 10 -> [8, 12].
        assert!((out[0] - 8.0).abs() < 0.1, "{out:?}");
        assert!((out[1] - 12.0).abs() < 0.1, "{out:?}");
    }
}
