//! Gated recurrent unit (GRU) for temporal aggregation baselines.

use rand::Rng;
use tsdx_tensor::{Graph, Tensor, Var};

use crate::init;
use crate::params::{Binding, ParamId, ParamStore};

/// A single-layer GRU consuming `[B, T, D]` sequences.
///
/// The recurrence is unrolled onto the autograd tape, so backpropagation
/// through time falls out of the ordinary backward pass.
#[derive(Debug, Clone)]
pub struct Gru {
    // Input-to-hidden and hidden-to-hidden weights for the three gates.
    wxz: ParamId,
    whz: ParamId,
    bz: ParamId,
    wxr: ParamId,
    whr: ParamId,
    br: ParamId,
    wxh: ParamId,
    whh: ParamId,
    bh: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl Gru {
    /// Registers a GRU mapping `input_dim` features to a `hidden_dim` state.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
    ) -> Self {
        let mut w = |suffix: &str, rows: usize| {
            store.add(
                format!("{name}.{suffix}"),
                init::xavier_uniform(rows, hidden_dim, &[rows, hidden_dim], rng),
            )
        };
        let wxz = w("wxz", input_dim);
        let whz = w("whz", hidden_dim);
        let wxr = w("wxr", input_dim);
        let whr = w("whr", hidden_dim);
        let wxh = w("wxh", input_dim);
        let whh = w("whh", hidden_dim);
        let bz = store.add(format!("{name}.bz"), Tensor::zeros(&[hidden_dim]));
        let br = store.add(format!("{name}.br"), Tensor::zeros(&[hidden_dim]));
        let bh = store.add(format!("{name}.bh"), Tensor::zeros(&[hidden_dim]));
        Gru { wxz, whz, bz, wxr, whr, br, wxh, whh, bh, input_dim, hidden_dim }
    }

    /// Runs the GRU over `x` (`[B, T, D]`), returning the final hidden state
    /// `[B, H]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[B, T, D]` with `T >= 1` and `D == input_dim`.
    pub fn forward(&self, g: &mut Graph, p: &Binding, x: Var) -> Var {
        let sh = g.shape(x).to_vec();
        assert_eq!(sh.len(), 3, "GRU input must be [B, T, D]");
        let (b, t, d) = (sh[0], sh[1], sh[2]);
        assert_eq!(d, self.input_dim, "GRU expected {} inputs, got {d}", self.input_dim);
        assert!(t >= 1, "GRU needs at least one timestep");

        let mut h = g.constant(Tensor::zeros(&[b, self.hidden_dim]));
        for step in 0..t {
            let xt = g.narrow(x, 1, step, 1);
            let xt = g.reshape(xt, &[b, d]);

            let z = self.gate(g, p, xt, h, self.wxz, self.whz, self.bz);
            let z = g.sigmoid(z);
            let r = self.gate(g, p, xt, h, self.wxr, self.whr, self.br);
            let r = g.sigmoid(r);

            let rh = g.mul(r, h);
            let cand = {
                let xi = g.matmul(xt, p.var(self.wxh));
                let hi = g.matmul(rh, p.var(self.whh));
                let s = g.add(xi, hi);
                let s = g.add(s, p.var(self.bh));
                g.tanh(s)
            };

            // h = (1 - z) * h + z * cand
            let one_minus_z = {
                let nz = g.neg(z);
                g.add_scalar(nz, 1.0)
            };
            let keep = g.mul(one_minus_z, h);
            let update = g.mul(z, cand);
            h = g.add(keep, update);
        }
        h
    }

    #[allow(clippy::too_many_arguments)]
    fn gate(
        &self,
        g: &mut Graph,
        p: &Binding,
        xt: Var,
        h: Var,
        wx: ParamId,
        wh: ParamId,
        b: ParamId,
    ) -> Var {
        let xi = g.matmul(xt, p.var(wx));
        let hi = g.matmul(h, p.var(wh));
        let s = g.add(xi, hi);
        g.add(s, p.var(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(d: usize, h: usize) -> (ParamStore, Gru) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let gru = Gru::new(&mut store, &mut rng, "gru", d, h);
        (store, gru)
    }

    #[test]
    fn output_shape() {
        let (store, gru) = setup(3, 5);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::from_fn(&[2, 4, 3], |i| (i as f32 * 0.1).sin()));
        let h = gru.forward(&mut g, &p, x);
        assert_eq!(g.shape(h), &[2, 5]);
    }

    #[test]
    fn hidden_state_stays_bounded() {
        // tanh/sigmoid gating keeps |h| <= 1.
        let (store, gru) = setup(2, 4);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::from_fn(&[1, 20, 2], |i| ((i * 37) % 13) as f32 - 6.0));
        let h = gru.forward(&mut g, &p, x);
        assert!(g.value(h).max() <= 1.0 && g.value(h).min() >= -1.0);
    }

    #[test]
    fn zero_input_zero_state_stays_zeroish() {
        let (store, gru) = setup(2, 3);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.constant(Tensor::zeros(&[1, 3, 2]));
        let h = gru.forward(&mut g, &p, x);
        // With zero biases, candidate is 0, so h stays exactly 0.
        assert!(g.value(h).data().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn gradients_flow_through_time() {
        let (store, gru) = setup(2, 3);
        let mut g = Graph::new();
        let p = store.bind(&mut g);
        let x = g.leaf(Tensor::from_fn(&[1, 5, 2], |i| (i as f32 * 0.2).cos()));
        let h = gru.forward(&mut g, &p, x);
        let loss = g.mean_all(h);
        let grads = g.backward(loss);
        let dx = grads.get(x).unwrap();
        // The earliest timestep must still receive gradient signal.
        let first = &dx.data()[..2];
        assert!(first.iter().any(|&v| v.abs() > 1e-8), "no BPTT signal: {first:?}");
    }

    #[test]
    fn gradcheck_small_gru() {
        let (store, gru) = setup(2, 2);
        let x = Tensor::from_fn(&[1, 3, 2], |i| (i as f32 * 0.29).sin() * 0.5);
        tsdx_tensor::grad_check::assert_gradients(&[x], 1e-2, 2e-2, |g, v| {
            let p = store.bind_frozen(g);
            let h = gru.forward(g, &p, v[0]);
            g.mean_all(h)
        });
    }
}
