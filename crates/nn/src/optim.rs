//! The AdamW optimizer, gradient clipping, and learning-rate schedules.

use tsdx_tensor::Tensor;

use crate::params::ParamStore;

/// Rescales `grads` so their global L2 norm is at most `max_norm`.
///
/// Returns the pre-clipping norm (useful for logging divergence).
pub fn clip_global_norm(grads: &mut [Tensor], max_norm: f32) -> f32 {
    let sq: f32 = grads.iter().map(|g| g.data().iter().map(|&v| v * v).sum::<f32>()).sum();
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        for g in grads.iter_mut() {
            for v in g.data_mut() {
                *v *= s;
            }
        }
    }
    norm
}

/// AdamW: Adam with decoupled weight decay (Loshchilov & Hutter).
#[derive(Debug, Clone)]
pub struct AdamW {
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u32,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl AdamW {
    /// Creates AdamW with the standard betas `(0.9, 0.999)`.
    pub fn new(weight_decay: f32) -> Self {
        AdamW {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u32 {
        self.t
    }

    /// Snapshots the optimizer state for checkpointing.
    ///
    /// Moment slots that have never been touched (a parameter that has not
    /// taken a step yet) materialize as zero tensors of the parameter's
    /// shape — exactly what [`AdamW::step`] would have used, so a restored
    /// optimizer continues bit-identically.
    pub fn export_state(&self, store: &ParamStore) -> AdamWState {
        let moment = |slots: &[Option<Tensor>]| -> Vec<Tensor> {
            store
                .ids()
                .enumerate()
                .map(|(i, id)| {
                    slots
                        .get(i)
                        .and_then(|s| s.clone())
                        .unwrap_or_else(|| Tensor::zeros(store.value(id).shape()))
                })
                .collect()
        };
        AdamWState { t: self.t, m: moment(&self.m), v: moment(&self.v) }
    }

    /// Restores a snapshot taken by [`AdamW::export_state`].
    ///
    /// # Panics
    ///
    /// Panics when the snapshot's moment counts disagree with each other
    /// (a malformed snapshot — shape validation against the parameter
    /// store happens at checkpoint load time).
    pub fn import_state(&mut self, state: AdamWState) {
        assert_eq!(state.m.len(), state.v.len(), "m/v moment count mismatch");
        self.t = state.t;
        self.m = state.m.into_iter().map(Some).collect();
        self.v = state.v.into_iter().map(Some).collect();
    }
}

/// A serializable snapshot of [`AdamW`]'s state (step count and first/second
/// moments aligned with a [`ParamStore`]'s registration order).
#[derive(Debug, Clone, PartialEq)]
pub struct AdamWState {
    /// Bias-correction step count.
    pub t: u32,
    /// First moments, one per parameter.
    pub m: Vec<Tensor>,
    /// Second moments, one per parameter.
    pub v: Vec<Tensor>,
}

impl AdamW {
    /// Applies one update step with learning rate `lr`.
    ///
    /// `grads` must be aligned with the store's registration order, as
    /// produced by [`ParamStore::collect_grads`].
    pub fn step(&mut self, store: &mut ParamStore, grads: &[Tensor], lr: f32) {
        assert_eq!(grads.len(), store.len(), "gradient count mismatch");
        self.m.resize(grads.len(), None);
        self.v.resize(grads.len(), None);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
            let g = &grads[i];
            let m_prev = self.m[i].take().unwrap_or_else(|| Tensor::zeros(g.shape()));
            let v_prev = self.v[i].take().unwrap_or_else(|| Tensor::zeros(g.shape()));
            let m = m_prev.zip(g, |mv, gv| self.beta1 * mv + (1.0 - self.beta1) * gv);
            let v = v_prev.zip(g, |vv, gv| self.beta2 * vv + (1.0 - self.beta2) * gv * gv);

            let mut new_val = Vec::with_capacity(g.numel());
            {
                let p = store.value(id).data();
                let md = m.data();
                let vd = v.data();
                for j in 0..p.len() {
                    let mhat = md[j] / bc1;
                    let vhat = vd[j] / bc2;
                    let mut x = p[j] - lr * mhat / (vhat.sqrt() + self.eps);
                    // Decoupled decay.
                    x -= lr * self.weight_decay * p[j];
                    new_val.push(x);
                }
            }
            let shape = store.value(id).shape().to_vec();
            store.set_value(id, Tensor::from_vec(new_val, &shape));
            self.m[i] = Some(m);
            self.v[i] = Some(v);
        }
    }
}

/// Learning-rate schedule evaluated per optimizer step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// A fixed learning rate.
    Constant(f32),
    /// Linear warmup to `base` over `warmup` steps, then cosine decay to
    /// `min` at `total` steps.
    WarmupCosine {
        /// Peak learning rate reached after warmup.
        base: f32,
        /// Number of linear-warmup steps.
        warmup: u32,
        /// Total steps over which the cosine decays.
        total: u32,
        /// Floor learning rate after `total`.
        min: f32,
    },
}

impl LrSchedule {
    /// Learning rate at `step` (0-indexed).
    pub fn lr(&self, step: u32) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::WarmupCosine { base, warmup, total, min } => {
                if warmup > 0 && step < warmup {
                    return base * (step + 1) as f32 / warmup as f32;
                }
                if step >= total {
                    return min;
                }
                let span = (total - warmup).max(1) as f32;
                let progress = (step - warmup) as f32 / span;
                min + 0.5 * (base - min) * (1.0 + (std::f32::consts::PI * progress).cos())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.add("x", Tensor::from_vec(vec![5.0, -3.0], &[2]));
        s
    }

    /// Gradient of f(x) = 0.5 * |x|^2 is x itself.
    fn quad_grad(store: &ParamStore) -> Vec<Tensor> {
        store.iter().map(|(_, t)| t.clone()).collect()
    }

    #[test]
    fn adamw_converges_on_quadratic() {
        let mut store = quadratic_store();
        let mut opt = AdamW::new(0.0);
        for _ in 0..300 {
            let g = quad_grad(&store);
            opt.step(&mut store, &g, 0.05);
        }
        let x = store.iter().next().unwrap().1;
        assert!(x.data().iter().all(|&v| v.abs() < 1e-2), "{x:?}");
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn adamw_weight_decay_shrinks_params_without_grads() {
        let mut store = quadratic_store();
        let mut opt = AdamW::new(0.1);
        let zero = vec![Tensor::zeros(&[2])];
        let before = store.iter().next().unwrap().1.clone();
        opt.step(&mut store, &zero, 0.1);
        let after = store.iter().next().unwrap().1;
        for (b, a) in before.data().iter().zip(after.data()) {
            assert!(a.abs() < b.abs(), "decay should shrink magnitude");
        }
    }

    #[test]
    fn adamw_state_roundtrip_is_bit_identical() {
        let mut store_a = quadratic_store();
        let mut opt_a = AdamW::new(0.01);
        for _ in 0..7 {
            let g = quad_grad(&store_a);
            opt_a.step(&mut store_a, &g, 0.05);
        }
        // Snapshot mid-run, restore into a fresh optimizer, and continue
        // both: every subsequent step must agree bit-for-bit.
        let mut store_b = store_a.clone();
        let mut opt_b = AdamW::new(0.01);
        opt_b.import_state(opt_a.export_state(&store_a));
        assert_eq!(opt_b.steps(), 7);
        for _ in 0..5 {
            let ga = quad_grad(&store_a);
            opt_a.step(&mut store_a, &ga, 0.05);
            let gb = quad_grad(&store_b);
            opt_b.step(&mut store_b, &gb, 0.05);
        }
        for (a, b) in store_a.iter().zip(store_b.iter()) {
            assert_eq!(a.1.data(), b.1.data(), "resumed optimizer diverged on {}", a.0);
        }
    }

    #[test]
    fn adamw_export_before_any_step_is_zeros() {
        let store = quadratic_store();
        let opt = AdamW::new(0.0);
        let s = opt.export_state(&store);
        assert_eq!(s.t, 0);
        assert_eq!(s.m.len(), 1);
        assert!(s.m[0].data().iter().chain(s.v[0].data()).all(|&x| x == 0.0));
    }

    #[test]
    fn clip_reduces_large_norms_only() {
        let mut big = vec![Tensor::from_vec(vec![3.0, 4.0], &[2])];
        let n = clip_global_norm(&mut big, 1.0);
        assert!((n - 5.0).abs() < 1e-6);
        let clipped: f32 = big[0].data().iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((clipped - 1.0).abs() < 1e-5);

        let mut small = vec![Tensor::from_vec(vec![0.3, 0.4], &[2])];
        clip_global_norm(&mut small, 1.0);
        assert_eq!(small[0].data(), &[0.3, 0.4]);
    }

    #[test]
    fn warmup_cosine_shape() {
        let s = LrSchedule::WarmupCosine { base: 1.0, warmup: 10, total: 110, min: 0.1 };
        // Rises during warmup.
        assert!(s.lr(0) < s.lr(5));
        assert!(s.lr(5) < s.lr(9));
        assert!((s.lr(9) - 1.0).abs() < 1e-6);
        // Decays after warmup.
        assert!(s.lr(50) < 1.0);
        assert!(s.lr(100) < s.lr(50));
        // Bottoms out at min.
        assert!((s.lr(1000) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn constant_schedule() {
        assert_eq!(LrSchedule::Constant(0.3).lr(0), 0.3);
        assert_eq!(LrSchedule::Constant(0.3).lr(999), 0.3);
    }
}
