//! Numerical gradient checking utilities.
//!
//! These are the workhorse of the test suite: any differentiable function
//! built on a [`crate::Graph`] can be validated against a
//! central-difference approximation.

use crate::{Graph, Tensor, Var};

/// Result of a gradient check: the largest absolute and relative errors seen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numerical gradients.
    pub max_abs_err: f32,
    /// Largest relative difference (normalized by magnitude, floored at 1).
    pub max_rel_err: f32,
}

impl GradCheckReport {
    /// True when both error measures are under `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_err <= tol || self.max_rel_err <= tol
    }
}

/// Checks the analytic gradient of `f` at `inputs` against central
/// differences.
///
/// `f` receives a fresh [`Graph`] and leaf [`Var`]s for each input (in the
/// same order) and must return a scalar loss variable. `eps` is the
/// perturbation step (1e-2..1e-3 works well in `f32`).
///
/// Returns one report per input tensor.
///
/// # Panics
///
/// Panics if `f` does not return a scalar, or if any analytic gradient is
/// missing for an input.
pub fn check_gradients(
    inputs: &[Tensor],
    eps: f32,
    f: impl Fn(&mut Graph, &[Var]) -> Var,
) -> Vec<GradCheckReport> {
    // Analytic pass.
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|t| g.leaf(t.clone())).collect();
    let loss = f(&mut g, &vars);
    let grads = g.backward(loss);
    let analytic: Vec<Tensor> = vars
        .iter()
        .map(|&v| grads.get(v).cloned().unwrap_or_else(|| panic!("missing gradient for input")))
        .collect();

    let eval = |perturbed: &[Tensor]| -> f32 {
        let mut g = Graph::new();
        let vars: Vec<Var> = perturbed.iter().map(|t| g.leaf(t.clone())).collect();
        let loss = f(&mut g, &vars);
        g.value(loss).item()
    };

    let mut reports = Vec::with_capacity(inputs.len());
    for (ti, t) in inputs.iter().enumerate() {
        let mut max_abs: f32 = 0.0;
        let mut max_rel: f32 = 0.0;
        for i in 0..t.numel() {
            let mut plus: Vec<Tensor> = inputs.to_vec();
            let mut minus: Vec<Tensor> = inputs.to_vec();
            plus[ti].data_mut()[i] += eps;
            minus[ti].data_mut()[i] -= eps;
            let num = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            let ana = analytic[ti].data()[i];
            let abs = (num - ana).abs();
            let rel = abs / num.abs().max(ana.abs()).max(1.0);
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(rel);
        }
        reports.push(GradCheckReport { max_abs_err: max_abs, max_rel_err: max_rel });
    }
    reports
}

/// Asserts that every input's gradient check passes with tolerance `tol`.
///
/// # Panics
///
/// Panics with a diagnostic when any check fails.
pub fn assert_gradients(
    inputs: &[Tensor],
    eps: f32,
    tol: f32,
    f: impl Fn(&mut Graph, &[Var]) -> Var,
) {
    let reports = check_gradients(inputs, eps, f);
    for (i, r) in reports.iter().enumerate() {
        assert!(
            r.passes(tol),
            "gradient check failed for input {i}: abs={} rel={} (tol={tol})",
            r.max_abs_err,
            r.max_rel_err
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Activation, Conv2dSpec};

    fn pseudo(shape: &[usize], seed: u32) -> Tensor {
        // Deterministic pseudo-random values in roughly [-1, 1].
        Tensor::from_fn(shape, |i| {
            let x = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed.wrapping_mul(40_503));
            ((x >> 8) as f32 / (1u32 << 24) as f32) * 2.0 - 1.0
        })
    }

    #[test]
    fn elementwise_composite() {
        let x = pseudo(&[2, 3], 1);
        let y = pseudo(&[2, 3], 2);
        assert_gradients(&[x, y], 1e-2, 1e-2, |g, v| {
            let p = g.mul(v[0], v[1]);
            let q = g.tanh(p);
            let r = g.sigmoid(v[0]);
            let s = g.add(q, r);
            g.mean_all(s)
        });
    }

    #[test]
    fn matmul_chain() {
        let a = pseudo(&[3, 4], 5);
        let b = pseudo(&[4, 2], 6);
        assert_gradients(&[a, b], 1e-2, 1e-2, |g, v| {
            let c = g.matmul(v[0], v[1]);
            let r = g.relu(c);
            g.sum_all(r)
        });
    }

    #[test]
    fn softmax_grads() {
        let x = pseudo(&[2, 5], 7);
        assert_gradients(&[x], 1e-2, 1e-2, |g, v| {
            let s = g.softmax_last(v[0]);
            let sq = g.mul(s, s);
            g.sum_all(sq)
        });
    }

    #[test]
    fn layer_norm_all_three_grads() {
        let x = pseudo(&[3, 6], 8);
        let gamma = pseudo(&[6], 9).map(|v| v + 1.5);
        let beta = pseudo(&[6], 10);
        assert_gradients(&[x, gamma, beta], 1e-2, 2e-2, |g, v| {
            let y = g.layer_norm(v[0], v[1], v[2], 1e-5);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn shape_ops_grads() {
        let x = pseudo(&[2, 3, 4], 11);
        assert_gradients(&[x], 1e-2, 1e-2, |g, v| {
            let p = g.permute(v[0], &[2, 0, 1]);
            let r = g.reshape(p, &[4, 6]);
            let n = g.narrow(r, 1, 1, 3);
            let t = g.transpose_last2(n);
            g.sum_all(t)
        });
    }

    #[test]
    fn concat_grads() {
        let a = pseudo(&[2, 3], 12);
        let b = pseudo(&[2, 3], 13);
        assert_gradients(&[a, b], 1e-2, 1e-2, |g, v| {
            let c = g.concat(&[v[0], v[1]], 0); // [4,3]
            let sq = g.mul(c, c);
            g.sum_all(sq)
        });
    }

    #[test]
    fn reductions_grads() {
        let x = pseudo(&[3, 4], 14);
        assert_gradients(&[x], 1e-2, 1e-2, |g, v| {
            let m = g.mean_axis(v[0], 1, true);
            let ms = g.sum_all(m);
            let sq = g.mul(ms, ms);
            g.add(sq, ms)
        });
    }

    #[test]
    fn cross_entropy_grad() {
        let logits = pseudo(&[3, 4], 15);
        assert_gradients(&[logits], 1e-2, 1e-2, |g, v| g.cross_entropy(v[0], &[1, 0, 3]));
    }

    #[test]
    fn bce_grad() {
        let logits = pseudo(&[2, 3], 16);
        let targets = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0], &[2, 3]);
        assert_gradients(&[logits], 1e-2, 1e-2, |g, v| g.bce_logits(v[0], &targets));
    }

    #[test]
    fn conv_and_pool_grads() {
        let x = pseudo(&[1, 2, 4, 4], 17);
        let w = pseudo(&[3, 2, 3, 3], 18);
        assert_gradients(&[x, w], 1e-2, 2e-2, |g, v| {
            let c = g.conv2d(v[0], v[1], Conv2dSpec::new(3, 1, 1));
            let r = g.relu(c);
            let p = g.avg_pool2d(r, 2);
            g.sum_all(p)
        });
    }

    #[test]
    fn gelu_composite_grad() {
        let x = pseudo(&[2, 4], 19);
        assert_gradients(&[x], 1e-2, 1e-2, |g, v| {
            let y = g.gelu(v[0]);
            g.mean_all(y)
        });
    }

    #[test]
    fn linear_grads_for_every_epilogue_and_rank() {
        // dx, dW, db and dr against central differences, and the fused
        // forward against the four ops it replaces, bit for bit — with and
        // without each of bias / GELU / residual, on rank-2 and rank-3
        // inputs (7 = 4 + 3 rows: a full 4-row block plus single rows; 19
        // columns: one 16-wide tile plus a tail).
        for lead in [&[7usize][..], &[2, 3][..]] {
            let (k, n) = (5, 19);
            let x = pseudo(&[lead, &[k]].concat(), 20);
            let w = pseudo(&[k, n], 21);
            let b = pseudo(&[n], 22);
            let r = pseudo(&[lead, &[n]].concat(), 23);
            for (with_bias, act, with_res) in [
                (false, Activation::None, false),
                (true, Activation::None, false),
                (false, Activation::Gelu, false),
                (false, Activation::None, true),
                (true, Activation::Gelu, false),
                (true, Activation::None, true),
                (false, Activation::Gelu, true),
                (true, Activation::Gelu, true),
            ] {
                let fused = |g: &mut Graph, v: &[Var]| {
                    g.linear(v[0], v[1], with_bias.then_some(v[2]), act, with_res.then_some(v[3]))
                };
                let composed = |g: &mut Graph, v: &[Var]| {
                    let mut y = g.matmul(v[0], v[1]);
                    if with_bias {
                        y = g.add(y, v[2]);
                    }
                    if act == Activation::Gelu {
                        y = g.gelu(y);
                    }
                    if with_res {
                        y = g.add(v[3], y);
                    }
                    y
                };
                let inputs = [x.clone(), w.clone(), b.clone(), r.clone()];
                // Every input is used in the loss so each has a gradient to
                // check; the unused ones of a combination see only `touch`.
                assert_gradients(&inputs, 1e-2, 2e-2, |g, v| {
                    let y = fused(g, v);
                    let sq = g.mul(y, y);
                    let loss = g.mean_all(sq);
                    let touch: Vec<Var> = v.iter().map(|&t| g.mean_all(t)).collect();
                    touch.into_iter().fold(loss, |acc, t| g.add(acc, t))
                });
                // Same bits as the composition: frozen (one fused pass) and
                // differentiable (pre-activation kept) alike.
                for frozen in [true, false] {
                    let mut g = Graph::new();
                    let v: Vec<Var> = inputs
                        .iter()
                        .map(|t| if frozen { g.constant(t.clone()) } else { g.leaf(t.clone()) })
                        .collect();
                    let before = g.len();
                    let a = fused(&mut g, &v);
                    assert_eq!(g.len() - before, 1, "linear is one tape node");
                    let c = composed(&mut g, &v);
                    let bits = |v: Var| -> Vec<u32> {
                        g.value(v).to_vec().iter().map(|f| f.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(a),
                        bits(c),
                        "bias {with_bias}, {act:?}, residual {with_res}, frozen {frozen}, {lead:?}"
                    );
                }
            }
        }
    }
}
