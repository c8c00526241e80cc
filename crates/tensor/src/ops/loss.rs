//! Fused classification losses with analytic gradients.

use super::reduce::softmax_last;
use crate::Tensor;

/// Mean cross-entropy between `logits` (`[N, C]`) and integer `labels`
/// (`len N`), computed stably from raw logits.
///
/// Returns `(loss, probs)` where `probs` is the softmax of the logits, saved
/// so the backward pass is a single subtraction.
///
/// # Panics
///
/// Panics on shape mismatch or an out-of-range label.
pub fn cross_entropy_logits(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let _span = crate::metrics::span("op/cross_entropy");
    let sh = logits.shape();
    assert_eq!(sh.len(), 2, "cross_entropy_logits expects [N, C] logits");
    let (n, c) = (sh[0], sh[1]);
    assert_eq!(labels.len(), n, "label count mismatch");
    let probs = softmax_last(logits);
    let pd = probs.data();
    let mut loss = 0.0;
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < c, "label {y} out of range for {c} classes");
        // Clamp to avoid log(0) when the model is confidently wrong.
        loss -= pd[i * c + y].max(1e-12).ln();
    }
    (loss / n as f32, probs)
}

/// Gradient of [`cross_entropy_logits`] w.r.t. the logits:
/// `(probs - onehot(labels)) / N * upstream`.
pub(crate) fn cross_entropy_logits_backward(
    probs: &Tensor,
    labels: &[usize],
    upstream: f32,
) -> Tensor {
    let sh = probs.shape();
    let (n, c) = (sh[0], sh[1]);
    let scale = upstream / n as f32;
    let mut out = probs.data().to_vec();
    for (i, &y) in labels.iter().enumerate() {
        out[i * c + y] -= 1.0;
    }
    for v in &mut out {
        *v *= scale;
    }
    Tensor::from_vec(out, sh)
}

/// Mean binary cross-entropy with logits for multi-label targets.
///
/// `logits` and `targets` are both `[N, C]`; targets are 0/1 (soft targets
/// are accepted). Uses the stable formulation
/// `max(x,0) - x*t + ln(1 + e^{-|x|})`.
///
/// Returns `(loss, sigmoids)` with the sigmoid activations saved for the
/// backward pass.
pub fn bce_with_logits(logits: &Tensor, targets: &Tensor) -> (f32, Tensor) {
    let _span = crate::metrics::span("op/bce");
    assert_eq!(logits.shape(), targets.shape(), "bce shape mismatch");
    let n = logits.numel();
    assert!(n > 0, "bce over empty tensor");
    let mut loss = 0.0;
    let mut sig = crate::workspace::take_reserve(n);
    let (logits, targets) = (logits.contiguous(), targets.contiguous());
    for (&x, &t) in logits.data().iter().zip(targets.data()) {
        loss += x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
        sig.push(1.0 / (1.0 + (-x).exp()));
    }
    (loss / n as f32, Tensor::from_vec(sig, logits.shape()))
}

/// Gradient of [`bce_with_logits`] w.r.t. the logits:
/// `(sigmoid(x) - t) / N * upstream`.
pub(crate) fn bce_with_logits_backward(
    sigmoids: &Tensor,
    targets: &Tensor,
    upstream: f32,
) -> Tensor {
    let n = sigmoids.numel() as f32;
    let scale = upstream / n;
    sigmoids.zip(targets, |s, t| (s - t) * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, probs) = cross_entropy_logits(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        assert!(probs.data().iter().all(|&p| (p - 0.25).abs() < 1e-6));
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0], &[1, 3]);
        let (loss, _) = cross_entropy_logits(&logits, &[0]);
        assert!(loss < 1e-3);
        let (bad, _) = cross_entropy_logits(&logits, &[1]);
        assert!(bad > 5.0);
    }

    #[test]
    fn ce_gradient_matches_numerical() {
        let logits = Tensor::from_vec(vec![0.5, -0.3, 1.2, -0.8, 0.1, 0.9], &[2, 3]);
        let labels = [2usize, 0];
        let (_, probs) = cross_entropy_logits(&logits, &labels);
        let grad = cross_entropy_logits_backward(&probs, &labels, 1.0);
        let eps = 1e-3;
        for i in 0..6 {
            let mut lp = logits.clone();
            let mut lm = logits.clone();
            lp.data_mut()[i] += eps;
            lm.data_mut()[i] -= eps;
            let (fp, _) = cross_entropy_logits(&lp, &labels);
            let (fm, _) = cross_entropy_logits(&lm, &labels);
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-3, "grad mismatch at {i}");
        }
    }

    #[test]
    fn bce_matches_hand_value_and_is_stable() {
        // x = 0 -> ln 2 regardless of target.
        let logits = Tensor::zeros(&[1, 2]);
        let targets = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let (loss, sig) = bce_with_logits(&logits, &targets);
        assert!((loss - (2.0f32).ln()).abs() < 1e-6);
        assert!(sig.data().iter().all(|&s| (s - 0.5).abs() < 1e-6));
        // Extreme logits stay finite.
        let big = Tensor::from_vec(vec![1e4, -1e4], &[1, 2]);
        let (l2, _) = bce_with_logits(&big, &targets);
        assert!(l2.is_finite());
        assert!(l2 < 1e-3);
    }

    #[test]
    fn bce_gradient_matches_numerical() {
        let logits = Tensor::from_vec(vec![0.3, -1.1, 2.0, 0.0], &[2, 2]);
        let targets = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let (_, sig) = bce_with_logits(&logits, &targets);
        let grad = bce_with_logits_backward(&sig, &targets, 1.0);
        let eps = 1e-3;
        for i in 0..4 {
            let mut lp = logits.clone();
            let mut lm = logits.clone();
            lp.data_mut()[i] += eps;
            lm.data_mut()[i] -= eps;
            let (fp, _) = bce_with_logits(&lp, &targets);
            let (fm, _) = bce_with_logits(&lm, &targets);
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-3, "grad mismatch at {i}");
        }
    }
}
