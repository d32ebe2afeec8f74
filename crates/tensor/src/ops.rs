//! Activations and losses with their analytic derivatives.
//!
//! Everything the model zoo needs for exact (non-autodiff) backpropagation:
//! ReLU, sigmoid, softmax / log-softmax, cross-entropy and mean-squared-error
//! losses. All loss gradients are *with respect to the pre-activation
//! logits*, which is the form the layer backward passes consume.

use crate::Vector;

/// Element-wise ReLU, `max(0, x)`.
pub fn relu(x: &Vector) -> Vector {
    x.iter().map(|&v| v.max(0.0)).collect()
}

/// In-place ReLU.
pub fn relu_in_place(x: &mut [f32]) {
    for v in x {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Backward pass of ReLU: zeroes upstream gradient where the *input* was
/// non-positive.
///
/// # Panics
///
/// Panics if `input.len() != upstream.len()`.
pub fn relu_backward(input: &Vector, upstream: &Vector) -> Vector {
    assert_eq!(input.len(), upstream.len(), "relu_backward length mismatch");
    input
        .iter()
        .zip(upstream.iter())
        .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
        .collect()
}

/// Element-wise logistic sigmoid `1 / (1 + e^{-x})`.
pub fn sigmoid(x: &Vector) -> Vector {
    x.iter().map(|&v| 1.0 / (1.0 + (-v).exp())).collect()
}

/// Numerically-stable softmax.
pub fn softmax(logits: &Vector) -> Vector {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Numerically-stable log-softmax.
pub fn log_softmax(logits: &Vector) -> Vector {
    let log_sum = log_sum_exp(logits.as_slice());
    logits.iter().map(|&v| v - log_sum).collect()
}

/// `ln Σ exp(v)` over the logits, shifted by their maximum for stability.
fn log_sum_exp(logits: &[f32]) -> f32 {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    logits.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max
}

/// Cross-entropy loss of one sample given raw logits and the true class:
/// `-log_softmax(logits)[label]`, computed without materialising the
/// log-softmax vector (same expressions, same bits).
///
/// # Panics
///
/// Panics if `label >= logits.len()`.
pub fn cross_entropy_loss(logits: &[f32], label: usize) -> f32 {
    assert!(label < logits.len(), "label {label} out of range");
    -(logits[label] - log_sum_exp(logits))
}

/// Softmax cross-entropy of one sample in a single pass: writes the
/// gradient w.r.t. the logits into `grad` and returns the loss.
///
/// Bitwise identical to [`cross_entropy_loss`] and [`cross_entropy_grad`]
/// (the exponentials, their sum and every division are the same
/// expressions in the same order), without allocating — the batched
/// training path runs it on each logit row in place.
///
/// # Panics
///
/// Panics if `label >= logits.len()` or `grad.len() != logits.len()`.
pub fn softmax_cross_entropy(logits: &[f32], label: usize, grad: &mut [f32]) -> f32 {
    assert!(label < logits.len(), "label {label} out of range");
    assert_eq!(
        grad.len(),
        logits.len(),
        "softmax_cross_entropy length mismatch"
    );
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for (g, &v) in grad.iter_mut().zip(logits) {
        *g = (v - max).exp();
    }
    let sum: f32 = grad.iter().sum();
    let loss = -(logits[label] - (sum.ln() + max));
    for g in grad.iter_mut() {
        *g /= sum;
    }
    grad[label] -= 1.0;
    loss
}

/// Gradient of the cross-entropy loss w.r.t. the logits:
/// `softmax(logits) - one_hot(label)`.
///
/// # Panics
///
/// Panics if `label >= logits.len()`.
pub fn cross_entropy_grad(logits: &Vector, label: usize) -> Vector {
    assert!(label < logits.len(), "label {label} out of range");
    let mut g = softmax(logits);
    g[label] -= 1.0;
    g
}

/// Mean-squared-error loss `0.5 ‖pred - target‖²` of one sample.
///
/// The `0.5` factor makes the gradient exactly `pred - target`, matching the
/// linear-regression formulation used in the paper's convex experiments.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn mse_loss(pred: &[f32], target: &[f32]) -> f32 {
    assert_eq!(pred.len(), target.len(), "mse length mismatch");
    0.5 * pred
        .iter()
        .zip(target.iter())
        .map(|(p, t)| {
            let d = p - t;
            d * d
        })
        .sum::<f32>()
}

/// Gradient of [`mse_loss`] w.r.t. the prediction: `pred - target`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn mse_grad(pred: &Vector, target: &Vector) -> Vector {
    pred - target
}

/// Index of the maximum element (predicted class). Ties resolve to the
/// first maximal index.
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn argmax(v: &[f32]) -> usize {
    assert!(!v.is_empty(), "argmax of empty vector");
    let mut best = 0;
    let mut best_val = v[0];
    for (i, &x) in v.iter().enumerate().skip(1) {
        if x > best_val {
            best = i;
            best_val = x;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn relu_clips_negatives() {
        let x = Vector::from(vec![-1.0, 0.0, 2.0]);
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 2.0]);
        let mut y = [-1.0, 3.0];
        relu_in_place(&mut y);
        assert_eq!(y, [0.0, 3.0]);
    }

    #[test]
    fn relu_backward_masks_by_input() {
        let input = Vector::from(vec![-1.0, 2.0, 0.0]);
        let up = Vector::from(vec![5.0, 5.0, 5.0]);
        assert_eq!(relu_backward(&input, &up).as_slice(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let x = Vector::from(vec![1000.0, 1000.0, 999.0]);
        let s = softmax(&x);
        assert!(s.is_finite());
        assert_close(s.iter().sum::<f32>(), 1.0, 1e-5);
        assert!(s[0] > s[2]);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Vector::from(vec![0.3, -1.2, 2.0]);
        let ls = log_softmax(&x);
        let s = softmax(&x);
        for i in 0..3 {
            assert_close(ls[i], s[i].ln(), 1e-5);
        }
    }

    #[test]
    fn cross_entropy_of_confident_correct_is_small() {
        let good = Vector::from(vec![10.0, -10.0]);
        let bad = Vector::from(vec![-10.0, 10.0]);
        assert!(cross_entropy_loss(good.as_slice(), 0) < 1e-3);
        assert!(cross_entropy_loss(bad.as_slice(), 0) > 5.0);
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero() {
        let x = Vector::from(vec![0.5, -0.5, 1.5]);
        let g = cross_entropy_grad(&x, 1);
        assert_close(g.iter().sum::<f32>(), 0.0, 1e-5);
        assert!(g[1] < 0.0, "true-class gradient must be negative");
    }

    #[test]
    fn cross_entropy_grad_is_finite_difference_of_loss() {
        let x = Vector::from(vec![0.2, -0.7, 1.1]);
        let g = cross_entropy_grad(&x, 2);
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let fd = (cross_entropy_loss(xp.as_slice(), 2) - cross_entropy_loss(xm.as_slice(), 2))
                / (2.0 * eps);
            assert_close(g[i], fd, 1e-3);
        }
    }

    #[test]
    fn softmax_cross_entropy_is_bitwise_the_loss_and_grad_pair() {
        for (logits, label) in [
            (vec![0.2f32, -0.7, 1.1], 2),
            (vec![1000.0, 1000.0, 999.0], 0),
            (vec![-3.5, 0.0, 2.25, 7.0, -0.125], 3),
            (vec![0.5], 0),
        ] {
            let v = Vector::from(logits.clone());
            let mut grad = vec![9.0f32; logits.len()];
            let loss = softmax_cross_entropy(&logits, label, &mut grad);
            let want_loss = -log_softmax(&v)[label];
            assert_eq!(loss.to_bits(), want_loss.to_bits());
            assert_eq!(loss.to_bits(), cross_entropy_loss(&logits, label).to_bits());
            let want_grad = cross_entropy_grad(&v, label);
            for (g, w) in grad.iter().zip(want_grad.iter()) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn mse_and_grad() {
        let p = Vector::from(vec![1.0, 2.0]);
        let t = Vector::from(vec![0.0, 0.0]);
        assert_close(mse_loss(p.as_slice(), t.as_slice()), 2.5, 1e-6);
        assert_eq!(mse_grad(&p, &t).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn argmax_picks_first_max() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    fn sigmoid_range() {
        let s = sigmoid(&Vector::from(vec![-100.0, 0.0, 100.0]));
        assert_close(s[0], 0.0, 1e-6);
        assert_close(s[1], 0.5, 1e-6);
        assert_close(s[2], 1.0, 1e-6);
    }
}
