//! Per-pixel softmax cross-entropy for semantic segmentation.

use crate::tensor::{NnError, Tensor};

/// The output of a [`softmax_cross_entropy`] evaluation.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean loss over contributing pixels.
    pub loss: f32,
    /// Gradient of the mean loss w.r.t. the logits (same shape).
    pub grad: Tensor,
    /// Per-pixel class probabilities (same shape as the logits).
    pub probs: Tensor,
}

/// Computes per-pixel softmax probabilities over the channel axis.
///
/// Numerically stabilised by subtracting the per-pixel max logit.
pub fn softmax(logits: &Tensor) -> Tensor {
    let mut out = logits.clone();
    softmax_in_place(&mut out);
    out
}

/// Converts logits to per-pixel softmax probabilities in place —
/// the allocation-free variant of [`softmax`] used by the inference
/// engine (identical arithmetic, identical results). Runs the active
/// tier's [`Kernels::softmax`](el_kernels::Kernels::softmax), so the
/// probabilities are the same bits on every tier and every libm.
pub fn softmax_in_place(logits: &mut Tensor) {
    let (c, h, w) = logits.shape();
    el_kernels::active().softmax(logits.as_mut_slice(), c, h * w);
}

/// Per-pixel softmax cross-entropy loss with optional class weights and an
/// optional ignore label.
///
/// `targets` is a row-major `h * w` slice of class indices. Pixels whose
/// target equals `ignore` contribute neither loss nor gradient. With
/// `class_weights`, each pixel's contribution is scaled by the weight of
/// its target class (used to counter class imbalance — road pixels are rare
/// relative to buildings in urban scenes).
///
/// Returns the mean (weighted) loss, its gradient w.r.t. the logits and the
/// probability maps.
///
/// # Errors
///
/// Returns [`NnError::SizeMismatch`] if `targets` does not have `h * w`
/// entries, or [`NnError::InvalidParameter`] if a target index or the
/// weights vector is out of range.
pub fn softmax_cross_entropy(
    logits: &Tensor,
    targets: &[usize],
    class_weights: Option<&[f32]>,
    ignore: Option<usize>,
) -> Result<LossOutput, NnError> {
    let (c, h, w) = logits.shape();
    let hw = h * w;
    if targets.len() != hw {
        return Err(NnError::SizeMismatch {
            expected: hw,
            actual: targets.len(),
        });
    }
    if let Some(cw) = class_weights {
        if cw.len() != c {
            return Err(NnError::InvalidParameter {
                message: format!("class_weights has {} entries for {} classes", cw.len(), c),
            });
        }
    }
    for &t in targets {
        if t >= c && Some(t) != ignore {
            return Err(NnError::InvalidParameter {
                message: format!("target class {t} out of range for {c} channels"),
            });
        }
    }

    let probs = softmax(logits);
    let mut grad = probs.clone();
    let mut loss = 0.0f64;
    let mut total_weight = 0.0f64;

    for (i, &t) in targets.iter().enumerate() {
        if Some(t) == ignore {
            for k in 0..c {
                grad.as_mut_slice()[k * hw + i] = 0.0;
            }
            continue;
        }
        let wgt = class_weights.map_or(1.0, |cw| cw[t]);
        total_weight += wgt as f64;
        // Clamp only a finite underflow: `f32::max` would turn a NaN
        // probability into 1e-12 and hide a diverged step behind a
        // finite loss.
        let p = probs.as_slice()[t * hw + i];
        let p = if p < 1e-12 { 1e-12 } else { p };
        loss += -(p.ln() as f64) * wgt as f64;
        for k in 0..c {
            let y = if k == t { 1.0 } else { 0.0 };
            grad.as_mut_slice()[k * hw + i] = (probs.as_slice()[k * hw + i] - y) * wgt;
        }
    }

    if total_weight > 0.0 {
        let inv = (1.0 / total_weight) as f32;
        grad.scale(inv);
        loss /= total_weight;
    }

    Ok(LossOutput {
        loss: loss as f32,
        grad,
        probs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let logits = Tensor::from_fn(4, 3, 3, |c, y, x| (c * 7 + y * 3 + x) as f32 * 0.1);
        let p = softmax(&logits);
        let hw = 9;
        for i in 0..hw {
            let s: f32 = (0..4).map(|k| p.as_slice()[k * hw + i]).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let logits = Tensor::from_vec(2, 1, 1, vec![1000.0, 999.0]).unwrap();
        let p = softmax(&logits);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        assert!(p[(0, 0, 0)] > p[(1, 0, 0)]);
    }

    #[test]
    fn uniform_logits_give_ln_c_loss() {
        let logits = Tensor::zeros(8, 2, 2);
        let out = softmax_cross_entropy(&logits, &[0, 1, 2, 3], None, None).unwrap();
        assert!((out.loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_low_loss() {
        let mut logits = Tensor::zeros(3, 1, 2);
        logits[(1, 0, 0)] = 50.0;
        logits[(2, 0, 1)] = 50.0;
        let out = softmax_cross_entropy(&logits, &[1, 2], None, None).unwrap();
        assert!(out.loss < 1e-4);
        assert!(out.grad.max_abs() < 1e-4);
    }

    #[test]
    fn gradient_matches_probs_minus_onehot() {
        let logits = Tensor::from_vec(3, 1, 1, vec![0.2, -0.1, 0.5]).unwrap();
        let out = softmax_cross_entropy(&logits, &[2], None, None).unwrap();
        let p = softmax(&logits);
        assert!((out.grad[(0, 0, 0)] - p[(0, 0, 0)]).abs() < 1e-6);
        assert!((out.grad[(2, 0, 0)] - (p[(2, 0, 0)] - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn ignore_label_skips_pixels() {
        let logits = Tensor::zeros(2, 1, 2);
        let out = softmax_cross_entropy(&logits, &[0, 99], None, Some(99)).unwrap();
        // Only the first pixel contributes.
        assert!((out.loss - (2.0f32).ln()).abs() < 1e-5);
        assert_eq!(out.grad[(0, 0, 1)], 0.0);
        assert_eq!(out.grad[(1, 0, 1)], 0.0);
    }

    #[test]
    fn class_weights_scale_contributions() {
        let logits = Tensor::zeros(2, 1, 2);
        let unweighted = softmax_cross_entropy(&logits, &[0, 1], None, None).unwrap();
        let weighted = softmax_cross_entropy(&logits, &[0, 1], Some(&[1.0, 3.0]), None).unwrap();
        // Same uniform per-pixel loss, so the weighted mean equals it too.
        assert!((weighted.loss - unweighted.loss).abs() < 1e-6);
        // But pixel 1's gradient is relatively larger under weighting.
        let g0 = weighted.grad[(0, 0, 0)].abs();
        let g1 = weighted.grad[(0, 0, 1)].abs();
        assert!(g1 > 2.9 * g0);
    }

    #[test]
    fn non_finite_logits_give_a_non_finite_loss() {
        let logits = Tensor::from_vec(2, 1, 2, vec![0.5, f32::NAN, -0.5, 0.25]).unwrap();
        let out = softmax_cross_entropy(&logits, &[0, 1], None, None).unwrap();
        assert!(out.loss.is_nan(), "a NaN logit must surface: {}", out.loss);
        // A finite underflow is still clamped.
        let logits = Tensor::from_vec(2, 1, 1, vec![0.0, 200.0]).unwrap();
        let out = softmax_cross_entropy(&logits, &[0], None, None).unwrap();
        assert!((out.loss - -(1e-12f32.ln())).abs() < 1e-3, "{}", out.loss);
    }

    #[test]
    fn validation_errors() {
        let logits = Tensor::zeros(2, 1, 2);
        assert!(softmax_cross_entropy(&logits, &[0], None, None).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 5], None, None).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 1], Some(&[1.0]), None).is_err());
    }
}
