//! Rectified linear unit.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use super::{Layer, Phase};
use crate::tensor::Tensor;

/// Element-wise `max(0, x)` ([`el_kernels::relu`]).
///
/// # Example
///
/// ```
/// use el_nn::{layers::{Layer, Relu}, Phase, Tensor};
/// let mut relu = Relu::default();
/// let t = Tensor::from_vec(1, 1, 3, vec![-1.0, 0.0, 2.0])?;
/// let mut rng = rand::thread_rng();
/// let y = relu.forward(&t, Phase::Eval, &mut rng);
/// assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
/// # Ok::<(), el_nn::NnError>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relu {
    #[serde(skip)]
    cached_mask: Option<Vec<bool>>,
}

impl Relu {
    /// Clamps every element to `max(0, x)` in place — the stateless
    /// `&self`-free path used by inference engines that own their buffers.
    pub fn apply(x: &mut Tensor) {
        Self::apply_slice(x.as_mut_slice());
    }

    /// Slice variant of [`Relu::apply`] for raw activation buffers; the
    /// same element-wise [`el_kernels::relu`] (NaN and `-0.0` become
    /// `+0.0`) the GEMM applies when it rectifies on store, hence the
    /// same bits.
    pub fn apply_slice(xs: &mut [f32]) {
        for v in xs {
            *v = el_kernels::relu(*v);
        }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, phase: Phase, _rng: &mut dyn RngCore) -> Tensor {
        let out = input.map(el_kernels::relu);
        self.cached_mask = if phase == Phase::Train {
            Some(input.as_slice().iter().map(|&v| v > 0.0).collect())
        } else {
            None
        };
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .cached_mask
            .as_ref()
            .expect("Relu::backward called without a Train-phase forward");
        assert_eq!(mask.len(), grad_out.len(), "grad_out shape mismatch");
        let mut grad_in = grad_out.clone();
        for (g, &m) in grad_in.as_mut_slice().iter_mut().zip(mask) {
            if !m {
                *g = 0.0;
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_clamps_negatives() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut relu = Relu::default();
        let t = Tensor::from_vec(1, 1, 4, vec![-3.0, -0.0, 0.5, 7.0]).unwrap();
        let y = relu.forward(&t, Phase::Eval, &mut rng);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 7.0]);
    }

    #[test]
    fn backward_gates_gradient() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut relu = Relu::default();
        let t = Tensor::from_vec(1, 1, 3, vec![-1.0, 2.0, 0.0]).unwrap();
        let _ = relu.forward(&t, Phase::Train, &mut rng);
        let g = relu.backward(&Tensor::from_vec(1, 1, 3, vec![5.0, 5.0, 5.0]).unwrap());
        // Gradient passes only where input was strictly positive.
        assert_eq!(g.as_slice(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "without a Train-phase forward")]
    fn backward_requires_train() {
        let mut relu = Relu::default();
        let _ = relu.backward(&Tensor::zeros(1, 1, 1));
    }
}
