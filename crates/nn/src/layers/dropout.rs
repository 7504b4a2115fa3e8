//! Inverted dropout — the mechanism behind Monte-Carlo-dropout Bayesian
//! inference.

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use super::{Layer, Phase};
use crate::tensor::Tensor;

/// Inverted dropout with rate `p`.
///
/// - [`Phase::Train`]: each element is zeroed with probability `p` and the
///   survivors are scaled by `1 / (1 - p)`, so the expected activation is
///   unchanged. The mask is cached for [`Layer::backward`].
/// - [`Phase::Eval`]: identity (the inverted convention needs no test-time
///   scaling).
///
/// The Monte-Carlo-dropout mode of Gal & Ghahramani (2016), which the
/// paper uses to turn MSDnet into a Bayesian network (`p = 0.5` on all
/// relevant layers), is the same inverted scaling under a
/// coordinate-keyed mask: each element's keep bit is a pure hash of
/// `(sample seed, layer, channel, global y, global x)`
/// ([`keyed_row_seed`] + [`keyed_mask_word`], evaluated a row segment at
/// a time by `el_kernels::Kernels::mask_scale_row`), so a crop, tile or
/// block draws exactly the mask the whole frame would. `el-seg`'s
/// `MsdNet::mc_blocks` applies it with this layer's [`rate`].
///
/// [`rate`]: Dropout::rate
///
/// # Example
///
/// ```
/// use el_nn::{layers::{Dropout, Layer}, Phase, Tensor};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let mut drop = Dropout::new(0.5);
/// let t = Tensor::full(1, 8, 8, 1.0);
/// // Eval is the identity…
/// assert_eq!(drop.forward(&t, Phase::Eval, &mut rng), t);
/// // …Train zeroes roughly half and doubles the rest.
/// let y = drop.forward(&t, Phase::Train, &mut rng);
/// assert!(y.as_slice().iter().all(|&v| v == 0.0 || v == 2.0));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    rate: f32,
    #[serde(skip)]
    cached_mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with the given drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate < 1`.
    pub fn new(rate: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "dropout rate must be in [0, 1), got {rate}"
        );
        Dropout {
            rate,
            cached_mask: None,
        }
    }

    /// The drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Changes the drop probability (used by ablation experiments).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate < 1`.
    pub fn set_rate(&mut self, rate: f32) {
        assert!(
            (0.0..1.0).contains(&rate),
            "dropout rate must be in [0, 1), got {rate}"
        );
        self.rate = rate;
    }
}

// The coordinate-keyed hash pair lives in `el_kernels` (its per-row
// evaluation is SIMD-dispatched alongside the GEMM micro-kernel; see
// `el_kernels::mask`), re-exported here so the mask contract stays
// addressable as `el_nn::layers::{keyed_row_seed, keyed_mask_word}`.
pub use el_kernels::{keyed_mask_word, keyed_row_seed};

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, phase: Phase, rng: &mut dyn RngCore) -> Tensor {
        if phase == Phase::Eval || self.rate == 0.0 {
            self.cached_mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| {
                if rng.gen::<f32>() < self.rate {
                    0.0
                } else {
                    scale
                }
            })
            .collect();
        let mut out = input.clone();
        for (v, m) in out.as_mut_slice().iter_mut().zip(&mask) {
            *v *= m;
        }
        self.cached_mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.cached_mask.as_ref() {
            Some(mask) => {
                assert_eq!(mask.len(), grad_out.len(), "grad_out shape mismatch");
                let mut grad_in = grad_out.clone();
                for (g, &m) in grad_in.as_mut_slice().iter_mut().zip(mask) {
                    *g *= m;
                }
                grad_in
            }
            // rate == 0 (or an Eval pass in a frozen pipeline): identity.
            None if self.rate == 0.0 => grad_out.clone(),
            None => panic!("Dropout::backward called without a Train-phase forward"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn eval_is_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut d = Dropout::new(0.9);
        let t = Tensor::from_fn(2, 3, 3, |c, y, x| (c + y + x) as f32);
        assert_eq!(d.forward(&t, Phase::Eval, &mut rng), t);
    }

    #[test]
    fn train_preserves_expectation() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut d = Dropout::new(0.5);
        let t = Tensor::full(1, 100, 100, 1.0);
        let y = d.forward(&t, Phase::Train, &mut rng);
        let mean = y.mean();
        // Inverted dropout: E[y] == 1. Loose tolerance for 10k samples.
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut d = Dropout::new(0.5);
        let t = Tensor::full(1, 4, 4, 3.0);
        let y = d.forward(&t, Phase::Train, &mut rng);
        let g = d.backward(&Tensor::full(1, 4, 4, 3.0));
        // grad equals forward output because input == grad_out here.
        assert_eq!(y, g);
    }

    #[test]
    fn zero_rate_is_identity_everywhere() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut d = Dropout::new(0.0);
        let t = Tensor::full(1, 2, 2, 4.0);
        assert_eq!(d.forward(&t, Phase::Train, &mut rng), t);
        assert_eq!(d.backward(&t), t);
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn invalid_rate_rejected() {
        let _ = Dropout::new(1.0);
    }
}
