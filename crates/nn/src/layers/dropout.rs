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
/// relevant layers), is [`Dropout::apply_mc_keyed`]: the same inverted
/// scaling under a coordinate-keyed mask.
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

    /// Writes `src` (a contiguous `channels x h x w` activation block)
    /// with a **coordinate-keyed** Monte-Carlo mask into the same layout
    /// at the front of `dst`, without touching layer state.
    ///
    /// This is the stateless `&self` path the parallel Bayesian monitor
    /// builds on. Unlike [`Layer::forward`], which consumes a sequential
    /// RNG stream, each element's mask bit is a pure hash of
    /// `(sample_seed, layer, chan0 + c, origin.0 + y, origin.1 + x)`
    /// ([`keyed_row_seed`] + [`keyed_mask_word`]). The mask therefore
    /// depends only on the element's **global** coordinates, never on the
    /// shape or position of the block it is computed through — the
    /// property that makes tiled Bayesian inference bit-identical to
    /// whole-frame inference, and batched verification bit-identical to
    /// per-crop verification.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a whole number of `h x w` planes or `dst`
    /// is shorter than `src`.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_mc_keyed(
        &self,
        src: &[f32],
        h: usize,
        w: usize,
        dst: &mut [f32],
        sample_seed: u64,
        layer: u32,
        chan0: usize,
        origin: (usize, usize),
    ) {
        let hw = h * w;
        assert!(
            hw > 0 && src.len().is_multiple_of(hw),
            "src must be whole planes"
        );
        let channels = src.len() / hw;
        let scale = if self.rate == 0.0 {
            1.0
        } else {
            1.0 / (1.0 - self.rate)
        };
        let kernels = el_kernels::active();
        for c in 0..channels {
            let plane = &src[c * hw..(c + 1) * hw];
            for y in 0..h {
                let row = &mut dst[c * hw + y * w..][..w];
                let s_row = &plane[y * w..(y + 1) * w];
                if self.rate == 0.0 {
                    row.copy_from_slice(s_row);
                    continue;
                }
                let row_seed = keyed_row_seed(sample_seed, layer, chan0 + c, origin.0 + y);
                kernels.mask_scale_row(row_seed, origin.1, self.rate, scale, s_row, row);
            }
        }
    }

    /// In-place variant of [`Dropout::apply_mc_keyed`] over a contiguous
    /// `channels x h x w` block.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_mc_keyed_in_place(
        &self,
        xs: &mut [f32],
        h: usize,
        w: usize,
        sample_seed: u64,
        layer: u32,
        chan0: usize,
        origin: (usize, usize),
    ) {
        if self.rate == 0.0 {
            return;
        }
        let scale = 1.0 / (1.0 - self.rate);
        let kernels = el_kernels::active();
        for (c, plane) in xs.chunks_exact_mut(h * w).enumerate() {
            for y in 0..h {
                let row = &mut plane[y * w..][..w];
                let row_seed = keyed_row_seed(sample_seed, layer, chan0 + c, origin.0 + y);
                kernels.mask_scale_row_in_place(row_seed, origin.1, self.rate, scale, row);
            }
        }
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

    #[test]
    fn keyed_mask_is_translation_invariant() {
        // A crop applied with its global origin must see exactly the mask
        // the full plane sees at the same coordinates.
        let d = Dropout::new(0.5);
        let (h, w) = (8, 10);
        let full: Vec<f32> = (0..2 * h * w).map(|i| i as f32 * 0.1 + 1.0).collect();
        let mut full_out = vec![0.0; full.len()];
        d.apply_mc_keyed(&full, h, w, &mut full_out, 77, 3, 5, (0, 0));
        // Crop rows 2..6, cols 1..8 of both channels.
        let (ch, cw, oy, ox) = (4usize, 7usize, 2usize, 1usize);
        let mut crop = vec![0.0; 2 * ch * cw];
        for c in 0..2 {
            for y in 0..ch {
                for x in 0..cw {
                    crop[(c * ch + y) * cw + x] = full[(c * h + oy + y) * w + ox + x];
                }
            }
        }
        let mut crop_out = vec![0.0; crop.len()];
        d.apply_mc_keyed(&crop, ch, cw, &mut crop_out, 77, 3, 5, (oy, ox));
        for c in 0..2 {
            for y in 0..ch {
                for x in 0..cw {
                    assert_eq!(
                        crop_out[(c * ch + y) * cw + x],
                        full_out[(c * h + oy + y) * w + ox + x],
                        "mask differs at c{c} y{y} x{x}"
                    );
                }
            }
        }
    }

    #[test]
    fn keyed_in_place_matches_copying_path() {
        let d = Dropout::new(0.5);
        let (h, w) = (3, 5);
        let src: Vec<f32> = (0..4 * h * w).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut copied = vec![0.0; src.len()];
        d.apply_mc_keyed(&src, h, w, &mut copied, 9, 0, 0, (4, 2));
        let mut in_place = src.clone();
        d.apply_mc_keyed_in_place(&mut in_place, h, w, 9, 0, 0, (4, 2));
        assert_eq!(in_place, copied);
    }

    #[test]
    fn keyed_mask_preserves_expectation_and_rate_zero_identity() {
        let d = Dropout::new(0.5);
        let (h, w) = (64, 64);
        let src = vec![1.0f32; h * w];
        let mut out = vec![0.0; h * w];
        d.apply_mc_keyed(&src, h, w, &mut out, 123, 1, 0, (0, 0));
        let mean = out.iter().sum::<f32>() / out.len() as f32;
        assert!((mean - 1.0).abs() < 0.06, "inverted-dropout mean {mean}");
        assert!(out.iter().all(|&v| v == 0.0 || v == 2.0));
        let id = Dropout::new(0.0);
        let mut out2 = vec![7.0; h * w];
        id.apply_mc_keyed(&src, h, w, &mut out2, 123, 1, 0, (0, 0));
        assert_eq!(out2, src);
    }
}
