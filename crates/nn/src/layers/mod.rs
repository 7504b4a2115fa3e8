//! Neural-network layers with forward and backward passes.
//!
//! Every layer implements [`Layer`]. The forward pass takes a [`Phase`]:
//!
//! - [`Phase::Train`]: stochastic regularisers (dropout) are active and the
//!   layer caches whatever it needs for [`Layer::backward`].
//! - [`Phase::Eval`]: deterministic inference — dropout is the identity
//!   (inverted-dropout convention).
//!
//! Monte-Carlo-dropout inference does not go through [`Layer::forward`]:
//! its masks are coordinate-keyed ([`keyed_row_seed`] +
//! [`keyed_mask_word`], applied at each [`Dropout::rate`]), not drawn
//! from an RNG stream.

mod conv;
mod dropout;
mod relu;
mod sequential;

pub use conv::{BlockRuns, Conv2d, CONV_BLOCK};
pub use dropout::{keyed_mask_word, keyed_row_seed, Dropout};
pub use relu::Relu;
pub use sequential::{LayerKind, Sequential};

use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::tensor::Tensor;

/// The execution phase of a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Training: stochastic layers active, activations cached for backward.
    Train,
    /// Deterministic inference: dropout disabled.
    Eval,
}

/// A mutable view of one parameter tensor and its gradient accumulator.
///
/// Returned by [`Layer::params`] and consumed by the optimizers in
/// [`crate::optim`]. The order of parameters returned by a layer is stable
/// across calls, which optimizers rely on for their per-parameter state.
#[derive(Debug)]
pub struct ParamRef<'a> {
    /// The parameter values, updated in place by the optimizer.
    pub value: &'a mut [f32],
    /// The accumulated gradient, same length as `value`.
    pub grad: &'a mut [f32],
}

/// A differentiable network layer.
///
/// The `rng` argument drives stochastic layers; deterministic layers ignore
/// it. Implementations cache forward activations when `phase` is
/// [`Phase::Train`] so that [`Layer::backward`] can run afterwards.
pub trait Layer {
    /// Runs the layer forward.
    fn forward(&mut self, input: &Tensor, phase: Phase, rng: &mut dyn RngCore) -> Tensor;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer's input.
    ///
    /// # Panics
    ///
    /// Panics if called before a [`Phase::Train`] forward pass, or if
    /// `grad_out` does not match the cached output shape.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Clears accumulated parameter gradients.
    fn zero_grad(&mut self) {}

    /// Mutable views of all `(value, grad)` parameter pairs, in a stable
    /// order.
    fn params(&mut self) -> Vec<ParamRef<'_>> {
        Vec::new()
    }

    /// Total number of learnable scalar parameters.
    fn param_count(&self) -> usize {
        0
    }
}
