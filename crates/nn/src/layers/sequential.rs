//! A sequential stack of layers.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use super::{Conv2d, Dropout, Layer, ParamRef, Phase, Relu};
use crate::tensor::Tensor;

/// A layer variant for heterogeneous containers.
///
/// Enum dispatch keeps [`Sequential`] serializable and avoids trait
/// objects; use [`LayerKind::from`] conversions to build stacks tersely.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum LayerKind {
    Conv2d(Conv2d),
    Relu(Relu),
    Dropout(Dropout),
}

impl From<Conv2d> for LayerKind {
    fn from(l: Conv2d) -> Self {
        LayerKind::Conv2d(l)
    }
}

impl From<Relu> for LayerKind {
    fn from(l: Relu) -> Self {
        LayerKind::Relu(l)
    }
}

impl From<Dropout> for LayerKind {
    fn from(l: Dropout) -> Self {
        LayerKind::Dropout(l)
    }
}

impl Layer for LayerKind {
    fn forward(&mut self, input: &Tensor, phase: Phase, rng: &mut dyn RngCore) -> Tensor {
        match self {
            LayerKind::Conv2d(l) => l.forward(input, phase, rng),
            LayerKind::Relu(l) => l.forward(input, phase, rng),
            LayerKind::Dropout(l) => l.forward(input, phase, rng),
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self {
            LayerKind::Conv2d(l) => l.backward(grad_out),
            LayerKind::Relu(l) => l.backward(grad_out),
            LayerKind::Dropout(l) => l.backward(grad_out),
        }
    }

    fn zero_grad(&mut self) {
        match self {
            LayerKind::Conv2d(l) => l.zero_grad(),
            LayerKind::Relu(l) => l.zero_grad(),
            LayerKind::Dropout(l) => l.zero_grad(),
        }
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        match self {
            LayerKind::Conv2d(l) => l.params(),
            LayerKind::Relu(l) => l.params(),
            LayerKind::Dropout(l) => l.params(),
        }
    }

    fn param_count(&self) -> usize {
        match self {
            LayerKind::Conv2d(l) => l.param_count(),
            LayerKind::Relu(l) => l.param_count(),
            LayerKind::Dropout(l) => l.param_count(),
        }
    }
}

/// A stack of layers applied in order.
///
/// # Example
///
/// ```
/// use el_nn::{layers::{Conv2d, Dropout, Layer, Relu, Sequential}, Phase, Tensor};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Conv2d::new(1, 4, 3, 1, &mut rng));
/// net.push(Relu::default());
/// net.push(Dropout::new(0.5));
/// net.push(Conv2d::new(4, 2, 1, 1, &mut rng));
/// let y = net.forward(&Tensor::zeros(1, 6, 6), Phase::Eval, &mut rng);
/// assert_eq!(y.shape(), (2, 6, 6));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Sequential {
    layers: Vec<LayerKind>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Into<LayerKind>) {
        self.layers.push(layer.into());
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[LayerKind] {
        &self.layers
    }

    /// Mutable access to the layers (used by ablations that adjust dropout
    /// rates in place).
    pub fn layers_mut(&mut self) -> &mut [LayerKind] {
        &mut self.layers
    }

    /// Restores gradient/caching buffers on all conv layers after
    /// deserialization.
    pub fn reset_state(&mut self) {
        for l in &mut self.layers {
            if let LayerKind::Conv2d(c) = l {
                c.reset_state();
            }
        }
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, phase: Phase, rng: &mut dyn RngCore) -> Tensor {
        let mut cur = input.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur, phase, rng);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut r = rng();
        let mut net = Sequential::new();
        let t = Tensor::from_fn(1, 2, 2, |_, y, x| (y + x) as f32);
        assert_eq!(net.forward(&t, Phase::Train, &mut r), t);
        assert_eq!(net.backward(&t), t);
        assert!(net.is_empty());
    }

    #[test]
    fn stack_shapes_flow() {
        let mut r = rng();
        let mut net = Sequential::new();
        net.push(Conv2d::new(2, 8, 3, 1, &mut r));
        net.push(Relu::default());
        net.push(Dropout::new(0.3));
        net.push(Conv2d::new(8, 5, 1, 1, &mut r));
        assert_eq!(net.len(), 4);
        let y = net.forward(&Tensor::zeros(2, 7, 9), Phase::Eval, &mut r);
        assert_eq!(y.shape(), (5, 7, 9));
        assert_eq!(net.param_count(), 2 * 8 * 9 + 8 + 8 * 5 + 5);
    }

    #[test]
    fn params_cover_all_conv_layers() {
        let mut r = rng();
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 2, 3, 1, &mut r));
        net.push(Relu::default());
        net.push(Conv2d::new(2, 1, 1, 1, &mut r));
        // 2 conv layers x (weight, bias).
        assert_eq!(net.params().len(), 4);
    }

    #[test]
    fn backward_runs_through_stack() {
        let mut r = rng();
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 3, 3, 1, &mut r));
        net.push(Relu::default());
        net.push(Conv2d::new(3, 1, 1, 1, &mut r));
        let x = Tensor::full(1, 5, 5, 1.0);
        let y = net.forward(&x, Phase::Train, &mut r);
        let gin = net.backward(&y.map(|_| 1.0));
        assert_eq!(gin.shape(), x.shape());
        net.zero_grad();
        for p in net.params() {
            assert!(p.grad.iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn serde_roundtrip() {
        let mut r = rng();
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 2, 3, 2, &mut r));
        net.push(Dropout::new(0.5));
        let json = serde_json::to_string(&net).unwrap();
        let mut back: Sequential = serde_json::from_str(&json).unwrap();
        back.reset_state();
        assert_eq!(back.len(), 2);
        let x = Tensor::full(1, 4, 4, 1.0);
        let mut orig = net.clone();
        assert_eq!(
            back.forward(&x, Phase::Eval, &mut r.clone()),
            orig.forward(&x, Phase::Eval, &mut r.clone())
        );
    }
}
