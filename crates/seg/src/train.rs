//! Tile-sampling trainer for the segmentation network.

use el_nn::layers::{Layer, Phase};
use el_nn::loss::softmax_cross_entropy;
use el_nn::optim::Adam;
use el_scene::{Dataset, Split};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::data::{sample_tile, sample_tile_augmented};
use crate::infer;
use crate::metrics::ConfusionMatrix;
use crate::msdnet::MsdNet;

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of optimisation steps (one random tile per step).
    pub steps: usize,
    /// Square tile side length in pixels.
    pub tile: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Whether to weight the loss by inverse class frequency.
    pub class_weighted: bool,
    /// Whether to apply random flip/rotation augmentation to tiles.
    pub augment: bool,
    /// RNG seed for tile sampling and dropout.
    pub seed: u64,
}

impl TrainConfig {
    /// A fast configuration for unit tests (a few dozen steps).
    pub fn smoke() -> Self {
        TrainConfig {
            steps: 40,
            tile: 24,
            lr: 3e-3,
            class_weighted: true,
            augment: false,
            seed: 7,
        }
    }

    /// The configuration used by the experiment harness.
    ///
    /// Long enough that the network develops the *redundant connections*
    /// Monte-Carlo dropout relies on for small in-distribution `σ` (the
    /// paper's own intuition about why the monitor works): under-trained
    /// networks are uncertain everywhere and the monitor would reject
    /// every zone.
    pub fn benchmark() -> Self {
        TrainConfig {
            steps: 4000,
            tile: 48,
            lr: 3e-3,
            class_weighted: true,
            // Off so the benchmark model stays reproducible; enable for
            // stronger OOD robustness studies.
            augment: false,
            seed: 7,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.steps == 0 {
            return Err("steps must be positive".into());
        }
        if self.tile < 8 {
            return Err("tile must be at least 8 px".into());
        }
        if self.lr <= 0.0 || !self.lr.is_finite() {
            return Err("learning rate must be positive".into());
        }
        Ok(())
    }
}

/// The outcome of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Loss after each step.
    pub losses: Vec<f32>,
    /// Mean loss over the first tenth of training.
    pub initial_loss: f32,
    /// Mean loss over the last tenth of training.
    pub final_loss: f32,
}

impl TrainReport {
    /// `true` if training reduced the loss.
    pub fn improved(&self) -> bool {
        self.final_loss < self.initial_loss
    }
}

/// Trains a network on a dataset's training split.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TrainConfig::validate`].
    pub fn new(config: TrainConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid training configuration: {e}");
        }
        Trainer { config }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Runs training, mutating `net` in place.
    ///
    /// Each step samples one random tile from a random training sample,
    /// runs forward in [`Phase::Train`], applies class-weighted softmax
    /// cross-entropy and one Adam update.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has no training samples or if the tile size
    /// exceeds the sample dimensions.
    pub fn train(&self, net: &mut MsdNet, dataset: &Dataset) -> TrainReport {
        let train: Vec<_> = dataset.split(Split::Train).collect();
        assert!(!train.is_empty(), "dataset has no training samples");
        let weights = dataset.train_class_weights();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut adam = Adam::new(self.config.lr);
        let mut losses = Vec::with_capacity(self.config.steps);

        for _ in 0..self.config.steps {
            let sample = train[rng.gen_range(0..train.len())];
            let tile = if self.config.augment {
                sample_tile_augmented(&sample.image, &sample.labels, self.config.tile, &mut rng)
            } else {
                sample_tile(&sample.image, &sample.labels, self.config.tile, &mut rng)
            };
            net.zero_grad();
            let logits = net.forward(&tile.input, Phase::Train, &mut rng);
            let cw = if self.config.class_weighted {
                Some(&weights[..])
            } else {
                None
            };
            let out = softmax_cross_entropy(&logits, &tile.targets, cw, None)
                .expect("tile targets are valid class indices");
            net.backward(&out.grad);
            adam.step(&mut net.params());
            losses.push(out.loss);
        }

        let tenth = (losses.len() / 10).max(1);
        let initial_loss = losses[..tenth].iter().sum::<f32>() / tenth as f32;
        let final_loss = losses[losses.len() - tenth..].iter().sum::<f32>() / tenth as f32;
        TrainReport {
            losses,
            initial_loss,
            final_loss,
        }
    }
}

/// Evaluates a trained network over every sample of a split, returning the
/// aggregate confusion matrix.
pub fn evaluate_split(net: &mut MsdNet, dataset: &Dataset, split: Split) -> ConfusionMatrix {
    let mut cm = ConfusionMatrix::new();
    for sample in dataset.split(split) {
        let res = infer::segment(net, &sample.image);
        cm.accumulate(&res.labels, &sample.labels);
    }
    cm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msdnet::MsdNetConfig;
    use el_scene::DatasetConfig;

    #[test]
    fn smoke_training_reduces_loss() {
        let ds = Dataset::generate(&DatasetConfig::small(1));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let mut cfg = TrainConfig::smoke();
        cfg.steps = 120;
        let report = Trainer::new(cfg).train(&mut net, &ds);
        assert!(
            report.improved(),
            "loss did not improve: {} -> {}",
            report.initial_loss,
            report.final_loss
        );
        assert_eq!(report.losses.len(), 120);
    }

    #[test]
    fn evaluate_split_covers_all_pixels() {
        let ds = Dataset::generate(&DatasetConfig::small(2));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let cm = evaluate_split(&mut net, &ds, Split::Test);
        let expected: u64 = ds.split(Split::Test).map(|s| s.labels.len() as u64).sum();
        assert_eq!(cm.total(), expected);
    }

    #[test]
    fn deterministic_training() {
        let ds = Dataset::generate(&DatasetConfig::small(3));
        let run = || {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
            Trainer::new(TrainConfig::smoke())
                .train(&mut net, &ds)
                .losses
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "invalid training configuration")]
    fn zero_steps_rejected() {
        let mut cfg = TrainConfig::smoke();
        cfg.steps = 0;
        let _ = Trainer::new(cfg);
    }
}
