//! The monitor façade: verifying candidate landing zones.

use el_geom::Grid;
use el_nn::Workspace;
use el_scene::Image;
use el_seg::data::pad_image;
use el_seg::MsdNet;
use serde::{Deserialize, Serialize};

use crate::bayes::{bayesian_segment, mc_stats, BayesStats};
use crate::rule::MonitorRule;

/// Seed offset between consecutive crops of a batch — the constant the
/// sequential decision loop has always stepped its per-trial seed by, so
/// batched and sequential verification draw identical masks.
pub const BATCH_SEED_STRIDE: u64 = 0x9E37_79B9;

/// The derived seed of crop `index` in a batch keyed by `base`:
/// `base + (index+1)·`[`BATCH_SEED_STRIDE`].
///
/// This is the single definition of the per-trial seed chain. Any caller
/// that reproduces batch verification crop-by-crop — or coalesces crops
/// from several frames into one
/// [`bayesian_segment_batch`](crate::bayes::bayesian_segment_batch)
/// call, as [`Monitor::verify_frames`] does —
/// must derive seeds with this function to stay bit-identical to
/// [`Monitor::verify_batch`].
pub fn batch_seed(base: u64, index: usize) -> u64 {
    base.wrapping_add((index as u64 + 1).wrapping_mul(BATCH_SEED_STRIDE))
}

/// Monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// The per-pixel decision rule.
    pub rule: MonitorRule,
    /// Number of Monte-Carlo-dropout samples (the paper computes
    /// prediction statistics on 10).
    pub samples: usize,
    /// Maximum fraction of warning pixels tolerated before the zone is
    /// rejected. The paper's conservative stance is 0 (any warning pixel
    /// rejects); a small tolerance absorbs isolated sampling speckle.
    pub max_warning_fraction: f64,
}

impl MonitorConfig {
    /// The paper's configuration: Eq. 2 rule, 10 samples, zero tolerance.
    pub fn paper() -> Self {
        MonitorConfig {
            rule: MonitorRule::paper(),
            samples: 10,
            max_warning_fraction: 0.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.rule.validate()?;
        if self.samples == 0 {
            return Err("samples must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.max_warning_fraction) {
            return Err("max_warning_fraction must be in [0, 1]".into());
        }
        Ok(())
    }
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The monitor's verdict on a candidate zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// The zone is confirmed safe: landing may proceed.
    Confirmed,
    /// The zone is rejected: try another candidate or abort.
    Rejected,
}

/// The result of verifying one image crop.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Per-pixel warnings (`true` = busy-road bound violated).
    pub warning_map: Grid<bool>,
    /// Fraction of warning pixels.
    pub warning_fraction: f64,
    /// The verdict under the configured tolerance.
    pub verdict: Verdict,
    /// The underlying Bayesian statistics (exposed for experiments).
    pub stats: BayesStats,
}

/// The runtime monitor of the paper's Figure 2 safety architecture.
///
/// Owns no model: verification borrows the same MSDnet used by the core
/// function and runs it in stochastic (Monte-Carlo-dropout) mode, which is
/// exactly how the paper derives BMSDnet from MSDnet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Monitor {
    config: MonitorConfig,
}

impl Monitor {
    /// Creates a monitor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MonitorConfig::validate`].
    pub fn new(config: MonitorConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid monitor configuration: {e}");
        }
        Monitor { config }
    }

    /// The paper's monitor ([`MonitorConfig::paper`]).
    pub fn paper() -> Self {
        Self::new(MonitorConfig::paper())
    }

    /// The monitor configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Verifies an image crop (a candidate landing zone's sub-image).
    ///
    /// Runs Monte-Carlo-dropout inference and applies the decision rule.
    /// Deterministic given `(net, crop, seed)`.
    pub fn verify(&self, net: &MsdNet, crop: &Image, seed: u64) -> MonitorReport {
        let sw = el_metrics::Stopwatch::start();
        let stats = bayesian_segment(net, crop, self.config.samples, seed);
        let report = self.report_from_stats(stats);
        el_metrics::registry().verify_latency.record(sw);
        report
    }

    /// Verifies a batch of candidate crops in **one** engine invocation:
    /// the one-frame case of [`Monitor::verify_frames`].
    ///
    /// Crop `i` draws its masks from the derived seed
    /// `seed + (i+1)·`[`BATCH_SEED_STRIDE`] — the same per-trial seed
    /// chain the sequential decision loop uses — so report `i` is
    /// **bit-identical** to `verify(net, &crops[i], seed + (i+1)·stride)`
    /// (property-tested).
    pub fn verify_batch(&self, net: &MsdNet, crops: &[Image], seed: u64) -> Vec<MonitorReport> {
        self.verify_frames(net, &[(crops, seed)])
            .pop()
            .expect("one report list per frame")
    }

    /// Verifies every frame's crops in **one** engine invocation.
    /// `frames` pairs each frame's crops with its seed; crop `i` of a
    /// frame draws its masks from [`batch_seed`]`(frame_seed, i)`
    /// wherever it lands in the coalesced batch, so a frame's reports are
    /// bit-identical to [`Monitor::verify_batch`] on that frame alone.
    /// Returns one report list per frame, in order.
    ///
    /// The batch shares one machine: each crop is padded once straight
    /// from its image, each of its 64-pixel blocks computes the
    /// Monte-Carlo-invariant prefix once for all samples, and all crops'
    /// row bands drain one shared rayon work queue instead of `N`
    /// sequential pools with a join barrier per crop (see
    /// [`bayesian_segment_batch`](crate::bayes::bayesian_segment_batch)).
    /// Records one
    /// `verify_batch_latency` sample per call, however many frames it
    /// coalesces.
    pub fn verify_frames(
        &self,
        net: &MsdNet,
        frames: &[(&[Image], u64)],
    ) -> Vec<Vec<MonitorReport>> {
        let sw = el_metrics::Stopwatch::start();
        let (mut ws, radius) = (Workspace::new(), net.receptive_radius());
        let crops = frames.iter().flat_map(|(crops, _)| crops.iter());
        let inputs: Vec<_> = crops.map(|c| pad_image(c, radius, &mut ws)).collect();
        let seeds: Vec<u64> = frames
            .iter()
            .flat_map(|&(crops, seed)| (0..crops.len()).map(move |i| batch_seed(seed, i)))
            .collect();
        let origins = vec![(0usize, 0usize); inputs.len()];
        let mut reports = mc_stats(net, &inputs, self.config.samples, &seeds, &origins)
            .into_iter()
            .map(|stats| self.report_from_stats(stats));
        let per_frame = frames
            .iter()
            .map(|(crops, _)| reports.by_ref().take(crops.len()).collect())
            .collect();
        el_metrics::registry().verify_batch_latency.record(sw);
        per_frame
    }

    /// Applies the decision rule to precomputed statistics.
    pub fn report_from_stats(&self, stats: BayesStats) -> MonitorReport {
        let warning_map = self.config.rule.warning_map(&stats);
        let warning_fraction = warning_map.fraction_set();
        let verdict = if warning_fraction <= self.config.max_warning_fraction {
            Verdict::Confirmed
        } else {
            Verdict::Rejected
        };
        MonitorReport {
            warning_map,
            warning_fraction,
            verdict,
            stats,
        }
    }
}

impl Default for Monitor {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_geom::{Rect, SemanticClass};
    use el_scene::{Conditions, Scene, SceneParams};
    use el_seg::MsdNetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn quick_monitor(samples: usize) -> Monitor {
        Monitor::new(MonitorConfig {
            samples,
            ..MonitorConfig::paper()
        })
    }

    #[test]
    fn verify_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let scene = Scene::generate(&SceneParams::small(), 2);
        let image = scene.render(&Conditions::nominal(), 3);
        let crop = image.crop(Rect::new(0, 0, 24, 24)).unwrap();
        let m = quick_monitor(4);
        let a = m.verify(&net, &crop, 7);
        let b = m.verify(&net, &crop, 7);
        assert_eq!(a.warning_map, b.warning_map);
        assert_eq!(a.verdict, b.verdict);
    }

    #[test]
    fn verdict_follows_tolerance() {
        // Build stats that warn on exactly one pixel out of four.
        let mut mean = el_nn::Tensor::zeros(8, 2, 2);
        mean.channel_mut(SemanticClass::Road.index())[0] = 0.9;
        let stats = BayesStats {
            mean,
            std: el_nn::Tensor::zeros(8, 2, 2),
            samples: 10,
        };
        let strict = Monitor::paper();
        assert_eq!(
            strict.report_from_stats(stats.clone()).verdict,
            Verdict::Rejected
        );
        let tolerant = Monitor::new(MonitorConfig {
            max_warning_fraction: 0.5,
            ..MonitorConfig::paper()
        });
        let report = tolerant.report_from_stats(stats);
        assert_eq!(report.verdict, Verdict::Confirmed);
        assert!((report.warning_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn untrained_net_warns_on_roads_sometimes() {
        // An untrained network is uncertain everywhere; with the paper's
        // conservative rule most pixels should carry warnings.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let scene = Scene::generate(&SceneParams::small(), 5);
        let image = scene.render(&Conditions::nominal(), 5);
        let crop = image.crop(Rect::new(0, 0, 32, 32)).unwrap();
        let report = quick_monitor(6).verify(&net, &crop, 11);
        assert!(
            report.warning_fraction > 0.2,
            "untrained net should be widely uncertain, got {}",
            report.warning_fraction
        );
    }

    #[test]
    #[should_panic(expected = "invalid monitor configuration")]
    fn invalid_config_rejected() {
        let _ = Monitor::new(MonitorConfig {
            samples: 0,
            ..MonitorConfig::paper()
        });
    }
}
