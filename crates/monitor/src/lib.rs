//! Bayesian runtime monitoring for learned landing-zone selection.
//!
//! The paper's safety architecture (Figure 2) pairs the deterministic
//! MSDnet *core function* with a *monitor* built from the Bayesian version
//! of the same network: Monte-Carlo dropout (Gal & Ghahramani, 2016) keeps
//! dropout active at inference, several stochastic passes yield a per-pixel
//! mean `µ` and standard deviation `σ` of the class scores, and a pixel is
//! declared safe only when the conservative 99.7% confidence bound clears a
//! small threshold:
//!
//! ```text
//! µ_ij + 3 σ_ij ≤ τ        (paper Eq. 2, τ = 0.125 = 1/8 classes)
//! ```
//!
//! checked for **each of the three busy-road sub-categories** (road,
//! static car, moving car). This crate implements:
//!
//! - [`bayes`]: Monte-Carlo-dropout inference producing [`BayesStats`]
//!   (µ and σ tensors).
//! - [`rule`]: the confidence-interval decision rule and warning maps.
//! - [`monitor`]: the [`Monitor`] façade that verifies candidate zones.
//! - [`metrics`]: monitor-quality metrics — how much of the core model's
//!   dangerous misses the monitor covers, at what false-alarm cost.
//!
//! # The fast monitor engine
//!
//! Monitor latency is `samples ×` core-function latency in the naive
//! formulation, which makes it the safety pipeline's dominant cost. The
//! [`bayes`] engine attacks all of it (see that module's docs for the
//! full scheme):
//!
//! - the Monte-Carlo-**invariant** prefix of the network (the dilated
//!   branch convolutions, which no dropout precedes) is computed once per
//!   crop and shared by every sample;
//! - each sample's dropout masks come from a private `ChaCha8Rng` seeded
//!   by SplitMix64-splitting the caller's seed with the sample index, so
//!   samples are order-independent and the chunk loop parallelises over
//!   rayon without changing a single bit of the result;
//! - statistics stream through per-chunk Welford accumulators merged in
//!   fixed chunk order (Chan's formula) — O(1) memory in the sample
//!   count, and bit-identical between the parallel and sequential paths.
//!
//! # Example
//!
//! ```
//! use el_monitor::{Monitor, MonitorConfig};
//! use el_seg::{MsdNet, MsdNetConfig};
//! use el_scene::{Conditions, Scene, SceneParams};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
//! let scene = Scene::generate(&SceneParams::small(), 1);
//! let image = scene.render(&Conditions::nominal(), 2);
//! let monitor = Monitor::new(MonitorConfig { samples: 4, ..MonitorConfig::default() });
//! let report = monitor.verify(&net, &image, 3);
//! assert_eq!(report.warning_map.width(), image.width());
//! ```
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bayes;
pub mod calibration;
pub mod metrics;
pub mod monitor;
pub mod rule;
pub mod tiledbayes;

pub use bayes::{
    bayesian_segment, bayesian_segment_batch, bayesian_segment_tensor, bayesian_segment_tensor_at,
    bayesian_segment_tensor_reference, bayesian_segment_tensor_sequential, BayesStats,
};
pub use calibration::{evaluate_rule, select_tau, sweep_tau, CalibrationCase, OperatingPoint};
pub use metrics::MonitorQuality;
pub use monitor::{batch_seed, Monitor, MonitorConfig, MonitorReport, Verdict, BATCH_SEED_STRIDE};
pub use rule::MonitorRule;
pub use tiledbayes::{bayesian_segment_tiled, bayesian_segment_tiled_with_clock, TiledBayesStats};

/// The audit sweep's numerical contract. The audit always runs the exact
/// f32 engine, so this type has exactly one value. It is kept only so
/// existing `ServeConfig { precision, .. }` literals compile, and goes
/// when the benchmark is next revised.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AuditPrecision;

impl AuditPrecision {
    /// The exact contract (the only one).
    pub const fn exact() -> Self {
        AuditPrecision
    }
}
