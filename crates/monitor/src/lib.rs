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
//! formulation, which makes it the safety pipeline's dominant cost. One
//! engine serves every Monte-Carlo entry point — [`bayesian_segment`]
//! (one image), [`bayesian_segment_batch`] (any number of crops, each
//! with its own seed and frame origin) and [`bayesian_segment_tiled`]
//! (the budgeted full-frame sweep) — and attacks all of it (see the
//! [`bayes`] module docs for the full scheme):
//!
//! - the Monte-Carlo-**invariant** prefix of the network (the dilated
//!   branch convolutions, which no dropout precedes) is computed once per
//!   crop or audit tile, one GEMM per branch, and shared by every sample;
//! - each sample's dropout masks are **coordinate-keyed**: every mask bit
//!   is a pure hash of the sample's seed (SplitMix64-split from the
//!   caller's seed by sample index) and the activation's global frame
//!   coordinates, so samples are order-independent and a crop's
//!   statistics do not depend on its batch, its tile or the thread count;
//! - samples fall into a fixed partition of at most [`bayes::MC_CHUNKS`]
//!   chunks that depends only on the sample count, and every crop's
//!   chunks drain one shared crop × chunk rayon queue;
//! - statistics stream through per-chunk Welford accumulators merged in
//!   fixed chunk order (Chan's formula) — O(1) memory in the sample
//!   count, and bit-identical for any number of worker threads. The fold
//!   is one safe, portable pair of loops (one sample per step, never
//!   FMA) over each L1-resident pixel block of a sample; only the GEMMs,
//!   mask rows and softmax under it dispatch through the tier ladder.
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

pub use bayes::{bayesian_segment, bayesian_segment_batch, BayesStats};
pub use calibration::{evaluate_rule, select_tau, sweep_tau, CalibrationCase, OperatingPoint};
pub use metrics::MonitorQuality;
pub use monitor::{batch_seed, Monitor, MonitorConfig, MonitorReport, Verdict, BATCH_SEED_STRIDE};
pub use rule::MonitorRule;
pub use tiledbayes::{bayesian_segment_tiled, TiledBayesStats};

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
