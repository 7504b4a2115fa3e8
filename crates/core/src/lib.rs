//! Certifiable emergency landing for urban UAVs — the core pipeline.
//!
//! This crate implements the paper's primary contribution: a landing-zone
//! selection (LZS) system structured as the Computer/Monitor safety
//! pattern of Figure 2, engineered against the SORA integrity and
//! assurance criteria the paper proposes (Tables III and IV):
//!
//! - [`zone`]: the *core function* — propose candidate landing zones far
//!   from predicted busy roads from a segmented on-board image.
//! - [`drift`]: parachute-drift safety buffers, converting wind, descent
//!   profile and UAV latency into the metric clearance a zone needs
//!   (integrity criterion Medium-1).
//! - [`monitorlink`]: cropping candidate zones and passing the sub-images
//!   to the Bayesian runtime monitor (assurance criterion Medium-3) — the
//!   crop-then-verify architecture the paper adopts because full-frame
//!   Bayesian inference is prohibitively slow.
//! - [`decision`]: the decision module — confirm landing, request another
//!   candidate, or abort to flight termination.
//! - [`stages`]: the Figure 2 frame stages (plan, conclude) around the
//!   monitor's verify stage, shared by the one-frame pipeline and the
//!   multi-stream service.
//! - [`pipeline`]: the complete Figure 2 loop, plus an unmonitored
//!   baseline and a classical edge-density baseline.
//! - [`audit`]: the whole-frame audit mode — a strictly advisory,
//!   budgeted post-decision Bayesian sweep over the full frame that turns
//!   the crop-only monitor into frame-level coverage.
//! - [`requirements`]: the Table III/IV criteria as machine-checkable
//!   predicates and evidence records.
//! - [`assess`]: ground-truth assessment of selected zones (for
//!   experiments only — the airborne system never sees ground truth).
//!
//! # Example
//!
//! ```
//! use el_core::pipeline::{ElPipeline, PipelineConfig};
//! use el_scene::{Conditions, Scene, SceneParams};
//! use el_seg::{MsdNet, MsdNetConfig};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
//! let mut pipeline = ElPipeline::try_new(net, PipelineConfig::fast_test())?;
//! let scene = Scene::generate(&SceneParams::small(), 1);
//! let image = scene.render(&Conditions::nominal(), 2);
//! let outcome = pipeline.run(&image, 3);
//! // An untrained network yields either an abort or a monitored landing.
//! println!("{:?}", outcome.decision);
//! # Ok::<(), el_core::pipeline::PipelineConfigError>(())
//! ```
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assess;
pub mod audit;
pub mod decision;
pub mod drift;
pub mod monitorlink;
pub mod pipeline;
pub mod requirements;
pub mod stages;
pub mod zone;

pub use assess::{assess_zone, ZoneAssessment};
pub use audit::{
    audit_seed, run_audit_with_clock, AuditConfig, AuditRegion, AuditReport, TileAuditStat,
};
pub use decision::{Decision, DecisionConfig, DecisionModule};
pub use drift::DriftModel;
pub use pipeline::{
    replay_decisions, ElOutcome, ElPipeline, FinalDecision, PipelineConfig, PipelineConfigError,
    Trial,
};
pub use requirements::{AssuranceEvidence, AssuranceLevel, IntegrityLevel};
pub use stages::{audit_frame, plan_frame, FramePlan, Screen};
pub use zone::{propose_zones, screen_candidates, Candidate, RiskConfig, RiskScreen, ZoneParams};
