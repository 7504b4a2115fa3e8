//! # certel — certifiable emergency landing for urban UAVs
//!
//! A comprehensive Rust reproduction of *Certifying Emergency Landing for
//! Safe Urban UAV* (Guerin, Delmas, Guiochet — DSN 2021,
//! arXiv:2104.14928). The stack contains every system the paper describes
//! or depends on:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`el_geom`] | grids, label maps, distance transforms, component labelling |
//! | [`el_nn`] | from-scratch tensors, dilated convolutions, dropout, backprop |
//! | [`el_scene`] | procedural UAVid-like urban scenes, conditions, datasets |
//! | [`el_seg`] | the MSDnet-style segmenter, trainer and metrics |
//! | [`el_monitor`] | Monte-Carlo-dropout Bayesian runtime monitor (Eq. 2) |
//! | [`el_core`] | landing-zone selection, drift buffers, the Figure 2 pipeline, Table III/IV requirements |
//! | [`el_sora`] | the SORA v2.0 engine and the MEDI DELIVERY case study |
//! | [`el_uavsim`] | the Figure 1 safety switch, failure injection, campaigns |
//! | [`el_riskmap`] | the persistent cross-fleet ground-risk map with decayed accumulation |
//! | [`el_serve`] | the resident multi-stream service with cross-stream batching |
//!
//! This facade re-exports the whole public API and provides
//! [`PipelineElSystem`], the adapter that mounts the real Figure 2
//! perception pipeline into the flight simulator for closed-loop
//! failure-injection experiments.
//!
//! ## Quickstart
//!
//! ```no_run
//! use certel::prelude::*;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! // 1. A synthetic urban world and a training set.
//! let dataset = Dataset::generate(&DatasetConfig::benchmark(1));
//!
//! // 2. Train the MSDnet core function.
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let mut net = MsdNet::new(&MsdNetConfig::default_uavid(), &mut rng);
//! Trainer::new(TrainConfig::benchmark()).train(&mut net, &dataset);
//!
//! // 3. Run the certified landing pipeline on an emergency frame.
//! let mut pipeline = ElPipeline::try_new(net, PipelineConfig::paper()).unwrap();
//! let scene = Scene::generate(&SceneParams::default_urban(), 99);
//! let image = scene.render(&Conditions::nominal(), 7);
//! match pipeline.run(&image, 42).decision {
//!     FinalDecision::Land(zone) => println!("land at {}", zone.center),
//!     FinalDecision::Abort(reason) => println!("abort: {reason:?}"),
//! }
//! ```

pub use el_core;
pub use el_geom;
pub use el_kernels;
pub use el_metrics;
pub use el_monitor;
pub use el_nn;
pub use el_riskmap;
pub use el_scene;
pub use el_seg;
pub use el_serve;
pub use el_sora;
pub use el_uavsim;

pub mod adapter;

pub use adapter::PipelineElSystem;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::adapter::PipelineElSystem;
    pub use el_core::screen_candidates;
    pub use el_core::{
        assess_zone, audit_seed, propose_zones, AssuranceEvidence, AssuranceLevel, AuditConfig,
        AuditRegion, AuditReport, Candidate, DriftModel, ElOutcome, ElPipeline, FinalDecision,
        IntegrityLevel, PipelineConfig, PipelineConfigError, RiskConfig, RiskScreen, TileAuditStat,
        ZoneParams,
    };
    pub use el_geom::{Grid, LabelMap, Point, Rect, SemanticClass, Vec2};
    pub use el_kernels::{KernelError, KernelTier};
    pub use el_metrics::{MetricsRegistry, MetricsSnapshot};
    pub use el_monitor::{
        bayesian_segment, BayesStats, Monitor, MonitorConfig, MonitorQuality, MonitorRule, Verdict,
    };
    pub use el_riskmap::{HotRegion, RiskMap, RiskMapConfig, RiskMapSnapshot, RiskObservation};
    pub use el_scene::{Camera, Conditions, Dataset, DatasetConfig, Scene, SceneParams, Split};
    pub use el_seg::{segment, ConfusionMatrix, MsdNet, MsdNetConfig, TrainConfig, Trainer};
    pub use el_serve::{
        generate_streams, run_load, AdmissionConfig, CostModel, DriftConfig, ElService,
        FrameRequest, LoadConfig, RiskSettings, ServeConfig, SessionSummary, TerrainMode,
        TickClock,
    };
    pub use el_sora::hazard::HazardCategory;
    pub use el_sora::{
        medi_delivery, Arc, ElMitigation, Mitigation, Robustness, Sail, Severity, SoraAssessment,
    };
    pub use el_uavsim::{
        AuditAdvisory, BinomialInterval, CampaignReport, ElPolicy, ElSystem, FailureRates,
        HazardPower, Maneuver, Mission, MissionConfig, MissionEvent, MissionRecord, NoEl, NoisyEl,
        PerfectEl, PowerConfig, PowerReport, Scenario, ScenarioError, ScenarioOutcome,
        ScheduledFault, TerminalState, Wind,
    };
}
