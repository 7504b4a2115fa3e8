//! Urban UAV flight simulator with the paper's safety-switch
//! architecture.
//!
//! The paper's Figure 1 proposes a continuous monitoring loop that routes
//! detected anomalies to one of four emergency maneuvers:
//!
//! - **H** — Hovering, for temporary unavailability of external services;
//! - **RB** — Return-to-Base, for permanent communication loss or
//!   on-board failures that still allow proper navigability;
//! - **EL** — autonomous Emergency Landing, for loss of navigation
//!   capabilities that still allows trajectory control;
//! - **FT** — Flight Termination (stop engines, open parachute), when
//!   neither flight continuation nor safe EL can be ensured.
//!
//! This crate implements that loop on a point-mass flight model over
//! synthetic urban terrain (`el-scene`), with stochastic failure
//! injection drawn from the hazard taxonomy of Belcastro et al. (2017)
//! (`el-sora::hazard`), parachute descent with wind drift, and
//! Monte-Carlo campaigns that grade outcomes on the paper's Table I
//! severity scale.
//!
//! Every campaign runs through one runner, [`Scenario::run_with`]: a
//! declarative [`Scenario`] fans its missions out over the thread pool,
//! building a fresh [`ElSystem`] per mission, and returns a
//! [`CampaignReport`] plus per-mission event logs and a replay
//! fingerprint. [`Scenario::run`] flies the scenario's own [`ElPolicy`];
//! `run_with` takes a factory for any other system, such as the `certel`
//! crate's adapter around the real Figure 2 pipeline.
//!
//! # Example
//!
//! ```
//! use el_uavsim::{Mission, MissionConfig, PerfectEl};
//!
//! let config = MissionConfig::small_test();
//! let outcome = Mission::new(config).run(&mut PerfectEl::default(), 42);
//! // Every mission ends in some terminal state with a graded severity.
//! assert!(outcome.severity.rating() >= 1);
//! ```
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod elsys;
pub mod failure;
pub mod mission;
pub mod parachute;
pub mod safety;
pub mod scenario;
pub mod seedchain;
pub mod wind;

pub use campaign::{BinomialInterval, CampaignReport, HazardPower, PowerConfig, PowerReport};
pub use elsys::{ElSystem, NoEl, NoisyEl, PerfectEl};
pub use failure::{FailureEvent, FailureInjector, FailureRates};
pub use mission::{Mission, MissionConfig, MissionEvent, MissionOutcome, TerminalState};
pub use parachute::ParachuteDescent;
pub use safety::{AuditAdvisory, FlightMode, Maneuver, SafetySwitch};
pub use scenario::{
    ElPolicy, MissionRecord, Scenario, ScenarioError, ScenarioOutcome, ScheduledFault,
};
pub use seedchain::{fleet_scene_seed, frame_seed, mission_seeds, stream_seeds};
pub use wind::Wind;
