//! Declarative fault-injection campaign scenarios.
//!
//! A *scenario* is a JSON file that fully describes a failure-injection
//! campaign: the mission profile and its overrides, the wind regime, the
//! stochastic failure rates, deterministically *scheduled* faults layered
//! on top, the EL-system policy, and the statistical-power floor. The
//! runner replays a scenario bit-identically from its `base_seed`,
//! fanning missions out over a thread pool, and produces a
//! [`CampaignReport`] (with its [`PowerReport`]
//! section) plus one machine-readable event log per mission.
//!
//! # Determinism contract
//!
//! - Every mission derives its stochastic and scene seeds from
//!   `base_seed` and its mission index through an independent SplitMix64
//!   chain ([`mission_seeds`]); no mission's randomness depends on any
//!   other mission.
//! - Scheduled faults are merged into the mission *after* the stochastic
//!   stream is sampled and consume no RNG draws, so adding a scheduled
//!   fault to one mission leaves every other mission's log byte-identical
//!   (see [`Mission::run_with`]).
//! - Missions run in parallel but results are merged in mission-index
//!   order, so the report and the [`ScenarioOutcome::fingerprint`] are
//!   independent of thread count and scheduling.
//!
//! # Example
//!
//! ```
//! use el_uavsim::scenario::Scenario;
//!
//! let scenario = Scenario::from_json(
//!     r#"{
//!         "name": "smoke",
//!         "missions": 2,
//!         "base_seed": 42,
//!         "mission": { "profile": "SmallTest" },
//!         "faults": [
//!             { "hazard": "LostNavigation", "at_time_s": 30.0 }
//!         ]
//!     }"#,
//! )
//! .unwrap();
//! let outcome = scenario.run().unwrap();
//! assert_eq!(outcome.report.missions, 2);
//! assert_eq!(outcome.fingerprint(), scenario.run().unwrap().fingerprint());
//! ```

use std::fmt;
use std::path::Path;

use el_metrics::Fingerprint;
use el_scene::SceneParams;
use el_sora::hazard::HazardCategory;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::campaign::{hazard_index, CampaignReport, PowerConfig, PowerReport};
use crate::elsys::{ElSystem, NoEl, NoisyEl, PerfectEl};
use crate::failure::{FailureEvent, FailureRates};
use crate::mission::{Mission, MissionConfig, MissionEvent, MissionOutcome, TerminalState};
use crate::safety::FlightMode;
use crate::wind::Wind;

/// An error loading, parsing, or validating a scenario file.
///
/// Scenario files are external input: every malformed file maps to one of
/// these variants with an actionable message — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The file could not be read.
    Io {
        /// Path as given by the caller.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The file is not valid JSON, or its shape does not match the
    /// scenario schema.
    Parse(String),
    /// The scenario parsed but describes an invalid campaign.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io { path, message } => {
                write!(f, "cannot read scenario file `{path}`: {message}")
            }
            ScenarioError::Parse(m) => write!(f, "malformed scenario: {m}"),
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The base mission profile a scenario starts from before overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MissionProfile {
    /// [`MissionConfig::medi_delivery`] — the paper's MEDI DELIVERY
    /// mission over a default 256×256 urban scene.
    MediDelivery,
    /// [`MissionConfig::small_test`] — the fast 96×96 test profile.
    SmallTest,
}

/// Declarative wind regime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WindSpec {
    /// [`Wind::calm`].
    Calm,
    /// [`Wind::breeze`] towards the given direction.
    Breeze {
        /// Direction the air moves towards, radians.
        direction_rad: f64,
    },
    /// [`Wind::storm`] towards the given direction.
    Storm {
        /// Direction the air moves towards, radians.
        direction_rad: f64,
    },
    /// Fully explicit wind model.
    Custom {
        /// Mean wind speed, m/s.
        mean_speed_mps: f64,
        /// Direction the air moves towards, radians.
        direction_rad: f64,
        /// Standard deviation of gust speed, m/s.
        gust_std_mps: f64,
    },
}

impl WindSpec {
    fn resolve(&self) -> Wind {
        match *self {
            WindSpec::Calm => Wind::calm(),
            WindSpec::Breeze { direction_rad } => Wind::breeze(direction_rad),
            WindSpec::Storm { direction_rad } => Wind::storm(direction_rad),
            WindSpec::Custom {
                mean_speed_mps,
                direction_rad,
                gust_std_mps,
            } => Wind {
                mean_speed_mps,
                direction_rad,
                gust_std_mps,
            },
        }
    }
}

/// The base rate table a [`RatesSpec`] starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RatesBase {
    /// [`FailureRates::none`] — no stochastic failures.
    Zero,
    /// [`FailureRates::stress`] — the pessimistic campaign profile.
    Stress,
}

/// Declarative failure rates: a base table plus per-hazard overrides
/// (events per flight hour). With no `base`, the mission profile's own
/// rates are kept and only the listed hazards are overridden.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RatesSpec {
    /// Base table; `None` keeps the profile's rates.
    #[serde(default)]
    pub base: Option<RatesBase>,
    /// Override: temporary service loss, events/h.
    #[serde(default)]
    pub temporary_service_loss: Option<f64>,
    /// Override: lost communication, events/h.
    #[serde(default)]
    pub lost_communication: Option<f64>,
    /// Override: lost navigation, events/h.
    #[serde(default)]
    pub lost_navigation: Option<f64>,
    /// Override: loss of control, events/h.
    #[serde(default)]
    pub loss_of_control: Option<f64>,
    /// Override: fly-away, events/h.
    #[serde(default)]
    pub fly_away: Option<f64>,
    /// Override: degraded propulsion, events/h.
    #[serde(default)]
    pub degraded_propulsion: Option<f64>,
}

impl RatesSpec {
    fn resolve(&self, profile_rates: FailureRates) -> FailureRates {
        let mut rates = match self.base {
            None => profile_rates,
            Some(RatesBase::Zero) => FailureRates::none(),
            Some(RatesBase::Stress) => FailureRates::stress(),
        };
        if let Some(r) = self.temporary_service_loss {
            rates.temporary_service_loss = r;
        }
        if let Some(r) = self.lost_communication {
            rates.lost_communication = r;
        }
        if let Some(r) = self.lost_navigation {
            rates.lost_navigation = r;
        }
        if let Some(r) = self.loss_of_control {
            rates.loss_of_control = r;
        }
        if let Some(r) = self.fly_away {
            rates.fly_away = r;
        }
        if let Some(r) = self.degraded_propulsion {
            rates.degraded_propulsion = r;
        }
        rates
    }
}

/// The base scene layout a [`SceneSpec`] starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SceneProfile {
    /// [`SceneParams::default_urban`] — 256×256 at 0.5 m/px.
    Urban,
    /// [`SceneParams::small`] — 96×96 test tile.
    Small,
}

/// Declarative scene layout: a base profile plus population/terrain
/// overrides.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SceneSpec {
    /// Base layout; `None` keeps the mission profile's scene parameters.
    #[serde(default)]
    pub profile: Option<SceneProfile>,
    /// Fixed terrain seed for the template (each mission still re-seeds
    /// when the scenario varies scenes).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Uniform scale factor on the tile extent.
    #[serde(default)]
    pub scale: Option<f64>,
    /// Override: fraction of blocks that are parks.
    #[serde(default)]
    pub park_fraction: Option<f64>,
    /// Override: cars per metre of road.
    #[serde(default)]
    pub car_density: Option<f64>,
    /// Override: humans per m² of walkable area.
    #[serde(default)]
    pub human_density: Option<f64>,
    /// Override: trees per m² of green area.
    #[serde(default)]
    pub tree_density: Option<f64>,
}

impl SceneSpec {
    fn resolve(&self, profile_params: &SceneParams) -> Result<SceneParams, ScenarioError> {
        let mut params = match self.profile {
            None => profile_params.clone(),
            Some(SceneProfile::Urban) => SceneParams::default_urban(),
            Some(SceneProfile::Small) => SceneParams::small(),
        };
        if let Some(s) = self.scale {
            if !s.is_finite() || s <= 0.0 {
                return Err(ScenarioError::Invalid(format!(
                    "scene scale must be positive and finite (got {s})"
                )));
            }
            params = params.scaled(s);
        }
        if let Some(v) = self.park_fraction {
            params.park_fraction = v;
        }
        if let Some(v) = self.car_density {
            params.car_density = v;
        }
        if let Some(v) = self.human_density {
            params.human_density = v;
        }
        if let Some(v) = self.tree_density {
            params.tree_density = v;
        }
        Ok(params)
    }
}

/// The mission template: a base profile plus field overrides. Every
/// field is optional; an empty spec is exactly the profile's default.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MissionSpec {
    /// Base profile; `None` means [`MissionProfile::MediDelivery`].
    #[serde(default)]
    pub profile: Option<MissionProfile>,
    /// Override: cruise speed, m/s.
    #[serde(default)]
    pub cruise_speed_mps: Option<f64>,
    /// Override: operating altitude, m AGL.
    #[serde(default)]
    pub altitude_m: Option<f64>,
    /// Override: mission duration, s.
    #[serde(default)]
    pub duration_s: Option<f64>,
    /// Override: EL camera footprint radius, m.
    #[serde(default)]
    pub view_radius_m: Option<f64>,
    /// Override: EL parachute deploy altitude, m AGL.
    #[serde(default)]
    pub el_deploy_altitude_m: Option<f64>,
    /// Override: hover endurance, s.
    #[serde(default)]
    pub max_hover_s: Option<f64>,
    /// Override: whether an EL function is installed.
    #[serde(default)]
    pub el_installed: Option<bool>,
    /// Override: whether flight termination opens a parachute (M2).
    #[serde(default)]
    pub parachute_on_ft: Option<bool>,
    /// Wind regime; `None` keeps the profile's wind.
    #[serde(default)]
    pub wind: Option<WindSpec>,
    /// Stochastic failure rates; `None` keeps the profile's rates.
    #[serde(default)]
    pub rates: Option<RatesSpec>,
    /// Scene layout; `None` keeps the profile's scene.
    #[serde(default)]
    pub scene: Option<SceneSpec>,
}

impl MissionSpec {
    /// Resolves the spec into a concrete [`MissionConfig`] (unvalidated —
    /// the caller runs [`MissionConfig::validate`] for uniform error
    /// wrapping).
    fn resolve(&self) -> Result<MissionConfig, ScenarioError> {
        let mut config = match self.profile.unwrap_or(MissionProfile::MediDelivery) {
            MissionProfile::MediDelivery => MissionConfig::medi_delivery(0),
            MissionProfile::SmallTest => MissionConfig::small_test(),
        };
        if let Some(v) = self.cruise_speed_mps {
            config.cruise_speed_mps = v;
        }
        if let Some(v) = self.altitude_m {
            config.altitude_m = v;
        }
        if let Some(v) = self.duration_s {
            config.duration_s = v;
        }
        if let Some(v) = self.view_radius_m {
            config.view_radius_m = v;
        }
        if let Some(v) = self.el_deploy_altitude_m {
            config.el_deploy_altitude_m = v;
        }
        if let Some(v) = self.max_hover_s {
            config.max_hover_s = v;
        }
        if let Some(v) = self.el_installed {
            config.el_installed = v;
        }
        if let Some(v) = self.parachute_on_ft {
            config.parachute_on_ft = v;
        }
        if let Some(w) = &self.wind {
            config.wind = w.resolve();
        }
        if let Some(r) = &self.rates {
            config.rates = r.resolve(config.rates);
        }
        if let Some(s) = &self.scene {
            config.scene_params = s.resolve(&config.scene_params)?;
            if let Some(seed) = s.seed {
                config.scene_seed = seed;
            }
        }
        Ok(config)
    }
}

/// A deterministically scheduled fault injection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// The hazard class to inject.
    pub hazard: HazardCategory,
    /// Mission time of injection, seconds.
    pub at_time_s: f64,
    /// Outage duration, seconds; `None` injects a permanent failure.
    #[serde(default)]
    pub duration_s: Option<f64>,
    /// Mission indices to inject into; `None` targets every mission.
    #[serde(default)]
    pub missions: Option<Vec<usize>>,
}

impl ScheduledFault {
    fn targets(&self, mission_index: usize) -> bool {
        match &self.missions {
            None => true,
            Some(list) => list.contains(&mission_index),
        }
    }

    fn to_event(&self) -> FailureEvent {
        FailureEvent {
            hazard: self.hazard,
            at_time_s: self.at_time_s,
            duration_s: self.duration_s.unwrap_or(f64::INFINITY),
        }
    }
}

/// The EL-system policy a scenario instantiates per mission. A fresh EL
/// system is built for every mission, so stateful implementations cannot
/// leak information across the parallel fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ElPolicy {
    /// [`PerfectEl`] with the given true-clearance requirement.
    Perfect {
        /// Required true clearance from high-risk pixels, metres.
        clearance_m: f64,
    },
    /// [`NoEl`] — the without-EL baseline.
    NoEl,
    /// [`NoisyEl`] around a [`PerfectEl`] — a degraded segmentation
    /// model that sometimes blunders or aborts.
    Degraded {
        /// Probability of committing to a random (unverified) point.
        blunder_prob: f64,
        /// Probability of finding nothing.
        abort_prob: f64,
        /// Inner oracle's clearance requirement, metres.
        clearance_m: f64,
    },
}

impl Default for ElPolicy {
    /// [`PerfectEl`]'s default 8 m clearance.
    fn default() -> Self {
        ElPolicy::Perfect { clearance_m: 8.0 }
    }
}

impl ElPolicy {
    /// Instantiates a fresh EL system.
    pub fn build(&self) -> Box<dyn ElSystem> {
        match *self {
            ElPolicy::Perfect { clearance_m } => Box::new(PerfectEl { clearance_m }),
            ElPolicy::NoEl => Box::new(NoEl),
            ElPolicy::Degraded {
                blunder_prob,
                abort_prob,
                clearance_m,
            } => Box::new(NoisyEl {
                blunder_prob,
                abort_prob,
                inner: PerfectEl { clearance_m },
            }),
        }
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let clearance = match *self {
            ElPolicy::Perfect { clearance_m } => clearance_m,
            ElPolicy::NoEl => return Ok(()),
            ElPolicy::Degraded {
                blunder_prob,
                abort_prob,
                clearance_m,
            } => {
                for (name, p) in [("blunder_prob", blunder_prob), ("abort_prob", abort_prob)] {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("EL policy {name} must be in [0, 1] (got {p})"));
                    }
                }
                if blunder_prob + abort_prob > 1.0 {
                    return Err(format!(
                        "EL policy blunder_prob + abort_prob must not exceed 1 (got {})",
                        blunder_prob + abort_prob
                    ));
                }
                clearance_m
            }
        };
        if !clearance.is_finite() || clearance <= 0.0 {
            return Err(format!(
                "EL policy clearance_m must be positive and finite (got {clearance})"
            ));
        }
        Ok(())
    }
}

/// A declarative fault-injection campaign, as loaded from a JSON
/// scenario file. See the [module docs](self) for the schema and
/// `docs/scenarios.md` for the full reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (used in reports and logs).
    pub name: String,
    /// Free-text description.
    #[serde(default)]
    pub description: String,
    /// Number of missions to run.
    pub missions: usize,
    /// Base seed of the per-mission SplitMix64 seed chains.
    pub base_seed: u64,
    /// Re-seed the terrain per mission (default `true`); `false` runs
    /// every mission over the template's single scene.
    #[serde(default)]
    pub vary_scenes: Option<bool>,
    /// The mission template.
    #[serde(default)]
    pub mission: MissionSpec,
    /// Scheduled fault injections on top of the stochastic stream.
    #[serde(default)]
    pub faults: Vec<ScheduledFault>,
    /// Statistical-power settings; `None` uses [`PowerConfig::default`].
    #[serde(default)]
    pub power: Option<PowerConfig>,
    /// EL-system policy; `None` uses [`ElPolicy::default`].
    #[serde(default)]
    pub el: Option<ElPolicy>,
}

impl Scenario {
    /// Parses and validates a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed JSON or schema mismatch,
    /// [`ScenarioError::Invalid`] on a well-formed but inconsistent
    /// scenario.
    pub fn from_json(text: &str) -> Result<Scenario, ScenarioError> {
        let scenario: Scenario =
            serde_json::from_str(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Loads and validates a scenario file.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Io`] when the file cannot be read; otherwise as
    /// [`Scenario::from_json`].
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Scenario::from_json(&text).map_err(|e| match e {
            // Give parse errors the file context too.
            ScenarioError::Parse(m) => ScenarioError::Parse(format!("{}: {m}", path.display())),
            other => other,
        })
    }

    /// The effective power configuration.
    pub fn power_config(&self) -> PowerConfig {
        self.power.unwrap_or_default()
    }

    /// The effective EL policy.
    pub fn el_policy(&self) -> ElPolicy {
        self.el.unwrap_or_default()
    }

    /// The fully resolved mission template this scenario runs.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] when the resolved configuration fails
    /// [`MissionConfig::validate`].
    pub fn mission_config(&self) -> Result<MissionConfig, ScenarioError> {
        let config = self.mission.resolve()?;
        config
            .validate()
            .map_err(|e| ScenarioError::Invalid(format!("mission template: {e}")))?;
        Ok(config)
    }

    /// Validates the whole scenario: the resolved mission template, every
    /// scheduled fault, the power settings, and the EL policy.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] with an actionable message naming the
    /// offending field.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.missions == 0 {
            return Err(ScenarioError::Invalid(
                "campaign has zero missions; set `missions` to a positive count".into(),
            ));
        }
        let config = self.mission_config()?;
        for (i, fault) in self.faults.iter().enumerate() {
            let ctx = format!("faults[{i}] ({:?})", fault.hazard);
            if !fault.at_time_s.is_finite() || fault.at_time_s < 0.0 {
                return Err(ScenarioError::Invalid(format!(
                    "{ctx}: at_time_s must be finite and non-negative (got {})",
                    fault.at_time_s
                )));
            }
            if fault.at_time_s >= config.duration_s {
                return Err(ScenarioError::Invalid(format!(
                    "{ctx}: at_time_s {} is at or beyond the mission duration {} s",
                    fault.at_time_s, config.duration_s
                )));
            }
            if let Some(d) = fault.duration_s {
                if !d.is_finite() || d <= 0.0 {
                    return Err(ScenarioError::Invalid(format!(
                        "{ctx}: duration_s must be positive and finite (got {d}); \
                         omit the field for a permanent failure"
                    )));
                }
            }
            if let Some(targets) = &fault.missions {
                if targets.is_empty() {
                    return Err(ScenarioError::Invalid(format!(
                        "{ctx}: `missions` targets no mission; omit the field to target all"
                    )));
                }
                for &t in targets {
                    if t >= self.missions {
                        return Err(ScenarioError::Invalid(format!(
                            "{ctx}: mission index {t} out of range (campaign has {} missions)",
                            self.missions
                        )));
                    }
                }
            }
        }
        self.power_config()
            .validate()
            .map_err(|e| ScenarioError::Invalid(format!("power: {e}")))?;
        self.el_policy()
            .validate()
            .map_err(|e| ScenarioError::Invalid(format!("el: {e}")))?;
        Ok(())
    }

    /// The scheduled events targeting one mission, in declaration order.
    pub fn scheduled_for(&self, mission_index: usize) -> Vec<FailureEvent> {
        self.faults
            .iter()
            .filter(|f| f.targets(mission_index))
            .map(ScheduledFault::to_event)
            .collect()
    }

    /// Runs the campaign, fanning missions out over the thread pool and
    /// merging results in mission-index order.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] when the scenario fails
    /// [`Scenario::validate`] — running never panics on bad input files.
    pub fn run(&self) -> Result<ScenarioOutcome, ScenarioError> {
        self.validate()?;
        let template = self.mission_config()?;
        let vary_scenes = self.vary_scenes.unwrap_or(true);
        let el_policy = self.el_policy();
        let records: Vec<MissionRecord> = (0..self.missions)
            .into_par_iter()
            .map(|index| {
                let (stochastic_seed, scene_seed) = mission_seeds(self.base_seed, index);
                let mut config = template.clone();
                if vary_scenes {
                    config.scene_seed = scene_seed;
                }
                let scene_seed = config.scene_seed;
                let scheduled = self.scheduled_for(index);
                let mut el = el_policy.build();
                let mut log = Vec::new();
                let sw = el_metrics::Stopwatch::start();
                let outcome = Mission::new(config).run_with(
                    el.as_mut(),
                    stochastic_seed,
                    &scheduled,
                    Some(&mut log),
                );
                let metrics = el_metrics::registry();
                metrics.mission_wall.record(sw);
                metrics.missions_run.add(1);
                for &h in &outcome.hazards {
                    metrics.hazard_events[hazard_index(h)].add(1);
                }
                MissionRecord {
                    index,
                    stochastic_seed,
                    scene_seed,
                    outcome,
                    log,
                }
            })
            .collect();

        let mut report = CampaignReport::empty(self.missions);
        for record in &records {
            report.tally(&record.outcome);
        }
        let mut scheduled_events = [0usize; 6];
        for fault in &self.faults {
            let targeted = match &fault.missions {
                None => self.missions,
                Some(list) => list.len(),
            };
            scheduled_events[hazard_index(fault.hazard)] += targeted;
        }
        report.power = Some(PowerReport::compute(
            &report,
            &template.rates,
            template.duration_s,
            &scheduled_events,
            &self.power_config(),
        ));
        Ok(ScenarioOutcome {
            scenario_name: self.name.clone(),
            report,
            logs: records,
        })
    }
}

pub use crate::seedchain::mission_seeds;

/// One mission's replayable record: the seeds it ran under, its graded
/// outcome, and its full event log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissionRecord {
    /// Mission index within the campaign.
    pub index: usize,
    /// Seed of the stochastic failure/descent stream.
    pub stochastic_seed: u64,
    /// Terrain seed actually used.
    pub scene_seed: u64,
    /// The graded outcome.
    pub outcome: MissionOutcome,
    /// The machine-readable event log.
    pub log: Vec<MissionEvent>,
}

/// A completed scenario run: the aggregate report plus per-mission logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The scenario's `name`.
    pub scenario_name: String,
    /// Aggregated campaign report with its power section.
    pub report: CampaignReport,
    /// Per-mission records in mission-index order.
    pub logs: Vec<MissionRecord>,
}

/// The canonical byte encoding of scenario outcomes, on top of the
/// workspace's one FNV-1a encoder ([`Fingerprint`]).
///
/// Every value appends a fixed, architecture-independent byte sequence:
/// integers and float bit patterns little-endian, strings and sequences
/// length-prefixed, enums as declaration-order tag bytes, `Option` as a
/// 0/1 tag. Hashing bytes instead of JSON text is what makes the
/// fingerprint portable — `serde_json` float formatting (the previous
/// encoding) renders shortest-roundtrip decimals whose text can differ
/// across platforms, which pinned the goldens to x86_64.
trait Canon {
    fn bool(&mut self, v: bool);
    fn str(&mut self, s: &str);
    fn opt_f64(&mut self, v: Option<f64>);
    fn vec2(&mut self, v: el_geom::Vec2);
    fn flight_mode(&mut self, m: FlightMode);
    fn event(&mut self, e: &MissionEvent);
    fn outcome(&mut self, o: &MissionOutcome);
    fn report(&mut self, r: &CampaignReport);
}

impl Canon for Fingerprint {
    fn bool(&mut self, v: bool) {
        self.tag(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.tag(0),
            Some(x) => {
                self.tag(1);
                self.f64(x);
            }
        }
    }

    fn vec2(&mut self, v: el_geom::Vec2) {
        self.f64(v.x);
        self.f64(v.y);
    }

    fn flight_mode(&mut self, m: FlightMode) {
        match m {
            FlightMode::Nominal => self.tag(0),
            FlightMode::Emergency(maneuver) => {
                self.tag(1);
                self.tag(maneuver as u8);
            }
        }
    }

    fn event(&mut self, e: &MissionEvent) {
        match e {
            MissionEvent::Fault {
                hazard,
                at_time_s,
                duration_s,
                scheduled,
            } => {
                self.tag(0);
                self.tag(hazard_index(*hazard) as u8);
                self.f64(*at_time_s);
                self.opt_f64(*duration_s);
                self.bool(*scheduled);
            }
            MissionEvent::Switched {
                from,
                to,
                at_time_s,
            } => {
                self.tag(1);
                self.flight_mode(*from);
                self.flight_mode(*to);
                self.f64(*at_time_s);
            }
            MissionEvent::Engaged {
                maneuver,
                at_time_s,
            } => {
                self.tag(2);
                self.tag(*maneuver as u8);
                self.f64(*at_time_s);
            }
            MissionEvent::Recovered { at_time_s } => {
                self.tag(3);
                self.f64(*at_time_s);
            }
            MissionEvent::HoverExhausted { at_time_s } => {
                self.tag(4);
                self.f64(*at_time_s);
            }
            MissionEvent::Advisory {
                advisory,
                at_time_s,
            } => {
                self.tag(5);
                self.tag(*advisory as u8);
                self.f64(*at_time_s);
            }
            MissionEvent::ElAborted { at_time_s } => {
                self.tag(6);
                self.f64(*at_time_s);
            }
            MissionEvent::Touchdown {
                at,
                severity,
                parachute,
                at_time_s,
            } => {
                self.tag(7);
                self.vec2(*at);
                self.tag(severity.rating());
                self.bool(*parachute);
                self.f64(*at_time_s);
            }
        }
    }

    fn outcome(&mut self, o: &MissionOutcome) {
        match o.terminal {
            TerminalState::Completed => self.tag(0),
            TerminalState::ReturnedToBase => self.tag(1),
            TerminalState::LandedEl { at } => {
                self.tag(2);
                self.vec2(at);
            }
            TerminalState::Terminated { at } => {
                self.tag(3);
                self.vec2(at);
            }
        }
        self.usize(o.maneuvers.len());
        for &m in &o.maneuvers {
            self.tag(m as u8);
        }
        self.tag(o.severity.rating());
        self.usize(o.hazards.len());
        for &h in &o.hazards {
            self.tag(hazard_index(h) as u8);
        }
    }

    fn report(&mut self, r: &CampaignReport) {
        self.usize(r.missions);
        self.usize(r.completed);
        self.usize(r.returned_to_base);
        self.usize(r.landed_el);
        self.usize(r.terminated);
        for &m in &r.maneuver_engagements {
            self.usize(m);
        }
        for &s in &r.severity_histogram {
            self.usize(s);
        }
        for &h in &r.hazard_events {
            self.usize(h);
        }
        // The power section is deliberately excluded: its intervals come
        // from `ln`/`exp`/`sqrt` chains whose last-bit rounding is not
        // pinned across libm implementations, and it is a pure function
        // of the tallies hashed above anyway.
    }
}

impl ScenarioOutcome {
    /// A 64-bit fingerprint over the canonical byte encoding of the
    /// report tallies and every mission record, in index order. Two runs
    /// of the same scenario and seed must produce the same fingerprint
    /// regardless of thread count **or architecture** — the golden value
    /// the CI replay checks (x86_64 and qemu aarch64) pin.
    ///
    /// Floats are hashed as their IEEE-754 bit patterns
    /// (`f64::to_bits`, little-endian), never as formatted text, and the
    /// derived power section (arch-sensitive libm maths, fully
    /// determined by the hashed tallies) is excluded.
    pub fn fingerprint(&self) -> u64 {
        let mut c = Fingerprint::new();
        c.str(&self.scenario_name);
        c.report(&self.report);
        c.usize(self.logs.len());
        for record in &self.logs {
            c.usize(record.index);
            c.u64(record.stochastic_seed);
            c.u64(record.scene_seed);
            c.outcome(&record.outcome);
            c.usize(record.log.len());
            for event in &record.log {
                c.event(event);
            }
        }
        c.value()
    }

    /// [`ScenarioOutcome::fingerprint`] as a 16-digit hex string.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_sora::hazard::Severity;

    fn small_scenario(missions: usize) -> Scenario {
        Scenario {
            name: "test".into(),
            description: String::new(),
            missions,
            base_seed: 42,
            vary_scenes: None,
            mission: MissionSpec {
                profile: Some(MissionProfile::SmallTest),
                ..MissionSpec::default()
            },
            faults: Vec::new(),
            power: None,
            el: None,
        }
    }

    #[test]
    fn json_roundtrip() {
        let mut s = small_scenario(3);
        s.faults.push(ScheduledFault {
            hazard: HazardCategory::LossOfControl,
            at_time_s: 15.0,
            duration_s: None,
            missions: Some(vec![1]),
        });
        s.el = Some(ElPolicy::Degraded {
            blunder_prob: 0.3,
            abort_prob: 0.05,
            clearance_m: 8.0,
        });
        let json = serde_json::to_string(&s).unwrap();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn minimal_json_uses_defaults() {
        let s =
            Scenario::from_json(r#"{"name": "minimal", "missions": 1, "base_seed": 7}"#).unwrap();
        assert_eq!(s.mission.profile, None);
        assert_eq!(s.el_policy(), ElPolicy::Perfect { clearance_m: 8.0 });
        assert_eq!(s.power_config(), PowerConfig::default());
        let config = s.mission_config().unwrap();
        assert_eq!(
            config.duration_s,
            MissionConfig::medi_delivery(0).duration_s
        );
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,2,3]",
            r#"{"name": "x"}"#,                                 // missing fields
            r#"{"name": "x", "missions": -3, "base_seed": 0}"#, // negative count
            r#"{"name": "x", "missions": 1, "base_seed": -1}"#, // negative seed
            r#"{"name": "x", "missions": 1, "base_seed": 0, "mission": {"profile": "NoSuch"}}"#,
            r#"{"name": "x", "missions": 1, "base_seed": 0, "faults": [{"hazard": "Gremlins", "at_time_s": 1.0}]}"#,
        ] {
            let err = Scenario::from_json(bad).expect_err(bad);
            assert!(matches!(err, ScenarioError::Parse(_)), "{bad}: {err:?}");
        }
    }

    #[test]
    fn invalid_scenarios_rejected_with_context() {
        let cases: Vec<(Scenario, &str)> = vec![
            (small_scenario(0), "zero missions"),
            (
                {
                    let mut s = small_scenario(2);
                    s.mission.rates = Some(RatesSpec {
                        lost_navigation: Some(-4.0),
                        ..RatesSpec::default()
                    });
                    s
                },
                "non-negative",
            ),
            (
                {
                    let mut s = small_scenario(2);
                    s.mission.wind = Some(WindSpec::Custom {
                        mean_speed_mps: 90.0,
                        direction_rad: 0.0,
                        gust_std_mps: 0.0,
                    });
                    s
                },
                "km/h",
            ),
            (
                {
                    let mut s = small_scenario(2);
                    s.faults.push(ScheduledFault {
                        hazard: HazardCategory::FlyAway,
                        at_time_s: -1.0,
                        duration_s: None,
                        missions: None,
                    });
                    s
                },
                "non-negative",
            ),
            (
                {
                    let mut s = small_scenario(2);
                    s.faults.push(ScheduledFault {
                        hazard: HazardCategory::FlyAway,
                        at_time_s: 1e9,
                        duration_s: None,
                        missions: None,
                    });
                    s
                },
                "beyond the mission duration",
            ),
            (
                {
                    let mut s = small_scenario(2);
                    s.faults.push(ScheduledFault {
                        hazard: HazardCategory::TemporaryServiceLoss,
                        at_time_s: 5.0,
                        duration_s: Some(-2.0),
                        missions: None,
                    });
                    s
                },
                "positive",
            ),
            (
                {
                    let mut s = small_scenario(2);
                    s.faults.push(ScheduledFault {
                        hazard: HazardCategory::FlyAway,
                        at_time_s: 5.0,
                        duration_s: None,
                        missions: Some(vec![2]),
                    });
                    s
                },
                "out of range",
            ),
            (
                {
                    let mut s = small_scenario(2);
                    s.power = Some(PowerConfig {
                        confidence: 1.5,
                        ..PowerConfig::default()
                    });
                    s
                },
                "confidence",
            ),
            (
                {
                    let mut s = small_scenario(2);
                    s.el = Some(ElPolicy::Degraded {
                        blunder_prob: 0.9,
                        abort_prob: 0.9,
                        clearance_m: 8.0,
                    });
                    s
                },
                "exceed 1",
            ),
        ];
        for (scenario, needle) in cases {
            let err = scenario.validate().expect_err(needle);
            let msg = err.to_string();
            assert!(
                matches!(err, ScenarioError::Invalid(_)) && msg.contains(needle),
                "wanted `{needle}` in: {msg}"
            );
            // And run() surfaces the same error instead of panicking.
            assert!(scenario.run().is_err());
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Scenario::load("/nonexistent/scenario.json").unwrap_err();
        assert!(matches!(err, ScenarioError::Io { .. }));
        assert!(err.to_string().contains("/nonexistent/scenario.json"));
    }

    #[test]
    fn seed_chain_is_stable_and_collision_free() {
        // Pinned values: the determinism contract says these derivations
        // never change.
        assert_eq!(mission_seeds(42, 0), mission_seeds(42, 0));
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 42, u64::MAX] {
            for index in 0..1000 {
                let (a, b) = mission_seeds(base, index);
                assert!(
                    seen.insert(a),
                    "stochastic seed collision at {base}/{index}"
                );
                assert!(seen.insert(b), "scene seed collision at {base}/{index}");
            }
        }
    }

    #[test]
    fn report_aggregates_and_power_section() {
        let outcome = small_scenario(8).run().unwrap();
        let r = &outcome.report;
        assert_eq!(r.missions, 8);
        assert_eq!(
            r.completed + r.returned_to_base + r.landed_el + r.terminated,
            8
        );
        assert_eq!(outcome.logs.len(), 8);
        for (i, rec) in outcome.logs.iter().enumerate() {
            assert_eq!(rec.index, i);
        }
        let power = r.power.as_ref().expect("scenario runs compute power");
        assert!(power.underpowered, "8 missions × 120 s is underpowered");
        assert_eq!(power.severity_rates[0].trials, 8);
    }

    #[test]
    fn scheduled_fault_counts_toward_power() {
        let mut s = small_scenario(6);
        s.mission.rates = Some(RatesSpec {
            base: Some(RatesBase::Zero),
            ..RatesSpec::default()
        });
        s.power = Some(PowerConfig {
            min_events_per_hazard: 5.0,
            confidence: 0.95,
        });
        s.faults.push(ScheduledFault {
            hazard: HazardCategory::LossOfControl,
            at_time_s: 10.0,
            duration_s: None,
            missions: None, // all 6 missions
        });
        let outcome = s.run().unwrap();
        let power = outcome.report.power.as_ref().unwrap();
        let loc = power
            .hazards
            .iter()
            .find(|h| h.hazard == HazardCategory::LossOfControl)
            .expect("scheduled hazard is active");
        assert_eq!(loc.expected_events, 6.0);
        assert_eq!(loc.observed_events, 6);
        assert!(!loc.underpowered, "6 scheduled events clear the floor of 5");
        // Every mission terminated by the scheduled loss-of-control.
        assert_eq!(outcome.report.terminated, 6);
    }

    #[test]
    fn runs_are_bit_identical() {
        let s = small_scenario(6);
        let a = s.run().unwrap();
        let b = s.run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint_hex().len(), 16);
    }

    #[test]
    fn targeted_fault_leaves_other_missions_byte_identical() {
        let base = small_scenario(5);
        let baseline = base.run().unwrap();
        let mut with_fault = base.clone();
        with_fault.faults.push(ScheduledFault {
            hazard: HazardCategory::LossOfControl,
            at_time_s: 3.0,
            duration_s: None,
            missions: Some(vec![2]),
        });
        let faulted = with_fault.run().unwrap();
        for i in 0..5 {
            let (a, b) = (&baseline.logs[i], &faulted.logs[i]);
            if i == 2 {
                assert_ne!(a, b, "targeted mission must change");
                assert!(b.log.iter().any(|e| matches!(
                    e,
                    MissionEvent::Fault {
                        scheduled: true,
                        hazard: HazardCategory::LossOfControl,
                        ..
                    }
                )));
            } else {
                assert_eq!(
                    serde_json::to_string(a).unwrap(),
                    serde_json::to_string(b).unwrap(),
                    "mission {i} must be byte-identical"
                );
            }
        }
    }

    #[test]
    fn degraded_el_is_riskier_than_perfect() {
        let mut perfect = small_scenario(40);
        perfect.mission.rates = Some(RatesSpec {
            base: Some(RatesBase::Zero),
            lost_navigation: Some(90.0),
            ..RatesSpec::default()
        });
        let mut degraded = perfect.clone();
        degraded.el = Some(ElPolicy::Degraded {
            blunder_prob: 0.5,
            abort_prob: 0.2,
            clearance_m: 8.0,
        });
        let p = perfect.run().unwrap().report;
        let d = degraded.run().unwrap().report;
        let bad = |r: &CampaignReport| {
            r.severity_histogram
                .iter()
                .enumerate()
                .filter(|&(i, _)| i + 1 >= Severity::Serious.rating() as usize)
                .map(|(_, &n)| n)
                .sum::<usize>()
        };
        assert!(
            bad(&d) >= bad(&p),
            "degraded EL should not be safer: {:?} vs {:?}",
            d.severity_histogram,
            p.severity_histogram
        );
        assert!(d.landed_el <= p.landed_el);
    }

    #[test]
    fn storm_scenario_resolves_storm_wind() {
        let mut s = small_scenario(2);
        s.mission.wind = Some(WindSpec::Storm { direction_rad: 1.0 });
        let config = s.mission_config().unwrap();
        assert_eq!(config.wind, Wind::storm(1.0));
    }
}
