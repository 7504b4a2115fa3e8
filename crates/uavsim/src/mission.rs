//! One simulated mission under failure injection.

use el_geom::{Point, Vec2};
use el_scene::{Scene, SceneParams};
use el_sora::hazard::{HazardCategory, Severity};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::elsys::ElSystem;
use crate::failure::{FailureEvent, FailureInjector, FailureRates};
use crate::parachute::ParachuteDescent;
use crate::safety::{AuditAdvisory, FlightMode, Maneuver, SafetySwitch};
use crate::wind::Wind;

/// Scene extent in metres `(width, height)`.
pub fn scene_extent_m(scene: &Scene) -> (f64, f64) {
    let mpp = scene.params.meters_per_pixel;
    (scene.width() as f64 * mpp, scene.height() as f64 * mpp)
}

/// Wraps a position into the scene extent (the generated tile stands in
/// for a statistically homogeneous city that continues beyond its
/// borders, so drifting off one edge re-enters equivalent terrain).
pub fn wrap_to_scene(scene: &Scene, p: Vec2) -> Vec2 {
    let (w, h) = scene_extent_m(scene);
    Vec2::new(p.x.rem_euclid(w), p.y.rem_euclid(h))
}

/// Mission configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissionConfig {
    /// Terrain generation parameters.
    pub scene_params: SceneParams,
    /// Terrain seed.
    pub scene_seed: u64,
    /// Cruise speed, m/s.
    pub cruise_speed_mps: f64,
    /// Operating altitude, m AGL.
    pub altitude_m: f64,
    /// Wind model.
    pub wind: Wind,
    /// Failure injection rates.
    pub rates: FailureRates,
    /// Whether an EL function is installed (Figure 1 with/without EL).
    pub el_installed: bool,
    /// Whether flight termination opens a parachute (the M2 mitigation).
    pub parachute_on_ft: bool,
    /// Mission duration at cruise, s.
    pub duration_s: f64,
    /// Camera footprint radius available to the EL system, m.
    pub view_radius_m: f64,
    /// Altitude at which the EL maneuver opens its parachute, m AGL.
    ///
    /// Emergency landing retains trajectory control ("go to this area and
    /// open a parachute"), so the UAV descends under control before
    /// deploying — this bounds the drift the zone clearance must absorb.
    /// Flight termination, by contrast, deploys at the *current* altitude.
    pub el_deploy_altitude_m: f64,
    /// Hover endurance, s: the longest service outage the UAV can wait
    /// out in the Hovering maneuver (battery margin). An outage that
    /// outlasts it is no longer "temporary" — the safety switch escalates
    /// exactly as for a permanent loss of navigation
    /// ([`SafetySwitch::on_hover_exhausted`]).
    pub max_hover_s: f64,
}

impl MissionConfig {
    /// The MEDI DELIVERY mission profile over a default urban scene.
    pub fn medi_delivery(scene_seed: u64) -> Self {
        MissionConfig {
            scene_params: SceneParams::default_urban(),
            scene_seed,
            cruise_speed_mps: 10.0,
            altitude_m: 120.0,
            wind: Wind::breeze(0.7),
            rates: FailureRates::stress(),
            el_installed: true,
            parachute_on_ft: true,
            duration_s: 600.0,
            view_radius_m: 50.0,
            el_deploy_altitude_m: 30.0,
            max_hover_s: 12.0,
        }
    }

    /// A fast configuration for unit tests.
    pub fn small_test() -> Self {
        MissionConfig {
            scene_params: SceneParams::small(),
            scene_seed: 1,
            cruise_speed_mps: 8.0,
            altitude_m: 60.0,
            wind: Wind::calm(),
            rates: FailureRates::stress(),
            el_installed: true,
            parachute_on_ft: true,
            duration_s: 120.0,
            view_radius_m: 25.0,
            el_deploy_altitude_m: 20.0,
            // Above the injector's longest sampled outage (20 s): the
            // fast test profile exercises hover-exhaustion only in the
            // tests that opt into it explicitly.
            max_hover_s: 25.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.scene_params.validate()?;
        self.wind.validate()?;
        self.rates.validate()?;
        for (name, v) in [
            ("cruise_speed_mps", self.cruise_speed_mps),
            ("altitude_m", self.altitude_m),
            ("duration_s", self.duration_s),
            ("view_radius_m", self.view_radius_m),
            ("el_deploy_altitude_m", self.el_deploy_altitude_m),
            ("max_hover_s", self.max_hover_s),
        ] {
            if !v.is_finite() {
                return Err(format!("{name} must be finite (got {v})"));
            }
        }
        if self.cruise_speed_mps <= 0.0 || self.altitude_m <= 0.0 {
            return Err("speed and altitude must be positive".into());
        }
        if self.duration_s <= 0.0 {
            return Err("duration must be positive".into());
        }
        if self.view_radius_m <= 0.0 {
            return Err("view radius must be positive".into());
        }
        if self.el_deploy_altitude_m <= 0.0 || self.el_deploy_altitude_m > self.altitude_m {
            return Err("EL deploy altitude must be in (0, operating altitude]".into());
        }
        if self.max_hover_s <= 0.0 {
            return Err("hover endurance must be positive".into());
        }
        Ok(())
    }
}

/// One timestamped entry in a mission's machine-readable event log.
///
/// A log is an ordered trace of everything the scenario replay needs to
/// reconstruct (and fingerprint) a mission bit-for-bit: injected faults
/// (with their stochastic/scheduled provenance), safety-switch
/// transitions, engaged maneuvers, audit advisories, and the graded
/// touchdown. Logging is strictly observational — recording a log never
/// changes a mission's RNG stream or outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MissionEvent {
    /// A failure event was injected (before any termination).
    Fault {
        /// The hazard category.
        hazard: HazardCategory,
        /// Mission time of occurrence, seconds.
        at_time_s: f64,
        /// Outage duration for temporary failures; `None` = permanent.
        duration_s: Option<f64>,
        /// `true` for a scenario-scheduled fault, `false` for one drawn
        /// from the stochastic [`FailureRates`] stream.
        scheduled: bool,
    },
    /// The safety switch changed flight mode.
    Switched {
        /// Mode before the transition.
        from: FlightMode,
        /// Mode after the transition.
        to: FlightMode,
        /// Mission time, seconds.
        at_time_s: f64,
    },
    /// A maneuver was engaged (consecutive repeats deduplicated, exactly
    /// as in [`MissionOutcome::maneuvers`]).
    Engaged {
        /// The engaged maneuver.
        maneuver: Maneuver,
        /// Mission time, seconds.
        at_time_s: f64,
    },
    /// A temporarily lost service recovered while hovering.
    Recovered {
        /// Mission time, seconds.
        at_time_s: f64,
    },
    /// Hover endurance ran out before the lost service recovered; the
    /// outage was re-routed as a permanent loss.
    HoverExhausted {
        /// Mission time, seconds.
        at_time_s: f64,
    },
    /// The whole-frame audit advisory consulted before committing an
    /// emergency landing.
    Advisory {
        /// The advisory grade.
        advisory: AuditAdvisory,
        /// Mission time, seconds.
        at_time_s: f64,
    },
    /// The EL function could not find or confirm a safe zone.
    ElAborted {
        /// Mission time, seconds.
        at_time_s: f64,
    },
    /// Touchdown, with the graded Table I severity.
    Touchdown {
        /// Touchdown position, metres.
        at: Vec2,
        /// Graded outcome severity.
        severity: Severity,
        /// Whether a parachute was deployed for this descent.
        parachute: bool,
        /// Mission time at ground contact, seconds.
        at_time_s: f64,
    },
}

/// Optional event-log recorder threaded through a mission run. Pushing
/// into a `None` sink is a no-op, so the unlogged path pays nothing.
struct EventSink<'a> {
    log: Option<&'a mut Vec<MissionEvent>>,
}

impl EventSink<'_> {
    fn push(&mut self, event: MissionEvent) {
        if let Some(log) = self.log.as_mut() {
            log.push(event);
        }
    }
}

/// How the mission ended.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TerminalState {
    /// Mission completed nominally.
    Completed,
    /// Returned to base under a degraded mode.
    ReturnedToBase,
    /// Landed via the EL function at the given point (metres).
    LandedEl {
        /// Touchdown position, metres.
        at: Vec2,
    },
    /// Flight terminated (parachute/ballistic) at the given point.
    Terminated {
        /// Touchdown position, metres.
        at: Vec2,
    },
}

/// The graded outcome of one mission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissionOutcome {
    /// Terminal state.
    pub terminal: TerminalState,
    /// Every maneuver engaged, in order (deduplicated consecutive).
    pub maneuvers: Vec<Maneuver>,
    /// Outcome severity on the paper's Table I scale.
    pub severity: Severity,
    /// Injected hazards that occurred before termination.
    pub hazards: Vec<HazardCategory>,
}

/// Grades a touchdown point against ground truth: the Table II mapping.
///
/// A 1.5 m contact disk is checked; the worst class wins. With a
/// parachute (M2), impact-energy-driven outcomes are reduced — direct
/// human impact from Major to Minor (the paper's §III-D2 observation
/// that M2 reduces R2 from 4 to 2), and building contact from Serious
/// (R4, "UAV collides with infrastructure" — an uncontrolled impact) to
/// Minor (a canopy drift onto a roof damages the drone, not the
/// structure, R5-equivalent). The busy-road outcome R1 stays
/// catastrophic regardless: its severity comes from the ground vehicles
/// the UAV disturbs, not from the impact energy.
pub fn touchdown_severity(scene: &Scene, at: Vec2, with_parachute: bool) -> Severity {
    let mpp = scene.params.meters_per_pixel;
    let center = Point::new((at.x / mpp).round() as i64, (at.y / mpp).round() as i64);
    let radius_px = (1.5 / mpp).ceil() as i64;
    let mut severity = Severity::Negligible;
    for dy in -radius_px..=radius_px {
        for dx in -radius_px..=radius_px {
            let p = Point::new(center.x + dx, center.y + dy);
            if (p - center).l2_norm() > radius_px as f64 {
                continue;
            }
            let Some(&class) = scene.labels.get(p) else {
                continue;
            };
            let s = match class {
                c if c.is_busy_road() => Severity::Catastrophic,
                el_geom::SemanticClass::Humans => {
                    if with_parachute {
                        Severity::Minor
                    } else {
                        Severity::Major
                    }
                }
                el_geom::SemanticClass::Building => {
                    if with_parachute {
                        Severity::Minor
                    } else {
                        Severity::Serious
                    }
                }
                el_geom::SemanticClass::Tree => Severity::Minor,
                _ => Severity::Negligible,
            };
            severity = severity.max(s);
        }
    }
    severity
}

/// One simulated mission.
#[derive(Debug, Clone)]
pub struct Mission {
    config: MissionConfig,
}

/// Appends a maneuver to the engagement trace, deduplicating consecutive
/// repeats — the single definition of the trace semantics. Returns
/// whether the maneuver was actually appended (so callers can mirror the
/// engagement into an event log).
fn record(m: Maneuver, maneuvers: &mut Vec<Maneuver>) -> bool {
    if maneuvers.last() != Some(&m) {
        maneuvers.push(m);
        true
    } else {
        false
    }
}

/// Merges the sampled stochastic stream (already sorted) with the
/// scheduled events into one time-ordered stream tagged with provenance.
/// The merge is stable with stochastic-first tie-breaking, so logging or
/// scheduling never reorders what the stochastic stream alone would do.
fn merge_events(
    stochastic: Vec<FailureEvent>,
    scheduled: &[FailureEvent],
) -> Vec<(FailureEvent, bool)> {
    let mut sched: Vec<FailureEvent> = scheduled.to_vec();
    crate::failure::sort_events_by_time(&mut sched);
    let mut merged = Vec::with_capacity(stochastic.len() + sched.len());
    let mut si = sched.into_iter().peekable();
    for ev in stochastic {
        while let Some(s) = si.peek() {
            if s.at_time_s < ev.at_time_s {
                merged.push((*s, true));
                si.next();
            } else {
                break;
            }
        }
        merged.push((ev, false));
    }
    merged.extend(si.map(|s| (s, true)));
    merged
}

impl Mission {
    /// Creates a mission.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MissionConfig::validate`].
    pub fn new(config: MissionConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid mission configuration: {e}");
        }
        Mission { config }
    }

    /// The mission configuration.
    pub fn config(&self) -> &MissionConfig {
        &self.config
    }

    /// UAV position at mission time `t` (a bouncing diagonal patrol over
    /// the scene, margins of 10% kept from the borders).
    fn position_at(&self, scene: &Scene, t: f64) -> Vec2 {
        let (w, h) = scene_extent_m(scene);
        let margin = 0.1;
        let (x0, x1) = (w * margin, w * (1.0 - margin));
        let (y0, y1) = (h * margin, h * (1.0 - margin));
        let bounce = |lo: f64, hi: f64, s: f64| {
            let span = hi - lo;
            let period = 2.0 * span;
            let m = s.rem_euclid(period);
            lo + if m < span { m } else { period - m }
        };
        let dist = self.config.cruise_speed_mps * t;
        Vec2::new(
            bounce(x0, x1, x0 + dist * 0.83),
            bounce(y0, y1, y0 + dist * 0.56),
        )
    }

    /// Runs the mission with the given EL system.
    ///
    /// Deterministic given `(config, el, seed)`.
    pub fn run(&self, el: &mut dyn ElSystem, seed: u64) -> MissionOutcome {
        self.run_with(el, seed, &[], None)
    }

    /// Runs the mission with scheduled (deterministic) fault injection on
    /// top of the stochastic [`FailureRates`] stream, optionally
    /// recording a machine-readable event log.
    ///
    /// Stream separation contract: the stochastic failure stream is
    /// sampled **before** the scheduled events are merged in, and a
    /// scheduled event consumes **no** draws from the mission RNG — so
    /// `run_with(el, seed, &[], None)` is bit-identical to
    /// [`Mission::run`], and adding a scheduled fault perturbs nothing
    /// outside this mission. Scheduled and stochastic events are merged
    /// in time order; at equal times the stochastic event is processed
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if a scheduled event carries a non-finite or negative time,
    /// a time at or beyond the mission duration, or a non-positive
    /// explicit duration (scenario files are validated long before this
    /// point — reaching the panic is an API misuse, not a file error).
    pub fn run_with(
        &self,
        el: &mut dyn ElSystem,
        seed: u64,
        scheduled: &[FailureEvent],
        log: Option<&mut Vec<MissionEvent>>,
    ) -> MissionOutcome {
        for ev in scheduled {
            assert!(
                ev.at_time_s.is_finite()
                    && ev.at_time_s >= 0.0
                    && ev.at_time_s < self.config.duration_s,
                "scheduled fault time {} outside [0, {})",
                ev.at_time_s,
                self.config.duration_s
            );
            assert!(
                ev.duration_s > 0.0,
                "scheduled fault duration must be positive (got {})",
                ev.duration_s
            );
        }
        let mut sink = EventSink { log };
        let scene = Scene::generate(&self.config.scene_params, self.config.scene_seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let injector = FailureInjector::new(self.config.rates);
        // The stochastic stream is fully sampled before any scheduled
        // event is even looked at: scheduled injection cannot shift it.
        let stochastic = injector.sample_events(self.config.duration_s, &mut rng);
        let events = merge_events(stochastic, scheduled);

        let mut switch = SafetySwitch::new(self.config.el_installed);
        let mut maneuvers = Vec::new();
        let mut hazards = Vec::new();

        for (event, is_scheduled) in &events {
            hazards.push(event.hazard);
            sink.push(MissionEvent::Fault {
                hazard: event.hazard,
                at_time_s: event.at_time_s,
                duration_s: event.duration_s.is_finite().then_some(event.duration_s),
                scheduled: *is_scheduled,
            });
            let before = switch.mode();
            let mode = switch.on_hazard(event.hazard);
            if mode != before {
                sink.push(MissionEvent::Switched {
                    from: before,
                    to: mode,
                    at_time_s: event.at_time_s,
                });
            }
            let FlightMode::Emergency(mut m) = mode else {
                continue;
            };
            // A maneuver can escalate in place (hover endurance exhausted
            // → EL/FT), hence the inner dispatch loop.
            loop {
                if record(m, &mut maneuvers) {
                    sink.push(MissionEvent::Engaged {
                        maneuver: m,
                        at_time_s: event.at_time_s,
                    });
                }
                match m {
                    Maneuver::Hovering => {
                        if event.duration_s <= self.config.max_hover_s {
                            // Wait out the outage; service recovery
                            // resolves back to nominal (handled by the
                            // switch).
                            let before = switch.mode();
                            let after = switch.on_recovery();
                            sink.push(MissionEvent::Recovered {
                                at_time_s: event.at_time_s,
                            });
                            if after != before {
                                sink.push(MissionEvent::Switched {
                                    from: before,
                                    to: after,
                                    at_time_s: event.at_time_s,
                                });
                            }
                        } else {
                            let before = switch.mode();
                            let after = switch.on_hover_exhausted();
                            if let FlightMode::Emergency(next) = after {
                                // The outage outlasts the hover endurance:
                                // it is no longer "temporary", so the
                                // switch re-routes it as a permanent loss.
                                sink.push(MissionEvent::HoverExhausted {
                                    at_time_s: event.at_time_s,
                                });
                                if after != before {
                                    sink.push(MissionEvent::Switched {
                                        from: before,
                                        to: after,
                                        at_time_s: event.at_time_s,
                                    });
                                }
                                m = next;
                                continue;
                            }
                        }
                    }
                    Maneuver::ReturnToBase => {
                        // Fly home under degraded control. Further events
                        // are injected by the remaining loop iterations;
                        // if none escalates, the mission ends at base.
                    }
                    Maneuver::EmergencyLanding => {
                        return self.attempt_emergency_landing(
                            &scene,
                            event.at_time_s,
                            el,
                            &mut switch,
                            maneuvers,
                            hazards,
                            &mut rng,
                            seed,
                            &mut sink,
                        );
                    }
                    Maneuver::FlightTermination => {
                        return self.terminate(
                            &scene,
                            event.at_time_s,
                            maneuvers,
                            hazards,
                            &mut rng,
                            &mut sink,
                        );
                    }
                }
                break;
            }
        }

        // No terminal event: either still in RB (degraded return) or
        // nominal completion.
        let severity = Severity::Negligible;
        let terminal = match switch.mode() {
            FlightMode::Emergency(Maneuver::ReturnToBase) => TerminalState::ReturnedToBase,
            _ => TerminalState::Completed,
        };
        MissionOutcome {
            terminal,
            maneuvers,
            severity,
            hazards,
        }
    }

    /// Executes the EL maneuver: query the EL system for a confirmed
    /// zone, fly there and deploy, or — if no zone can be confirmed —
    /// escalate to flight termination ("if the UAV cannot ensure flight
    /// continuation or safe EL, then a Flight Termination maneuver is
    /// applied").
    #[allow(clippy::too_many_arguments)]
    fn attempt_emergency_landing(
        &self,
        scene: &Scene,
        at_time_s: f64,
        el: &mut dyn ElSystem,
        switch: &mut SafetySwitch,
        mut maneuvers: Vec<Maneuver>,
        hazards: Vec<HazardCategory>,
        rng: &mut ChaCha8Rng,
        seed: u64,
        sink: &mut EventSink<'_>,
    ) -> MissionOutcome {
        let uav = self.position_at(scene, at_time_s);
        let pick = el.select_landing(scene, uav, self.config.view_radius_m, seed ^ 0xE1);
        match pick {
            Some(target) => {
                // Before committing: the whole-frame audit may veto. An
                // Alarm-grade advisory (widespread frame-level
                // uncertainty) means the crop-level confirmation cannot
                // be trusted, and the switch escalates exactly as for an
                // EL abort.
                let advisory = el.audit_advisory();
                sink.push(MissionEvent::Advisory {
                    advisory,
                    at_time_s,
                });
                let before = switch.mode();
                let after = switch.on_audit_advisory(advisory);
                if after == FlightMode::Emergency(Maneuver::FlightTermination) {
                    if after != before {
                        sink.push(MissionEvent::Switched {
                            from: before,
                            to: after,
                            at_time_s,
                        });
                    }
                    if record(Maneuver::FlightTermination, &mut maneuvers) {
                        sink.push(MissionEvent::Engaged {
                            maneuver: Maneuver::FlightTermination,
                            at_time_s,
                        });
                    }
                    return self.terminate(scene, at_time_s, maneuvers, hazards, rng, sink);
                }
                // Navigate to the zone under trajectory control, descend
                // to the deploy altitude, then open the parachute.
                let descent = ParachuteDescent::canopy(self.config.el_deploy_altitude_m);
                let touchdown =
                    wrap_to_scene(scene, descent.touchdown(target, &self.config.wind, rng));
                let severity = touchdown_severity(scene, touchdown, true);
                sink.push(MissionEvent::Touchdown {
                    at: touchdown,
                    severity,
                    parachute: true,
                    at_time_s: at_time_s + descent.duration_s(),
                });
                MissionOutcome {
                    terminal: TerminalState::LandedEl { at: touchdown },
                    maneuvers,
                    severity,
                    hazards,
                }
            }
            None => {
                sink.push(MissionEvent::ElAborted { at_time_s });
                let before = switch.mode();
                let after = switch.on_el_abort();
                if after != before {
                    sink.push(MissionEvent::Switched {
                        from: before,
                        to: after,
                        at_time_s,
                    });
                }
                if record(Maneuver::FlightTermination, &mut maneuvers) {
                    sink.push(MissionEvent::Engaged {
                        maneuver: Maneuver::FlightTermination,
                        at_time_s,
                    });
                }
                self.terminate(scene, at_time_s, maneuvers, hazards, rng, sink)
            }
        }
    }

    fn terminate(
        &self,
        scene: &Scene,
        at_time_s: f64,
        maneuvers: Vec<Maneuver>,
        hazards: Vec<HazardCategory>,
        rng: &mut ChaCha8Rng,
        sink: &mut EventSink<'_>,
    ) -> MissionOutcome {
        let uav = self.position_at(scene, at_time_s);
        let descent = if self.config.parachute_on_ft {
            ParachuteDescent::canopy(self.config.altitude_m)
        } else {
            ParachuteDescent::ballistic(self.config.altitude_m)
        };
        let touchdown = wrap_to_scene(scene, descent.touchdown(uav, &self.config.wind, rng));
        let severity = touchdown_severity(scene, touchdown, self.config.parachute_on_ft);
        sink.push(MissionEvent::Touchdown {
            at: touchdown,
            severity,
            parachute: self.config.parachute_on_ft,
            at_time_s: at_time_s + descent.duration_s(),
        });
        MissionOutcome {
            terminal: TerminalState::Terminated { at: touchdown },
            maneuvers,
            severity,
            hazards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elsys::{NoEl, PerfectEl};

    #[test]
    fn merge_events_nan_time_does_not_panic() {
        // Regression: scheduled times are validated finite by `run_with`,
        // but `merge_events` itself must tolerate NaN (direct callers
        // bypass that check). NaN sorts last under the IEEE total order.
        let ev = |t: f64| FailureEvent {
            hazard: HazardCategory::FlyAway,
            at_time_s: t,
            duration_s: f64::INFINITY,
        };
        let merged = merge_events(vec![ev(10.0)], &[ev(f64::NAN), ev(1.0)]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].0.at_time_s, 1.0);
        assert!(merged[0].1, "scheduled event tagged as scheduled");
        assert_eq!(merged[1].0.at_time_s, 10.0);
        assert!(!merged[1].1, "stochastic event tagged as stochastic");
        assert!(merged[2].0.at_time_s.is_nan());
    }

    #[test]
    fn merge_events_stochastic_first_tie_break() {
        let ev = |t: f64| FailureEvent {
            hazard: HazardCategory::LostCommunication,
            at_time_s: t,
            duration_s: f64::INFINITY,
        };
        let merged = merge_events(vec![ev(5.0)], &[ev(5.0)]);
        assert!(!merged[0].1, "stochastic wins the tie");
        assert!(merged[1].1);
    }

    #[test]
    fn no_failures_completes() {
        let mut cfg = MissionConfig::small_test();
        cfg.rates = FailureRates::none();
        let out = Mission::new(cfg).run(&mut PerfectEl::default(), 0);
        assert_eq!(out.terminal, TerminalState::Completed);
        assert_eq!(out.severity, Severity::Negligible);
        assert!(out.maneuvers.is_empty());
    }

    #[test]
    fn deterministic() {
        let cfg = MissionConfig::small_test();
        let a = Mission::new(cfg.clone()).run(&mut PerfectEl::default(), 5);
        let b = Mission::new(cfg).run(&mut PerfectEl::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn lost_navigation_without_el_terminates() {
        let mut cfg = MissionConfig::small_test();
        cfg.el_installed = false;
        cfg.rates = FailureRates::none();
        cfg.rates.lost_navigation = 200.0; // certain failure, quickly
        let out = Mission::new(cfg).run(&mut NoEl, 1);
        assert!(matches!(out.terminal, TerminalState::Terminated { .. }));
        assert!(out.maneuvers.contains(&Maneuver::FlightTermination));
        assert!(!out.maneuvers.contains(&Maneuver::EmergencyLanding));
    }

    #[test]
    fn lost_navigation_with_el_lands() {
        let mut cfg = MissionConfig::small_test();
        cfg.rates = FailureRates::none();
        cfg.rates.lost_navigation = 200.0;
        let out = Mission::new(cfg).run(&mut PerfectEl { clearance_m: 3.0 }, 2);
        match out.terminal {
            TerminalState::LandedEl { .. } => {
                assert!(out.maneuvers.contains(&Maneuver::EmergencyLanding));
            }
            TerminalState::Terminated { .. } => {
                // EL aborted (no zone in view) — allowed, but must have
                // tried EL first.
                assert!(out.maneuvers.contains(&Maneuver::EmergencyLanding));
                assert!(out.maneuvers.contains(&Maneuver::FlightTermination));
            }
            other => panic!("unexpected terminal {other:?}"),
        }
    }

    #[test]
    fn temporary_outage_recovers() {
        let mut cfg = MissionConfig::small_test();
        cfg.rates = FailureRates::none();
        cfg.rates.temporary_service_loss = 100.0;
        let out = Mission::new(cfg).run(&mut PerfectEl::default(), 3);
        assert_eq!(out.terminal, TerminalState::Completed);
        assert!(out.maneuvers.contains(&Maneuver::Hovering));
    }

    #[test]
    fn comm_loss_returns_to_base() {
        let mut cfg = MissionConfig::small_test();
        cfg.rates = FailureRates::none();
        cfg.rates.lost_communication = 100.0;
        let out = Mission::new(cfg).run(&mut PerfectEl::default(), 4);
        assert_eq!(out.terminal, TerminalState::ReturnedToBase);
        assert_eq!(out.severity, Severity::Negligible);
    }

    #[test]
    fn perfect_el_touchdowns_avoid_roads_in_calm_air() {
        // In calm wind the canopy lands exactly on the selected point,
        // which the oracle guarantees is clear of high-risk pixels.
        let mut cfg = MissionConfig::small_test();
        cfg.wind = Wind::calm();
        cfg.rates = FailureRates::none();
        cfg.rates.lost_navigation = 300.0;
        for seed in 0..10 {
            let out = Mission::new(cfg.clone()).run(&mut PerfectEl { clearance_m: 4.0 }, seed);
            if let TerminalState::LandedEl { .. } = out.terminal {
                assert!(
                    out.severity <= Severity::Minor,
                    "seed {seed}: severity {:?}",
                    out.severity
                );
            }
        }
    }

    #[test]
    fn patrol_stays_in_bounds() {
        let cfg = MissionConfig::small_test();
        let m = Mission::new(cfg.clone());
        let scene = Scene::generate(&cfg.scene_params, cfg.scene_seed);
        let (w, h) = scene_extent_m(&scene);
        for i in 0..200 {
            let p = m.position_at(&scene, i as f64 * 3.7);
            assert!(p.x >= 0.0 && p.x <= w);
            assert!(p.y >= 0.0 && p.y <= h);
        }
    }

    #[test]
    fn touchdown_severity_grades_terrain() {
        let scene = Scene::generate(&SceneParams::small(), 3);
        // Find a road pixel and a grass pixel.
        let mpp = scene.params.meters_per_pixel;
        let mut road = None;
        let mut grass = None;
        for (p, &c) in scene.labels.enumerate() {
            if c == el_geom::SemanticClass::Road && road.is_none() {
                road = Some(p);
            }
            if c == el_geom::SemanticClass::LowVegetation && grass.is_none() {
                // Require some margin from anything risky.
                grass = Some(p);
            }
        }
        let road = road.unwrap();
        let at = Vec2::new(road.x as f64 * mpp, road.y as f64 * mpp);
        assert_eq!(touchdown_severity(&scene, at, true), Severity::Catastrophic);
        let _ = grass;
    }

    #[test]
    fn building_contact_boundary_depends_on_parachute() {
        // The explicit grading boundary: a canopy touchdown on a building
        // is drone damage (Minor); an uncontrolled ballistic impact is an
        // infrastructure collision (Serious, R4). Scan a few scenes for a
        // contact disk whose worst class is Building.
        let mut checked = false;
        'scenes: for seed in 0..20 {
            let scene = Scene::generate(&SceneParams::small(), seed);
            let mpp = scene.params.meters_per_pixel;
            let rad = (1.5 / mpp).ceil() as i64;
            for (p, &c) in scene.labels.enumerate() {
                if c != el_geom::SemanticClass::Building {
                    continue;
                }
                // The whole disk must be building-or-benign so Building
                // is the deciding class.
                let mut disk_ok = true;
                for dy in -rad..=rad {
                    for dx in -rad..=rad {
                        let q = el_geom::Point::new(p.x + dx, p.y + dy);
                        if (q - p).l2_norm() > rad as f64 {
                            continue;
                        }
                        match scene.labels.get(q) {
                            Some(&el_geom::SemanticClass::Building)
                            | Some(&el_geom::SemanticClass::LowVegetation)
                            | Some(&el_geom::SemanticClass::Clutter)
                            | Some(&el_geom::SemanticClass::Tree)
                            | None => {}
                            _ => {
                                disk_ok = false;
                            }
                        }
                    }
                }
                if !disk_ok {
                    continue;
                }
                let at = Vec2::new(p.x as f64 * mpp, p.y as f64 * mpp);
                assert_eq!(
                    touchdown_severity(&scene, at, true),
                    Severity::Minor,
                    "canopy touchdown on a building must grade Minor"
                );
                assert_eq!(
                    touchdown_severity(&scene, at, false),
                    Severity::Serious,
                    "ballistic building impact must grade Serious"
                );
                checked = true;
                break 'scenes;
            }
        }
        assert!(checked, "no building-dominated contact disk found");
    }

    #[test]
    fn alarming_audit_vetoes_landing_commit() {
        // An EL system that finds a zone but whose whole-frame audit
        // alarms: the switch must veto the commit and terminate (with a
        // parachute) rather than land on a confirmation it cannot trust.
        use crate::safety::AuditAdvisory;
        struct AlarmedEl(PerfectEl);
        impl ElSystem for AlarmedEl {
            fn select_landing(
                &mut self,
                scene: &Scene,
                uav_xy_m: Vec2,
                view_radius_m: f64,
                seed: u64,
            ) -> Option<Vec2> {
                self.0.select_landing(scene, uav_xy_m, view_radius_m, seed)
            }
            fn audit_advisory(&self) -> AuditAdvisory {
                AuditAdvisory::Alarm
            }
            fn name(&self) -> &'static str {
                "alarmed-el"
            }
        }
        let mut cfg = MissionConfig::small_test();
        cfg.rates = FailureRates::none();
        cfg.rates.lost_navigation = 200.0;
        let out = Mission::new(cfg.clone()).run(&mut AlarmedEl(PerfectEl::default()), 2);
        assert!(matches!(out.terminal, TerminalState::Terminated { .. }));
        assert!(out.maneuvers.contains(&Maneuver::EmergencyLanding));
        assert!(out.maneuvers.contains(&Maneuver::FlightTermination));
        // The same mission with a clear advisory lands (or EL-aborts for
        // lack of a zone — but the default oracle finds one at seed 2,
        // pinned by `lost_navigation_with_el_lands`).
        let out = Mission::new(cfg).run(&mut PerfectEl { clearance_m: 3.0 }, 2);
        assert!(matches!(out.terminal, TerminalState::LandedEl { .. }));
    }

    #[test]
    fn persistent_outage_escalates_past_hovering() {
        // An outage that outlasts the hover endurance is routed like a
        // permanent navigation loss: EL with an EL function installed…
        let mut cfg = MissionConfig::small_test();
        cfg.rates = FailureRates::none();
        cfg.rates.temporary_service_loss = 200.0;
        cfg.max_hover_s = 1.0; // injected outages last 2–20 s
        let out = Mission::new(cfg.clone()).run(&mut PerfectEl::default(), 8);
        assert!(out.maneuvers.contains(&Maneuver::Hovering));
        assert!(
            out.maneuvers.contains(&Maneuver::EmergencyLanding),
            "exhausted hover must escalate to EL, got {:?}",
            out.maneuvers
        );
        assert!(matches!(out.terminal, TerminalState::LandedEl { .. }));
        // …and FT without one.
        cfg.el_installed = false;
        let out = Mission::new(cfg).run(&mut NoEl, 8);
        assert!(out.maneuvers.contains(&Maneuver::FlightTermination));
        assert!(matches!(out.terminal, TerminalState::Terminated { .. }));
    }

    #[test]
    #[should_panic(expected = "invalid mission configuration")]
    fn invalid_config_rejected() {
        let mut cfg = MissionConfig::small_test();
        cfg.duration_s = 0.0;
        let _ = Mission::new(cfg);
    }

    #[test]
    fn logging_never_changes_the_outcome() {
        // Recording an event log is strictly observational: the logged
        // run must be bit-identical to the unlogged one, and the logged
        // touchdown must agree with the graded outcome.
        let cfg = MissionConfig::small_test();
        for seed in 0..12 {
            let plain = Mission::new(cfg.clone()).run(&mut PerfectEl::default(), seed);
            let mut log = Vec::new();
            let logged = Mission::new(cfg.clone()).run_with(
                &mut PerfectEl::default(),
                seed,
                &[],
                Some(&mut log),
            );
            assert_eq!(plain, logged, "seed {seed}");
            let touchdowns: Vec<_> = log
                .iter()
                .filter_map(|e| match e {
                    MissionEvent::Touchdown { at, severity, .. } => Some((*at, *severity)),
                    _ => None,
                })
                .collect();
            match logged.terminal {
                TerminalState::LandedEl { at } | TerminalState::Terminated { at } => {
                    assert_eq!(touchdowns, vec![(at, logged.severity)], "seed {seed}");
                }
                _ => assert!(touchdowns.is_empty(), "seed {seed}"),
            }
            let faults = log
                .iter()
                .filter(|e| matches!(e, MissionEvent::Fault { .. }))
                .count();
            assert_eq!(faults, logged.hazards.len(), "seed {seed}");
        }
    }

    #[test]
    fn scheduled_faults_consume_no_rng() {
        // The stream-separation contract: an early scheduled fault (here
        // a degraded-propulsion RB, which draws nothing from the RNG)
        // must leave the downstream stochastic mission — including the
        // wind-integrated parachute descent — bit-identical.
        let mut cfg = MissionConfig::small_test();
        cfg.wind = Wind::breeze(0.3); // descent consumes RNG draws
        cfg.rates = FailureRates::none();
        cfg.rates.lost_navigation = 120.0;
        let baseline = Mission::new(cfg.clone()).run(&mut PerfectEl::default(), 7);
        assert!(
            matches!(baseline.terminal, TerminalState::LandedEl { .. }),
            "test wants an RNG-consuming EL descent, got {:?}",
            baseline.terminal
        );
        let scheduled = [FailureEvent {
            hazard: HazardCategory::DegradedPropulsion,
            at_time_s: 0.5,
            duration_s: f64::INFINITY,
        }];
        let with_sched = Mission::new(cfg).run_with(&mut PerfectEl::default(), 7, &scheduled, None);
        // The scheduled hazard shows up in the trace…
        assert_eq!(with_sched.hazards[0], HazardCategory::DegradedPropulsion);
        assert_eq!(with_sched.maneuvers[0], Maneuver::ReturnToBase);
        // …but every stochastic consequence is untouched.
        assert_eq!(with_sched.terminal, baseline.terminal);
        assert_eq!(with_sched.severity, baseline.severity);
        assert_eq!(with_sched.hazards[1..], baseline.hazards[..]);
    }

    #[test]
    fn scheduled_fault_provenance_in_log() {
        let mut cfg = MissionConfig::small_test();
        cfg.rates = FailureRates::none();
        let scheduled = [FailureEvent {
            hazard: HazardCategory::LostCommunication,
            at_time_s: 10.0,
            duration_s: f64::INFINITY,
        }];
        let mut log = Vec::new();
        let out =
            Mission::new(cfg).run_with(&mut PerfectEl::default(), 0, &scheduled, Some(&mut log));
        assert_eq!(out.terminal, TerminalState::ReturnedToBase);
        assert_eq!(
            log.first(),
            Some(&MissionEvent::Fault {
                hazard: HazardCategory::LostCommunication,
                at_time_s: 10.0,
                duration_s: None, // permanent — JSON has no infinity
                scheduled: true,
            })
        );
        assert!(log.iter().any(|e| matches!(
            e,
            MissionEvent::Engaged {
                maneuver: Maneuver::ReturnToBase,
                ..
            }
        )));
    }

    #[test]
    fn merge_is_time_ordered_and_stochastic_first_on_ties() {
        let ev = |t: f64, hazard| FailureEvent {
            hazard,
            at_time_s: t,
            duration_s: f64::INFINITY,
        };
        let stochastic = vec![
            ev(1.0, HazardCategory::LostNavigation),
            ev(5.0, HazardCategory::FlyAway),
        ];
        let scheduled = [
            ev(5.0, HazardCategory::LostCommunication), // tie → after stochastic
            ev(0.5, HazardCategory::DegradedPropulsion),
            ev(9.0, HazardCategory::LossOfControl),
        ];
        let merged = merge_events(stochastic, &scheduled);
        let order: Vec<(f64, bool)> = merged.iter().map(|(e, s)| (e.at_time_s, *s)).collect();
        assert_eq!(
            order,
            vec![
                (0.5, true),
                (1.0, false),
                (5.0, false),
                (5.0, true),
                (9.0, true)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "scheduled fault time")]
    fn scheduled_fault_beyond_duration_rejected() {
        let cfg = MissionConfig::small_test();
        let scheduled = [FailureEvent {
            hazard: HazardCategory::FlyAway,
            at_time_s: 1e9,
            duration_s: f64::INFINITY,
        }];
        let _ = Mission::new(cfg).run_with(&mut PerfectEl::default(), 0, &scheduled, None);
    }
}
