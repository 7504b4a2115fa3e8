//! The Figure 1 safety-switch state machine.

use el_sora::hazard::HazardCategory;
use serde::{Deserialize, Serialize};

/// An emergency maneuver, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Maneuver {
    /// Hovering — wait for a temporary service to recover.
    Hovering,
    /// Return-to-Base under degraded conditions.
    ReturnToBase,
    /// Autonomous emergency landing.
    EmergencyLanding,
    /// Flight termination: stop the engines, open the parachute.
    FlightTermination,
}

impl Maneuver {
    /// Short code (H / RB / EL / FT) as in the paper's Figure 1.
    pub fn code(self) -> &'static str {
        match self {
            Maneuver::Hovering => "H",
            Maneuver::ReturnToBase => "RB",
            Maneuver::EmergencyLanding => "EL",
            Maneuver::FlightTermination => "FT",
        }
    }
}

/// The current flight mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlightMode {
    /// Nominal trajectory management.
    Nominal,
    /// Executing an emergency maneuver.
    Emergency(Maneuver),
}

/// The safety switch of Figure 1: routes detected anomalies to the
/// suitable emergency maneuver, escalating but never downgrading (except
/// for recovery from Hovering, which is the one deliberate exception the
/// paper's strategy allows: a *temporary* unavailability resolves back to
/// nominal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SafetySwitch {
    mode: FlightMode,
    /// Whether the EL function is installed at all (the paper's baseline
    /// comparison disables it: loss of navigation then terminates).
    el_installed: bool,
}

impl SafetySwitch {
    /// A switch in nominal mode.
    pub fn new(el_installed: bool) -> Self {
        SafetySwitch {
            mode: FlightMode::Nominal,
            el_installed,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> FlightMode {
        self.mode
    }

    /// `true` once a maneuver is latched.
    pub fn in_emergency(&self) -> bool {
        matches!(self.mode, FlightMode::Emergency(_))
    }

    /// The maneuver the paper's strategy prescribes for a hazard:
    ///
    /// - temporary unavailability of external services → **H**
    /// - permanent communication loss / navigable on-board failure → **RB**
    /// - loss of navigation with trajectory control retained → **EL**
    ///   (→ **FT** when no EL function is installed)
    /// - loss of control or fly-away (no safe continuation) → **FT**
    pub fn prescribed_maneuver(&self, hazard: HazardCategory) -> Maneuver {
        match hazard {
            HazardCategory::TemporaryServiceLoss => Maneuver::Hovering,
            HazardCategory::LostCommunication | HazardCategory::DegradedPropulsion => {
                Maneuver::ReturnToBase
            }
            HazardCategory::LostNavigation => {
                if self.el_installed {
                    Maneuver::EmergencyLanding
                } else {
                    Maneuver::FlightTermination
                }
            }
            HazardCategory::LossOfControl | HazardCategory::FlyAway => Maneuver::FlightTermination,
        }
    }

    /// Processes a detected hazard; returns the (possibly unchanged)
    /// active maneuver. Escalation is monotone: a prescribed maneuver
    /// less severe than the active one is ignored.
    pub fn on_hazard(&mut self, hazard: HazardCategory) -> FlightMode {
        let prescribed = self.prescribed_maneuver(hazard);
        self.mode = match self.mode {
            FlightMode::Nominal => FlightMode::Emergency(prescribed),
            FlightMode::Emergency(active) => FlightMode::Emergency(active.max(prescribed)),
        };
        self.mode
    }

    /// A temporarily lost service recovered. Only Hovering resolves back
    /// to nominal; every other maneuver is latched.
    pub fn on_recovery(&mut self) -> FlightMode {
        if self.mode == FlightMode::Emergency(Maneuver::Hovering) {
            self.mode = FlightMode::Nominal;
        }
        self.mode
    }

    /// The hover endurance is exhausted before the lost service
    /// recovered: the outage is no longer "temporary", so the switch
    /// re-routes it through the permanent-loss prescription — the UAV
    /// still has trajectory control but cannot continue the mission, which
    /// is exactly the loss-of-navigation situation: **EL** when installed,
    /// **FT** otherwise. A no-op in every state but Hovering.
    pub fn on_hover_exhausted(&mut self) -> FlightMode {
        if self.mode == FlightMode::Emergency(Maneuver::Hovering) {
            self.mode =
                FlightMode::Emergency(self.prescribed_maneuver(HazardCategory::LostNavigation));
        }
        self.mode
    }

    /// The EL function reports it cannot find or confirm a safe zone:
    /// escalate to flight termination ("if the UAV cannot ensure flight
    /// continuation or safe EL, then a Flight Termination maneuver is
    /// applied").
    pub fn on_el_abort(&mut self) -> FlightMode {
        if self.mode == FlightMode::Emergency(Maneuver::EmergencyLanding) {
            self.mode = FlightMode::Emergency(Maneuver::FlightTermination);
        }
        self.mode
    }

    /// Feeds the whole-frame audit's advisory into the switch.
    ///
    /// The audit is strictly advisory, so only an [`AuditAdvisory::Alarm`]
    /// — frame-level evidence that the perception stack is operating out
    /// of distribution — has any effect, and only while an emergency
    /// landing is being committed: if the frame-wide uncertainty is that
    /// widespread, the monitor's crop-level confirmation is itself
    /// untrustworthy, so the switch routes through the same escalation as
    /// [`SafetySwitch::on_el_abort`] (the UAV "cannot ensure … safe EL").
    /// In every other state, and for [`AuditAdvisory::Clear`] /
    /// [`AuditAdvisory::Caution`], this is a no-op — an advisory source
    /// never downgrades and never initiates a maneuver on its own.
    pub fn on_audit_advisory(&mut self, advisory: AuditAdvisory) -> FlightMode {
        if advisory == AuditAdvisory::Alarm
            && self.mode == FlightMode::Emergency(Maneuver::EmergencyLanding)
        {
            self.mode = FlightMode::Emergency(Maneuver::FlightTermination);
        }
        self.mode
    }
}

/// The severity of a whole-frame audit finding, as seen by the safety
/// switch (the EL pipeline's `AuditReport` distils to this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AuditAdvisory {
    /// No significant uncertainty outside the verified zones (or not
    /// enough frame coverage to say anything — missing evidence never
    /// escalates).
    Clear,
    /// Bounded anomalous regions exist; worth logging, not worth
    /// overriding a confirmed landing.
    Caution,
    /// Widespread high uncertainty across the audited frame: frame-level
    /// evidence that the scene is out of distribution for the perception
    /// stack.
    Alarm,
}

impl AuditAdvisory {
    /// Frame coverage below which the audit never escalates: with less
    /// than this fraction audited, "widespread uncertainty" cannot be
    /// distinguished from an unlucky tile order.
    pub const MIN_COVERAGE: f64 = 0.2;
    /// Warning fraction (over audited pixels) at or above which the
    /// advisory is [`AuditAdvisory::Alarm`].
    pub const ALARM_WARNING_FRACTION: f64 = 0.5;
    /// Warning fraction at or above which the advisory is at least
    /// [`AuditAdvisory::Caution`].
    pub const CAUTION_WARNING_FRACTION: f64 = 0.15;

    /// Classifies an audit result: `coverage` is the fraction of the
    /// frame the audit verified, `warning_fraction` the fraction of
    /// audited pixels carrying an uncertainty warning.
    pub fn classify(coverage: f64, warning_fraction: f64) -> Self {
        if coverage < Self::MIN_COVERAGE {
            return AuditAdvisory::Clear;
        }
        if warning_fraction >= Self::ALARM_WARNING_FRACTION {
            AuditAdvisory::Alarm
        } else if warning_fraction >= Self::CAUTION_WARNING_FRACTION {
            AuditAdvisory::Caution
        } else {
            AuditAdvisory::Clear
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_matches_figure_1() {
        let s = SafetySwitch::new(true);
        assert_eq!(
            s.prescribed_maneuver(HazardCategory::TemporaryServiceLoss),
            Maneuver::Hovering
        );
        assert_eq!(
            s.prescribed_maneuver(HazardCategory::LostCommunication),
            Maneuver::ReturnToBase
        );
        assert_eq!(
            s.prescribed_maneuver(HazardCategory::LostNavigation),
            Maneuver::EmergencyLanding
        );
        assert_eq!(
            s.prescribed_maneuver(HazardCategory::LossOfControl),
            Maneuver::FlightTermination
        );
        assert_eq!(
            s.prescribed_maneuver(HazardCategory::FlyAway),
            Maneuver::FlightTermination
        );
    }

    #[test]
    fn without_el_navigation_loss_terminates() {
        let s = SafetySwitch::new(false);
        assert_eq!(
            s.prescribed_maneuver(HazardCategory::LostNavigation),
            Maneuver::FlightTermination
        );
    }

    #[test]
    fn hovering_recovers_to_nominal() {
        let mut s = SafetySwitch::new(true);
        s.on_hazard(HazardCategory::TemporaryServiceLoss);
        assert_eq!(s.mode(), FlightMode::Emergency(Maneuver::Hovering));
        assert_eq!(s.on_recovery(), FlightMode::Nominal);
    }

    #[test]
    fn escalation_is_monotone() {
        let mut s = SafetySwitch::new(true);
        s.on_hazard(HazardCategory::LostNavigation);
        assert_eq!(s.mode(), FlightMode::Emergency(Maneuver::EmergencyLanding));
        // A less severe hazard cannot downgrade the maneuver.
        s.on_hazard(HazardCategory::TemporaryServiceLoss);
        assert_eq!(s.mode(), FlightMode::Emergency(Maneuver::EmergencyLanding));
        // Recovery does not unlatch EL.
        s.on_recovery();
        assert_eq!(s.mode(), FlightMode::Emergency(Maneuver::EmergencyLanding));
        // A more severe hazard escalates.
        s.on_hazard(HazardCategory::LossOfControl);
        assert_eq!(s.mode(), FlightMode::Emergency(Maneuver::FlightTermination));
    }

    #[test]
    fn ft_reachable_from_every_state() {
        // Safety property: whatever the current mode, LossOfControl
        // forces flight termination.
        for setup in [
            None,
            Some(HazardCategory::TemporaryServiceLoss),
            Some(HazardCategory::LostCommunication),
            Some(HazardCategory::LostNavigation),
        ] {
            let mut s = SafetySwitch::new(true);
            if let Some(h) = setup {
                s.on_hazard(h);
            }
            s.on_hazard(HazardCategory::LossOfControl);
            assert_eq!(s.mode(), FlightMode::Emergency(Maneuver::FlightTermination));
        }
    }

    #[test]
    fn el_abort_escalates_to_ft() {
        let mut s = SafetySwitch::new(true);
        s.on_hazard(HazardCategory::LostNavigation);
        assert_eq!(
            s.on_el_abort(),
            FlightMode::Emergency(Maneuver::FlightTermination)
        );
        // el_abort in other states is a no-op.
        let mut s = SafetySwitch::new(true);
        s.on_hazard(HazardCategory::LostCommunication);
        assert_eq!(
            s.on_el_abort(),
            FlightMode::Emergency(Maneuver::ReturnToBase)
        );
    }

    #[test]
    fn hover_exhaustion_escalates_like_lost_navigation() {
        // With an EL function: persistent outage → emergency landing.
        let mut s = SafetySwitch::new(true);
        s.on_hazard(HazardCategory::TemporaryServiceLoss);
        assert_eq!(
            s.on_hover_exhausted(),
            FlightMode::Emergency(Maneuver::EmergencyLanding)
        );
        // Without one: → flight termination.
        let mut s = SafetySwitch::new(false);
        s.on_hazard(HazardCategory::TemporaryServiceLoss);
        assert_eq!(
            s.on_hover_exhausted(),
            FlightMode::Emergency(Maneuver::FlightTermination)
        );
        // A no-op in every other state.
        let mut s = SafetySwitch::new(true);
        assert_eq!(s.on_hover_exhausted(), FlightMode::Nominal);
        s.on_hazard(HazardCategory::LostCommunication);
        assert_eq!(
            s.on_hover_exhausted(),
            FlightMode::Emergency(Maneuver::ReturnToBase)
        );
    }

    #[test]
    fn audit_alarm_escalates_only_committed_el() {
        // Alarm during EL → FT (the crop confirmation is untrustworthy).
        let mut s = SafetySwitch::new(true);
        s.on_hazard(HazardCategory::LostNavigation);
        assert_eq!(
            s.on_audit_advisory(AuditAdvisory::Alarm),
            FlightMode::Emergency(Maneuver::FlightTermination)
        );
        // Clear / Caution never change state.
        for adv in [AuditAdvisory::Clear, AuditAdvisory::Caution] {
            let mut s = SafetySwitch::new(true);
            s.on_hazard(HazardCategory::LostNavigation);
            assert_eq!(
                s.on_audit_advisory(adv),
                FlightMode::Emergency(Maneuver::EmergencyLanding)
            );
        }
        // Alarm in any other state is advisory only (never initiates).
        let mut s = SafetySwitch::new(true);
        assert_eq!(
            s.on_audit_advisory(AuditAdvisory::Alarm),
            FlightMode::Nominal
        );
        s.on_hazard(HazardCategory::LostCommunication);
        assert_eq!(
            s.on_audit_advisory(AuditAdvisory::Alarm),
            FlightMode::Emergency(Maneuver::ReturnToBase)
        );
    }

    #[test]
    fn advisory_classification_thresholds() {
        // Low coverage never escalates, whatever the warning fraction.
        assert_eq!(AuditAdvisory::classify(0.1, 1.0), AuditAdvisory::Clear);
        // Above the coverage floor, the warning fraction grades.
        assert_eq!(AuditAdvisory::classify(0.8, 0.05), AuditAdvisory::Clear);
        assert_eq!(AuditAdvisory::classify(0.8, 0.2), AuditAdvisory::Caution);
        assert_eq!(AuditAdvisory::classify(0.8, 0.6), AuditAdvisory::Alarm);
        // Severity is ordered for max-style merging.
        assert!(AuditAdvisory::Clear < AuditAdvisory::Caution);
        assert!(AuditAdvisory::Caution < AuditAdvisory::Alarm);
    }

    #[test]
    fn maneuver_codes() {
        assert_eq!(Maneuver::Hovering.code(), "H");
        assert_eq!(Maneuver::ReturnToBase.code(), "RB");
        assert_eq!(Maneuver::EmergencyLanding.code(), "EL");
        assert_eq!(Maneuver::FlightTermination.code(), "FT");
        assert!(Maneuver::Hovering < Maneuver::FlightTermination);
    }
}
