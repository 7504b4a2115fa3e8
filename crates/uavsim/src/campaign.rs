//! Monte-Carlo failure-injection campaign reports.
//!
//! A campaign — run by [`Scenario::run_with`](crate::scenario::Scenario::run_with)
//! — flies many missions under stochastic failure injection and
//! aggregates (a) the distribution of engaged maneuvers — the Figure 1
//! experiment — and (b) the distribution of outcome severities on the
//! Table I scale — the Table II cross-validation, with and without the EL
//! function.
//!
//! Every report carries a statistical-power assessment ([`PowerReport`]):
//! expected event counts per hazard class, two-sided confidence intervals
//! on the severity rates (Wilson score and exact Clopper–Pearson), and an
//! explicit `underpowered` flag whenever a hazard class saw fewer events
//! than the configured floor — a campaign too small to exercise a branch
//! must say so instead of silently reporting a zero rate.

use el_sora::hazard::{HazardCategory, Severity};
use serde::{Deserialize, Serialize};

use crate::failure::FailureRates;
use crate::mission::{MissionOutcome, TerminalState};
use crate::safety::Maneuver;

/// Index of a hazard category in [`HazardCategory::ALL`] order — the
/// layout of [`CampaignReport::hazard_events`].
pub fn hazard_index(hazard: HazardCategory) -> usize {
    HazardCategory::ALL
        .iter()
        .position(|&h| h == hazard)
        .expect("every hazard category appears in ALL")
}

/// Aggregated campaign results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Number of missions run.
    pub missions: usize,
    /// Missions that completed nominally.
    pub completed: usize,
    /// Missions ending in a degraded return to base.
    pub returned_to_base: usize,
    /// Missions ending in a confirmed emergency landing.
    pub landed_el: usize,
    /// Missions ending in flight termination.
    pub terminated: usize,
    /// How many missions engaged each maneuver (H, RB, EL, FT).
    pub maneuver_engagements: [usize; 4],
    /// Outcome severity histogram, index = rating - 1.
    pub severity_histogram: [usize; 5],
    /// Injected events per hazard class, [`HazardCategory::ALL`] order
    /// (events occurring *before* a mission's termination, matching
    /// `MissionOutcome::hazards`).
    #[serde(default)]
    pub hazard_events: [usize; 6],
    /// Statistical-power assessment. `None` only on reports deserialized
    /// from files written before power reporting existed.
    #[serde(default)]
    pub power: Option<PowerReport>,
}

impl CampaignReport {
    /// An all-zero report for `missions` planned missions, ready for
    /// [`CampaignReport::tally`].
    pub fn empty(missions: usize) -> Self {
        CampaignReport {
            missions,
            completed: 0,
            returned_to_base: 0,
            landed_el: 0,
            terminated: 0,
            maneuver_engagements: [0; 4],
            severity_histogram: [0; 5],
            hazard_events: [0; 6],
            power: None,
        }
    }

    /// Folds one mission outcome into the aggregates. The fold is
    /// commutative over outcomes, but callers that promise bit-identical
    /// reports (the scenario runner) tally in mission-index order anyway
    /// so the invariant does not rest on that property.
    pub fn tally(&mut self, outcome: &MissionOutcome) {
        match outcome.terminal {
            TerminalState::Completed => self.completed += 1,
            TerminalState::ReturnedToBase => self.returned_to_base += 1,
            TerminalState::LandedEl { .. } => self.landed_el += 1,
            TerminalState::Terminated { .. } => self.terminated += 1,
        }
        for m in [
            Maneuver::Hovering,
            Maneuver::ReturnToBase,
            Maneuver::EmergencyLanding,
            Maneuver::FlightTermination,
        ] {
            if outcome.maneuvers.contains(&m) {
                self.maneuver_engagements[m as usize] += 1;
            }
        }
        self.severity_histogram[(outcome.severity.rating() - 1) as usize] += 1;
        for &h in &outcome.hazards {
            self.hazard_events[hazard_index(h)] += 1;
        }
    }

    /// Fraction of missions with a fatal outcome (severity 4–5).
    pub fn fatal_fraction(&self) -> f64 {
        let fatal = self.severity_histogram[3] + self.severity_histogram[4];
        fatal as f64 / self.missions.max(1) as f64
    }

    /// Fraction of missions with a catastrophic outcome (severity 5 —
    /// the busy-road accident R1).
    pub fn catastrophic_fraction(&self) -> f64 {
        self.severity_histogram[4] as f64 / self.missions.max(1) as f64
    }

    /// Missions per maneuver as fractions (H, RB, EL, FT).
    pub fn maneuver_fractions(&self) -> [f64; 4] {
        let n = self.missions.max(1) as f64;
        [
            self.maneuver_engagements[0] as f64 / n,
            self.maneuver_engagements[1] as f64 / n,
            self.maneuver_engagements[2] as f64 / n,
            self.maneuver_engagements[3] as f64 / n,
        ]
    }
}

/// Statistical-power configuration for a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerConfig {
    /// The floor on events per hazard class: an active hazard whose
    /// expected *or* observed event count falls below it marks the
    /// campaign as underpowered for that class.
    pub min_events_per_hazard: f64,
    /// Two-sided confidence level for the severity-rate intervals, in
    /// `(0, 1)` — e.g. `0.95`.
    pub confidence: f64,
}

impl Default for PowerConfig {
    /// Floor of 5 expected events (the usual rule of thumb for normal
    /// approximations to hold at all) at 95% confidence.
    fn default() -> Self {
        PowerConfig {
            min_events_per_hazard: 5.0,
            confidence: 0.95,
        }
    }
}

impl PowerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.min_events_per_hazard.is_finite() || self.min_events_per_hazard < 0.0 {
            return Err(format!(
                "power floor must be finite and non-negative (got {})",
                self.min_events_per_hazard
            ));
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(format!(
                "confidence must be in (0, 1), e.g. 0.95 (got {})",
                self.confidence
            ));
        }
        Ok(())
    }
}

/// A two-sided binomial confidence interval on an event rate, computed
/// two ways: the closed-form Wilson score interval and the exact
/// Clopper–Pearson interval (conservative; well-defined at 0 and n
/// successes, exactly where small campaigns live).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinomialInterval {
    /// Observed successes.
    pub successes: usize,
    /// Number of trials.
    pub trials: usize,
    /// The point estimate `successes / trials` (0 for an empty campaign).
    pub rate: f64,
    /// Wilson score interval, lower bound.
    pub wilson_lower: f64,
    /// Wilson score interval, upper bound.
    pub wilson_upper: f64,
    /// Exact Clopper–Pearson interval, lower bound.
    pub exact_lower: f64,
    /// Exact Clopper–Pearson interval, upper bound.
    pub exact_upper: f64,
}

impl BinomialInterval {
    /// Computes both intervals for `successes` out of `trials` at the
    /// given two-sided confidence level.
    pub fn new(successes: usize, trials: usize, confidence: f64) -> Self {
        let rate = if trials == 0 {
            0.0
        } else {
            successes as f64 / trials as f64
        };
        let (wilson_lower, wilson_upper) = wilson_interval(successes, trials, confidence);
        let (exact_lower, exact_upper) = clopper_pearson(successes, trials, confidence);
        BinomialInterval {
            successes,
            trials,
            rate,
            wilson_lower,
            wilson_upper,
            exact_lower,
            exact_upper,
        }
    }
}

/// Inverse of the standard normal CDF (the z-quantile), via Acklam's
/// rational approximation — relative error below 1.2e-9 over `(0, 1)`,
/// far tighter than any campaign's Monte-Carlo noise.
fn inv_norm_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile argument must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inv_norm_cdf(1.0 - p)
    }
}

/// The Wilson score interval for `k` successes in `n` trials.
fn wilson_interval(k: usize, n: usize, confidence: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let z = inv_norm_cdf(1.0 - (1.0 - confidence) / 2.0);
    let n_f = n as f64;
    let p_hat = k as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let center = (p_hat + z2 / (2.0 * n_f)) / denom;
    let half = z * (p_hat * (1.0 - p_hat) / n_f + z2 / (4.0 * n_f * n_f)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// `ln(C(n, i))` via a cumulative log-factorial table.
fn ln_choose(ln_fact: &[f64], n: usize, i: usize) -> f64 {
    ln_fact[n] - ln_fact[i] - ln_fact[n - i]
}

/// `P(X <= k)` for `X ~ Binomial(n, p)`, summed in log space.
fn binom_cdf(ln_fact: &[f64], k: usize, n: usize, p: f64) -> f64 {
    let (lp, lq) = (p.ln(), (1.0 - p).ln());
    let mut acc = 0.0;
    for i in 0..=k {
        acc += (ln_choose(ln_fact, n, i) + i as f64 * lp + (n - i) as f64 * lq).exp();
    }
    acc.min(1.0)
}

/// The exact Clopper–Pearson interval for `k` successes in `n` trials,
/// by bisection on the binomial tail probabilities (no incomplete-beta
/// special function needed: campaigns are at most a few thousand
/// missions, so direct tail sums are cheap and exact to f64).
fn clopper_pearson(k: usize, n: usize, confidence: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let half_alpha = (1.0 - confidence) / 2.0;
    let ln_fact: Vec<f64> = {
        let mut t = Vec::with_capacity(n + 1);
        let mut acc = 0.0;
        t.push(0.0);
        for i in 1..=n {
            acc += (i as f64).ln();
            t.push(acc);
        }
        t
    };
    // Bisect a monotone function of p over (0, 1) down to f64 resolution.
    let bisect = |f: &dyn Fn(f64) -> f64, increasing: bool| {
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let v = f(mid);
            if (v < 0.0) == increasing {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };
    // Lower bound: the p with P(X >= k; n, p) = alpha/2 (increasing in p).
    let lower = if k == 0 {
        0.0
    } else {
        bisect(
            &|p| (1.0 - binom_cdf(&ln_fact, k - 1, n, p)) - half_alpha,
            true,
        )
    };
    // Upper bound: the p with P(X <= k; n, p) = alpha/2 (decreasing in p).
    let upper = if k == n {
        1.0
    } else {
        bisect(&|p| binom_cdf(&ln_fact, k, n, p) - half_alpha, false)
    };
    (lower, upper)
}

/// Power assessment for one hazard class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HazardPower {
    /// The hazard class.
    pub hazard: HazardCategory,
    /// Expected injected events over the whole campaign: the Poisson
    /// mean `rate × duration × missions` plus any scheduled injections.
    pub expected_events: f64,
    /// Events actually observed (before mission termination).
    pub observed_events: usize,
    /// `true` when either count falls below the configured floor — the
    /// campaign cannot support conclusions about this hazard class.
    pub underpowered: bool,
}

/// Statistical-power section of a [`CampaignReport`].
///
/// The report answers the question PR 2 stumbled on: *was this campaign
/// big enough for its numbers to mean anything?* A hazard class whose
/// expected or observed event count is below the floor is flagged, and
/// any flagged class marks the whole campaign `underpowered` — a zero
/// severity rate from a campaign that never exercised the branch is not
/// evidence of safety.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Two-sided confidence level of the intervals.
    pub confidence: f64,
    /// The per-hazard event-count floor applied.
    pub min_events_floor: f64,
    /// Per-hazard assessments, for every hazard class with nonzero
    /// expected or observed events, in [`HazardCategory::ALL`] order.
    pub hazards: Vec<HazardPower>,
    /// Confidence intervals on the per-severity outcome rates,
    /// index = rating - 1.
    pub severity_rates: [BinomialInterval; 5],
    /// Confidence interval on the fatal-outcome rate (severity 4–5).
    pub fatal_rate: BinomialInterval,
    /// `true` when any active hazard class is underpowered.
    pub underpowered: bool,
}

impl PowerReport {
    /// Computes the power section from tallied aggregates.
    ///
    /// `scheduled_events` counts scenario-scheduled injections per hazard
    /// class ([`HazardCategory::ALL`] order) across the whole campaign;
    /// pass zeros for a purely stochastic campaign.
    pub fn compute(
        report: &CampaignReport,
        rates: &FailureRates,
        mission_duration_s: f64,
        scheduled_events: &[usize; 6],
        config: &PowerConfig,
    ) -> PowerReport {
        let n = report.missions;
        let mut hazards = Vec::new();
        for (idx, &hazard) in HazardCategory::ALL.iter().enumerate() {
            let expected = rates.rate(hazard) / 3600.0 * mission_duration_s * n as f64
                + scheduled_events[idx] as f64;
            let observed = report.hazard_events[idx];
            if expected <= 0.0 && observed == 0 {
                continue;
            }
            hazards.push(HazardPower {
                hazard,
                expected_events: expected,
                observed_events: observed,
                underpowered: expected < config.min_events_per_hazard
                    || (observed as f64) < config.min_events_per_hazard,
            });
        }
        let severity_rates = std::array::from_fn(|i| {
            BinomialInterval::new(report.severity_histogram[i], n, config.confidence)
        });
        let fatal = report.severity_histogram[3] + report.severity_histogram[4];
        let fatal_rate = BinomialInterval::new(fatal, n, config.confidence);
        let underpowered = hazards.iter().any(|h| h.underpowered);
        PowerReport {
            confidence: config.confidence,
            min_events_floor: config.min_events_per_hazard,
            hazards,
            severity_rates,
            fatal_rate,
            underpowered,
        }
    }
}

/// Severity labels for report printing, indexed rating-1.
pub fn severity_labels() -> [&'static str; 5] {
    let mut out = [""; 5];
    for (i, s) in Severity::ALL.iter().enumerate() {
        out[i] = s.description();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ElPolicy, MissionProfile, MissionSpec, RatesBase, RatesSpec, Scenario};

    /// A stress-rate campaign over the fast test profile, flown by the
    /// default [`ElPolicy`] (a [`crate::PerfectEl`] with 8 m clearance).
    fn stress_campaign(missions: usize) -> Scenario {
        Scenario {
            name: "campaign-test".into(),
            description: String::new(),
            missions,
            base_seed: 11,
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

    fn report(scenario: &Scenario) -> CampaignReport {
        scenario.run().expect("valid test scenario").report
    }

    #[test]
    fn counts_are_consistent() {
        let r = report(&stress_campaign(20));
        assert_eq!(
            r.completed + r.returned_to_base + r.landed_el + r.terminated,
            r.missions
        );
        assert_eq!(r.severity_histogram.iter().sum::<usize>(), r.missions);
    }

    #[test]
    fn el_reduces_terminations_vs_no_el() {
        let mut with_el = stress_campaign(30);
        with_el.mission.rates = Some(RatesSpec {
            base: Some(RatesBase::Zero),
            lost_navigation: Some(60.0),
            ..RatesSpec::default()
        });
        let mut without_el = with_el.clone();
        with_el.el = Some(ElPolicy::Perfect { clearance_m: 3.0 });
        without_el.el = Some(ElPolicy::NoEl);
        without_el.mission.el_installed = Some(false);
        let (with_el, without_el) = (report(&with_el), report(&without_el));

        assert!(with_el.landed_el > 0, "EL should land sometimes");
        assert!(
            with_el.terminated < without_el.terminated,
            "EL must convert terminations into landings: {} vs {}",
            with_el.terminated,
            without_el.terminated
        );
        // And the risk profile improves (fewer severe outcomes).
        assert!(with_el.fatal_fraction() <= without_el.fatal_fraction());
    }

    #[test]
    fn stress_rates_engage_every_maneuver() {
        let r = report(&stress_campaign(60));
        for (i, &n) in r.maneuver_engagements.iter().enumerate() {
            assert!(n > 0, "maneuver index {i} never engaged in 60 missions");
        }
    }

    #[test]
    fn fractions_bounded() {
        let r = report(&stress_campaign(15));
        assert!(r.fatal_fraction() >= 0.0 && r.fatal_fraction() <= 1.0);
        assert!(r.catastrophic_fraction() <= r.fatal_fraction());
        for f in r.maneuver_fractions() {
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn inverse_normal_quantiles() {
        // Reference values of the standard normal quantile function.
        for (p, z) in [
            (0.975, 1.959_963_985),
            (0.995, 2.575_829_304),
            (0.5, 0.0),
            (0.025, -1.959_963_985),
        ] {
            assert!(
                (inv_norm_cdf(p) - z).abs() < 1e-6,
                "Phi^-1({p}) = {} want {z}",
                inv_norm_cdf(p)
            );
        }
    }

    #[test]
    fn wilson_matches_reference() {
        // Wilson 95% interval for 5/10: (0.2366, 0.7635).
        let (lo, hi) = wilson_interval(5, 10, 0.95);
        assert!((lo - 0.2366).abs() < 1e-3, "lower {lo}");
        assert!((hi - 0.7634).abs() < 1e-3, "upper {hi}");
    }

    #[test]
    fn clopper_pearson_matches_closed_forms() {
        // At k = 0 the exact upper bound has the closed form
        // 1 - (alpha/2)^(1/n); at k = n the lower is (alpha/2)^(1/n).
        let n = 20;
        let (lo, hi) = clopper_pearson(0, n, 0.95);
        assert_eq!(lo, 0.0);
        let expect = 1.0 - 0.025f64.powf(1.0 / n as f64);
        assert!((hi - expect).abs() < 1e-9, "upper {hi} want {expect}");
        let (lo, hi) = clopper_pearson(n, n, 0.95);
        assert_eq!(hi, 1.0);
        assert!((lo - (1.0 - expect)).abs() < 1e-9, "lower {lo}");
        // Interior case against the standard reference: 5/10 at 95% is
        // (0.1871, 0.8129).
        let (lo, hi) = clopper_pearson(5, 10, 0.95);
        assert!((lo - 0.1871).abs() < 1e-3, "lower {lo}");
        assert!((hi - 0.8129).abs() < 1e-3, "upper {hi}");
    }

    #[test]
    fn intervals_bracket_the_rate() {
        for (k, n) in [(0, 7), (3, 7), (7, 7), (12, 400), (0, 1)] {
            let iv = BinomialInterval::new(k, n, 0.95);
            assert!(
                iv.wilson_lower <= iv.rate && iv.rate <= iv.wilson_upper,
                "{k}/{n}"
            );
            assert!(
                iv.exact_lower <= iv.rate && iv.rate <= iv.exact_upper,
                "{k}/{n}"
            );
            // Clopper–Pearson is conservative: at least as wide as Wilson.
            assert!(iv.exact_lower <= iv.wilson_lower + 1e-12, "{k}/{n}");
            assert!(iv.exact_upper >= iv.wilson_upper - 1e-12, "{k}/{n}");
            for b in [
                iv.wilson_lower,
                iv.wilson_upper,
                iv.exact_lower,
                iv.exact_upper,
            ] {
                assert!((0.0..=1.0).contains(&b), "{k}/{n}: bound {b}");
            }
        }
    }

    #[test]
    fn well_powered_campaign_is_not_flagged() {
        // 400 missions × 120 s at stress rates: the weakest class
        // (fly-away / degraded propulsion at 2 per hour) expects
        // 2/3600·120·400 ≈ 26.7 events — comfortably over the floor.
        let r = report(&stress_campaign(400));
        let power = r.power.as_ref().unwrap();
        assert!(
            !power.underpowered,
            "400-mission stress campaign flagged: {:?}",
            power.hazards
        );
        assert_eq!(power.hazards.len(), 6, "all stress hazards are active");
        for h in &power.hazards {
            assert!(h.observed_events > 0, "{:?} never observed", h.hazard);
        }
        // Event accounting matches the tallies.
        let total: usize = r.hazard_events.iter().sum();
        let observed: usize = power.hazards.iter().map(|h| h.observed_events).sum();
        assert_eq!(total, observed);
    }

    #[test]
    fn power_config_validation() {
        assert!(PowerConfig::default().validate().is_ok());
        for bad in [
            PowerConfig {
                min_events_per_hazard: -1.0,
                ..PowerConfig::default()
            },
            PowerConfig {
                min_events_per_hazard: f64::NAN,
                ..PowerConfig::default()
            },
            PowerConfig {
                confidence: 0.0,
                ..PowerConfig::default()
            },
            PowerConfig {
                confidence: 1.0,
                ..PowerConfig::default()
            },
            PowerConfig {
                confidence: f64::NAN,
                ..PowerConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }
}
