//! Predictive frame admission control.
//!
//! Mirrors the tiled audit's EWMA admission rule (the per-tile cost model
//! of `el_monitor::tiledbayes`) at frame granularity: a tick has a fixed
//! latency budget, the controller keeps an exponentially weighted moving
//! average of the measured per-frame cost, and a frame is admitted only
//! while the *predicted* cost of everything admitted so far plus one more
//! frame stays inside the budget. Refusing up front is what keeps a tick
//! from overrunning: by the time an overrun is observable it has already
//! happened.
//!
//! Wall-clock measurement is inherently thread-count-dependent, so the
//! cost model is pluggable: production uses [`CostModel::MeasuredEwma`];
//! the determinism tests and the CI determinism assert use
//! [`CostModel::Fixed`] (a synthetic per-frame cost, making refusal
//! patterns byte-identical across worker-thread counts) or
//! [`CostModel::Unlimited`].

/// EWMA smoothing factor for the measured per-frame cost — the same
/// constant the tiled audit uses for per-tile costs.
pub const FRAME_COST_EWMA_ALPHA: f64 = 0.5;

/// How the controller predicts the cost of one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostModel {
    /// EWMA of the measured wall-clock cost per admitted frame
    /// (production). Bootstrap: until the first measurement every frame
    /// is admitted.
    MeasuredEwma,
    /// A fixed synthetic per-frame cost in seconds. Deterministic across
    /// thread counts and machines — the cost model for reproducibility
    /// tests of the admission path itself.
    Fixed {
        /// Predicted cost of one frame, seconds.
        frame_cost_s: f64,
    },
    /// Admit every frame (no budget accounting).
    Unlimited,
}

/// Admission-control configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Latency budget of one service tick, seconds. Ignored by
    /// [`CostModel::Unlimited`].
    pub tick_budget_s: f64,
    /// The cost predictor.
    pub model: CostModel,
}

impl AdmissionConfig {
    /// Admit everything — for determinism tests and unconstrained load
    /// generation.
    pub fn unlimited() -> Self {
        AdmissionConfig {
            tick_budget_s: f64::INFINITY,
            model: CostModel::Unlimited,
        }
    }

    /// Production configuration: measured EWMA cost against a tick
    /// budget.
    pub fn measured(tick_budget_s: f64) -> Self {
        AdmissionConfig {
            tick_budget_s,
            model: CostModel::MeasuredEwma,
        }
    }

    /// Deterministic configuration: fixed synthetic cost against a tick
    /// budget.
    pub fn fixed(tick_budget_s: f64, frame_cost_s: f64) -> Self {
        AdmissionConfig {
            tick_budget_s,
            model: CostModel::Fixed { frame_cost_s },
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.tick_budget_s.is_nan() || self.tick_budget_s <= 0.0 {
            return Err("tick_budget_s must be positive".into());
        }
        if let CostModel::Fixed { frame_cost_s } = self.model {
            if !frame_cost_s.is_finite() || frame_cost_s <= 0.0 {
                return Err("fixed frame_cost_s must be positive and finite".into());
            }
        }
        Ok(())
    }
}

/// The per-service admission controller.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    config: AdmissionConfig,
    avg_frame_cost_s: Option<f64>,
}

impl AdmissionControl {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AdmissionConfig::validate`]
    /// (the service validates before construction; this is the backstop).
    pub fn new(config: AdmissionConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid admission configuration: {e}");
        }
        AdmissionControl {
            config,
            avg_frame_cost_s: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// The current cost estimate, if the model has one.
    pub fn avg_frame_cost_s(&self) -> Option<f64> {
        match self.config.model {
            CostModel::MeasuredEwma => self.avg_frame_cost_s,
            CostModel::Fixed { frame_cost_s } => Some(frame_cost_s),
            CostModel::Unlimited => None,
        }
    }

    /// How many of `requested` frames are admitted this tick.
    ///
    /// Admits frame `k+1` only while `(k+1)·avg < budget` — the audit's
    /// predictive rule with `elapsed = 0` (the controller plans a whole
    /// tick up front). With no cost estimate yet (EWMA bootstrap), every
    /// frame is admitted: one measured tick seeds the model.
    pub fn admit(&self, requested: usize) -> usize {
        let Some(avg) = self.avg_frame_cost_s() else {
            return requested;
        };
        let budget = self.config.tick_budget_s;
        let mut admitted = 0usize;
        while admitted < requested && (admitted as f64 + 1.0) * avg < budget {
            admitted += 1;
        }
        admitted
    }

    /// Feeds one tick's measurement back into the EWMA. No-op for the
    /// fixed and unlimited models, and for empty ticks.
    pub fn observe(&mut self, frames: usize, elapsed_s: f64) {
        if frames == 0 || !matches!(self.config.model, CostModel::MeasuredEwma) {
            return;
        }
        let per_frame = (elapsed_s / frames as f64).max(0.0);
        self.avg_frame_cost_s = Some(match self.avg_frame_cost_s {
            None => per_frame,
            Some(avg) => FRAME_COST_EWMA_ALPHA * per_frame + (1.0 - FRAME_COST_EWMA_ALPHA) * avg,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_admits_everything() {
        let ac = AdmissionControl::new(AdmissionConfig::unlimited());
        assert_eq!(ac.admit(0), 0);
        assert_eq!(ac.admit(1000), 1000);
    }

    #[test]
    fn fixed_model_is_deterministic() {
        // Budget 1 s, 0.3 s per frame: 3 frames predict 0.9 < 1.0, a
        // fourth predicts 1.2 — refused.
        let ac = AdmissionControl::new(AdmissionConfig::fixed(1.0, 0.3));
        assert_eq!(ac.admit(10), 3);
        assert_eq!(ac.admit(2), 2);
        // Measurement feedback must not perturb the fixed model.
        let mut ac = ac;
        ac.observe(3, 100.0);
        assert_eq!(ac.admit(10), 3);
    }

    #[test]
    fn ewma_bootstraps_then_converges() {
        let mut ac = AdmissionControl::new(AdmissionConfig::measured(1.0));
        // Bootstrap: no estimate, everything admitted.
        assert_eq!(ac.admit(50), 50);
        // One slow tick: 0.5 s/frame → only one frame fits under 1 s.
        ac.observe(4, 2.0);
        assert_eq!(ac.avg_frame_cost_s(), Some(0.5));
        assert_eq!(ac.admit(50), 1);
        // Faster ticks pull the EWMA down (alpha 0.5 halves the distance
        // per observation).
        ac.observe(10, 1.0); // 0.1 s/frame → avg 0.3
        assert!((ac.avg_frame_cost_s().unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(ac.admit(50), 3);
    }

    #[test]
    fn budget_is_strict() {
        // Exactly filling the budget is a refusal: the rule is <, never
        // <=, matching the audit's `>= budget` refusal.
        let ac = AdmissionControl::new(AdmissionConfig::fixed(1.0, 0.25));
        assert_eq!(ac.admit(10), 3, "4 × 0.25 = budget exactly → refused");
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(AdmissionConfig::fixed(0.0, 0.1).validate().is_err());
        assert!(AdmissionConfig::fixed(1.0, 0.0).validate().is_err());
        assert!(AdmissionConfig::fixed(1.0, f64::NAN).validate().is_err());
        assert!(AdmissionConfig::measured(f64::NAN).validate().is_err());
        assert!(AdmissionConfig::unlimited().validate().is_ok());
    }
}
