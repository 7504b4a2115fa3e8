//! The conservative confidence-interval decision rule (paper Eq. 2).

use el_geom::{Grid, SemanticClass};
use serde::{Deserialize, Serialize};

use crate::bayes::BayesStats;

/// The monitor's per-pixel decision rule.
///
/// A pixel is *safe* iff, for **every** busy-road sub-category `k`
/// (road, static car, moving car):
///
/// ```text
/// µ_k + sigma_factor · σ_k ≤ tau
/// ```
///
/// The paper chooses `tau = 0.125` (1/8: the road score must stay below a
/// uniform random guess over the eight UAVid classes) and
/// `sigma_factor = 3` (a 99.7% confidence bound), and deliberately
/// *over-approximates* the road category: high uncertainty alone is enough
/// to reject a pixel even when the mean looks safe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorRule {
    /// Score threshold `τ`.
    pub tau: f32,
    /// Confidence multiplier on `σ` (3 = 99.7% for a normal approximation).
    pub sigma_factor: f32,
}

impl MonitorRule {
    /// The paper's rule: `τ = 0.125`, `σ` factor 3.
    pub fn paper() -> Self {
        MonitorRule {
            tau: 0.125,
            sigma_factor: 3.0,
        }
    }

    /// A point-estimate ablation: ignores uncertainty entirely
    /// (`sigma_factor = 0`), thresholding the mean score only. Used by the
    /// experiments to show why the Bayesian `σ` term matters.
    pub fn point_estimate(tau: f32) -> Self {
        MonitorRule {
            tau,
            sigma_factor: 0.0,
        }
    }

    /// Validates the rule parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.tau) {
            return Err("tau must be in [0, 1]".into());
        }
        if self.sigma_factor < 0.0 || !self.sigma_factor.is_finite() {
            return Err("sigma_factor must be non-negative and finite".into());
        }
        Ok(())
    }

    /// Computes the warning map over full Bayesian statistics.
    ///
    /// `true` = warning (pixel rejected): some busy-road class's upper
    /// confidence bound exceeds `τ`.
    ///
    /// # Panics
    ///
    /// Panics if the statistics do not have [`SemanticClass::COUNT`]
    /// channels.
    pub fn warning_map(&self, stats: &BayesStats) -> Grid<bool> {
        let (c, h, w) = stats.mean.shape();
        assert_eq!(
            c,
            SemanticClass::COUNT,
            "expected {} channels, got {c}",
            SemanticClass::COUNT
        );
        let hw = h * w;
        let mut warn = Grid::new(w, h, false);
        for cls in SemanticClass::BUSY_ROAD {
            let mean = stats.mean.channel(cls.index());
            let std = stats.std.channel(cls.index());
            for i in 0..hw {
                if mean[i] + self.sigma_factor * std[i] > self.tau {
                    warn.as_mut_slice()[i] = true;
                }
            }
        }
        warn
    }
}

impl Default for MonitorRule {
    /// The paper's rule ([`MonitorRule::paper`]).
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_nn::Tensor;

    fn stats_with(mean_road: f32, std_road: f32) -> BayesStats {
        let mut mean = Tensor::zeros(8, 2, 2);
        let mut std = Tensor::zeros(8, 2, 2);
        for i in 0..4 {
            mean.channel_mut(SemanticClass::Road.index())[i] = mean_road;
            std.channel_mut(SemanticClass::Road.index())[i] = std_road;
        }
        BayesStats {
            mean,
            std,
            samples: 10,
        }
    }

    #[test]
    fn paper_rule_values() {
        let r = MonitorRule::paper();
        assert_eq!(r.tau, 0.125);
        assert_eq!(r.sigma_factor, 3.0);
        assert!(r.validate().is_ok());
        assert_eq!(MonitorRule::default(), r);
    }

    #[test]
    fn confident_safe_pixel_passes() {
        let r = MonitorRule::paper();
        // µ = 0.05, σ = 0.01 → 0.05 + 0.03 = 0.08 ≤ 0.125.
        let warn = r.warning_map(&stats_with(0.05, 0.01));
        assert!(warn.iter().all(|&w| !w));
    }

    #[test]
    fn high_mean_rejected() {
        let r = MonitorRule::paper();
        let warn = r.warning_map(&stats_with(0.3, 0.0));
        assert!(warn.iter().all(|&w| w));
    }

    #[test]
    fn high_uncertainty_rejected_even_with_safe_mean() {
        // This is the over-approximation that catches OOD failures: the
        // mean alone looks safe but σ is large.
        let r = MonitorRule::paper();
        let warn = r.warning_map(&stats_with(0.05, 0.10));
        assert!(warn.iter().all(|&w| w), "0.05 + 0.30 > 0.125 must warn");
        // A point-estimate monitor misses exactly this case.
        let p = MonitorRule::point_estimate(0.125);
        let warn = p.warning_map(&stats_with(0.05, 0.10));
        assert!(warn.iter().all(|&w| !w));
    }

    #[test]
    fn any_busy_road_subcategory_triggers() {
        let r = MonitorRule::paper();
        for cls in SemanticClass::BUSY_ROAD {
            let mut mean = Tensor::zeros(8, 1, 1);
            mean.channel_mut(cls.index())[0] = 0.5;
            let stats = BayesStats {
                mean,
                std: Tensor::zeros(8, 1, 1),
                samples: 10,
            };
            assert!(r.warning_map(&stats)[(0, 0)], "{cls} must trigger");
        }
        // A non-busy-road class never triggers, however confident.
        let mut mean = Tensor::zeros(8, 1, 1);
        mean.channel_mut(SemanticClass::Building.index())[0] = 0.99;
        let stats = BayesStats {
            mean,
            std: Tensor::zeros(8, 1, 1),
            samples: 10,
        };
        assert!(!r.warning_map(&stats)[(0, 0)]);
    }

    #[test]
    fn monotone_in_tau_and_sigma() {
        // Tighter tau or larger sigma factor can only add warnings.
        let stats = stats_with(0.08, 0.02);
        let lenient = MonitorRule {
            tau: 0.2,
            sigma_factor: 1.0,
        };
        let strict = MonitorRule {
            tau: 0.05,
            sigma_factor: 4.0,
        };
        let wl = lenient.warning_map(&stats);
        let ws = strict.warning_map(&stats);
        for (a, b) in wl.iter().zip(ws.iter()) {
            assert!(!a || *b, "strict rule must warn wherever lenient does");
        }
    }

    #[test]
    fn validation() {
        assert!(MonitorRule {
            tau: 1.5,
            sigma_factor: 3.0
        }
        .validate()
        .is_err());
        assert!(MonitorRule {
            tau: 0.1,
            sigma_factor: -1.0
        }
        .validate()
        .is_err());
    }
}
