//! Candidate landing-zone proposal — the core function of Figure 2.

use el_geom::components::{label_components, Connectivity};
use el_geom::distance::distance_from;
use el_geom::{Grid, LabelMap, Point, Rect, SemanticClass};
use serde::{Deserialize, Serialize};

/// Parameters of the zone proposer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoneParams {
    /// Required clearance (pixels) from any predicted busy-road or human
    /// pixel. Computed from the parachute drift model (see
    /// [`crate::drift`]).
    pub clearance_px: f64,
    /// Half-side (pixels) of the proposed square landing zone.
    pub zone_half_side: i64,
    /// Minimum area (pixels) of a connected safe region to be considered.
    pub min_area_px: usize,
    /// Maximum number of candidates returned (best first).
    pub max_candidates: usize,
}

impl ZoneParams {
    /// Defaults for 256 px scenes at 0.5 m/px: 10 m clearance, 8 m zones.
    pub fn default_urban() -> Self {
        ZoneParams {
            clearance_px: 20.0,
            zone_half_side: 8,
            min_area_px: 64,
            max_candidates: 5,
        }
    }

    /// Small-scene parameters for unit tests.
    pub fn small() -> Self {
        ZoneParams {
            clearance_px: 8.0,
            zone_half_side: 4,
            min_area_px: 16,
            max_candidates: 4,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.clearance_px < 0.0 || !self.clearance_px.is_finite() {
            return Err("clearance_px must be non-negative and finite".into());
        }
        if self.zone_half_side < 1 {
            return Err("zone_half_side must be at least 1".into());
        }
        if self.max_candidates == 0 {
            return Err("max_candidates must be positive".into());
        }
        Ok(())
    }
}

impl Default for ZoneParams {
    fn default() -> Self {
        Self::default_urban()
    }
}

/// A candidate landing zone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Zone centre.
    pub center: Point,
    /// The square landing zone (clipped to the image).
    pub rect: Rect,
    /// Distance (pixels) from the centre to the nearest predicted
    /// busy-road or human pixel.
    pub clearance_px: f64,
    /// Area (pixels) of the connected safe region the zone sits in.
    pub region_area: usize,
    /// Ranking score (higher is better).
    pub score: f64,
}

/// `true` for classes the core function treats as *high-risk* and keeps
/// the required clearance from: busy roads at all costs (Table III Low-1)
/// and humans (risk R2, assuming no independent M2 mitigation is proven).
pub fn is_high_risk(class: SemanticClass) -> bool {
    class.endangers_people()
}

/// `true` for classes the UAV may touch down on: low vegetation is
/// preferred (it cushions and risks nothing — cf. the landing-site
/// survey cited by the paper); clutter is acceptable ground.
pub fn is_landable(class: SemanticClass) -> bool {
    matches!(class, SemanticClass::LowVegetation | SemanticClass::Clutter)
}

/// Proposes candidate landing zones from a (predicted) label map.
///
/// Algorithm:
/// 1. Distance transform from every predicted high-risk pixel.
/// 2. Safe mask: landable pixels at distance `>= clearance_px`.
/// 3. Connected components of the safe mask; small slivers discarded.
/// 4. Within each region, the pixel farthest from high-risk areas becomes
///    the zone centre; the zone must fit inside the image.
/// 5. Rank by score (clearance, then region size).
///
/// The returned list is best-first and unique per region. This is a *pure
/// function of the prediction*: ground truth never enters — that is the
/// monitor's and the experiment harness's business.
///
/// # Panics
///
/// Panics if `params` fail [`ZoneParams::validate`].
pub fn propose_zones(predicted: &LabelMap, params: &ZoneParams) -> Vec<Candidate> {
    if let Err(e) = params.validate() {
        panic!("invalid zone parameters: {e}");
    }
    let dist = distance_from(predicted, is_high_risk);
    let safe: Grid<bool> = Grid::from_fn(predicted.width(), predicted.height(), |x, y| {
        is_landable(predicted[(x, y)]) && dist[(x, y)] >= params.clearance_px
    });
    let cc = label_components(&safe, Connectivity::Four);
    let bounds = predicted.bounds();

    let mut candidates = Vec::new();
    for comp in &cc.components {
        if comp.area < params.min_area_px {
            continue;
        }
        // Farthest-from-risk pixel inside the component whose zone square
        // fits in the image.
        let mut best: Option<(Point, f64)> = None;
        for p in comp.bbox.pixels() {
            if cc.labels[p] != Some(comp.id) {
                continue;
            }
            let zone = Rect::centered_square(p, 2 * params.zone_half_side + 1);
            if !bounds.contains_rect(zone) {
                continue;
            }
            let d = dist[p];
            if best.is_none_or(|(_, bd)| d > bd) {
                best = Some((p, d));
            }
        }
        let Some((center, clearance)) = best else {
            continue;
        };
        let rect = Rect::centered_square(center, 2 * params.zone_half_side + 1);
        // Score: clearance dominates; larger regions break ties (more
        // margin for the landing controller to adjust).
        let score = clearance + (comp.area as f64).sqrt() * 0.05;
        candidates.push(Candidate {
            center,
            rect,
            clearance_px: clearance,
            region_area: comp.area,
            score,
        });
    }
    candidates.sort_by(score_desc);
    candidates.truncate(params.max_candidates);
    candidates
}

/// Risk-screen thresholds applied to proposed candidates *before*
/// verification (see [`screen_candidates`]).
///
/// Heat values come from an external ground-risk accumulator (the
/// `el-riskmap` fleet grid); this config only decides what to do with
/// them. Screening happens strictly between proposal and crop
/// extraction, so the downstream verify/decide path never changes: given
/// identical surviving candidates, decisions, trials and seeds are
/// bit-identical with screening on or off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RiskConfig {
    /// Candidates whose footprint heat reaches this are kept but moved
    /// behind every clear candidate (still verified, last in line).
    pub deprioritize_heat: f64,
    /// Candidates whose footprint heat reaches this are dropped before
    /// verification.
    pub veto_heat: f64,
}

impl RiskConfig {
    /// Small-scale thresholds for tests and smoke runs.
    pub fn fast_test() -> Self {
        RiskConfig {
            deprioritize_heat: 0.05,
            veto_heat: 0.5,
        }
    }

    /// A screen that never fires: both thresholds at `+inf`. Screening
    /// under this config is the identity on any finite heat — the
    /// "enabled but cold" end of the advisory contract.
    pub fn never() -> Self {
        RiskConfig {
            deprioritize_heat: f64::INFINITY,
            veto_heat: f64::INFINITY,
        }
    }

    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.deprioritize_heat.is_nan() || self.veto_heat.is_nan() {
            return Err("risk thresholds must not be NaN".into());
        }
        if self.deprioritize_heat < 0.0 || self.veto_heat <= 0.0 {
            return Err("risk thresholds must be positive (deprioritize may be 0)".into());
        }
        if self.deprioritize_heat > self.veto_heat {
            return Err("deprioritize_heat must not exceed veto_heat".into());
        }
        Ok(())
    }
}

/// What [`screen_candidates`] did to one frame's proposals.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskScreen {
    /// Surviving candidates: clear ones first (original order), then
    /// deprioritised ones (original order). Vetoed candidates removed.
    pub kept: Vec<Candidate>,
    /// Candidates dropped at or above `veto_heat`.
    pub vetoed: usize,
    /// Candidates kept but demoted at or above `deprioritize_heat`.
    pub deprioritized: usize,
}

/// Screens proposed candidates against accumulated ground risk, before
/// any crop is extracted or verified.
///
/// `heat` maps a candidate's footprint to its worst accumulated risk
/// (the fleet map's maximum decayed cell heat under the rect). The
/// screen is a stable two-way partition: vetoed candidates vanish,
/// deprioritised ones move behind all clear ones, and relative order
/// within each class is preserved. A NaN heat never fires either
/// threshold (comparisons are `>=`, NaN fails both) — the map rejects
/// non-finite scores at ingestion, so a NaN here means "no data", and
/// no data must not veto a landing zone.
///
/// # Panics
///
/// Panics if `config` fails [`RiskConfig::validate`].
pub fn screen_candidates(
    candidates: Vec<Candidate>,
    config: &RiskConfig,
    heat: impl Fn(Rect) -> f64,
) -> RiskScreen {
    if let Err(e) = config.validate() {
        panic!("invalid risk configuration: {e}");
    }
    let mut kept = Vec::with_capacity(candidates.len());
    let mut demoted = Vec::new();
    let mut vetoed = 0usize;
    for candidate in candidates {
        let h = heat(candidate.rect);
        if h >= config.veto_heat {
            vetoed += 1;
        } else if h >= config.deprioritize_heat {
            demoted.push(candidate);
        } else {
            kept.push(candidate);
        }
    }
    let deprioritized = demoted.len();
    kept.append(&mut demoted);
    RiskScreen {
        kept,
        vetoed,
        deprioritized,
    }
}

/// Descending score comparator used to rank candidates.
///
/// Uses [`f64::total_cmp`] so a non-finite score (±∞ from an obstacle-free
/// distance transform, or NaN from a hand-built [`Candidate`]) yields a
/// deterministic order instead of panicking; the ordering over finite
/// scores is identical to the old `partial_cmp().unwrap()` sort. Under the
/// IEEE total order, descending ranks +NaN first and -NaN last.
fn score_desc(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A map with a vertical road at x in [28, 35] and grass elsewhere.
    fn road_map(w: usize, h: usize) -> LabelMap {
        Grid::from_fn(w, h, |x, _| {
            if (28..36).contains(&x) {
                SemanticClass::Road
            } else {
                SemanticClass::LowVegetation
            }
        })
    }

    #[test]
    fn proposes_zones_away_from_road() {
        let labels = road_map(96, 64);
        let params = ZoneParams::small();
        let zones = propose_zones(&labels, &params);
        assert!(!zones.is_empty(), "grass field must yield zones");
        for z in &zones {
            assert!(z.clearance_px >= params.clearance_px);
            // Zone rect must not touch the road band.
            for p in z.rect.pixels() {
                assert_ne!(labels[p], SemanticClass::Road, "zone overlaps road at {p}");
            }
        }
        // Best zone should be far from the road: clearance well above the
        // minimum.
        assert!(zones[0].clearance_px > 1.5 * params.clearance_px);
    }

    #[test]
    fn all_road_map_yields_nothing() {
        let labels: LabelMap = Grid::new(48, 48, SemanticClass::Road);
        assert!(propose_zones(&labels, &ZoneParams::small()).is_empty());
    }

    #[test]
    fn humans_are_high_risk() {
        // Grass field with a crowd in the middle: zones keep clearance.
        let mut labels: LabelMap = Grid::new(64, 64, SemanticClass::LowVegetation);
        for y in 28..36 {
            for x in 28..36 {
                labels[(x, y)] = SemanticClass::Humans;
            }
        }
        let params = ZoneParams::small();
        let zones = propose_zones(&labels, &params);
        assert!(!zones.is_empty());
        for z in &zones {
            let d = ((z.center.x - 31).pow(2) as f64 + (z.center.y - 31).pow(2) as f64).sqrt();
            assert!(
                d >= params.clearance_px - 4.0,
                "zone centre too close to crowd"
            );
        }
    }

    #[test]
    fn buildings_are_not_landable() {
        let labels: LabelMap = Grid::new(48, 48, SemanticClass::Building);
        assert!(propose_zones(&labels, &ZoneParams::small()).is_empty());
        let trees: LabelMap = Grid::new(48, 48, SemanticClass::Tree);
        assert!(propose_zones(&trees, &ZoneParams::small()).is_empty());
    }

    #[test]
    fn zones_fit_inside_image() {
        let labels = road_map(64, 40);
        for z in propose_zones(&labels, &ZoneParams::small()) {
            assert!(labels.bounds().contains_rect(z.rect));
        }
    }

    #[test]
    fn candidates_sorted_and_bounded() {
        let labels = road_map(96, 96);
        let mut params = ZoneParams::small();
        params.max_candidates = 2;
        let zones = propose_zones(&labels, &params);
        assert!(zones.len() <= 2);
        for w in zones.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn min_area_filters_slivers() {
        // A tiny grass patch inside a sea of buildings.
        let mut labels: LabelMap = Grid::new(48, 48, SemanticClass::Building);
        for y in 20..24 {
            for x in 20..24 {
                labels[(x, y)] = SemanticClass::LowVegetation;
            }
        }
        let mut params = ZoneParams::small();
        params.clearance_px = 0.0;
        params.min_area_px = 100;
        assert!(propose_zones(&labels, &params).is_empty());
        params.min_area_px = 4;
        params.zone_half_side = 1;
        assert_eq!(propose_zones(&labels, &params).len(), 1);
    }

    #[test]
    fn clearance_zero_still_requires_landable() {
        let labels: LabelMap = Grid::new(32, 32, SemanticClass::LowVegetation);
        let mut params = ZoneParams::small();
        params.clearance_px = 0.0;
        let zones = propose_zones(&labels, &params);
        assert_eq!(zones.len(), 1, "one big region, one candidate");
        assert_eq!(zones[0].region_area, 32 * 32);
    }

    fn candidate_with_score(score: f64) -> Candidate {
        let center = Point { x: 8, y: 8 };
        Candidate {
            center,
            rect: Rect::centered_square(center, 3),
            clearance_px: score,
            region_area: 1,
            score,
        }
    }

    #[test]
    fn nan_scores_sort_without_panicking() {
        // Regression: the old `partial_cmp().unwrap()` comparator panicked
        // on NaN. The total_cmp comparator must order deterministically.
        let mut cands = [
            candidate_with_score(1.0),
            candidate_with_score(f64::NAN),
            candidate_with_score(f64::INFINITY),
            candidate_with_score(-3.0),
            candidate_with_score(f64::NEG_INFINITY),
        ];

        cands.sort_by(score_desc);
        // +NaN ranks above +inf in the IEEE total order (descending).
        assert!(cands[0].score.is_nan());
        assert_eq!(cands[1].score, f64::INFINITY);
        assert_eq!(cands[2].score, 1.0);
        assert_eq!(cands[3].score, -3.0);
        assert_eq!(cands[4].score, f64::NEG_INFINITY);
        // Finite-only ordering is unchanged from the old comparator.
        let mut finite = [
            candidate_with_score(0.5),
            candidate_with_score(7.0),
            candidate_with_score(-1.0),
        ];
        finite.sort_by(score_desc);
        let scores: Vec<f64> = finite.iter().map(|c| c.score).collect();
        assert_eq!(scores, vec![7.0, 0.5, -1.0]);
    }

    #[test]
    fn non_finite_clearance_through_propose_zones() {
        // A risk-free map gives every pixel infinite clearance, so every
        // candidate score is +inf — the closest a real label map gets to
        // the NaN panic path. Must rank, not panic.
        let mut labels: LabelMap = Grid::new(64, 64, SemanticClass::LowVegetation);
        // A vertical band of humans is high-risk: it bounds the distance
        // transform and splits the grass into two safe components.
        for y in 0..64 {
            for x in 30..34 {
                labels[(x, y)] = SemanticClass::Humans;
            }
        }
        let zones = propose_zones(&labels, &ZoneParams::small());
        assert!(!zones.is_empty());
        for z in &zones {
            assert!(z.clearance_px.is_finite(), "risk band bounds clearance");
        }
        // Fully landable map: clearance and score are +inf everywhere.
        let open: LabelMap = Grid::new(48, 48, SemanticClass::LowVegetation);
        let zones = propose_zones(&open, &ZoneParams::small());
        assert_eq!(zones.len(), 1);
        assert_eq!(zones[0].clearance_px, f64::INFINITY);
        assert_eq!(zones[0].score, f64::INFINITY);
    }

    /// Distinct candidates at increasing x, scores descending like a
    /// real proposal list.
    fn screen_fixture(n: usize) -> Vec<Candidate> {
        (0..n)
            .map(|i| {
                let center = Point {
                    x: 10 + 20 * i as i64,
                    y: 10,
                };
                Candidate {
                    center,
                    rect: Rect::centered_square(center, 5),
                    clearance_px: 10.0 - i as f64,
                    region_area: 100,
                    score: 10.0 - i as f64,
                }
            })
            .collect()
    }

    #[test]
    fn screen_vetoes_and_demotes_stably() {
        let config = RiskConfig {
            deprioritize_heat: 0.2,
            veto_heat: 1.0,
        };
        // Heat keyed by candidate x: 10 → hot, 30 → warm, 50/70 → cold.
        let heat = |r: Rect| match r.center().x {
            10 => 2.0,
            30 => 0.5,
            _ => 0.0,
        };
        let screen = screen_candidates(screen_fixture(4), &config, heat);
        assert_eq!(screen.vetoed, 1);
        assert_eq!(screen.deprioritized, 1);
        let xs: Vec<i64> = screen.kept.iter().map(|c| c.center.x).collect();
        // Clear candidates keep their order; the warm one moves last.
        assert_eq!(xs, vec![50, 70, 30]);
    }

    #[test]
    fn screen_is_identity_when_cold() {
        let original = screen_fixture(3);
        for config in [RiskConfig::fast_test(), RiskConfig::never()] {
            let screen = screen_candidates(original.clone(), &config, |_| 0.0);
            assert_eq!(screen.kept, original, "cold screen must not reorder");
            assert_eq!(screen.vetoed, 0);
            assert_eq!(screen.deprioritized, 0);
        }
        // `never()` is the identity even on absurd finite heat.
        let screen = screen_candidates(original.clone(), &RiskConfig::never(), |_| 1e300);
        assert_eq!(screen.kept, original);
    }

    #[test]
    fn screen_treats_nan_heat_as_no_data() {
        let original = screen_fixture(2);
        let screen = screen_candidates(original.clone(), &RiskConfig::fast_test(), |_| f64::NAN);
        assert_eq!(screen.kept, original, "NaN heat must not veto or demote");
        assert_eq!(screen.vetoed, 0);
        assert_eq!(screen.deprioritized, 0);
    }

    #[test]
    fn risk_config_validates() {
        assert!(RiskConfig::fast_test().validate().is_ok());
        assert!(RiskConfig::never().validate().is_ok());
        let mut bad = RiskConfig::fast_test();
        bad.veto_heat = f64::NAN;
        assert!(bad.validate().is_err());
        bad = RiskConfig::fast_test();
        bad.veto_heat = 0.0;
        assert!(bad.validate().is_err());
        bad = RiskConfig {
            deprioritize_heat: 2.0,
            veto_heat: 1.0,
        };
        assert!(bad.validate().is_err());
        bad = RiskConfig {
            deprioritize_heat: -0.1,
            veto_heat: 1.0,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid risk configuration")]
    fn screen_rejects_invalid_config() {
        let bad = RiskConfig {
            deprioritize_heat: 2.0,
            veto_heat: 1.0,
        };
        let _ = screen_candidates(screen_fixture(1), &bad, |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid zone parameters")]
    fn invalid_params_rejected() {
        let labels = road_map(32, 32);
        let mut params = ZoneParams::small();
        params.max_candidates = 0;
        let _ = propose_zones(&labels, &params);
    }
}
