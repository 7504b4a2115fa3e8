//! Whole-frame audit mode: a budgeted post-decision Bayesian sweep.
//!
//! The Figure 2 architecture verifies **candidate crops only** — the
//! paper's cost argument (§V-B) rules out full-frame Bayesian inference
//! on the decision path. The consequence is a blind spot: a hazard
//! outside every proposed zone is invisible at decision time. The audit
//! closes that gap *without touching the safety-critical decision path*:
//! after [`ElPipeline::run`](crate::pipeline::ElPipeline::run) fixes its
//! landing decision, the remaining latency budget drives a budgeted
//! [`el_monitor::bayesian_segment_tiled`] sweep
//! over the full frame — candidate-zone tiles first — and the result is
//! attached to the outcome as a strictly **advisory**
//! [`AuditReport`]: the landing decision and trials are bit-identical
//! with the audit on or off (property-tested).
//!
//! The report carries three views of the same statistics:
//!
//! - **coverage**: how much of the frame the leftover budget bought
//!   (covered pixels hold *exact* whole-frame values — partial coverage
//!   is a prefix of the full answer, not an approximation);
//! - **per-tile statistics** ([`TileAuditStat`]): mean Monte-Carlo `σ`
//!   and warning fraction per verified tile, in verification order;
//! - **anomalous regions** ([`AuditRegion`]): connected components of
//!   the monitor rule's warning map within the covered area — the
//!   high-uncertainty regions a downstream safety switch can treat as an
//!   advisory escalation source (see
//!   `el_uavsim::SafetySwitch::on_audit_advisory`).

use el_geom::components::Connectivity;
use el_geom::{label_components, Grid, Rect};
use el_monitor::rule::MonitorRule;
use el_monitor::tiledbayes::{bayesian_segment_tiled, TiledBayesStats};
use el_scene::Image;
use el_seg::{MsdNet, TileConfig};
use serde::{Deserialize, Serialize};

/// Audit-mode configuration, carried by
/// [`PipelineConfig`](crate::pipeline::PipelineConfig).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuditConfig {
    /// Master switch. Off by default: the audit is an opt-in background
    /// pass and never affects the landing decision either way.
    pub enabled: bool,
    /// Total pipeline latency budget, seconds. The audit consumes
    /// whatever remains after the landing decision is fixed — the sweep
    /// polls the pipeline's elapsed clock before admitting each tile and
    /// returns a partial (still exact-where-covered) result on expiry.
    pub budget_s: f64,
    /// Audit tile side, pixels.
    pub tile: usize,
    /// Tile overlap margin, pixels; must be at least the network's
    /// receptive radius for the sweep's exactness guarantee.
    pub margin: usize,
    /// Monte-Carlo samples per audit tile. Typically fewer than the
    /// monitor's crop verification: the audit trades sample count for
    /// frame coverage.
    pub samples: usize,
    /// Minimum connected warning-region area (pixels) reported as an
    /// [`AuditRegion`] — smaller speckle is summarized only by the
    /// warning fraction.
    pub min_region_px: usize,
}

impl AuditConfig {
    /// Audit disabled (the paper's original architecture).
    pub fn disabled() -> Self {
        AuditConfig {
            enabled: false,
            ..Self::paper_scale()
        }
    }

    /// Benchmark-scale audit: 128 px tiles (8 px margin — enough for the
    /// dilation-4 branches), 5 samples per tile, a 2 s total budget.
    pub fn paper_scale() -> Self {
        AuditConfig {
            enabled: true,
            budget_s: 2.0,
            tile: 128,
            margin: 8,
            samples: 5,
            min_region_px: 16,
        }
    }

    /// A fast configuration for unit tests: small tiles, few samples, an
    /// effectively unlimited budget.
    pub fn fast_test() -> Self {
        AuditConfig {
            enabled: true,
            budget_s: 1e9,
            tile: 24,
            margin: 4,
            samples: 3,
            min_region_px: 4,
        }
    }

    /// Validates the configuration (only when enabled — a disabled audit
    /// carries inert parameters).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        TileConfig {
            tile: self.tile,
            margin: self.margin,
        }
        .validate()?;
        if self.samples == 0 {
            return Err("audit samples must be positive".into());
        }
        if self.budget_s.is_nan() || self.budget_s < 0.0 {
            return Err("audit budget must be non-negative".into());
        }
        Ok(())
    }

    /// Checks an enabled audit against the network it will sweep: the
    /// tile margin must cover the net's receptive radius, the exactness
    /// precondition [`bayesian_segment_tiled`] asserts. Constructors run
    /// this so a too-small margin is a configuration error, not a panic
    /// on the first audited frame.
    ///
    /// # Errors
    ///
    /// Returns a description naming the margin and the radius.
    pub fn validate_for(&self, net: &MsdNet) -> Result<(), String> {
        let radius = net.receptive_radius();
        if self.enabled && self.margin < radius {
            return Err(format!(
                "audit margin {} is below the network's receptive radius {radius}",
                self.margin
            ));
        }
        Ok(())
    }

    /// The audit's tile configuration.
    pub fn tile_config(&self) -> TileConfig {
        TileConfig {
            tile: self.tile,
            margin: self.margin,
        }
    }
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Seed offset separating the audit's Monte-Carlo stream from the
/// monitor's per-trial streams (trial `i` uses
/// `seed + (i+1)·`[`el_monitor::BATCH_SEED_STRIDE`]). An arbitrary odd
/// 64-bit constant far outside the trial chain.
pub const AUDIT_SEED_STRIDE: u64 = 0x51D3_C4A7_9B1E_6F35;

/// The seed the audit sweep derives from the pipeline seed — exposed so
/// tests can reproduce the audit's statistics through the standalone
/// Bayesian entry points.
pub fn audit_seed(pipeline_seed: u64) -> u64 {
    pipeline_seed.wrapping_add(AUDIT_SEED_STRIDE)
}

/// Per-tile audit statistics, one entry per verified tile in
/// verification order (candidate-zone tiles first).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileAuditStat {
    /// The tile's kept interior, in image coordinates (kept interiors
    /// partition the covered area).
    pub rect: Rect,
    /// Mean Monte-Carlo `σ` over the tile's kept pixels and all classes.
    pub mean_sigma: f64,
    /// Fraction of the tile's kept pixels carrying a warning under the
    /// monitor rule.
    pub warning_fraction: f64,
}

/// One extracted anomalous region: a connected component of warning
/// pixels within the audited area.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditRegion {
    /// Tight bounding box of the region, image coordinates.
    pub bbox: Rect,
    /// Number of warning pixels in the region.
    pub area: usize,
    /// Mean Monte-Carlo `σ` over the region's pixels and all classes.
    pub mean_sigma: f64,
}

/// The audit's findings, attached to
/// [`ElOutcome`](crate::pipeline::ElOutcome) when the audit is enabled.
///
/// Coverage and tile counts are read through the embedded sweep result
/// ([`AuditReport::tiled`]) rather than duplicated, so the report cannot
/// drift out of sync with its own statistics.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Per-tile uncertainty statistics, in verification order.
    pub tile_stats: Vec<TileAuditStat>,
    /// Connected high-uncertainty regions (area ≥
    /// [`AuditConfig::min_region_px`]), largest first.
    pub regions: Vec<AuditRegion>,
    /// Fraction of **covered** pixels carrying a warning (0 when nothing
    /// was covered).
    pub warning_fraction: f64,
    /// The raw budgeted sweep result: exact whole-frame statistics where
    /// covered, zeros elsewhere, plus the coverage mask and tile plan.
    pub tiled: TiledBayesStats,
}

impl AuditReport {
    /// Fraction of frame pixels the leftover budget covered.
    pub fn coverage(&self) -> f64 {
        self.tiled.coverage()
    }

    /// Number of tiles in the sweep plan.
    pub fn tiles_total(&self) -> usize {
        self.tiled.tiles_total
    }

    /// Number of tiles verified before the budget expired.
    pub fn tiles_verified(&self) -> usize {
        self.tiled.tiles_verified
    }

    /// `true` when the whole frame was audited (the statistics equal an
    /// untiled full-frame Bayesian pass bit for bit).
    pub fn is_complete(&self) -> bool {
        self.tiled.is_complete()
    }
}

/// Runs the audit sweep under the pipeline's elapsed clock and distils
/// the [`AuditReport`].
///
/// `priority` rectangles (candidate landing zones) are audited first;
/// `elapsed_s` is the pipeline's clock (seconds since `run` began), so
/// the sweep spends exactly the latency budget the decision path left
/// over. Public so the multi-stream service can run per-frame audits
/// outside an [`crate::pipeline::ElPipeline`].
pub fn run_audit_with_clock(
    net: &MsdNet,
    image: &Image,
    config: &AuditConfig,
    rule: &MonitorRule,
    pipeline_seed: u64,
    priority: &[Rect],
    elapsed_s: impl FnMut() -> f64,
) -> AuditReport {
    let tiled = bayesian_segment_tiled(
        net,
        image,
        config.tile_config(),
        config.samples,
        audit_seed(pipeline_seed),
        config.budget_s,
        priority,
        elapsed_s,
    );
    report_from_sweep(config, rule, tiled)
}

/// Mean `σ` over all classes of the pixels of `bbox` (image coordinates,
/// assumed within the frame) that satisfy `select`. Iterates the bounding
/// box only, so distilling a report stays O(total keep/region area), not
/// O(tiles x frame).
fn mean_sigma_in(
    tiled: &TiledBayesStats,
    bbox: Rect,
    select: impl Fn(usize, usize) -> bool,
) -> f64 {
    let (classes, h, w) = tiled.stats.std.shape();
    let std = tiled.stats.std.as_slice();
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for p in bbox.pixels() {
        let (x, y) = (p.x as usize, p.y as usize);
        if !select(x, y) {
            continue;
        }
        for c in 0..classes {
            sum += std[c * h * w + y * w + x] as f64;
        }
        count += classes;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Distils a finished (possibly truncated) sweep into the report.
fn report_from_sweep(
    config: &AuditConfig,
    rule: &MonitorRule,
    tiled: TiledBayesStats,
) -> AuditReport {
    let (w, h) = (tiled.covered.width(), tiled.covered.height());
    // Warnings restricted to the covered area (uncovered pixels hold
    // zero statistics, which the rule never flags, but the restriction
    // keeps the invariant explicit).
    let rule_warn = rule.warning_map(&tiled.stats);
    let warn: Grid<bool> = Grid::from_fn(w, h, |x, y| rule_warn[(x, y)] && tiled.covered[(x, y)]);
    let covered_px = tiled.covered.iter().filter(|&&c| c).count();
    let warn_px = warn.iter().filter(|&&c| c).count();
    let warning_fraction = if covered_px == 0 {
        0.0
    } else {
        warn_px as f64 / covered_px as f64
    };

    let tile_stats: Vec<TileAuditStat> = tiled
        .verified
        .iter()
        .map(|&i| {
            let keep = tiled.tiles[i].keep_rect();
            let mean_sigma = mean_sigma_in(&tiled, keep, |_, _| true);
            let keep_px = keep.area().max(1) as f64;
            let mut warn_in = 0usize;
            for p in keep.pixels() {
                if warn[(p.x as usize, p.y as usize)] {
                    warn_in += 1;
                }
            }
            TileAuditStat {
                rect: keep,
                mean_sigma,
                warning_fraction: warn_in as f64 / keep_px,
            }
        })
        .collect();

    let cc = label_components(&warn, Connectivity::Eight);
    let mut regions: Vec<AuditRegion> = cc
        .components
        .iter()
        .filter(|c| c.area >= config.min_region_px)
        .map(|c| {
            let id = c.id;
            let mean_sigma = mean_sigma_in(&tiled, c.bbox, |x, y| cc.labels[(x, y)] == Some(id));
            AuditRegion {
                bbox: c.bbox,
                area: c.area,
                mean_sigma,
            }
        })
        .collect();
    regions.sort_by(|a, b| b.area.cmp(&a.area).then(a.bbox.x.cmp(&b.bbox.x)));

    AuditReport {
        tile_stats,
        regions,
        warning_fraction,
        tiled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_monitor::BayesStats;
    use el_nn::Tensor;

    fn sweep_with_warnings() -> TiledBayesStats {
        // A hand-built 16x16 sweep: one fully covered plan of a single
        // tile, high road-σ in an 8x3 block.
        let (w, h) = (16usize, 16usize);
        let mut std = Tensor::zeros(8, h, w);
        let road = el_geom::SemanticClass::Road.index();
        for y in 4..7 {
            for x in 2..10 {
                std.channel_mut(road)[y * w + x] = 0.5;
            }
        }
        let tiles = el_seg::plan_tiles(
            w,
            h,
            TileConfig {
                tile: 24,
                margin: 4,
            },
        );
        let verified: Vec<usize> = (0..tiles.len()).collect();
        TiledBayesStats {
            stats: BayesStats {
                mean: Tensor::zeros(8, h, w),
                std,
                samples: 3,
            },
            covered: Grid::new(w, h, true),
            tiles_total: tiles.len(),
            tiles_verified: verified.len(),
            tiles,
            verified,
        }
    }

    #[test]
    fn report_extracts_anomalous_regions() {
        let cfg = AuditConfig {
            min_region_px: 4,
            ..AuditConfig::fast_test()
        };
        let report = report_from_sweep(&cfg, &MonitorRule::paper(), sweep_with_warnings());
        assert!(report.is_complete());
        assert_eq!(report.coverage(), 1.0);
        assert_eq!(report.regions.len(), 1, "one connected warning block");
        let r = &report.regions[0];
        assert_eq!(r.bbox, Rect::new(2, 4, 8, 3));
        assert_eq!(r.area, 24);
        assert!(r.mean_sigma > 0.0);
        let expect = 24.0 / 256.0;
        assert!((report.warning_fraction - expect).abs() < 1e-12);
        // Per-tile stats cover the whole plan and flag the block's tile.
        assert_eq!(report.tile_stats.len(), report.tiles_verified());
        assert!(report.tile_stats.iter().any(|t| t.warning_fraction > 0.0));
        assert!(report.tile_stats.iter().all(|t| t.mean_sigma >= 0.0));
    }

    #[test]
    fn speckle_below_min_region_is_summarized_not_extracted() {
        let mut sweep = sweep_with_warnings();
        // Shrink the block to 2 pixels.
        let road = el_geom::SemanticClass::Road.index();
        sweep.stats.std = Tensor::zeros(8, 16, 16);
        sweep.stats.std.channel_mut(road)[0] = 0.5;
        sweep.stats.std.channel_mut(road)[1] = 0.5;
        let cfg = AuditConfig {
            min_region_px: 4,
            ..AuditConfig::fast_test()
        };
        let report = report_from_sweep(&cfg, &MonitorRule::paper(), sweep);
        assert!(report.regions.is_empty());
        assert!(report.warning_fraction > 0.0, "speckle still counted");
    }

    #[test]
    fn empty_coverage_yields_empty_but_finite_report() {
        let mut sweep = sweep_with_warnings();
        sweep.covered = Grid::new(16, 16, false);
        sweep.verified.clear();
        sweep.tiles_verified = 0;
        let report = report_from_sweep(&AuditConfig::fast_test(), &MonitorRule::paper(), sweep);
        assert_eq!(report.coverage(), 0.0);
        assert_eq!(report.warning_fraction, 0.0);
        assert!(report.tile_stats.is_empty());
        assert!(report.regions.is_empty());
        assert!(!report.is_complete());
    }

    #[test]
    fn config_validation() {
        assert!(AuditConfig::disabled().validate().is_ok());
        assert!(AuditConfig::paper_scale().validate().is_ok());
        assert!(AuditConfig::fast_test().validate().is_ok());
        let mut bad = AuditConfig::fast_test();
        bad.samples = 0;
        assert!(bad.validate().is_err());
        bad = AuditConfig::fast_test();
        bad.budget_s = f64::NAN;
        assert!(bad.validate().is_err());
        bad = AuditConfig::fast_test();
        bad.margin = bad.tile;
        assert!(bad.validate().is_err());
        // A disabled audit never rejects its (inert) parameters.
        bad.enabled = false;
        assert!(bad.validate().is_ok());
    }

    #[test]
    fn audit_seed_leaves_trial_chain() {
        // The audit stream must not collide with any plausible trial seed.
        let seed = 42u64;
        for i in 0..64u64 {
            assert_ne!(
                audit_seed(seed),
                seed.wrapping_add((i + 1).wrapping_mul(el_monitor::BATCH_SEED_STRIDE))
            );
        }
    }
}
