//! The complete Figure 2 landing-zone-selection pipeline, plus baselines.

use std::fmt;
use std::time::Instant;

use el_geom::{Grid, LabelMap, SemanticClass};
use el_monitor::{Monitor, MonitorConfig, MonitorReport, Verdict};
use el_nn::Workspace;
use el_scene::Image;
use el_seg::MsdNet;
use serde::{Deserialize, Serialize};

use crate::audit::{AuditConfig, AuditReport};
use crate::decision::{AbortReason, Decision, DecisionConfig, DecisionModule};
use crate::stages::{audit_frame, plan_frame};
use crate::zone::{Candidate, ZoneParams};

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Zone-proposal parameters (clearance from the drift model).
    pub zone: ZoneParams,
    /// Monitor configuration (Eq. 2 rule, sample count, tolerance).
    pub monitor: MonitorConfig,
    /// Decision-module configuration (trial budget).
    pub decision: DecisionConfig,
    /// Margin (pixels) added around a zone for monitor verification.
    pub monitor_margin_px: i64,
    /// `false` disables the monitor entirely — the *unmonitored baseline*
    /// of the experiments: the first proposed zone is accepted.
    pub monitored: bool,
    /// Whole-frame audit mode (see [`crate::audit`]): a strictly advisory
    /// post-decision Bayesian sweep over the full frame with the leftover
    /// latency budget. Disabled by default; never affects the decision.
    pub audit: AuditConfig,
}

impl PipelineConfig {
    /// The paper's configuration at benchmark scale (zero warning
    /// tolerance — strictly Eq. 2 on every pixel).
    pub fn paper() -> Self {
        PipelineConfig {
            zone: ZoneParams::default_urban(),
            monitor: MonitorConfig::paper(),
            decision: DecisionConfig::default_trials(),
            monitor_margin_px: 6,
            monitored: true,
            audit: AuditConfig::disabled(),
        }
    }

    /// The experiment-harness configuration: the paper's rule with a 25%
    /// zone-level warning tolerance.
    ///
    /// Even a well-trained network carries isolated high-`σ` pixels on
    /// safe ground (texture speckle at class boundaries); zone-level
    /// acceptance therefore tolerates a bounded warning fraction. The
    /// threshold is calibrated on the benchmark model: in-distribution
    /// zone crops warn on 5–28% of pixels, out-of-distribution crops on
    /// 47–59%, so 25% cleanly separates the regimes.
    pub fn benchmark() -> Self {
        PipelineConfig {
            monitor: MonitorConfig {
                max_warning_fraction: 0.25,
                ..MonitorConfig::paper()
            },
            ..Self::paper()
        }
    }

    /// A fast configuration for unit tests (few Monte-Carlo samples,
    /// small zones).
    pub fn fast_test() -> Self {
        PipelineConfig {
            zone: ZoneParams::small(),
            monitor: MonitorConfig {
                samples: 4,
                max_warning_fraction: 0.02,
                ..MonitorConfig::paper()
            },
            decision: DecisionConfig::default_trials(),
            monitor_margin_px: 4,
            monitored: true,
            audit: AuditConfig::disabled(),
        }
    }

    /// The unmonitored-baseline variant of this configuration.
    pub fn unmonitored(mut self) -> Self {
        self.monitored = false;
        self
    }

    /// The same configuration with the given audit mode.
    pub fn with_audit(mut self, audit: AuditConfig) -> Self {
        self.audit = audit;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.zone.validate()?;
        self.monitor.validate()?;
        self.decision.validate()?;
        if self.monitor_margin_px < 0 {
            return Err("monitor_margin_px must be non-negative".into());
        }
        self.audit.validate()?;
        Ok(())
    }

    /// Validates the configuration against the network it will run:
    /// [`PipelineConfig::validate`], then the network's shape — one
    /// output class per [`SemanticClass`] and 3 (RGB) input channels —
    /// and an enabled audit's margin against the network's receptive
    /// radius ([`AuditConfig::validate_for`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint, naming
    /// the expected and the actual value.
    pub fn validate_for(&self, net: &MsdNet) -> Result<(), String> {
        self.validate()?;
        if net.classes() != SemanticClass::COUNT {
            return Err(format!(
                "network has {} output classes, expected {} (one per semantic class)",
                net.classes(),
                SemanticClass::COUNT
            ));
        }
        let in_channels = net.config().in_channels;
        if in_channels != 3 {
            return Err(format!(
                "network has {in_channels} input channels, expected 3 (RGB)"
            ));
        }
        self.audit.validate_for(net)
    }
}

/// An invalid [`PipelineConfig`], rejected by [`ElPipeline::try_new`].
///
/// Carries the first violated constraint; the [`fmt::Display`] form is
/// `invalid pipeline configuration: <constraint>` so the message names
/// both the subsystem and the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfigError {
    detail: String,
}

impl PipelineConfigError {
    /// The violated constraint, e.g. `samples must be positive`.
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl fmt::Display for PipelineConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pipeline configuration: {}", self.detail)
    }
}

impl std::error::Error for PipelineConfigError {}

/// One monitor trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trial {
    /// The candidate verified.
    pub candidate: Candidate,
    /// The monitor's verdict.
    pub verdict: Verdict,
    /// Fraction of warning pixels in the verified sub-image.
    pub warning_fraction: f64,
}

/// The pipeline's final decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FinalDecision {
    /// Land at this confirmed zone.
    Land(Candidate),
    /// Abort the flight and hand over to flight termination.
    Abort(AbortReason),
}

impl FinalDecision {
    /// `true` for a landing decision.
    pub fn is_land(&self) -> bool {
        matches!(self, FinalDecision::Land(_))
    }
}

/// The outcome of one pipeline run.
#[derive(Debug, Clone)]
pub struct ElOutcome {
    /// The final decision.
    pub decision: FinalDecision,
    /// Every monitor trial performed, in order.
    pub trials: Vec<Trial>,
    /// The core function's full-frame prediction (single Eval pass).
    pub predicted: LabelMap,
    /// The whole-frame audit report — `Some` iff the audit is enabled.
    /// Strictly advisory: `decision` and `trials` are bit-identical with
    /// the audit on or off (property-tested).
    pub audit: Option<AuditReport>,
}

/// Replays precomputed monitor verdicts through the sequential
/// [`DecisionModule`] — the single definition of the decision-replay
/// semantics, shared by the monitored and baseline paths.
///
/// The decision module can in principle request more trials than
/// `reports` holds (a verification batch truncated below the trial
/// budget, or a future decision policy that retries); running out of
/// verdicts is an **abort**, never a panic — an unverifiable candidate
/// must not be landed on (regression-tested below).
pub fn replay_decisions(
    config: DecisionConfig,
    monitored: bool,
    candidates: Vec<Candidate>,
    reports: &[MonitorReport],
) -> (FinalDecision, Vec<Trial>) {
    let mut trials = Vec::new();
    let mut dm = DecisionModule::new(config, candidates);
    let mut decision = dm.first();
    let mut tried = 0usize;
    let final_decision = loop {
        match decision {
            Decision::Land(c) => break FinalDecision::Land(c),
            Decision::Abort(r) => break FinalDecision::Abort(r),
            Decision::TryNext(candidate) => {
                let (verdict, warning_fraction) = if monitored {
                    match reports.get(tried) {
                        Some(report) => (report.verdict, report.warning_fraction),
                        None => break FinalDecision::Abort(AbortReason::TrialBudgetExhausted),
                    }
                } else {
                    // Unmonitored baseline: trust the core function.
                    (Verdict::Confirmed, 0.0)
                };
                tried += 1;
                trials.push(Trial {
                    candidate: candidate.clone(),
                    verdict,
                    warning_fraction,
                });
                decision = dm.on_verdict(candidate, verdict);
            }
        }
    };
    (final_decision, trials)
}

/// The Figure 2 safety architecture: core function → monitor → decision
/// module.
///
/// Owns the segmentation network; the monitor runs the *same* network in
/// Monte-Carlo-dropout mode, exactly as the paper derives its Bayesian
/// MSDnet from the deployed MSDnet.
#[derive(Debug)]
pub struct ElPipeline {
    net: MsdNet,
    monitor: Monitor,
    config: PipelineConfig,
    /// Scratch arena reused across runs: after the first frame, the core
    /// function's forward passes allocate nothing.
    ws: Workspace,
}

impl ElPipeline {
    /// Creates a pipeline around a (typically trained) network.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineConfigError`] when the configuration fails
    /// [`PipelineConfig::validate_for`] on `net` — an invalid setting, a
    /// network whose classes or input channels the pipeline cannot run,
    /// or an enabled audit's margin below `net`'s receptive radius. The
    /// scenario subsystem's "never a panic" contract extends to
    /// construction.
    pub fn try_new(net: MsdNet, config: PipelineConfig) -> Result<Self, PipelineConfigError> {
        if let Err(detail) = config.validate_for(&net) {
            return Err(PipelineConfigError { detail });
        }
        // `validate` covered the monitor section, so this cannot panic.
        let monitor = Monitor::new(config.monitor);
        Ok(ElPipeline {
            net,
            monitor,
            config,
            ws: Workspace::new(),
        })
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Borrows the underlying network (e.g. for separate evaluation).
    pub fn net_mut(&mut self) -> &mut MsdNet {
        &mut self.net
    }

    /// Runs the full architecture on one on-board image: the shared
    /// frame stages ([`crate::stages`]) composed for one frame.
    ///
    /// `seed` drives the monitor's Monte-Carlo dropout; the run is
    /// deterministic given `(net, image, seed)`.
    ///
    /// A degenerate frame — empty, narrower than a zone, or too corrupt
    /// (e.g. all-NaN) to yield a landable region — never panics: it
    /// proposes no candidates and aborts with
    /// [`AbortReason::NoCandidates`]. With the audit enabled such a frame
    /// still carries its report; an empty frame's report plans zero tiles.
    ///
    /// # Verification strategy
    ///
    /// The monitored path is *propose-all-then-verify-batch*: every
    /// candidate the decision module could possibly try (its trial
    /// budget caps the count) is cropped up front and verified in one
    /// [`Monitor::verify_batch`] invocation — each candidate's prefix
    /// convolutions run once and all candidates' Monte-Carlo chunks
    /// share one rayon work queue. The *decision semantics* stay exactly
    /// sequential: the precomputed verdicts are replayed through the
    /// [`DecisionModule`] in candidate order, and a trial is recorded
    /// only for candidates the sequential loop would actually have
    /// tried. Crop `i`'s seed is
    /// `seed + (i+1)·`[`el_monitor::BATCH_SEED_STRIDE`] — the same chain
    /// the sequential loop stepped through — so decisions, trials and
    /// warning fractions are bit-identical to per-candidate verification
    /// (property-tested).
    ///
    /// This is **speculative** verification: when the first candidate is
    /// confirmed, the lazy loop would have verified one crop while the
    /// batch verified up to `max_trials` of them. The total Monte-Carlo
    /// compute therefore rises by up to that factor in the confirm-first
    /// case, in exchange for all trials running concurrently on one
    /// shared work queue — on parallel hardware the *wall-clock* decision
    /// latency is bounded by one batch instead of up to `max_trials`
    /// sequential verifications, which is the quantity the emergency-
    /// landing loop actually budgets (paper §V-B). Deployments that are
    /// compute-bound rather than latency-bound should keep `max_trials`
    /// tight (the default is 3).
    pub fn run(&mut self, image: &Image, seed: u64) -> ElOutcome {
        let start = Instant::now();
        self.run_with_audit_clock(image, seed, move || start.elapsed().as_secs_f64())
    }

    /// [`ElPipeline::run`] with an injectable pipeline clock: `elapsed_s`
    /// returns seconds since the run began and is consumed only by the
    /// whole-frame audit's budget polls (the decision path never reads
    /// it). Production uses wall-clock time; tests inject a deterministic
    /// fake clock to pin the audit's budget semantics.
    pub fn run_with_audit_clock(
        &mut self,
        image: &Image,
        seed: u64,
        elapsed_s: impl FnMut() -> f64,
    ) -> ElOutcome {
        let metrics = el_metrics::registry();
        let config = &self.config;

        // Core function: one deterministic pass + zone proposal.
        let sw = el_metrics::Stopwatch::start();
        let plan = plan_frame(&self.net, image, config, &config.zone, None, &mut self.ws);
        metrics.stage_propose.record(sw);

        // Verify-batch every candidate the decision module could reach.
        let sw = el_metrics::Stopwatch::start();
        let reports = if config.monitored {
            self.monitor.verify_batch(&self.net, &plan.crops, seed)
        } else {
            Vec::new()
        };
        metrics.stage_verify.record(sw);

        // Sequential decision replay over the precomputed verdicts.
        let sw = el_metrics::Stopwatch::start();
        let (final_decision, trials) =
            replay_decisions(config.decision, config.monitored, plan.candidates, &reports);
        metrics.stage_decide.record(sw);
        metrics.verify_trials.add(trials.len() as u64);

        // The decision is fixed; the leftover latency budget funds the
        // strictly advisory whole-frame audit (see `crate::audit`).
        let sw = el_metrics::Stopwatch::start();
        let audit = audit_frame(&self.net, image, config, seed, &plan.priority, elapsed_s);
        metrics.stage_audit.record(sw);
        metrics.pipeline_runs.add(1);

        ElOutcome {
            decision: final_decision,
            trials,
            predicted: plan.labels,
            audit,
        }
    }
}

/// Classical edge-density landing-zone selection (after Mejias &
/// Fitzgerald 2013, §II-B2 of the paper): pick the window with the least
/// image structure. Knows nothing about semantics — the experiments use it
/// as the non-learned baseline.
pub fn edge_density_zones(image: &Image, params: &ZoneParams) -> Vec<Candidate> {
    let (w, h) = (image.width(), image.height());
    // Luminance.
    let lum: Grid<f32> = Grid::from_fn(w, h, |x, y| {
        let [r, g, b] = image[(x, y)];
        0.299 * r + 0.587 * g + 0.114 * b
    });
    // Sobel gradient magnitude.
    let grad: Grid<f64> = Grid::from_fn(w, h, |x, y| {
        if x == 0 || y == 0 || x + 1 >= w || y + 1 >= h {
            return 0.0;
        }
        let v = |dx: i64, dy: i64| lum[((x as i64 + dx) as usize, (y as i64 + dy) as usize)] as f64;
        let gx = (v(1, -1) + 2.0 * v(1, 0) + v(1, 1)) - (v(-1, -1) + 2.0 * v(-1, 0) + v(-1, 1));
        let gy = (v(-1, 1) + 2.0 * v(0, 1) + v(1, 1)) - (v(-1, -1) + 2.0 * v(0, -1) + v(1, -1));
        gx.hypot(gy)
    });
    // Mean edge density per window via an integral image.
    let side = (2 * params.zone_half_side + 1) as usize;
    if side > w || side > h {
        return Vec::new();
    }
    let mut integral = vec![0.0f64; (w + 1) * (h + 1)];
    for y in 0..h {
        for x in 0..w {
            integral[(y + 1) * (w + 1) + (x + 1)] =
                grad[(x, y)] + integral[y * (w + 1) + (x + 1)] + integral[(y + 1) * (w + 1) + x]
                    - integral[y * (w + 1) + x];
        }
    }
    let window_sum = |x0: usize, y0: usize| {
        integral[(y0 + side) * (w + 1) + (x0 + side)]
            - integral[y0 * (w + 1) + (x0 + side)]
            - integral[(y0 + side) * (w + 1) + x0]
            + integral[y0 * (w + 1) + x0]
    };
    // Rank all window origins by density, pick greedily non-overlapping.
    let mut origins: Vec<(f64, usize, usize)> = Vec::new();
    for y0 in (0..=h - side).step_by(2) {
        for x0 in (0..=w - side).step_by(2) {
            origins.push((window_sum(x0, y0), x0, y0));
        }
    }
    // `total_cmp`, not `partial_cmp(..).unwrap()`: a NaN density (e.g.
    // from a NaN pixel in a corrupted frame) must rank deterministically
    // under IEEE total order, never abort the pipeline mid-flight.
    origins.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut picked: Vec<Candidate> = Vec::new();
    for (density, x0, y0) in origins {
        if picked.len() >= params.max_candidates {
            break;
        }
        let rect = el_geom::Rect::new(x0 as i64, y0 as i64, side as i64, side as i64);
        if picked.iter().any(|c| c.rect.intersects(rect)) {
            continue;
        }
        picked.push(Candidate {
            center: rect.center(),
            rect,
            clearance_px: 0.0,
            region_area: side * side,
            score: -density,
        });
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitorlink::crop_for_monitor;
    use crate::zone::propose_zones;
    use el_geom::SemanticClass;
    use el_scene::{Conditions, Scene, SceneParams};
    use el_seg::{MsdNetConfig, TileConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn pipeline() -> ElPipeline {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        ElPipeline::try_new(net, PipelineConfig::fast_test()).expect("valid test config")
    }

    fn test_image(seed: u64) -> Image {
        Scene::generate(&SceneParams::small(), seed).render(&Conditions::nominal(), seed)
    }

    #[test]
    fn run_is_deterministic() {
        let mut p = pipeline();
        let img = test_image(1);
        let a = p.run(&img, 5);
        let b = p.run(&img, 5);
        assert_eq!(a.decision, b.decision);
        assert_eq!(a.trials, b.trials);
    }

    #[test]
    fn trials_respect_budget() {
        let mut p = pipeline();
        let img = test_image(2);
        let out = p.run(&img, 1);
        assert!(out.trials.len() <= p.config().decision.max_trials);
        match &out.decision {
            FinalDecision::Land(c) => {
                assert_eq!(out.trials.last().unwrap().verdict, Verdict::Confirmed);
                assert_eq!(out.trials.last().unwrap().candidate, *c);
            }
            FinalDecision::Abort(_) => {
                assert!(out.trials.iter().all(|t| t.verdict == Verdict::Rejected));
            }
        }
    }

    #[test]
    fn batched_run_matches_sequential_verification() {
        // The propose-all-then-verify-batch rewiring must reproduce the
        // sequential per-candidate loop bit for bit: same candidates in
        // trial order, same per-trial seed chain, same verdicts and
        // warning fractions.
        let mut p = pipeline();
        let img = test_image(6);
        let seed = 9u64;
        let out = p.run(&img, seed);
        let candidates = propose_zones(&out.predicted, &p.config().zone);
        let monitor = Monitor::new(p.config().monitor);
        let margin = p.config().monitor_margin_px;
        assert!(!out.trials.is_empty() || candidates.is_empty());
        for (i, trial) in out.trials.iter().enumerate() {
            assert_eq!(trial.candidate, candidates[i], "trial order diverged");
            let crop = crop_for_monitor(&trial.candidate, margin, &img);
            let trial_seed = el_monitor::batch_seed(seed, i);
            let report = monitor.verify(p.net_mut(), &crop, trial_seed);
            assert_eq!(report.verdict, trial.verdict);
            assert_eq!(report.warning_fraction, trial.warning_fraction);
        }
    }

    #[test]
    fn replay_aborts_when_reports_run_short() {
        // Regression for the latent `reports[tried]` out-of-bounds panic:
        // when the decision module issues more `TryNext`s than crops were
        // verified (here: three candidates and a trial budget of three,
        // but only ONE precomputed report), the replay must abort — an
        // unverifiable candidate is never landed on — instead of
        // panicking.
        use el_geom::{Point, Rect};
        let candidate = |id: i64| Candidate {
            center: Point::new(id, id),
            rect: Rect::centered_square(Point::new(id, id), 3),
            clearance_px: 5.0,
            region_area: 50,
            score: 1.0,
        };
        let rejected = el_monitor::MonitorReport {
            warning_map: Grid::new(4, 4, true),
            warning_fraction: 1.0,
            verdict: Verdict::Rejected,
            stats: el_monitor::BayesStats {
                mean: el_nn::Tensor::zeros(8, 4, 4),
                std: el_nn::Tensor::zeros(8, 4, 4),
                samples: 1,
            },
        };
        let (decision, trials) = super::replay_decisions(
            DecisionConfig { max_trials: 3 },
            true,
            (0..3).map(candidate).collect(),
            &[rejected],
        );
        assert_eq!(
            decision,
            FinalDecision::Abort(AbortReason::TrialBudgetExhausted)
        );
        // Exactly the verified candidate was tried; nothing was invented
        // for the unverified ones.
        assert_eq!(trials.len(), 1);
        assert_eq!(trials[0].verdict, Verdict::Rejected);
    }

    #[test]
    fn audit_disabled_yields_none_enabled_attaches_report() {
        let mut p = pipeline();
        let img = test_image(7);
        let out = p.run(&img, 3);
        assert!(out.audit.is_none(), "audit is off by default");

        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let config = PipelineConfig::fast_test().with_audit(crate::audit::AuditConfig::fast_test());
        let mut p = ElPipeline::try_new(net, config).expect("valid test config");
        let out = p.run(&img, 3);
        let audit = out.audit.expect("audit enabled");
        // The effectively unlimited test budget audits the whole frame.
        assert!(audit.is_complete());
        assert!((audit.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(audit.tile_stats.len(), audit.tiles_verified());
        assert!(audit.warning_fraction >= 0.0 && audit.warning_fraction <= 1.0);
    }

    #[test]
    fn unmonitored_accepts_first_candidate() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let mut p = ElPipeline::try_new(net, PipelineConfig::fast_test().unmonitored())
            .expect("valid test config");
        let img = test_image(3);
        let out = p.run(&img, 1);
        // Either no candidates at all, or the first is accepted untested.
        match out.decision {
            FinalDecision::Land(_) => assert_eq!(out.trials.len(), 1),
            FinalDecision::Abort(r) => assert_eq!(r, AbortReason::NoCandidates),
        }
    }

    #[test]
    fn edge_density_prefers_flat_areas() {
        // Left half: heavy texture; right half: flat.
        let img: Image = Grid::from_fn(64, 32, |x, y| {
            if x < 32 {
                let v = ((x * 7919 + y * 104729) % 97) as f32 / 97.0;
                [v, v, v]
            } else {
                [0.5, 0.5, 0.5]
            }
        });
        let zones = edge_density_zones(&img, &ZoneParams::small());
        assert!(!zones.is_empty());
        assert!(
            zones[0].center.x >= 32,
            "flat half should win, got {}",
            zones[0].center
        );
    }

    #[test]
    fn edge_density_zones_do_not_overlap() {
        let img = test_image(4);
        let zones = edge_density_zones(&img, &ZoneParams::small());
        for i in 0..zones.len() {
            for j in (i + 1)..zones.len() {
                assert!(!zones[i].rect.intersects(zones[j].rect));
            }
        }
    }

    #[test]
    fn try_new_reports_actionable_config_errors() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let mut config = PipelineConfig::fast_test();
        config.monitor.samples = 0;
        let err = ElPipeline::try_new(net, config).expect_err("zero samples must be rejected");
        // The message names the subsystem and the offending constraint.
        assert_eq!(
            err.to_string(),
            "invalid pipeline configuration: samples must be positive"
        );
        assert_eq!(err.detail(), "samples must be positive");

        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let mut config = PipelineConfig::fast_test();
        config.monitor_margin_px = -1;
        let err = ElPipeline::try_new(net, config).expect_err("negative margin must be rejected");
        assert!(
            err.to_string().contains("monitor_margin_px"),
            "message should name the field, got: {err}"
        );

        // A zone half-side whose 2·h + 1 overflows is a config error, not
        // a panic (debug) or an empty zone (release) in the zone search.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let mut config = PipelineConfig::fast_test();
        config.zone.zone_half_side = i64::MAX / 2 + 1;
        let err = ElPipeline::try_new(net, config).expect_err("overflowing zone side");
        assert!(
            err.detail().contains("zone_half_side"),
            "message should name the field, got: {err}"
        );
    }

    #[test]
    fn nets_the_pipeline_cannot_run_are_rejected() {
        // Both configurations pass `MsdNetConfig::validate` (and load
        // through `MsdNet::from_json`), but the first frame would panic
        // in the core segmentation or the first branch convolution.
        let build = |edit: fn(&mut MsdNetConfig)| {
            let mut cfg = MsdNetConfig::tiny();
            edit(&mut cfg);
            assert!(cfg.validate().is_ok());
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            MsdNet::from_json(&MsdNet::new(&cfg, &mut rng).to_json()).expect("loadable")
        };
        let four_classes = build(|c| c.classes = 4);
        let err = ElPipeline::try_new(four_classes, PipelineConfig::fast_test())
            .expect_err("a 4-class net cannot feed the 8-class pipeline");
        assert_eq!(
            err.detail(),
            "network has 4 output classes, expected 8 (one per semantic class)"
        );
        let four_channels = build(|c| c.in_channels = 4);
        let err = ElPipeline::try_new(four_channels, PipelineConfig::fast_test())
            .expect_err("a 4-channel net cannot take RGB frames");
        assert_eq!(
            err.detail(),
            "network has 4 input channels, expected 3 (RGB)"
        );
        assert!(ElPipeline::try_new(build(|_| {}), PipelineConfig::fast_test()).is_ok());
    }

    #[test]
    fn audit_margin_below_receptive_radius_is_rejected() {
        // The paper net's dilation-4 branches have receptive radius 4; a
        // 1 px margin must fail construction rather than panic on the
        // first audited frame.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let uavid = MsdNet::new(&MsdNetConfig::default_uavid(), &mut rng);
        assert_eq!(uavid.receptive_radius(), 4);
        let config = PipelineConfig::fast_test().with_audit(AuditConfig {
            margin: 1,
            ..AuditConfig::paper_scale()
        });
        let err = ElPipeline::try_new(uavid.clone(), config).expect_err("margin below radius");
        assert_eq!(
            err.detail(),
            "audit margin 1 is below the network's receptive radius 4"
        );
        let at_radius = PipelineConfig::fast_test().with_audit(AuditConfig {
            margin: 4,
            ..AuditConfig::paper_scale()
        });
        assert!(ElPipeline::try_new(uavid, at_radius).is_ok());
        // The test fixture (margin 4) on the tiny net (radius 2) stays
        // valid.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let tiny = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        assert_eq!(tiny.receptive_radius(), 2);
        let config = PipelineConfig::fast_test().with_audit(AuditConfig::fast_test());
        assert!(ElPipeline::try_new(tiny, config).is_ok());
    }

    #[test]
    fn huge_tile_margins_are_rejected_without_overflow() {
        // Margins whose double overflows `usize` must be rejected, not
        // wrapped into a value that passes validation.
        for margin in [usize::MAX / 2 + 1, usize::MAX] {
            let tile = TileConfig { tile: 128, margin };
            assert!(tile.validate().is_err(), "tile margin {margin}");
            let audit = AuditConfig {
                margin,
                ..AuditConfig::paper_scale()
            };
            assert!(audit.validate().is_err(), "audit margin {margin}");
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
            let config = PipelineConfig::fast_test().with_audit(audit);
            let err = ElPipeline::try_new(net, config).expect_err("huge margin");
            assert!(err.detail().contains("margin"), "got: {err}");
        }
        // The boundary itself: 2·margin < tile.
        assert!(TileConfig { tile: 9, margin: 4 }.validate().is_ok());
        assert!(TileConfig { tile: 8, margin: 4 }.validate().is_err());
    }

    #[test]
    fn edge_density_survives_nan_pixels() {
        // Regression: the density sort used `partial_cmp(..).unwrap()`,
        // so one NaN pixel anywhere in the frame aborted the whole
        // pipeline. With `total_cmp` the NaN-contaminated windows rank
        // deterministically and the clean windows still come out. The
        // NaN sits near the frame corner so the integral image (a
        // running prefix sum, which spreads NaN down and right) leaves
        // clean windows elsewhere.
        let img: Image = Grid::from_fn(64, 32, |x, y| {
            if x == 62 && y == 30 {
                [f32::NAN, f32::NAN, f32::NAN]
            } else {
                [0.5, 0.5, 0.5]
            }
        });
        let zones = edge_density_zones(&img, &ZoneParams::small());
        assert!(!zones.is_empty(), "NaN pixel must not wipe out proposals");
        // At least one proposal comes from uncontaminated ground.
        assert!(
            zones.iter().any(|z| z.score.is_finite()),
            "expected a finite-density zone, got {:?}",
            zones.iter().map(|z| z.score).collect::<Vec<_>>()
        );
    }

    #[test]
    fn edge_density_on_tiny_image_is_empty() {
        let img: Image = Grid::new(4, 4, [0.0; 3]);
        let mut params = ZoneParams::small();
        params.zone_half_side = 8;
        assert!(edge_density_zones(&img, &params).is_empty());
    }

    #[test]
    fn predicted_map_exposed() {
        let mut p = pipeline();
        let img = test_image(5);
        let out = p.run(&img, 1);
        assert_eq!(out.predicted.width(), img.width());
        // The prediction uses real classes.
        assert!(out.predicted.iter().all(|c| SemanticClass::ALL.contains(c)));
    }
}
