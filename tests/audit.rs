//! Integration properties of the whole-frame audit mode.
//!
//! These tests pin the audit PR's headline guarantees **through the
//! pipeline entry point** (not just the standalone sweep):
//!
//! 1. **Strictly advisory**: `ElOutcome.decision` and `.trials` with the
//!    audit on are bit-identical to the audit off, for random frames and
//!    seeds — the audit runs after the decision is fixed and never feeds
//!    back into it.
//! 2. **Budget semantics under a fake clock**: the report is well-formed
//!    at every budget including zero, coverage is monotone in the
//!    budget, and candidate-zone tiles are audited first.
//! 3. **Exactness**: an unexpired budget reproduces the untiled
//!    [`bayesian_segment`] statistics bit for bit at the audit's derived
//!    seed ([`audit_seed`]).
//!
//! As in `tests/properties.rs`, properties run as seeded-RNG loops
//! (no proptest in the build environment).

use certel::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod common;
use common::expected_admitted;

fn tiny_net(seed: u64) -> MsdNet {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    MsdNet::new(&MsdNetConfig::tiny(), &mut r)
}

fn scene_image(seed: u64, w: usize, h: usize) -> certel::el_scene::Image {
    let mut p = SceneParams::small();
    p.width = w;
    p.height = h;
    Scene::generate(&p, seed).render(&Conditions::nominal(), seed)
}

fn audited_config() -> PipelineConfig {
    PipelineConfig::fast_test().with_audit(AuditConfig::fast_test())
}

/// Audit on vs audit off: the landing decision and every trial are
/// bit-identical across random frames and seeds — the audit is strictly
/// advisory.
#[test]
fn audit_never_changes_the_decision() {
    let mut r = ChaCha8Rng::seed_from_u64(0xA0D1);
    for case in 0..4u64 {
        let image = scene_image(60 + case, 56, 48);
        let seed = r.gen::<u64>();
        let mut plain =
            ElPipeline::try_new(tiny_net(case), PipelineConfig::fast_test()).expect("valid config");
        let mut audited =
            ElPipeline::try_new(tiny_net(case), audited_config()).expect("valid config");
        let a = plain.run(&image, seed);
        let b = audited.run(&image, seed);
        assert_eq!(a.decision, b.decision, "case {case}: decision diverged");
        assert_eq!(a.trials, b.trials, "case {case}: trials diverged");
        assert_eq!(a.predicted, b.predicted);
        assert!(a.audit.is_none());
        let audit = b.audit.expect("audit enabled");
        assert!(audit.is_complete(), "test budget must not expire");
    }
}

/// The report is well-formed at every budget from zero to complete under
/// a deterministic fake clock (admitted counts following the predictive
/// admission policy exactly — see [`expected_admitted`]), coverage and
/// the covered mask are monotone in the budget, and the decision stays
/// bit-identical to the audit-off pipeline throughout.
#[test]
fn audit_budget_semantics_under_fake_clock() {
    let image = scene_image(9, 60, 48);
    let seed = 21u64;
    let baseline = ElPipeline::try_new(tiny_net(7), PipelineConfig::fast_test())
        .expect("valid config")
        .run(&image, seed);

    // Discover the plan size with an unexpired budget.
    let full = ElPipeline::try_new(tiny_net(7), audited_config())
        .expect("valid config")
        .run(&image, seed)
        .audit
        .expect("audit enabled");
    assert!(full.is_complete());
    let tiles_total = full.tiles_total();
    assert!(tiles_total > 1, "frame must tile into several audit tiles");

    let mut prev_covered: Option<Grid<bool>> = None;
    let mut prev_coverage = -1.0f64;
    let mut seen_complete = false;
    // Predictive admission trades roughly one tile of the old
    // one-per-tick schedule for its overrun guarantee, so budgets up to
    // tiles_total + 1 are needed to reach completeness.
    for budget in 0..=tiles_total + 1 {
        let budget_s = (budget as f64 - 0.5).max(0.0);
        let expected = expected_admitted(budget_s, tiles_total);
        let mut config = audited_config();
        config.audit.budget_s = budget_s;
        let mut p = ElPipeline::try_new(tiny_net(7), config).expect("valid config");
        let mut t = -1.0f64;
        let out = p.run_with_audit_clock(&image, seed, move || {
            t += 1.0;
            t
        });
        // The decision path never reads the clock.
        assert_eq!(out.decision, baseline.decision, "budget {budget}");
        assert_eq!(out.trials, baseline.trials, "budget {budget}");
        let audit = out.audit.expect("audit enabled");
        assert_eq!(
            audit.tiles_verified(),
            expected,
            "budget {budget}: admitted tiles must follow the predictive policy"
        );
        assert!(
            audit.tiles_verified() <= budget,
            "prediction never admits more than the old one-per-tick policy"
        );
        seen_complete |= audit.is_complete();
        assert_eq!(audit.tiles_total(), tiles_total);
        assert_eq!(audit.tile_stats.len(), expected);
        // Well-formed at every truncation: finite statistics, fractions
        // in range, regions within the frame and at least the configured
        // size.
        assert!(audit.coverage() >= 0.0 && audit.coverage() <= 1.0);
        assert!(audit.warning_fraction >= 0.0 && audit.warning_fraction <= 1.0);
        assert!(audit
            .tiled
            .stats
            .mean
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
        assert!(audit
            .tiled
            .stats
            .std
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
        let bounds = Rect::new(0, 0, image.width() as i64, image.height() as i64);
        for region in &audit.regions {
            assert!(bounds.contains_rect(region.bbox));
            assert!(region.area >= p.config().audit.min_region_px);
            assert!(region.mean_sigma.is_finite() && region.mean_sigma >= 0.0);
        }
        for ts in &audit.tile_stats {
            assert!(bounds.contains_rect(ts.rect));
            assert!(ts.warning_fraction >= 0.0 && ts.warning_fraction <= 1.0);
        }
        // Monotone coverage: every pixel covered at budget b stays
        // covered at b+1, and the audited values are the exact full-frame
        // values.
        assert!(
            audit.coverage() >= prev_coverage,
            "coverage must be monotone"
        );
        prev_coverage = audit.coverage();
        if let Some(prev) = &prev_covered {
            for (a, b) in prev.iter().zip(audit.tiled.covered.iter()) {
                assert!(!a || *b, "covered mask must be monotone in the budget");
            }
        }
        for (i, (&v, &c)) in full
            .tiled
            .stats
            .std
            .as_slice()
            .iter()
            .zip(audit.tiled.stats.std.as_slice())
            .enumerate()
        {
            // Zero outside coverage is checked via the sweep tests; here
            // we check audited values match the complete sweep exactly.
            let hw = image.width() * image.height();
            let (x, y) = ((i % hw) % image.width(), (i % hw) / image.width());
            if audit.tiled.covered[(x, y)] {
                assert_eq!(v, c, "audited σ diverges from the complete sweep");
            }
        }
        prev_covered = Some(audit.tiled.covered.clone());
    }
    assert!(seen_complete, "the largest budget must complete the sweep");
}

/// Zero budget: the audit attaches an empty but well-formed report and
/// the decision is untouched.
#[test]
fn zero_budget_audit_is_empty_but_wellformed() {
    let image = scene_image(31, 48, 40);
    let mut config = audited_config();
    config.audit.budget_s = 0.0;
    let mut p = ElPipeline::try_new(tiny_net(3), config).expect("valid config");
    let out = p.run_with_audit_clock(&image, 5, || 1.0);
    let audit = out.audit.expect("audit enabled");
    assert_eq!(audit.tiles_verified(), 0);
    assert_eq!(audit.coverage(), 0.0);
    assert_eq!(audit.warning_fraction, 0.0);
    assert!(audit.tile_stats.is_empty());
    assert!(audit.regions.is_empty());
    assert!(audit.tiled.stats.mean.as_slice().iter().all(|&v| v == 0.0));
    let baseline = ElPipeline::try_new(tiny_net(3), PipelineConfig::fast_test())
        .expect("valid config")
        .run(&image, 5);
    assert_eq!(out.decision, baseline.decision);
    assert_eq!(out.trials, baseline.trials);
}

/// An unexpired budget reproduces the untiled whole-frame Bayesian pass
/// bit for bit through the pipeline entry point, at the audit's derived
/// seed.
#[test]
fn unexpired_audit_equals_untiled_bayesian_segment() {
    let net = tiny_net(11);
    let reference_net = net.clone();
    let image = scene_image(13, 52, 44);
    let seed = 77u64;
    let mut p = ElPipeline::try_new(net, audited_config()).expect("valid config");
    let samples = p.config().audit.samples;
    let audit = p.run(&image, seed).audit.expect("audit enabled");
    assert!(audit.is_complete());
    assert!(audit.tiled.covered.iter().all(|&c| c));
    let whole = bayesian_segment(&reference_net, &image, samples, audit_seed(seed));
    assert_eq!(
        audit.tiled.stats.mean.as_slice(),
        whole.mean.as_slice(),
        "audit mean diverges from the untiled pass"
    );
    assert_eq!(
        audit.tiled.stats.std.as_slice(),
        whole.std.as_slice(),
        "audit std diverges from the untiled pass"
    );
}

/// A budget-truncated sweep is an exact prefix of the complete one on a
/// plan with a trimmed middle keep (64 px frame, 32 px tiles, 4 px
/// margin: the middle tile on each axis keeps 8 of its 32 px, as the
/// paper-scale plan's keeps 16 of 128). For every admitted count `k`
/// under a fake clock, each covered pixel carries the untiled pass's
/// mean and σ bit for bit, every uncovered pixel is zero, and the
/// report's per-tile statistics are the first `k` of the complete
/// report's.
#[test]
fn truncated_audit_is_an_exact_prefix_of_the_complete_sweep() {
    use certel::el_core::run_audit_with_clock;
    let net = tiny_net(5);
    let image = scene_image(17, 64, 64);
    let seed = 303u64;
    let rule = MonitorRule::default();
    let mut config = AuditConfig::fast_test();
    config.tile = 32;
    config.margin = 4;
    let complete = run_audit_with_clock(&net, &image, &config, &rule, seed, &[], || 0.0);
    assert!(complete.is_complete());
    let tiles_total = complete.tiles_total();
    assert_eq!(tiles_total, 9);
    let middle = complete.tiled.tiles[4].keep_rect();
    assert_eq!((middle.w, middle.h), (8, 8), "plan lost its trimmed keep");
    let whole = bayesian_segment(&net, &image, config.samples, audit_seed(seed));
    let hw = image.width() * image.height();
    let mut admitted = Vec::new();
    for budget in 0..=tiles_total + 1 {
        config.budget_s = (budget as f64 - 0.5).max(0.0);
        let mut t = -1.0f64;
        let out = run_audit_with_clock(&net, &image, &config, &rule, seed, &[], move || {
            t += 1.0;
            t
        });
        let k = out.tiles_verified();
        assert_eq!(k, expected_admitted(config.budget_s, tiles_total));
        assert_eq!(out.tile_stats, complete.tile_stats[..k], "budget {budget}");
        for (i, ((&m, &s), (&wm, &ws))) in out
            .tiled
            .stats
            .mean
            .as_slice()
            .iter()
            .zip(out.tiled.stats.std.as_slice())
            .zip(whole.mean.as_slice().iter().zip(whole.std.as_slice()))
            .enumerate()
        {
            let p = i % hw;
            if out.tiled.covered[(p % image.width(), p / image.width())] {
                assert_eq!(
                    (m.to_bits(), s.to_bits()),
                    (wm.to_bits(), ws.to_bits()),
                    "budget {budget}: covered pixel diverges from the untiled pass"
                );
            } else {
                assert_eq!((m, s), (0.0, 0.0), "budget {budget}: uncovered pixel set");
            }
        }
        admitted.push(k);
    }
    assert!(
        (1..tiles_total).all(|k| admitted.contains(&k)),
        "budgets must stop the sweep after every tile: {admitted:?}"
    );
}

/// Candidate zones steer the audit: under a tight budget the first
/// audited tile covers a candidate's rectangle whenever candidates
/// exist.
#[test]
fn candidate_tiles_audited_first_under_tight_budget() {
    let mut with_candidates = 0usize;
    for case in 0..4u64 {
        let image = scene_image(40 + case, 64, 56);
        let mut config = audited_config();
        config.audit.budget_s = 0.5; // fake clock admits exactly one tile
        let mut p = ElPipeline::try_new(tiny_net(case), config).expect("valid config");
        let mut t = -1.0f64;
        let out = p.run_with_audit_clock(&image, 8 + case, move || {
            t += 1.0;
            t
        });
        let candidates = propose_zones(&out.predicted, &p.config().zone);
        let audit = out.audit.expect("audit enabled");
        assert_eq!(audit.tiles_verified(), 1);
        if candidates.is_empty() {
            continue;
        }
        with_candidates += 1;
        let first = &audit.tile_stats[0];
        assert!(
            candidates.iter().any(|c| first.rect.intersects(c.rect)),
            "case {case}: first audited tile misses every candidate zone"
        );
    }
    assert!(
        with_candidates > 0,
        "at least one case must propose candidates"
    );
}

/// Degenerate frames — empty, a single pixel, one row, all-NaN — never
/// panic, through the solo pipeline (audit on and off) or the service.
/// None can hold a verified landing zone, so each aborts. The audit
/// report stays attached iff the audit is enabled; an empty frame's
/// report plans zero tiles. The service rejects the empty and the
/// all-NaN frame at `submit` and processes the rest.
#[test]
fn degenerate_frames_abort_without_panic() {
    use certel::el_core::decision::AbortReason;
    use certel::el_geom::Grid;
    use certel::el_serve::{ElService, FrameRequest, ServeConfig, ServeError};
    let frames: Vec<(&str, certel::el_scene::Image)> = vec![
        ("0x0", Grid::new(0, 0, [0.5; 3])),
        ("1x1", Grid::new(1, 1, [0.5; 3])),
        ("40x1", Grid::new(40, 1, [0.5; 3])),
        ("nan", Grid::new(32, 32, [f32::NAN; 3])),
    ];
    let mut r = ChaCha8Rng::seed_from_u64(0xDE6E);
    for audit in [false, true] {
        let config = if audit {
            audited_config()
        } else {
            PipelineConfig::fast_test()
        };
        let mut pipeline = ElPipeline::try_new(tiny_net(3), config.clone()).expect("valid config");
        for (name, image) in &frames {
            let out = pipeline.run(image, r.gen());
            assert!(
                !out.decision.is_land(),
                "{name}: landed on a degenerate frame"
            );
            if *name != "nan" {
                assert_eq!(
                    out.decision,
                    FinalDecision::Abort(AbortReason::NoCandidates),
                    "{name}"
                );
            }
            assert_eq!(out.audit.is_some(), audit, "{name}: audit presence");
            if image.width() == 0 {
                let report = out.audit.as_ref().map_or(0, |a| a.tiles_total());
                assert_eq!(report, 0, "{name}: an empty frame plans no tiles");
            }
        }

        let serve = ServeConfig {
            pipeline: config,
            ..ServeConfig::fast_test()
        };
        let mut service =
            ElService::try_new(std::sync::Arc::new(tiny_net(3)), serve).expect("valid config");
        let id = service.open_session(r.gen());
        for (name, image) in &frames {
            let submitted = service.submit(
                id,
                FrameRequest {
                    image: image.clone(),
                    wind_mps: 0.0,
                },
            );
            if image.width() == 0 || *name == "nan" {
                assert!(
                    matches!(submitted, Err(ServeError::InvalidFrame(_))),
                    "{name}: {submitted:?}"
                );
            } else {
                assert_eq!(submitted, Ok(true), "{name}");
                let tick = service.tick();
                assert_eq!((tick.admitted, tick.aborts), (1, 1), "{name}");
            }
        }
    }
}
