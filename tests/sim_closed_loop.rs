//! Integration: the real Figure 2 pipeline mounted in the Figure 1
//! safety-switch simulator (closed loop), plus cross-policy campaign
//! comparisons.

use std::sync::atomic::{AtomicUsize, Ordering};

use certel::el_uavsim::scenario::WindSpec;
use certel::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod common;
use common::with_thread_count;

/// A tiny MSDnet, briefly trained so the adapter's decisions are
/// meaningful.
fn trained_net() -> MsdNet {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
    let mut cfg = DatasetConfig::small(5);
    cfg.n_train = 4;
    let dataset = Dataset::generate(&cfg);
    Trainer::new(TrainConfig {
        steps: 250,
        tile: 32,
        lr: 3e-3,
        class_weighted: true,
        augment: false,
        seed: 3,
    })
    .train(&mut net, &dataset);
    net
}

/// The Figure 2 pipeline around `net`, mounted as an EL system.
fn pipeline_el(net: MsdNet, conditions: Conditions) -> PipelineElSystem {
    let mut pcfg = PipelineConfig::fast_test();
    pcfg.monitor.samples = 4;
    pcfg.monitor.max_warning_fraction = 0.35;
    PipelineElSystem::new(
        ElPipeline::try_new(net, pcfg).expect("valid config"),
        conditions,
    )
}

/// A fast-profile campaign whose only failure is lost navigation (90 per
/// flight hour), so EL is engaged in most missions.
fn lost_navigation_campaign(missions: usize) -> Scenario {
    Scenario::from_json(&format!(
        r#"{{
            "name": "lost-navigation",
            "missions": {missions},
            "base_seed": 11,
            "mission": {{
                "profile": "SmallTest",
                "rates": {{ "base": "Zero", "lost_navigation": 90.0 }}
            }}
        }}"#
    ))
    .expect("valid scenario")
}

#[test]
fn pipeline_el_flies_closed_loop() {
    let mut cfg = MissionConfig::small_test();
    cfg.rates = FailureRates::none();
    cfg.rates.lost_navigation = 120.0;
    let mission = Mission::new(cfg);
    let mut el = pipeline_el(trained_net(), Conditions::nominal());
    let outcome = mission.run(&mut el, 4);
    // Navigation was lost, so the mission must have engaged EL and ended
    // either in a confirmed landing or a termination after abort.
    assert!(outcome.maneuvers.contains(&Maneuver::EmergencyLanding));
    match outcome.terminal {
        TerminalState::LandedEl { .. } | TerminalState::Terminated { .. } => {}
        other => panic!("unexpected terminal state {other:?}"),
    }
}

#[test]
fn closed_loop_is_deterministic() {
    let mut cfg = MissionConfig::small_test();
    cfg.rates.lost_navigation = 60.0;
    let mission = Mission::new(cfg);
    let a = mission.run(&mut pipeline_el(trained_net(), Conditions::nominal()), 8);
    let b = mission.run(&mut pipeline_el(trained_net(), Conditions::nominal()), 8);
    assert_eq!(a, b);
}

#[test]
fn campaign_with_pipeline_el_counts_consistent() {
    let net = trained_net();
    let outcome = lost_navigation_campaign(8)
        .run_with(|| Box::new(pipeline_el(net.clone(), Conditions::nominal())))
        .expect("valid scenario");
    let report = &outcome.report;
    assert_eq!(
        report.completed + report.returned_to_base + report.landed_el + report.terminated,
        report.missions
    );
    // Every mission that neither completed nor RTB'd must have engaged EL
    // (installed) before any termination.
    assert!(report.maneuver_engagements[Maneuver::EmergencyLanding as usize] > 0);
    assert_eq!(outcome.logs.len(), report.missions);
}

#[test]
fn pipeline_el_campaign_is_bit_identical_across_thread_counts() {
    // An untrained tiny net: the decisions need not be good, only
    // reproducible.
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
    let scenario = lost_navigation_campaign(6);
    let run = |threads: usize| {
        let built = AtomicUsize::new(0);
        let outcome = with_thread_count(threads, || {
            scenario.run_with(|| {
                built.fetch_add(1, Ordering::Relaxed);
                Box::new(pipeline_el(net.clone(), Conditions::nominal()))
            })
        })
        .expect("valid scenario");
        assert_eq!(
            built.into_inner(),
            scenario.missions,
            "one EL system per mission at {threads} threads"
        );
        outcome
    };
    let one = run(1);
    assert!(
        one.report.maneuver_engagements[Maneuver::EmergencyLanding as usize] > 0,
        "the pipeline must actually be asked to land"
    );
    for threads in [2, 8] {
        let many = run(threads);
        assert_eq!(one, many, "outcome diverges at {threads} threads");
        assert_eq!(
            one.fingerprint(),
            many.fingerprint(),
            "fingerprint diverges at {threads} threads"
        );
    }
}

#[test]
fn perfect_el_dominates_no_el_on_catastrophics() {
    // Statistical safety ordering across 40 missions.
    let mut with_el = lost_navigation_campaign(40);
    with_el.mission.wind = Some(WindSpec::Custom {
        mean_speed_mps: 1.0,
        direction_rad: 0.3,
        gust_std_mps: 0.3,
    });
    let mut without_el = with_el.clone();
    with_el.el = Some(ElPolicy::Perfect { clearance_m: 10.0 });
    without_el.el = Some(ElPolicy::NoEl);
    without_el.mission.el_installed = Some(false);
    let with_el = with_el.run().expect("valid scenario").report;
    let without_el = without_el.run().expect("valid scenario").report;
    assert!(with_el.catastrophic_fraction() <= without_el.catastrophic_fraction());
    assert!(with_el.landed_el > 0);
    assert_eq!(without_el.landed_el, 0);
}

#[test]
fn sensor_fault_injection_composes_with_adapter() {
    // Faulted imagery flows end to end: build a scene, wash out a strip,
    // and make sure the adapter still produces a decision (not a panic).
    use el_geom::Rect;
    use el_scene::{apply_fault, SensorFault};
    let scene = Scene::generate(&SceneParams::small(), 12);
    let mut image = scene.render(&Conditions::nominal(), 1);
    apply_fault(
        &mut image,
        Rect::new(10, 10, 60, 30),
        SensorFault::Fog { strength: 0.9 },
        4,
    );
    let mut el = pipeline_el(trained_net(), Conditions::nominal());
    // Run the inner pipeline directly on the faulted frame.
    let outcome = el.pipeline_mut().run(&image, 77);
    match outcome.decision {
        FinalDecision::Land(_) | FinalDecision::Abort(_) => {}
    }
}
