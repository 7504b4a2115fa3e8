//! Experiment F1: the Figure 1 safety-switch architecture under
//! Monte-Carlo failure injection — the simulator's cost per mission.
//!
//! Times one MEDI DELIVERY mission and one failure-stream draw. The
//! campaign tables themselves (the maneuver-engagement distribution and
//! the with/without-EL outcome comparison) are printed by
//! `cargo run --release --example failure_campaign`.

use criterion::{criterion_group, criterion_main, Criterion};
use el_scene::SceneParams;
use el_uavsim::{FailureRates, Mission, MissionConfig, PerfectEl, Wind};
use std::hint::black_box;

fn mission_config() -> MissionConfig {
    let mut config = MissionConfig::medi_delivery(1);
    config.scene_params = SceneParams::default_urban();
    config.duration_s = 240.0;
    config.view_radius_m = 80.0;
    config.wind = Wind {
        mean_speed_mps: 1.5,
        direction_rad: 0.7,
        gust_std_mps: 0.5,
    };
    config
}

fn bench(c: &mut Criterion) {
    let mission = Mission::new(mission_config());
    // The drift-model clearance at 1.5 m/s (see examples/failure_campaign).
    let mut el = PerfectEl { clearance_m: 16.2 };
    let mut seed = 0u64;
    c.bench_function("uavsim/single_mission", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(mission.run(&mut el, seed))
        })
    });
    let mut rates_rng = 0u64;
    c.bench_function("uavsim/failure_sampling", |b| {
        use rand::SeedableRng;
        b.iter(|| {
            rates_rng = rates_rng.wrapping_add(1);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(rates_rng);
            let injector = el_uavsim::FailureInjector::new(FailureRates::stress());
            black_box(injector.sample_events(600.0, &mut rng))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
