//! Experiment P3: the audit subsystem's performance profile.
//!
//! **Whole-frame audit cost**: what a given latency budget buys the
//! post-decision sweep on top of an `ElPipeline` run — coverage per
//! budget, and the decision path's latency with the audit on vs off (the
//! decision itself must not get slower; the audit only spends the
//! leftover budget).

use criterion::{criterion_group, criterion_main, Criterion};
use el_bench::trained_model;
use el_core::{AuditConfig, ElPipeline, PipelineConfig};
use el_scene::{Conditions, Scene, SceneParams};
use std::hint::black_box;
use std::time::Instant;

fn frame(side: usize, seed: u64) -> el_scene::Image {
    let mut params = SceneParams::default_urban();
    params.width = side;
    params.height = side;
    Scene::generate(&params, seed).render(&Conditions::nominal(), seed)
}

fn print_audit_budget_profile() {
    let net = trained_model();
    eprintln!(
        "\n===== P3b: whole-frame audit — what a budget buys (128 px tiles, 5 samples) ====="
    );
    let img = frame(256, 17);
    // Decision latency, audit off.
    let mut plain =
        ElPipeline::try_new(net.clone(), PipelineConfig::benchmark()).expect("valid config");
    let _ = plain.run(&img, 42); // warm
    let mut decision_s = f64::INFINITY;
    for r in 0..5u64 {
        let t0 = Instant::now();
        black_box(plain.run(&img, 42 + r));
        decision_s = decision_s.min(t0.elapsed().as_secs_f64());
    }
    // Unlimited budget: the full sweep cost on top of the decision.
    let full_cfg = PipelineConfig::benchmark().with_audit(AuditConfig {
        budget_s: 1e9,
        ..AuditConfig::paper_scale()
    });
    let mut audited = ElPipeline::try_new(net.clone(), full_cfg).expect("valid config");
    let _ = audited.run(&img, 42);
    let t0 = Instant::now();
    let full = audited.run(&img, 42);
    let full_s = t0.elapsed().as_secs_f64();
    let report = full.audit.expect("audit enabled");
    assert!(report.is_complete());
    eprintln!(
        "decision only: {:.1} ms | decision + complete audit ({} tiles): {:.1} ms",
        decision_s * 1e3,
        report.tiles_total(),
        full_s * 1e3
    );
    eprintln!(
        "{:>12} {:>10} {:>10} {:>10}",
        "budget (ms)", "tiles", "coverage", "regions"
    );
    for frac in [0.25f64, 0.5, 1.0] {
        let budget = decision_s + (full_s - decision_s) * frac;
        let cfg = PipelineConfig::benchmark().with_audit(AuditConfig {
            budget_s: budget,
            ..AuditConfig::paper_scale()
        });
        let mut p = ElPipeline::try_new(net.clone(), cfg).expect("valid config");
        let out = p.run(&img, 42);
        let audit = out.audit.expect("audit enabled");
        eprintln!(
            "{:>12.1} {:>6}/{:<3} {:>9.0}% {:>10}",
            budget * 1e3,
            audit.tiles_verified(),
            audit.tiles_total(),
            audit.coverage() * 100.0,
            audit.regions.len()
        );
    }
}

fn bench(_c: &mut Criterion) {
    print_audit_budget_profile();
}

criterion_group!(benches, bench);
criterion_main!(benches);
