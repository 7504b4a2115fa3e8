//! Experiment P3: the audit subsystem's performance profile.
//!
//! Two measurements anchor the audit PR:
//!
//! 1. **Batched deterministic tiling**: `segment_tiled` (tile groups
//!    through the stacked-GEMM engine — one column-stacked im2col GEMM
//!    per branch and one GEMM per 1x1 head for the whole group) versus
//!    `segment_tiled_reference` (one full engine pass per tile). Labels
//!    are bit-identical (asserted here and property-tested in el-seg), so
//!    this is a pure latency comparison.
//! 2. **Whole-frame audit cost**: what a given latency budget buys the
//!    post-decision sweep on top of an `ElPipeline` run — coverage per
//!    budget, and the decision path's latency with the audit on vs off
//!    (the decision itself must not get slower; the audit only spends
//!    the leftover budget).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use el_bench::trained_model;
use el_core::{AuditConfig, ElPipeline, PipelineConfig};
use el_scene::{Conditions, Scene, SceneParams};
use el_seg::{segment_tiled, segment_tiled_reference, TileConfig};
use std::hint::black_box;
use std::time::Instant;

fn frame(side: usize, seed: u64) -> el_scene::Image {
    let mut params = SceneParams::default_urban();
    params.width = side;
    params.height = side;
    Scene::generate(&params, seed).render(&Conditions::nominal(), seed)
}

fn print_tiled_eval_batching() {
    let net = trained_model();
    eprintln!("\n===== P3a: batched vs per-tile deterministic tiling =====");
    eprintln!(
        "{:>6} {:>6} {:>6} {:>15} {:>13} {:>9}",
        "frame", "tile", "tiles", "per-tile (ms)", "batched (ms)", "speedup"
    );
    for (side, tile, margin) in [(192usize, 32usize, 8usize), (256, 48, 8), (384, 64, 8)] {
        let img = frame(side, 31);
        let cfg = TileConfig { tile, margin };
        let tiles = el_seg::plan_tiles(side, side, cfg).len();
        // Bit-identity first: the comparison is meaningless otherwise.
        let a = segment_tiled_reference(&net, &img, cfg);
        let b = segment_tiled(&net, &img, cfg);
        assert_eq!(a, b, "batched tiler diverged from the reference");
        // Interleave and keep each side's best of 7: noise on a shared
        // box hits both alike, minima are the stable estimator.
        let mut per_tile = f64::INFINITY;
        let mut batched = f64::INFINITY;
        for _ in 0..7 {
            let t0 = Instant::now();
            black_box(segment_tiled_reference(&net, &img, cfg));
            per_tile = per_tile.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            black_box(segment_tiled(&net, &img, cfg));
            batched = batched.min(t0.elapsed().as_secs_f64());
        }
        eprintln!(
            "{:>6} {:>6} {:>6} {:>15.2} {:>13.2} {:>8.2}x",
            side,
            tile,
            tiles,
            per_tile * 1e3,
            batched * 1e3,
            per_tile / batched
        );
    }
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

fn bench(c: &mut Criterion) {
    print_tiled_eval_batching();
    print_audit_budget_profile();
    let net = trained_model();
    let mut group = c.benchmark_group("audit");
    group.sample_size(10);
    let img = frame(256, 31);
    let cfg = TileConfig {
        tile: 48,
        margin: 8,
    };
    group.bench_with_input(BenchmarkId::new("segment_tiled", 256), &img, |b, img| {
        b.iter(|| black_box(segment_tiled(&net, img, cfg)))
    });
    group.bench_with_input(
        BenchmarkId::new("segment_tiled_reference", 256),
        &img,
        |b, img| b.iter(|| black_box(segment_tiled_reference(&net, img, cfg))),
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
