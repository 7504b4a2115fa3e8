//! Experiment P1: the Section V-B timing argument.
//!
//! The paper: "the monitor verifies a 1024x1024 image in less than 5
//! seconds, whereas it takes over a minute for the full [3840x2160]
//! image" (10 Monte-Carlo samples, Quadro P5000). The absolute numbers
//! are hardware-bound; the *shape* — verification cost scales with
//! pixels x samples, which is why the Figure 2 architecture verifies
//! small candidate crops instead of whole frames — is what this
//! experiment reproduces on CPU.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use el_bench::trained_model;
use el_monitor::bayesian_segment;
use el_scene::{Conditions, Scene, SceneParams};
use std::hint::black_box;
use std::time::Instant;

fn crop(size: usize) -> el_scene::Image {
    let mut params = SceneParams::default_urban();
    params.width = size;
    params.height = size;
    let scene = Scene::generate(&params, 17);
    scene.render(&Conditions::nominal(), 3)
}

fn print_scaling_table() {
    let net = trained_model();
    eprintln!("\n===== P1: Bayesian verification cost vs crop size and samples =====");
    eprintln!(
        "{:>6} {:>8} {:>12} {:>14}",
        "size", "samples", "seconds", "s per Mpx-pass"
    );
    let mut per_mpx_pass = Vec::new();
    for size in [64usize, 128, 256] {
        let image = crop(size);
        for samples in [1usize, 5, 10, 20] {
            let t0 = Instant::now();
            let _ = bayesian_segment(&net, &image, samples, 42);
            let dt = t0.elapsed().as_secs_f64();
            let mpx_passes = (size * size * samples) as f64 / 1e6;
            per_mpx_pass.push(dt / mpx_passes);
            eprintln!(
                "{:>6} {:>8} {:>12.3} {:>14.3}",
                size,
                samples,
                dt,
                dt / mpx_passes
            );
        }
    }
    // Cost-per-megapixel-pass should be roughly constant: cost ∝ pixels x samples.
    let mean = per_mpx_pass.iter().sum::<f64>() / per_mpx_pass.len() as f64;
    let spread = per_mpx_pass
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    eprintln!(
        "cost per Mpx-pass: mean {:.3} s (min {:.3}, max {:.3}) -> approximately linear",
        mean, spread.0, spread.1
    );
    // The paper's comparison, extrapolated at 10 samples.
    let crop_s = 1024.0 * 1024.0 * 10.0 / 1e6 * mean;
    let full_s = 3840.0 * 2160.0 * 10.0 / 1e6 * mean;
    eprintln!(
        "extrapolated, 10 samples: 1024x1024 crop {:.1} s vs full 3840x2160 frame {:.1} s (ratio {:.1}x)",
        crop_s,
        full_s,
        full_s / crop_s
    );
    eprintln!(
        "paper (GPU): <5 s vs >60 s — same shape: full-frame Bayesian inference is prohibitive, so Figure 2 verifies candidate crops only."
    );
}

fn bench(c: &mut Criterion) {
    print_scaling_table();
    let net = trained_model();
    let mut group = c.benchmark_group("monitor_scaling");
    group.sample_size(10);
    for size in [64usize, 128] {
        let image = crop(size);
        group.bench_with_input(
            BenchmarkId::new("verify_10_samples", size),
            &image,
            |b, img| b.iter(|| black_box(bayesian_segment(&net, img, 10, 42))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
