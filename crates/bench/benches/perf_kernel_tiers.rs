//! Experiment P4: the kernel-tier ladder on the paper-config shapes.
//!
//! Times every kernel tier the host CPU supports — portable → AVX2 →
//! AVX-512F on x86_64, NEON on aarch64 — on the exact GEMM
//! shapes the trained paper-config MSDnet lowers to (branch im2col,
//! fusion head, classifier head; 48x48 verification crops and 128x128
//! audit tiles), plus the coordinate-keyed mask rows and the ChaCha8
//! refill. All tiers produce bit-identical outputs (property-tested in
//! `tests/kernel_tiers.rs` and asserted again here), so the tables are
//! pure latency comparisons: this is the data BENCH tracks per tier.
//!
//! Pin a tier for the whole engine with `EL_FORCE_KERNEL=<tier>`; this
//! bench instead times every supported tier in one process through
//! `Kernels::for_tier`.

use el_kernels::chacha::REFILL_WORDS;
use el_kernels::{chacha, gemm, welford, KernelTier, Kernels};
use el_seg::MsdNetConfig;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` wall-clock of `f`, in seconds (minima are the stable
/// estimator on a shared box).
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn fill(seed: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((seed * 131 + i) as f32) * 0.0137).sin())
        .collect()
}

/// The GEMM shapes (`m x k_dim x n`) the paper-config network lowers
/// to: one im2col GEMM per dilated branch and one per 1x1 head, for a
/// 48x48 verification crop and a 128x128 audit tile.
fn paper_gemm_shapes() -> Vec<(String, usize, usize, usize)> {
    let cfg = MsdNetConfig::default_uavid();
    let k_branch = cfg.in_channels * 9; // 3x3 taps
    let fused = cfg.branch_channels * cfg.dilations.len();
    let mut shapes = Vec::new();
    for (label, hw) in [("48x48 crop", 48 * 48), ("128x128 tile", 128 * 128)] {
        shapes.push((
            format!("branch 3x3 ({label})"),
            cfg.branch_channels,
            k_branch,
            hw,
        ));
        shapes.push((format!("head1 1x1 ({label})"), cfg.head_hidden, fused, hw));
        shapes.push((
            format!("head2 1x1 ({label})"),
            cfg.classes,
            cfg.head_hidden,
            hw,
        ));
    }
    shapes
}

fn print_gemm_tiers(tiers: &[&'static Kernels]) {
    eprintln!("\n===== P4a: GEMM micro-kernel per tier (paper-config conv shapes) =====");
    eprint!("{:>24} {:>14}", "shape (m x k x n)", "GFLOP");
    for k in tiers {
        eprint!(" {:>14}", format!("{} (ms)", k.tier().name()));
    }
    eprintln!(" {:>9}", "best/port");
    for (label, m, k_dim, n) in paper_gemm_shapes() {
        let a = fill(1, m * k_dim);
        let b = fill(2, k_dim * n);
        let bias = fill(3, m);
        let mut out = vec![0.0f32; m * n];
        let mut expect = vec![0.0f32; m * n];
        gemm::gemm_bias_portable(&a, &b, &bias, &mut expect, m, k_dim, n);
        let flop = 2.0 * (m * k_dim * n) as f64 * 1e-9;
        eprint!("{:>24} {:>14.3}", format!("{label} {m}x{k_dim}x{n}"), flop);
        let mut best_ratio = f64::INFINITY;
        let mut portable_t = f64::NAN;
        for kernels in tiers {
            let t = best_of(9, || {
                kernels.gemm_bias(
                    black_box(&a),
                    black_box(&b),
                    &bias,
                    black_box(&mut out),
                    m,
                    k_dim,
                    n,
                );
            });
            assert!(
                out.iter()
                    .zip(&expect)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{} GEMM diverged — the comparison is meaningless",
                kernels.tier().name()
            );
            if kernels.tier() == KernelTier::Portable {
                portable_t = t;
            }
            best_ratio = best_ratio.min(t);
            eprint!(" {:>14.4}", t * 1e3);
        }
        eprintln!(" {:>8.2}x", portable_t / best_ratio);
    }
}

fn print_mask_tiers(tiers: &[&'static Kernels]) {
    eprintln!("\n===== P4b: keyed-mask rows per tier (one MC sample's masking) =====");
    // One Monte-Carlo sample of the paper config masks 48 fused channels
    // plus 32 head channels over the crop/tile area.
    for (label, w, rows) in [
        ("48x48 crop", 48usize, 48 * 80usize),
        ("128x128 tile", 128, 128 * 80),
    ] {
        eprint!("{:>16}", label);
        let src = fill(7, w);
        let mut dst = vec![0.0f32; w];
        for kernels in tiers {
            let t = best_of(9, || {
                for r in 0..rows {
                    kernels.mask_scale_row(r as u32, 0, 0.5, 2.0, black_box(&src), &mut dst);
                }
                black_box(&mut dst);
            });
            eprint!(" {:>7}: {:>8.3} ms", kernels.tier().name(), t * 1e3);
        }
        eprintln!();
    }
}

fn print_welford_tiers(tiers: &[&'static Kernels]) {
    eprintln!("\n===== P4d: Welford fold per tier (10-sample per-pixel mean/M2) =====");
    // One verification's statistics fold exactly as the engine runs it:
    // 10 Monte-Carlo sample slabs of (classes x h·w) softmax scores
    // folded as fused pairs into 64-byte-aligned mean/M2 accumulators,
    // then the fixed-order chunk merge. Every tier does identical work;
    // the ground truth is the portable *single-push* fold, so the
    // asserted bit-identity also re-proves that pairing never changes
    // the statistics.
    let cfg = MsdNetConfig::default_uavid();
    let samples = 10usize;
    // Inner repeats keep each timed rep near half a millisecond — a
    // single 48x48 fold is ~40 µs, too short to time stably on a busy
    // box.
    for (label, hw, inner) in [
        ("48x48 crop", 48 * 48usize, 8usize),
        ("128x128 tile", 128 * 128, 1),
    ] {
        let len = cfg.classes * hw;
        let slabs: Vec<Vec<f32>> = (0..samples).map(|k| fill(11 + k, len)).collect();
        // Portable single-push ground truth — also the bits every tier's
        // pair fold must produce.
        let (mut em, mut es) = (vec![0.0f32; len], vec![0.0f32; len]);
        for (k, xs) in slabs.iter().enumerate() {
            welford::welford_push_portable(&mut em, &mut es, xs, (k + 1) as f32);
        }
        let (na, nb) = (samples as f32, samples as f32);
        let n = na + nb;
        let mut emerged = (em.clone(), es.clone());
        welford::welford_merge_portable(
            &mut emerged.0,
            &mut emerged.1,
            &em,
            &es,
            nb / n,
            na * nb / n,
        );
        eprint!("{:>16}", label);
        let mut portable_t = f64::NAN;
        let mut last_t = f64::NAN;
        for kernels in tiers {
            let mut m = welford::AlignedF32::zeroed(len);
            let mut s = welford::AlignedF32::zeroed(len);
            let t = best_of(15, || {
                for _ in 0..inner {
                    m.as_mut_slice().fill(0.0);
                    s.as_mut_slice().fill(0.0);
                    let mut k = 0usize;
                    while k + 2 <= samples {
                        kernels.welford_push2(
                            m.as_mut_slice(),
                            s.as_mut_slice(),
                            black_box(&slabs[k]),
                            &slabs[k + 1],
                            (k + 1) as f32,
                        );
                        k += 2;
                    }
                    while k < samples {
                        kernels.welford_push(
                            m.as_mut_slice(),
                            s.as_mut_slice(),
                            black_box(&slabs[k]),
                            (k + 1) as f32,
                        );
                        k += 1;
                    }
                    kernels.welford_merge(
                        m.as_mut_slice(),
                        s.as_mut_slice(),
                        black_box(&em),
                        &es,
                        nb / n,
                        na * nb / n,
                    );
                    black_box(&mut m);
                }
            }) / inner as f64;
            assert!(
                m.as_slice()
                    .iter()
                    .zip(&emerged.0)
                    .chain(s.as_slice().iter().zip(&emerged.1))
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{} Welford fold diverged — the comparison is meaningless",
                kernels.tier().name()
            );
            if kernels.tier() == KernelTier::Portable {
                portable_t = t;
            }
            last_t = t;
            eprint!(" {:>7}: {:>8.3} ms", kernels.tier().name(), t * 1e3);
        }
        eprintln!("   widest/port {:>5.2}x", portable_t / last_t);
    }
}

fn print_chacha_tiers(tiers: &[&'static Kernels]) {
    eprintln!("\n===== P4c: ChaCha8 refill per tier =====");
    let key: [u32; 8] = core::array::from_fn(|i| 0x9E37_79B9u32.wrapping_mul(i as u32 + 1));
    let mut out = [0u32; REFILL_WORDS];
    let refills = 20_000usize;
    let mut expect = [0u32; REFILL_WORDS];
    chacha::chacha_blocks_portable(&key, 0, &mut expect);
    for kernels in tiers {
        kernels.chacha_blocks(&key, 0, &mut out);
        assert_eq!(out, expect, "keystream diverged");
        let t = best_of(9, || {
            for c in 0..refills {
                kernels.chacha_blocks(black_box(&key), c as u64, &mut out);
            }
            black_box(&mut out);
        });
        let words_per_s = (refills * REFILL_WORDS) as f64 / t;
        eprintln!(
            "{:>10}: {:>8.2} ns/word ({:.1} M words/s)",
            kernels.tier().name(),
            1e9 / words_per_s,
            words_per_s * 1e-6
        );
    }
}

fn main() {
    let tiers: Vec<&'static Kernels> = KernelTier::supported()
        .into_iter()
        .map(|t| Kernels::for_tier(t).expect("supported tier resolves"))
        .collect();
    eprintln!(
        "detected tier: {} (supported: {})",
        KernelTier::detect().name(),
        tiers
            .iter()
            .map(|k| k.tier().name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    print_gemm_tiers(&tiers);
    print_mask_tiers(&tiers);
    print_welford_tiers(&tiers);
    print_chacha_tiers(&tiers);
}
