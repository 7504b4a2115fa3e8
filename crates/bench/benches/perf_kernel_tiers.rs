//! Experiment P4: the kernel-tier ladder on the paper-config shapes.
//!
//! Times every kernel tier the host CPU supports — portable → AVX2 →
//! AVX-512F on x86_64, NEON on aarch64 — on the exact GEMM
//! shapes the trained paper-config MSDnet lowers to (branch im2col,
//! fusion head, classifier head; 48x48 verification crops and 128x128
//! audit tiles), plus the coordinate-keyed mask rows, the ChaCha8
//! refill and one Monte-Carlo sample's softmax. All tiers produce bit-identical outputs (property-tested in
//! `tests/kernel_tiers.rs` and asserted again here), so the tables are
//! pure latency comparisons: this is the data BENCH tracks per tier.
//!
//! Pin a tier for the whole engine with `EL_FORCE_KERNEL=<tier>`; this
//! bench instead times every supported tier in one process through
//! `Kernels::for_tier`.

use el_kernels::chacha::REFILL_WORDS;
use el_kernels::{chacha, gemm, softmax, KernelTier, Kernels};
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

fn print_softmax_tiers(tiers: &[&'static Kernels]) {
    eprintln!("\n===== P4d: softmax per tier (one MC sample over an 86x86 kept tile) =====");
    // The paper-scale audit keeps an 86x86 interior of each 128px tile;
    // every Monte-Carlo sample ends in a softmax over its 8 class planes.
    let (classes, pixels) = (MsdNetConfig::default_uavid().classes, 86 * 86);
    let logits: Vec<f32> = fill(11, classes * pixels)
        .iter()
        .map(|v| v * 12.0)
        .collect();
    let mut expect = logits.clone();
    softmax::softmax_portable(&mut expect, classes, pixels);
    let mut data = logits.clone();
    // The kernel works in place, so each rep restores the logits first;
    // the restore's own best time is subtracted.
    let copy_t = best_of(9, || data.copy_from_slice(black_box(&logits)));
    for kernels in tiers {
        data.copy_from_slice(&logits);
        kernels.softmax(&mut data, classes, pixels);
        assert!(
            data.iter()
                .zip(&expect)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{} softmax diverged — the comparison is meaningless",
            kernels.tier().name()
        );
        let t = best_of(9, || {
            data.copy_from_slice(black_box(&logits));
            kernels.softmax(black_box(&mut data), classes, pixels);
        });
        eprintln!(
            "{:>10}: {:>8.3} ms",
            kernels.tier().name(),
            (t - copy_t).max(0.0) * 1e3
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
    print_chacha_tiers(&tiers);
    print_softmax_tiers(&tiers);
}
