//! Experiment P4: the kernel-tier ladder on the paper-config shapes.
//!
//! Times every kernel tier the host CPU supports — portable → AVX2 →
//! AVX-512F on x86_64, NEON on aarch64 — on the exact GEMM block shapes
//! the trained paper-config MSDnet runs (a 3x3 branch reading its 27
//! taps from a zero-padded frame through a row table, the fusion head
//! and the classifier head, 64 columns each), plus the
//! coordinate-keyed mask rows, the ChaCha8 refill and one Monte-Carlo
//! sample's softmax. All tiers produce bit-identical outputs (property-tested in
//! `tests/kernel_tiers.rs` and asserted again here), so the tables are
//! pure latency comparisons: this is the data BENCH tracks per tier.
//!
//! Pin a tier for the whole engine with `EL_FORCE_KERNEL=<tier>`; this
//! bench instead times every supported tier in one process through
//! `Kernels::for_tier`.

use el_kernels::chacha::REFILL_WORDS;
use el_kernels::{chacha, gemm, softmax, KernelTier, Kernels};
use el_nn::layers::CONV_BLOCK;
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

/// Blocks per 256² frame: the padded layout's span from the first pixel
/// to the last (`255 · 264 + 256` positions at radius 4), in 64s.
const FRAME_BLOCKS: usize = (255 * 264 + 256_usize).div_ceil(CONV_BLOCK);

/// One paper-config block GEMM (`m x k x CONV_BLOCK`): its label, `m`, B
/// operand and row table.
struct BlockShape {
    label: String,
    m: usize,
    b: Vec<f32>,
    rows: Vec<usize>,
}

/// The GEMM block shapes one Eval block of the paper-config network
/// runs: a dilation-2 branch's 27 taps read from a zero-padded
/// 264-wide, 3-plane frame (the implicit lowering), then head1 and head2
/// on dense `[k][64]` blocks.
fn paper_block_shapes() -> Vec<BlockShape> {
    let cfg = MsdNetConfig::default_uavid();
    let fused = cfg.branch_channels * cfg.dilations.len();
    let (wp, d) = (264usize, 2usize);
    let plane = wp * wp;
    let taps: Vec<usize> = (0..cfg.in_channels)
        .flat_map(|i| {
            (0..3).flat_map(move |ky| (0..3).map(move |kx| i * plane + (ky * wp + kx) * d))
        })
        .collect();
    let dense = |k: usize| (0..k).map(|k| k * CONV_BLOCK).collect::<Vec<_>>();
    vec![
        BlockShape {
            label: format!("branch 3x3 taps ({} x {})", taps.len(), cfg.branch_channels),
            m: cfg.branch_channels,
            b: fill(2, cfg.in_channels * plane + CONV_BLOCK),
            rows: taps,
        },
        BlockShape {
            label: format!("head1 1x1 ({fused} x {})", cfg.head_hidden),
            m: cfg.head_hidden,
            b: fill(2, fused * CONV_BLOCK),
            rows: dense(fused),
        },
        BlockShape {
            label: format!("head2 1x1 ({} x {})", cfg.head_hidden, cfg.classes),
            m: cfg.classes,
            b: fill(2, cfg.head_hidden * CONV_BLOCK),
            rows: dense(cfg.head_hidden),
        },
    ]
}

fn print_gemm_tiers(tiers: &[&'static Kernels]) {
    eprintln!(
        "\n===== P4a: GEMM per tier, paper-config 64-column blocks x {FRAME_BLOCKS} (one 256² frame) ====="
    );
    eprint!("{:>34} {:>9}", "block (k x m, ReLU on store)", "GFLOP");
    for k in tiers {
        eprint!(" {:>14}", format!("{} (ms)", k.tier().name()));
    }
    eprintln!(" {:>9} {:>12}", "best/port", "best GFLOP/s");
    for shape in paper_block_shapes() {
        let (m, k_dim, n) = (shape.m, shape.rows.len(), CONV_BLOCK);
        let a = fill(1, m * k_dim);
        let bias = fill(3, m);
        let mut out = vec![0.0f32; m * n];
        let mut expect = vec![0.0f32; m * n];
        gemm::gemm_bias_portable(&a, &shape.b, &shape.rows, &bias, &mut expect, m, n, true);
        let flop = 2.0 * (m * k_dim * n * FRAME_BLOCKS) as f64 * 1e-9;
        eprint!("{:>34} {:>9.3}", shape.label, flop);
        let mut best = f64::INFINITY;
        let mut portable_t = f64::NAN;
        for kernels in tiers {
            // Bit-identity first, so no timing comes from a diverging kernel.
            kernels.gemm_bias(&a, &shape.b, &shape.rows, &bias, &mut out, m, n, true);
            assert!(
                out.iter()
                    .zip(&expect)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{} GEMM diverged — the comparison is meaningless",
                kernels.tier().name()
            );
            // Step the block along the frame, as the Eval walk does.
            let span = shape.b.len() - shape.rows.iter().max().unwrap() - n;
            let t = best_of(9, || {
                for blk in 0..FRAME_BLOCKS {
                    let q0 = (blk * n) % (span + 1);
                    kernels.gemm_bias(
                        black_box(&a),
                        black_box(&shape.b[q0..]),
                        &shape.rows,
                        &bias,
                        black_box(&mut out),
                        m,
                        n,
                        true,
                    );
                }
            });
            if kernels.tier() == KernelTier::Portable {
                portable_t = t;
            }
            best = best.min(t);
            eprint!(" {:>14.4}", t * 1e3);
        }
        eprintln!(" {:>8.2}x {:>12.1}", portable_t / best, flop / best);
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
