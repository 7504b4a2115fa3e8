//! Cross-tier bit-identity: the kernel-dispatch contract, fuzzed.
//!
//! For **every kernel tier the host CPU supports**, the dispatched hot
//! paths — the GEMM micro-kernel, the coordinate-keyed mask rows and the
//! ChaCha8 block function — must reproduce the portable reference **bit
//! for bit** over hundreds of random shapes, deliberately skewed toward
//! the remainder paths (k-tails, column tails, odd widths, single-column
//! outputs). CI pins `portable` and `avx2` with `EL_FORCE_KERNEL` in a
//! matrix job, runs `avx512` wherever the runner detects it and executes
//! the NEON tier under qemu, so these properties execute on every rung
//! of the ladder — not just whichever tier the runner detects.
//!
//! Shape checks are contract as well: the SIMD tiers load and store
//! through raw pointers, so a mis-sized GEMM buffer must panic on every
//! tier in release builds, never write past the slice.
//!
//! The override itself is contract too: an unknown or unsupported tier
//! must be **rejected with a clear error**, never silently downgraded.
//! And the contract must hold all the way up the stack: a forced tier
//! reproduces the whole monitor's `bayesian_segment` output bit for bit
//! (checked by spawning this test binary once per supported tier).

use el_kernels::chacha::REFILL_WORDS;
use el_kernels::{chacha, gemm, mask, resolve, KernelError, KernelTier, Kernels};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Supported tiers beyond portable (the comparison baseline).
fn simd_tiers() -> Vec<&'static Kernels> {
    KernelTier::supported()
        .into_iter()
        .filter(|&t| t != KernelTier::Portable)
        .map(|t| Kernels::for_tier(t).expect("supported tier resolves"))
        .collect()
}

fn random_f32s(rng: &mut ChaCha8Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn gemm_every_tier_matches_portable_over_random_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE1_4E51);
    let tiers = simd_tiers();
    for case in 0..200 {
        let m = 1 + (rng.next_u32() % 13) as usize;
        // Reduction depths like the engine's im2col matrices (in * k * k),
        // including depth 1 and odd tails.
        let k_dim = 1 + (rng.next_u32() % 80) as usize;
        // Column counts biased toward the micro-kernels' remainder
        // handling: pure tails (n < widest tile), exact tile multiples,
        // multiples plus a tail, and the single-column edge case.
        let n = match case % 5 {
            0 => 1,
            1 => 1 + (rng.next_u32() % 31) as usize,
            2 => 32 * (1 + (rng.next_u32() % 4) as usize),
            3 => 32 * (1 + (rng.next_u32() % 4) as usize) + 1 + (rng.next_u32() % 31) as usize,
            _ => 1 + (rng.next_u32() % 200) as usize,
        };
        let a = random_f32s(&mut rng, m * k_dim);
        let b = random_f32s(&mut rng, k_dim * n);
        let bias = random_f32s(&mut rng, m);
        let mut expect = vec![0.0f32; m * n];
        gemm::gemm_bias_portable(&a, &b, &bias, &mut expect, m, k_dim, n);
        for kernels in &tiers {
            let mut out = vec![f32::NAN; m * n];
            kernels.gemm_bias(&a, &b, &bias, &mut out, m, k_dim, n);
            assert_eq!(
                bits(&out),
                bits(&expect),
                "{} GEMM diverges from portable on {m}x{k_dim}x{n} (case {case})",
                kernels.tier().name()
            );
        }
    }
}

#[test]
fn gemm_rejects_undersized_buffers_on_every_tier() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    const SENTINEL: f32 = 1234.5;
    // One 32-column row: a full tile on every SIMD tier, so an unchecked
    // kernel stores all 32 columns.
    let (m, k_dim, n) = (1usize, 1usize, 32usize);
    let a = [1.0f32];
    let bias = [0.0f32];
    let b = vec![2.0f32; k_dim * n];
    for tier in KernelTier::supported() {
        let kernels = Kernels::for_tier(tier).unwrap();
        // `out` is the first half of one allocation; the second half is a
        // sentinel tail an out-of-bounds store would overwrite.
        let mut buf = vec![SENTINEL; m * n];
        let (out, tail) = buf.split_at_mut(m * n / 2);
        let short_out = catch_unwind(AssertUnwindSafe(|| {
            kernels.gemm_bias(&a, &b, &bias, out, m, k_dim, n)
        }));
        assert!(
            short_out.is_err(),
            "{}: undersized out accepted",
            tier.name()
        );
        assert!(
            tail.iter().all(|v| v.to_bits() == SENTINEL.to_bits()),
            "{}: gemm_bias wrote past the end of out",
            tier.name()
        );
        let mut full_out = vec![0.0f32; m * n];
        let short_b = catch_unwind(AssertUnwindSafe(|| {
            kernels.gemm_bias(&a, &b[..n / 2], &bias, &mut full_out, m, k_dim, n)
        }));
        assert!(short_b.is_err(), "{}: undersized b accepted", tier.name());
    }
}

#[test]
fn mask_rows_every_tier_matches_portable_over_random_rows() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x3A5C);
    let tiers = simd_tiers();
    for case in 0..200 {
        // Odd widths and sub-vector-width rows exercise the scalar tail.
        let len = match case % 4 {
            0 => 1 + (rng.next_u32() % 4) as usize,
            1 => 16 * (1 + (rng.next_u32() % 8) as usize),
            _ => 1 + (rng.next_u32() % 300) as usize,
        };
        let gx0 = (rng.next_u32() % 10_000) as usize;
        let row_seed = rng.next_u32();
        let rate = match case % 3 {
            0 => 0.5,
            1 => 0.1 + rng.gen::<f32>() * 0.8,
            _ => 0.9,
        };
        let scale = 1.0 / (1.0 - rate);
        // Include negatives so dropped lanes must produce -0.0 exactly.
        let src = random_f32s(&mut rng, len);
        let mut expect = vec![0.0f32; len];
        mask::mask_scale_row_portable(row_seed, gx0, rate, scale, &src, &mut expect);
        for kernels in &tiers {
            let mut out = vec![f32::NAN; len];
            kernels.mask_scale_row(row_seed, gx0, rate, scale, &src, &mut out);
            assert_eq!(
                bits(&out),
                bits(&expect),
                "{} mask row diverges (len {len}, gx0 {gx0}, rate {rate})",
                kernels.tier().name()
            );
            let mut in_place = src.clone();
            kernels.mask_scale_row_in_place(row_seed, gx0, rate, scale, &mut in_place);
            assert_eq!(
                bits(&in_place),
                bits(&expect),
                "{} in-place mask row diverges (len {len})",
                kernels.tier().name()
            );
        }
    }
}

#[test]
fn chacha_every_tier_matches_portable_over_random_streams() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC8ACA);
    let tiers = simd_tiers();
    for case in 0..200 {
        let key: [u32; 8] = core::array::from_fn(|_| rng.next_u32());
        // Random counters plus the 32-bit and 64-bit carry boundaries.
        let counter = match case % 4 {
            0 => rng.next_u64(),
            1 => u64::MAX - (rng.next_u32() % 4) as u64,
            2 => (1u64 << 32) - 1 - (rng.next_u32() % 4) as u64,
            _ => (rng.next_u32() % 1000) as u64,
        };
        let mut expect = [0u32; REFILL_WORDS];
        chacha::chacha_blocks_portable(&key, counter, &mut expect);
        for kernels in &tiers {
            let mut out = [0u32; REFILL_WORDS];
            kernels.chacha_blocks(&key, counter, &mut out);
            assert_eq!(
                out,
                expect,
                "{} ChaCha8 keystream diverges at counter {counter}",
                kernels.tier().name()
            );
        }
    }
}

/// FNV-1a over the bit patterns of the monitor's statistics for a fixed
/// pair of Monte-Carlo verifications — the whole-engine fingerprint the
/// cross-tier test compares between forced-tier processes. Covers both
/// an odd-width crop and a 1-pixel-wide slab (the GEMM and mask rows'
/// tail paths), with enough samples for several Welford chunks and a
/// chunk merge.
fn bayes_fingerprint() -> u64 {
    use certel::el_monitor::bayesian_segment_batch;
    use certel::el_nn::Tensor;
    use certel::prelude::{MsdNet, MsdNetConfig};
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut fold = |stats: &certel::el_monitor::BayesStats| {
        for &v in stats.mean.as_slice().iter().chain(stats.std.as_slice()) {
            h ^= v.to_bits() as u64;
            h = h.wrapping_mul(0x1_0000_0000_01B3);
        }
    };
    let crop = Tensor::from_fn(3, 10, 13, |c, y, x| {
        ((c + y * 2 + x) as f32 * 0.29).sin() * 0.6
    });
    for stats in bayesian_segment_batch(&net, &[&crop], 7, &[21], &[(0, 0)]) {
        fold(&stats);
    }
    let sliver = Tensor::from_fn(3, 9, 1, |c, y, _| ((c * 5 + y) as f32 * 0.41).cos() * 0.4);
    for stats in bayesian_segment_batch(&net, &[&sliver], 13, &[4], &[(0, 0)]) {
        fold(&stats);
    }
    h
}

/// Environment flag that switches this test binary into "print the
/// fingerprint and exit" mode for the child processes spawned below.
const FINGERPRINT_CHILD_ENV: &str = "EL_BAYES_FINGERPRINT_CHILD";

#[test]
fn bayesian_segment_bit_identical_under_every_forced_tier() {
    if std::env::var(FINGERPRINT_CHILD_ENV).is_ok() {
        // Child mode: the parent forced a tier via EL_FORCE_KERNEL and
        // scrapes this line from our stdout.
        println!("BAYES_FP={:016x}", bayes_fingerprint());
        return;
    }
    // Monitor-level cross-tier identity: re-run this very test binary
    // once per supported tier with EL_FORCE_KERNEL pinned (the active
    // dispatch table is resolved once per process, so distinct tiers
    // need distinct processes) and demand the identical whole-engine
    // fingerprint — GEMM, masks and ChaCha all forced through the named
    // rung.
    let local = bayes_fingerprint();
    let exe = std::env::current_exe().expect("test binary path");
    for tier in KernelTier::supported() {
        let out = std::process::Command::new(&exe)
            .args([
                "bayesian_segment_bit_identical_under_every_forced_tier",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(FINGERPRINT_CHILD_ENV, "1")
            .env(el_kernels::FORCE_ENV, tier.name())
            .output()
            .expect("spawn forced-tier child");
        assert!(
            out.status.success(),
            "forced {} child failed:\n{}{}",
            tier.name(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        // libtest may emit the line mid-stream ("test … ... BAYES_FP=…"),
        // so scrape by marker rather than by line prefix.
        let fp = stdout
            .split("BAYES_FP=")
            .nth(1)
            .map(|rest| &rest[..16])
            .unwrap_or_else(|| panic!("no fingerprint from {} child:\n{stdout}", tier.name()));
        assert_eq!(
            fp,
            format!("{local:016x}"),
            "bayesian_segment diverges under EL_FORCE_KERNEL={}",
            tier.name()
        );
    }
}

#[test]
fn conv_forward_is_tier_invariant_through_the_engine() {
    // End-to-end: the dispatched GEMM inside Conv2d::forward_with must
    // still reproduce the naive reference loop (which never touches the
    // dispatch table) under whatever tier this process runs — including
    // a CI-forced EL_FORCE_KERNEL tier.
    use el_nn::layers::Conv2d;
    use el_nn::{Tensor, Workspace};
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let mut ws = Workspace::new();
    for (ci, co, k, d, h, w) in [
        (3usize, 8usize, 3usize, 2usize, 13usize, 17usize),
        (2, 5, 5, 1, 9, 31),
        (4, 6, 1, 1, 8, 33),
        (1, 3, 3, 4, 5, 5),
    ] {
        let conv = Conv2d::new(ci, co, k, d, &mut rng);
        let input = Tensor::from_fn(ci, h, w, |c, y, x| {
            ((c * 31 + y * 7 + x) as f32 * 0.13).sin()
        });
        let reference = conv.forward_reference(&input);
        let engine = conv.forward_with(&input, &mut ws);
        assert_eq!(
            reference, engine,
            "dispatched conv diverges from reference ({ci}->{co} k{k} d{d})"
        );
    }
}

#[test]
fn forced_tier_governs_the_whole_process() {
    // When CI pins a tier, the active dispatch table must be exactly
    // that tier; without the override it must be the detected maximum.
    let active = el_kernels::active().tier();
    match std::env::var(el_kernels::FORCE_ENV) {
        Ok(name) => assert_eq!(
            active,
            KernelTier::parse(&name).expect("CI must force a valid tier"),
            "EL_FORCE_KERNEL={name} must govern the dispatch table"
        ),
        Err(_) => assert_eq!(active, KernelTier::detect()),
    }
}

#[test]
fn unsupported_and_unknown_tiers_are_rejected_with_clear_errors() {
    // Unknown names: the parse error lists the valid spellings.
    let err = resolve(Some("sse42")).unwrap_err();
    assert!(matches!(err, KernelError::UnknownTier(_)));
    let msg = err.to_string();
    assert!(
        msg.contains("sse42") && msg.contains("portable") && msg.contains("neon"),
        "unknown-tier error must name the input and the valid tiers: {msg}"
    );

    // Unsupported tiers: rejected, never downgraded. Every arch has at
    // least one (neon on x86_64, the x86 ladder on aarch64).
    for tier in el_kernels::ALL_TIERS {
        if tier.is_supported() {
            assert_eq!(resolve(Some(tier.name())).unwrap().tier(), tier);
        } else {
            let err = resolve(Some(tier.name())).unwrap_err();
            assert_eq!(err, KernelError::Unsupported(tier));
            let msg = err.to_string();
            assert!(
                msg.contains(tier.name()) && msg.contains("not supported by this CPU"),
                "unsupported-tier error must be explicit: {msg}"
            );
        }
    }
}
