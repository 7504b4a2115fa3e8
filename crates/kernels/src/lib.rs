//! Runtime-dispatched SIMD kernel tiers for the certel engine.
//!
//! Every SIMD hot path of the workspace — the register-blocked GEMM
//! micro-kernel behind the convolutions, the coordinate-keyed
//! Monte-Carlo mask hash and the vendored ChaCha8 block function —
//! lowers through one dispatch table defined here. The table exists at
//! four **tiers**:
//!
//! | tier       | ISA                | availability                     |
//! |------------|--------------------|----------------------------------|
//! | `portable` | scalar / autovec   | every target (the ground truth)  |
//! | `avx2`     | AVX2               | runtime-detected on x86_64       |
//! | `avx512`   | AVX-512F           | runtime-detected on x86_64       |
//! | `neon`     | NEON               | aarch64 baseline                 |
//!
//! Detection picks the highest supported tier; the `EL_FORCE_KERNEL`
//! environment variable pins a specific tier (tests, benches and CI use
//! this to exercise every ladder rung), and requesting a tier the CPU
//! cannot run is **rejected with an error** — never silently downgraded,
//! because a run that claims to have validated `avx512` must actually
//! have executed it.
//!
//! # The bit-exactness contract
//!
//! Every tier reproduces the portable kernel **bit for bit**:
//!
//! - GEMM accumulates each output element over `k` in the same strict
//!   order with the same multiply-then-add rounding (never FMA), so the
//!   monitor's Monte-Carlo verdicts are identical on every ISA.
//! - The keyed-mask kernels evaluate the identical integer hash and the
//!   identical `x * scale * keep` float expression lane-wise.
//! - The ChaCha8 kernels emit the identical keystream (blocks in counter
//!   order).
//!
//! The contract is property-tested across random shapes — including
//! k-tails, column tails and single-column edge cases — for every tier
//! the host supports (`tests/kernel_tiers.rs` at the workspace root).
//! CI pins `portable` and `avx2` in a matrix job, runs `avx512` wherever
//! the runner detects it and `neon` under qemu, so "works on whatever
//! the runner detects" becomes "proven on every rung". See
//! `docs/kernels.md`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chacha;
pub mod gemm;
pub mod mask;

use std::sync::OnceLock;

pub use mask::{keyed_mask_word, keyed_row_seed, unit_f32};

/// The environment variable that pins the kernel tier.
pub const FORCE_ENV: &str = "EL_FORCE_KERNEL";

/// One rung of the kernel ladder, in ascending capability order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelTier {
    /// Scalar / autovectorised Rust — compiled everywhere, the reference
    /// implementation every other tier must reproduce bit for bit.
    Portable,
    /// AVX2 intrinsics (runtime-detected).
    Avx2,
    /// AVX-512F intrinsics (runtime-detected).
    Avx512,
    /// NEON intrinsics (aarch64 baseline, always available there).
    Neon,
}

/// Every tier, ladder order (portable first).
pub const ALL_TIERS: [KernelTier; 4] = [
    KernelTier::Portable,
    KernelTier::Avx2,
    KernelTier::Avx512,
    KernelTier::Neon,
];

/// Why a tier request could not be honoured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The name did not parse as a tier.
    UnknownTier(String),
    /// The tier parsed but this CPU cannot execute it.
    Unsupported(KernelTier),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::UnknownTier(name) => {
                let expected: Vec<&str> = ALL_TIERS.into_iter().map(KernelTier::name).collect();
                write!(
                    f,
                    "unknown kernel tier {name:?} (expected one of: {})",
                    expected.join(", ")
                )
            }
            KernelError::Unsupported(tier) => {
                let supported: Vec<&str> = KernelTier::supported()
                    .into_iter()
                    .map(KernelTier::name)
                    .collect();
                write!(
                    f,
                    "kernel tier '{}' is not supported by this CPU (supported tiers: {})",
                    tier.name(),
                    supported.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for KernelError {}

impl KernelTier {
    /// The tier's canonical lower-case name (the `EL_FORCE_KERNEL`
    /// spelling).
    pub const fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
            KernelTier::Neon => "neon",
        }
    }

    /// Parses an `EL_FORCE_KERNEL` value.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownTier`] if the name is not a tier.
    pub fn parse(name: &str) -> Result<Self, KernelError> {
        match name.trim().to_ascii_lowercase().as_str() {
            "portable" => Ok(KernelTier::Portable),
            "avx2" => Ok(KernelTier::Avx2),
            "avx512" | "avx512f" => Ok(KernelTier::Avx512),
            "neon" => Ok(KernelTier::Neon),
            _ => Err(KernelError::UnknownTier(name.to_string())),
        }
    }

    /// `true` if this CPU can execute the tier.
    pub fn is_supported(self) -> bool {
        match self {
            KernelTier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            KernelTier::Neon => true, // aarch64 baseline
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every tier this CPU supports, ladder order (always starts with
    /// [`KernelTier::Portable`]).
    pub fn supported() -> Vec<KernelTier> {
        ALL_TIERS.into_iter().filter(|t| t.is_supported()).collect()
    }

    /// The highest supported tier — the default when `EL_FORCE_KERNEL`
    /// is unset.
    pub fn detect() -> Self {
        *KernelTier::supported()
            .last()
            .expect("portable is always supported")
    }
}

/// The kernel dispatch table: one function pointer per SIMD hot path.
///
/// Obtain the process-wide table with [`Kernels::active`] (honours
/// `EL_FORCE_KERNEL`) or a specific rung with [`Kernels::for_tier`]
/// (how the cross-tier property tests compare every supported tier
/// against portable in one process).
#[derive(Debug)]
pub struct Kernels {
    tier: KernelTier,
    gemm_bias: GemmBiasFn,
    mask_scale_row: MaskScaleRowFn,
    mask_scale_row_in_place: MaskScaleRowInPlaceFn,
    chacha_blocks: ChaChaBlocksFn,
}

/// `gemm_bias(a, b, bias, out, m, k_dim, n)` — see [`Kernels::gemm_bias`].
pub type GemmBiasFn = fn(&[f32], &[f32], &[f32], &mut [f32], usize, usize, usize);
/// `mask_scale_row(row_seed, gx0, rate, scale, src, dst)` — see
/// [`Kernels::mask_scale_row`].
pub type MaskScaleRowFn = fn(u32, usize, f32, f32, &[f32], &mut [f32]);
/// `mask_scale_row_in_place(row_seed, gx0, rate, scale, row)` — see
/// [`Kernels::mask_scale_row_in_place`].
pub type MaskScaleRowInPlaceFn = fn(u32, usize, f32, f32, &mut [f32]);
/// `chacha_blocks(key, counter, out)` — see [`Kernels::chacha_blocks`].
pub type ChaChaBlocksFn = fn(&[u32; 8], u64, &mut [u32; chacha::REFILL_WORDS]);

static PORTABLE: Kernels = Kernels {
    tier: KernelTier::Portable,
    gemm_bias: gemm::gemm_bias_portable,
    mask_scale_row: mask::mask_scale_row_portable,
    mask_scale_row_in_place: mask::mask_scale_row_in_place_portable,
    chacha_blocks: chacha::chacha_blocks_portable,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    tier: KernelTier::Avx2,
    gemm_bias: gemm::gemm_bias_avx2,
    mask_scale_row: mask::mask_scale_row_avx2,
    mask_scale_row_in_place: mask::mask_scale_row_in_place_avx2,
    chacha_blocks: chacha::chacha_blocks_avx2,
};

#[cfg(target_arch = "x86_64")]
static AVX512: Kernels = Kernels {
    tier: KernelTier::Avx512,
    gemm_bias: gemm::gemm_bias_avx512,
    mask_scale_row: mask::mask_scale_row_avx512,
    mask_scale_row_in_place: mask::mask_scale_row_in_place_avx512,
    chacha_blocks: chacha::chacha_blocks_avx512,
};

#[cfg(target_arch = "aarch64")]
static NEON: Kernels = Kernels {
    tier: KernelTier::Neon,
    gemm_bias: gemm::gemm_bias_neon,
    mask_scale_row: mask::mask_scale_row_neon,
    mask_scale_row_in_place: mask::mask_scale_row_in_place_neon,
    chacha_blocks: chacha::chacha_blocks_neon,
};

fn table(tier: KernelTier) -> Option<&'static Kernels> {
    match tier {
        KernelTier::Portable => Some(&PORTABLE),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => Some(&AVX2),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 => Some(&AVX512),
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => Some(&NEON),
        #[allow(unreachable_patterns)]
        _ => None,
    }
}

/// Resolves an optional forced-tier name (the raw `EL_FORCE_KERNEL`
/// value) to a dispatch table, applying exactly the policy of
/// [`Kernels::active`] but returning the error instead of panicking —
/// the testable core of the override.
///
/// # Errors
///
/// [`KernelError::UnknownTier`] for an unparseable name,
/// [`KernelError::Unsupported`] when the CPU lacks the tier.
pub fn resolve(force: Option<&str>) -> Result<&'static Kernels, KernelError> {
    match force {
        Some(name) => Kernels::for_tier(KernelTier::parse(name)?),
        None => Ok(table(KernelTier::detect()).expect("detected tier has a table")),
    }
}

impl Kernels {
    /// The dispatch table for a specific tier.
    ///
    /// # Errors
    ///
    /// [`KernelError::Unsupported`] when this CPU cannot execute the
    /// tier (the table for an unsupported tier must never be reachable —
    /// its function pointers would fault).
    pub fn for_tier(tier: KernelTier) -> Result<&'static Kernels, KernelError> {
        if !tier.is_supported() {
            return Err(KernelError::Unsupported(tier));
        }
        Ok(table(tier).expect("supported tier has a table"))
    }

    /// The process-wide active table: the tier named by
    /// `EL_FORCE_KERNEL` if set, the highest detected tier otherwise.
    /// Resolved once and cached.
    ///
    /// # Panics
    ///
    /// Panics (with the [`KernelError`] message) if `EL_FORCE_KERNEL`
    /// names an unknown tier or one this CPU cannot execute — a forced
    /// tier must run or fail loudly, never silently fall back.
    pub fn active() -> &'static Kernels {
        static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();
        ACTIVE.get_or_init(|| {
            let force = std::env::var(FORCE_ENV).ok();
            match resolve(force.as_deref()) {
                Ok(kernels) => kernels,
                Err(e) => panic!("{FORCE_ENV}: {e}"),
            }
        })
    }

    /// The tier this table executes.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// `out[m][n] = bias[m] + sum_k a[m][k] * b[k][n]`, all row-major.
    ///
    /// Each output element accumulates over `k` strictly in order with
    /// multiply-then-add rounding, so every tier agrees bit for bit
    /// with [`gemm::gemm_bias_portable`].
    ///
    /// # Panics
    ///
    /// Panics unless `a` is exactly `m x k_dim`, `b` exactly `k_dim x n`
    /// and `out` exactly `m x n` elements (`bias` needs `m`, read with
    /// bounds checks), in release builds too: the SIMD tiers load `b` and
    /// store `out` through raw pointers, so a mis-sized buffer must stop
    /// here rather than be accessed out of bounds.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_bias(
        &self,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        out: &mut [f32],
        m: usize,
        k_dim: usize,
        n: usize,
    ) {
        // `checked_mul`: a wrapped product must not pass the check.
        assert_eq!(Some(a.len()), m.checked_mul(k_dim), "gemm_bias: a shape");
        assert_eq!(Some(b.len()), k_dim.checked_mul(n), "gemm_bias: b shape");
        assert_eq!(Some(out.len()), m.checked_mul(n), "gemm_bias: out shape");
        let sw = el_metrics::Stopwatch::start();
        (self.gemm_bias)(a, b, bias, out, m, k_dim, n);
        el_metrics::registry().gemm.record(sw);
    }

    /// Writes one row of coordinate-keyed Monte-Carlo dropout:
    /// `dst[x] = src[x] * scale * keep(x)` where `keep(x)` is 1.0 when
    /// `unit_f32(keyed_mask_word(row_seed, gx0 + x)) >= rate` and 0.0
    /// otherwise. `rate` must be in `(0, 1)` (callers shortcut rate 0).
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` lengths differ.
    #[inline]
    pub fn mask_scale_row(
        &self,
        row_seed: u32,
        gx0: usize,
        rate: f32,
        scale: f32,
        src: &[f32],
        dst: &mut [f32],
    ) {
        assert_eq!(src.len(), dst.len(), "mask row length mismatch");
        (self.mask_scale_row)(row_seed, gx0, rate, scale, src, dst)
    }

    /// In-place variant of [`Kernels::mask_scale_row`]:
    /// `row[x] *= scale * keep(x)`.
    #[inline]
    pub fn mask_scale_row_in_place(
        &self,
        row_seed: u32,
        gx0: usize,
        rate: f32,
        scale: f32,
        row: &mut [f32],
    ) {
        (self.mask_scale_row_in_place)(row_seed, gx0, rate, scale, row)
    }

    /// Generates [`chacha::BLOCKS_PER_REFILL`] consecutive ChaCha8
    /// blocks (counter `counter`, `counter + 1`, …) into `out`, blocks
    /// in counter order — the identical keystream on every tier.
    #[inline]
    pub fn chacha_blocks(
        &self,
        key: &[u32; 8],
        counter: u64,
        out: &mut [u32; chacha::REFILL_WORDS],
    ) {
        (self.chacha_blocks)(key, counter, out)
    }
}

/// Shorthand for [`Kernels::active`].
#[inline]
pub fn active() -> &'static Kernels {
    Kernels::active()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_name_and_rejects_junk() {
        for tier in ALL_TIERS {
            assert_eq!(KernelTier::parse(tier.name()), Ok(tier));
        }
        assert_eq!(KernelTier::parse("AVX2"), Ok(KernelTier::Avx2));
        assert_eq!(KernelTier::parse(" avx512f "), Ok(KernelTier::Avx512));
        let err = KernelTier::parse("sse9").unwrap_err();
        assert!(matches!(err, KernelError::UnknownTier(_)));
        assert!(err.to_string().contains("sse9"), "error names the input");
        for tier in ALL_TIERS {
            assert!(
                err.to_string().contains(tier.name()),
                "error lists every valid spelling: {err}"
            );
        }
        // The retired 128-bit SSE rung is no longer a tier: forcing its
        // old name must fail loudly, never downgrade to portable.
        assert!(matches!(
            KernelTier::parse(concat!("sse", "2")),
            Err(KernelError::UnknownTier(_))
        ));
    }

    #[test]
    fn detection_ladder_is_sound() {
        let supported = KernelTier::supported();
        assert_eq!(supported[0], KernelTier::Portable);
        assert_eq!(KernelTier::detect(), *supported.last().unwrap());
        // Ladder order is ascending.
        for pair in supported.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        #[cfg(target_arch = "x86_64")]
        {
            let expected = if std::arch::is_x86_feature_detected!("avx512f") {
                KernelTier::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                KernelTier::Avx2
            } else {
                KernelTier::Portable
            };
            assert_eq!(KernelTier::detect(), expected);
        }
        #[cfg(target_arch = "aarch64")]
        assert!(supported.contains(&KernelTier::Neon), "neon is baseline");
    }

    #[test]
    fn unsupported_tier_is_rejected_not_downgraded() {
        // At least one tier is always unsupported on any given arch
        // (neon on x86_64, the x86 tiers on aarch64, everything but
        // portable elsewhere).
        let unsupported: Vec<KernelTier> = ALL_TIERS
            .into_iter()
            .filter(|t| !t.is_supported())
            .collect();
        assert!(!unsupported.is_empty());
        for tier in unsupported {
            let err = Kernels::for_tier(tier).unwrap_err();
            assert_eq!(err, KernelError::Unsupported(tier));
            let msg = err.to_string();
            assert!(
                msg.contains(tier.name()) && msg.contains("not supported"),
                "rejection must name the tier: {msg}"
            );
            // The resolve path (what EL_FORCE_KERNEL feeds) agrees.
            assert_eq!(resolve(Some(tier.name())).unwrap_err(), err);
        }
    }

    #[test]
    fn resolve_honours_force_and_default() {
        assert_eq!(resolve(None).unwrap().tier(), KernelTier::detect());
        for tier in KernelTier::supported() {
            assert_eq!(resolve(Some(tier.name())).unwrap().tier(), tier);
        }
        assert!(matches!(
            resolve(Some("quantum")).unwrap_err(),
            KernelError::UnknownTier(_)
        ));
    }

    #[test]
    fn active_matches_environment() {
        let active = Kernels::active().tier();
        match std::env::var(FORCE_ENV) {
            Ok(name) => assert_eq!(active, KernelTier::parse(&name).unwrap()),
            Err(_) => assert_eq!(active, KernelTier::detect()),
        }
    }
}
