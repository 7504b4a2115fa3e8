//! The in-crate exponential and the planar softmax kernels.
//!
//! [`expf`] is the table-driven single-precision exponential that glibc
//! and ARM's optimized-routines ship (Szabolcs Nagy's `expf`): with
//! `N = 32`, `x·N/ln 2 = k + r` for an integer `k` and `|r| <= 1/2`,
//! and `exp(x) = 2^(k/N) · 2^(r/N)`, where `2^(k/N)` comes from a
//! 32-entry table of `2^(i/N)` (its exponent patched in from `k`) and
//! `2^(r/N)` from a cubic polynomial — all in `f64`, rounded to `f32`
//! once. Both uses of `InvLn2N·x` and the three polynomial steps are
//! fused multiply-adds, exactly as glibc's x86_64 FMA variant computes
//! them, so [`expf`] returns that variant's bits on every target and
//! every kernel tier: the decision path no longer depends on which
//! `expf` the host libm selects. The ignored `expf_exhaustive_hash`
//! test pins all 2³¹ non-positive inputs to one FNV-1a hash.
//!
//! The softmax kernels normalise a `[class][pixel]` block in place, one
//! pixel at a time on the portable tier and 16/8/4 pixels per step (one
//! per lane) on the AVX-512F/AVX2/NEON tiers. Every tier evaluates the
//! same per-pixel sequence — an `f32::max` fold from −∞, then
//! `e = expf(l − max)` and a running sum in class order, then a divide
//! — so the probabilities agree with the portable kernel bit for bit.
//!
//! A pixel whose sum is NaN (a NaN logit, or an infinite maximum)
//! gets `f32::NAN` in every class. Every probability of such a pixel is
//! NaN anyway, but which NaN an add or divide of two NaNs returns
//! depends on operand order, which the compiler may swap; writing one
//! canonical NaN keeps the tiers bit-identical there too.

/// `tab[i]` is the bit pattern of the correctly rounded `2^(i/32)` with
/// `i << 47` subtracted, so that adding `k << 47` for `k ≡ i (mod 32)`
/// yields `2^(k/32)` (the exponent field absorbs `k / 32`).
const EXP2F_TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// `N / ln 2` (`0x1.71547652b82fep+5`).
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.8p52`: adding it rounds `x·N/ln 2` to an integer held in the
/// low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `0x1.c6af84b912394p-20` — the cubic coefficient of `2^(r/N)`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
/// `0x1.ebfce50fac4f3p-13` — the quadratic coefficient.
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
/// `0x1.62e42ff0c52d6p-6` — the linear coefficient.
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `0x1.62e42ep6`: above it, `exp(x)` overflows `f32`.
const OVERFLOW_BOUND: f32 = f32::from_bits(0x42b1_7217);
/// `-0x1.9fe368p6`: below it, `exp(x)` rounds to `+0`.
const UNDERFLOW_BOUND: f32 = f32::from_bits(0xc2cf_f1b4);
/// The top 12 bits of `88.0f32`: inputs with `|x| >= 88` (or NaN) take
/// the special-case checks first.
const SPECIAL_TOP12: u32 = 0x42b;

/// The single-precision exponential, bit-identical to glibc's x86_64
/// FMA `expf` on every input and every target.
///
/// Special cases follow glibc: `−∞ → +0`, NaN `→ x + x`, `x >
/// 0x1.62e42ep6 → +∞` and `x < −0x1.9fe368p6 → +0`. On targets without
/// a hardware FMA, `f64::mul_add` is the libm `fma`, which is correctly
/// rounded by definition, so the bits do not change — only the speed.
#[inline(always)]
pub fn expf(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop >= SPECIAL_TOP12 {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            return x + x;
        }
        if x > OVERFLOW_BOUND {
            return f32::INFINITY;
        }
        if x < UNDERFLOW_BOUND {
            return 0.0;
        }
    }
    let xd = x as f64;
    // x·N/ln 2 = k + r, k rounded to nearest (ties to even) by SHIFT.
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    // 2^(k/N) from the table, exponent patched in from k.
    let s = f64::from_bits(EXP2F_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    // 2^(r/N) ≈ C0·r³ + C1·r² + C2·r + 1.
    let z = C0.mul_add(r, C1);
    let r2 = r * r;
    let y = C2.mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// The softmax of pixel `i` of a `[class][pixel]` block of `pixels`
/// pixels — the per-pixel sequence every tier reproduces, and the SIMD
/// tiers' scalar tail.
#[inline(always)]
fn softmax_pixel(data: &mut [f32], classes: usize, pixels: usize, i: usize) {
    let mut max = f32::NEG_INFINITY;
    for k in 0..classes {
        max = max.max(data[k * pixels + i]);
    }
    let mut sum = 0.0;
    for k in 0..classes {
        let e = expf(data[k * pixels + i] - max);
        data[k * pixels + i] = e;
        sum += e;
    }
    if sum.is_nan() {
        for k in 0..classes {
            data[k * pixels + i] = f32::NAN;
        }
    } else {
        for k in 0..classes {
            data[k * pixels + i] /= sum;
        }
    }
}

/// Portable softmax kernel over a `[class][pixel]` block — the
/// reference every SIMD tier must reproduce bit for bit.
///
/// On an x86_64 CPU with FMA the same body runs from a copy compiled
/// with it, so [`expf`]'s `f64::mul_add` is one instruction rather than
/// a libm `fma` call. Both are correctly rounded: the bits are the same.
pub fn softmax_portable(data: &mut [f32], classes: usize, pixels: usize) {
    debug_assert_eq!(data.len(), classes * pixels);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: FMA has just been detected.
        return unsafe { softmax_pixels_fma(data, classes, pixels) };
    }
    softmax_pixels(data, classes, pixels);
}

#[inline(always)]
fn softmax_pixels(data: &mut [f32], classes: usize, pixels: usize) {
    for i in 0..pixels {
        softmax_pixel(data, classes, pixels, i);
    }
}

/// [`softmax_portable`]'s body compiled with FMA.
///
/// # Safety
///
/// FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn softmax_pixels_fma(data: &mut [f32], classes: usize, pixels: usize) {
    softmax_pixels(data, classes, pixels);
}

macro_rules! simd_entry {
    ($entry:ident, $inner:ident, $doc_tier:literal) => {
        #[doc = concat!($doc_tier, " softmax kernel.")]
        #[doc = ""]
        #[doc = "Crate-private: reachable only through the feature-checked"]
        #[doc = "dispatch table, which is what makes the entry safe."]
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        pub(crate) fn $entry(data: &mut [f32], classes: usize, pixels: usize) {
            debug_assert_eq!(data.len(), classes * pixels);
            // SAFETY: the dispatch table hands this entry out only for a
            // tier the CPU supports, and `Kernels::softmax` has asserted
            // `data.len() == classes * pixels`.
            unsafe { $inner(data, classes, pixels) }
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_entry!(softmax_avx2, softmax_rows_avx2, "AVX2");
#[cfg(target_arch = "x86_64")]
simd_entry!(softmax_avx512, softmax_rows_avx512, "AVX-512F");
#[cfg(target_arch = "aarch64")]
simd_entry!(softmax_neon, softmax_rows_neon, "NEON");

/// [`expf`] on 4 `f64` lanes (inputs widened from `f32`, so exact),
/// without the special cases: the AVX2 general path.
///
/// # Safety
///
/// AVX2 and FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn expf_core_avx2(xd: core::arch::x86_64::__m256d) -> core::arch::x86_64::__m128 {
    use core::arch::x86_64::*;
    let inv = _mm256_set1_pd(INV_LN2_N);
    let shift = _mm256_set1_pd(SHIFT);
    let kd = _mm256_fmadd_pd(inv, xd, shift);
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, shift);
    let r = _mm256_fmsub_pd(inv, xd, kd);
    let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    let tab = _mm256_i64gather_epi64::<8>(EXP2F_TABLE.as_ptr() as *const i64, idx);
    let s = _mm256_castsi256_pd(_mm256_add_epi64(tab, _mm256_slli_epi64::<47>(ki)));
    let z = _mm256_fmadd_pd(_mm256_set1_pd(C0), r, _mm256_set1_pd(C1));
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_fmadd_pd(_mm256_set1_pd(C2), r, _mm256_set1_pd(1.0));
    let y = _mm256_fmadd_pd(z, r2, y);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

/// [`expf`] on 8 `f32` lanes, special cases included.
///
/// # Safety
///
/// AVX2 and FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn expf_avx2(x: core::arch::x86_64::__m256) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    let lo = expf_core_avx2(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
    let hi = expf_core_avx2(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
    let y = _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi);
    let under = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(UNDERFLOW_BOUND));
    let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(OVERFLOW_BOUND));
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    let y = _mm256_andnot_ps(under, y);
    let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), over);
    _mm256_blendv_ps(y, _mm256_add_ps(x, x), nan)
}

/// AVX2 softmax: 8 pixels per step, one per lane.
///
/// # Safety
///
/// AVX2 and FMA must be available; `data` must hold exactly
/// `classes * pixels` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn softmax_rows_avx2(data: &mut [f32], classes: usize, pixels: usize) {
    use core::arch::x86_64::*;
    const W: usize = 8;
    let p = data.as_mut_ptr();
    let mut i = 0usize;
    while i + W <= pixels {
        let mut max = _mm256_set1_ps(f32::NEG_INFINITY);
        for k in 0..classes {
            // Loaded value first: `maxps` returns its second operand when
            // either is NaN, so a NaN logit is skipped as `f32::max` does.
            max = _mm256_max_ps(_mm256_loadu_ps(p.add(k * pixels + i)), max);
        }
        let mut sum = _mm256_setzero_ps();
        for k in 0..classes {
            let q = p.add(k * pixels + i);
            let e = expf_avx2(_mm256_sub_ps(_mm256_loadu_ps(q), max));
            _mm256_storeu_ps(q, e);
            sum = _mm256_add_ps(sum, e);
        }
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(sum, sum);
        for k in 0..classes {
            let q = p.add(k * pixels + i);
            let prob = _mm256_div_ps(_mm256_loadu_ps(q), sum);
            _mm256_storeu_ps(q, _mm256_blendv_ps(prob, _mm256_set1_ps(f32::NAN), nan));
        }
        i += W;
    }
    for i in i..pixels {
        softmax_pixel(data, classes, pixels, i);
    }
}

/// [`expf`] on 8 `f64` lanes (inputs widened from `f32`, so exact),
/// without the special cases: the AVX-512F general path. The 32-entry
/// table lives in four registers; two two-source permutes pick from its
/// halves and bit 4 of `k` chooses between them.
///
/// # Safety
///
/// AVX-512F must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn expf_core_avx512(xd: core::arch::x86_64::__m512d) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    let t = EXP2F_TABLE.as_ptr() as *const i64;
    let (t0, t1) = (_mm512_loadu_epi64(t), _mm512_loadu_epi64(t.add(8)));
    let (t2, t3) = (_mm512_loadu_epi64(t.add(16)), _mm512_loadu_epi64(t.add(24)));
    let inv = _mm512_set1_pd(INV_LN2_N);
    let shift = _mm512_set1_pd(SHIFT);
    let kd = _mm512_fmadd_pd(inv, xd, shift);
    let ki = _mm512_castpd_si512(kd);
    let kd = _mm512_sub_pd(kd, shift);
    let r = _mm512_fmsub_pd(inv, xd, kd);
    let low_half = _mm512_permutex2var_epi64(t0, ki, t1);
    let high_half = _mm512_permutex2var_epi64(t2, ki, t3);
    let upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
    let tab = _mm512_mask_blend_epi64(upper, low_half, high_half);
    let s = _mm512_castsi512_pd(_mm512_add_epi64(tab, _mm512_slli_epi64::<47>(ki)));
    let z = _mm512_fmadd_pd(_mm512_set1_pd(C0), r, _mm512_set1_pd(C1));
    let r2 = _mm512_mul_pd(r, r);
    let y = _mm512_fmadd_pd(_mm512_set1_pd(C2), r, _mm512_set1_pd(1.0));
    let y = _mm512_fmadd_pd(z, r2, y);
    _mm512_cvtpd_ps(_mm512_mul_pd(y, s))
}

/// [`expf`] on 16 `f32` lanes, special cases included.
///
/// # Safety
///
/// AVX-512F must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn expf_avx512(x: core::arch::x86_64::__m512) -> core::arch::x86_64::__m512 {
    use core::arch::x86_64::*;
    let hi_half = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(x)));
    let lo = expf_core_avx512(_mm512_cvtps_pd(_mm512_castps512_ps256(x)));
    let hi = expf_core_avx512(_mm512_cvtps_pd(hi_half));
    let y = _mm512_castpd_ps(_mm512_insertf64x4::<1>(
        _mm512_castpd256_pd512(_mm256_castps_pd(lo)),
        _mm256_castps_pd(hi),
    ));
    let under = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, _mm512_set1_ps(UNDERFLOW_BOUND));
    let over = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, _mm512_set1_ps(OVERFLOW_BOUND));
    let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
    let y = _mm512_mask_mov_ps(y, under, _mm512_setzero_ps());
    let y = _mm512_mask_mov_ps(y, over, _mm512_set1_ps(f32::INFINITY));
    _mm512_mask_add_ps(y, nan, x, x)
}

/// AVX-512F softmax: 16 pixels per step, one per lane.
///
/// # Safety
///
/// AVX-512F must be available; `data` must hold exactly
/// `classes * pixels` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn softmax_rows_avx512(data: &mut [f32], classes: usize, pixels: usize) {
    use core::arch::x86_64::*;
    const W: usize = 16;
    let p = data.as_mut_ptr();
    let mut i = 0usize;
    while i + W <= pixels {
        let mut max = _mm512_set1_ps(f32::NEG_INFINITY);
        for k in 0..classes {
            // Loaded value first: see `softmax_rows_avx2`.
            max = _mm512_max_ps(_mm512_loadu_ps(p.add(k * pixels + i)), max);
        }
        let mut sum = _mm512_setzero_ps();
        for k in 0..classes {
            let q = p.add(k * pixels + i);
            let e = expf_avx512(_mm512_sub_ps(_mm512_loadu_ps(q), max));
            _mm512_storeu_ps(q, e);
            sum = _mm512_add_ps(sum, e);
        }
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(sum, sum);
        for k in 0..classes {
            let q = p.add(k * pixels + i);
            let prob = _mm512_div_ps(_mm512_loadu_ps(q), sum);
            _mm512_storeu_ps(q, _mm512_mask_mov_ps(prob, nan, _mm512_set1_ps(f32::NAN)));
        }
        i += W;
    }
    for i in i..pixels {
        softmax_pixel(data, classes, pixels, i);
    }
}

/// [`expf`] on 2 `f64` lanes (inputs widened from `f32`, so exact),
/// without the special cases: the NEON general path.
///
/// # Safety
///
/// NEON must be available (it is on every aarch64 target).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn expf_core_neon(xd: core::arch::aarch64::float64x2_t) -> core::arch::aarch64::float32x2_t {
    use core::arch::aarch64::*;
    let inv = vdupq_n_f64(INV_LN2_N);
    let shift = vdupq_n_f64(SHIFT);
    // `vfmaq_f64(a, b, c)` is the fused `a + b·c`.
    let kd = vfmaq_f64(shift, inv, xd);
    let ki = vreinterpretq_u64_f64(kd);
    let kd = vsubq_f64(kd, shift);
    let r = vfmaq_f64(vnegq_f64(kd), inv, xd);
    let tab = vcombine_u64(
        vcreate_u64(EXP2F_TABLE[(vgetq_lane_u64::<0>(ki) % 32) as usize]),
        vcreate_u64(EXP2F_TABLE[(vgetq_lane_u64::<1>(ki) % 32) as usize]),
    );
    let s = vreinterpretq_f64_u64(vaddq_u64(tab, vshlq_n_u64::<47>(ki)));
    let z = vfmaq_f64(vdupq_n_f64(C1), vdupq_n_f64(C0), r);
    let r2 = vmulq_f64(r, r);
    let y = vfmaq_f64(vdupq_n_f64(1.0), vdupq_n_f64(C2), r);
    let y = vfmaq_f64(y, z, r2);
    vcvt_f32_f64(vmulq_f64(y, s))
}

/// [`expf`] on 4 `f32` lanes, special cases included.
///
/// # Safety
///
/// NEON must be available (it is on every aarch64 target).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn expf_neon(x: core::arch::aarch64::float32x4_t) -> core::arch::aarch64::float32x4_t {
    use core::arch::aarch64::*;
    let lo = expf_core_neon(vcvt_f64_f32(vget_low_f32(x)));
    let hi = expf_core_neon(vcvt_high_f64_f32(x));
    let y = vcombine_f32(lo, hi);
    let under = vcltq_f32(x, vdupq_n_f32(UNDERFLOW_BOUND));
    let over = vcgtq_f32(x, vdupq_n_f32(OVERFLOW_BOUND));
    let ordered = vceqq_f32(x, x);
    let y = vbslq_f32(under, vdupq_n_f32(0.0), y);
    let y = vbslq_f32(over, vdupq_n_f32(f32::INFINITY), y);
    vbslq_f32(ordered, y, vaddq_f32(x, x))
}

/// NEON softmax: 4 pixels per step, one per lane.
///
/// # Safety
///
/// `data` must hold exactly `classes * pixels` elements.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn softmax_rows_neon(data: &mut [f32], classes: usize, pixels: usize) {
    use core::arch::aarch64::*;
    const W: usize = 4;
    let p = data.as_mut_ptr();
    let mut i = 0usize;
    while i + W <= pixels {
        let mut max = vdupq_n_f32(f32::NEG_INFINITY);
        for k in 0..classes {
            // `fmaxnm` returns the number when one operand is NaN, as
            // `f32::max` does.
            max = vmaxnmq_f32(vld1q_f32(p.add(k * pixels + i)), max);
        }
        let mut sum = vdupq_n_f32(0.0);
        for k in 0..classes {
            let q = p.add(k * pixels + i);
            let e = expf_neon(vsubq_f32(vld1q_f32(q), max));
            vst1q_f32(q, e);
            sum = vaddq_f32(sum, e);
        }
        let ordered = vceqq_f32(sum, sum);
        for k in 0..classes {
            let q = p.add(k * pixels + i);
            let prob = vdivq_f32(vld1q_f32(q), sum);
            vst1q_f32(q, vbslq_f32(ordered, prob, vdupq_n_f32(f32::NAN)));
        }
        i += W;
    }
    for i in i..pixels {
        softmax_pixel(data, classes, pixels, i);
    }
}

/// Test hooks: each SIMD tier's lane-wise [`expf`] applied in place, so
/// the `expf` tests exercise the very vector code the softmax runs.
#[cfg(test)]
mod lanes {
    use crate::KernelTier;

    /// An in-place, lane-wise `expf` over a slice.
    pub(super) type ExpfLanes = fn(&mut [f32]);

    /// The in-place lane-wise `expf` of a supported `tier`.
    pub(super) fn expf_lanes(tier: KernelTier) -> ExpfLanes {
        // SAFETY (each arm below): the assert has just checked that the
        // CPU supports the tier whose target features the hook enables.
        assert!(tier.is_supported());
        match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => |xs| unsafe { avx2(xs) },
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => |xs| unsafe { avx512(xs) },
            #[cfg(target_arch = "aarch64")]
            KernelTier::Neon => |xs| unsafe { neon(xs) },
            _ => |xs| xs.iter_mut().for_each(|x| *x = super::expf(*x)),
        }
    }

    /// Every `expf` build the softmax kernels run, by name: each
    /// supported tier's lanes, plus the scalar `expf` compiled with FMA
    /// (the portable softmax's body on an FMA CPU) where the CPU has it.
    pub(super) fn expf_builds() -> Vec<(&'static str, ExpfLanes)> {
        let mut builds: Vec<(&'static str, ExpfLanes)> = KernelTier::supported()
            .into_iter()
            .map(|tier| (tier.name(), expf_lanes(tier)))
            .collect();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: FMA has just been detected.
            builds.push(("portable+fma", |xs| unsafe { scalar_fma(xs) }));
        }
        builds
    }

    /// # Safety
    ///
    /// FMA must be available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "fma")]
    unsafe fn scalar_fma(xs: &mut [f32]) {
        for x in xs {
            *x = super::expf(*x);
        }
    }

    /// Runs `xs` through `W`-lane vectors, zero-padding the last one.
    fn by_lanes<const W: usize>(xs: &mut [f32], mut exp: impl FnMut(&mut [f32; W])) {
        for chunk in xs.chunks_mut(W) {
            let mut v = [0.0f32; W];
            v[..chunk.len()].copy_from_slice(chunk);
            exp(&mut v);
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// # Safety
    ///
    /// AVX2 and FMA must be available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn avx2(xs: &mut [f32]) {
        use core::arch::x86_64::*;
        by_lanes::<8>(xs, |v| {
            _mm256_storeu_ps(
                v.as_mut_ptr(),
                super::expf_avx2(_mm256_loadu_ps(v.as_ptr())),
            )
        });
    }

    /// # Safety
    ///
    /// AVX-512F must be available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512(xs: &mut [f32]) {
        use core::arch::x86_64::*;
        by_lanes::<16>(xs, |v| {
            _mm512_storeu_ps(
                v.as_mut_ptr(),
                super::expf_avx512(_mm512_loadu_ps(v.as_ptr())),
            )
        });
    }

    /// # Safety
    ///
    /// NEON must be available.
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn neon(xs: &mut [f32]) {
        use core::arch::aarch64::*;
        by_lanes::<4>(xs, |v| {
            vst1q_f32(v.as_mut_ptr(), super::expf_neon(vld1q_f32(v.as_ptr())))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::lanes::{expf_builds, ExpfLanes};
    use super::*;

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// FNV-1a-64 of `expf(x).to_bits()` (each folded as one word) over
    /// `x = from_bits(b)` for `b` in `0x8000_0000..=0xFF80_0000` (−0 to
    /// −∞) stepping by `step`, in increasing order, through `exp` — and
    /// whether the outputs never increase along the way (`expf` is
    /// monotone over the inputs it saw).
    fn expf_hash(exp: ExpfLanes, step: usize) -> (u64, bool) {
        let (mut hash, mut monotone, mut prev) = (FNV_OFFSET, true, f32::INFINITY);
        let mut block = Vec::with_capacity(1 << 16);
        let mut inputs = (0x8000_0000u32..=0xFF80_0000).step_by(step).peekable();
        while inputs.peek().is_some() {
            block.clear();
            block.extend(inputs.by_ref().take(1 << 16).map(f32::from_bits));
            exp(&mut block);
            for &y in &block {
                hash = (hash ^ y.to_bits() as u64).wrapping_mul(FNV_PRIME);
                monotone &= y <= prev;
                prev = y;
            }
        }
        (hash, monotone)
    }

    /// All 2³¹ non-positive inputs on every `expf` build (each supported
    /// tier, and the scalar one compiled with and without FMA), against
    /// the hash of glibc's x86_64 FMA `expf` — the bits every golden was
    /// recorded with — plus monotonicity, which the seg path's softmax
    /// skip relies on. A minute or two in release:
    /// `cargo test --release -p el-kernels -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^31 inputs per tier; run in release"]
    fn expf_exhaustive_hash() {
        for (name, exp) in expf_builds() {
            let (hash, monotone) = expf_hash(exp, 1);
            assert_eq!(
                hash, 0x28e4_80b4_54d1_b098,
                "{name} expf diverges from the pinned oracle"
            );
            assert!(monotone, "{name} expf is not monotone");
        }
    }

    #[test]
    fn expf_strided_hash_and_edges() {
        for (name, exp) in expf_builds() {
            assert_eq!(
                expf_hash(exp, 4099),
                (0x44ed_d279_a6cc_f384, true),
                "{name} expf diverges on the strided subset"
            );
            // (input bits, pinned output bits)
            let cases: &[(u32, u32)] = &[
                (0x0000_0000, 0x3f80_0000), // +0 → 1
                (0x8000_0000, 0x3f80_0000), // −0 → 1
                (0xff80_0000, 0x0000_0000), // −∞ → +0
                (0x7f80_0000, 0x7f80_0000), // +∞ → +∞
                (0x42b1_7217, 0x7f7f_ff84), // the overflow bound itself
                (0x42b1_7218, 0x7f80_0000), // just above: +∞
                (0xc2cf_f1b4, 0x0000_0001), // the underflow bound: 2⁻¹⁴⁹
                (0xc2cf_f1b5, 0x0000_0000), // just below: +0
                (0xc2b0_0000, 0x0041_edc4), // −88: first special-range input
                (0xc2be_0000, 0x0000_0f64), // −95: subnormal
                (0xc2c8_0000, 0x0000_001b), // −100: subnormal
                (0xc2ce_0000, 0x0000_0001), // −103
                (0xc2d0_0000, 0x0000_0000), // −104
                // −63.09946: the one non-positive input where glibc's
                // FMA and non-FMA variants differ (non-FMA: 0x11fa2992).
                (0xc27c_65d9, 0x11fa_2993),
                (0xbf80_0000, 0x3ebc_5ab2), // −1
                (0x3f80_0000, 0x402d_f854), // +1
            ];
            let mut xs: Vec<f32> = cases.iter().map(|&(x, _)| f32::from_bits(x)).collect();
            exp(&mut xs);
            for (&(x, want), y) in cases.iter().zip(&xs) {
                assert_eq!(
                    y.to_bits(),
                    want,
                    "{name} expf({:e} = {x:#010x})",
                    f32::from_bits(x)
                );
            }
            let mut nans = [f32::NAN, -f32::NAN];
            exp(&mut nans);
            assert!(nans.iter().all(|y| y.is_nan()), "{name} expf(NaN)");
        }
    }

    /// The premise of the seg path's softmax skip (`el_seg::infer`): a
    /// logit 2⁻⁸ below the maximum gets `expf <= 0.9962`, and a gap
    /// under half an ulp of 1 rounds `expf` to exactly 1.
    #[test]
    fn expf_bounds_the_softmax_skip_guard() {
        assert!(expf(-1.0 / 256.0) < 0.9962);
        assert_eq!(expf(-(2.0f32).powi(-25)), 1.0);
        assert_eq!(expf(0.0), 1.0);
    }
}
