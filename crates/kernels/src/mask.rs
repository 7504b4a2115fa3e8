//! The coordinate-keyed Monte-Carlo mask hash and its row kernels.
//!
//! Each dropout mask bit is a pure hash of
//! `(sample_seed, layer, channel, y, x)` — never a sequential RNG draw —
//! which is what makes tiled Bayesian inference bit-identical to
//! whole-frame inference and batched verification bit-identical to
//! per-crop verification (see `el_nn::layers::Dropout`). The hash
//! splits in two:
//!
//! - [`keyed_row_seed`]: SplitMix64 finalisation over the per-sample
//!   seed and the row's `(layer, channel, y)` — 64-bit mixing, once per
//!   row.
//! - [`keyed_mask_word`]: the Murmur3 finaliser over the row seed and
//!   the column index — all 32-bit lane-wise mixing, once per element.
//!   This is the Monte-Carlo engine's single hottest operation, and the
//!   per-tier row kernels here evaluate it 4/8/16 lanes at a time.
//!
//! Every tier computes the identical integer hash and the identical
//! `src * scale * keep` float expression (multiplications in the same
//! order, `keep` an exact 0.0/1.0), so masked rows agree with the
//! portable kernel bit for bit — signed zeros included.

/// The per-row seed of the coordinate-keyed Monte-Carlo masks: a
/// SplitMix64 finalisation of the per-sample seed and the row's
/// `(layer, channel, y)` coordinates.
///
/// The coordinates pack injectively for `layer < 64`, `channel < 2^18`
/// and `y < 2^20` — comfortably beyond any frame this engine sees (the
/// paper's largest is 3840x2160). The row seed feeds
/// [`keyed_mask_word`], whose 32-bit mixing is what lets the per-row
/// mask loop vectorise; splitting the hash this way keeps the expensive
/// 64-bit mixing off the per-element path without giving up the
/// full-width avalanche across rows.
#[inline(always)]
pub fn keyed_row_seed(sample_seed: u64, layer: u32, channel: usize, y: usize) -> u32 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    debug_assert!(layer < 64 && channel < (1 << 18) && y < (1 << 20));
    let key = ((layer as u64) << 58) ^ ((channel as u64) << 40) ^ ((y as u64) << 20);
    let mut z = sample_seed ^ key.wrapping_mul(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 32) as u32
}

/// The coordinate-keyed Monte-Carlo mask word for global column `x` of
/// a row keyed by [`keyed_row_seed`]: the Murmur3 finaliser over the
/// row seed and the column index.
///
/// Because the word is a pure function of
/// `(sample_seed, layer, channel, y, x)`, a mask drawn through any
/// crop, tile or batch layout agrees with the mask the whole frame
/// would draw at the same global position. All mixing is 32-bit and
/// lane-wise — exactly what the SIMD row kernels evaluate in parallel.
#[inline(always)]
pub fn keyed_mask_word(row_seed: u32, x: usize) -> u32 {
    let mut h = row_seed ^ (x as u32).wrapping_mul(0x9E37_79B9);
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^ (h >> 16)
}

/// The exact `Rng::gen::<f32>()` conversion (24 mantissa bits in
/// `[0, 1)`), applied to a pre-drawn word so every masking path samples
/// the identical keep/drop stream.
#[inline(always)]
pub fn unit_f32(raw: u32) -> f32 {
    (raw >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Portable row kernel: `dst[x] = src[x] * scale * keep(gx0 + x)` — the
/// reference every SIMD tier must reproduce bit for bit.
pub fn mask_scale_row_portable(
    row_seed: u32,
    gx0: usize,
    rate: f32,
    scale: f32,
    src: &[f32],
    dst: &mut [f32],
) {
    for (x, (d, &s)) in dst.iter_mut().zip(src).enumerate() {
        let word = keyed_mask_word(row_seed, gx0 + x);
        let keep = (unit_f32(word) >= rate) as u32 as f32;
        *d = s * scale * keep;
    }
}

/// Portable in-place row kernel: `row[x] *= scale * keep(gx0 + x)`.
///
/// `keep` is exactly 0.0 or 1.0 and `scale > 0`, so
/// `v * (scale * keep)` and `(v * scale) * keep` are bit-identical
/// (signed zeros included) — the SIMD tiers use the latter form for
/// both the copying and the in-place kernels.
pub fn mask_scale_row_in_place_portable(
    row_seed: u32,
    gx0: usize,
    rate: f32,
    scale: f32,
    row: &mut [f32],
) {
    for (x, v) in row.iter_mut().enumerate() {
        let word = keyed_mask_word(row_seed, gx0 + x);
        let keep = (unit_f32(word) >= rate) as u32 as f32;
        *v *= scale * keep;
    }
}

/// Scalar masking of elements `x0..len` through raw pointers — the
/// NEON row kernel's vector-width remainder (`src` and `dst` may alias
/// for the in-place kernel). The x86 rungs finish a row with one masked
/// vector iteration instead.
///
/// # Safety
///
/// `src` and `dst` must be valid for `len` reads/writes.
#[cfg(target_arch = "aarch64")]
#[allow(clippy::too_many_arguments)]
unsafe fn mask_tail_scalar(
    row_seed: u32,
    gx0: usize,
    rate: f32,
    scale: f32,
    src: *const f32,
    dst: *mut f32,
    x0: usize,
    len: usize,
) {
    for x in x0..len {
        let word = keyed_mask_word(row_seed, gx0 + x);
        let keep = (unit_f32(word) >= rate) as u32 as f32;
        *dst.add(x) = *src.add(x) * scale * keep;
    }
}

macro_rules! simd_entry_pair {
    ($copy:ident, $in_place:ident, $inner:ident, $doc_tier:literal) => {
        #[doc = concat!($doc_tier, " row kernel (copying form).")]
        #[doc = ""]
        #[doc = "Crate-private: reachable only through the feature-checked"]
        #[doc = "dispatch table, which is what makes the entry safe."]
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        pub(crate) fn $copy(
            row_seed: u32,
            gx0: usize,
            rate: f32,
            scale: f32,
            src: &[f32],
            dst: &mut [f32],
        ) {
            debug_assert_eq!(src.len(), dst.len());
            // Safety: tier availability is guaranteed by the dispatch
            // table; the pointers cover exactly the slices.
            unsafe {
                $inner(
                    row_seed,
                    gx0,
                    rate,
                    scale,
                    src.as_ptr(),
                    dst.as_mut_ptr(),
                    dst.len(),
                )
            }
        }

        #[doc = concat!($doc_tier, " row kernel (in-place form).")]
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        pub(crate) fn $in_place(row_seed: u32, gx0: usize, rate: f32, scale: f32, row: &mut [f32]) {
            let p = row.as_mut_ptr();
            // Safety: as above; `src == dst` aliasing is explicitly
            // supported by the inner kernel (pure lane-wise load/store).
            unsafe { $inner(row_seed, gx0, rate, scale, p, p, row.len()) }
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_entry_pair!(
    mask_scale_row_avx2,
    mask_scale_row_in_place_avx2,
    mask_rows_avx2,
    "AVX2"
);
#[cfg(target_arch = "x86_64")]
simd_entry_pair!(
    mask_scale_row_avx512,
    mask_scale_row_in_place_avx512,
    mask_rows_avx512,
    "AVX-512F"
);
#[cfg(target_arch = "aarch64")]
simd_entry_pair!(
    mask_scale_row_neon,
    mask_scale_row_in_place_neon,
    mask_rows_neon,
    "NEON"
);

/// AVX2 row kernel: 8 mask words per step; a row's last partial vector
/// goes through `vmaskmovps`, so no element past `len` is read or
/// written.
///
/// # Safety
///
/// AVX2 must be available; `src`/`dst` valid for `len` (aliasing
/// allowed).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mask_rows_avx2(
    row_seed: u32,
    gx0: usize,
    rate: f32,
    scale: f32,
    src: *const f32,
    dst: *mut f32,
    len: usize,
) {
    use core::arch::x86_64::*;
    const W: usize = 8;
    let seed_v = _mm256_set1_epi32(row_seed as i32);
    let golden = _mm256_set1_epi32(0x9E37_79B9u32 as i32);
    let c1 = _mm256_set1_epi32(0x85EB_CA6Bu32 as i32);
    let c2 = _mm256_set1_epi32(0xC2B2_AE35u32 as i32);
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let rate_v = _mm256_set1_ps(rate);
    let scale_v = _mm256_set1_ps(scale);
    let one = _mm256_set1_ps(1.0);
    let to_unit = _mm256_set1_ps(1.0 / (1u32 << 24) as f32);
    let mut x = 0usize;
    while x < len {
        let base = (gx0 as u32).wrapping_add(x as u32);
        let idx = _mm256_add_epi32(_mm256_set1_epi32(base as i32), lanes);
        let mut h = _mm256_xor_si256(seed_v, _mm256_mullo_epi32(idx, golden));
        h = _mm256_xor_si256(h, _mm256_srli_epi32::<16>(h));
        h = _mm256_mullo_epi32(h, c1);
        h = _mm256_xor_si256(h, _mm256_srli_epi32::<13>(h));
        h = _mm256_mullo_epi32(h, c2);
        h = _mm256_xor_si256(h, _mm256_srli_epi32::<16>(h));
        let f = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_srli_epi32::<8>(h)), to_unit);
        let keep = _mm256_and_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(f, rate_v), one);
        if x + W <= len {
            let t = _mm256_mul_ps(_mm256_loadu_ps(src.add(x)), scale_v);
            _mm256_storeu_ps(dst.add(x), _mm256_mul_ps(t, keep));
        } else {
            // Lanes `0..len - x` live: masked-off lanes load 0.0 and are
            // never stored.
            let live = _mm256_cmpgt_epi32(_mm256_set1_epi32((len - x) as i32), lanes);
            let t = _mm256_mul_ps(_mm256_maskload_ps(src.add(x), live), scale_v);
            _mm256_maskstore_ps(dst.add(x), live, _mm256_mul_ps(t, keep));
        }
        x += W;
    }
}

/// AVX-512F row kernel: 16 mask words per step under a `k` mask that
/// covers the row's last partial vector too, so no element past `len`
/// is read or written.
///
/// # Safety
///
/// AVX-512F must be available; `src`/`dst` valid for `len` (aliasing
/// allowed).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mask_rows_avx512(
    row_seed: u32,
    gx0: usize,
    rate: f32,
    scale: f32,
    src: *const f32,
    dst: *mut f32,
    len: usize,
) {
    use core::arch::x86_64::*;
    const W: usize = 16;
    let seed_v = _mm512_set1_epi32(row_seed as i32);
    let golden = _mm512_set1_epi32(0x9E37_79B9u32 as i32);
    let c1 = _mm512_set1_epi32(0x85EB_CA6Bu32 as i32);
    let c2 = _mm512_set1_epi32(0xC2B2_AE35u32 as i32);
    let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let rate_v = _mm512_set1_ps(rate);
    let scale_v = _mm512_set1_ps(scale);
    let one = _mm512_set1_ps(1.0);
    let to_unit = _mm512_set1_ps(1.0 / (1u32 << 24) as f32);
    let mut x = 0usize;
    while x < len {
        let live: __mmask16 = if len - x >= W {
            !0
        } else {
            (1 << (len - x)) - 1
        };
        let base = (gx0 as u32).wrapping_add(x as u32);
        let idx = _mm512_add_epi32(_mm512_set1_epi32(base as i32), lanes);
        let mut h = _mm512_xor_si512(seed_v, _mm512_mullo_epi32(idx, golden));
        h = _mm512_xor_si512(h, _mm512_srli_epi32::<16>(h));
        h = _mm512_mullo_epi32(h, c1);
        h = _mm512_xor_si512(h, _mm512_srli_epi32::<13>(h));
        h = _mm512_mullo_epi32(h, c2);
        h = _mm512_xor_si512(h, _mm512_srli_epi32::<16>(h));
        let f = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_srli_epi32::<8>(h)), to_unit);
        let keep = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_GE_OQ>(f, rate_v), one);
        let t = _mm512_mul_ps(_mm512_maskz_loadu_ps(live, src.add(x)), scale_v);
        _mm512_mask_storeu_ps(dst.add(x), live, _mm512_mul_ps(t, keep));
        x += W;
    }
}

/// NEON row kernel: 4 mask words per step.
///
/// # Safety
///
/// `src`/`dst` valid for `len` reads/writes (aliasing allowed).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn mask_rows_neon(
    row_seed: u32,
    gx0: usize,
    rate: f32,
    scale: f32,
    src: *const f32,
    dst: *mut f32,
    len: usize,
) {
    use core::arch::aarch64::*;
    const W: usize = 4;
    let seed_v = vdupq_n_u32(row_seed);
    let golden = vdupq_n_u32(0x9E37_79B9);
    let c1 = vdupq_n_u32(0x85EB_CA6B);
    let c2 = vdupq_n_u32(0xC2B2_AE35);
    let lane_offsets: [u32; 4] = [0, 1, 2, 3];
    let lanes = vld1q_u32(lane_offsets.as_ptr());
    let rate_v = vdupq_n_f32(rate);
    let scale_v = vdupq_n_f32(scale);
    let one = vdupq_n_f32(1.0);
    let to_unit = vdupq_n_f32(1.0 / (1u32 << 24) as f32);
    let mut x = 0usize;
    while x + W <= len {
        let base = (gx0 as u32).wrapping_add(x as u32);
        let idx = vaddq_u32(vdupq_n_u32(base), lanes);
        let mut h = veorq_u32(seed_v, vmulq_u32(idx, golden));
        h = veorq_u32(h, vshrq_n_u32::<16>(h));
        h = vmulq_u32(h, c1);
        h = veorq_u32(h, vshrq_n_u32::<13>(h));
        h = vmulq_u32(h, c2);
        h = veorq_u32(h, vshrq_n_u32::<16>(h));
        let f = vmulq_f32(vcvtq_f32_u32(vshrq_n_u32::<8>(h)), to_unit);
        let keep_mask = vcgeq_f32(f, rate_v);
        let keep = vreinterpretq_f32_u32(vandq_u32(keep_mask, vreinterpretq_u32_f32(one)));
        let t = vmulq_f32(vld1q_f32(src.add(x)), scale_v);
        vst1q_f32(dst.add(x), vmulq_f32(t, keep));
        x += W;
    }
    mask_tail_scalar(row_seed, gx0, rate, scale, src, dst, x, len);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelTier, Kernels};

    #[test]
    fn hash_splits_are_stable() {
        // Pinned values: the mask stream is part of the persisted-model
        // contract (changing it silently would change every Monte-Carlo
        // verdict).
        let rs = keyed_row_seed(0xDEAD_BEEF, 3, 17, 250);
        assert_eq!(rs, keyed_row_seed(0xDEAD_BEEF, 3, 17, 250));
        assert_ne!(rs, keyed_row_seed(0xDEAD_BEEF, 3, 17, 251));
        assert_ne!(keyed_mask_word(rs, 0), keyed_mask_word(rs, 1));
    }

    #[test]
    fn every_supported_tier_masks_like_portable() {
        for tier in KernelTier::supported() {
            let kernels = Kernels::for_tier(tier).unwrap();
            for (len, gx0, seed) in [(1usize, 0usize, 1u32), (7, 3, 2), (16, 1, 3), (67, 129, 4)] {
                let src: Vec<f32> = (0..len)
                    .map(|i| ((i as f32) * 0.37 - 5.0).sin() - 0.5)
                    .collect();
                let mut expect = vec![0.0f32; len];
                mask_scale_row_portable(seed, gx0, 0.5, 2.0, &src, &mut expect);
                let mut got = vec![0.0f32; len];
                kernels.mask_scale_row(seed, gx0, 0.5, 2.0, &src, &mut got);
                let same = got
                    .iter()
                    .zip(&expect)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{} mask row diverges (len {len})", tier.name());
                let mut in_place = src.clone();
                kernels.mask_scale_row_in_place(seed, gx0, 0.5, 2.0, &mut in_place);
                let same = in_place
                    .iter()
                    .zip(&expect)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{} in-place mask diverges (len {len})", tier.name());
            }
        }
    }

    #[test]
    fn in_place_matches_copy_bitwise_including_signed_zero() {
        // Negative inputs dropped by the mask must produce -0.0 on both
        // forms (the documented signed-zero equivalence).
        let src: Vec<f32> = (0..64).map(|i| -(i as f32) - 1.0).collect();
        let mut copied = vec![0.0f32; src.len()];
        mask_scale_row_portable(9, 0, 0.5, 2.0, &src, &mut copied);
        let mut in_place = src.clone();
        mask_scale_row_in_place_portable(9, 0, 0.5, 2.0, &mut in_place);
        assert!(copied.iter().any(|v| v.to_bits() == (-0.0f32).to_bits()));
        assert!(copied
            .iter()
            .zip(&in_place)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
