//! ChaCha8 block kernels, one variant per tier.
//!
//! The vendored `rand_chacha` shim refills its output buffer
//! [`BLOCKS_PER_REFILL`] blocks at a time through the dispatch table.
//! Every variant emits the blocks **in counter order**, so the keystream
//! is bit-identical to one-block-at-a-time generation — and therefore
//! identical across tiers:
//!
//! - portable: lane-array quarter rounds LLVM autovectorises,
//! - AVX2: two blocks per `ymm` via the classic in-register
//!   diagonalisation, run twice,
//! - AVX-512F: four blocks, one per 128-bit lane of the `zmm` state,
//! - NEON: per-block in-register diagonalisation.
//!
//! The nonce is zero and the counter 64-bit, matching the shim's stream
//! layout (`seed_from_u64` expansion comes from the vendored `rand`).

/// Independent ChaCha blocks generated per refill.
pub const BLOCKS_PER_REFILL: usize = 4;

/// Words per refill (`16 * BLOCKS_PER_REFILL`).
pub const REFILL_WORDS: usize = 16 * BLOCKS_PER_REFILL;

/// The ChaCha constants ("expand 32-byte k").
pub const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

const ROUNDS: usize = 8;

#[inline(always)]
#[allow(clippy::needless_range_loop)] // lane loops index four parallel rows
fn quarter_round(
    state: &mut [[u32; BLOCKS_PER_REFILL]; 16],
    a: usize,
    b: usize,
    c: usize,
    d: usize,
) {
    for l in 0..BLOCKS_PER_REFILL {
        state[a][l] = state[a][l].wrapping_add(state[b][l]);
        state[d][l] = (state[d][l] ^ state[a][l]).rotate_left(16);
    }
    for l in 0..BLOCKS_PER_REFILL {
        state[c][l] = state[c][l].wrapping_add(state[d][l]);
        state[b][l] = (state[b][l] ^ state[c][l]).rotate_left(12);
    }
    for l in 0..BLOCKS_PER_REFILL {
        state[a][l] = state[a][l].wrapping_add(state[b][l]);
        state[d][l] = (state[d][l] ^ state[a][l]).rotate_left(8);
    }
    for l in 0..BLOCKS_PER_REFILL {
        state[c][l] = state[c][l].wrapping_add(state[d][l]);
        state[b][l] = (state[b][l] ^ state[c][l]).rotate_left(7);
    }
}

/// Portable ChaCha8 core: four blocks via `[u32; 4]` lane arrays —
/// straight-line wrapping adds, xors and rotates that LLVM
/// autovectorises. The reference stream every other tier reproduces.
#[allow(clippy::needless_range_loop)] // lane loops index parallel state rows
pub fn chacha_blocks_portable(key: &[u32; 8], counter: u64, out: &mut [u32; REFILL_WORDS]) {
    let mut state = [[0u32; BLOCKS_PER_REFILL]; 16];
    for (i, &c) in CONSTANTS.iter().enumerate() {
        state[i] = [c; BLOCKS_PER_REFILL];
    }
    for (i, &k) in key.iter().enumerate() {
        state[4 + i] = [k; BLOCKS_PER_REFILL];
    }
    for l in 0..BLOCKS_PER_REFILL {
        let ctr = counter.wrapping_add(l as u64);
        state[12][l] = ctr as u32;
        state[13][l] = (ctr >> 32) as u32;
    }
    // state[14], state[15]: zero nonce.
    let initial = state;
    for _ in 0..ROUNDS / 2 {
        // Column round.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (row, init) in state.iter_mut().zip(initial.iter()) {
        for (v, i) in row.iter_mut().zip(init.iter()) {
            *v = v.wrapping_add(*i);
        }
    }
    // De-interleave: emit blocks in counter order.
    for l in 0..BLOCKS_PER_REFILL {
        for i in 0..16 {
            out[l * 16 + i] = state[i][l];
        }
    }
}

/// AVX2 ChaCha8 core: two blocks side by side in the 128-bit lanes of
/// each `ymm` state row, diagonalised in-register with per-lane word
/// rotations; two passes cover the refill. Blocks land in counter
/// order, so the stream matches the portable core bit for bit.
#[cfg(target_arch = "x86_64")]
pub(crate) fn chacha_blocks_avx2(key: &[u32; 8], counter: u64, out: &mut [u32; REFILL_WORDS]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // Safety: the dispatch table only exposes this entry on CPUs where
    // AVX2 detection succeeded.
    unsafe { chacha_blocks_avx2_inner(key, counter, out) }
}

/// # Safety
///
/// Callers must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chacha_blocks_avx2_inner(key: &[u32; 8], counter: u64, out: &mut [u32; REFILL_WORDS]) {
    use core::arch::x86_64::*;

    macro_rules! rotl {
        ($v:expr, $n:literal, $m:literal) => {
            _mm256_or_si256(_mm256_slli_epi32::<$n>($v), _mm256_srli_epi32::<$m>($v))
        };
    }
    // One whole-row quarter round: four column quarter rounds at once
    // (each 128-bit lane is an independent block).
    macro_rules! round {
        ($v0:ident, $v1:ident, $v2:ident, $v3:ident) => {
            $v0 = _mm256_add_epi32($v0, $v1);
            $v3 = rotl!(_mm256_xor_si256($v3, $v0), 16, 16);
            $v2 = _mm256_add_epi32($v2, $v3);
            $v1 = rotl!(_mm256_xor_si256($v1, $v2), 12, 20);
            $v0 = _mm256_add_epi32($v0, $v1);
            $v3 = rotl!(_mm256_xor_si256($v3, $v0), 8, 24);
            $v2 = _mm256_add_epi32($v2, $v3);
            $v1 = rotl!(_mm256_xor_si256($v1, $v2), 7, 25);
        };
    }

    for half in 0..2u64 {
        let c0 = counter.wrapping_add(2 * half);
        let c1 = c0.wrapping_add(1);
        let i0 = _mm256_setr_epi32(
            CONSTANTS[0] as i32,
            CONSTANTS[1] as i32,
            CONSTANTS[2] as i32,
            CONSTANTS[3] as i32,
            CONSTANTS[0] as i32,
            CONSTANTS[1] as i32,
            CONSTANTS[2] as i32,
            CONSTANTS[3] as i32,
        );
        let i1 = _mm256_setr_epi32(
            key[0] as i32,
            key[1] as i32,
            key[2] as i32,
            key[3] as i32,
            key[0] as i32,
            key[1] as i32,
            key[2] as i32,
            key[3] as i32,
        );
        let i2 = _mm256_setr_epi32(
            key[4] as i32,
            key[5] as i32,
            key[6] as i32,
            key[7] as i32,
            key[4] as i32,
            key[5] as i32,
            key[6] as i32,
            key[7] as i32,
        );
        let i3 = _mm256_setr_epi32(
            c0 as u32 as i32,
            (c0 >> 32) as u32 as i32,
            0,
            0,
            c1 as u32 as i32,
            (c1 >> 32) as u32 as i32,
            0,
            0,
        );
        let (mut v0, mut v1, mut v2, mut v3) = (i0, i1, i2, i3);
        for _ in 0..ROUNDS / 2 {
            // Column round on rows…
            round!(v0, v1, v2, v3);
            // …diagonalise (rotate row r left by r words, per lane)…
            v1 = _mm256_shuffle_epi32::<0x39>(v1);
            v2 = _mm256_shuffle_epi32::<0x4E>(v2);
            v3 = _mm256_shuffle_epi32::<0x93>(v3);
            // …diagonal round…
            round!(v0, v1, v2, v3);
            // …and undo the rotation.
            v1 = _mm256_shuffle_epi32::<0x93>(v1);
            v2 = _mm256_shuffle_epi32::<0x4E>(v2);
            v3 = _mm256_shuffle_epi32::<0x39>(v3);
        }
        v0 = _mm256_add_epi32(v0, i0);
        v1 = _mm256_add_epi32(v1, i1);
        v2 = _mm256_add_epi32(v2, i2);
        v3 = _mm256_add_epi32(v3, i3);
        // Low lanes are block 2*half, high lanes block 2*half + 1.
        let base = out.as_mut_ptr().add(32 * half as usize);
        _mm_storeu_si128(base.cast(), _mm256_castsi256_si128(v0));
        _mm_storeu_si128(base.add(4).cast(), _mm256_castsi256_si128(v1));
        _mm_storeu_si128(base.add(8).cast(), _mm256_castsi256_si128(v2));
        _mm_storeu_si128(base.add(12).cast(), _mm256_castsi256_si128(v3));
        _mm_storeu_si128(base.add(16).cast(), _mm256_extracti128_si256::<1>(v0));
        _mm_storeu_si128(base.add(20).cast(), _mm256_extracti128_si256::<1>(v1));
        _mm_storeu_si128(base.add(24).cast(), _mm256_extracti128_si256::<1>(v2));
        _mm_storeu_si128(base.add(28).cast(), _mm256_extracti128_si256::<1>(v3));
    }
}

/// AVX-512F ChaCha8 core: all four blocks at once, one per 128-bit lane
/// of the four `zmm` state rows, with native 32-bit rotates and
/// lane-wise diagonalisation via `vpermd`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn chacha_blocks_avx512(key: &[u32; 8], counter: u64, out: &mut [u32; REFILL_WORDS]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
    // Safety: the dispatch table only exposes this entry on CPUs where
    // AVX-512F detection succeeded.
    unsafe { chacha_blocks_avx512_inner(key, counter, out) }
}

/// # Safety
///
/// Callers must ensure AVX-512F is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn chacha_blocks_avx512_inner(key: &[u32; 8], counter: u64, out: &mut [u32; REFILL_WORDS]) {
    use core::arch::x86_64::*;

    macro_rules! round {
        ($v0:ident, $v1:ident, $v2:ident, $v3:ident) => {
            $v0 = _mm512_add_epi32($v0, $v1);
            $v3 = _mm512_rol_epi32::<16>(_mm512_xor_si512($v3, $v0));
            $v2 = _mm512_add_epi32($v2, $v3);
            $v1 = _mm512_rol_epi32::<12>(_mm512_xor_si512($v1, $v2));
            $v0 = _mm512_add_epi32($v0, $v1);
            $v3 = _mm512_rol_epi32::<8>(_mm512_xor_si512($v3, $v0));
            $v2 = _mm512_add_epi32($v2, $v3);
            $v1 = _mm512_rol_epi32::<7>(_mm512_xor_si512($v1, $v2));
        };
    }

    // Per-lane left rotations by 1, 2 and 3 words (lane = one block).
    let rot1 = _mm512_setr_epi32(1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12);
    let rot2 = _mm512_setr_epi32(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
    let rot3 = _mm512_setr_epi32(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);

    let i0 = _mm512_broadcast_i32x4(_mm_setr_epi32(
        CONSTANTS[0] as i32,
        CONSTANTS[1] as i32,
        CONSTANTS[2] as i32,
        CONSTANTS[3] as i32,
    ));
    let i1 = _mm512_broadcast_i32x4(_mm_setr_epi32(
        key[0] as i32,
        key[1] as i32,
        key[2] as i32,
        key[3] as i32,
    ));
    let i2 = _mm512_broadcast_i32x4(_mm_setr_epi32(
        key[4] as i32,
        key[5] as i32,
        key[6] as i32,
        key[7] as i32,
    ));
    let c: [u64; 4] = core::array::from_fn(|l| counter.wrapping_add(l as u64));
    let i3 = _mm512_setr_epi32(
        c[0] as u32 as i32,
        (c[0] >> 32) as u32 as i32,
        0,
        0,
        c[1] as u32 as i32,
        (c[1] >> 32) as u32 as i32,
        0,
        0,
        c[2] as u32 as i32,
        (c[2] >> 32) as u32 as i32,
        0,
        0,
        c[3] as u32 as i32,
        (c[3] >> 32) as u32 as i32,
        0,
        0,
    );
    let (mut v0, mut v1, mut v2, mut v3) = (i0, i1, i2, i3);
    for _ in 0..ROUNDS / 2 {
        round!(v0, v1, v2, v3);
        v1 = _mm512_permutexvar_epi32(rot1, v1);
        v2 = _mm512_permutexvar_epi32(rot2, v2);
        v3 = _mm512_permutexvar_epi32(rot3, v3);
        round!(v0, v1, v2, v3);
        v1 = _mm512_permutexvar_epi32(rot3, v1);
        v2 = _mm512_permutexvar_epi32(rot2, v2);
        v3 = _mm512_permutexvar_epi32(rot1, v3);
    }
    v0 = _mm512_add_epi32(v0, i0);
    v1 = _mm512_add_epi32(v1, i1);
    v2 = _mm512_add_epi32(v2, i2);
    v3 = _mm512_add_epi32(v3, i3);
    // Lane l is block l: interleave the four rows per block.
    let base = out.as_mut_ptr();
    _mm_storeu_si128(base.cast(), _mm512_extracti32x4_epi32::<0>(v0));
    _mm_storeu_si128(base.add(4).cast(), _mm512_extracti32x4_epi32::<0>(v1));
    _mm_storeu_si128(base.add(8).cast(), _mm512_extracti32x4_epi32::<0>(v2));
    _mm_storeu_si128(base.add(12).cast(), _mm512_extracti32x4_epi32::<0>(v3));
    _mm_storeu_si128(base.add(16).cast(), _mm512_extracti32x4_epi32::<1>(v0));
    _mm_storeu_si128(base.add(20).cast(), _mm512_extracti32x4_epi32::<1>(v1));
    _mm_storeu_si128(base.add(24).cast(), _mm512_extracti32x4_epi32::<1>(v2));
    _mm_storeu_si128(base.add(28).cast(), _mm512_extracti32x4_epi32::<1>(v3));
    _mm_storeu_si128(base.add(32).cast(), _mm512_extracti32x4_epi32::<2>(v0));
    _mm_storeu_si128(base.add(36).cast(), _mm512_extracti32x4_epi32::<2>(v1));
    _mm_storeu_si128(base.add(40).cast(), _mm512_extracti32x4_epi32::<2>(v2));
    _mm_storeu_si128(base.add(44).cast(), _mm512_extracti32x4_epi32::<2>(v3));
    _mm_storeu_si128(base.add(48).cast(), _mm512_extracti32x4_epi32::<3>(v0));
    _mm_storeu_si128(base.add(52).cast(), _mm512_extracti32x4_epi32::<3>(v1));
    _mm_storeu_si128(base.add(56).cast(), _mm512_extracti32x4_epi32::<3>(v2));
    _mm_storeu_si128(base.add(60).cast(), _mm512_extracti32x4_epi32::<3>(v3));
}

/// NEON ChaCha8 core: one block per pass through the classic
/// four-`v`-register diagonalisation (`ext`-based word rotations),
/// blocks in counter order.
#[cfg(target_arch = "aarch64")]
pub(crate) fn chacha_blocks_neon(key: &[u32; 8], counter: u64, out: &mut [u32; REFILL_WORDS]) {
    // Safety: NEON is unconditionally available on aarch64.
    unsafe { chacha_blocks_neon_inner(key, counter, out) }
}

/// # Safety
///
/// `out` is fully overwritten; NEON is the aarch64 baseline.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn chacha_blocks_neon_inner(key: &[u32; 8], counter: u64, out: &mut [u32; REFILL_WORDS]) {
    use core::arch::aarch64::*;

    macro_rules! rotl {
        ($v:expr, $n:literal, $m:literal) => {
            vorrq_u32(vshlq_n_u32::<$n>($v), vshrq_n_u32::<$m>($v))
        };
    }
    macro_rules! round {
        ($v0:ident, $v1:ident, $v2:ident, $v3:ident) => {
            $v0 = vaddq_u32($v0, $v1);
            $v3 = rotl!(veorq_u32($v3, $v0), 16, 16);
            $v2 = vaddq_u32($v2, $v3);
            $v1 = rotl!(veorq_u32($v1, $v2), 12, 20);
            $v0 = vaddq_u32($v0, $v1);
            $v3 = rotl!(veorq_u32($v3, $v0), 8, 24);
            $v2 = vaddq_u32($v2, $v3);
            $v1 = rotl!(veorq_u32($v1, $v2), 7, 25);
        };
    }

    for b in 0..BLOCKS_PER_REFILL {
        let ctr = counter.wrapping_add(b as u64);
        let row3: [u32; 4] = [ctr as u32, (ctr >> 32) as u32, 0, 0];
        let i0 = vld1q_u32(CONSTANTS.as_ptr());
        let i1 = vld1q_u32(key.as_ptr());
        let i2 = vld1q_u32(key.as_ptr().add(4));
        let i3 = vld1q_u32(row3.as_ptr());
        let (mut v0, mut v1, mut v2, mut v3) = (i0, i1, i2, i3);
        for _ in 0..ROUNDS / 2 {
            // Column round on rows…
            round!(v0, v1, v2, v3);
            // …diagonalise (rotate row r left by r words)…
            v1 = vextq_u32::<1>(v1, v1);
            v2 = vextq_u32::<2>(v2, v2);
            v3 = vextq_u32::<3>(v3, v3);
            // …diagonal round…
            round!(v0, v1, v2, v3);
            // …and undo the rotation.
            v1 = vextq_u32::<3>(v1, v1);
            v2 = vextq_u32::<2>(v2, v2);
            v3 = vextq_u32::<1>(v3, v3);
        }
        let base = out.as_mut_ptr().add(16 * b);
        vst1q_u32(base, vaddq_u32(v0, i0));
        vst1q_u32(base.add(4), vaddq_u32(v1, i1));
        vst1q_u32(base.add(8), vaddq_u32(v2, i2));
        vst1q_u32(base.add(12), vaddq_u32(v3, i3));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelTier, Kernels};

    #[test]
    fn every_supported_tier_streams_like_portable() {
        for tier in KernelTier::supported() {
            let kernels = Kernels::for_tier(tier).unwrap();
            for seed in 0u32..4 {
                let key: [u32; 8] = core::array::from_fn(|i| {
                    (seed + 1).wrapping_mul(0x9E37_79B9).wrapping_add(i as u32)
                });
                for counter in [0u64, 1, 3, u64::MAX - 1, u64::MAX, 1 << 33] {
                    let mut expect = [0u32; REFILL_WORDS];
                    chacha_blocks_portable(&key, counter, &mut expect);
                    let mut got = [0u32; REFILL_WORDS];
                    kernels.chacha_blocks(&key, counter, &mut got);
                    assert_eq!(
                        got,
                        expect,
                        "{} chacha diverges at counter {counter}",
                        tier.name()
                    );
                }
            }
        }
    }

    #[test]
    fn blocks_are_counter_ordered_and_distinct() {
        let key = [7u32; 8];
        let mut four = [0u32; REFILL_WORDS];
        chacha_blocks_portable(&key, 10, &mut four);
        // Generating from counter 11 must reproduce blocks 1..3 shifted.
        let mut shifted = [0u32; REFILL_WORDS];
        chacha_blocks_portable(&key, 11, &mut shifted);
        assert_eq!(&four[16..64], &shifted[..48]);
        assert_ne!(&four[..16], &four[16..32]);
    }
}
