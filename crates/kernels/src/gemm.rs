//! The register-blocked GEMM micro-kernel, one variant per tier.
//!
//! `out[m][j] = bias[m] + sum_k a[m][k] * b[rows[k] + j]`, for `j < n`:
//! `a` and `out` are row-major, and row `k` of the B operand is the
//! contiguous slice `b[rows[k]..][..n]` named by a **row table**. A
//! dense row-major B is the table `rows[k] = k · n`; a convolution over
//! a zero-padded input names each 3×3 tap's slice of that input instead,
//! so no im2col matrix is ever built. Rows may overlap and need not be
//! monotone. With `relu` set, every element is stored as [`relu`] of its
//! sum, so a ReLU layer costs no extra pass over the output.
//!
//! Every variant computes four output rows per sweep with a tier-wide
//! column tile held in registers, `k` as the innermost loop, and
//! **separate multiply and add instructions — never FMA**, which rounds
//! differently. Per output element the reduction therefore accumulates
//! over `k` strictly in table order with identical rounding on every
//! tier, which is the whole bit-exactness contract: the same invariant
//! lets the engine's convolutions reproduce the naive tap loop exactly,
//! on whatever silicon the monitor ships.
//!
//! A row remainder is the same register tile with fewer rows (the row
//! count is a const generic, so the accumulators stay in registers). A
//! column remainder is the same tile with masked loads and stores on
//! the x86 rungs; the portable and NEON tiers, whose tiles are 8
//! columns wide, finish with one scalar path (`gemm_tail`).

/// Spatial tile width of the portable micro-kernel (f32 lanes that LLVM
/// autovectorises where the ISA allows).
pub const GEMM_TILE: usize = 8;

/// The rectifier every tier applies on store: `x` if `x > 0`, else
/// `+0.0`. NaN and `-0.0` both map to `+0.0`, which is exactly what
/// the x86 `maxps(x, 0)` instruction computes; `f32::max` leaves the
/// sign of a zero to the compiler, so it is not used.
#[inline]
pub fn relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Copies one accumulator row to `dst`, rectified when `relu` is set.
#[inline]
fn store_row(dst: &mut [f32], acc: &[f32], rectify: bool) {
    if rectify {
        for (d, &v) in dst.iter_mut().zip(acc) {
            *d = relu(v);
        }
    } else {
        dst.copy_from_slice(acc);
    }
}

/// The column tail of the portable and NEON tiers: columns `j0..n`
/// (fewer than [`GEMM_TILE`]) of every output row, in one accumulator
/// array per row. Each element still starts from its bias and adds its
/// products strictly in `k` order, so the bit-exactness contract has a
/// single implementation to keep correct.
fn gemm_tail(
    a: &[f32],
    b: &[f32],
    rows: &[usize],
    bias: &[f32],
    out: &mut [f32],
    (m, n, j0): (usize, usize, usize),
    rectify: bool,
) {
    let (k_dim, cols) = (rows.len(), n - j0);
    assert!(cols < GEMM_TILE, "the tail is narrower than one tile");
    for o in 0..m {
        let mut acc = [bias[o]; GEMM_TILE];
        let acc = &mut acc[..cols];
        for (&wv, &row) in a[o * k_dim..(o + 1) * k_dim].iter().zip(rows) {
            for (s, &bv) in acc.iter_mut().zip(&b[row + j0..row + n]) {
                *s += wv * bv;
            }
        }
        store_row(&mut out[o * n + j0..(o + 1) * n], acc, rectify);
    }
}

/// The arguments of one register tile: `a`, `b`, the row table, `bias`,
/// `out`, `(o, j0, n)` (first output row, first column, columns of
/// `out`) and the rectify flag.
type Tile<'t> = (
    &'t [f32],
    &'t [f32],
    &'t [usize],
    &'t [f32],
    &'t mut [f32],
    (usize, usize, usize),
    bool,
);

/// Portable scalar-tiled micro-kernel — the reference every other tier
/// must reproduce bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_portable(
    a: &[f32],
    b: &[f32],
    rows: &[usize],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    rectify: bool,
) {
    let tiles = n / GEMM_TILE;
    for t in 0..tiles {
        let mut o = 0usize;
        while o < m {
            let tile = (a, b, rows, bias, &mut *out, (o, t * GEMM_TILE, n), rectify);
            match m - o {
                1 => portable_rows::<1>(tile),
                2 => portable_rows::<2>(tile),
                3 => portable_rows::<3>(tile),
                _ => portable_rows::<4>(tile),
            }
            o += 4;
        }
    }
    gemm_tail(a, b, rows, bias, out, (m, n, tiles * GEMM_TILE), rectify);
}

/// One portable register tile: output rows `o..o + R` by columns
/// `j0..j0 + GEMM_TILE` (a constant `R` keeps the accumulators in
/// registers).
fn portable_rows<const R: usize>((a, b, rows, bias, out, (o, j0, n), rectify): Tile) {
    let k_dim = rows.len();
    let mut acc = [[0.0f32; GEMM_TILE]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        *row = [bias[o + r]; GEMM_TILE];
    }
    let w = &a[o * k_dim..(o + R) * k_dim];
    for (k, &brow) in rows.iter().enumerate() {
        let bv: &[f32; GEMM_TILE] = b[brow + j0..brow + j0 + GEMM_TILE]
            .try_into()
            .expect("tile slice");
        for (r, row) in acc.iter_mut().enumerate() {
            let wv = w[r * k_dim + k];
            for (l, &c) in bv.iter().enumerate() {
                row[l] += wv * c;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        store_row(&mut out[(o + r) * n + j0..][..GEMM_TILE], row, rectify);
    }
}

/// AVX2 micro-kernel: 4 output rows x 16 columns held in eight `ymm`
/// accumulators. Uses `vmulps` + `vaddps` (not FMA) so every element
/// sees exactly the scalar kernel's rounding; the rectifier is
/// `vmaxps(x, 0)`, which is [`relu`] lane for lane. The last, partial
/// column tile is the same tile with masked loads and stores
/// (`vmaskmovps`), which touch no element past the last column.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bias_avx2(
    a: &[f32],
    b: &[f32],
    rows: &[usize],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    rectify: bool,
) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // Safety: the dispatch table only exposes this entry on CPUs where
    // AVX2 detection succeeded, and `Kernels::gemm_bias` checked `a`,
    // every row of the table against `b` and `out` against `m x n`.
    unsafe { gemm_bias_avx2_inner(a, b, rows, bias, out, m, n, rectify) }
}

/// # Safety
///
/// Callers must ensure AVX2 is available, `a.len() == m * rows.len()`,
/// `rows[k] + n <= b.len()` for every `k` and `out.len() == m * n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_bias_avx2_inner(
    a: &[f32],
    b: &[f32],
    rows: &[usize],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    rectify: bool,
) {
    use core::arch::x86_64::*;
    const W: usize = 16; // two ymm registers of columns
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for j0 in (0..n).step_by(W) {
        let cols = (n - j0).min(W) as i32;
        // Lane `l` of vector `v` is live when `8·v + l < cols`.
        let mask = [
            _mm256_cmpgt_epi32(_mm256_set1_epi32(cols), lanes),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(cols - 8), lanes),
        ];
        let mut o = 0usize;
        while o < m {
            let tile = (a, b, rows, bias, &mut *out, (o, j0, n), rectify);
            if cols as usize == W {
                avx2_tile::<false>(m - o, tile, mask);
            } else {
                avx2_tile::<true>(m - o, tile, mask);
            }
            o += 4;
        }
    }
}

/// Dispatches one AVX2 register tile on its row count (`rows_left`,
/// capped at 4).
///
/// # Safety
///
/// As [`avx2_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_tile<const MASKED: bool>(
    rows_left: usize,
    tile: Tile,
    mask: [core::arch::x86_64::__m256i; 2],
) {
    match rows_left {
        1 => avx2_rows::<1, MASKED>(tile, mask),
        2 => avx2_rows::<2, MASKED>(tile, mask),
        3 => avx2_rows::<3, MASKED>(tile, mask),
        _ => avx2_rows::<4, MASKED>(tile, mask),
    }
}

/// One AVX2 register tile: output rows `o..o + R` by columns
/// `j0..j0 + 16`, in `2·R` `ymm` accumulators (a constant `R` keeps
/// them in registers). `MASKED` tiles load and store only the lanes
/// `mask` keeps.
///
/// # Safety
///
/// As [`gemm_bias_avx2_inner`], and `o + R <= m`; `j0 + 16 <= n` unless
/// `MASKED`, in which case `mask` keeps exactly the columns below `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_rows<const R: usize, const MASKED: bool>(
    (a, b, rows, bias, out, (o, j0, n), rectify): Tile,
    mask: [core::arch::x86_64::__m256i; 2],
) {
    use core::arch::x86_64::*;
    let k_dim = rows.len();
    let zero = _mm256_setzero_ps();
    // acc[r][0/1]: columns j0..j0+8 / j0+8..j0+16 of output row o+r.
    let mut acc = [[zero; 2]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        let bv = _mm256_set1_ps(bias[o + r]);
        *row = [bv, bv];
    }
    let ap = a.as_ptr().add(o * k_dim);
    for (k, &brow) in rows.iter().enumerate() {
        // `wrapping_add`: a masked tile's second vector may start past
        // the end of `b`; no masked-off lane is accessed.
        let bp = b.as_ptr().wrapping_add(brow + j0);
        let (b0, b1) = if MASKED {
            (
                _mm256_maskload_ps(bp, mask[0]),
                _mm256_maskload_ps(bp.wrapping_add(8), mask[1]),
            )
        } else {
            (_mm256_loadu_ps(bp), _mm256_loadu_ps(bp.add(8)))
        };
        for (r, row) in acc.iter_mut().enumerate() {
            let wv = _mm256_set1_ps(*ap.add(r * k_dim + k));
            row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(wv, b0));
            row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(wv, b1));
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let (mut v0, mut v1) = (row[0], row[1]);
        if rectify {
            v0 = _mm256_max_ps(v0, zero);
            v1 = _mm256_max_ps(v1, zero);
        }
        let op = out.as_mut_ptr().wrapping_add((o + r) * n + j0);
        if MASKED {
            _mm256_maskstore_ps(op, mask[0], v0);
            _mm256_maskstore_ps(op.wrapping_add(8), mask[1], v1);
        } else {
            _mm256_storeu_ps(op, v0);
            _mm256_storeu_ps(op.add(8), v1);
        }
    }
}

/// AVX-512F micro-kernel: 4 output rows x 32 columns held in eight
/// `zmm` accumulators. `vmulps` + `vaddps`, never FMA; the rectifier is
/// `vmaxps(x, 0)`, which is [`relu`] lane for lane. The last, partial
/// column tile is the same tile with `k`-masked loads and stores, which
/// touch no element past the last column.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bias_avx512(
    a: &[f32],
    b: &[f32],
    rows: &[usize],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    rectify: bool,
) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
    // Safety: the dispatch table only exposes this entry on CPUs where
    // AVX-512F detection succeeded, and `Kernels::gemm_bias` checked
    // `a`, every row of the table against `b` and `out` against `m x n`.
    unsafe { gemm_bias_avx512_inner(a, b, rows, bias, out, m, n, rectify) }
}

/// # Safety
///
/// Callers must ensure AVX-512F is available, `a.len() == m * rows.len()`,
/// `rows[k] + n <= b.len()` for every `k` and `out.len() == m * n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_bias_avx512_inner(
    a: &[f32],
    b: &[f32],
    rows: &[usize],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    rectify: bool,
) {
    const W: usize = 32; // two zmm registers of columns
    for j0 in (0..n).step_by(W) {
        // Bit `l` of the mask pair is live when column `j0 + l < n`
        // (only a partial tile reads it).
        let live = u32::MAX >> (W - (n - j0).min(W));
        let mask = [live as u16, (live >> 16) as u16];
        let mut o = 0usize;
        while o < m {
            let tile = (a, b, rows, bias, &mut *out, (o, j0, n), rectify);
            if n - j0 >= W {
                avx512_tile::<false>(m - o, tile, mask);
            } else {
                avx512_tile::<true>(m - o, tile, mask);
            }
            o += 4;
        }
    }
}

/// Dispatches one AVX-512F register tile on its row count (`rows_left`,
/// capped at 4).
///
/// # Safety
///
/// As [`avx512_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_tile<const MASKED: bool>(rows_left: usize, tile: Tile, mask: [u16; 2]) {
    match rows_left {
        1 => avx512_rows::<1, MASKED>(tile, mask),
        2 => avx512_rows::<2, MASKED>(tile, mask),
        3 => avx512_rows::<3, MASKED>(tile, mask),
        _ => avx512_rows::<4, MASKED>(tile, mask),
    }
}

/// One AVX-512F register tile: output rows `o..o + R` by columns
/// `j0..j0 + 32`, in `2·R` `zmm` accumulators (a constant `R` keeps
/// them in registers). `MASKED` tiles load and store only the lanes
/// `mask` keeps; full tiles use plain loads and stores, which measured
/// 10–15% faster on the paper's block shapes.
///
/// # Safety
///
/// As [`gemm_bias_avx512_inner`], and `o + R <= m`; `j0 + 32 <= n`
/// unless `MASKED`, in which case `mask` keeps exactly the columns
/// below `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_rows<const R: usize, const MASKED: bool>(
    (a, b, rows, bias, out, (o, j0, n), rectify): Tile,
    mask: [u16; 2],
) {
    use core::arch::x86_64::*;
    let k_dim = rows.len();
    let zero = _mm512_setzero_ps();
    let mut acc = [[zero; 2]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        let bv = _mm512_set1_ps(bias[o + r]);
        *row = [bv, bv];
    }
    let ap = a.as_ptr().add(o * k_dim);
    for (k, &brow) in rows.iter().enumerate() {
        // `wrapping_add`: a partial tile's second vector may start past
        // the end of `b`; masked-off lanes are never accessed.
        let bp = b.as_ptr().wrapping_add(brow + j0);
        let (b0, b1) = if MASKED {
            (
                _mm512_maskz_loadu_ps(mask[0], bp),
                _mm512_maskz_loadu_ps(mask[1], bp.wrapping_add(16)),
            )
        } else {
            (_mm512_loadu_ps(bp), _mm512_loadu_ps(bp.add(16)))
        };
        for (r, row) in acc.iter_mut().enumerate() {
            let wv = _mm512_set1_ps(*ap.add(r * k_dim + k));
            row[0] = _mm512_add_ps(row[0], _mm512_mul_ps(wv, b0));
            row[1] = _mm512_add_ps(row[1], _mm512_mul_ps(wv, b1));
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let (mut v0, mut v1) = (row[0], row[1]);
        if rectify {
            v0 = _mm512_max_ps(v0, zero);
            v1 = _mm512_max_ps(v1, zero);
        }
        let op = out.as_mut_ptr().wrapping_add((o + r) * n + j0);
        if MASKED {
            _mm512_mask_storeu_ps(op, mask[0], v0);
            _mm512_mask_storeu_ps(op.wrapping_add(16), mask[1], v1);
        } else {
            _mm512_storeu_ps(op, v0);
            _mm512_storeu_ps(op.add(16), v1);
        }
    }
}

/// NEON micro-kernel: 4 output rows x 8 columns in eight `v` register
/// accumulators (NEON is the aarch64 baseline — no runtime detection
/// needed). `fmul` + `fadd`, **never** `fmla`, which fuses and rounds
/// differently from the portable reference. The rectifier is a
/// `fcmgt`/`bsl` select, not `fmax`, which would propagate NaN.
#[cfg(target_arch = "aarch64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bias_neon(
    a: &[f32],
    b: &[f32],
    rows: &[usize],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    rectify: bool,
) {
    // Safety: NEON is unconditionally available on aarch64, and
    // `Kernels::gemm_bias` checked every row of the table against `b`
    // and `out` against `m x n`.
    unsafe { gemm_bias_neon_inner(a, b, rows, bias, out, m, n, rectify) }
}

/// # Safety
///
/// `a.len() == m * rows.len()`, `rows[k] + n <= b.len()` for every `k`
/// and `out.len() == m * n`.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_bias_neon_inner(
    a: &[f32],
    b: &[f32],
    rows: &[usize],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    rectify: bool,
) {
    const W: usize = 8; // two q registers of columns
    let tiles = n / W;
    for t in 0..tiles {
        let mut o = 0usize;
        while o < m {
            let tile = (a, b, rows, bias, &mut *out, (o, t * W, n), rectify);
            match m - o {
                1 => neon_rows::<1>(tile),
                2 => neon_rows::<2>(tile),
                3 => neon_rows::<3>(tile),
                _ => neon_rows::<4>(tile),
            }
            o += 4;
        }
    }
    gemm_tail(a, b, rows, bias, out, (m, n, tiles * W), rectify);
}

/// One NEON register tile: output rows `o..o + R` by columns
/// `j0..j0 + 8`, in `2·R` `v` accumulators.
///
/// # Safety
///
/// As [`gemm_bias_neon_inner`], and `o + R <= m`, `j0 + 8 <= n`.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn neon_rows<const R: usize>((a, b, rows, bias, out, (o, j0, n), rectify): Tile) {
    use core::arch::aarch64::*;
    let k_dim = rows.len();
    let zero = vdupq_n_f32(0.0);
    let mut acc = [[zero; 2]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        let bv = vdupq_n_f32(bias[o + r]);
        *row = [bv, bv];
    }
    let ap = a.as_ptr().add(o * k_dim);
    for (k, &brow) in rows.iter().enumerate() {
        let bp = b.as_ptr().add(brow + j0);
        let b0 = vld1q_f32(bp);
        let b1 = vld1q_f32(bp.add(4));
        for (r, row) in acc.iter_mut().enumerate() {
            let wv = vdupq_n_f32(*ap.add(r * k_dim + k));
            row[0] = vaddq_f32(row[0], vmulq_f32(wv, b0));
            row[1] = vaddq_f32(row[1], vmulq_f32(wv, b1));
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let (mut v0, mut v1) = (row[0], row[1]);
        if rectify {
            v0 = vbslq_f32(vcgtq_f32(v0, zero), v0, zero);
            v1 = vbslq_f32(vcgtq_f32(v1, zero), v1, zero);
        }
        let op = out.as_mut_ptr().add((o + r) * n + j0);
        vst1q_f32(op, v0);
        vst1q_f32(op.add(4), v1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelTier, Kernels};

    /// Naive triple loop over a row table — even simpler than the
    /// portable kernel, used to pin the portable kernel itself.
    fn gemm_naive(
        a: &[f32],
        b: &[f32],
        rows: &[usize],
        bias: &[f32],
        m: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for o in 0..m {
            for j in 0..n {
                let mut acc = bias[o];
                for (k, &row) in rows.iter().enumerate() {
                    acc += a[o * rows.len() + k] * b[row + j];
                }
                out[o * n + j] = acc;
            }
        }
        out
    }

    fn fill(seed: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (((seed * 31 + i) as f32) * 0.137).sin())
            .collect()
    }

    /// The dense table `rows[k] = k · n`.
    fn dense(k_dim: usize, n: usize) -> Vec<usize> {
        (0..k_dim).map(|k| k * n).collect()
    }

    #[test]
    fn portable_matches_naive() {
        for (m, k_dim, n) in [(1, 1, 1), (4, 9, 8), (5, 27, 17), (3, 18, 33), (7, 2, 64)] {
            let a = fill(1, m * k_dim);
            let b = fill(2, k_dim * n);
            let rows = dense(k_dim, n);
            let bias = fill(3, m);
            let mut out = vec![0.0f32; m * n];
            gemm_bias_portable(&a, &b, &rows, &bias, &mut out, m, n, false);
            assert_eq!(
                out,
                gemm_naive(&a, &b, &rows, &bias, m, n),
                "{m}x{k_dim}x{n}"
            );
            // Reversed, overlapping rows: the table order is the `k` order.
            let rows: Vec<usize> = (0..k_dim).rev().map(|k| k * n / 2).collect();
            gemm_bias_portable(&a, &b, &rows, &bias, &mut out, m, n, true);
            let expect: Vec<f32> = gemm_naive(&a, &b, &rows, &bias, m, n)
                .into_iter()
                .map(relu)
                .collect();
            assert_eq!(out, expect, "{m}x{k_dim}x{n} reversed");
        }
    }

    #[test]
    fn relu_maps_nan_and_negative_zero_to_positive_zero() {
        for (x, y) in [
            (f32::NAN, 0.0f32),
            (-0.0, 0.0),
            (0.0, 0.0),
            (f32::NEG_INFINITY, 0.0),
            (f32::INFINITY, f32::INFINITY),
            (-1.5, 0.0),
            (2.5, 2.5),
        ] {
            assert_eq!(relu(x).to_bits(), y.to_bits(), "relu({x})");
        }
    }

    #[test]
    fn every_supported_tier_matches_portable() {
        for tier in KernelTier::supported() {
            let kernels = Kernels::for_tier(tier).unwrap();
            for (m, k_dim, n) in [
                (1, 1, 1),
                (4, 9, 8),
                (5, 27, 17),
                (6, 45, 100),
                (3, 18, 33),
                (13, 7, 130),
            ] {
                let a = fill(4, m * k_dim);
                let b = fill(5, k_dim * n);
                let rows = dense(k_dim, n);
                let bias = fill(6, m);
                for rectify in [false, true] {
                    let mut expect = vec![0.0f32; m * n];
                    gemm_bias_portable(&a, &b, &rows, &bias, &mut expect, m, n, rectify);
                    let mut out = vec![0.0f32; m * n];
                    kernels.gemm_bias(&a, &b, &rows, &bias, &mut out, m, n, rectify);
                    assert!(
                        out.iter()
                            .zip(&expect)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{} diverges from portable on {m}x{k_dim}x{n} (relu {rectify})",
                        tier.name()
                    );
                }
            }
        }
    }
}
