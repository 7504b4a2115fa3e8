//! The register-blocked GEMM micro-kernel, one variant per tier.
//!
//! `out[m][n] = bias[m] + sum_k a[m][k] * b[k][n]`, all matrices
//! row-major. Every variant computes four output rows per sweep with a
//! tier-wide column tile held in registers, `k` as the innermost loop,
//! and **separate multiply and add instructions — never FMA**, which
//! rounds differently. Per output element the reduction therefore
//! accumulates over `k` strictly in order with identical rounding on
//! every tier, which is the whole bit-exactness contract: the same
//! invariant lets the engine's im2col convolutions reproduce the naive
//! tap loop exactly, on whatever silicon the monitor ships.
//!
//! Column and row remainders share one scalar path
//! ([`gemm_cols_scalar`]) so the contract has a single implementation
//! to keep correct.

/// Spatial tile width of the portable micro-kernel (f32 lanes that LLVM
/// autovectorises where the ISA allows).
pub const GEMM_TILE: usize = 8;

/// Scalar accumulation of output columns `j0..n` for rows
/// `o..o + block` — the shared remainder path of every micro-kernel.
/// Same strict `k` order, so the bit-exactness contract has a single
/// implementation to keep correct.
#[allow(clippy::too_many_arguments)]
fn gemm_cols_scalar(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    o: usize,
    block: usize,
    k_dim: usize,
    n: usize,
    j0: usize,
) {
    for r in 0..block {
        let w_row = &a[(o + r) * k_dim..(o + r + 1) * k_dim];
        for j in j0..n {
            let mut accv = bias[o + r];
            for (k, &wv) in w_row.iter().enumerate() {
                accv += wv * b[k * n + j];
            }
            out[(o + r) * n + j] = accv;
        }
    }
}

/// Portable scalar-tiled micro-kernel — the reference every other tier
/// must reproduce bit for bit.
pub fn gemm_bias_portable(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k_dim: usize,
    n: usize,
) {
    let tiles = n / GEMM_TILE;
    let tail = tiles * GEMM_TILE;
    for t in 0..tiles {
        let j0 = t * GEMM_TILE;
        let mut o = 0usize;
        while o < m {
            let block = (m - o).min(4);
            let w_base = o * k_dim;
            let mut acc = [[0.0f32; GEMM_TILE]; 4];
            for (r, row) in acc.iter_mut().enumerate().take(block) {
                *row = [bias[o + r]; GEMM_TILE];
            }
            for k in 0..k_dim {
                let brow: &[f32; GEMM_TILE] = b[k * n + j0..k * n + j0 + GEMM_TILE]
                    .try_into()
                    .expect("tile slice");
                match block {
                    4 => {
                        let w0 = a[w_base + k];
                        let w1 = a[w_base + k_dim + k];
                        let w2 = a[w_base + 2 * k_dim + k];
                        let w3 = a[w_base + 3 * k_dim + k];
                        for (l, &c) in brow.iter().enumerate() {
                            acc[0][l] += w0 * c;
                            acc[1][l] += w1 * c;
                            acc[2][l] += w2 * c;
                            acc[3][l] += w3 * c;
                        }
                    }
                    _ => {
                        for r in 0..block {
                            let wv = a[w_base + r * k_dim + k];
                            for (l, &c) in brow.iter().enumerate() {
                                acc[r][l] += wv * c;
                            }
                        }
                    }
                }
            }
            for (r, row) in acc.iter().enumerate().take(block) {
                out[(o + r) * n + j0..(o + r) * n + j0 + GEMM_TILE].copy_from_slice(row);
            }
            o += block;
        }
    }
    let mut o = 0usize;
    while o < m {
        let block = (m - o).min(4);
        gemm_cols_scalar(a, b, bias, out, o, block, k_dim, n, tail);
        o += block;
    }
}

/// AVX2 micro-kernel: 4 output rows x 16 columns held in eight `ymm`
/// accumulators. Uses `vmulps` + `vaddps` (not FMA) so every element
/// sees exactly the scalar kernel's rounding.
#[cfg(target_arch = "x86_64")]
pub(crate) fn gemm_bias_avx2(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k_dim: usize,
    n: usize,
) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // Safety: the dispatch table only exposes this entry on CPUs where
    // AVX2 detection succeeded.
    unsafe { gemm_bias_avx2_inner(a, b, bias, out, m, k_dim, n) }
}

/// # Safety
///
/// Callers must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_bias_avx2_inner(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k_dim: usize,
    n: usize,
) {
    use core::arch::x86_64::*;
    const W: usize = 16; // two ymm registers of columns
    let tiles = n / W;
    let tail = tiles * W;
    for t in 0..tiles {
        let j0 = t * W;
        let mut o = 0usize;
        while o < m {
            let block = (m - o).min(4);
            // acc[r][0/1]: columns j0..j0+8 / j0+8..j0+16 of output row o+r.
            let mut acc = [[_mm256_setzero_ps(); 2]; 4];
            for (r, row) in acc.iter_mut().enumerate().take(block) {
                let bv = _mm256_set1_ps(bias[o + r]);
                *row = [bv, bv];
            }
            for k in 0..k_dim {
                let bp = b.as_ptr().add(k * n + j0);
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (r, row) in acc.iter_mut().enumerate().take(block) {
                    let wv = _mm256_set1_ps(a[(o + r) * k_dim + k]);
                    row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(wv, b0));
                    row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(wv, b1));
                }
            }
            for (r, row) in acc.iter().enumerate().take(block) {
                let op = out.as_mut_ptr().add((o + r) * n + j0);
                _mm256_storeu_ps(op, row[0]);
                _mm256_storeu_ps(op.add(8), row[1]);
            }
            o += block;
        }
    }
    let mut o = 0usize;
    while o < m {
        let block = (m - o).min(4);
        gemm_cols_scalar(a, b, bias, out, o, block, k_dim, n, tail);
        o += block;
    }
}

/// AVX-512F micro-kernel: 4 output rows x 32 columns held in eight
/// `zmm` accumulators. `vmulps` + `vaddps`, never FMA.
#[cfg(target_arch = "x86_64")]
pub(crate) fn gemm_bias_avx512(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k_dim: usize,
    n: usize,
) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
    // Safety: the dispatch table only exposes this entry on CPUs where
    // AVX-512F detection succeeded.
    unsafe { gemm_bias_avx512_inner(a, b, bias, out, m, k_dim, n) }
}

/// # Safety
///
/// Callers must ensure AVX-512F is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_bias_avx512_inner(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k_dim: usize,
    n: usize,
) {
    use core::arch::x86_64::*;
    const W: usize = 32; // two zmm registers of columns
    let tiles = n / W;
    let tail = tiles * W;
    for t in 0..tiles {
        let j0 = t * W;
        let mut o = 0usize;
        while o < m {
            let block = (m - o).min(4);
            let mut acc = [[_mm512_setzero_ps(); 2]; 4];
            for (r, row) in acc.iter_mut().enumerate().take(block) {
                let bv = _mm512_set1_ps(bias[o + r]);
                *row = [bv, bv];
            }
            for k in 0..k_dim {
                let bp = b.as_ptr().add(k * n + j0);
                let b0 = _mm512_loadu_ps(bp);
                let b1 = _mm512_loadu_ps(bp.add(16));
                for (r, row) in acc.iter_mut().enumerate().take(block) {
                    let wv = _mm512_set1_ps(a[(o + r) * k_dim + k]);
                    row[0] = _mm512_add_ps(row[0], _mm512_mul_ps(wv, b0));
                    row[1] = _mm512_add_ps(row[1], _mm512_mul_ps(wv, b1));
                }
            }
            for (r, row) in acc.iter().enumerate().take(block) {
                let op = out.as_mut_ptr().add((o + r) * n + j0);
                _mm512_storeu_ps(op, row[0]);
                _mm512_storeu_ps(op.add(16), row[1]);
            }
            o += block;
        }
    }
    let mut o = 0usize;
    while o < m {
        let block = (m - o).min(4);
        gemm_cols_scalar(a, b, bias, out, o, block, k_dim, n, tail);
        o += block;
    }
}

/// NEON micro-kernel: 4 output rows x 8 columns in eight `v` register
/// accumulators (NEON is the aarch64 baseline — no runtime detection
/// needed). `fmul` + `fadd`, **never** `fmla`, which fuses and rounds
/// differently from the portable reference.
#[cfg(target_arch = "aarch64")]
pub(crate) fn gemm_bias_neon(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k_dim: usize,
    n: usize,
) {
    // Safety: NEON is unconditionally available on aarch64; all
    // loads/stores stay inside the asserted buffer shapes.
    unsafe { gemm_bias_neon_inner(a, b, bias, out, m, k_dim, n) }
}

/// # Safety
///
/// All pointer arithmetic must stay inside the `m x k_dim` / `k_dim x n`
/// / `m x n` buffers the caller asserted.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn gemm_bias_neon_inner(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k_dim: usize,
    n: usize,
) {
    use core::arch::aarch64::*;
    const W: usize = 8; // two q registers of columns
    let tiles = n / W;
    let tail = tiles * W;
    for t in 0..tiles {
        let j0 = t * W;
        let mut o = 0usize;
        while o < m {
            let block = (m - o).min(4);
            let mut acc = [[vdupq_n_f32(0.0); 2]; 4];
            for (r, row) in acc.iter_mut().enumerate().take(block) {
                let bv = vdupq_n_f32(bias[o + r]);
                *row = [bv, bv];
            }
            for k in 0..k_dim {
                let bp = b.as_ptr().add(k * n + j0);
                let b0 = vld1q_f32(bp);
                let b1 = vld1q_f32(bp.add(4));
                for (r, row) in acc.iter_mut().enumerate().take(block) {
                    let wv = vdupq_n_f32(a[(o + r) * k_dim + k]);
                    row[0] = vaddq_f32(row[0], vmulq_f32(wv, b0));
                    row[1] = vaddq_f32(row[1], vmulq_f32(wv, b1));
                }
            }
            for (r, row) in acc.iter().enumerate().take(block) {
                let op = out.as_mut_ptr().add((o + r) * n + j0);
                vst1q_f32(op, row[0]);
                vst1q_f32(op.add(4), row[1]);
            }
            o += block;
        }
    }
    let mut o = 0usize;
    while o < m {
        let block = (m - o).min(4);
        gemm_cols_scalar(a, b, bias, out, o, block, k_dim, n, tail);
        o += block;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelTier, Kernels};

    /// Naive triple loop — even simpler than the portable kernel, used
    /// to pin the portable kernel itself.
    fn gemm_naive(
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        m: usize,
        k_dim: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for o in 0..m {
            for j in 0..n {
                let mut acc = bias[o];
                for k in 0..k_dim {
                    acc += a[o * k_dim + k] * b[k * n + j];
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

    #[test]
    fn portable_matches_naive() {
        for (m, k_dim, n) in [(1, 1, 1), (4, 9, 8), (5, 27, 17), (3, 18, 33), (7, 2, 64)] {
            let a = fill(1, m * k_dim);
            let b = fill(2, k_dim * n);
            let bias = fill(3, m);
            let mut out = vec![0.0f32; m * n];
            gemm_bias_portable(&a, &b, &bias, &mut out, m, k_dim, n);
            assert_eq!(
                out,
                gemm_naive(&a, &b, &bias, m, k_dim, n),
                "{m}x{k_dim}x{n}"
            );
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
                let bias = fill(6, m);
                let mut expect = vec![0.0f32; m * n];
                gemm_bias_portable(&a, &b, &bias, &mut expect, m, k_dim, n);
                let mut out = vec![0.0f32; m * n];
                kernels.gemm_bias(&a, &b, &bias, &mut out, m, k_dim, n);
                assert!(
                    out.iter()
                        .zip(&expect)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{} diverges from portable on {m}x{k_dim}x{n}",
                    tier.name()
                );
            }
        }
    }
}
