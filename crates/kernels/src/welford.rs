//! The lane-parallel Welford statistics fold — the monitor's per-pixel
//! mean/M2 update and Chan merge, per kernel tier.
//!
//! Every Monte-Carlo sample the monitor draws ends in the same fold:
//! each pixel's softmax score `x` updates that pixel's running Welford
//! statistics
//!
//! ```text
//! inv_n = 1 / n              (n = the post-increment sample count,
//!                             rounded once per sample slab)
//! delta = x - mean
//! mean += delta * inv_n
//! m2   += delta * (x - mean) (the *updated* mean)
//! ```
//!
//! The classic update divides `delta / n` per element; a divide's
//! per-element throughput is the same at every vector width on current
//! cores, which would cap the ladder at ~1.1x. `n` is uniform across
//! the slab, so the fold instead rounds `1 / n` **once** and multiplies
//! — every lane performs the identical multiply, the fold stays a pure
//! sequence of pipelined mul/add/sub, and the reference path and every
//! engine path use this same kernel, so statistics remain bit-identical
//! across parallel/sequential/batch/tiled and across every tier (the
//! `delta · (1/n)` vs `delta / n` rounding difference is ≤ 1 ulp per
//! update and applies uniformly everywhere).
//!
//! The per-chunk partials combine with Chan's parallel merge
//!
//! ```text
//! delta = mean_b - mean_a
//! mean_a += delta * (n_b / n)
//! m2_a   += m2_b + delta * delta * (n_a * n_b / n)
//! ```
//!
//! The accumulate order is fixed by `el_monitor::bayes`: **lane-parallel
//! across pixels, sequential across samples** — pixel `i`'s statistics
//! stream never touches pixel `j`'s, so vector lanes map onto pixels and
//! the sample loop stays outside the kernel. That makes the fold exactly
//! vectorisable: every tier performs the identical IEEE-754
//! subtract / multiply / add sequence per lane (never FMA, and the one
//! rounding of `1 / n` happens **before** the lanes, so broadcast and
//! scalar agree exactly), so every tier reproduces the portable fold
//! **bit for bit** — the same contract as the GEMM, mask and ChaCha
//! entries.
//!
//! The merge weights `n_b / n` and `n_a * n_b / n` are loop-invariant;
//! callers compute them once (in exactly that expression order) and the
//! kernels broadcast them, which is bit-identical to recomputing them
//! per element.
//!
//! The softmax that *precedes* the fold stays scalar by design: its
//! `exp()` is a libm call with no lane-reproducible vector counterpart,
//! so vectorising it would break the cross-tier contract. The fold —
//! five float ops per pixel per sample over the whole
//! `(classes, pixels)` slab — is where the scalar time went
//! (ROADMAP: the last scalar hot loop).

/// A 64-byte-aligned `f32` buffer for Welford `mean`/`m2` slabs.
///
/// `Vec<f32>` is only allocator-aligned (typically 16 bytes), which
/// makes most 512-bit accesses straddle a cache line — a measurable tax
/// on the fold's five-stream traffic. This buffer over-allocates by 15
/// elements and offsets to the first 64-byte boundary, so the two
/// accumulator streams (the ones loaded *and* stored every sample) are
/// always aligned. The kernels themselves use unaligned loads and work
/// with any slice; alignment is purely an allocation-side speedup, and
/// the sample slabs arrive wherever the caller's workspace put them.
#[derive(Debug)]
pub struct AlignedF32 {
    buf: Vec<f32>,
    off: usize,
    len: usize,
}

impl Clone for AlignedF32 {
    // Hand-written: a derived clone would copy the *original*
    // allocation's alignment offset onto a fresh allocation, silently
    // losing the 64-byte guarantee this type exists to provide.
    fn clone(&self) -> Self {
        let mut out = AlignedF32::zeroed(self.len);
        out.as_mut_slice().copy_from_slice(self.as_slice());
        out
    }
}

impl AlignedF32 {
    /// A zeroed buffer of `len` elements starting on a 64-byte boundary.
    pub fn zeroed(len: usize) -> Self {
        let buf = vec![0.0f32; len + 15];
        // `min(15)` keeps the offset in-bounds even in the (theoretical)
        // case align_offset reports unreachable — then the buffer is
        // simply unaligned, which is slower but still correct.
        let off = buf.as_ptr().align_offset(64).min(15);
        AlignedF32 { buf, off, len }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The aligned element slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.buf[self.off..self.off + self.len]
    }

    /// The aligned element slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf[self.off..self.off + self.len]
    }

    /// Extracts the elements as a plain `Vec<f32>` (copies only when the
    /// allocation happened to need an alignment offset).
    pub fn into_vec(mut self) -> Vec<f32> {
        if self.off == 0 {
            self.buf.truncate(self.len);
            self.buf
        } else {
            self.as_slice().to_vec()
        }
    }
}

/// Portable Welford push: folds one sample slab `xs` into the running
/// `mean`/`m2`, `n` the **post-increment** sample count — the reference
/// every SIMD tier must reproduce bit for bit.
///
/// The per-lane operation order is the contract: `inv_n = 1.0 / n`
/// rounded **once** for the whole slab, then per lane
/// `delta = x - mean`, `mean += delta * inv_n`, and
/// `m2 += delta * (x - mean_updated)` — separate multiplies and adds,
/// never FMA.
pub fn welford_push_portable(mean: &mut [f32], m2: &mut [f32], xs: &[f32], n: f32) {
    debug_assert!(mean.len() == m2.len() && mean.len() == xs.len());
    let inv_n = 1.0 / n;
    for ((m, s2), &x) in mean.iter_mut().zip(m2.iter_mut()).zip(xs) {
        let delta = x - *m;
        *m += delta * inv_n;
        *s2 += delta * (x - *m);
    }
}

/// Portable fused two-sample push: exactly
/// [`welford_push_portable`]`(…, xs0, n0)` followed by
/// [`welford_push_portable`]`(…, xs1, n0 + 1)`, fused per lane so the
/// `mean`/`m2` streams are loaded and stored **once** for the pair —
/// the fold is memory-bound (five 4-byte streams per element), so
/// halving that traffic is worth more than any extra lane width.
///
/// Bit-identical to the two single pushes **by construction**: every
/// intermediate value, including the first sample's separate add into
/// `m2`, is rounded exactly as the unfused sequence rounds it. Pairing
/// samples is therefore a pure performance choice — callers may fold
/// `2k` samples as `k` pairs or `2k` singles and get the same bits.
pub fn welford_push2_portable(mean: &mut [f32], m2: &mut [f32], xs0: &[f32], xs1: &[f32], n0: f32) {
    debug_assert!(mean.len() == m2.len() && mean.len() == xs0.len() && mean.len() == xs1.len());
    let inv0 = 1.0 / n0;
    let inv1 = 1.0 / (n0 + 1.0);
    for (((m, s2), &xa), &xb) in mean.iter_mut().zip(m2.iter_mut()).zip(xs0).zip(xs1) {
        let d0 = xa - *m;
        let mut mm = *m + d0 * inv0;
        *s2 += d0 * (xa - mm);
        let d1 = xb - mm;
        mm += d1 * inv1;
        *s2 += d1 * (xb - mm);
        *m = mm;
    }
}

/// Portable Chan merge: folds partial `b` into partial `a`, with the
/// caller-computed loop-invariant weights `w_mean = n_b / n` and
/// `w_m2 = n_a * n_b / n` (in exactly those expression orders, `n` the
/// combined count).
///
/// Per-lane order: `delta = mean_b - mean_a`, `mean_a += delta * w_mean`,
/// `m2_a += m2_b + delta * delta * w_m2` (left-associated multiplies,
/// never FMA).
pub fn welford_merge_portable(
    mean_a: &mut [f32],
    m2_a: &mut [f32],
    mean_b: &[f32],
    m2_b: &[f32],
    w_mean: f32,
    w_m2: f32,
) {
    debug_assert!(
        mean_a.len() == m2_a.len() && mean_a.len() == mean_b.len() && mean_a.len() == m2_b.len()
    );
    for (((ma, s2a), &mb), &s2b) in mean_a.iter_mut().zip(m2_a.iter_mut()).zip(mean_b).zip(m2_b) {
        let delta = mb - *ma;
        *ma += delta * w_mean;
        *s2a += s2b + delta * delta * w_m2;
    }
}

/// Scalar push over elements `x0..len` through raw pointers — the shared
/// vector-width remainder of every SIMD push kernel.
///
/// # Safety
///
/// `mean`, `m2` and `xs` must be valid for `len` reads/writes.
#[allow(dead_code)] // unused on targets with no SIMD tier
unsafe fn welford_push_tail(
    mean: *mut f32,
    m2: *mut f32,
    xs: *const f32,
    n: f32,
    x0: usize,
    len: usize,
) {
    let inv_n = 1.0 / n;
    for i in x0..len {
        let x = *xs.add(i);
        let m = mean.add(i);
        let delta = x - *m;
        *m += delta * inv_n;
        *m2.add(i) += delta * (x - *m);
    }
}

/// Scalar fused-pair push over elements `x0..len` through raw pointers —
/// the shared vector-width remainder of every SIMD pair kernel.
///
/// # Safety
///
/// All four pointers must be valid for `len` reads/writes.
#[allow(dead_code)] // unused on targets with no SIMD tier
#[allow(clippy::too_many_arguments)]
unsafe fn welford_push2_tail(
    mean: *mut f32,
    m2: *mut f32,
    xs0: *const f32,
    xs1: *const f32,
    n0: f32,
    x0: usize,
    len: usize,
) {
    let inv0 = 1.0 / n0;
    let inv1 = 1.0 / (n0 + 1.0);
    for i in x0..len {
        let xa = *xs0.add(i);
        let xb = *xs1.add(i);
        let m = mean.add(i);
        let s2 = m2.add(i);
        let d0 = xa - *m;
        let mut mm = *m + d0 * inv0;
        *s2 += d0 * (xa - mm);
        let d1 = xb - mm;
        mm += d1 * inv1;
        *s2 += d1 * (xb - mm);
        *m = mm;
    }
}

/// Scalar merge over elements `x0..len` through raw pointers — the
/// shared vector-width remainder of every SIMD merge kernel.
///
/// # Safety
///
/// All four pointers must be valid for `len` reads/writes.
#[allow(dead_code)] // unused on targets with no SIMD tier
#[allow(clippy::too_many_arguments)]
unsafe fn welford_merge_tail(
    mean_a: *mut f32,
    m2_a: *mut f32,
    mean_b: *const f32,
    m2_b: *const f32,
    w_mean: f32,
    w_m2: f32,
    x0: usize,
    len: usize,
) {
    for i in x0..len {
        let ma = mean_a.add(i);
        let delta = *mean_b.add(i) - *ma;
        *ma += delta * w_mean;
        *m2_a.add(i) += *m2_b.add(i) + delta * delta * w_m2;
    }
}

macro_rules! welford_entry_pair {
    ($push:ident, $push2:ident, $merge:ident, $push_inner:ident, $push2_inner:ident, $merge_inner:ident, $doc_tier:literal) => {
        #[doc = concat!($doc_tier, " Welford push kernel.")]
        #[doc = ""]
        #[doc = "Crate-private: reachable only through the feature-checked"]
        #[doc = "dispatch table, which is what makes the entry safe."]
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        pub(crate) fn $push(mean: &mut [f32], m2: &mut [f32], xs: &[f32], n: f32) {
            debug_assert!(mean.len() == m2.len() && mean.len() == xs.len());
            // Safety: tier availability is guaranteed by the dispatch
            // table; the pointers cover exactly the slices.
            unsafe {
                $push_inner(
                    mean.as_mut_ptr(),
                    m2.as_mut_ptr(),
                    xs.as_ptr(),
                    n,
                    mean.len(),
                )
            }
        }

        #[doc = concat!($doc_tier, " fused two-sample Welford push kernel.")]
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        pub(crate) fn $push2(mean: &mut [f32], m2: &mut [f32], xs0: &[f32], xs1: &[f32], n0: f32) {
            debug_assert!(
                mean.len() == m2.len() && mean.len() == xs0.len() && mean.len() == xs1.len()
            );
            // Safety: as above.
            unsafe {
                $push2_inner(
                    mean.as_mut_ptr(),
                    m2.as_mut_ptr(),
                    xs0.as_ptr(),
                    xs1.as_ptr(),
                    n0,
                    mean.len(),
                )
            }
        }

        #[doc = concat!($doc_tier, " Welford merge kernel.")]
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        pub(crate) fn $merge(
            mean_a: &mut [f32],
            m2_a: &mut [f32],
            mean_b: &[f32],
            m2_b: &[f32],
            w_mean: f32,
            w_m2: f32,
        ) {
            debug_assert!(
                mean_a.len() == m2_a.len()
                    && mean_a.len() == mean_b.len()
                    && mean_a.len() == m2_b.len()
            );
            // Safety: as above.
            unsafe {
                $merge_inner(
                    mean_a.as_mut_ptr(),
                    m2_a.as_mut_ptr(),
                    mean_b.as_ptr(),
                    m2_b.as_ptr(),
                    w_mean,
                    w_m2,
                    mean_a.len(),
                )
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
welford_entry_pair!(
    welford_push_avx2,
    welford_push2_avx2,
    welford_merge_avx2,
    welford_push_avx2_inner,
    welford_push2_avx2_inner,
    welford_merge_avx2_inner,
    "AVX2"
);
#[cfg(target_arch = "x86_64")]
welford_entry_pair!(
    welford_push_avx512,
    welford_push2_avx512,
    welford_merge_avx512,
    welford_push_avx512_inner,
    welford_push2_avx512_inner,
    welford_merge_avx512_inner,
    "AVX-512F"
);
#[cfg(target_arch = "aarch64")]
welford_entry_pair!(
    welford_push_neon,
    welford_push2_neon,
    welford_merge_neon,
    welford_push_neon_inner,
    welford_push2_neon_inner,
    welford_merge_neon_inner,
    "NEON"
);

/// AVX2 push: 8 pixels per step.
///
/// # Safety
///
/// AVX2 must be available; pointers valid for `len`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn welford_push_avx2_inner(
    mean: *mut f32,
    m2: *mut f32,
    xs: *const f32,
    n: f32,
    len: usize,
) {
    use core::arch::x86_64::*;
    const W: usize = 8;
    let inv_v = _mm256_set1_ps(1.0 / n);
    let mut i = 0usize;
    while i + W <= len {
        let m = _mm256_loadu_ps(mean.add(i));
        let x = _mm256_loadu_ps(xs.add(i));
        let s2 = _mm256_loadu_ps(m2.add(i));
        let delta = _mm256_sub_ps(x, m);
        let m_new = _mm256_add_ps(m, _mm256_mul_ps(delta, inv_v));
        _mm256_storeu_ps(mean.add(i), m_new);
        let s2_new = _mm256_add_ps(s2, _mm256_mul_ps(delta, _mm256_sub_ps(x, m_new)));
        _mm256_storeu_ps(m2.add(i), s2_new);
        i += W;
    }
    welford_push_tail(mean, m2, xs, n, i, len);
}

/// AVX2 fused-pair push: 8 pixels per step, two samples per pass.
///
/// # Safety
///
/// AVX2 must be available; all four pointers valid for `len`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn welford_push2_avx2_inner(
    mean: *mut f32,
    m2: *mut f32,
    xs0: *const f32,
    xs1: *const f32,
    n0: f32,
    len: usize,
) {
    use core::arch::x86_64::*;
    const W: usize = 8;
    let inv0 = _mm256_set1_ps(1.0 / n0);
    let inv1 = _mm256_set1_ps(1.0 / (n0 + 1.0));
    let mut i = 0usize;
    while i + W <= len {
        let m = _mm256_loadu_ps(mean.add(i));
        let xa = _mm256_loadu_ps(xs0.add(i));
        let s2 = _mm256_loadu_ps(m2.add(i));
        let d0 = _mm256_sub_ps(xa, m);
        let mut mm = _mm256_add_ps(m, _mm256_mul_ps(d0, inv0));
        let s2a = _mm256_add_ps(s2, _mm256_mul_ps(d0, _mm256_sub_ps(xa, mm)));
        let xb = _mm256_loadu_ps(xs1.add(i));
        let d1 = _mm256_sub_ps(xb, mm);
        mm = _mm256_add_ps(mm, _mm256_mul_ps(d1, inv1));
        _mm256_storeu_ps(mean.add(i), mm);
        let s2b = _mm256_add_ps(s2a, _mm256_mul_ps(d1, _mm256_sub_ps(xb, mm)));
        _mm256_storeu_ps(m2.add(i), s2b);
        i += W;
    }
    welford_push2_tail(mean, m2, xs0, xs1, n0, i, len);
}

/// AVX2 merge: 8 pixels per step.
///
/// # Safety
///
/// AVX2 must be available; all four pointers valid for `len`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn welford_merge_avx2_inner(
    mean_a: *mut f32,
    m2_a: *mut f32,
    mean_b: *const f32,
    m2_b: *const f32,
    w_mean: f32,
    w_m2: f32,
    len: usize,
) {
    use core::arch::x86_64::*;
    const W: usize = 8;
    let wm = _mm256_set1_ps(w_mean);
    let ws = _mm256_set1_ps(w_m2);
    let mut i = 0usize;
    while i + W <= len {
        let ma = _mm256_loadu_ps(mean_a.add(i));
        let mb = _mm256_loadu_ps(mean_b.add(i));
        let sa = _mm256_loadu_ps(m2_a.add(i));
        let sb = _mm256_loadu_ps(m2_b.add(i));
        let delta = _mm256_sub_ps(mb, ma);
        _mm256_storeu_ps(mean_a.add(i), _mm256_add_ps(ma, _mm256_mul_ps(delta, wm)));
        let dd = _mm256_mul_ps(_mm256_mul_ps(delta, delta), ws);
        _mm256_storeu_ps(m2_a.add(i), _mm256_add_ps(sa, _mm256_add_ps(sb, dd)));
        i += W;
    }
    welford_merge_tail(mean_a, m2_a, mean_b, m2_b, w_mean, w_m2, i, len);
}

/// AVX-512F push: 16 pixels per step.
///
/// # Safety
///
/// AVX-512F must be available; pointers valid for `len`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn welford_push_avx512_inner(
    mean: *mut f32,
    m2: *mut f32,
    xs: *const f32,
    n: f32,
    len: usize,
) {
    use core::arch::x86_64::*;
    const W: usize = 16;
    let inv_v = _mm512_set1_ps(1.0 / n);
    let mut i = 0usize;
    while i + W <= len {
        let m = _mm512_loadu_ps(mean.add(i));
        let x = _mm512_loadu_ps(xs.add(i));
        let s2 = _mm512_loadu_ps(m2.add(i));
        let delta = _mm512_sub_ps(x, m);
        let m_new = _mm512_add_ps(m, _mm512_mul_ps(delta, inv_v));
        _mm512_storeu_ps(mean.add(i), m_new);
        let s2_new = _mm512_add_ps(s2, _mm512_mul_ps(delta, _mm512_sub_ps(x, m_new)));
        _mm512_storeu_ps(m2.add(i), s2_new);
        i += W;
    }
    welford_push_tail(mean, m2, xs, n, i, len);
}

/// AVX-512F fused-pair push: 16 pixels per step, two samples per pass.
///
/// # Safety
///
/// AVX-512F must be available; all four pointers valid for `len`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn welford_push2_avx512_inner(
    mean: *mut f32,
    m2: *mut f32,
    xs0: *const f32,
    xs1: *const f32,
    n0: f32,
    len: usize,
) {
    use core::arch::x86_64::*;
    const W: usize = 16;
    let inv0 = _mm512_set1_ps(1.0 / n0);
    let inv1 = _mm512_set1_ps(1.0 / (n0 + 1.0));
    let mut i = 0usize;
    while i + W <= len {
        let m = _mm512_loadu_ps(mean.add(i));
        let xa = _mm512_loadu_ps(xs0.add(i));
        let s2 = _mm512_loadu_ps(m2.add(i));
        let d0 = _mm512_sub_ps(xa, m);
        let mut mm = _mm512_add_ps(m, _mm512_mul_ps(d0, inv0));
        let s2a = _mm512_add_ps(s2, _mm512_mul_ps(d0, _mm512_sub_ps(xa, mm)));
        let xb = _mm512_loadu_ps(xs1.add(i));
        let d1 = _mm512_sub_ps(xb, mm);
        mm = _mm512_add_ps(mm, _mm512_mul_ps(d1, inv1));
        _mm512_storeu_ps(mean.add(i), mm);
        let s2b = _mm512_add_ps(s2a, _mm512_mul_ps(d1, _mm512_sub_ps(xb, mm)));
        _mm512_storeu_ps(m2.add(i), s2b);
        i += W;
    }
    welford_push2_tail(mean, m2, xs0, xs1, n0, i, len);
}

/// AVX-512F merge: 16 pixels per step.
///
/// # Safety
///
/// AVX-512F must be available; all four pointers valid for `len`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn welford_merge_avx512_inner(
    mean_a: *mut f32,
    m2_a: *mut f32,
    mean_b: *const f32,
    m2_b: *const f32,
    w_mean: f32,
    w_m2: f32,
    len: usize,
) {
    use core::arch::x86_64::*;
    const W: usize = 16;
    let wm = _mm512_set1_ps(w_mean);
    let ws = _mm512_set1_ps(w_m2);
    let mut i = 0usize;
    while i + W <= len {
        let ma = _mm512_loadu_ps(mean_a.add(i));
        let mb = _mm512_loadu_ps(mean_b.add(i));
        let sa = _mm512_loadu_ps(m2_a.add(i));
        let sb = _mm512_loadu_ps(m2_b.add(i));
        let delta = _mm512_sub_ps(mb, ma);
        _mm512_storeu_ps(mean_a.add(i), _mm512_add_ps(ma, _mm512_mul_ps(delta, wm)));
        let dd = _mm512_mul_ps(_mm512_mul_ps(delta, delta), ws);
        _mm512_storeu_ps(m2_a.add(i), _mm512_add_ps(sa, _mm512_add_ps(sb, dd)));
        i += W;
    }
    welford_merge_tail(mean_a, m2_a, mean_b, m2_b, w_mean, w_m2, i, len);
}

/// NEON push: 4 pixels per step.
///
/// # Safety
///
/// Pointers valid for `len` reads/writes.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn welford_push_neon_inner(
    mean: *mut f32,
    m2: *mut f32,
    xs: *const f32,
    n: f32,
    len: usize,
) {
    use core::arch::aarch64::*;
    const W: usize = 4;
    let inv_v = vdupq_n_f32(1.0 / n);
    let mut i = 0usize;
    while i + W <= len {
        let m = vld1q_f32(mean.add(i));
        let x = vld1q_f32(xs.add(i));
        let s2 = vld1q_f32(m2.add(i));
        let delta = vsubq_f32(x, m);
        let m_new = vaddq_f32(m, vmulq_f32(delta, inv_v));
        vst1q_f32(mean.add(i), m_new);
        let s2_new = vaddq_f32(s2, vmulq_f32(delta, vsubq_f32(x, m_new)));
        vst1q_f32(m2.add(i), s2_new);
        i += W;
    }
    welford_push_tail(mean, m2, xs, n, i, len);
}

/// NEON fused-pair push: 4 pixels per step, two samples per pass.
///
/// # Safety
///
/// All four pointers valid for `len` reads/writes.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn welford_push2_neon_inner(
    mean: *mut f32,
    m2: *mut f32,
    xs0: *const f32,
    xs1: *const f32,
    n0: f32,
    len: usize,
) {
    use core::arch::aarch64::*;
    const W: usize = 4;
    let inv0 = vdupq_n_f32(1.0 / n0);
    let inv1 = vdupq_n_f32(1.0 / (n0 + 1.0));
    let mut i = 0usize;
    while i + W <= len {
        let m = vld1q_f32(mean.add(i));
        let xa = vld1q_f32(xs0.add(i));
        let s2 = vld1q_f32(m2.add(i));
        let d0 = vsubq_f32(xa, m);
        let mut mm = vaddq_f32(m, vmulq_f32(d0, inv0));
        let s2a = vaddq_f32(s2, vmulq_f32(d0, vsubq_f32(xa, mm)));
        let xb = vld1q_f32(xs1.add(i));
        let d1 = vsubq_f32(xb, mm);
        mm = vaddq_f32(mm, vmulq_f32(d1, inv1));
        vst1q_f32(mean.add(i), mm);
        let s2b = vaddq_f32(s2a, vmulq_f32(d1, vsubq_f32(xb, mm)));
        vst1q_f32(m2.add(i), s2b);
        i += W;
    }
    welford_push2_tail(mean, m2, xs0, xs1, n0, i, len);
}

/// NEON merge: 4 pixels per step.
///
/// # Safety
///
/// All four pointers valid for `len` reads/writes.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn welford_merge_neon_inner(
    mean_a: *mut f32,
    m2_a: *mut f32,
    mean_b: *const f32,
    m2_b: *const f32,
    w_mean: f32,
    w_m2: f32,
    len: usize,
) {
    use core::arch::aarch64::*;
    const W: usize = 4;
    let wm = vdupq_n_f32(w_mean);
    let ws = vdupq_n_f32(w_m2);
    let mut i = 0usize;
    while i + W <= len {
        let ma = vld1q_f32(mean_a.add(i));
        let mb = vld1q_f32(mean_b.add(i));
        let sa = vld1q_f32(m2_a.add(i));
        let sb = vld1q_f32(m2_b.add(i));
        let delta = vsubq_f32(mb, ma);
        vst1q_f32(mean_a.add(i), vaddq_f32(ma, vmulq_f32(delta, wm)));
        let dd = vmulq_f32(vmulq_f32(delta, delta), ws);
        vst1q_f32(m2_a.add(i), vaddq_f32(sa, vaddq_f32(sb, dd)));
        i += W;
    }
    welford_merge_tail(mean_a, m2_a, mean_b, m2_b, w_mean, w_m2, i, len);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelTier, Kernels};

    /// The scalar reference fold, spelled out independently of the
    /// portable kernel (guards against editing both in lockstep).
    fn naive_fold(slabs: &[Vec<f32>]) -> (Vec<f32>, Vec<f32>) {
        let len = slabs[0].len();
        let (mut mean, mut m2) = (vec![0.0f32; len], vec![0.0f32; len]);
        for (k, xs) in slabs.iter().enumerate() {
            let inv_n = 1.0 / (k + 1) as f32;
            for i in 0..len {
                let delta = xs[i] - mean[i];
                mean[i] += delta * inv_n;
                m2[i] += delta * (xs[i] - mean[i]);
            }
        }
        (mean, m2)
    }

    fn slabs(seed: u32, samples: usize, len: usize) -> Vec<Vec<f32>> {
        (0..samples)
            .map(|k| {
                (0..len)
                    .map(|i| (((seed as usize + 31 * k + i) as f32) * 0.173).sin() * 0.8 + 0.1)
                    .collect()
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn portable_push_matches_naive_two_loop_fold() {
        let slabs = slabs(7, 9, 33);
        let (expect_mean, expect_m2) = naive_fold(&slabs);
        let (mut mean, mut m2) = (vec![0.0f32; 33], vec![0.0f32; 33]);
        for (k, xs) in slabs.iter().enumerate() {
            welford_push_portable(&mut mean, &mut m2, xs, (k + 1) as f32);
        }
        assert_eq!(bits(&mean), bits(&expect_mean));
        assert_eq!(bits(&m2), bits(&expect_m2));
    }

    #[test]
    fn every_supported_tier_folds_like_portable() {
        for tier in KernelTier::supported() {
            let kernels = Kernels::for_tier(tier).unwrap();
            // Lengths across the lane-width ladder: sub-width, exact
            // widths, and tails past the widest (16-lane) kernel.
            for len in [1usize, 3, 4, 8, 15, 16, 17, 31, 64, 67] {
                let slabs = slabs(len as u32, 6, len);
                let (mut em, mut es) = (vec![0.0f32; len], vec![0.0f32; len]);
                let (mut gm, mut gs) = (vec![0.0f32; len], vec![0.0f32; len]);
                for (k, xs) in slabs.iter().enumerate() {
                    let n = (k + 1) as f32;
                    welford_push_portable(&mut em, &mut es, xs, n);
                    kernels.welford_push(&mut gm, &mut gs, xs, n);
                    assert_eq!(
                        bits(&gm),
                        bits(&em),
                        "{} push mean diverges (len {len}, sample {k})",
                        tier.name()
                    );
                    assert_eq!(
                        bits(&gs),
                        bits(&es),
                        "{} push m2 diverges (len {len}, sample {k})",
                        tier.name()
                    );
                }
                // Merge the fold into a second, differently-seeded partial.
                let other = slabs.clone();
                let (mut bm, mut bs) = (vec![0.0f32; len], vec![0.0f32; len]);
                for (k, xs) in other.iter().take(3).enumerate() {
                    welford_push_portable(&mut bm, &mut bs, xs, (k + 1) as f32);
                }
                let (na, nb) = (6.0f32, 3.0f32);
                let n = na + nb;
                let (mut em2, mut es2) = (em.clone(), es.clone());
                welford_merge_portable(&mut em2, &mut es2, &bm, &bs, nb / n, na * nb / n);
                kernels.welford_merge(&mut gm, &mut gs, &bm, &bs, nb / n, na * nb / n);
                assert_eq!(bits(&gm), bits(&em2), "{} merge mean", tier.name());
                assert_eq!(bits(&gs), bits(&es2), "{} merge m2", tier.name());
            }
        }
    }

    #[test]
    fn fused_pair_push_is_bit_identical_to_two_single_pushes() {
        // On every tier, and against the *portable single-push* fold —
        // pairing must be a pure performance choice, never a rounding
        // choice, or the engine's pairing strategy would leak into the
        // statistics.
        for tier in KernelTier::supported() {
            let kernels = Kernels::for_tier(tier).unwrap();
            for len in [1usize, 4, 7, 16, 33, 67] {
                let slabs = slabs(3 + len as u32, 6, len);
                let (mut em, mut es) = (vec![0.0f32; len], vec![0.0f32; len]);
                for (k, xs) in slabs.iter().enumerate() {
                    welford_push_portable(&mut em, &mut es, xs, (k + 1) as f32);
                }
                let (mut gm, mut gs) = (vec![0.0f32; len], vec![0.0f32; len]);
                for (k, pair) in slabs.chunks(2).enumerate() {
                    kernels.welford_push2(&mut gm, &mut gs, &pair[0], &pair[1], (2 * k + 1) as f32);
                }
                assert_eq!(
                    bits(&gm),
                    bits(&em),
                    "{} pair mean (len {len})",
                    tier.name()
                );
                assert_eq!(bits(&gs), bits(&es), "{} pair m2 (len {len})", tier.name());
            }
        }
    }

    #[test]
    fn denormal_inputs_fold_identically_on_every_tier() {
        // Softmax scores of confident pixels underflow toward denormals;
        // the fold must stay bit-identical through them.
        let len = 21usize;
        let tiny: Vec<Vec<f32>> = (0..4)
            .map(|k| {
                (0..len)
                    .map(|i| f32::from_bits(1 + (k * 37 + i) as u32)) // denormals
                    .collect()
            })
            .collect();
        let (mut em, mut es) = (vec![0.0f32; len], vec![0.0f32; len]);
        for (k, xs) in tiny.iter().enumerate() {
            welford_push_portable(&mut em, &mut es, xs, (k + 1) as f32);
        }
        for tier in KernelTier::supported() {
            let kernels = Kernels::for_tier(tier).unwrap();
            let (mut gm, mut gs) = (vec![0.0f32; len], vec![0.0f32; len]);
            for (k, xs) in tiny.iter().enumerate() {
                kernels.welford_push(&mut gm, &mut gs, xs, (k + 1) as f32);
            }
            assert_eq!(bits(&gm), bits(&em), "{} denormal mean", tier.name());
            assert_eq!(bits(&gs), bits(&es), "{} denormal m2", tier.name());
        }
    }
}
