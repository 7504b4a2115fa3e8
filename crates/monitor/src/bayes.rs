//! Monte-Carlo-dropout Bayesian inference — the monitor's one engine.
//!
//! # Engine design
//!
//! Every Monte-Carlo entry point — [`bayesian_segment`] (one image),
//! [`bayesian_segment_batch`] (any number of crops) and the budgeted
//! full-frame sweep [`bayesian_segment_tiled`](crate::tiledbayes) — runs
//! the same machine. A verified crop costs `samples` stochastic passes in
//! the naive formulation; the engine cuts that down four ways, none of
//! which changes the statistics' semantics:
//!
//! 1. **Invariant-prefix caching.** No dropout layer precedes the MSDnet's
//!    dilated branch convolutions, so `relu(conv_d(x))` is identical in
//!    every Monte-Carlo sample. [`el_seg::MsdNet::mc_prefix`] computes
//!    it once per crop (one GEMM per branch, written straight into the
//!    crop's fused buffer); each sample replays only the stochastic
//!    suffix (branch dropout → fusion head → head dropout → classifier,
//!    [`el_seg::MsdNet::mc_sample_blocks`]). The suffix is pointwise, so
//!    it runs over any window of a prefix: the tiled sweep computes each
//!    tile's prefix over its kept interior grown by the receptive radius
//!    and samples the kept interior only. A sample walks its crop in
//!    L1-resident blocks of at most 64 pixels: mask rows, head GEMMs,
//!    softmax and Welford fold, with no crop-sized intermediate.
//! 2. **Coordinate-keyed masks.** Sample `k`'s per-sample seed is
//!    `splitmix64(seed + (k+1)·φ)` (`φ` the 64-bit golden-ratio
//!    constant), and each activation's mask bit is a pure hash of that
//!    seed and the activation's **global frame coordinates**
//!    ([`el_nn::layers::keyed_mask_word`]). Masks therefore depend
//!    neither on execution order nor on the shape or position of the
//!    block they are computed through: a crop's statistics do not depend
//!    on what else shares its batch, and a tile computed at its frame
//!    origin agrees with the whole frame. The per-row mask evaluation —
//!    like the GEMMs under every convolution here — dispatches through
//!    the `el_kernels` tier ladder (portable/AVX2/AVX-512F/NEON,
//!    `EL_FORCE_KERNEL` to pin), and every tier is bit-identical, so
//!    verdicts are also independent of the ISA the monitor ships on
//!    (`docs/kernels.md`).
//! 3. **Fixed-chunk streaming Welford.** Samples are partitioned into at
//!    most [`MC_CHUNKS`] contiguous chunks — a partition that depends only
//!    on the sample count, never on thread count. Each chunk folds its
//!    samples into a running Welford mean/M2 (O(1) memory in the sample
//!    count); the per-chunk partials are then merged **in chunk order**
//!    with Chan's parallel-combine formula. Because both the partition and
//!    the merge order are fixed, the statistics are bit-identical for any
//!    number of rayon workers. The fold itself is one portable pair of
//!    loops, **elementwise across pixels, sequential across samples**
//!    (one sample per step, never FMA), run per pixel block: it costs well
//!    under 1% of a frame, so unlike the GEMM, mask rows and softmax it
//!    does not dispatch through the `el_kernels` tier ladder, and its
//!    bits are the same on every ISA and every block split.
//! 4. **One crop × chunk work queue.** A batch of crops becomes
//!    `crops x chunks` independent tasks drained by a single rayon
//!    `par_iter` — no per-crop join barriers, so workers stay busy while
//!    any crop still has samples left. Each task stays on one crop (its
//!    prefix, block activations and Welford partials remain
//!    cache-resident); its only scratch is one 22 KB block buffer, so
//!    tasks need no shared arena pool.
//!
//! One Monte-Carlo sample is therefore the keyed pair
//! [`el_seg::MsdNet::mc_prefix`] + [`el_seg::MsdNet::mc_sample_blocks`]:
//! that *is* the paper's Bayesian MSDnet, and this engine is its only
//! implementation.

use el_nn::{Tensor, Workspace};
use el_scene::Image;
use el_seg::data::image_to_tensor;
use el_seg::MsdNet;
use rayon::prelude::*;

/// Maximum number of Monte-Carlo work chunks.
///
/// The partition of samples into chunks depends only on the sample count,
/// so results are independent of how many threads actually execute them.
/// Memory overhead is O(`MC_CHUNKS`) statistics buffers, regardless of the
/// sample count.
pub const MC_CHUNKS: usize = 8;

/// Per-pixel, per-class statistics over `samples` stochastic passes.
#[derive(Debug, Clone)]
pub struct BayesStats {
    /// Empirical mean `µ` of the softmax scores, shape `(classes, h, w)`.
    pub mean: Tensor,
    /// Empirical standard deviation `σ`, same shape.
    pub std: Tensor,
    /// Number of Monte-Carlo samples used.
    pub samples: usize,
}

impl BayesStats {
    /// Mean of `σ` over all pixels and classes — a scalar uncertainty
    /// summary used by the experiments (rises on out-of-distribution
    /// inputs).
    pub fn mean_uncertainty(&self) -> f64 {
        self.std.mean() as f64
    }
}

/// The 64-bit golden-ratio constant used by SplitMix64.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the private seed of Monte-Carlo sample `k` from the caller's
/// seed: the SplitMix64 finaliser over `seed + (k+1)·φ`.
///
/// Execution-order independent by construction — this is what makes the
/// parallel sample loop deterministic.
fn sample_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_add((k as u64 + 1).wrapping_mul(GOLDEN));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed, thread-count-independent partition of `samples` into at
/// most [`MC_CHUNKS`] contiguous `(start, len)` chunks.
fn chunk_layout(samples: usize) -> Vec<(usize, usize)> {
    let chunks = samples.clamp(1, MC_CHUNKS);
    let base = samples / chunks;
    let extra = samples % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push((start, len));
        start += len;
    }
    out
}

/// A streaming Welford mean/M2 accumulator over equal-length vectors.
///
/// Both the per-sample update and the Chan merge are plain lane-wise
/// loops over the elements (pixels): pixel statistics never interact, so
/// the accumulate order that matters is the one across samples, which
/// the chunk layout and merge order fix. Every operation is a separate
/// IEEE-754 subtract, multiply or add — never FMA — so the statistics
/// are the same bits on every ISA the monitor ships on.
struct Welford {
    count: usize,
    mean: Vec<f32>,
    m2: Vec<f32>,
}

impl Welford {
    fn new(len: usize) -> Self {
        Welford {
            count: 0,
            mean: vec![0.0; len],
            m2: vec![0.0; len],
        }
    }

    /// Folds pixels `p0..p0 + n` of the current sample in, `block` laid
    /// out `[class][n]`: with `inv_n = 1 / count` rounded once per
    /// sample, per element `delta = x - mean`, `mean += delta * inv_n`,
    /// `m2 += delta * (x - mean')`.
    fn push_block(&mut self, block: &[f32], classes: usize, p0: usize, inv_n: f32) {
        let (n, hw) = (block.len() / classes, self.mean.len() / classes);
        let planes = self.mean.chunks_mut(hw).zip(self.m2.chunks_mut(hw));
        for ((mean, m2), xs) in planes.zip(block.chunks(n)) {
            for ((m, s2), &x) in mean[p0..p0 + n].iter_mut().zip(&mut m2[p0..p0 + n]).zip(xs) {
                let delta = x - *m;
                *m += delta * inv_n;
                *s2 += delta * (x - *m);
            }
        }
    }

    /// Merges two partials with Chan's parallel-combine formula: with the
    /// loop-invariant weights `w_mean = n_b / n` and `w_m2 = n_a * n_b / n`
    /// computed once, per element `delta = mean_b - mean_a`,
    /// `mean_a += delta * w_mean`, `m2_a += m2_b + delta * delta * w_m2`.
    ///
    /// # Panics
    ///
    /// Panics if the partials differ in length.
    fn merge(mut self, other: Welford) -> Welford {
        assert_eq!(
            self.mean.len(),
            other.mean.len(),
            "welford merge length mismatch"
        );
        if other.count == 0 {
            return self;
        }
        if self.count == 0 {
            return other;
        }
        let na = self.count as f32;
        let nb = other.count as f32;
        let n = na + nb;
        let (w_mean, w_m2) = (nb / n, na * nb / n);
        for (((ma, s2a), &mb), &s2b) in self
            .mean
            .iter_mut()
            .zip(self.m2.iter_mut())
            .zip(&other.mean)
            .zip(&other.m2)
        {
            let delta = mb - *ma;
            *ma += delta * w_mean;
            *s2a += s2b + delta * delta * w_m2;
        }
        self.count += other.count;
        self
    }
}

/// Runs one chunk of Monte-Carlo samples against a shared network and
/// prefix, folding each sample's softmax scores into a Welford partial
/// block by block, while the block's logits are still in L1. The
/// chunk's only scratch is the suffix's one block buffer.
fn run_chunk(
    net: &MsdNet,
    fused: &Tensor,
    seed: u64,
    origin: (usize, usize),
    start: usize,
    len: usize,
) -> Welford {
    let classes = net.classes();
    let kernels = el_kernels::active();
    let mut ws = Workspace::new();
    let mut acc = Welford::new(classes * fused.height() * fused.width());
    for k in start..start + len {
        let sw = el_metrics::Stopwatch::start();
        acc.count += 1;
        let inv_n = 1.0 / acc.count as f32;
        let seed_k = sample_seed(seed, k);
        net.mc_sample_blocks(fused, seed_k, origin, &mut ws, |p0, logits| {
            kernels.softmax(logits, classes, logits.len() / classes);
            acc.push_block(logits, classes, p0, inv_n);
        });
        el_metrics::registry().sample_fold.record(sw);
    }
    acc
}

fn stats_from(partials: Vec<Welford>, samples: usize, shape: (usize, usize, usize)) -> BayesStats {
    let total = partials
        .into_iter()
        .reduce(Welford::merge)
        .expect("at least one chunk");
    debug_assert_eq!(total.count, samples);
    let denom = samples as f32;
    let (c, h, w) = shape;
    let std: Vec<f32> = total
        .m2
        .iter()
        .map(|&s2| (s2 / denom).max(0.0).sqrt())
        .collect();
    BayesStats {
        mean: Tensor::from_vec(c, h, w, total.mean).expect("mean shaped like the logits"),
        std: Tensor::from_vec(c, h, w, std).expect("std shaped like the logits"),
        samples,
    }
}

/// The Monte-Carlo chunk machinery over **precomputed** invariant
/// prefixes — the engine behind [`bayesian_segment_batch`], split out so
/// the tiled sweep can keep its prefix workspace warm across tiles.
/// Crop `i` uses seed `seeds[i]` and frame origin
/// `origins[i]`; all crops' `(crop, chunk)` tasks drain one rayon queue.
pub(crate) fn mc_stats_prefixed(
    net: &MsdNet,
    fused: &[Tensor],
    samples: usize,
    seeds: &[u64],
    origins: &[(usize, usize)],
) -> Vec<BayesStats> {
    assert!(samples > 0, "at least one Monte-Carlo sample is required");
    el_metrics::registry()
        .samples_run
        .add((samples * fused.len()) as u64);
    let chunks = chunk_layout(samples);
    // One shared work queue over all (crop, chunk) tasks, ordered
    // crop-major so the flat result groups back per crop trivially.
    let tasks: Vec<(usize, usize, usize)> = (0..fused.len())
        .flat_map(|crop| chunks.iter().map(move |&(start, len)| (crop, start, len)))
        .collect();
    let partials: Vec<Welford> = tasks
        .into_par_iter()
        .map(|(crop, start, len)| {
            run_chunk(net, &fused[crop], seeds[crop], origins[crop], start, len)
        })
        .collect();
    let mut partials = partials.into_iter();
    fused
        .iter()
        .map(|f| {
            let crop_partials = partials.by_ref().take(chunks.len()).collect();
            stats_from(
                crop_partials,
                samples,
                (net.classes(), f.height(), f.width()),
            )
        })
        .collect()
}

/// Monte-Carlo-dropout inference over a batch of crops — the engine's
/// one request-shaped entry point.
///
/// The network's stochastic suffix runs `samples` times per crop —
/// dropout live, different neurons dropped each pass, exactly the paper's
/// Bayesian MSDnet — and the per-pixel softmax scores aggregate into mean
/// and standard deviation by streaming Welford accumulation (see the
/// module docs for why this is deterministic and O(1) memory in the
/// sample count). Crop `i` uses its own seed `seeds[i]` and frame origin
/// `origins[i]` (pass `(0, 0)` for standalone crops). The batch shares
/// one machine:
///
/// - each crop's Monte-Carlo-invariant prefix is computed once
///   ([`MsdNet::mc_prefix`], one GEMM per branch) and shared by all of
///   that crop's samples;
/// - the Monte-Carlo sample chunks of **all** crops flow through one
///   rayon work queue — `crops x chunks` independent tasks in a single
///   `par_iter`, so workers never idle at a per-crop join barrier while
///   another crop still has work;
/// - each task stays on one crop, keeping its working set (prefix,
///   one 64-pixel block of activations, Welford partials)
///   cache-resident.
///
/// Element `i` of the result depends only on `(net, inputs[i], samples,
/// seeds[i], origins[i])` — never on the rest of the batch or on the
/// thread count (property-tested): each crop's prefix is its own GEMM,
/// the coordinate-keyed masks depend only on `(seed, global
/// coordinates)`, and the Welford chunk partition and merge order are
/// fixed functions of `samples`.
///
/// # Panics
///
/// Panics if `samples == 0` or the slices disagree in length.
pub fn bayesian_segment_batch(
    net: &MsdNet,
    inputs: &[&Tensor],
    samples: usize,
    seeds: &[u64],
    origins: &[(usize, usize)],
) -> Vec<BayesStats> {
    assert!(samples > 0, "at least one Monte-Carlo sample is required");
    assert!(
        inputs.len() == seeds.len() && inputs.len() == origins.len(),
        "batch inputs must be parallel"
    );
    if inputs.is_empty() {
        return Vec::new();
    }
    let mut ws = Workspace::new();
    let fused: Vec<Tensor> = inputs.iter().map(|t| net.mc_prefix(t, &mut ws)).collect();
    mc_stats_prefixed(net, &fused, samples, seeds, origins)
}

/// Runs Monte-Carlo-dropout inference on a rendered image: a one-crop
/// [`bayesian_segment_batch`] at frame origin `(0, 0)`.
///
/// Deterministic given `(net, image, samples, seed)` and independent of
/// the thread count.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn bayesian_segment(net: &MsdNet, image: &Image, samples: usize, seed: u64) -> BayesStats {
    let input = image_to_tensor(image);
    bayesian_segment_batch(net, &[&input], samples, &[seed], &[(0, 0)])
        .pop()
        .expect("one result per input")
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_nn::loss::softmax;
    use el_seg::MsdNetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (MsdNet, Tensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let input = Tensor::from_fn(3, 10, 10, |c, y, x| ((c + y + x) as f32 * 0.37).sin() * 0.5);
        (net, input)
    }

    /// One crop through the engine at `origin`.
    fn stats_at(
        net: &MsdNet,
        input: &Tensor,
        samples: usize,
        seed: u64,
        origin: (usize, usize),
    ) -> BayesStats {
        bayesian_segment_batch(net, &[input], samples, &[seed], &[origin])
            .pop()
            .expect("one result per input")
    }

    fn stats(net: &MsdNet, input: &Tensor, samples: usize, seed: u64) -> BayesStats {
        stats_at(net, input, samples, seed, (0, 0))
    }

    #[test]
    fn shapes_and_determinism() {
        let (net, input) = setup();
        let a = stats(&net, &input, 5, 1);
        assert_eq!(a.mean.shape(), (8, 10, 10));
        assert_eq!(a.std.shape(), (8, 10, 10));
        assert_eq!(a.samples, 5);
        let b = stats(&net, &input, 5, 1);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std, b.std);
        let c = stats(&net, &input, 5, 2);
        assert_ne!(a.mean, c.mean, "different seeds draw different masks");
    }

    #[test]
    fn chunk_layout_is_exhaustive_and_ordered() {
        for samples in 1..40 {
            let chunks = chunk_layout(samples);
            assert!(chunks.len() <= MC_CHUNKS);
            let mut expect = 0;
            for (start, len) in &chunks {
                assert_eq!(*start, expect, "chunks must be contiguous");
                assert!(*len > 0, "chunks must be non-empty");
                expect += len;
            }
            assert_eq!(expect, samples, "chunks must cover all samples");
        }
    }

    #[test]
    fn mean_is_probability_distribution() {
        let (net, input) = setup();
        let stats = stats(&net, &input, 6, 3);
        let hw = 100;
        for i in 0..hw {
            let s: f32 = (0..8).map(|k| stats.mean.as_slice()[k * hw + i]).sum();
            assert!((s - 1.0).abs() < 1e-4, "pixel {i} mean sums to {s}");
        }
        assert!(stats.std.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn single_sample_has_zero_std() {
        let (net, input) = setup();
        let stats = stats(&net, &input, 1, 4);
        assert!(stats.std.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dropout_zero_has_zero_std() {
        let (mut net, input) = setup();
        net.set_dropout(0.0);
        let stats = stats(&net, &input, 8, 5);
        assert!(stats.std.max_abs() < 1e-6, "no dropout, no variance");
    }

    #[test]
    fn welford_matches_two_pass() {
        let (net, input) = setup();
        let samples = 7;
        let stats = stats(&net, &input, samples, 9);
        // Reference: recompute by storing all passes, drawing each
        // sample's keyed masks from its split seed.
        let mut ws = Workspace::new();
        let fused = net.mc_prefix(&input, &mut ws);
        let hw = input.height() * input.width();
        let mut all: Vec<Tensor> = Vec::new();
        for k in 0..samples {
            let mut logits = Tensor::zeros(8, input.height(), input.width());
            net.mc_sample_blocks(&fused, sample_seed(9, k), (0, 0), &mut ws, |p0, z| {
                let n = z.len() / 8;
                for (c, plane) in z.chunks_exact(n).enumerate() {
                    logits.as_mut_slice()[c * hw + p0..][..n].copy_from_slice(plane);
                }
            });
            all.push(softmax(&logits));
        }
        let n = all[0].len();
        for i in (0..n).step_by(37) {
            let vals: Vec<f32> = all.iter().map(|t| t.as_slice()[i]).collect();
            let mean = vals.iter().sum::<f32>() / samples as f32;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / samples as f32;
            assert!((stats.mean.as_slice()[i] - mean).abs() < 1e-5);
            assert!((stats.std.as_slice()[i] - var.sqrt()).abs() < 1e-4);
        }
    }

    #[test]
    fn portable_push_matches_naive_two_loop_fold() {
        // The scalar reference fold, spelled out independently of
        // `Welford::push_block` (guards against editing both in
        // lockstep), over 3 planes of 11 pixels folded in uneven blocks.
        let (samples, classes, hw) = (9, 3, 11);
        let len = classes * hw;
        let slabs: Vec<Vec<f32>> = (0..samples)
            .map(|k| {
                (0..len)
                    .map(|i| (((7 + 31 * k + i) as f32) * 0.173).sin() * 0.8 + 0.1)
                    .collect()
            })
            .collect();
        let (mut mean, mut m2) = (vec![0.0f32; len], vec![0.0f32; len]);
        for (k, xs) in slabs.iter().enumerate() {
            let inv_n = 1.0 / (k + 1) as f32;
            for i in 0..len {
                let delta = xs[i] - mean[i];
                mean[i] += delta * inv_n;
                m2[i] += delta * (xs[i] - mean[i]);
            }
        }
        let mut acc = Welford::new(len);
        for (k, xs) in slabs.iter().enumerate() {
            acc.count += 1;
            let inv_n = 1.0 / (k + 1) as f32;
            for (p0, n) in [(0, 4), (4, 1), (5, 6)] {
                let block: Vec<f32> = (0..classes)
                    .flat_map(|c| xs[c * hw + p0..][..n].iter().copied())
                    .collect();
                acc.push_block(&block, classes, p0, inv_n);
            }
        }
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(acc.count, samples);
        assert_eq!(bits(&acc.mean), bits(&mean));
        assert_eq!(bits(&acc.m2), bits(&m2));
    }

    #[test]
    #[should_panic(expected = "at least one Monte-Carlo sample")]
    fn zero_samples_rejected() {
        let (net, input) = setup();
        let _ = stats(&net, &input, 0, 0);
    }

    #[test]
    fn batch_matches_single_crop_bitwise() {
        // Tiny crops and candidate-zone-sized crops alike: a crop's
        // statistics do not depend on what else shares its batch.
        let (net, _) = setup();
        for sizes in [
            &[(10usize, 10usize), (7, 9), (12, 5)][..],
            &[(45, 45), (40, 40), (33, 41)][..],
        ] {
            let inputs: Vec<Tensor> = sizes
                .iter()
                .enumerate()
                .map(|(i, &(h, w))| {
                    Tensor::from_fn(3, h, w, move |c, y, x| {
                        ((i * 37 + c * 11 + y * 3 + x) as f32 * 0.21).sin()
                    })
                })
                .collect();
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let seeds: Vec<u64> = (0..sizes.len() as u64).map(|i| 5 + 29 * i).collect();
            let origins: Vec<(usize, usize)> =
                (0..sizes.len()).map(|i| (3 * i, 40 + 7 * i)).collect();
            for samples in [1usize, 4, 10] {
                let batch = bayesian_segment_batch(&net, &refs, samples, &seeds, &origins);
                assert_eq!(batch.len(), inputs.len());
                for (((input, &seed), &origin), stats) in
                    inputs.iter().zip(&seeds).zip(&origins).zip(&batch)
                {
                    let single = stats_at(&net, input, samples, seed, origin);
                    assert_eq!(
                        single.mean.as_slice(),
                        stats.mean.as_slice(),
                        "{samples}-sample batch mean diverges at origin {origin:?}"
                    );
                    assert_eq!(
                        single.std.as_slice(),
                        stats.std.as_slice(),
                        "{samples}-sample batch std diverges at origin {origin:?}"
                    );
                    assert_eq!(stats.samples, samples);
                }
            }
        }
        assert!(bayesian_segment_batch(&net, &[], 4, &[], &[]).is_empty());
    }

    #[test]
    fn origin_shifts_masks() {
        // Different frame origins draw different masks — the engine keys
        // them by global coordinates.
        let (net, input) = setup();
        let a = stats_at(&net, &input, 6, 3, (0, 0));
        let b = stats_at(&net, &input, 6, 3, (5, 9));
        assert_ne!(a.mean, b.mean);
    }
}
