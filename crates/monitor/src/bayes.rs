//! Monte-Carlo-dropout Bayesian inference — the monitor's fast engine.
//!
//! # Engine design
//!
//! A verified crop costs `samples` stochastic passes in the naive
//! formulation. The engine cuts that down four ways, none of which
//! changes the statistics' semantics:
//!
//! 1. **Invariant-prefix caching.** No dropout layer precedes the MSDnet's
//!    dilated branch convolutions, so `relu(conv_d(x))` is identical in
//!    every Monte-Carlo sample. [`el_seg::MsdNet::mc_prefix`] computes it
//!    once per crop ([`el_seg::MsdNet::mc_prefix_batch`] with **one**
//!    column-stacked GEMM per branch for a batch of crops); each sample
//!    replays only the stochastic suffix (branch dropout → fusion head →
//!    head dropout → classifier).
//! 2. **Coordinate-keyed masks.** Sample `k`'s per-sample seed is
//!    `splitmix64(seed + (k+1)·φ)` (`φ` the 64-bit golden-ratio
//!    constant), and each activation's mask bit is a pure hash of that
//!    seed and the activation's **global frame coordinates**
//!    ([`el_nn::layers::keyed_mask_word`]). Masks therefore depend
//!    neither on execution order nor on the shape or position of the
//!    block they are computed through: the parallel and sequential paths
//!    agree bit for bit, a batch of crops agrees with per-crop
//!    verification, and a tile computed at its frame origin agrees with
//!    the whole frame ([`bayesian_segment_tiled`](crate::tiledbayes)).
//!    The per-row mask evaluation — like the GEMMs under every
//!    convolution here — dispatches through the `el_kernels` tier
//!    ladder (portable/SSE2/AVX2/AVX-512F/NEON, `EL_FORCE_KERNEL` to
//!    pin), and every tier is bit-identical, so verdicts are also
//!    independent of the ISA the monitor ships on (`docs/kernels.md`).
//! 3. **Fixed-chunk streaming Welford.** Samples are partitioned into at
//!    most [`MC_CHUNKS`] contiguous chunks — a partition that depends only
//!    on the sample count, never on thread count. Each chunk folds its
//!    samples into a running Welford mean/M2 (O(1) memory in the sample
//!    count); the per-chunk partials are then merged **in chunk order**
//!    with Chan's parallel-combine formula. Because both the partition and
//!    the merge order are fixed, [`bayesian_segment_tensor`] (chunks on
//!    rayon workers) and [`bayesian_segment_tensor_sequential`] (same
//!    chunks, one thread) produce bit-identical [`BayesStats`]. The fold
//!    itself is **lane-parallel across pixels, sequential across
//!    samples** — pixel statistics never interact — so both the per-pixel
//!    update and the chunk merge dispatch through the `el_kernels` tier
//!    ladder ([`el_kernels::Kernels::welford_push`] /
//!    [`el_kernels::Kernels::welford_merge`]), 4/8/16 pixels per lane
//!    step, every tier bit-identical to portable.
//! 4. **One shared batch work queue.** [`bayesian_segment_batch`] turns
//!    a batch of crops into `crops x chunks` independent tasks drained by
//!    a single rayon `par_iter` — no per-crop join barriers, so workers
//!    stay busy while any crop still has samples left. Each task stays on
//!    one crop (its prefix, activations and Welford partials remain
//!    cache-resident), and scratch arenas are pooled across the whole
//!    invocation instead of re-warmed per crop. Batches whose
//!    per-sample activations fit the cache budget entirely
//!    (`STACKED_SUFFIX_BUDGET`) instead collapse each sample's suffix
//!    across **all** crops into two column-stacked head GEMMs
//!    ([`el_seg::MsdNet::mc_sample_stacked`]) — both strategies are
//!    bit-identical and pinned by the same property tests.
//!
//! The pre-optimization path — naive scalar convolution, one RNG stream,
//! strictly sequential — survives as [`bayesian_segment_tensor_reference`]
//! for the equivalence tests and the `perf_monitor_scaling` benchmark.

use el_kernels::welford::AlignedF32;
use el_nn::layers::Phase;
use el_nn::loss::{softmax, softmax_in_place};
use el_nn::{Tensor, Workspace};
use el_scene::Image;
use el_seg::data::image_to_tensor;
use el_seg::MsdNet;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
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
    /// The upper 99.7% confidence bound `µ + k σ` for one class channel.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn upper_bound(&self, class: usize, sigma_factor: f32) -> Vec<f32> {
        assert!(class < self.mean.channels(), "class {class} out of range");
        self.mean
            .channel(class)
            .iter()
            .zip(self.std.channel(class))
            .map(|(&m, &s)| m + sigma_factor * s)
            .collect()
    }

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
/// Both the per-sample update and the Chan merge are lane-parallel
/// across elements (pixels) and dispatch through the `el_kernels` tier
/// ladder ([`el_kernels::active`], honouring `EL_FORCE_KERNEL`); every
/// tier reproduces the portable fold bit for bit, so the monitor's
/// statistics are independent of the ISA it ships on. The accumulator
/// slabs live in 64-byte-aligned storage
/// ([`el_kernels::welford::AlignedF32`]) — they are the streams loaded
/// *and* stored every sample, and aligned 512-bit accesses dodge the
/// cache-line-split tax. Consecutive samples can fold as fused pairs
/// ([`Welford::push2`]), which is bit-identical to two single pushes
/// and halves the accumulator traffic.
struct Welford {
    count: usize,
    mean: AlignedF32,
    m2: AlignedF32,
}

impl Welford {
    fn new(len: usize) -> Self {
        Welford {
            count: 0,
            mean: AlignedF32::zeroed(len),
            m2: AlignedF32::zeroed(len),
        }
    }

    /// Folds one sample in (classic Welford update, lane-parallel over
    /// the slab).
    fn push(&mut self, xs: &[f32]) {
        debug_assert_eq!(xs.len(), self.mean.len());
        self.count += 1;
        let n = self.count as f32;
        el_kernels::active().welford_push(self.mean.as_mut_slice(), self.m2.as_mut_slice(), xs, n);
    }

    /// Folds two consecutive samples as one fused pass — bit-identical
    /// to `push(xs0); push(xs1)` on every tier (the kernel preserves
    /// every intermediate rounding), but the accumulator slabs stream
    /// through the cache once instead of twice.
    fn push2(&mut self, xs0: &[f32], xs1: &[f32]) {
        debug_assert_eq!(xs0.len(), self.mean.len());
        let n0 = (self.count + 1) as f32;
        self.count += 2;
        el_kernels::active().welford_push2(
            self.mean.as_mut_slice(),
            self.m2.as_mut_slice(),
            xs0,
            xs1,
            n0,
        );
    }

    /// Folds one sample stored as a column block of a stacked
    /// `(classes x stride)` matrix (columns `[off, off + hw)` of each
    /// class row). Element `c·hw + j` sees exactly the arithmetic
    /// [`Welford::push`] applies to a contiguous `(classes, h, w)`
    /// tensor, so the stacked batch path is bit-identical to the
    /// per-crop path.
    fn push_stacked(&mut self, xs: &[f32], stride: usize, off: usize, hw: usize) {
        debug_assert_eq!(self.mean.len() % hw, 0);
        self.count += 1;
        let n = self.count as f32;
        let classes = self.mean.len() / hw;
        let kernels = el_kernels::active();
        for c in 0..classes {
            let row = &xs[c * stride + off..c * stride + off + hw];
            let mean = &mut self.mean.as_mut_slice()[c * hw..(c + 1) * hw];
            let m2 = &mut self.m2.as_mut_slice()[c * hw..(c + 1) * hw];
            kernels.welford_push(mean, m2, row, n);
        }
    }

    /// The fused-pair form of [`Welford::push_stacked`] — bit-identical
    /// to two single stacked pushes.
    fn push2_stacked(&mut self, xs0: &[f32], xs1: &[f32], stride: usize, off: usize, hw: usize) {
        debug_assert_eq!(self.mean.len() % hw, 0);
        let n0 = (self.count + 1) as f32;
        self.count += 2;
        let classes = self.mean.len() / hw;
        let kernels = el_kernels::active();
        for c in 0..classes {
            let row0 = &xs0[c * stride + off..c * stride + off + hw];
            let row1 = &xs1[c * stride + off..c * stride + off + hw];
            let mean = &mut self.mean.as_mut_slice()[c * hw..(c + 1) * hw];
            let m2 = &mut self.m2.as_mut_slice()[c * hw..(c + 1) * hw];
            kernels.welford_push2(mean, m2, row0, row1, n0);
        }
    }

    /// Merges two partials with Chan's parallel-combine formula
    /// (lane-parallel; the scalar weights are computed once, which is
    /// bit-identical to recomputing them per element).
    fn merge(mut self, other: Welford) -> Welford {
        if other.count == 0 {
            return self;
        }
        if self.count == 0 {
            return other;
        }
        let na = self.count as f32;
        let nb = other.count as f32;
        let n = na + nb;
        el_kernels::active().welford_merge(
            self.mean.as_mut_slice(),
            self.m2.as_mut_slice(),
            other.mean.as_slice(),
            other.m2.as_slice(),
            nb / n,
            na * nb / n,
        );
        self.count += other.count;
        self
    }
}

/// Runs one chunk of Monte-Carlo samples against a shared network and
/// prefix, folding each sample's softmax scores into a Welford partial.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    net: &MsdNet,
    fused: &Tensor,
    seed: u64,
    origin: (usize, usize),
    start: usize,
    len: usize,
    stat_len: usize,
    ws: &mut Workspace,
) -> Welford {
    let mut acc = Welford::new(stat_len);
    // Consecutive samples fold as fused pairs — bit-identical to single
    // pushes (see `Kernels::welford_push2`) with half the accumulator
    // traffic; an odd chunk folds its last sample singly.
    let mut k = start;
    while k + 2 <= start + len {
        let sw = el_metrics::Stopwatch::start();
        let mut p0 = net.mc_sample_at(fused, sample_seed(seed, k), origin, ws);
        softmax_in_place(&mut p0);
        let mut p1 = net.mc_sample_at(fused, sample_seed(seed, k + 1), origin, ws);
        softmax_in_place(&mut p1);
        acc.push2(p0.as_slice(), p1.as_slice());
        ws.recycle(p1);
        ws.recycle(p0);
        el_metrics::registry().sample_fold.record(sw);
        k += 2;
    }
    if k < start + len {
        let sw = el_metrics::Stopwatch::start();
        let mut probs = net.mc_sample_at(fused, sample_seed(seed, k), origin, ws);
        softmax_in_place(&mut probs);
        acc.push(probs.as_slice());
        ws.recycle(probs);
        el_metrics::registry().sample_fold.record(sw);
    }
    acc
}

/// Runs one chunk of Monte-Carlo samples for an **entire** batch of
/// crops: each sample's stochastic suffix covers the whole batch via
/// column-stacked head GEMMs ([`MsdNet::mc_sample_stacked`]). Returns
/// one Welford partial per crop, each bit-identical to what
/// [`run_chunk`] would produce for that crop alone. Selected by
/// [`bayesian_segment_batch`] only while the stacked activations fit
/// the cache budget ([`STACKED_SUFFIX_BUDGET`]).
fn run_chunk_stacked(
    net: &MsdNet,
    fused: &[&Tensor],
    seeds: &[u64],
    origins: &[(usize, usize)],
    start: usize,
    len: usize,
    ws: &mut Workspace,
) -> Vec<Welford> {
    let classes = net.classes();
    let n_total: usize = fused.iter().map(|f| f.height() * f.width()).sum();
    let mut accs: Vec<Welford> = fused
        .iter()
        .map(|f| Welford::new(classes * f.height() * f.width()))
        .collect();
    let mut ks = vec![0u64; seeds.len()];
    // Fused sample pairs, exactly as in `run_chunk` — bit-identical to
    // the single-sample fold, half the accumulator traffic.
    let mut k = start;
    while k + 2 <= start + len {
        let sw = el_metrics::Stopwatch::start();
        for (dst, &s) in ks.iter_mut().zip(seeds) {
            *dst = sample_seed(s, k);
        }
        let mut p0 = net.mc_sample_stacked(fused, &ks, origins, ws);
        softmax_in_place(&mut p0);
        for (dst, &s) in ks.iter_mut().zip(seeds) {
            *dst = sample_seed(s, k + 1);
        }
        let mut p1 = net.mc_sample_stacked(fused, &ks, origins, ws);
        softmax_in_place(&mut p1);
        let mut off = 0usize;
        for (acc, f) in accs.iter_mut().zip(fused) {
            let hw = f.height() * f.width();
            acc.push2_stacked(p0.as_slice(), p1.as_slice(), n_total, off, hw);
            off += hw;
        }
        ws.recycle(p1);
        ws.recycle(p0);
        el_metrics::registry().sample_fold.record(sw);
        k += 2;
    }
    if k < start + len {
        let sw = el_metrics::Stopwatch::start();
        for (dst, &s) in ks.iter_mut().zip(seeds) {
            *dst = sample_seed(s, k);
        }
        let mut probs = net.mc_sample_stacked(fused, &ks, origins, ws);
        softmax_in_place(&mut probs);
        let mut off = 0usize;
        for (acc, f) in accs.iter_mut().zip(fused) {
            let hw = f.height() * f.width();
            acc.push_stacked(probs.as_slice(), n_total, off, hw);
            off += hw;
        }
        ws.recycle(probs);
        el_metrics::registry().sample_fold.record(sw);
    }
    accs
}

/// Element budget for the stacked-suffix batch path: the whole batch's
/// per-sample activations (`(fused + hidden + classes) channels x Σ h·w`
/// f32 columns) must stay cache-resident or the stacked GEMMs lose to
/// per-crop, cache-local chunks (measured on the 2 MB-L2 benchmark
/// box). 64 Ki f32 = 256 KB, matching the prefix's im2col grouping
/// budget. A pure performance knob — both paths are bit-identical.
const STACKED_SUFFIX_BUDGET: usize = 64 * 1024;

/// A lock-protected stack of scratch arenas shared by every task of one
/// batch invocation: a worker pops an arena (or starts a fresh one),
/// runs its chunk, and pushes the arena back. The number of arenas ever
/// warmed therefore equals the peak worker concurrency — not the task
/// count, and not the crop count as in `N` sequential engine calls.
pub(crate) struct WsPool(std::sync::Mutex<Vec<Workspace>>);

impl WsPool {
    pub(crate) fn new() -> Self {
        WsPool(std::sync::Mutex::new(Vec::new()))
    }

    fn with<R>(&self, f: impl FnOnce(&mut Workspace) -> R) -> R {
        let mut ws = self
            .0
            .lock()
            .expect("workspace pool lock")
            .pop()
            .unwrap_or_default();
        let out = f(&mut ws);
        self.0.lock().expect("workspace pool lock").push(ws);
        out
    }
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
        .as_slice()
        .iter()
        .map(|&s2| (s2 / denom).max(0.0).sqrt())
        .collect();
    BayesStats {
        mean: Tensor::from_vec(c, h, w, total.mean.into_vec())
            .expect("mean shaped like the logits"),
        std: Tensor::from_vec(c, h, w, std).expect("std shaped like the logits"),
        samples,
    }
}

fn mc_stats(
    net: &MsdNet,
    input: &Tensor,
    samples: usize,
    seed: u64,
    origin: (usize, usize),
    parallel: bool,
) -> BayesStats {
    let mut ws = Workspace::new();
    let pool = WsPool::new();
    mc_stats_pooled(net, input, samples, seed, origin, parallel, &pool, &mut ws)
}

/// [`mc_stats`] with caller-owned scratch: `ws` serves the prefix, the
/// `pool` serves the chunk tasks. Repeated invocations (the tiled
/// driver's per-tile passes) reuse warm arenas instead of re-allocating
/// the prefix/im2col/sample buffers every call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mc_stats_pooled(
    net: &MsdNet,
    input: &Tensor,
    samples: usize,
    seed: u64,
    origin: (usize, usize),
    parallel: bool,
    pool: &WsPool,
    ws: &mut Workspace,
) -> BayesStats {
    let fused = net.mc_prefix(input, ws);
    let stats = mc_stats_prefixed(net, &fused, samples, seed, origin, parallel, pool);
    ws.recycle(fused);
    stats
}

/// The Monte-Carlo chunk machinery over a **precomputed** invariant
/// prefix: the shared tail of [`mc_stats_pooled`], split out so the tiled
/// audit driver can batch a group of tiles' prefixes through one
/// column-stacked GEMM ([`MsdNet::mc_prefix_batch`]) and then run each
/// tile's sample chunks here. Bit-identical to `mc_stats_pooled` on the
/// same prefix — the chunk partition and merge order depend only on
/// `samples`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mc_stats_prefixed(
    net: &MsdNet,
    fused: &Tensor,
    samples: usize,
    seed: u64,
    origin: (usize, usize),
    parallel: bool,
    pool: &WsPool,
) -> BayesStats {
    assert!(samples > 0, "at least one Monte-Carlo sample is required");
    el_metrics::registry().samples_run.add(samples as u64);
    let (h, w) = (fused.height(), fused.width());
    let stat_len = net.classes() * h * w;
    let shape = (net.classes(), h, w);
    let chunks = chunk_layout(samples);
    let partials: Vec<Welford> = if parallel {
        chunks
            .into_par_iter()
            .map(|(start, len)| {
                pool.with(|ws| run_chunk(net, fused, seed, origin, start, len, stat_len, ws))
            })
            .collect()
    } else {
        chunks
            .into_iter()
            .map(|(start, len)| {
                pool.with(|ws| run_chunk(net, fused, seed, origin, start, len, stat_len, ws))
            })
            .collect()
    };
    stats_from(partials, samples, shape)
}

/// Runs Monte-Carlo-dropout inference on an input tensor.
///
/// The network's stochastic suffix runs `samples` times — dropout live,
/// different neurons dropped each pass, exactly the paper's Bayesian
/// MSDnet — with the sample chunks spread over rayon workers, and the
/// per-pixel softmax scores aggregated into mean and standard deviation
/// by streaming Welford accumulation (see the module docs for why this is
/// deterministic and O(1) memory in the sample count).
///
/// Deterministic given `(net, input, samples, seed)` — independent of
/// thread count, and bit-identical to
/// [`bayesian_segment_tensor_sequential`].
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn bayesian_segment_tensor(
    net: &MsdNet,
    input: &Tensor,
    samples: usize,
    seed: u64,
) -> BayesStats {
    mc_stats(net, input, samples, seed, (0, 0), true)
}

/// [`bayesian_segment_tensor`] for a crop located at `origin = (row, col)`
/// of a larger frame: the coordinate-keyed dropout masks are drawn at the
/// crop's **global** coordinates, so a tile computed here is bit-identical
/// to the same pixels of a whole-frame pass (the invariant behind
/// [`bayesian_segment_tiled`](crate::tiledbayes::bayesian_segment_tiled)).
///
/// `bayesian_segment_tensor` is exactly this function at origin `(0, 0)`.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn bayesian_segment_tensor_at(
    net: &MsdNet,
    input: &Tensor,
    samples: usize,
    seed: u64,
    origin: (usize, usize),
) -> BayesStats {
    mc_stats(net, input, samples, seed, origin, true)
}

/// Single-threaded variant of [`bayesian_segment_tensor`]: the identical
/// chunk layout and merge order on one thread, hence bit-identical
/// results (asserted by tests).
pub fn bayesian_segment_tensor_sequential(
    net: &MsdNet,
    input: &Tensor,
    samples: usize,
    seed: u64,
) -> BayesStats {
    mc_stats(net, input, samples, seed, (0, 0), false)
}

/// Batched Monte-Carlo-dropout inference: verifies every crop of a batch
/// in one engine invocation.
///
/// Crop `i` uses its own seed `seeds[i]` and frame origin `origins[i]`
/// (pass `(0, 0)` for standalone crops). The batch shares one machine:
///
/// - every branch convolution of the Monte-Carlo-invariant prefixes runs
///   as a **single** column-stacked im2col GEMM across all crops
///   ([`MsdNet::mc_prefix_batch`]);
/// - the Monte-Carlo sample chunks of **all** crops flow through one
///   rayon work queue — `crops x chunks` independent tasks in a single
///   `par_iter` instead of `N` sequential per-crop pools, so workers
///   never idle at a per-crop join barrier while another crop still has
///   work;
/// - each task stays on one crop, keeping its working set (prefix,
///   masked activations, Welford partials) cache-resident, and scratch
///   arenas are pooled across the whole invocation rather than re-warmed
///   per crop — unless the whole batch's per-sample activations fit the
///   cache budget, in which case each sample's suffix runs as two
///   column-stacked GEMMs covering every crop at once
///   ([`MsdNet::mc_sample_stacked`]); the strategies are bit-identical.
///
/// Element `i` of the result is **bit-identical** to
/// `bayesian_segment_tensor_at(net, inputs[i], samples, seeds[i],
/// origins[i])` (property-tested): the stacked GEMM computes each column
/// independently in the same reduction order, the coordinate-keyed masks
/// depend only on `(seed, global coordinates)`, and the Welford chunk
/// partition and merge order are the same fixed functions of `samples`.
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
    el_metrics::registry()
        .samples_run
        .add((samples * inputs.len()) as u64);
    let mut ws = Workspace::new();
    let fused = net.mc_prefix_batch(inputs, &mut ws);
    let chunks = chunk_layout(samples);
    let pool = WsPool::new();
    let fused_ref = &fused;
    // Two bit-identical suffix strategies, picked by working-set size: a
    // batch small enough to keep every crop's per-sample activations
    // cache-resident runs each sample's suffix as whole-batch stacked
    // GEMMs; larger batches run per-crop, cache-local chunk tasks.
    let cfg = net.config();
    let fc = cfg.branch_channels * cfg.dilations.len();
    let n_total: usize = inputs.iter().map(|t| t.height() * t.width()).sum();
    let stacked = (fc + cfg.head_hidden + cfg.classes) * n_total <= STACKED_SUFFIX_BUDGET;
    let per_crop_partials: Vec<Vec<Welford>> = if stacked {
        let fused_refs: Vec<&Tensor> = fused.iter().collect();
        let per_chunk: Vec<Vec<Welford>> = chunks
            .into_par_iter()
            .map(|(start, len)| {
                pool.with(|ws| run_chunk_stacked(net, &fused_refs, seeds, origins, start, len, ws))
            })
            .collect();
        // Transpose chunk-major to crop-major, preserving chunk order.
        let mut per_crop: Vec<Vec<Welford>> = (0..inputs.len()).map(|_| Vec::new()).collect();
        for chunk in per_chunk {
            for (crop, partial) in chunk.into_iter().enumerate() {
                per_crop[crop].push(partial);
            }
        }
        per_crop
    } else {
        // One shared work queue over all (crop, chunk) tasks, ordered
        // crop-major so the flat result groups back per crop trivially.
        let tasks: Vec<(usize, usize, usize)> = (0..inputs.len())
            .flat_map(|crop| chunks.iter().map(move |&(start, len)| (crop, start, len)))
            .collect();
        let n_chunks = chunks.len();
        let partials: Vec<Welford> = tasks
            .into_par_iter()
            .map(|(crop, start, len)| {
                let f = &fused_ref[crop];
                let stat_len = net.classes() * f.height() * f.width();
                pool.with(|ws| {
                    run_chunk(net, f, seeds[crop], origins[crop], start, len, stat_len, ws)
                })
            })
            .collect();
        let mut partials = partials.into_iter();
        (0..inputs.len())
            .map(|_| partials.by_ref().take(n_chunks).collect())
            .collect()
    };
    per_crop_partials
        .into_iter()
        .zip(inputs)
        .map(|(crop_partials, input)| {
            let shape = (net.classes(), input.height(), input.width());
            stats_from(crop_partials, samples, shape)
        })
        .collect()
}

/// The pre-optimization baseline: naive scalar convolution
/// ([`MsdNet::forward_reference`]), one sequential RNG stream, full
/// forward pass per sample.
///
/// Retained to anchor the engine's speedup in `perf_monitor_scaling` and
/// as a semantic reference — it produces the same *distribution* of
/// statistics, though not the same bits (its single RNG stream makes
/// sample `k` depend on all earlier samples, which is exactly what the
/// seed-splitting scheme removed).
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn bayesian_segment_tensor_reference(
    net: &mut MsdNet,
    input: &Tensor,
    samples: usize,
    seed: u64,
) -> BayesStats {
    assert!(samples > 0, "at least one Monte-Carlo sample is required");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut acc: Option<Welford> = None;
    for _ in 0..samples {
        let logits = net.forward_reference(input, Phase::Stochastic, &mut rng);
        let probs = softmax(&logits);
        acc.get_or_insert_with(|| Welford::new(probs.len()))
            .push(probs.as_slice());
    }
    let shape = (net.classes(), input.height(), input.width());
    stats_from(vec![acc.expect("samples > 0")], samples, shape)
}

/// Runs Monte-Carlo-dropout inference on a rendered image.
///
/// See [`bayesian_segment_tensor`].
pub fn bayesian_segment(net: &MsdNet, image: &Image, samples: usize, seed: u64) -> BayesStats {
    bayesian_segment_tensor(net, &image_to_tensor(image), samples, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_seg::MsdNetConfig;
    use rand::SeedableRng;

    fn setup() -> (MsdNet, Tensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let input = Tensor::from_fn(3, 10, 10, |c, y, x| ((c + y + x) as f32 * 0.37).sin() * 0.5);
        (net, input)
    }

    #[test]
    fn shapes_and_determinism() {
        let (net, input) = setup();
        let a = bayesian_segment_tensor(&net, &input, 5, 1);
        assert_eq!(a.mean.shape(), (8, 10, 10));
        assert_eq!(a.std.shape(), (8, 10, 10));
        assert_eq!(a.samples, 5);
        let b = bayesian_segment_tensor(&net, &input, 5, 1);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std, b.std);
        let c = bayesian_segment_tensor(&net, &input, 5, 2);
        assert_ne!(a.mean, c.mean, "different seeds draw different masks");
    }

    #[test]
    fn parallel_and_sequential_are_bit_identical() {
        let (net, input) = setup();
        for samples in [1, 3, 8, 13] {
            let par = bayesian_segment_tensor(&net, &input, samples, 21);
            let seq = bayesian_segment_tensor_sequential(&net, &input, samples, 21);
            assert_eq!(
                par.mean.as_slice(),
                seq.mean.as_slice(),
                "{samples}-sample means diverge"
            );
            assert_eq!(
                par.std.as_slice(),
                seq.std.as_slice(),
                "{samples}-sample stds diverge"
            );
        }
    }

    #[test]
    fn engine_matches_reference_distribution() {
        // The engine and the naive baseline draw different (but equally
        // valid) mask streams; their statistics must agree in expectation.
        // With dropout 0 both are deterministic and must agree exactly.
        let (mut net, input) = setup();
        net.set_dropout(0.0);
        let a = bayesian_segment_tensor(&net, &input, 4, 7);
        let b = bayesian_segment_tensor_reference(&mut net, &input, 4, 7);
        assert_eq!(a.mean, b.mean, "dropout-0 means must agree exactly");
        assert!(a.std.max_abs() < 1e-6 && b.std.max_abs() < 1e-6);
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
        let stats = bayesian_segment_tensor(&net, &input, 6, 3);
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
        let stats = bayesian_segment_tensor(&net, &input, 1, 4);
        assert!(stats.std.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dropout_zero_has_zero_std() {
        let (mut net, input) = setup();
        net.set_dropout(0.0);
        let stats = bayesian_segment_tensor(&net, &input, 8, 5);
        assert!(stats.std.max_abs() < 1e-6, "no dropout, no variance");
    }

    #[test]
    fn welford_matches_two_pass() {
        let (net, input) = setup();
        let samples = 7;
        let stats = bayesian_segment_tensor(&net, &input, samples, 9);
        // Reference: recompute by storing all passes, drawing each
        // sample's keyed masks from its split seed.
        let mut ws = Workspace::new();
        let fused = net.mc_prefix(&input, &mut ws);
        let mut all: Vec<Tensor> = Vec::new();
        for k in 0..samples {
            let logits = net.mc_sample_at(&fused, sample_seed(9, k), (0, 0), &mut ws);
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
    fn upper_bound_exceeds_mean() {
        let (net, input) = setup();
        let stats = bayesian_segment_tensor(&net, &input, 5, 6);
        let ub = stats.upper_bound(1, 3.0);
        for (u, &m) in ub.iter().zip(stats.mean.channel(1)) {
            assert!(*u >= m);
        }
        assert!(stats.mean_uncertainty() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one Monte-Carlo sample")]
    fn zero_samples_rejected() {
        let (net, input) = setup();
        let _ = bayesian_segment_tensor(&net, &input, 0, 0);
    }

    #[test]
    fn batch_matches_single_crop_bitwise() {
        // Small crops: the stacked-suffix branch.
        assert_batch_strategy_matches_single(&[(10, 10), (7, 9), (12, 5)], true);
        let (net, _) = setup();
        assert!(bayesian_segment_batch(&net, &[], 4, &[], &[]).is_empty());
    }

    #[test]
    fn batch_per_crop_branch_matches_single_crop_bitwise() {
        // Candidate-zone-sized crops: exceeds STACKED_SUFFIX_BUDGET and
        // takes the shared (crop x chunk) work-queue branch — the branch
        // the paper config's candidate crops always take in production.
        assert_batch_strategy_matches_single(&[(45, 45), (40, 40), (33, 41)], false);
    }

    /// Drives one batch against per-crop verification, asserting first
    /// that the size set selects the intended suffix strategy (so each
    /// caller provably covers its branch).
    fn assert_batch_strategy_matches_single(sizes: &[(usize, usize)], expect_stacked: bool) {
        let (net, _) = setup();
        let cfg = net.config();
        let factor = cfg.branch_channels * cfg.dilations.len() + cfg.head_hidden + cfg.classes;
        let n_total: usize = sizes.iter().map(|&(h, w)| h * w).sum();
        assert_eq!(
            factor * n_total <= STACKED_SUFFIX_BUDGET,
            expect_stacked,
            "size set selects the wrong suffix strategy for this test"
        );
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
        let origins: Vec<(usize, usize)> = (0..sizes.len()).map(|i| (3 * i, 40 + 7 * i)).collect();
        for samples in [1usize, 4, 10] {
            let batch = bayesian_segment_batch(&net, &refs, samples, &seeds, &origins);
            assert_eq!(batch.len(), inputs.len());
            for (((input, &seed), &origin), stats) in
                inputs.iter().zip(&seeds).zip(&origins).zip(&batch)
            {
                let single = bayesian_segment_tensor_at(&net, input, samples, seed, origin);
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

    #[test]
    fn origin_shifts_masks() {
        // Different frame origins draw different masks — the engine keys
        // them by global coordinates.
        let (net, input) = setup();
        let a = bayesian_segment_tensor_at(&net, &input, 6, 3, (0, 0));
        let b = bayesian_segment_tensor_at(&net, &input, 6, 3, (5, 9));
        assert_ne!(a.mean, b.mean);
        // And origin (0, 0) is the plain entry point.
        let c = bayesian_segment_tensor(&net, &input, 6, 3);
        assert_eq!(a.mean, c.mean);
        assert_eq!(a.std, c.std);
    }
}
