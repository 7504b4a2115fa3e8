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
//! 1. **One L1-resident block pass.** No dropout precedes the MSDnet's
//!    dilated branch convolutions, so `relu(conv_d(x))` is the same in
//!    every sample. Each crop or audit tile is walked in blocks of at
//!    most 64 pixels ([`el_seg::MsdNet::mc_blocks`]): a block runs its
//!    branch GEMMs **once**, straight from the zero-padded input, then
//!    every sample's stochastic suffix, the softmax and the Welford
//!    fold, and writes its mean and `σ` into the destination. Its whole
//!    working set, about 42 KB at paper geometry, stays in L1, and no
//!    crop-sized intermediate is built. The pass runs over any window
//!    of a padded input, so the tiled sweep pads the frame once and
//!    samples each tile's kept interior in place.
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
//!    most [`MC_CHUNKS`] contiguous chunks, a function of the sample
//!    count alone. Per block, the first chunk folds into a running
//!    Welford mean/M2 and each later one from zero into a partial that
//!    is Chan-merged into it **in chunk order**; the block then writes
//!    `mean` and `sqrt(max(m2 / n, 0))`. Partition, merge order and
//!    per-element arithmetic are fixed, so the statistics are
//!    bit-identical for any block split and any number of workers. The
//!    fold is portable lane-wise loops (one sample per step, never FMA):
//!    well under 1% of a frame, so it is not on the tier ladder, and its
//!    bits are the same on every ISA.
//! 4. **One crop × row-band work queue.** A batch of crops becomes
//!    `(crop, band)` tasks — bands of whole rows, about 2,048 pixels —
//!    drained by one rayon `par_iter`, with no per-crop join barrier.
//!    Each task writes its band's rows of the destination in place, in
//!    scratch from its worker thread's arena, which stays warm from task
//!    to task.
//!
//! One Monte-Carlo sample is therefore [`el_seg::MsdNet::mc_blocks`]'
//! prefix and suffix: that *is* the paper's Bayesian MSDnet, and this
//! engine is its only implementation.

use el_geom::Rect;
use el_nn::layers::{PaddedInput, CONV_BLOCK};
use el_nn::{Tensor, Workspace};
use el_scene::Image;
use el_seg::data::pad_image;
use el_seg::MsdNet;
use rayon::prelude::*;

/// Maximum number of Monte-Carlo Welford chunks.
///
/// The partition of samples into chunks depends only on the sample count,
/// so results are independent of how many threads execute the pass. Each
/// block folds one chunk at a time, so memory is two block-sized
/// partials regardless of the sample count.
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
    /// All-zero `classes x height x width` statistics of `samples` samples.
    pub(crate) fn zeros(classes: usize, height: usize, width: usize, samples: usize) -> Self {
        BayesStats {
            mean: Tensor::zeros(classes, height, width),
            std: Tensor::zeros(classes, height, width),
            samples,
        }
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

/// Window pixels per task, rounded to whole rows: 32 blocks amortise a
/// task's setup, and an audit tile still splits over the workers.
const TASK_PIXELS: usize = 32 * CONV_BLOCK;

/// The Welford state of one pixel block: four `classes · CONV_BLOCK`
/// planes — the running total's mean and M2 over the chunks folded so
/// far, then the partial's of the chunk in flight — each laid out
/// `[class][n]` like the block's logits. Every update is lane-wise (pixel
/// statistics never interact) and a separate IEEE-754 subtract, multiply
/// or add, never FMA, so the bits are the same on every ISA.
struct BlockFold(Vec<f32>);

impl BlockFold {
    /// The total's mean and M2, then the partial's, of an `n`-element block.
    fn planes(&mut self, n: usize) -> [&mut [f32]; 4] {
        let stride = self.0.len() / 4;
        let (total_mean, rest) = self.0.split_at_mut(stride);
        let (total_m2, rest) = rest.split_at_mut(stride);
        let (mean, m2) = rest.split_at_mut(stride);
        [
            &mut total_mean[..n],
            &mut total_m2[..n],
            &mut mean[..n],
            &mut m2[..n],
        ]
    }

    /// Folds sample `k`'s scores `xs` in; `(start, len)` is its chunk.
    /// The first chunk takes Welford steps straight on the total; a later
    /// one steps a partial from zero and, once its last sample is in,
    /// Chan-merges it into the total (weights computed once per merge).
    fn push(&mut self, xs: &[f32], k: usize, (start, len): (usize, usize)) {
        let count = k - start + 1;
        let [total_mean, total_m2, mean, m2] = self.planes(xs.len());
        let (mean, m2) = if start == 0 {
            (total_mean, total_m2)
        } else {
            (mean, m2)
        };
        if count == 1 {
            mean.fill(0.0);
            m2.fill(0.0);
        }
        let inv_n = 1.0 / count as f32;
        for ((m, s2), &x) in mean.iter_mut().zip(m2.iter_mut()).zip(xs) {
            let delta = x - *m;
            *m += delta * inv_n;
            *s2 += delta * (x - *m);
        }
        if start == 0 || count < len {
            return;
        }
        let [total_mean, total_m2, mean, m2] = self.planes(xs.len());
        let (na, nb) = (start as f32, len as f32);
        let n = na + nb;
        let (w_mean, w_m2) = (nb / n, na * nb / n);
        let total = total_mean.iter_mut().zip(total_m2.iter_mut());
        for (((ma, s2a), &mb), &s2b) in total.zip(&*mean).zip(&*m2) {
            let delta = mb - *ma;
            *ma += delta * w_mean;
            *s2a += s2b + delta * delta * w_m2;
        }
    }
}

/// One Monte-Carlo job: the `window` pixels of `input` (its pixel
/// `(0, 0)` at frame coordinates `origin`), sampled from `seed`, written
/// into `stats` (shaped like `input`) at the window's pixels.
pub(crate) struct McJob<'a> {
    pub input: &'a PaddedInput,
    pub window: Rect,
    pub origin: (usize, usize),
    pub seed: u64,
    pub stats: &'a mut BayesStats,
}

/// A band of whole rows of one job's window and the rows it owns of
/// every statistics plane.
struct Task<'a> {
    input: &'a PaddedInput,
    band: Rect,
    origin: (usize, usize),
    seeds: &'a [u64],
    mean: Vec<&'a mut [f32]>,
    std: Vec<&'a mut [f32]>,
}

thread_local! {
    /// The scratch arena of the tasks a thread runs: warm from task to
    /// task, and from call to call on a thread that outlives the pass
    /// (the caller's own, which runs every task at one worker).
    static ARENA: std::cell::RefCell<Workspace> = std::cell::RefCell::default();
}

/// Splits every plane of `t` at the row bands `bands` (increasing and
/// disjoint): band `i` gets, per plane, the slice of its rows.
fn band_planes<'a>(t: &'a mut Tensor, bands: &[Rect]) -> Vec<Vec<&'a mut [f32]>> {
    let (_, h, w) = t.shape();
    let mut out: Vec<Vec<&mut [f32]>> = bands.iter().map(|_| Vec::new()).collect();
    for mut plane in t.as_mut_slice().chunks_exact_mut(h * w) {
        let mut at = 0;
        for (planes, band) in out.iter_mut().zip(bands) {
            let (_, rest) = plane.split_at_mut((band.y as usize - at) * w);
            let (mine, rest) = rest.split_at_mut(band.h as usize * w);
            planes.push(mine);
            (plane, at) = (rest, band.bottom() as usize);
        }
    }
    out
}

/// Runs one task: the block pass over its band, each block's samples
/// softmaxed and folded in chunk order while the block is in L1, then
/// the block's mean and `σ` written into the band.
fn run_task(net: &MsdNet, task: Task<'_>, chunk_of: &[(usize, usize)]) {
    let sw = el_metrics::Stopwatch::start();
    let (input, band, seeds, mut ws) = (task.input, task.band, task.seeds, ARENA.take());
    let (mut mean, mut std) = (task.mean, task.std);
    let (classes, samples, kernels) = (net.classes(), seeds.len(), el_kernels::active());
    let (w, x0) = (band.w as usize, band.x as usize);
    let mut fold = BlockFold(ws.take(4 * classes * CONV_BLOCK));
    net.mc_blocks(input, band, task.origin, seeds, &mut ws, |p0, k, logits| {
        let n = logits.len() / classes;
        kernels.softmax(logits, classes, n);
        fold.push(logits, k, chunk_of[k]);
        if k + 1 < samples {
            return;
        }
        let [m, s2, ..] = fold.planes(classes * n);
        for r in p0 / w..=(p0 + n - 1) / w {
            let (a, b) = ((r * w).max(p0), ((r + 1) * w).min(p0 + n));
            let at = r * input.width() + x0 + a - r * w;
            for c in 0..classes {
                let cols = c * n + a - p0..c * n + b - p0;
                mean[c][at..at + cols.len()].copy_from_slice(&m[cols.clone()]);
                for (dst, &v) in std[c][at..].iter_mut().zip(&s2[cols]) {
                    *dst = (v / samples as f32).max(0.0).sqrt();
                }
            }
        }
    });
    ws.give(fold.0);
    ARENA.set(ws);
    el_metrics::registry().sample_fold.record(sw);
}

/// The engine: all jobs' row bands run the block pass from one rayon
/// queue, writing their statistics in place.
pub(crate) fn mc_pass(net: &MsdNet, jobs: Vec<McJob<'_>>, samples: usize) {
    assert!(samples > 0, "at least one Monte-Carlo sample is required");
    el_metrics::registry()
        .samples_run
        .add((samples * jobs.len()) as u64);
    let chunk_of: Vec<(usize, usize)> = chunk_layout(samples)
        .into_iter()
        .flat_map(|chunk| std::iter::repeat_n(chunk, chunk.1))
        .collect();
    let seeds: Vec<Vec<u64>> = jobs
        .iter()
        .map(|job| (0..samples).map(|k| sample_seed(job.seed, k)).collect())
        .collect();
    let mut tasks = Vec::new();
    for (job, seeds) in jobs.into_iter().zip(&seeds) {
        let Rect { x, y, w, h } = job.window;
        if job.window.is_empty() {
            continue;
        }
        let step = (TASK_PIXELS as i64 / w).max(1);
        let bands: Vec<Rect> = (y..y + h)
            .step_by(step as usize)
            .map(|r| Rect::new(x, r, w, step.min(y + h - r)))
            .collect();
        let means = band_planes(&mut job.stats.mean, &bands);
        let stds = band_planes(&mut job.stats.std, &bands);
        for ((band, mean), std) in bands.into_iter().zip(means).zip(stds) {
            let (input, origin) = (job.input, job.origin);
            tasks.push(Task {
                input,
                band,
                origin,
                seeds,
                mean,
                std,
            });
        }
    }
    let _: Vec<()> = tasks
        .into_par_iter()
        .map(|task| run_task(net, task, &chunk_of))
        .collect();
}

/// Monte-Carlo statistics of whole padded inputs: input `i` sampled
/// from seed `seeds[i]`, its pixel `(0, 0)` at frame origin `origins[i]`.
pub(crate) fn mc_stats(
    net: &MsdNet,
    inputs: &[PaddedInput],
    samples: usize,
    seeds: &[u64],
    origins: &[(usize, usize)],
) -> Vec<BayesStats> {
    assert!(
        inputs.len() == seeds.len() && inputs.len() == origins.len(),
        "batch inputs must be parallel"
    );
    let mut stats: Vec<BayesStats> = inputs
        .iter()
        .map(|input| BayesStats::zeros(net.classes(), input.height(), input.width(), samples))
        .collect();
    let jobs = inputs
        .iter()
        .zip(stats.iter_mut())
        .zip(seeds.iter().zip(origins))
        .map(|((input, stats), (&seed, &origin))| McJob {
            input,
            window: Rect::new(0, 0, input.width() as i64, input.height() as i64),
            origin,
            seed,
            stats,
        })
        .collect();
    mc_pass(net, jobs, samples);
    stats
}

/// Monte-Carlo-dropout inference over a batch of crops given as input
/// tensors: `samples` stochastic passes per crop — dropout live, exactly
/// the paper's Bayesian MSDnet — whose softmax scores stream into mean
/// and standard deviation (see the module docs). Crop `i` uses its own
/// seed `seeds[i]` and frame origin `origins[i]` (`(0, 0)` for
/// standalone crops). Each crop is padded once, and the row bands of
/// **all** crops drain one rayon work queue, so workers never idle at a
/// per-crop join barrier.
///
/// Element `i` of the result depends only on `(net, inputs[i], samples,
/// seeds[i], origins[i])` — never on the rest of the batch or on the
/// thread count (property-tested).
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
    let mut ws = Workspace::new();
    let radius = net.receptive_radius();
    let padded: Vec<PaddedInput> = inputs
        .iter()
        .map(|t| PaddedInput::from_tensor(t, radius, &mut ws))
        .collect();
    mc_stats(net, &padded, samples, seeds, origins)
}

/// Runs Monte-Carlo-dropout inference on a rendered image at frame
/// origin `(0, 0)`: a one-crop [`bayesian_segment_batch`], padded
/// straight from the image. Deterministic given `(net, image, samples,
/// seed)` and independent of the thread count.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn bayesian_segment(net: &MsdNet, image: &Image, samples: usize, seed: u64) -> BayesStats {
    let input = [pad_image(
        image,
        net.receptive_radius(),
        &mut Workspace::new(),
    )];
    mc_stats(net, &input, samples, &[seed], &[(0, 0)])
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
        let padded = PaddedInput::from_tensor(&input, net.receptive_radius(), &mut ws);
        let hw = input.height() * input.width();
        let seeds: Vec<u64> = (0..samples).map(|k| sample_seed(9, k)).collect();
        let mut all = vec![Tensor::zeros(8, input.height(), input.width()); samples];
        let window = Rect::new(0, 0, input.width() as i64, input.height() as i64);
        net.mc_blocks(&padded, window, (0, 0), &seeds, &mut ws, |p0, k, z| {
            let n = z.len() / 8;
            for (c, plane) in z.chunks_exact(n).enumerate() {
                all[k].as_mut_slice()[c * hw + p0..][..n].copy_from_slice(plane);
            }
        });
        let all: Vec<Tensor> = all.iter().map(softmax).collect();
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
    fn block_fold_matches_naive_chunked_fold() {
        // The reference fold, spelled out independently of `BlockFold`
        // (guards against editing both in lockstep): per chunk a fresh
        // zeroed partial with one Welford step per sample, then the
        // partials Chan-merged in chunk order. Every sample count from 1
        // to 20, so one-sample and multi-sample chunks both run.
        let len = 3 * 11;
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for samples in 1..=20 {
            let slabs: Vec<Vec<f32>> = (0..samples)
                .map(|k| {
                    (0..len)
                        .map(|i| (((7 + 31 * k + i) as f32) * 0.173).sin() * 0.8 + 0.1)
                        .collect()
                })
                .collect();
            let mut total: Option<(usize, Vec<f32>, Vec<f32>)> = None;
            for (start, n_chunk) in chunk_layout(samples) {
                let (mut mean, mut m2) = (vec![0.0f32; len], vec![0.0f32; len]);
                for (j, xs) in slabs[start..start + n_chunk].iter().enumerate() {
                    let inv_n = 1.0 / (j + 1) as f32;
                    for i in 0..len {
                        let delta = xs[i] - mean[i];
                        mean[i] += delta * inv_n;
                        m2[i] += delta * (xs[i] - mean[i]);
                    }
                }
                total = Some(match total {
                    None => (n_chunk, mean, m2),
                    Some((na, mut ma, mut s2a)) => {
                        let (fa, fb) = (na as f32, n_chunk as f32);
                        let n = fa + fb;
                        for i in 0..len {
                            let delta = mean[i] - ma[i];
                            ma[i] += delta * (fb / n);
                            s2a[i] += m2[i] + delta * delta * (fa * fb / n);
                        }
                        (na + n_chunk, ma, s2a)
                    }
                });
            }
            let (count, mean, m2) = total.expect("at least one chunk");
            assert_eq!(count, samples);
            // A NaN-poisoned fold buffer: every plane must be written
            // before it is read.
            let mut fold = BlockFold(vec![f32::NAN; 4 * 64]);
            let chunk_of: Vec<(usize, usize)> = chunk_layout(samples)
                .into_iter()
                .flat_map(|c| std::iter::repeat_n(c, c.1))
                .collect();
            for (k, xs) in slabs.iter().enumerate() {
                fold.push(xs, k, chunk_of[k]);
            }
            let [got_mean, got_m2, ..] = fold.planes(len);
            assert_eq!(bits(got_mean), bits(&mean), "{samples} samples: mean");
            assert_eq!(bits(got_m2), bits(&m2), "{samples} samples: m2");
        }
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
