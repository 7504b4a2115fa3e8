//! Integration properties of the batched and tiled Bayesian paths.
//!
//! These tests pin three guarantees:
//!
//! 1. **Batching is free of semantic drift**: `Monitor::verify_batch`
//!    (one prefix per crop, one shared rayon work queue) is
//!    bit-identical to N sequential `Monitor::verify` calls with the
//!    same per-crop seeds.
//! 2. **Tiling is exact, not approximate**: `bayesian_segment_tiled`
//!    with an unexpired budget equals untiled `bayesian_segment` bit for
//!    bit, and a budget-truncated pass returns a well-formed prefix of
//!    that exact answer (consistent coverage mask, no NaNs, coverage
//!    monotone in the budget).
//! 3. **Blocking is invisible**: the 64-pixel block pass
//!    (`MsdNet::mc_blocks`: prefix GEMMs once per block, then every
//!    sample) equals a staged whole-plane reference bit for bit — per
//!    sample on logits and probabilities, and on the mean and `σ` the
//!    engine folds from them at any thread count — and a window of a
//!    frame equals the frame at the same global pixels.
//!
//! As in `tests/properties.rs`, properties run as seeded-RNG loops
//! (no proptest in the build environment).

use certel::prelude::*;
use el_geom::Grid;

mod common;
use common::{expected_admitted, with_thread_count};
use el_monitor::{
    bayesian_segment, bayesian_segment_batch, bayesian_segment_tiled, BayesStats, BATCH_SEED_STRIDE,
};
use el_nn::layers::{keyed_mask_word, keyed_row_seed, Conv2d, Layer, PaddedInput, Relu};
use el_nn::loss::softmax_in_place;
use el_nn::{Tensor, Workspace};
use el_seg::data::image_to_tensor;
use el_seg::TileConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn rng() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0xBA7C)
}

fn tiny_net(seed: u64) -> MsdNet {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    MsdNet::new(&MsdNetConfig::tiny(), &mut r)
}

/// One crop through the engine, alone, at its frame origin.
fn single_crop(
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

fn scene_image(seed: u64, w: usize, h: usize) -> el_scene::Image {
    let mut p = SceneParams::small();
    p.width = w;
    p.height = h;
    Scene::generate(&p, seed).render(&Conditions::nominal(), seed)
}

/// `verify_batch` is bit-identical to N sequential `verify` calls with
/// the derived per-crop seeds, across random batch sizes, crop shapes
/// and seeds.
#[test]
fn verify_batch_matches_sequential_verifies() {
    let mut r = rng();
    let net = tiny_net(1);
    let monitor = Monitor::new(MonitorConfig {
        samples: 5,
        ..MonitorConfig::paper()
    });
    for case in 0..6 {
        let n = r.gen_range(1usize..6);
        let crops: Vec<el_scene::Image> = (0..n)
            .map(|i| {
                let w = r.gen_range(8usize..28);
                let h = r.gen_range(8usize..28);
                scene_image(case * 31 + i as u64, w, h)
            })
            .collect();
        let seed = r.gen::<u64>();
        let batch = monitor.verify_batch(&net, &crops, seed);
        assert_eq!(batch.len(), crops.len());
        for (i, (crop, report)) in crops.iter().zip(&batch).enumerate() {
            let crop_seed = seed.wrapping_add((i as u64 + 1).wrapping_mul(BATCH_SEED_STRIDE));
            let single = monitor.verify(&net, crop, crop_seed);
            assert_eq!(
                single.stats.mean.as_slice(),
                report.stats.mean.as_slice(),
                "case {case} crop {i}: batch mean diverges"
            );
            assert_eq!(
                single.stats.std.as_slice(),
                report.stats.std.as_slice(),
                "case {case} crop {i}: batch std diverges"
            );
            assert_eq!(single.warning_map, report.warning_map);
            assert_eq!(single.verdict, report.verdict);
        }
    }
    // Production-shaped case: the paper-config network with
    // candidate-zone-sized crops, the shapes real pipeline batches
    // verify.
    let mut r2 = ChaCha8Rng::seed_from_u64(9);
    let paper_net = MsdNet::new(&MsdNetConfig::default_uavid(), &mut r2);
    let crops: Vec<el_scene::Image> = (0..2).map(|i| scene_image(900 + i, 48, 48)).collect();
    let batch = monitor.verify_batch(&paper_net, &crops, 77);
    for (i, (crop, report)) in crops.iter().zip(&batch).enumerate() {
        let crop_seed = 77u64.wrapping_add((i as u64 + 1).wrapping_mul(BATCH_SEED_STRIDE));
        let single = monitor.verify(&paper_net, crop, crop_seed);
        assert_eq!(
            single.stats.mean.as_slice(),
            report.stats.mean.as_slice(),
            "paper-config crop {i}: batch mean diverges"
        );
        assert_eq!(single.stats.std.as_slice(), report.stats.std.as_slice());
        assert_eq!(single.verdict, report.verdict);
    }
}

/// The bayes-level batch with explicit per-crop seeds and origins is
/// bit-identical to running each crop alone.
#[test]
fn bayesian_batch_matches_per_crop() {
    let mut r = rng();
    let net = tiny_net(2);
    for case in 0..5 {
        let n = r.gen_range(1usize..5);
        let inputs: Vec<Tensor> = (0..n)
            .map(|_| {
                let w = r.gen_range(4usize..20);
                let h = r.gen_range(4usize..20);
                let f = r.gen_range(0.05f32..0.4);
                Tensor::from_fn(3, h, w, move |c, y, x| ((c + y * 2 + x) as f32 * f).sin())
            })
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let seeds: Vec<u64> = (0..n).map(|_| r.gen()).collect();
        let origins: Vec<(usize, usize)> = (0..n)
            .map(|_| (r.gen_range(0usize..100), r.gen_range(0usize..100)))
            .collect();
        let samples = r.gen_range(1usize..9);
        let batch = bayesian_segment_batch(&net, &refs, samples, &seeds, &origins);
        for (((input, &seed), &origin), stats) in
            inputs.iter().zip(&seeds).zip(&origins).zip(&batch)
        {
            let single = single_crop(&net, input, samples, seed, origin);
            assert_eq!(
                single.mean.as_slice(),
                stats.mean.as_slice(),
                "case {case}: batch mean diverges at origin {origin:?}"
            );
            assert_eq!(single.std.as_slice(), stats.std.as_slice());
        }
    }
}

/// An unexpired budget makes the tiled pass bit-identical to the untiled
/// whole-frame pass — on every pixel, not just tile interiors, because
/// the margin absorbs seam effects and the masks are coordinate-keyed.
#[test]
fn tiled_with_infinite_budget_equals_untiled() {
    let net = tiny_net(3);
    for (w, h, tile) in [(50usize, 39usize, 24usize), (64, 64, 32), (45, 60, 24)] {
        let img = scene_image(7, w, h);
        let config = TileConfig { tile, margin: 4 };
        let tiled = bayesian_segment_tiled(&net, &img, config, 6, 21, f64::INFINITY, &[], || 0.0);
        assert!(tiled.is_complete(), "{w}x{h}: budget should never expire");
        assert!((tiled.coverage() - 1.0).abs() < 1e-12);
        let whole = bayesian_segment(&net, &img, 6, 21);
        assert_eq!(
            tiled.stats.mean.as_slice(),
            whole.mean.as_slice(),
            "{w}x{h}: tiled mean diverges from untiled"
        );
        assert_eq!(
            tiled.stats.std.as_slice(),
            whole.std.as_slice(),
            "{w}x{h}: tiled std diverges from untiled"
        );
    }
}

/// Budget-truncated passes are well-formed: the coverage mask exactly
/// delimits the populated statistics (probability distributions inside,
/// hard zeros outside, NaNs nowhere), and coverage is monotone in the
/// budget with bit-identical values on shared coverage.
#[test]
fn partial_coverage_is_well_formed_and_monotone() {
    let net = tiny_net(4);
    let img = scene_image(9, 60, 48);
    let config = TileConfig {
        tile: 24,
        margin: 4,
    };
    // Deterministic fake clock: one tick per admission poll; admitted
    // counts follow the predictive admission policy exactly.
    let run = |budget: f64| {
        let mut t = -1.0f64;
        bayesian_segment_tiled(&net, &img, config, 4, 13, budget, &[], move || {
            t += 1.0;
            t
        })
    };
    let full = run(f64::INFINITY);
    assert!(full.is_complete());
    let mut prev_covered: Option<Grid<bool>> = None;
    for budget in 0..=full.tiles_total + 1 {
        let out = run(budget as f64 - 0.5);
        assert_eq!(
            out.tiles_verified,
            expected_admitted(budget as f64 - 0.5, full.tiles_total),
            "admitted tiles must follow the predictive policy (budget {budget})"
        );
        let (c, hh, ww) = out.stats.mean.shape();
        assert_eq!((hh, ww), (img.height(), img.width()));
        // Mask ↔ statistics consistency, and no NaNs anywhere.
        assert!(out.stats.mean.as_slice().iter().all(|v| v.is_finite()));
        assert!(out.stats.std.as_slice().iter().all(|v| v.is_finite()));
        for y in 0..hh {
            for x in 0..ww {
                let covered = out.covered[(x, y)];
                let sum: f32 = (0..c)
                    .map(|k| out.stats.mean.as_slice()[k * hh * ww + y * ww + x])
                    .sum();
                if covered {
                    assert!(
                        (sum - 1.0).abs() < 1e-4,
                        "covered pixel ({x},{y}) mean sums to {sum}"
                    );
                    // Covered pixels carry the exact full-frame values.
                    for k in 0..c {
                        let i = k * hh * ww + y * ww + x;
                        assert_eq!(out.stats.mean.as_slice()[i], full.stats.mean.as_slice()[i]);
                        assert_eq!(out.stats.std.as_slice()[i], full.stats.std.as_slice()[i]);
                    }
                } else {
                    assert_eq!(sum, 0.0, "uncovered pixel ({x},{y}) must stay zero");
                }
            }
        }
        // Coverage grows monotonically with the budget.
        if let Some(prev) = &prev_covered {
            for (a, b) in prev.iter().zip(out.covered.iter()) {
                assert!(!a || *b, "coverage must be monotone in the budget");
            }
        }
        prev_covered = Some(out.covered);
    }
}

/// Candidate-zone tiles are verified before background tiles, so a tight
/// budget still covers the safety-relevant regions.
#[test]
fn priority_rects_covered_before_background() {
    let net = tiny_net(5);
    let img = scene_image(11, 72, 72);
    let config = TileConfig {
        tile: 24,
        margin: 4,
    };
    let zone = Rect::new(50, 50, 12, 12);
    // Count how many tiles keep a piece of the zone.
    let tiles = el_seg::plan_tiles(img.width(), img.height(), config);
    let priority_tiles = tiles
        .iter()
        .filter(|t| t.keep_rect().intersects(zone))
        .count();
    assert!(priority_tiles >= 1);
    // Smallest fake-clock budget whose predictive admission covers every
    // priority tile (counts step by at most one per budget tick, so the
    // admitted count lands exactly on priority_tiles).
    let budget = (0..=2 * tiles.len())
        .map(|b| b as f64 - 0.5)
        .find(|&b| expected_admitted(b, tiles.len()) >= priority_tiles)
        .expect("some budget admits every priority tile");
    let mut t = -1.0f64;
    let out = bayesian_segment_tiled(&net, &img, config, 4, 17, budget, &[zone], move || {
        t += 1.0;
        t
    });
    assert_eq!(out.tiles_verified, priority_tiles);
    for p in zone.pixels() {
        assert!(
            out.covered[(p.x as usize, p.y as usize)],
            "zone pixel {p} not covered by the priority pass"
        );
    }
    assert!(
        out.coverage() < 1.0,
        "budget must not cover the whole frame"
    );
}

/// The pipeline's batched verification leaves its public determinism
/// contract intact end to end (same image + seed → same decision and
/// trials), including across pipeline instances.
#[test]
fn pipeline_batching_stays_deterministic() {
    let mut r = rng();
    for case in 0..3 {
        let seed = r.gen::<u64>();
        let image = scene_image(40 + case, 48, 48);
        let mut rng1 = ChaCha8Rng::seed_from_u64(case);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng1);
        let mut p1 = ElPipeline::try_new(net, PipelineConfig::fast_test()).expect("valid config");
        let mut rng2 = ChaCha8Rng::seed_from_u64(case);
        let net2 = MsdNet::new(&MsdNetConfig::tiny(), &mut rng2);
        let mut p2 = ElPipeline::try_new(net2, PipelineConfig::fast_test()).expect("valid config");
        let a = p1.run(&image, seed);
        let b = p2.run(&image, seed);
        assert_eq!(a.decision, b.decision);
        assert_eq!(a.trials, b.trials);
    }
}

/// Whole-image crops of a frame verified at their true origins agree
/// with the frame: the translation-invariance property that lets the
/// monitor verify a candidate crop as if it were part of the frame.
#[test]
fn crop_at_origin_agrees_with_frame_interior() {
    let net = tiny_net(6);
    let img = scene_image(23, 40, 32);
    let whole = bayesian_segment(&net, &img, 5, 77);
    // A crop whose interior is insulated by the receptive radius.
    let rect = Rect::new(8, 6, 20, 18);
    let crop = img.crop(rect).unwrap();
    let stats = single_crop(
        &net,
        &image_to_tensor(&crop),
        5,
        77,
        (rect.y as usize, rect.x as usize),
    );
    let radius = net.receptive_radius();
    let (c, hh, ww) = whole.mean.shape();
    let (cw, chh) = (rect.w as usize, rect.h as usize);
    let mut interior_pixels = 0usize;
    for k in 0..c {
        for y in radius..chh - radius {
            for x in radius..cw - radius {
                let frame_i = k * hh * ww + (rect.y as usize + y) * ww + (rect.x as usize + x);
                let crop_i = k * chh * cw + y * cw + x;
                assert_eq!(
                    whole.mean.as_slice()[frame_i],
                    stats.mean.as_slice()[crop_i],
                    "mean diverges at class {k} ({x},{y})"
                );
                assert_eq!(whole.std.as_slice()[frame_i], stats.std.as_slice()[crop_i]);
                interior_pixels += 1;
            }
        }
    }
    assert!(interior_pixels > 0);
}

/// The staged Monte-Carlo pass, spelled out from public pieces: the
/// prefix as every branch's naive `Conv2d::forward_reference` plus ReLU
/// over the whole crop, masks drawn per whole plane and row from
/// `keyed_row_seed`/`keyed_mask_word`, the two heads as
/// `Conv2d::forward_with`, ReLU, and `softmax_in_place` over the whole
/// crop. Mask-key layer 0 is the branch dropout (keyed by fused
/// channel), layer 1 the head dropout.
struct StagedOracle {
    branches: Vec<Conv2d>,
    head1: Conv2d,
    head2: Conv2d,
    rate: f32,
}

impl StagedOracle {
    fn of(net: &MsdNet) -> Self {
        let cfg = net.config().clone();
        let fused = cfg.branch_channels * cfg.dilations.len();
        let mut r = ChaCha8Rng::seed_from_u64(0);
        let mut branches: Vec<Conv2d> = cfg
            .dilations
            .iter()
            .map(|&d| Conv2d::new(cfg.in_channels, cfg.branch_channels, 3, d, &mut r))
            .collect();
        let mut head1 = Conv2d::new(fused, cfg.head_hidden, 1, 1, &mut r);
        let mut head2 = Conv2d::new(cfg.head_hidden, cfg.classes, 1, 1, &mut r);
        // `Layer::params` lists each branch's weight and bias, then the
        // heads'.
        let mut net = net.clone();
        let params = net.params();
        let mut theirs = params.iter();
        let mine = branches
            .iter_mut()
            .chain([&mut head1, &mut head2])
            .flat_map(|conv| conv.params());
        for mine in mine {
            mine.value
                .copy_from_slice(theirs.next().expect("one source per parameter").value);
        }
        assert!(theirs.next().is_none(), "every parameter copied");
        StagedOracle {
            branches,
            head1,
            head2,
            rate: cfg.dropout,
        }
    }

    /// The Monte-Carlo-invariant prefix of the whole crop.
    fn prefix(&self, input: &Tensor) -> Tensor {
        let outs: Vec<Tensor> = self
            .branches
            .iter()
            .map(|b| {
                let mut y = b.forward_reference(input);
                Relu::apply(&mut y);
                y
            })
            .collect();
        let refs: Vec<&Tensor> = outs.iter().collect();
        Tensor::concat_channels(&refs).expect("branch outputs share shapes")
    }

    /// Keyed inverted dropout over whole `h x w` planes, channel `c` of
    /// `x` keyed as channel `c` of mask layer `layer`.
    fn mask(&self, x: &mut Tensor, seed: u64, layer: u32, origin: (usize, usize)) {
        if self.rate == 0.0 {
            return;
        }
        let (channels, h, w) = x.shape();
        let scale = 1.0 / (1.0 - self.rate);
        for c in 0..channels {
            for y in 0..h {
                let row_seed = keyed_row_seed(seed, layer, c, origin.0 + y);
                for x_ in 0..w {
                    let word = keyed_mask_word(row_seed, origin.1 + x_);
                    let keep = (el_kernels::unit_f32(word) >= self.rate) as u32 as f32;
                    let v = &mut x.as_mut_slice()[(c * h + y) * w + x_];
                    *v = *v * scale * keep;
                }
            }
        }
    }

    /// `(logits, probabilities)` of one sample over a prefix.
    fn sample(
        &self,
        fused: &Tensor,
        seed: u64,
        origin: (usize, usize),
        ws: &mut Workspace,
    ) -> (Tensor, Tensor) {
        let mut x = fused.clone();
        self.mask(&mut x, seed, 0, origin);
        let mut y = self.head1.forward_with(&x, ws);
        Relu::apply(&mut y);
        self.mask(&mut y, seed, 1, origin);
        let logits = self.head2.forward_with(&y, ws);
        let mut probs = logits.clone();
        softmax_in_place(&mut probs);
        (logits, probs)
    }

    /// Mean and `σ` over `seeds.len()` samples of `input`: whole-plane
    /// Welford pushes per chunk of the engine's documented layout (at
    /// most `MC_CHUNKS` contiguous chunks, the first `samples %
    /// chunks` one sample longer), each chunk from zero, Chan-merged in
    /// chunk order, then `sqrt(max(m2 / n, 0))`.
    fn stats(
        &self,
        input: &Tensor,
        seeds: &[u64],
        origin: (usize, usize),
        ws: &mut Workspace,
    ) -> (Vec<f32>, Vec<f32>) {
        let fused = self.prefix(input);
        let probs: Vec<Tensor> = seeds
            .iter()
            .map(|&seed| self.sample(&fused, seed, origin, ws).1)
            .collect();
        let samples = seeds.len();
        let chunks = samples.clamp(1, el_monitor::bayes::MC_CHUNKS);
        let len = probs[0].len();
        let mut total: Option<(usize, Vec<f32>, Vec<f32>)> = None;
        let mut start = 0;
        for i in 0..chunks {
            let n_chunk = samples / chunks + usize::from(i < samples % chunks);
            let (mut mean, mut m2) = (vec![0.0f32; len], vec![0.0f32; len]);
            for (j, p) in probs[start..start + n_chunk].iter().enumerate() {
                let inv_n = 1.0 / (j + 1) as f32;
                for ((m, s2), &x) in mean.iter_mut().zip(&mut m2).zip(p.as_slice()) {
                    let delta = x - *m;
                    *m += delta * inv_n;
                    *s2 += delta * (x - *m);
                }
            }
            start += n_chunk;
            total = Some(match total {
                None => (n_chunk, mean, m2),
                Some((na, mut ma, mut s2a)) => {
                    let (fa, fb) = (na as f32, n_chunk as f32);
                    let n = fa + fb;
                    let (w_mean, w_m2) = (fb / n, fa * fb / n);
                    for i in 0..len {
                        let delta = mean[i] - ma[i];
                        ma[i] += delta * w_mean;
                        s2a[i] += m2[i] + delta * delta * w_m2;
                    }
                    (na + n_chunk, ma, s2a)
                }
            });
        }
        let (count, mean, m2) = total.expect("at least one chunk");
        assert_eq!(count, samples);
        let std = m2
            .iter()
            .map(|&s2| (s2 / samples as f32).max(0.0).sqrt())
            .collect();
        (mean, std)
    }
}

/// Per-sample `(logits, probabilities)` of `window` of `input` through
/// the block pass, each block softmaxed as the monitor does, reassembled
/// `[class][hw]`.
fn block_samples(
    net: &MsdNet,
    input: &PaddedInput,
    (window, origin): (Rect, (usize, usize)),
    seeds: &[u64],
    ws: &mut Workspace,
) -> Vec<(Tensor, Tensor)> {
    let (h, w) = (window.h as usize, window.w as usize);
    let (classes, hw) = (net.classes(), h * w);
    let blank = Tensor::full(classes, h, w, f32::NAN);
    let mut out = vec![(blank.clone(), blank); seeds.len()];
    let mut next = 0;
    net.mc_blocks(input, window, origin, seeds, ws, |p0, k, block| {
        assert_eq!(p0, next, "blocks arrive in pixel order");
        let n = block.len() / classes;
        assert!((1..=64).contains(&n), "block of {n} pixels");
        let (logits, probs) = &mut out[k];
        for (c, plane) in block.chunks_exact(n).enumerate() {
            logits.as_mut_slice()[c * hw + p0..][..n].copy_from_slice(plane);
        }
        el_kernels::active().softmax(block, classes, n);
        for (c, plane) in block.chunks_exact(n).enumerate() {
            probs.as_mut_slice()[c * hw + p0..][..n].copy_from_slice(plane);
        }
        if k + 1 == seeds.len() {
            next += n;
        }
    });
    assert_eq!(next, hw, "blocks cover the window");
    out
}

fn tensor_bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// A paper-geometry network (48 fused channels, 32 hidden, 8 classes)
/// with random weights.
fn paper_net(seed: u64, dropout: f32) -> MsdNet {
    let mut cfg = MsdNetConfig::default_uavid();
    cfg.dropout = dropout;
    MsdNet::new(&cfg, &mut ChaCha8Rng::seed_from_u64(seed))
}

fn random_input(r: &mut ChaCha8Rng, h: usize, w: usize) -> Tensor {
    Tensor::from_fn(3, h, w, |_, _, _| r.gen_range(-1.5..2.0f32))
}

#[test]
fn block_suffix_matches_staged_oracle() {
    let mut r = rng();
    // 1x1, 1xw, hx1; hw = 63, 64, 65 and 128; rows of 29 and 86 that
    // straddle the 64-pixel blocks.
    let shapes = [
        (1, 1),
        (1, 29),
        (29, 1),
        (7, 9),
        (8, 8),
        (5, 13),
        (8, 16),
        (1, 128),
        (11, 29),
        (4, 86),
    ];
    for dropout in [0.0, 0.5] {
        let net = paper_net(41, dropout);
        let oracle = StagedOracle::of(&net);
        let mut ws = Workspace::new();
        for (i, &(h, w)) in shapes.iter().enumerate() {
            // Stale NaN buffers of assorted sizes: every value the block
            // pass hands out must be written this sample.
            for len in [1, 64, 136 * 64, 3 * (h + 8) * (w + 8), 4096] {
                ws.give(vec![f32::NAN; len]);
            }
            let input = random_input(&mut r, h, w);
            let padded = PaddedInput::from_tensor(&input, net.receptive_radius(), &mut ws);
            let fused = oracle.prefix(&input);
            for origin in [(0, 0), (3 + i, 40 + 7 * i), (1000, 2)] {
                let seeds: Vec<u64> = (0..3).map(|_| r.gen()).collect();
                let window = Rect::new(0, 0, w as i64, h as i64);
                let got = block_samples(&net, &padded, (window, origin), &seeds, &mut ws);
                for (&seed, (logits, probs)) in seeds.iter().zip(&got) {
                    let (want_logits, want_probs) = oracle.sample(&fused, seed, origin, &mut ws);
                    assert_eq!(
                        tensor_bits(logits),
                        tensor_bits(&want_logits),
                        "logits diverge on {h}x{w} at {origin:?}, dropout {dropout}"
                    );
                    assert_eq!(
                        tensor_bits(probs),
                        tensor_bits(&want_probs),
                        "probabilities diverge on {h}x{w} at {origin:?}, dropout {dropout}"
                    );
                }
            }
            padded.recycle(&mut ws);
        }
    }
}

#[test]
fn block_suffix_crop_agrees_with_frame() {
    // The pass is pointwise after the prefix, each prefix value is its
    // own GEMM column, and the masks are keyed by global coordinates, so
    // a window of a padded frame, sampled at the frame's origin,
    // reproduces the frame's logits exactly — whatever the block
    // boundaries of the two walks.
    let net = paper_net(43, 0.5);
    let mut r = rng();
    let mut ws = Workspace::new();
    let (fh, fw) = (23, 86);
    let frame = PaddedInput::from_tensor(&random_input(&mut r, fh, fw), 4, &mut ws);
    let whole = Rect::new(0, 0, fw as i64, fh as i64);
    let (all, _) = block_samples(&net, &frame, (whole, (0, 0)), &[77], &mut ws).remove(0);
    for (oy, ox, ch, cw) in [(2, 1, 4, 7), (0, 0, 23, 29), (5, 50, 9, 36), (22, 85, 1, 1)] {
        let window = Rect::new(ox as i64, oy as i64, cw as i64, ch as i64);
        let (part, _) = block_samples(&net, &frame, (window, (0, 0)), &[77], &mut ws).remove(0);
        for k in 0..net.classes() {
            for y in 0..ch {
                for x in 0..cw {
                    assert_eq!(
                        part.as_slice()[(k * ch + y) * cw + x].to_bits(),
                        all.as_slice()[(k * fh + oy + y) * fw + ox + x].to_bits(),
                        "window {ch}x{cw} at ({oy}, {ox}) diverges at class {k} ({x}, {y})"
                    );
                }
            }
        }
    }
}

/// The block pass's mean and `σ` equal the staged whole-plane oracle bit
/// for bit: crops narrower than a block, exactly one block wide, wider
/// and not a multiple of it, one row and one column, and two crops large
/// enough to split into several row-band tasks; every sample count from
/// 1 to 20, so one-sample and multi-sample chunks both run; random
/// origins; 1, 2 and 8 rayon workers.
#[test]
fn block_pass_stats_match_staged_oracle_at_any_thread_count() {
    let mut r = rng();
    let net = paper_net(47, 0.5);
    let oracle = StagedOracle::of(&net);
    let mut ws = Workspace::new();
    let shapes = [
        (7, 29),
        (3, 64),
        (5, 86),
        (1, 77),
        (77, 1),
        (2, 130),
        (30, 86),
        (2100, 1),
    ];
    for samples in 1..=20 {
        let (h, w) = shapes[samples % shapes.len()];
        let input = random_input(&mut r, h, w);
        let seed = r.gen::<u64>();
        let origin = (r.gen_range(0usize..500), r.gen_range(0usize..500));
        let seeds: Vec<u64> = (0..samples).map(|k| mc_sample_seed(seed, k)).collect();
        let (mean, std) = oracle.stats(&input, &seeds, origin, &mut ws);
        for threads in [1, 2, 8] {
            let got =
                with_thread_count(threads, || single_crop(&net, &input, samples, seed, origin));
            assert_eq!(
                bits(got.mean.as_slice()),
                bits(&mean),
                "{h}x{w}, {samples} samples, {threads} threads: mean diverges"
            );
            assert_eq!(
                bits(got.std.as_slice()),
                bits(&std),
                "{h}x{w}, {samples} samples, {threads} threads: std diverges"
            );
        }
    }
}

/// Sample `k`'s seed as the engine documents it: the SplitMix64
/// finaliser over `seed + (k+1)·φ`.
fn mc_sample_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
