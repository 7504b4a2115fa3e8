//! Property-based tests on cross-crate invariants.
//!
//! The build environment has no `proptest`, so each property runs as a
//! seeded-RNG loop: `CASES` random instances drawn from a `ChaCha8Rng`
//! with a fixed seed — fully deterministic, shrinking traded for
//! reproducibility.

use certel::prelude::*;
use el_geom::distance::{distance_transform, squared_distance_transform, NO_SEED};
use el_geom::Grid;
use el_nn::layers::Conv2d;
use el_nn::{Tensor, Workspace};
use el_sora::grc::{intrinsic_grc, GroundScenario, UavSpec};
use el_sora::mitigation::MitigationSet;
use el_sora::sail::sail;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod common;
use common::with_thread_count;

const CASES: usize = 48;

fn rng() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0x5EED)
}

/// Brute-force squared distance to the nearest `true` pixel of `mask`,
/// `None` when the mask has none.
fn brute_squared_distances(mask: &Grid<bool>) -> Grid<Option<u64>> {
    let seeds: Vec<Point> = mask
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(p, _)| p)
        .collect();
    Grid::from_fn(mask.width(), mask.height(), |x, y| {
        seeds
            .iter()
            .map(|s| s.x.abs_diff(x as i64).pow(2) + s.y.abs_diff(y as i64).pow(2))
            .min()
    })
}

/// Checks both views of the transform against brute force: the exact
/// integers, and the `sqrt` of each.
fn assert_transform_exact(mask: &Grid<bool>, what: &str) {
    let exact = squared_distance_transform(mask);
    let dist = distance_transform(mask);
    let brute = brute_squared_distances(mask);
    for (p, &b) in brute.enumerate() {
        match b {
            Some(d2) => {
                assert_eq!(exact[p], d2, "{what} at {p}");
                assert_eq!(dist[p], (d2 as f64).sqrt(), "{what} at {p}");
            }
            None => {
                assert_eq!(exact[p], NO_SEED, "{what} at {p}");
                assert_eq!(dist[p], f64::INFINITY, "{what} at {p}");
            }
        }
    }
}

/// The exact integer distance transform matches brute force on arbitrary
/// masks, on degenerate shapes (0×0, 1×N, N×1, seedless, all seeds), and
/// on a single row long enough that `d²` exceeds `u32::MAX`.
#[test]
fn distance_transform_matches_brute_force() {
    let mut r = rng();
    for case in 0..CASES {
        let w = r.gen_range(1usize..14);
        let h = r.gen_range(1usize..14);
        let density = r.gen_range(0.0f64..0.6);
        let bits: Vec<bool> = (0..w * h).map(|_| r.gen_bool(density)).collect();
        let mask = Grid::from_vec(w, h, bits).unwrap();
        assert_transform_exact(&mask, &format!("case {case} ({w}x{h})"));
    }
    for (w, h) in [
        (0, 0),
        (0, 5),
        (5, 0),
        (1, 1),
        (1, 9),
        (9, 1),
        (1, 40),
        (40, 1),
    ] {
        for fill in [false, true] {
            assert_transform_exact(&Grid::new(w, h, fill), &format!("{w}x{h} all {fill}"));
        }
        if w * h > 1 {
            let mut r = rng();
            let bits: Vec<bool> = (0..w * h).map(|_| r.gen_bool(0.2)).collect();
            assert_transform_exact(&Grid::from_vec(w, h, bits).unwrap(), &format!("{w}x{h}"));
        }
    }
    // (w − 1)² > u32::MAX: the transform must neither wrap nor round.
    let w = 70_000usize;
    assert!(((w - 1) as u64).pow(2) > u64::from(u32::MAX));
    let mut mask = Grid::new(w, 1, false);
    mask[(0, 0)] = true;
    mask[(1_234, 0)] = true;
    let exact = squared_distance_transform(&mask);
    for x in 0..w {
        let d = x.abs_diff(0).min(x.abs_diff(1_234)) as u64;
        assert_eq!(exact[(x, 0)], d * d, "long row at x = {x}");
    }
    assert_eq!(exact[(w - 1, 0)], ((w - 1 - 1_234) as u64).pow(2));
}

/// The optimized block-wise row-table GEMM convolution reproduces the naive reference
/// loop exactly, over random shapes, kernels and dilations — including
/// receptive fields larger than the image.
#[test]
fn conv_optimized_matches_naive_reference() {
    let mut r = rng();
    let mut ws = Workspace::new();
    for case in 0..CASES {
        let in_c = r.gen_range(1usize..5);
        let out_c = r.gen_range(1usize..7);
        let kernel = [1usize, 3, 5][r.gen_range(0usize..3)];
        let dilation = r.gen_range(1usize..5);
        let h = r.gen_range(1usize..13);
        let w = r.gen_range(1usize..13);
        let conv = Conv2d::new(in_c, out_c, kernel, dilation, &mut r);
        let mut vals = ChaCha8Rng::seed_from_u64(case as u64);
        let input = Tensor::from_fn(in_c, h, w, |_, _, _| vals.gen_range(-2.0f32..2.0));
        let reference = conv.forward_reference(&input);
        let optimized = conv.forward_with(&input, &mut ws);
        assert_eq!(
            reference, optimized,
            "conv {in_c}->{out_c} k{kernel} d{dilation} on {h}x{w} diverged"
        );
        ws.recycle(optimized);
    }
}

/// The one Monte-Carlo engine is bit-identical across worker-thread
/// counts: a batch of crops at several sample counts (fixed chunk
/// partition, fixed merge order), and an unbudgeted tiled sweep, give the
/// same mean and std under 1, 2 and 8 rayon threads — and the sweep
/// equals the untiled pass.
#[test]
fn mc_engine_is_bit_identical_across_thread_counts() {
    use el_monitor::{bayesian_segment, bayesian_segment_batch, bayesian_segment_tiled};
    use el_seg::TileConfig;
    let mut r = rng();
    let net = MsdNet::new(&MsdNetConfig::tiny(), &mut r);
    let inputs: Vec<Tensor> = [(12usize, 9usize), (7, 15), (20, 20)]
        .iter()
        .enumerate()
        .map(|(i, &(h, w))| {
            Tensor::from_fn(3, h, w, move |c, y, x| {
                ((i * 13 + c * 5 + y * 2 + x) as f32 * 0.17).sin()
            })
        })
        .collect();
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let origins = [(0usize, 0usize), (9, 31), (40, 2)];
    let bits = |stats: &[BayesStats]| -> Vec<(Vec<u32>, Vec<u32>)> {
        stats
            .iter()
            .map(|s| {
                let mean = s.mean.as_slice().iter().map(|v| v.to_bits()).collect();
                let std = s.std.as_slice().iter().map(|v| v.to_bits()).collect();
                (mean, std)
            })
            .collect()
    };
    for samples in [1usize, 2, 7, 10, 19] {
        let seeds: Vec<u64> = (0..refs.len()).map(|_| r.gen()).collect();
        let run = |threads| {
            with_thread_count(threads, || {
                bits(&bayesian_segment_batch(
                    &net, &refs, samples, &seeds, &origins,
                ))
            })
        };
        let one = run(1);
        for threads in [2, 8] {
            assert!(
                one == run(threads),
                "{samples}-sample batch diverges at {threads} threads"
            );
        }
    }

    let mut p = SceneParams::small();
    p.width = 50;
    p.height = 39;
    let image = Scene::generate(&p, 3).render(&Conditions::nominal(), 3);
    let config = TileConfig {
        tile: 24,
        margin: 4,
    };
    let sweep = |threads| {
        with_thread_count(threads, || {
            let tiled =
                bayesian_segment_tiled(&net, &image, config, 6, 21, f64::INFINITY, &[], || 0.0);
            assert!(tiled.is_complete());
            bits(&[tiled.stats])
        })
    };
    let one = sweep(1);
    for threads in [2, 8] {
        assert!(
            one == sweep(threads),
            "tiled sweep diverges at {threads} threads"
        );
    }
    assert!(
        one == bits(&[bayesian_segment(&net, &image, 6, 21)]),
        "unbudgeted tiled sweep diverges from the untiled pass"
    );
}

/// The unbudgeted tiled sweep equals the untiled pass bit for bit on
/// random frame and tile geometries, at 1 and 2 rayon threads. Each
/// tile's prefix is computed over its kept interior grown by the
/// receptive radius and its Monte-Carlo suffix over the kept interior
/// only, so the sweep is drawn across the shapes that stress that crop:
/// 1-px-wide and 1-px-tall frames, frames smaller than one tile,
/// `margin == radius`, and plans whose clamped last tile trims its
/// neighbour's keep.
#[test]
fn tiled_sweep_equals_untiled_on_random_geometries() {
    use el_monitor::{bayesian_segment, bayesian_segment_tiled};
    use el_seg::{plan_tiles, TileConfig};
    let mut r = rng();
    let net = MsdNet::new(&MsdNetConfig::tiny(), &mut r);
    let radius = net.receptive_radius();
    let bits = |s: &BayesStats| -> (Vec<u32>, Vec<u32>) {
        (
            s.mean.as_slice().iter().map(|v| v.to_bits()).collect(),
            s.std.as_slice().iter().map(|v| v.to_bits()).collect(),
        )
    };
    // (w, h, tile, margin): the edge shapes first, then random ones.
    let mut cases: Vec<(usize, usize, usize, usize)> = vec![
        (1, 37, 8, radius),
        (41, 1, 8, radius + 1),
        (1, 1, 6, radius),
        (10, 7, 16, radius + 1),
        (33, 29, 9, radius),
        (30, 30, 16, radius),
    ];
    while cases.len() < 66 {
        let tile = r.gen_range(2 * radius + 1..=32);
        let margin = r.gen_range(radius..tile.div_ceil(2));
        cases.push((r.gen_range(1..=48), r.gen_range(1..=48), tile, margin));
    }
    let (mut thin, mut sub_tile, mut tight, mut trimmed) = (0, 0, 0, 0);
    for (case, &(w, h, tile, margin)) in cases.iter().enumerate() {
        let config = TileConfig { tile, margin };
        let plan = plan_tiles(w, h, config);
        thin += usize::from(w == 1 || h == 1);
        sub_tile += usize::from(w < tile && h < tile);
        tight += usize::from(margin == radius);
        trimmed += usize::from(plan.iter().any(|t| {
            (t.rect.right() < w as i64 && t.keep_x1 + margin < t.rect.w as usize)
                || (t.rect.bottom() < h as i64 && t.keep_y1 + margin < t.rect.h as usize)
        }));
        let image: certel::el_scene::Image =
            Grid::from_fn(w, h, |_, _| [r.gen(), r.gen(), r.gen()]);
        let seed = r.gen::<u64>();
        let whole = bits(&bayesian_segment(&net, &image, 3, seed));
        for threads in [1, 2] {
            let tiled = with_thread_count(threads, || {
                bayesian_segment_tiled(&net, &image, config, 3, seed, f64::INFINITY, &[], || 0.0)
            });
            assert!(tiled.is_complete());
            assert_eq!(tiled.tiles_total, plan.len());
            assert!(
                whole == bits(&tiled.stats),
                "case {case}: {w}x{h} tile {tile} margin {margin} diverges at {threads} threads"
            );
        }
    }
    assert!(
        thin >= 2 && sub_tile >= 1 && tight >= 1 && trimmed >= 1,
        "sweep misses an edge shape: thin {thin}, sub-tile {sub_tile}, \
         margin == radius {tight}, trimmed keep {trimmed}"
    );
}

/// The monitor rule is monotone: tightening tau or raising the sigma
/// factor can only add warnings.
#[test]
fn monitor_rule_monotone() {
    let mut r = rng();
    for _ in 0..CASES {
        let means: Vec<f32> = (0..8).map(|_| r.gen_range(0.0f32..0.5)).collect();
        let stds: Vec<f32> = (0..8).map(|_| r.gen_range(0.0f32..0.2)).collect();
        let tau_low = r.gen_range(0.02f32..0.1);
        let tau_high = r.gen_range(0.1f32..0.4);
        let k_low = r.gen_range(0.0f32..2.0);
        let k_high = r.gen_range(2.0f32..5.0);
        let mean = Tensor::from_vec(8, 1, 1, means).unwrap();
        let std = Tensor::from_vec(8, 1, 1, stds).unwrap();
        let stats = BayesStats {
            mean,
            std,
            samples: 10,
        };
        let strict = MonitorRule {
            tau: tau_low,
            sigma_factor: k_high,
        };
        let lenient = MonitorRule {
            tau: tau_high,
            sigma_factor: k_low,
        };
        let ws = strict.warning_map(&stats)[(0, 0)];
        let wl = lenient.warning_map(&stats)[(0, 0)];
        assert!(!wl || ws, "strict rule must warn wherever lenient does");
    }
}

/// Proposed zones never overlap predicted high-risk pixels and always
/// satisfy the clearance they claim.
#[test]
fn zones_respect_predicted_risk() {
    let mut r = rng();
    for _ in 0..CASES {
        let seed = r.gen_range(0u64..500);
        let scene = Scene::generate(&SceneParams::small(), seed);
        let params = el_core::ZoneParams::small();
        for z in el_core::propose_zones(&scene.labels, &params) {
            assert!(z.clearance_px >= params.clearance_px);
            for p in z.rect.pixels() {
                assert!(
                    !scene.labels[p].endangers_people(),
                    "zone pixel {p} on predicted high-risk class"
                );
            }
        }
    }
}

/// The zone search as specified, computed the slow way: brute-force
/// nearest-risk distance (`sqrt` of the exact integer), a flood-fill of
/// the safe pixels in first-pixel raster order, and a raster scan of
/// each region for the first pixel of greatest clearance whose zone
/// fits inside the image.
fn propose_zones_reference(labels: &LabelMap, params: &el_core::ZoneParams) -> Vec<Candidate> {
    let (w, h) = (labels.width(), labels.height());
    let risk = labels.map(|&c| el_core::zone::is_high_risk(c));
    let dist =
        brute_squared_distances(&risk).map(|d2| d2.map_or(f64::INFINITY, |d2| (d2 as f64).sqrt()));
    let safe = Grid::from_fn(w, h, |x, y| {
        el_core::zone::is_landable(labels[(x, y)]) && dist[(x, y)] >= params.clearance_px
    });
    let mut region: Grid<Option<usize>> = Grid::new(w, h, None);
    let mut areas = Vec::new();
    for start in labels.bounds().pixels() {
        if !safe[start] || region[start].is_some() {
            continue;
        }
        let id = areas.len();
        let mut stack = vec![start];
        region[start] = Some(id);
        let mut area = 0;
        while let Some(p) = stack.pop() {
            area += 1;
            for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                let q = Point::new(p.x + dx, p.y + dy);
                if safe.get(q) == Some(&true) && region[q].is_none() {
                    region[q] = Some(id);
                    stack.push(q);
                }
            }
        }
        areas.push(area);
    }
    let side = 2 * params.zone_half_side + 1;
    let mut candidates = Vec::new();
    for (id, &area) in areas.iter().enumerate() {
        if area < params.min_area_px {
            continue;
        }
        let mut best: Option<(Point, f64)> = None;
        for p in labels.bounds().pixels() {
            let fits = labels
                .bounds()
                .contains_rect(Rect::centered_square(p, side));
            if region[p] == Some(id) && fits && best.is_none_or(|(_, d)| dist[p] > d) {
                best = Some((p, dist[p]));
            }
        }
        if let Some((center, clearance)) = best {
            candidates.push(Candidate {
                center,
                rect: Rect::centered_square(center, side),
                clearance_px: clearance,
                region_area: area,
                score: clearance + (area as f64).sqrt() * 0.05,
            });
        }
    }
    candidates.sort_by(|a, b| b.score.total_cmp(&a.score));
    candidates.truncate(params.max_candidates);
    candidates
}

/// `propose_zones` (integer transform, squared-integer clearance test,
/// run labelling) returns exactly the reference's candidates on random
/// label maps and degenerate shapes, at clearances on, one ULP either
/// side of, and far from exact square roots.
#[test]
fn propose_zones_matches_brute_force_reference() {
    let classes = SemanticClass::ALL;
    let mut clearances = vec![0.0, f64::MAX];
    for c in [5.0, 2f64.sqrt(), 8f64.sqrt(), 3.0] {
        clearances.extend([c, c.next_up(), c.next_down()]);
    }
    let mut r = rng();
    let mut maps: Vec<LabelMap> = Vec::new();
    for _ in 0..CASES {
        let (w, h) = (r.gen_range(1usize..24), r.gen_range(1usize..24));
        let risk = r.gen_range(0.0f64..0.2);
        maps.push(Grid::from_fn(w, h, |_, _| {
            if r.gen_bool(risk) {
                [SemanticClass::Road, SemanticClass::Humans][r.gen_range(0..2)]
            } else if r.gen_bool(0.8) {
                [SemanticClass::LowVegetation, SemanticClass::Clutter][r.gen_range(0..2)]
            } else {
                classes[r.gen_range(0..classes.len())]
            }
        }));
    }
    for (w, h) in [(0, 0), (1, 12), (12, 1), (9, 9)] {
        maps.push(Grid::new(w, h, SemanticClass::LowVegetation)); // risk-free
        maps.push(Grid::new(w, h, SemanticClass::Road)); // all risk
    }
    let mut proposing = 0;
    for (i, labels) in maps.iter().enumerate() {
        for &clearance_px in &clearances {
            let params = el_core::ZoneParams {
                clearance_px,
                zone_half_side: r.gen_range(1i64..3),
                min_area_px: r.gen_range(1usize..6),
                max_candidates: r.gen_range(1usize..6),
            };
            let got = el_core::propose_zones(labels, &params);
            let want = propose_zones_reference(labels, &params);
            let (w, h) = (labels.width(), labels.height());
            assert_eq!(got, want, "map {i} ({w}x{h}), {params:?}");
            proposing += usize::from(!want.is_empty());
        }
    }
    assert!(
        proposing > 3 * CASES,
        "too few cases propose a zone: {proposing}"
    );
}

/// Drift clearance is monotone in wind speed and integrity level.
#[test]
fn drift_clearance_monotone() {
    let mut r = rng();
    for _ in 0..CASES {
        let w1 = r.gen_range(0.0f64..5.0);
        let dw = r.gen_range(0.0f64..5.0);
        let model = DriftModel::medi_delivery();
        let low1 = model.required_clearance_m(w1, IntegrityLevel::Low);
        let low2 = model.required_clearance_m(w1 + dw, IntegrityLevel::Low);
        let med1 = model.required_clearance_m(w1, IntegrityLevel::Medium);
        assert!(low2 >= low1, "clearance must grow with wind");
        assert!(med1 >= low1, "medium must dominate low");
    }
}

/// SORA invariants over arbitrary operations: mitigation never raises
/// the final GRC beyond the M3 penalty; SAIL is monotone in the final
/// GRC for every ARC.
#[test]
fn sora_monotonicity() {
    let mut r = rng();
    for _ in 0..CASES {
        let spec = UavSpec {
            max_dimension_m: r.gen_range(0.2f64..12.0),
            mtow_kg: r.gen_range(0.2f64..120.0),
            operating_height_m: r.gen_range(5.0f64..200.0),
        };
        for scenario in [
            GroundScenario::ControlledArea,
            GroundScenario::VlosSparselyPopulated,
            GroundScenario::BvlosSparselyPopulated,
            GroundScenario::VlosPopulated,
            GroundScenario::BvlosPopulated,
        ] {
            let Some(grc) = intrinsic_grc(scenario, &spec) else {
                continue;
            };
            // Claiming more EL robustness never increases the final GRC.
            let mut prev = u8::MAX;
            for el in [
                Robustness::None,
                Robustness::Low,
                Robustness::Medium,
                Robustness::High,
            ] {
                let set = MitigationSet {
                    el,
                    m3: Robustness::Medium,
                    ..MitigationSet::none()
                };
                let f = set.final_grc(grc);
                assert!(f <= prev);
                prev = f;
            }
            // SAIL monotone in GRC at fixed ARC.
            for arc in [Arc::A, Arc::B, Arc::C, Arc::D] {
                let mut prev_sail = None;
                for g in 1..=7u8 {
                    let s = sail(g, arc).unwrap();
                    if let Some(p) = prev_sail {
                        assert!(s >= p);
                    }
                    prev_sail = Some(s);
                }
            }
        }
    }
}

/// Softmax output is a probability distribution for arbitrary logits.
#[test]
fn softmax_is_distribution() {
    let mut r = rng();
    for _ in 0..CASES {
        let logits: Vec<f32> = (0..16).map(|_| r.gen_range(-30.0f32..30.0)).collect();
        let t = Tensor::from_vec(4, 2, 2, logits).unwrap();
        let p = el_nn::loss::softmax(&t);
        for i in 0..4usize {
            let s: f32 = (0..4).map(|k| p.as_slice()[k * 4 + i]).sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
        assert!(p.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}

/// The safety switch never downgrades out of an emergency (except the
/// documented Hovering recovery) under arbitrary hazard sequences.
#[test]
fn safety_switch_never_downgrades() {
    use el_sora::hazard::HazardCategory;
    use el_uavsim::{FlightMode, SafetySwitch};
    let mut r = rng();
    for _ in 0..CASES {
        let len = r.gen_range(1usize..12);
        let hazard_idx: Vec<usize> = (0..len).map(|_| r.gen_range(0usize..6)).collect();
        let mut switch = SafetySwitch::new(true);
        let mut worst: Option<Maneuver> = None;
        for &i in &hazard_idx {
            let hazard = HazardCategory::ALL[i];
            let mode = switch.on_hazard(hazard);
            if let FlightMode::Emergency(m) = mode {
                if m != Maneuver::Hovering {
                    if let Some(w) = worst {
                        assert!(m >= w, "maneuver downgraded from {w:?} to {m:?}");
                    }
                    worst = Some(m);
                }
            }
        }
    }
}

/// Touchdown severity is Catastrophic iff the contact disk touches a
/// busy-road pixel.
#[test]
fn touchdown_severity_consistent() {
    use el_uavsim::mission::touchdown_severity;
    let mut r = rng();
    for _ in 0..CASES {
        let seed = r.gen_range(0u64..200);
        let x = r.gen_range(5.0f64..40.0);
        let y = r.gen_range(5.0f64..40.0);
        let scene = Scene::generate(&SceneParams::small(), seed);
        let at = el_geom::Vec2::new(x, y);
        let sev = touchdown_severity(&scene, at, true);
        let mpp = scene.params.meters_per_pixel;
        let cx = (x / mpp).round() as i64;
        let cy = (y / mpp).round() as i64;
        let rad = (1.5 / mpp).ceil() as i64;
        let mut touches_road = false;
        for dy in -rad..=rad {
            for dx in -rad..=rad {
                if (dx * dx + dy * dy) as f64 > (rad * rad) as f64 {
                    continue;
                }
                if let Some(c) = scene.labels.get(el_geom::Point::new(cx + dx, cy + dy)) {
                    if c.is_busy_road() {
                        touches_road = true;
                    }
                }
            }
        }
        assert_eq!(sev == Severity::Catastrophic, touches_road);
    }
}
