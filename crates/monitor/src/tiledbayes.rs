//! Budgeted tiled Bayesian inference over full frames (paper §V-B).
//!
//! The paper's cost argument — Bayesian verification of a full 3840x2160
//! frame takes over a minute while a crop verifies in seconds — is why
//! the Figure 2 architecture verifies candidate crops only. This module
//! closes the remaining gap: a full frame *can* be Bayesian-verified
//! **incrementally**, tile by tile under an explicit latency budget, with
//! candidate-zone tiles verified first so the safety-relevant regions are
//! covered before the budget runs out.
//!
//! The frame is zero-padded once per sweep, and each tile computes only
//! what it keeps: the engine's block pass ([`el_seg::MsdNet::mc_blocks`])
//! runs the tile's kept interior as a window of the padded frame and
//! writes its mean and `σ` straight into the frame's statistics. No
//! tile-sized prefix, halo or statistics buffer exists. Exactness rests
//! on three invariants of the engine:
//!
//! - every kept pixel's branch taps read the padded frame itself, so
//!   each prefix value is the whole-frame GEMM column bit for bit;
//! - everything after the prefix is pointwise, each column reduced in
//!   the same order whatever the block's shape;
//! - dropout masks are **coordinate-keyed**
//!   ([`el_nn::layers::keyed_mask_word`]): a tile processed at its frame
//!   origin draws exactly the whole frame's masks at those pixels, on
//!   every (mutually bit-identical) `el_kernels` tier.
//!
//! Together they make an unbudgeted tiled pass **bit-identical** to
//! untiled [`bayesian_segment`](crate::bayes::bayesian_segment)
//! (property-tested), so partial coverage is a strict prefix of the exact
//! full-frame answer — not an approximation of it. The tile margin only
//! shapes the plan (which tile keeps which pixel).

use el_geom::{Grid, Rect};
use el_nn::Workspace;
use el_scene::Image;
use el_seg::data::pad_image;
use el_seg::{plan_tiles, prioritize_tiles, MsdNet, Tile, TileConfig};

use crate::bayes::{mc_pass, BayesStats, McJob};

/// The result of a (possibly budget-truncated) tiled Bayesian pass.
#[derive(Debug, Clone)]
pub struct TiledBayesStats {
    /// Full-frame statistics. Pixels of verified tiles carry the exact
    /// whole-frame values; unverified pixels are zero (never NaN).
    pub stats: BayesStats,
    /// `true` where [`TiledBayesStats::stats`] is populated — the union
    /// of the kept interiors of the verified tiles.
    pub covered: Grid<bool>,
    /// The tile plan the pass ran over ([`el_seg::plan_tiles`] output).
    pub tiles: Vec<Tile>,
    /// Indices into [`TiledBayesStats::tiles`] of the verified tiles, in
    /// verification order (priority tiles first) — the audit's per-tile
    /// statistics are keyed by these.
    pub verified: Vec<usize>,
    /// Number of tiles the plan contains.
    pub tiles_total: usize,
    /// Number of tiles verified before the budget expired.
    pub tiles_verified: usize,
}

impl TiledBayesStats {
    /// Fraction of frame pixels covered.
    pub fn coverage(&self) -> f64 {
        self.covered.fraction_set()
    }

    /// `true` when every tile was verified (the result equals an untiled
    /// pass).
    pub fn is_complete(&self) -> bool {
        self.tiles_verified == self.tiles_total
    }
}

/// EWMA smoothing factor for the measured per-tile cost that drives
/// predictive admission. One tile is admitted per clock poll and run to
/// completion before the next poll, so each poll-to-poll delta is a
/// direct per-tile cost sample; the EWMA tracks drift (cache warmup,
/// load) while damping one-off spikes. Admission stops when
/// `elapsed + avg >= budget`.
const TILE_COST_EWMA_ALPHA: f64 = 0.5;

/// Bayesian-verifies a full frame tile by tile under a latency budget.
///
/// Tiles come from the shared planner ([`el_seg::plan_tiles`]); tiles
/// whose kept interior intersects a `priority` rectangle (candidate
/// landing zones) are verified first, remaining tiles in row-major order.
/// Each admitted tile's kept interior runs the engine's block pass as a
/// window of the once-padded frame, in place (see the module docs).
///
/// `elapsed_s` returns seconds since the pass began and is polled once
/// **before each tile**, at its admission; production passes wall-clock
/// time, tests a deterministic fake clock. Each admitted tile runs to
/// completion before the next poll, so every poll-to-poll delta is one
/// tile's cost. Admission is **predictive**: an EWMA of those deltas (the
/// clock is the single source of time) estimates the next tile's cost,
/// and a tile is admitted only while `elapsed + avg < budget_s` — so once
/// a cost measurement exists the sweep does not start a tile it expects
/// to finish past the budget. Until the first tile has been measured the
/// raw `elapsed < budget_s` check applies. Whatever the estimate, no tile
/// is admitted at or past the budget, so a wall-clock sweep overruns it
/// by at most the one tile in flight. On expiry the partial result is
/// returned immediately — covered tiles carry exact whole-frame
/// statistics (see the module docs), uncovered pixels are zero with
/// `covered` false. An empty frame plans no tiles and returns an empty,
/// complete result.
///
/// With an unexpired budget the result is **bit-identical** to untiled
/// [`bayesian_segment`](crate::bayes::bayesian_segment) on the whole
/// frame.
///
/// # Panics
///
/// Panics if the tile configuration is invalid, `samples == 0`, or the
/// margin is smaller than the network's receptive radius.
#[allow(clippy::too_many_arguments)]
pub fn bayesian_segment_tiled(
    net: &MsdNet,
    image: &Image,
    config: TileConfig,
    samples: usize,
    seed: u64,
    budget_s: f64,
    priority: &[Rect],
    mut elapsed_s: impl FnMut() -> f64,
) -> TiledBayesStats {
    assert!(samples > 0, "at least one Monte-Carlo sample is required");
    assert!(
        config.margin >= net.receptive_radius(),
        "tile margin {} below the network's receptive radius {}",
        config.margin,
        net.receptive_radius()
    );
    let (w, h) = (image.width(), image.height());
    let tiles = plan_tiles(w, h, config);
    let order = prioritize_tiles(&tiles, priority);
    let mut stats = BayesStats::zeros(net.classes(), h, w, samples);
    let mut covered = Grid::new(w, h, false);
    let mut verified: Vec<usize> = Vec::new();
    // One padded frame per sweep.
    let input = pad_image(image, net.receptive_radius(), &mut Workspace::new());
    // The clock value at the previous admission poll, and the EWMA
    // per-tile cost measured from the deltas between polls. Until one
    // tile has run between two polls there is no cost sample and
    // admission falls back to the raw `elapsed < budget` check.
    let mut last_poll: Option<f64> = None;
    let mut avg_tile_s: Option<f64> = None;
    for (pos, &i) in order.iter().enumerate() {
        let now = elapsed_s();
        if let Some(prev) = last_poll {
            let cost = (now - prev).max(0.0);
            avg_tile_s = Some(match avg_tile_s {
                None => cost,
                Some(avg) => avg + TILE_COST_EWMA_ALPHA * (cost - avg),
            });
        }
        last_poll = Some(now);
        if now + avg_tile_s.unwrap_or(0.0) >= budget_s {
            // Every tile left unadmitted by this pass was refused on
            // budget grounds.
            el_metrics::registry()
                .tile_refusals
                .add((order.len() - pos) as u64);
            break;
        }
        let keep = tiles[i].keep_rect();
        let tile_sw = el_metrics::Stopwatch::start();
        let job = McJob {
            input: &input,
            window: keep,
            origin: (0, 0),
            seed,
            stats: &mut stats,
        };
        mc_pass(net, vec![job], samples);
        el_metrics::registry().tile_cost.record(tile_sw);
        for y in keep.y as usize..keep.bottom() as usize {
            covered.row_mut(y)[keep.x as usize..keep.right() as usize].fill(true);
        }
        verified.push(i);
    }
    let tiles_verified = verified.len();
    let metrics = el_metrics::registry();
    metrics.tiles_planned.add(tiles.len() as u64);
    metrics.tiles_verified.add(tiles_verified as u64);
    TiledBayesStats {
        stats,
        covered,
        tiles_total: tiles.len(),
        tiles_verified,
        tiles,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bayes::bayesian_segment;
    use el_scene::{Conditions, Scene, SceneParams};
    use el_seg::MsdNetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net() -> MsdNet {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        MsdNet::new(&MsdNetConfig::tiny(), &mut rng)
    }

    fn image(w: usize, h: usize) -> Image {
        let mut p = SceneParams::small();
        p.width = w;
        p.height = h;
        Scene::generate(&p, 3).render(&Conditions::nominal(), 3)
    }

    fn cfg() -> TileConfig {
        TileConfig {
            tile: 24,
            margin: 4,
        }
    }

    #[test]
    fn unbudgeted_tiled_equals_untiled_bitwise() {
        let net = net();
        let img = image(52, 41);
        let tiled = bayesian_segment_tiled(&net, &img, cfg(), 5, 11, f64::INFINITY, &[], || 0.0);
        assert!(tiled.is_complete());
        assert!(tiled.covered.iter().all(|&c| c));
        let whole = bayesian_segment(&net, &img, 5, 11);
        assert_eq!(tiled.stats.mean.as_slice(), whole.mean.as_slice());
        assert_eq!(tiled.stats.std.as_slice(), whole.std.as_slice());
    }

    #[test]
    fn zero_budget_returns_empty_coverage() {
        let net = net();
        let img = image(40, 40);
        let out = bayesian_segment_tiled(&net, &img, cfg(), 3, 1, 0.0, &[], || 1.0);
        assert_eq!(out.tiles_verified, 0);
        assert!(out.covered.iter().all(|&c| !c));
        assert!(out.stats.mean.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn priority_tiles_verified_first_under_budget() {
        let net = net();
        let img = image(48, 48);
        let target = Rect::new(30, 30, 8, 8);
        // Fake clock: one tick per tile, budget admits exactly one tile.
        let mut t = -1.0f64;
        let out = bayesian_segment_tiled(&net, &img, cfg(), 3, 1, 0.5, &[target], move || {
            t += 1.0;
            t
        });
        assert_eq!(out.tiles_verified, 1);
        // The verified tile covers (part of) the priority rect.
        assert!(target
            .pixels()
            .any(|p| out.covered[(p.x as usize, p.y as usize)]));
    }

    #[test]
    fn predictive_admission_stops_before_a_foreseeable_overrun() {
        // Fake clock: +10 s per admission poll, one tile per poll, so
        // the measured cost is 10 s/tile. Budget 35 s:
        //   poll 0 s  -> bootstrap, admit
        //   poll 10 s -> avg 10, 10 + 10 < 35, admit
        //   poll 20 s -> avg 10, 20 + 10 < 35, admit
        //   poll 30 s -> avg 10, 30 + 10 >= 35 -> stop.
        // The raw `elapsed < budget` check would have admitted a fourth
        // tile at 30 s and finished near 40 s — one tile past budget.
        let net = net();
        let img = image(72, 72); // 3x3 plan at 24 px tiles
        let mut t = -10.0f64;
        let out = bayesian_segment_tiled(&net, &img, cfg(), 3, 1, 35.0, &[], move || {
            t += 10.0;
            t
        });
        assert_eq!(
            out.tiles_verified, 3,
            "prediction must refuse the tile the raw elapsed check would admit"
        );
        assert!(out.tiles_total >= 4, "plan must have tiles left to refuse");
    }

    #[test]
    #[should_panic(expected = "below the network's receptive radius")]
    fn insufficient_margin_rejected() {
        let net = net();
        let img = image(32, 32);
        let _ = bayesian_segment_tiled(
            &net,
            &img,
            TileConfig {
                tile: 16,
                margin: 1,
            },
            3,
            1,
            1.0,
            &[],
            || 0.0,
        );
    }
}
