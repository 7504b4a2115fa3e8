//! Tile planning for sliding-window inference over frames larger than
//! memory or latency budgets allow in one pass.
//!
//! The paper's frames are 3840x2160; Bayesian inference on such frames
//! is only affordable tile by tile. A plan partitions the frame into the
//! overlapping tiles' *kept interiors*, each at least a margin away from
//! its tile's cut edges. The budgeted Bayesian sweep in `el-monitor`
//! runs over these plans: it computes each tile only over its kept
//! interior plus the network's receptive halo, so the margin shapes
//! which tile keeps which pixel, not what is computed.

use el_geom::Rect;

/// Tiling configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileConfig {
    /// Tile side length (pixels).
    pub tile: usize,
    /// Overlap margin on each side (pixels). It places the cuts and the
    /// kept interiors; the Bayesian sweep requires it to be at least the
    /// network's receptive-field radius as a configuration check.
    pub margin: usize,
}

impl TileConfig {
    /// Defaults: 128 px tiles with an 8 px margin (enough for dilation-4
    /// 3x3 branches whose receptive radius is 4).
    pub fn default_128() -> Self {
        TileConfig {
            tile: 128,
            margin: 8,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.tile == 0 {
            return Err("tile must be positive".into());
        }
        // `2·margin < tile`, compared without the overflowing product.
        if self.margin >= self.tile.div_ceil(2) {
            return Err("margin must be smaller than half the tile".into());
        }
        Ok(())
    }
}

/// One planned tile: the crop rectangle plus the interior this tile is
/// responsible for in the stitched output. The Bayesian sweep computes
/// only the kept interior (its prefix over the interior grown by the
/// receptive radius); the rest of the rectangle is never evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// The crop rectangle, in image coordinates.
    pub rect: Rect,
    /// Kept interior, crop-local: `[keep_x0, keep_x1) x [keep_y0, keep_y1)`.
    pub keep_x0: usize,
    /// See [`Tile::keep_x0`].
    pub keep_y0: usize,
    /// Exclusive end of the kept columns.
    pub keep_x1: usize,
    /// Exclusive end of the kept rows.
    pub keep_y1: usize,
}

impl Tile {
    /// The kept interior as a rectangle in **image** coordinates.
    pub fn keep_rect(&self) -> Rect {
        Rect::new(
            self.rect.x + self.keep_x0 as i64,
            self.rect.y + self.keep_y0 as i64,
            (self.keep_x1 - self.keep_x0) as i64,
            (self.keep_y1 - self.keep_y0) as i64,
        )
    }
}

/// The tile origins along one axis: `step = tile - 2·margin` strides,
/// with the last origin clamped so the final tile ends at the border.
fn axis_cuts(span: usize, config: TileConfig) -> Vec<usize> {
    let step = config.tile - 2 * config.margin;
    let mut cuts = Vec::new();
    let mut c0 = 0usize;
    loop {
        let c = c0.min(span.saturating_sub(config.tile));
        cuts.push(c);
        if c + config.tile >= span {
            return cuts;
        }
        c0 += step;
    }
}

/// The kept interval (crop-local, half-open) of each tile along one axis:
/// everything but the margin, extended to the frame border on boundary
/// tiles, and trimmed so consecutive keeps are **disjoint** — where the
/// clamped last tile would overlap its neighbour, the later tile owns the
/// overlap (the overwrite order of the streaming stitcher).
fn axis_keeps(
    cuts: &[usize],
    span: usize,
    extent: usize,
    config: TileConfig,
) -> Vec<(usize, usize)> {
    let mut keeps: Vec<(usize, usize)> = cuts
        .iter()
        .map(|&c| {
            let k0 = if c == 0 { 0 } else { config.margin };
            let k1 = if c + config.tile >= span {
                extent
            } else {
                extent - config.margin
            };
            (k0, k1)
        })
        .collect();
    for i in 0..keeps.len().saturating_sub(1) {
        let next_start = cuts[i + 1] + keeps[i + 1].0;
        if cuts[i] + keeps[i].1 > next_start {
            keeps[i].1 = next_start - cuts[i];
        }
    }
    keeps
}

/// Plans the overlapping tile grid for a `width x height` frame: each
/// pixel is kept by **exactly one** tile, every kept pixel sits at least
/// `margin` pixels from its tile's cut edges (frame borders excepted),
/// and tiles are emitted in row-major order.
///
/// The Bayesian tiled driver in `el-monitor` runs over this plan; its
/// partial-coverage accounting relies on disjoint keeps. An empty frame
/// (zero width or height) has nothing to keep and plans no tiles.
///
/// # Panics
///
/// Panics if the configuration fails [`TileConfig::validate`].
pub fn plan_tiles(width: usize, height: usize, config: TileConfig) -> Vec<Tile> {
    if let Err(e) = config.validate() {
        panic!("invalid tile configuration: {e}");
    }
    if width == 0 || height == 0 {
        return Vec::new();
    }
    let (cw, ch) = (config.tile.min(width), config.tile.min(height));
    let xs = axis_cuts(width, config);
    let ys = axis_cuts(height, config);
    let keep_x = axis_keeps(&xs, width, cw, config);
    let keep_y = axis_keeps(&ys, height, ch, config);
    let mut tiles = Vec::with_capacity(xs.len() * ys.len());
    for (&ty, &(ky0, ky1)) in ys.iter().zip(&keep_y) {
        for (&tx, &(kx0, kx1)) in xs.iter().zip(&keep_x) {
            tiles.push(Tile {
                rect: Rect::new(tx as i64, ty as i64, cw as i64, ch as i64),
                keep_x0: kx0,
                keep_y0: ky0,
                keep_x1: kx1,
                keep_y1: ky1,
            });
        }
    }
    tiles
}

/// Orders tile indices so tiles whose kept interior intersects any
/// priority rectangle come first; order is otherwise stable (row-major),
/// so a latency-budgeted consumer covers the priority regions before
/// spending budget on background tiles.
pub fn prioritize_tiles(tiles: &[Tile], priority: &[Rect]) -> Vec<usize> {
    let is_priority = |t: &Tile| {
        let keep = t.keep_rect();
        priority.iter().any(|r| keep.intersects(*r))
    };
    let mut order: Vec<usize> = (0..tiles.len()).collect();
    order.sort_by_key(|&i| usize::from(!is_priority(&tiles[i])));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_geom::Grid;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn plan_partitions_frame_with_margins() {
        for (w, h, tile, margin) in [
            (96usize, 80usize, 48usize, 4usize),
            (70, 53, 32, 4),
            (30, 30, 48, 4),
            (128, 31, 32, 8),
        ] {
            let cfg = TileConfig { tile, margin };
            let tiles = plan_tiles(w, h, cfg);
            // Every pixel kept exactly once.
            let mut owners = Grid::new(w, h, 0usize);
            for t in &tiles {
                assert!(
                    Rect::new(0, 0, w as i64, h as i64).contains_rect(t.rect),
                    "tile {t:?} overruns the frame"
                );
                for p in t.keep_rect().pixels() {
                    owners[(p.x as usize, p.y as usize)] += 1;
                }
                // Kept pixels are at least `margin` from the cut edges of
                // the crop (image borders excepted).
                if t.rect.x > 0 {
                    assert!(t.keep_x0 >= margin);
                }
                if t.rect.right() < w as i64 {
                    assert!(t.keep_x1 + margin <= t.rect.w as usize);
                }
                if t.rect.y > 0 {
                    assert!(t.keep_y0 >= margin);
                }
                if t.rect.bottom() < h as i64 {
                    assert!(t.keep_y1 + margin <= t.rect.h as usize);
                }
            }
            assert!(
                owners.iter().all(|&n| n == 1),
                "{w}x{h} tile {tile} margin {margin}: coverage not a partition"
            );
        }
    }

    #[test]
    fn plan_tiles_fuzz_partition_and_disjoint_keeps() {
        // Randomized frame sizes and tile configurations: kept interiors
        // must be pairwise-disjoint and exactly cover the frame, with
        // every tile inside the frame and keeps inside their tile.
        use rand::Rng;
        let mut r = ChaCha8Rng::seed_from_u64(0xF1E1D);
        let mut cases = 0usize;
        while cases < 250 {
            let w = r.gen_range(1usize..180);
            let h = r.gen_range(1usize..180);
            let tile = r.gen_range(1usize..64);
            let margin = r.gen_range(0usize..32);
            let cfg = TileConfig { tile, margin };
            if cfg.validate().is_err() {
                continue;
            }
            cases += 1;
            let tiles = plan_tiles(w, h, cfg);
            let bounds = Rect::new(0, 0, w as i64, h as i64);
            let mut owners = Grid::new(w, h, 0usize);
            for t in &tiles {
                assert!(
                    bounds.contains_rect(t.rect),
                    "{w}x{h} tile {tile} margin {margin}: {t:?} overruns the frame"
                );
                assert!(t.keep_x0 <= t.keep_x1 && t.keep_x1 <= t.rect.w as usize);
                assert!(t.keep_y0 <= t.keep_y1 && t.keep_y1 <= t.rect.h as usize);
                for p in t.keep_rect().pixels() {
                    owners[(p.x as usize, p.y as usize)] += 1;
                }
            }
            assert!(
                owners.iter().all(|&n| n == 1),
                "{w}x{h} tile {tile} margin {margin}: keeps are not a partition"
            );
        }
    }

    #[test]
    fn prioritized_tiles_come_first() {
        let cfg = TileConfig {
            tile: 32,
            margin: 4,
        };
        let tiles = plan_tiles(96, 96, cfg);
        let target = Rect::new(60, 60, 10, 10);
        let order = prioritize_tiles(&tiles, &[target]);
        assert_eq!(order.len(), tiles.len());
        let k = order
            .iter()
            .take_while(|&&i| tiles[i].keep_rect().intersects(target))
            .count();
        assert!(k >= 1, "at least one tile must cover the target");
        // After the priority block, no tile touches the target.
        assert!(order[k..]
            .iter()
            .all(|&i| !tiles[i].keep_rect().intersects(target)));
        // And the full order is a permutation.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..tiles.len()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_frame_plans_no_tiles() {
        let cfg = TileConfig {
            tile: 16,
            margin: 4,
        };
        assert!(plan_tiles(0, 0, cfg).is_empty());
        assert!(plan_tiles(40, 0, cfg).is_empty());
        assert!(plan_tiles(0, 40, cfg).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid tile configuration")]
    fn oversized_margin_rejected() {
        let _ = plan_tiles(
            32,
            32,
            TileConfig {
                tile: 16,
                margin: 8,
            },
        );
    }
}
