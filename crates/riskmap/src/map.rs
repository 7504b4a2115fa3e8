//! The georeferenced ground-risk grid.
//!
//! One [`RiskMap`] covers the fleet's shared operating area as a coarse
//! raster of square cells (`cell_px` ground pixels on a side). Each
//! cell stores a *heat* (accumulated anomaly mass) plus the map tick at
//! which it was last touched; decay between touches is applied lazily,
//! with eager renormalisation sweeps on a fixed tick cadence so
//! long-lived maps do not carry stale stamps forever.

use el_core::AuditRegion;
use el_geom::components::Connectivity;
use el_geom::{label_components, Grid, Point, Rect};
use el_metrics::Fingerprint;
use serde::{Deserialize, Serialize};

/// Configuration of a [`RiskMap`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RiskMapConfig {
    /// Grid width in cells.
    pub width_cells: usize,
    /// Grid height in cells.
    pub height_cells: usize,
    /// Cell edge length in ground pixels (the scene's pixel frame).
    pub cell_px: i64,
    /// Half-life of cell heat, in map ticks: after this many calls to
    /// [`RiskMap::advance`], an untouched cell holds half its heat.
    pub half_life_ticks: f64,
    /// Run an eager renormalisation sweep every this many ticks
    /// (`0` disables sweeps; decay then stays purely lazy).
    pub sweep_interval_ticks: u64,
    /// Heat below this is snapped to exactly `0.0` during sweeps, so a
    /// long-cold map returns to a canonical all-zero state.
    pub min_heat: f64,
}

impl RiskMapConfig {
    /// A small map sized for unit tests and smoke runs: 32×32 cells of
    /// 8 px covering a 256×256 px operating area, with fast decay.
    pub fn fast_test() -> Self {
        RiskMapConfig {
            width_cells: 32,
            height_cells: 32,
            cell_px: 8,
            half_life_ticks: 8.0,
            sweep_interval_ticks: 16,
            min_heat: 1e-9,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.width_cells == 0 || self.height_cells == 0 {
            return Err("risk map must have at least one cell".into());
        }
        if self.cell_px <= 0 {
            return Err(format!("cell_px must be positive, got {}", self.cell_px));
        }
        if !(self.half_life_ticks.is_finite() && self.half_life_ticks > 0.0) {
            return Err(format!(
                "half_life_ticks must be finite and positive, got {}",
                self.half_life_ticks
            ));
        }
        if !(self.min_heat.is_finite() && self.min_heat >= 0.0) {
            return Err(format!(
                "min_heat must be finite and non-negative, got {}",
                self.min_heat
            ));
        }
        Ok(())
    }
}

/// One audit finding, georeferenced for ingestion into a [`RiskMap`].
///
/// The `(stream, frame)` pair is the canonical sort key that makes
/// accumulation order-independent; `origin_px` places the observing
/// session's frame in the shared ground coordinate system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RiskObservation {
    /// Id of the session (stream) that produced the finding.
    pub stream: u64,
    /// Frame index within that stream.
    pub frame: usize,
    /// Ground-pixel position of the frame's top-left corner.
    pub origin_px: Point,
    /// Region bounding box in frame-local pixels.
    pub bbox: Rect,
    /// Mean anomaly score of the region (the audit's `mean_sigma`).
    pub score: f64,
}

impl RiskObservation {
    /// Builds an observation from an audit region of frame `frame` of
    /// session `stream`, whose frame origin sits at `origin_px`.
    pub fn from_region(stream: u64, frame: usize, origin_px: Point, region: &AuditRegion) -> Self {
        RiskObservation {
            stream,
            frame,
            origin_px,
            bbox: region.bbox,
            score: region.mean_sigma,
        }
    }

    /// The region's footprint in ground pixels.
    pub fn world_rect(&self) -> Rect {
        self.bbox.translate(self.origin_px)
    }
}

/// A connected blob of hot cells in a [`RiskMapSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotRegion {
    /// Bounding box in *cell* coordinates.
    pub bbox: Rect,
    /// Number of hot cells in the blob.
    pub cells: usize,
    /// Hottest cell in the blob.
    pub peak_heat: f64,
}

/// A serialisable point-in-time view of a [`RiskMap`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RiskMapSnapshot {
    /// Grid width in cells.
    pub width_cells: usize,
    /// Grid height in cells.
    pub height_cells: usize,
    /// Cell edge length in ground pixels.
    pub cell_px: i64,
    /// Map tick at snapshot time.
    pub tick: u64,
    /// Observations folded into the map over its lifetime.
    pub ingested: u64,
    /// Observations rejected at ingestion (non-finite or negative score).
    pub rejected: u64,
    /// Renormalisation sweeps performed.
    pub sweeps: u64,
    /// Threshold used to classify cells as hot below.
    pub hot_threshold: f64,
    /// Number of cells at or above `hot_threshold`.
    pub cells_hot: usize,
    /// Sum of decayed heat over all cells.
    pub total_heat: f64,
    /// Maximum decayed heat over all cells.
    pub max_heat: f64,
    /// Connected hot blobs, hottest first.
    pub hot_regions: Vec<HotRegion>,
    /// Canonical state fingerprint ([`RiskMap::fingerprint`]), hex.
    pub fingerprint: String,
}

/// The persistent cross-fleet ground-risk grid.
///
/// See the crate docs for the determinism contract. All mutation goes
/// through [`ingest_batch`](RiskMap::ingest_batch) (order-canonicalised
/// accumulation) and [`advance`](RiskMap::advance) (tick + scheduled
/// sweeps); reads ([`max_heat_px`](RiskMap::max_heat_px),
/// [`hot_cells`](RiskMap::hot_cells)) apply lazy decay and never mutate.
#[derive(Debug, Clone)]
pub struct RiskMap {
    config: RiskMapConfig,
    /// `2^(-1 / half_life_ticks)`, precomputed once so every decay is
    /// the same repeated multiplication.
    decay_per_tick: f64,
    heat: Grid<f64>,
    stamp: Grid<u64>,
    tick: u64,
    ingested: u64,
    rejected: u64,
    sweeps: u64,
}

impl RiskMap {
    /// Creates an all-cold map.
    ///
    /// # Errors
    ///
    /// Returns the message of [`RiskMapConfig::validate`] on an invalid
    /// configuration.
    pub fn new(config: RiskMapConfig) -> Result<Self, String> {
        config.validate()?;
        let decay_per_tick = (-1.0 / config.half_life_ticks).exp2();
        Ok(RiskMap {
            heat: Grid::new(config.width_cells, config.height_cells, 0.0),
            stamp: Grid::new(config.width_cells, config.height_cells, 0u64),
            config,
            decay_per_tick,
            tick: 0,
            ingested: 0,
            rejected: 0,
            sweeps: 0,
        })
    }

    /// The map's configuration.
    pub fn config(&self) -> &RiskMapConfig {
        &self.config
    }

    /// Current map tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Observations folded into the map over its lifetime.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Observations rejected at ingestion.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Renormalisation sweeps performed.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// The grid's bounds in cell coordinates.
    fn cell_bounds(&self) -> Rect {
        self.heat.bounds()
    }

    /// Heat stored as `(value, stamp)` decayed to the current tick.
    fn decayed(&self, heat: f64, stamp: u64) -> f64 {
        if heat == 0.0 {
            return 0.0;
        }
        let elapsed = self.tick.saturating_sub(stamp);
        if elapsed == 0 {
            return heat;
        }
        let k = i32::try_from(elapsed).unwrap_or(i32::MAX);
        heat * self.decay_per_tick.powi(k)
    }

    /// Decayed heat of the cell at `cell` (cell coordinates), `0.0` if
    /// out of bounds.
    pub fn heat_at(&self, cell: Point) -> f64 {
        match (self.heat.get(cell), self.stamp.get(cell)) {
            (Some(&h), Some(&s)) => self.decayed(h, s),
            _ => 0.0,
        }
    }

    /// Folds one tick's observations into the map.
    ///
    /// The batch is stable-sorted by `(stream, frame)` first, so the
    /// fold order — and therefore every cell's float accumulation — is
    /// independent of the order the service happened to produce the
    /// observations in. Within one `(stream, frame)` the caller's order
    /// (the audit's canonical region order) is preserved.
    ///
    /// Observations with a non-finite or negative score are rejected
    /// and counted: "no data" or corrupt data must weaken, never
    /// strengthen, the case for vetoing a landing zone. Returns the
    /// number of observations accepted.
    pub fn ingest_batch(&mut self, mut observations: Vec<RiskObservation>) -> usize {
        observations.sort_by_key(|o| (o.stream, o.frame));
        let metrics = el_metrics::registry();
        let mut accepted = 0usize;
        for obs in &observations {
            if !obs.score.is_finite() || obs.score < 0.0 {
                self.rejected += 1;
                metrics.riskmap_rejects.add(1);
                continue;
            }
            self.fold(obs);
            self.ingested += 1;
            accepted += 1;
            metrics.riskmap_regions.add(1);
        }
        accepted
    }

    /// Adds one accepted observation's heat, cell by cell in row-major
    /// order, weighting the score by the fraction of each cell the
    /// footprint covers (an exact integer-area ratio).
    fn fold(&mut self, obs: &RiskObservation) {
        let world = obs.world_rect();
        if world.is_empty() {
            return;
        }
        let cell = self.config.cell_px;
        let cells = world.downscale(cell).intersect(self.cell_bounds());
        let cell_area = (cell * cell) as f64;
        for cy in cells.y..cells.bottom() {
            for cx in cells.x..cells.right() {
                let cell_rect = Rect::new(cx * cell, cy * cell, cell, cell);
                let overlap = world.intersect(cell_rect).area();
                if overlap <= 0 {
                    continue;
                }
                let p = Point::new(cx, cy);
                let carried = self.heat_at(p);
                let add = obs.score * (overlap as f64 / cell_area);
                self.heat[(cx as usize, cy as usize)] = carried + add;
                self.stamp[(cx as usize, cy as usize)] = self.tick;
            }
        }
    }

    /// Advances the map by one tick, running a renormalisation sweep
    /// when the tick counter reaches the configured cadence.
    ///
    /// Sweep timing is keyed to the map's own tick counter — never to
    /// wall clock — so every run of the same workload performs the
    /// identical sequence of float operations.
    pub fn advance(&mut self) {
        self.tick += 1;
        let interval = self.config.sweep_interval_ticks;
        if interval > 0 && self.tick.is_multiple_of(interval) {
            self.sweep();
        }
    }

    /// Applies pending lazy decay to every cell eagerly, snapping heat
    /// below `min_heat` to exactly zero.
    fn sweep(&mut self) {
        let now = self.tick;
        let min_heat = self.config.min_heat;
        for y in 0..self.config.height_cells {
            for x in 0..self.config.width_cells {
                let h = self.decayed(self.heat[(x, y)], self.stamp[(x, y)]);
                self.heat[(x, y)] = if h < min_heat { 0.0 } else { h };
                self.stamp[(x, y)] = now;
            }
        }
        self.sweeps += 1;
        el_metrics::registry().riskmap_decay_sweeps.add(1);
    }

    /// The hottest decayed cell heat touched by a ground-pixel
    /// footprint, `0.0` for footprints off the map.
    ///
    /// This is the screening oracle handed to
    /// [`el_core::screen_candidates`]: a candidate zone is judged by the
    /// worst cell it overlaps, so a zone cannot dilute a hot spot by
    /// being large.
    pub fn max_heat_px(&self, world: Rect) -> f64 {
        if world.is_empty() {
            return 0.0;
        }
        let cells = world
            .downscale(self.config.cell_px)
            .intersect(self.cell_bounds());
        let mut max = 0.0f64;
        for cy in cells.y..cells.bottom() {
            for cx in cells.x..cells.right() {
                let h = self.heat_at(Point::new(cx, cy));
                if h > max {
                    max = h;
                }
            }
        }
        max
    }

    /// Number of cells whose decayed heat is at or above `threshold`.
    pub fn hot_cells(&self, threshold: f64) -> usize {
        let mut n = 0;
        for y in 0..self.config.height_cells {
            for x in 0..self.config.width_cells {
                if self.decayed(self.heat[(x, y)], self.stamp[(x, y)]) >= threshold {
                    n += 1;
                }
            }
        }
        n
    }

    /// Canonical fingerprint of the full map state.
    ///
    /// Hashes dimensions, counters and every cell's `(heat bits,
    /// stamp)` pair in row-major order, so two maps fingerprint equal
    /// iff their observable state is bit-identical.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new();
        fp.tag(b'R');
        fp.usize(self.config.width_cells);
        fp.usize(self.config.height_cells);
        fp.i64(self.config.cell_px);
        fp.u64(self.tick);
        fp.u64(self.ingested);
        fp.u64(self.rejected);
        fp.u64(self.sweeps);
        for (h, s) in self.heat.iter().zip(self.stamp.iter()) {
            fp.f64(*h);
            fp.u64(*s);
        }
        fp
    }

    /// A serialisable snapshot, classifying cells as hot at
    /// `hot_threshold` and extracting connected hot blobs with the
    /// stack's component labeller.
    pub fn snapshot(&self, hot_threshold: f64) -> RiskMapSnapshot {
        let w = self.config.width_cells;
        let h = self.config.height_cells;
        let mut total_heat = 0.0;
        let mut max_heat = 0.0f64;
        let decayed = Grid::from_fn(w, h, |x, y| {
            let v = self.decayed(self.heat[(x, y)], self.stamp[(x, y)]);
            total_heat += v;
            if v > max_heat {
                max_heat = v;
            }
            v
        });
        let mask = decayed.map(|&v| v >= hot_threshold);
        let cells_hot = mask.count(|&b| b);
        let cc = label_components(&mask, Connectivity::Four);
        let mut hot_regions: Vec<HotRegion> = cc
            .components
            .iter()
            .map(|comp| {
                let mut peak = 0.0f64;
                for p in cc.pixels(comp.id) {
                    let v = decayed[p];
                    if v > peak {
                        peak = v;
                    }
                }
                HotRegion {
                    bbox: comp.bbox,
                    cells: comp.area,
                    peak_heat: peak,
                }
            })
            .collect();
        hot_regions.sort_by(|a, b| {
            b.peak_heat
                .total_cmp(&a.peak_heat)
                .then((a.bbox.y, a.bbox.x).cmp(&(b.bbox.y, b.bbox.x)))
        });
        RiskMapSnapshot {
            width_cells: w,
            height_cells: h,
            cell_px: self.config.cell_px,
            tick: self.tick,
            ingested: self.ingested,
            rejected: self.rejected,
            sweeps: self.sweeps,
            hot_threshold,
            cells_hot,
            total_heat,
            max_heat,
            hot_regions,
            fingerprint: self.fingerprint().hex(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_cell_obs(stream: u64, frame: usize, score: f64) -> RiskObservation {
        // Exactly covers cell (1, 1) of an 8 px grid: full fractional
        // weight, so the cell's heat equals `score` after ingestion.
        RiskObservation {
            stream,
            frame,
            origin_px: Point::new(0, 0),
            bbox: Rect::new(8, 8, 8, 8),
            score,
        }
    }

    fn test_map() -> RiskMap {
        RiskMap::new(RiskMapConfig::fast_test()).unwrap()
    }

    #[test]
    fn config_validates() {
        assert!(RiskMapConfig::fast_test().validate().is_ok());
        let mut c = RiskMapConfig::fast_test();
        c.cell_px = 0;
        assert!(c.validate().is_err());
        let mut c = RiskMapConfig::fast_test();
        c.half_life_ticks = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = RiskMapConfig::fast_test();
        c.width_cells = 0;
        assert!(RiskMap::new(c).is_err());
    }

    #[test]
    fn heat_halves_per_half_life() {
        let mut map = test_map();
        assert_eq!(map.ingest_batch(vec![one_cell_obs(0, 0, 1.0)]), 1);
        let cell = Point::new(1, 1);
        assert_eq!(map.heat_at(cell), 1.0);
        // fast_test half-life is 8 ticks; sweep cadence 16 renormalises
        // but must not change the decayed value (beyond min_heat snap).
        for _ in 0..8 {
            map.advance();
        }
        let after_one = map.heat_at(cell);
        assert!((after_one - 0.5).abs() < 1e-12, "got {after_one}");
        for _ in 0..8 {
            map.advance();
        }
        let after_two = map.heat_at(cell);
        assert!((after_two - 0.25).abs() < 1e-9, "got {after_two}");
    }

    #[test]
    fn heated_cell_falls_below_veto_threshold_after_half_lives() {
        // The ISSUE's contract: a cell heated once decays below the
        // policy veto threshold after the configured number of
        // half-lives — persistence requires *repeated* observations.
        let veto = el_core::RiskConfig::fast_test().veto_heat;
        let mut map = test_map();
        map.ingest_batch(vec![one_cell_obs(3, 0, 1.0)]);
        let cell = Point::new(1, 1);
        assert!(map.heat_at(cell) >= veto, "fresh heat must exceed veto");
        // 1.0 · 2^(-k/8) < 0.5 ⇔ k > 8: two half-lives is comfortably under.
        for _ in 0..16 {
            map.advance();
        }
        assert!(
            map.heat_at(cell) < veto,
            "decayed heat {} must drop below veto {}",
            map.heat_at(cell),
            veto
        );
    }

    #[test]
    fn non_finite_and_negative_scores_are_rejected() {
        let mut map = test_map();
        let fp_cold = map.fingerprint();
        let accepted = map.ingest_batch(vec![
            one_cell_obs(0, 0, f64::NAN),
            one_cell_obs(0, 1, f64::INFINITY),
            one_cell_obs(0, 2, f64::NEG_INFINITY),
            one_cell_obs(0, 3, -1.0),
        ]);
        assert_eq!(accepted, 0);
        assert_eq!(map.rejected(), 4);
        assert_eq!(map.ingested(), 0);
        assert_eq!(map.heat_at(Point::new(1, 1)), 0.0);
        // Rejections are counted, so the fingerprint must move — a
        // replay that saw different garbage is a different history …
        assert_ne!(map.fingerprint().value(), fp_cold.value());
        // … but the *heat field* stays untouched: nothing was folded.
        assert_eq!(map.hot_cells(f64::MIN_POSITIVE), 0);
    }

    #[test]
    fn ingestion_is_order_canonical() {
        let batch = vec![
            one_cell_obs(2, 0, 0.7),
            one_cell_obs(0, 1, 0.2),
            RiskObservation {
                stream: 1,
                frame: 0,
                origin_px: Point::new(4, 4),
                bbox: Rect::new(0, 0, 12, 12),
                score: 0.9,
            },
            one_cell_obs(0, 0, 0.4),
        ];
        let mut reference = test_map();
        reference.ingest_batch(batch.clone());
        // Every rotation and the reversal must fold to identical bits.
        for shift in 0..batch.len() {
            let mut rotated = batch.clone();
            rotated.rotate_left(shift);
            let mut map = test_map();
            map.ingest_batch(rotated);
            assert_eq!(
                map.fingerprint().value(),
                reference.fingerprint().value(),
                "rotation by {shift} changed the map fingerprint"
            );
        }
        let mut reversed = batch.clone();
        reversed.reverse();
        let mut map = test_map();
        map.ingest_batch(reversed);
        assert_eq!(map.fingerprint().value(), reference.fingerprint().value());
    }

    #[test]
    fn sweep_zeroes_negligible_heat() {
        let mut config = RiskMapConfig::fast_test();
        config.half_life_ticks = 1.0;
        config.sweep_interval_ticks = 4;
        config.min_heat = 1e-3;
        let mut map = RiskMap::new(config).unwrap();
        map.ingest_batch(vec![one_cell_obs(0, 0, 1.0)]);
        // After 12 ticks with a 1-tick half-life, heat is 2^-12 ≈ 2.4e-4
        // < min_heat; the sweep at tick 12 snaps it to exactly zero.
        for _ in 0..12 {
            map.advance();
        }
        assert_eq!(map.sweeps(), 3);
        assert_eq!(map.heat_at(Point::new(1, 1)), 0.0);
        assert_eq!(map.hot_cells(f64::MIN_POSITIVE), 0);
    }

    #[test]
    fn max_heat_px_reports_worst_touched_cell() {
        let mut map = test_map();
        map.ingest_batch(vec![one_cell_obs(0, 0, 0.8)]);
        // A footprint overlapping cells (0..2, 0..2) touches the hot
        // cell (1, 1) and must report its full heat, not a dilution.
        assert_eq!(map.max_heat_px(Rect::new(4, 4, 8, 8)), 0.8);
        // A footprint elsewhere sees a cold map.
        assert_eq!(map.max_heat_px(Rect::new(64, 64, 16, 16)), 0.0);
        // Off-map footprints are cold by definition.
        assert_eq!(map.max_heat_px(Rect::new(-100, -100, 10, 10)), 0.0);
        assert_eq!(map.max_heat_px(Rect::new(0, 0, 0, 0)), 0.0);
    }

    #[test]
    fn partial_overlap_weights_by_exact_area_fraction() {
        let mut map = test_map();
        // 4×8 px region covering the left half of cell (1, 1).
        map.ingest_batch(vec![RiskObservation {
            stream: 0,
            frame: 0,
            origin_px: Point::new(0, 0),
            bbox: Rect::new(8, 8, 4, 8),
            score: 1.0,
        }]);
        assert_eq!(map.heat_at(Point::new(1, 1)), 0.5);
    }

    #[test]
    fn snapshot_extracts_hot_blobs_and_round_trips() {
        let mut map = test_map();
        map.ingest_batch(vec![
            one_cell_obs(0, 0, 1.0),
            // Adjacent cell (2, 1): forms one 4-connected blob with (1, 1).
            RiskObservation {
                stream: 0,
                frame: 1,
                origin_px: Point::new(0, 0),
                bbox: Rect::new(16, 8, 8, 8),
                score: 0.6,
            },
            // Far cell (20, 20): a second, cooler blob.
            RiskObservation {
                stream: 1,
                frame: 0,
                origin_px: Point::new(0, 0),
                bbox: Rect::new(160, 160, 8, 8),
                score: 0.3,
            },
        ]);
        let snap = map.snapshot(0.25);
        assert_eq!(snap.cells_hot, 3);
        assert_eq!(snap.hot_regions.len(), 2);
        assert_eq!(snap.hot_regions[0].cells, 2, "hottest blob first");
        assert_eq!(snap.hot_regions[0].peak_heat, 1.0);
        assert_eq!(snap.hot_regions[1].cells, 1);
        assert_eq!(snap.fingerprint, map.fingerprint().hex());
        let json = serde_json::to_string(&snap).unwrap();
        let back: RiskMapSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn from_region_georeferences_the_bbox() {
        let region = AuditRegion {
            bbox: Rect::new(2, 3, 4, 5),
            area: 20,
            mean_sigma: 1.25,
        };
        let obs = RiskObservation::from_region(7, 9, Point::new(100, 200), &region);
        assert_eq!(obs.world_rect(), Rect::new(102, 203, 4, 5));
        assert_eq!(obs.score, 1.25);
        assert_eq!((obs.stream, obs.frame), (7, 9));
    }
}
