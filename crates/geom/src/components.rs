//! Connected-component labelling.
//!
//! Candidate landing zones are extracted as connected components of the
//! "safe" mask (pixels far enough from busy roads); the audit and the risk
//! map label their warning and hot-cell masks the same way. This module
//! provides a run-based union-find labelling over flat `u32` provisional
//! labels. Each component is returned as its statistics, accumulated as
//! exact integers, and its pixels as horizontal runs — no per-pixel label
//! raster is built.

use serde::{Deserialize, Serialize};

use crate::grid::Grid;
use crate::point::Point;
use crate::rect::Rect;

/// Pixel connectivity for component labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Connectivity {
    /// 4-connectivity (edge-adjacent pixels).
    #[default]
    Four,
    /// 8-connectivity (edge- or corner-adjacent pixels).
    Eight,
}

/// Statistics of one connected component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Component {
    /// Component id: the index of this component in
    /// [`ComponentLabels::components`] and the key of its pixels in
    /// [`ComponentLabels::runs`].
    pub id: u32,
    /// Number of pixels.
    pub area: usize,
    /// Tight bounding box.
    pub bbox: Rect,
    /// Centroid (mean pixel position).
    pub centroid: (f64, f64),
}

impl Component {
    /// Centroid rounded to the nearest pixel.
    pub fn centroid_pixel(&self) -> Point {
        Point::new(
            self.centroid.0.round() as i64,
            self.centroid.1.round() as i64,
        )
    }

    /// Fill ratio: `area / bbox.area()`, in `(0, 1]`.
    ///
    /// Compact blob-like components have a high fill ratio; snaky ones are
    /// low. Used by zone selection to prefer compact landing areas.
    pub fn fill_ratio(&self) -> f64 {
        if self.bbox.area() == 0 {
            0.0
        } else {
            self.area as f64 / self.bbox.area() as f64
        }
    }
}

/// A maximal horizontal run of foreground pixels: `x0..x1` on row `y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    /// Row.
    pub y: usize,
    /// First column of the run.
    pub x0: usize,
    /// One past the last column of the run.
    pub x1: usize,
}

/// The result of component labelling: per-component statistics plus each
/// component's pixels as horizontal runs.
#[derive(Debug, Clone)]
pub struct ComponentLabels {
    /// Component statistics, indexed by id.
    pub components: Vec<Component>,
    /// Every foreground run, grouped by component id and in raster order
    /// within a component.
    runs: Vec<Run>,
    /// Component `id` owns `runs[offsets[id]..offsets[id + 1]]`.
    offsets: Vec<usize>,
}

impl ComponentLabels {
    /// The largest component by area, or `None` if there is none.
    pub fn largest(&self) -> Option<&Component> {
        self.components.iter().max_by_key(|c| c.area)
    }

    /// Components sorted by decreasing area.
    pub fn by_area_desc(&self) -> Vec<&Component> {
        let mut v: Vec<&Component> = self.components.iter().collect();
        v.sort_by(|a, b| b.area.cmp(&a.area).then(a.id.cmp(&b.id)));
        v
    }

    /// The runs of component `id`, in raster order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a component id.
    pub fn runs(&self, id: u32) -> &[Run] {
        let id = id as usize;
        &self.runs[self.offsets[id]..self.offsets[id + 1]]
    }

    /// The pixels of component `id`, in raster order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a component id.
    pub fn pixels(&self, id: u32) -> impl Iterator<Item = Point> + '_ {
        self.runs(id)
            .iter()
            .flat_map(|r| (r.x0..r.x1).map(move |x| Point::new(x as i64, r.y as i64)))
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }

    fn make(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            let (hi, lo) = if ra < rb { (rb, ra) } else { (ra, rb) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Labels connected components of the `true` pixels of `mask`.
///
/// Returns compactly renumbered component ids (0, 1, 2, …) in first-pixel
/// raster order, along with per-component statistics and runs.
///
/// One raster pass splits every row into maximal runs of foreground
/// pixels. A run's provisional label is its index (a flat `u32`), and a
/// union-find forest joins it to every run of the row above that it
/// touches; roots are the smallest label of their set. Runs are found in
/// raster order and a component's first pixel starts its first run, so
/// numbering the roots in label order *is* first-pixel raster order.
/// Area, bounding box and centroid sums accumulate per run as exact
/// integers; the centroid is one division per axis at the end.
///
/// # Example
///
/// ```
/// use el_geom::{Grid, label_components};
/// use el_geom::components::Connectivity;
/// let mut mask = Grid::new(5, 1, false);
/// mask[(0, 0)] = true;
/// mask[(1, 0)] = true;
/// mask[(4, 0)] = true;
/// let cc = label_components(&mask, Connectivity::Four);
/// assert_eq!(cc.components.len(), 2);
/// assert_eq!(cc.largest().unwrap().area, 2);
/// assert_eq!(cc.pixels(1).collect::<Vec<_>>(), [el_geom::Point::new(4, 0)]);
/// ```
pub fn label_components(mask: &Grid<bool>, connectivity: Connectivity) -> ComponentLabels {
    let (w, h) = (mask.width(), mask.height());
    // How far past a run's ends a run of the row above may start or end
    // and still touch it: diagonal neighbours count under 8-connectivity.
    let reach = usize::from(connectivity == Connectivity::Eight);
    let mut runs: Vec<Run> = Vec::new();
    let mut uf = UnionFind::new();
    let mut above = 0..0; // the previous row's runs
    for y in 0..h {
        let row = &mask.as_slice()[y * w..(y + 1) * w];
        let first = runs.len();
        let mut p = above.start; // first run above that may touch
        let mut x = 0;
        while let Some(offset) = row[x..].iter().position(|&b| b) {
            let x0 = x + offset;
            let x1 = row[x0..].iter().position(|&b| !b).map_or(w, |len| x0 + len);
            let label = uf.make();
            while p < above.end && runs[p].x1 + reach <= x0 {
                p += 1;
            }
            // Runs above that touch this one; the last may also touch the
            // next run of this row, so `p` stays on it.
            let mut q = p;
            while q < above.end && runs[q].x0 < x1 + reach {
                uf.union(label, q as u32);
                q += 1;
            }
            runs.push(Run { y, x0, x1 });
            x = x1;
        }
        above = first..runs.len();
    }

    // Final ids, in label order (= first-pixel raster order): a root
    // takes the next id, any other label its parent's. Parents are smaller
    // labels, so theirs is already resolved, and the forest can hold the
    // ids in place.
    let mut ids = uf.parent;
    let mut components: Vec<Component> = Vec::new();
    let mut sums: Vec<(u64, u64)> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    for (label, run) in runs.iter().enumerate() {
        let up = ids[label] as usize;
        let id = if up == label {
            let id = components.len() as u32;
            components.push(Component {
                id,
                area: 0,
                bbox: Rect::new(run.x0 as i64, run.y as i64, 0, 0),
                centroid: (0.0, 0.0),
            });
            sums.push((0, 0));
            counts.push(0);
            id
        } else {
            ids[up]
        };
        ids[label] = id;
        let len = run.x1 - run.x0;
        let c = &mut components[id as usize];
        c.area += len;
        c.bbox = c
            .bbox
            .union(Rect::new(run.x0 as i64, run.y as i64, len as i64, 1));
        let sum = &mut sums[id as usize];
        // x0 + … + (x1 − 1), exactly: one of len and x0 + x1 − 1 is even.
        sum.0 += (len * (run.x0 + run.x1 - 1) / 2) as u64;
        sum.1 += (len * run.y) as u64;
        counts[id as usize] += 1;
    }
    for (c, (sx, sy)) in components.iter_mut().zip(sums) {
        c.centroid = (sx as f64 / c.area as f64, sy as f64 / c.area as f64);
    }
    // Group the runs by id (a stable counting sort keeps raster order).
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    offsets.push(0);
    for n in counts {
        offsets.push(offsets[offsets.len() - 1] + n);
    }
    let mut next = offsets.clone();
    let mut grouped = vec![Run { y: 0, x0: 0, x1: 0 }; runs.len()];
    for (run, &id) in runs.iter().zip(&ids) {
        grouped[next[id as usize]] = *run;
        next[id as usize] += 1;
    }
    ComponentLabels {
        components,
        runs: grouped,
        offsets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_from_str(rows: &[&str]) -> Grid<bool> {
        let h = rows.len();
        let w = rows[0].len();
        Grid::from_fn(w, h, |x, y| rows[y].as_bytes()[x] == b'#')
    }

    #[test]
    fn empty_mask() {
        let cc = label_components(&Grid::new(4, 4, false), Connectivity::Four);
        assert!(cc.components.is_empty());
        assert!(cc.largest().is_none());
    }

    #[test]
    fn single_blob() {
        let mask = mask_from_str(&["..##", "..##", "...."]);
        let cc = label_components(&mask, Connectivity::Four);
        assert_eq!(cc.components.len(), 1);
        let c = &cc.components[0];
        assert_eq!(c.area, 4);
        assert_eq!(c.bbox, Rect::new(2, 0, 2, 2));
        assert_eq!(c.centroid, (2.5, 0.5));
        assert_eq!(c.fill_ratio(), 1.0);
    }

    #[test]
    fn diagonal_connectivity() {
        let mask = mask_from_str(&["#.", ".#"]);
        let four = label_components(&mask, Connectivity::Four);
        assert_eq!(four.components.len(), 2);
        let eight = label_components(&mask, Connectivity::Eight);
        assert_eq!(eight.components.len(), 1);
        assert_eq!(eight.components[0].area, 2);
    }

    #[test]
    fn u_shape_merges() {
        // The two arms of the U are discovered separately and must be
        // merged by union-find when the bottom row connects them.
        let mask = mask_from_str(&["#.#", "#.#", "###"]);
        let cc = label_components(&mask, Connectivity::Four);
        assert_eq!(cc.components.len(), 1);
        assert_eq!(cc.components[0].area, 7);
    }

    #[test]
    fn multiple_components_ordering() {
        let mask = mask_from_str(&["#..#", "....", "##.."]);
        let cc = label_components(&mask, Connectivity::Four);
        assert_eq!(cc.components.len(), 3);
        // Raster order of first appearance.
        assert_eq!(cc.components[0].bbox.top_left(), Point::new(0, 0));
        assert_eq!(cc.components[1].bbox.top_left(), Point::new(3, 0));
        assert_eq!(cc.components[2].bbox.top_left(), Point::new(0, 2));
        let by_area = cc.by_area_desc();
        assert_eq!(by_area[0].area, 2);
        assert_eq!(cc.largest().unwrap().id, by_area[0].id);
    }

    #[test]
    fn pixels_consistent_with_components() {
        let mask = mask_from_str(&["##..", "..##", "##.#"]);
        let cc = label_components(&mask, Connectivity::Eight);
        let mut owner: Grid<Option<u32>> = Grid::new(mask.width(), mask.height(), None);
        for c in &cc.components {
            let pixels: Vec<Point> = cc.pixels(c.id).collect();
            assert_eq!(pixels.len(), c.area);
            // Raster order within a component.
            assert!(pixels
                .windows(2)
                .all(|p| (p[0].y, p[0].x) < (p[1].y, p[1].x)));
            for p in pixels {
                assert!(mask[p] && c.bbox.contains(p));
                assert_eq!(owner[p].replace(c.id), None, "{p} in two components");
            }
        }
        for (p, &b) in mask.enumerate() {
            assert_eq!(b, owner[p].is_some(), "at {p}");
        }
    }

    #[test]
    fn runs_are_maximal_and_grouped() {
        let mask = mask_from_str(&["##.##", "#####", "....#"]);
        let cc = label_components(&mask, Connectivity::Four);
        assert_eq!(cc.components.len(), 1);
        assert_eq!(
            cc.runs(0),
            [
                Run { y: 0, x0: 0, x1: 2 },
                Run { y: 0, x0: 3, x1: 5 },
                Run { y: 1, x0: 0, x1: 5 },
                Run { y: 2, x0: 4, x1: 5 },
            ]
        );
        assert_eq!(cc.components[0].centroid, (22.0 / 10.0, 7.0 / 10.0));
    }

    #[test]
    fn centroid_pixel_rounding() {
        let c = Component {
            id: 0,
            area: 2,
            bbox: Rect::new(0, 0, 2, 1),
            centroid: (0.5, 0.0),
        };
        assert_eq!(c.centroid_pixel(), Point::new(1, 0));
    }
}
