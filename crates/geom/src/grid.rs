//! A generic dense 2-D raster.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::error::GeomError;
use crate::point::Point;
use crate::rect::Rect;

/// A dense, row-major 2-D raster of `T` values.
///
/// `Grid` is the universal container of the stack: semantic label maps,
/// rendered feature images (as `Grid<[f32; C]>` or per-channel `Grid<f32>`),
/// score maps, masks and distance fields are all grids.
///
/// Indexing is `(x, y)` — column first, matching [`Point`].
///
/// # Example
///
/// ```
/// use el_geom::Grid;
/// let mut g = Grid::new(4, 3, 0u8);
/// g[(2, 1)] = 7;
/// assert_eq!(g[(2, 1)], 7);
/// assert_eq!(g.width(), 4);
/// assert_eq!(g.height(), 3);
/// assert_eq!(g.iter().copied().sum::<u8>(), 7);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Grid<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for Grid<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Grid")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("len", &self.data.len())
            .finish()
    }
}

impl<T: Clone> Grid<T> {
    /// Creates a grid filled with copies of `fill`.
    pub fn new(width: usize, height: usize, fill: T) -> Self {
        Grid {
            width,
            height,
            data: vec![fill; width * height],
        }
    }

    /// Fills the entire grid with copies of `value`.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Extracts a copy of the sub-grid covered by `rect`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::OutOfBounds`] if `rect` is not entirely inside
    /// the grid.
    pub fn crop(&self, rect: Rect) -> Result<Grid<T>, GeomError> {
        if !self.bounds().contains_rect(rect) {
            return Err(GeomError::OutOfBounds {
                rect,
                width: self.width,
                height: self.height,
            });
        }
        let mut out = Vec::with_capacity((rect.w * rect.h) as usize);
        for y in rect.y..rect.bottom() {
            let row = self.row(y as usize);
            out.extend_from_slice(&row[rect.x as usize..rect.right() as usize]);
        }
        Ok(Grid {
            width: rect.w as usize,
            height: rect.h as usize,
            data: out,
        })
    }

    /// Writes `src` into `self` with its top-left corner at `at`.
    ///
    /// Pixels of `src` falling outside `self` are silently clipped.
    pub fn blit(&mut self, src: &Grid<T>, at: Point) {
        let dst_bounds = self.bounds();
        let src_rect = Rect::new(at.x, at.y, src.width as i64, src.height as i64);
        let clip = dst_bounds.intersect(src_rect);
        if clip.w <= 0 || clip.h <= 0 {
            return;
        }
        // Per-row slice copies: the clip rectangle is resolved once, so no
        // per-pixel bounds math or index checks remain.
        let sx0 = (clip.x - at.x) as usize;
        let sx1 = (clip.right() - at.x) as usize;
        let dx0 = clip.x as usize;
        let dx1 = clip.right() as usize;
        for y in clip.y..clip.bottom() {
            let sy = (y - at.y) as usize;
            let src_row = &src.row(sy)[sx0..sx1];
            self.row_mut(y as usize)[dx0..dx1].clone_from_slice(src_row);
        }
    }
}

impl<T> Grid<T> {
    /// Creates a grid by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Grid {
            width,
            height,
            data,
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::SizeMismatch`] if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self, GeomError> {
        if data.len() != width * height {
            return Err(GeomError::SizeMismatch {
                expected: width * height,
                actual: data.len(),
            });
        }
        Ok(Grid {
            width,
            height,
            data,
        })
    }

    /// Grid width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the grid has no pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The bounding rectangle `(0, 0, width, height)`.
    #[inline]
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width as i64, self.height as i64)
    }

    /// `true` if `(x, y)` is a valid pixel coordinate.
    #[inline]
    pub fn in_bounds(&self, x: i64, y: i64) -> bool {
        x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height
    }

    /// Returns a reference to the pixel at `p`, or `None` when out of
    /// bounds.
    #[inline]
    pub fn get(&self, p: Point) -> Option<&T> {
        if self.in_bounds(p.x, p.y) {
            Some(&self.data[p.y as usize * self.width + p.x as usize])
        } else {
            None
        }
    }

    /// Returns a mutable reference to the pixel at `p`, or `None` when out
    /// of bounds.
    #[inline]
    pub fn get_mut(&mut self, p: Point) -> Option<&mut T> {
        if self.in_bounds(p.x, p.y) {
            Some(&mut self.data[p.y as usize * self.width + p.x as usize])
        } else {
            None
        }
    }

    /// Sets the pixel at `p` if it is in bounds; out-of-bounds writes are
    /// ignored (useful for clipped rasterisation).
    #[inline]
    pub fn set_clipped(&mut self, p: Point, value: T) {
        if let Some(v) = self.get_mut(p) {
            *v = value;
        }
    }

    /// Immutable view of row `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        assert!(
            y < self.height,
            "row {y} out of bounds (height {})",
            self.height
        );
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mutable view of row `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        assert!(
            y < self.height,
            "row {y} out of bounds (height {})",
            self.height
        );
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The raw row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the grid and returns its buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterates over pixel values in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Iterates over pixel values mutably in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Iterates over `(Point, &T)` pairs in row-major order.
    pub fn enumerate(&self) -> impl Iterator<Item = (Point, &T)> {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| (Point::new((i % w) as i64, (i / w) as i64), v))
    }

    /// Applies `f` to every pixel, producing a new grid of the same shape.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Grid<U> {
        Grid {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Combines two same-shaped grids pixel-wise.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::ShapeMismatch`] if the grids differ in size.
    pub fn zip_map<U, V>(
        &self,
        other: &Grid<U>,
        mut f: impl FnMut(&T, &U) -> V,
    ) -> Result<Grid<V>, GeomError> {
        if self.width != other.width || self.height != other.height {
            return Err(GeomError::ShapeMismatch {
                a: (self.width, self.height),
                b: (other.width, other.height),
            });
        }
        Ok(Grid {
            width: self.width,
            height: self.height,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| f(a, b))
                .collect(),
        })
    }

    /// Counts pixels satisfying `pred`.
    pub fn count(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        self.data.iter().filter(|v| pred(v)).count()
    }
}

impl Grid<bool> {
    /// Fraction of `true` pixels, in `[0, 1]`. Returns 0 for empty grids.
    pub fn fraction_set(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.count(|&b| b) as f64 / self.len() as f64
        }
    }
}

impl<T> Index<(usize, usize)> for Grid<T> {
    type Output = T;
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    fn index(&self, (x, y): (usize, usize)) -> &T {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds ({}x{})",
            self.width,
            self.height
        );
        &self.data[y * self.width + x]
    }
}

impl<T> IndexMut<(usize, usize)> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds ({}x{})",
            self.width,
            self.height
        );
        &mut self.data[y * self.width + x]
    }
}

impl<T> Index<Point> for Grid<T> {
    type Output = T;
    /// # Panics
    ///
    /// Panics if `p` is out of bounds.
    #[inline]
    fn index(&self, p: Point) -> &T {
        self.get(p)
            .unwrap_or_else(|| panic!("pixel {p} out of bounds ({}x{})", self.width, self.height))
    }
}

impl<T> IndexMut<Point> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, p: Point) -> &mut T {
        let (w, h) = (self.width, self.height);
        self.get_mut(p)
            .unwrap_or_else(|| panic!("pixel {p} out of bounds ({w}x{h})"))
    }
}

impl<'a, T> IntoIterator for &'a Grid<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut g = Grid::new(3, 2, 0i32);
        assert_eq!(g.len(), 6);
        assert_eq!(g.bounds(), Rect::new(0, 0, 3, 2));
        g[(0, 1)] = 5;
        g[Point::new(2, 0)] = 9;
        assert_eq!(g[(0, 1)], 5);
        assert_eq!(g[Point::new(2, 0)], 9);
        assert_eq!(g.get(Point::new(3, 0)), None);
        assert_eq!(g.get(Point::new(-1, 0)), None);
    }

    #[test]
    fn from_fn_row_major() {
        let g = Grid::from_fn(3, 2, |x, y| (x, y));
        assert_eq!(g.as_slice()[0], (0, 0));
        assert_eq!(g.as_slice()[1], (1, 0));
        assert_eq!(g.as_slice()[3], (0, 1));
    }

    #[test]
    fn from_vec_validates_size() {
        assert!(Grid::from_vec(2, 2, vec![1, 2, 3]).is_err());
        let g = Grid::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(g[(1, 1)], 4);
    }

    #[test]
    fn crop_in_and_out_of_bounds() {
        let g = Grid::from_fn(4, 4, |x, y| y * 4 + x);
        let c = g.crop(Rect::new(1, 1, 2, 2)).unwrap();
        assert_eq!(c.width(), 2);
        assert_eq!(c[(0, 0)], 5);
        assert_eq!(c[(1, 1)], 10);
        assert!(g.crop(Rect::new(3, 3, 2, 2)).is_err());
        assert!(g.crop(Rect::new(-1, 0, 2, 2)).is_err());
    }

    #[test]
    fn blit_clips() {
        let mut g = Grid::new(4, 4, 0);
        let src = Grid::new(3, 3, 7);
        g.blit(&src, Point::new(2, 2));
        assert_eq!(g[(2, 2)], 7);
        assert_eq!(g[(3, 3)], 7);
        assert_eq!(g[(1, 1)], 0);
        assert_eq!(g.count(|&v| v == 7), 4);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Grid::from_fn(2, 2, |x, y| (x + y) as i32);
        let b = a.map(|v| v * 2);
        assert_eq!(b[(1, 1)], 4);
        let s = a.zip_map(&b, |x, y| x + y).unwrap();
        assert_eq!(s[(1, 1)], 6);
        let c = Grid::new(3, 2, 0);
        assert!(a.zip_map(&c, |x, y| x + y).is_err());
    }

    #[test]
    fn enumerate_points() {
        let g = Grid::from_fn(2, 2, |x, y| x + 10 * y);
        let v: Vec<_> = g.enumerate().collect();
        assert_eq!(v[0], (Point::new(0, 0), &0));
        assert_eq!(v[3], (Point::new(1, 1), &11));
    }

    #[test]
    fn bool_fraction() {
        let g = Grid::from_fn(2, 2, |x, _| x == 0);
        assert_eq!(g.fraction_set(), 0.5);
        let e: Grid<bool> = Grid::new(0, 0, false);
        assert_eq!(e.fraction_set(), 0.0);
    }

    #[test]
    fn set_clipped_ignores_out_of_bounds() {
        let mut g = Grid::new(2, 2, 0);
        g.set_clipped(Point::new(-1, 0), 9);
        g.set_clipped(Point::new(1, 1), 9);
        assert_eq!(g[(1, 1)], 9);
        assert_eq!(g.count(|&v| v == 9), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_panics_out_of_bounds() {
        let g = Grid::new(2, 2, 0);
        let _ = g[(2, 0)];
    }

    #[test]
    fn rows() {
        let g = Grid::from_fn(3, 2, |x, y| x + 10 * y);
        assert_eq!(g.row(1), &[10, 11, 12]);
        let mut g = g;
        g.row_mut(0)[2] = 99;
        assert_eq!(g[(2, 0)], 99);
    }
}
