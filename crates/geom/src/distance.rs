//! Exact integer Euclidean distance transforms.
//!
//! The landing-zone selector's central primitive is "how far is this pixel
//! from the nearest busy-road pixel?". This module answers it with one
//! exact *squared* distance transform over integers, after Meijster,
//! Roerdink & Hesselink (*A general algorithm for computing distance
//! transforms in linear time*, 2000):
//!
//! 1. **Columns.** Two row-major min-plus sweeps give every pixel its
//!    vertical distance `g` to the nearest seed in its column: top-down
//!    (nearest seed at or above, written into the output grid), then
//!    bottom-up (fold in the nearest seed below). Both walk whole rows, so
//!    they stream through memory with unit stride.
//! 2. **Rows.** As soon as the bottom-up sweep finishes a row, the lower
//!    envelope of the parabolas `x ↦ (x − i)² + g(i)²` over its seeded
//!    columns `i`, built with Meijster's integer separator, overwrites the
//!    row with `d²`. Columns whose `g` is a local maximum own no pixel but
//!    their own, so they stay out of the envelope and come back through a
//!    final `min(d², g(x)²)`.
//!
//! Every value is an exact integer: [`squared_distance_transform`] returns
//! `d²` as a `u64`, with [`NO_SEED`] standing for +∞ on a mask without any
//! seed. The floating-point views ([`distance_transform`],
//! [`distance_from`]) are [`distance_of`] — one correctly rounded `sqrt`
//! of that integer — so they are exact wherever `d² < 2⁵³` and the ordering
//! of `sqrt` values agrees with the ordering of the integers. A caller that
//! only compares distances (the zone search) should read the integers.
//!
//! Grids up to [`MAX_SIDE`] pixels on a side are supported: every
//! intermediate (`g ≤ h − 1`, `d² < 2⁶³`, the separator's numerator) then
//! fits its integer type, so nothing can wrap.

use crate::grid::Grid;
use crate::label::LabelMap;
use crate::label::SemanticClass;

/// The squared distance of every pixel of a mask without any seed: +∞.
pub const NO_SEED: u64 = u64::MAX;

/// The largest grid side (in pixels) the transform accepts, `2³¹`.
///
/// At this side the largest squared distance, `2·(2³¹ − 1)²`, and every
/// intermediate of the row pass stay below `2⁶³`.
pub const MAX_SIDE: usize = 1 << 31;

/// The distance (pixels) for one squared distance: `sqrt(d²)`, or `+∞`
/// for [`NO_SEED`].
#[inline]
pub fn distance_of(d2: u64) -> f64 {
    if d2 == NO_SEED {
        f64::INFINITY
    } else {
        (d2 as f64).sqrt()
    }
}

/// Meijster's row pass: `out[x] = min_i (x − i)² + gsq[i]` over all
/// columns `i`, where `gsq[i] = padded[i + 1]` is column `i`'s squared
/// vertical distance ([`NO_SEED`] in a column without seed, and in the
/// one pad entry at each end). `cols` and `s`/`t` are scratch of at least
/// `out.len()` entries.
///
/// A column whose `g` is a local maximum (`g(i) ≥ g(i ± 1)`, plateaus
/// included; a missing neighbour counts as +∞) is strictly beaten at every
/// `x ≠ i` by its neighbour on `x`'s side. If that neighbour is skipped
/// too, the same holds for it, so every `x` is served by a kept column or
/// by its own. The envelope therefore skips such columns, and a final
/// `min(out[x], gsq[x])` — the candidate `i = x` — restores them where
/// they win. Interior seeds of a road and rows along a road edge (flat
/// `g`) thus cost one `min` each instead of a parabola.
fn row_envelope(padded: &[u64], out: &mut [u64], cols: &mut [u32], s: &mut [u32], t: &mut [u32]) {
    let m = out.len();
    // Candidate columns, compacted branch-free: always write, advance
    // only when the column is not a local maximum of `g`.
    let mut n = 0;
    for (x, win) in padded.windows(3).enumerate() {
        cols[n] = x as u32;
        n += usize::from(win[1] < win[0].max(win[2]));
    }
    let cols = &cols[..n];
    let gsq = &padded[1..=m];
    let f = |x: u32, i: u32| {
        let dx = u64::from(x.abs_diff(i));
        dx * dx + gsq[i as usize]
    };
    if let Some((&c0, rest)) = cols.split_first() {
        s[0] = c0;
        t[0] = 0;
        let mut k = 1; // envelope length
        for &u in rest {
            // Drop parabolas that `u` beats strictly at the start of their
            // interval: they own no pixel any more.
            while k > 0 && f(t[k - 1], s[k - 1]) > f(t[k - 1], u) {
                k -= 1;
            }
            if k == 0 {
                s[0] = u;
                t[0] = 0;
                k = 1;
                continue;
            }
            // Separator: the last x at which s[k-1] is still no worse than
            // u, floor((u² − p² + g(u)² − g(p)²) / 2(u − p)). The loop
            // above left f(t, p) ≤ f(t, u) at t = t[k-1] ≥ 0, which is
            // 2t(u − p) ≤ numerator, so the numerator is non-negative and
            // the unsigned division is the floor.
            let p = s[k - 1];
            let (uu, pp) = (u64::from(u), u64::from(p));
            let num = (uu * uu + gsq[u as usize]) - (pp * pp + gsq[p as usize]);
            let first = num / (2 * (uu - pp)) + 1;
            if first < m as u64 {
                s[k] = u;
                t[k] = first as u32;
                k += 1;
            }
        }
        // Parabola q owns [t[q], t[q+1]); fill right to left.
        let mut end = m;
        for q in (0..k).rev() {
            let (start, i) = (t[q] as usize, s[q]);
            for (x, o) in (start as u32..).zip(&mut out[start..end]) {
                *o = f(x, i).min(gsq[x as usize]);
            }
            end = start;
        }
    } else {
        out.copy_from_slice(gsq);
    }
}

/// Exact squared Euclidean distance transform of a boolean mask.
///
/// For every pixel, the squared Euclidean distance (in pixels, between
/// pixel centres) to the nearest `true` pixel of `mask`, as an exact
/// integer. Pixels of the mask itself get 0. If the mask has no `true`
/// pixel, every output is [`NO_SEED`].
///
/// # Panics
///
/// Panics if a side of `mask` exceeds [`MAX_SIDE`].
///
/// # Example
///
/// ```
/// use el_geom::Grid;
/// use el_geom::distance::squared_distance_transform;
/// let mut mask = Grid::new(9, 9, false);
/// mask[(4, 4)] = true;
/// let d2 = squared_distance_transform(&mask);
/// assert_eq!(d2[(0, 0)], 32);
/// assert_eq!(d2[(4, 1)], 9);
/// ```
pub fn squared_distance_transform(mask: &Grid<bool>) -> Grid<u64> {
    transform(mask, |&seed| seed)
}

/// Exact squared distance (pixels²) from each pixel to the nearest pixel
/// whose class satisfies `pred`; [`NO_SEED`] everywhere if none does.
///
/// # Panics
///
/// Panics if a side of `labels` exceeds [`MAX_SIDE`].
pub fn squared_distance_from(
    labels: &LabelMap,
    mut pred: impl FnMut(SemanticClass) -> bool,
) -> Grid<u64> {
    transform(labels, |&c| pred(c))
}

/// The transform itself, seeded where `is_seed` holds.
fn transform<T>(grid: &Grid<T>, mut is_seed: impl FnMut(&T) -> bool) -> Grid<u64> {
    let (w, h) = (grid.width(), grid.height());
    assert!(
        w <= MAX_SIDE && h <= MAX_SIDE,
        "distance transform of a {w}x{h} grid: sides are limited to {MAX_SIDE} pixels"
    );
    let mut out = Grid::new(w, h, 0u64);
    if w == 0 || h == 0 {
        return out;
    }
    // Top-down sweep, in place: vertical distance to the nearest seed at
    // or above, saturating at NO_SEED while a column has none yet. The
    // seed test is a mask (`seed - 1` is 0 on a seed, all ones off it),
    // not a branch: seed edges are as unpredictable as the scene.
    let cells = grid.as_slice();
    let mut seed_mask = |c: &T| u64::from(is_seed(c)).wrapping_sub(1);
    let d = out.as_mut_slice();
    for (v, c) in d[..w].iter_mut().zip(cells) {
        *v = NO_SEED & seed_mask(c);
    }
    for y in 1..h {
        let (done, rest) = d.split_at_mut(y * w);
        let above = &done[(y - 1) * w..];
        for ((v, c), &up) in rest[..w].iter_mut().zip(&cells[y * w..]).zip(above) {
            *v = up.saturating_add(1) & seed_mask(c);
        }
    }
    // Bottom-up, one row at a time: fold in the nearest seed below to
    // finish the row's `g`, then overwrite the row with its row pass.
    // `below` keeps the finished `g` of the row underneath.
    let mut g = vec![0u64; w];
    let mut below = vec![NO_SEED; w];
    // Squared `g` of the row, padded with one NO_SEED at each end.
    let mut gsq = vec![NO_SEED; w + 2];
    let mut cols = vec![0u32; w];
    let mut s = vec![0u32; w];
    let mut t = vec![0u32; w];
    for row in d.chunks_exact_mut(w).rev() {
        for (((g, q), &up), &down) in g.iter_mut().zip(&mut gsq[1..]).zip(row.iter()).zip(&below) {
            *g = up.min(down.saturating_add(1));
            *q = g.checked_mul(*g).unwrap_or(NO_SEED);
        }
        row_envelope(&gsq, row, &mut cols, &mut s, &mut t);
        std::mem::swap(&mut g, &mut below);
    }
    out
}

/// Euclidean distance transform of a boolean mask (in pixels): the
/// [`distance_of`] every [`squared_distance_transform`] value.
///
/// # Panics
///
/// Panics if a side of `mask` exceeds [`MAX_SIDE`].
///
/// # Example
///
/// ```
/// use el_geom::Grid;
/// use el_geom::distance::distance_transform;
/// let mut mask = Grid::new(9, 9, false);
/// mask[(4, 4)] = true;
/// let d = distance_transform(&mask);
/// assert_eq!(d[(4, 4)], 0.0);
/// assert_eq!(d[(4, 0)], 4.0);
/// assert_eq!(d[(0, 0)], 32f64.sqrt());
/// ```
pub fn distance_transform(mask: &Grid<bool>) -> Grid<f64> {
    squared_distance_transform(mask).map(|&d2| distance_of(d2))
}

/// Distance (in pixels) from each pixel to the nearest pixel whose class
/// satisfies `pred`.
///
/// This is the "distance from busy road" map when `pred` is
/// [`SemanticClass::is_busy_road`].
///
/// # Panics
///
/// Panics if a side of `labels` exceeds [`MAX_SIDE`].
pub fn distance_from(labels: &LabelMap, pred: impl FnMut(SemanticClass) -> bool) -> Grid<f64> {
    squared_distance_from(labels, pred).map(|&d2| distance_of(d2))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: minimum squared distance over all seeds.
    fn brute_force(mask: &Grid<bool>) -> Grid<u64> {
        let seeds: Vec<_> = mask
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(p, _)| p)
            .collect();
        Grid::from_fn(mask.width(), mask.height(), |x, y| {
            seeds
                .iter()
                .map(|s| {
                    let dx = s.x.abs_diff(x as i64);
                    let dy = s.y.abs_diff(y as i64);
                    dx * dx + dy * dy
                })
                .min()
                .unwrap_or(NO_SEED)
        })
    }

    #[test]
    fn empty_mask_is_infinite() {
        let mask = Grid::new(5, 5, false);
        assert!(squared_distance_transform(&mask)
            .iter()
            .all(|&v| v == NO_SEED));
        let d = distance_transform(&mask);
        assert!(d.iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn full_mask_is_zero() {
        let mask = Grid::new(5, 5, true);
        let d = distance_transform(&mask);
        assert!(d.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_seed_matches_euclidean() {
        let mut mask = Grid::new(7, 5, false);
        mask[(2, 3)] = true;
        let d2 = squared_distance_transform(&mask);
        for (p, &v) in d2.enumerate() {
            assert_eq!(v, ((p.x - 2).pow(2) + (p.y - 3).pow(2)) as u64, "at {p}");
        }
    }

    #[test]
    fn matches_brute_force_on_patterns() {
        // Deterministic pseudo-random pattern, including columns and rows
        // without any seed.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for trial in 0..12 {
            let w = 1 + trial * 3;
            let h = 1 + (trial * 5) % 11;
            let density = 3 + trial as u32 % 9;
            let mask = Grid::from_fn(w, h, |_, _| next() % density == 0);
            assert_eq!(
                squared_distance_transform(&mask),
                brute_force(&mask),
                "trial {trial} ({w}x{h})"
            );
        }
    }

    #[test]
    fn distance_from_labels() {
        use crate::label::SemanticClass;
        let labels = Grid::from_fn(10, 1, |x, _| {
            if x == 0 {
                SemanticClass::Road
            } else {
                SemanticClass::LowVegetation
            }
        });
        let d = distance_from(&labels, SemanticClass::is_busy_road);
        for x in 0..10usize {
            assert_eq!(d[(x, 0)], x as f64);
        }
    }

    #[test]
    fn degenerate_shapes() {
        let mask: Grid<bool> = Grid::new(0, 0, false);
        assert!(distance_transform(&mask).is_empty());
        let mask: Grid<bool> = Grid::new(0, 4, false);
        assert!(squared_distance_transform(&mask).is_empty());

        let mut mask = Grid::new(1, 6, false);
        mask[(0, 5)] = true;
        let d = distance_transform(&mask);
        assert_eq!(d[(0, 0)], 5.0);
    }

    #[test]
    fn distance_of_is_sqrt_with_infinite_sentinel() {
        assert_eq!(distance_of(0), 0.0);
        assert_eq!(distance_of(2), 2f64.sqrt());
        assert_eq!(distance_of(NO_SEED), f64::INFINITY);
    }
}
