//! Conversions between scene types and network tensors.

use el_geom::transform::Dihedral;
use el_geom::{Grid, LabelMap, Rect, SemanticClass};
use el_nn::layers::PaddedInput;
use el_nn::{Tensor, Workspace};
use el_scene::Image;
use rand::Rng;

/// Converts a rendered RGB image into a 3-channel input tensor.
pub fn image_to_tensor(image: &Image) -> Tensor {
    let mut t = Tensor::zeros(3, image.height(), image.width());
    for c in 0..3 {
        for (dst, px) in t.channel_mut(c).iter_mut().zip(image.as_slice()) {
            *dst = px[c];
        }
    }
    t
}

/// A rendered RGB image zero-padded by `radius`, in a buffer from `ws`:
/// the engine's one input copy, for the core segmentation's frames, the
/// monitor's crops and the audit's once-per-sweep frame.
pub fn pad_image(image: &Image, radius: usize, ws: &mut Workspace) -> PaddedInput {
    let (w, h) = (image.width(), image.height());
    PaddedInput::new(3, h, w, radius, ws, |c, y, row| {
        for (dst, px) in row.iter_mut().zip(image.row(y)) {
            *dst = px[c];
        }
    })
}

/// Converts a label map into a row-major target-index slice.
pub fn labels_to_targets(labels: &LabelMap) -> Vec<usize> {
    let (w, h) = (labels.width(), labels.height());
    let mut out = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            out.push(labels[(x, y)].index());
        }
    }
    out
}

/// Converts a per-pixel class-index prediction back into a label map.
///
/// # Panics
///
/// Panics if any index is not a valid [`SemanticClass`] or if the slice
/// length is not `w * h`.
pub fn targets_to_labels(targets: &[usize], w: usize, h: usize) -> LabelMap {
    assert_eq!(targets.len(), w * h, "target slice does not match {w}x{h}");
    Grid::from_fn(w, h, |x, y| {
        SemanticClass::from_index(targets[y * w + x])
            .unwrap_or_else(|| panic!("invalid class index {}", targets[y * w + x]))
    })
}

/// Extracts the per-pixel argmax over channels of a logit/probability
/// tensor as a label map.
pub fn argmax_labels(scores: &Tensor) -> LabelMap {
    let (c, h, w) = scores.shape();
    assert_eq!(
        c,
        SemanticClass::COUNT,
        "expected {} channels, got {c}",
        SemanticClass::COUNT
    );
    Grid::from_fn(w, h, |x, y| {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for k in 0..c {
            let v = scores[(k, y, x)];
            if v > best_v {
                best_v = v;
                best = k;
            }
        }
        SemanticClass::from_index(best).expect("argmax produced invalid class")
    })
}

/// A training tile: input tensor plus aligned targets.
#[derive(Debug, Clone)]
pub struct Tile {
    /// Input tensor of shape `(3, size, size)`.
    pub input: Tensor,
    /// Row-major target class indices, `size * size` entries.
    pub targets: Vec<usize>,
}

/// Samples a random square tile from an image/label pair.
///
/// # Panics
///
/// Panics if `size` exceeds either image dimension or if image and labels
/// differ in shape.
pub fn sample_tile(image: &Image, labels: &LabelMap, size: usize, rng: &mut impl Rng) -> Tile {
    assert_eq!(
        (image.width(), image.height()),
        (labels.width(), labels.height()),
        "image and labels must share a shape"
    );
    assert!(
        size <= image.width() && size <= image.height(),
        "tile size {size} exceeds image {}x{}",
        image.width(),
        image.height()
    );
    let x0 = rng.gen_range(0..=image.width() - size);
    let y0 = rng.gen_range(0..=image.height() - size);
    let rect = Rect::new(x0 as i64, y0 as i64, size as i64, size as i64);
    let img_crop = image.crop(rect).expect("tile rect in bounds");
    let lab_crop = labels.crop(rect).expect("tile rect in bounds");
    Tile {
        input: image_to_tensor(&img_crop),
        targets: labels_to_targets(&lab_crop),
    }
}

/// Samples a random square tile and applies a random dihedral symmetry
/// (flip/rotation) jointly to the image and labels — standard
/// augmentation that roughly octuples the effective training set.
///
/// # Panics
///
/// Same conditions as [`sample_tile`].
pub fn sample_tile_augmented(
    image: &Image,
    labels: &LabelMap,
    size: usize,
    rng: &mut impl Rng,
) -> Tile {
    assert_eq!(
        (image.width(), image.height()),
        (labels.width(), labels.height()),
        "image and labels must share a shape"
    );
    assert!(
        size <= image.width() && size <= image.height(),
        "tile size {size} exceeds image {}x{}",
        image.width(),
        image.height()
    );
    let x0 = rng.gen_range(0..=image.width() - size);
    let y0 = rng.gen_range(0..=image.height() - size);
    let rect = Rect::new(x0 as i64, y0 as i64, size as i64, size as i64);
    let sym = Dihedral::ALL[rng.gen_range(0..Dihedral::ALL.len())];
    let img_crop = sym.apply(&image.crop(rect).expect("tile rect in bounds"));
    let lab_crop = sym.apply(&labels.crop(rect).expect("tile rect in bounds"));
    Tile {
        input: image_to_tensor(&img_crop),
        targets: labels_to_targets(&lab_crop),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_image() -> (Image, LabelMap) {
        let image: Image = Grid::from_fn(6, 4, |x, y| [x as f32, y as f32, 0.5]);
        let labels: LabelMap = Grid::from_fn(6, 4, |x, _| {
            if x < 3 {
                SemanticClass::Road
            } else {
                SemanticClass::Tree
            }
        });
        (image, labels)
    }

    #[test]
    fn image_tensor_layout() {
        let (image, _) = tiny_image();
        let t = image_to_tensor(&image);
        assert_eq!(t.shape(), (3, 4, 6));
        assert_eq!(t[(0, 2, 5)], 5.0); // R channel = x
        assert_eq!(t[(1, 3, 0)], 3.0); // G channel = y
        assert_eq!(t[(2, 0, 0)], 0.5);
    }

    #[test]
    fn labels_targets_roundtrip() {
        let (_, labels) = tiny_image();
        let t = labels_to_targets(&labels);
        assert_eq!(t.len(), 24);
        assert_eq!(t[0], SemanticClass::Road.index());
        let back = targets_to_labels(&t, 6, 4);
        assert_eq!(back, labels);
    }

    #[test]
    fn argmax_picks_max_channel() {
        let mut scores = Tensor::zeros(SemanticClass::COUNT, 1, 2);
        scores[(SemanticClass::Tree.index(), 0, 0)] = 3.0;
        scores[(SemanticClass::Road.index(), 0, 1)] = 2.0;
        let labels = argmax_labels(&scores);
        assert_eq!(labels[(0, 0)], SemanticClass::Tree);
        assert_eq!(labels[(1, 0)], SemanticClass::Road);
    }

    #[test]
    fn tile_sampling_in_bounds() {
        let (image, labels) = tiny_image();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..20 {
            let tile = sample_tile(&image, &labels, 3, &mut rng);
            assert_eq!(tile.input.shape(), (3, 3, 3));
            assert_eq!(tile.targets.len(), 9);
        }
    }

    #[test]
    fn augmented_tiles_keep_image_label_alignment() {
        let (image, labels) = tiny_image();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..30 {
            let tile = sample_tile_augmented(&image, &labels, 3, &mut rng);
            assert_eq!(tile.input.shape(), (3, 3, 3));
            assert_eq!(tile.targets.len(), 9);
            // Alignment invariant of the synthetic fixture: the R channel
            // equals the global x coordinate, and labels are Road iff
            // x < 3 — so image pixel and label stay consistent under any
            // dihedral symmetry.
            for y in 0..3 {
                for x in 0..3 {
                    let gx = tile.input[(0, y, x)] as usize;
                    let expected = if gx < 3 {
                        SemanticClass::Road.index()
                    } else {
                        SemanticClass::Tree.index()
                    };
                    assert_eq!(tile.targets[y * 3 + x], expected);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile size")]
    fn oversize_tile_rejected() {
        let (image, labels) = tiny_image();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let _ = sample_tile(&image, &labels, 10, &mut rng);
    }
}
