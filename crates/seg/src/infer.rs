//! Deterministic full-image inference.

use std::ops::Range;

use el_geom::{LabelMap, SemanticClass};
use el_nn::layers::CONV_BLOCK;
use el_nn::Workspace;
use el_scene::Image;

use crate::data::pad_image;
use crate::msdnet::MsdNet;

/// How far (2⁻⁸) every other logit must sit below a pixel's maximum for
/// its label to be read off the logits without the softmax (see
/// [`push_labels`]).
const SOFTMAX_SKIP_MARGIN: f32 = 1.0 / 256.0;

/// The result of segmenting an image.
#[derive(Debug, Clone)]
pub struct SegResult {
    /// Per-pixel prediction: the first class of maximal softmax
    /// probability.
    pub labels: LabelMap,
}

/// Segments an image with the standard (deterministic) network — the
/// paper's *core function*.
///
/// Runs the network in [`Phase::Eval`](el_nn::Phase::Eval), so dropout
/// is inactive; the Bayesian stochastic mode lives in the `el-monitor`
/// crate.
pub fn segment(net: &mut MsdNet, image: &Image) -> SegResult {
    segment_ws(net, image, &mut Workspace::new())
}

/// Workspace-reusing variant of [`segment`]: repeated calls with a warm
/// workspace perform zero heap allocations in the network forward pass.
///
/// The forward pass runs in 64-position L1 blocks of the zero-padded
/// frame ([`MsdNet::eval_blocks`]) and each block's logits reduce
/// straight to labels in one branch-free pass with pixels as lanes, so
/// no whole-frame activation or probability map is ever built. The
/// labels are bit-identical to
/// `argmax_labels(softmax(forward(.., Phase::Eval, ..)))`.
///
/// Deterministic Eval inference never mutates the network, hence `&MsdNet`.
///
/// # Panics
///
/// Panics unless the network has [`SemanticClass::COUNT`] classes.
pub fn segment_ws(net: &MsdNet, image: &Image, ws: &mut Workspace) -> SegResult {
    assert_eq!(
        net.classes(),
        SemanticClass::COUNT,
        "expected {} classes, got {}",
        SemanticClass::COUNT,
        net.classes()
    );
    let (w, h) = (image.width(), image.height());
    let input = pad_image(image, net.receptive_radius(), ws);
    let mut labels = Vec::with_capacity(w * h);
    net.eval_blocks(&input, ws, |logits, runs| {
        for (cols, _) in runs {
            push_labels(logits, CONV_BLOCK, cols, &mut labels);
        }
    });
    input.recycle(ws);
    SegResult {
        labels: LabelMap::from_vec(w, h, labels).expect("one label per pixel"),
    }
}

/// Pixels per lane pass of [`push_labels`].
const LANES: usize = 64;

/// Appends the labels of columns `cols` of a `[class][pixel]` block of
/// `n` pixels' logits: for each pixel, the class `argmax_labels` picks
/// from `softmax_in_place`'s probabilities, computed without the
/// softmax wherever it cannot change the answer.
///
/// Pixels are the lanes of a branch-free pass: a running maximum `m`
/// over the classes in order, replaced only on strict `>` (so the first
/// maximum, class `j`, wins), then a count of the classes `l` that fail
/// the guard `l - m <= -2⁻⁸` (class `j` itself always does). A pixel
/// whose `m` is finite and whose count is 1 is labelled `j`: the
/// softmax's `e_j = expf(0)` is exactly 1, every other
/// `e = expf(l - m) <= expf(-2⁻⁸) < 0.9962`, and dividing both by the
/// same sum in `[1, classes]` keeps every other probability more than a
/// rounding step below `p_j`. `expf` is the in-crate
/// [`el_kernels::expf`], not a libm call: its `expf(-2⁻⁸) < 0.9962` and
/// `expf(-2⁻²⁵) == 1` are pinned by el-kernels'
/// `expf_bounds_the_softmax_skip_guard`, and its monotonicity over every
/// non-positive input by the exhaustive `expf_exhaustive_hash`. Any
/// other pixel — a near tie, an exact tie or a non-finite logit — takes
/// the softmax kernel itself ([`softmax_argmax`]).
fn push_labels(logits: &[f32], n: usize, cols: Range<usize>, out: &mut Vec<SemanticClass>) {
    const K: usize = SemanticClass::COUNT;
    let mut j0 = cols.start;
    while j0 < cols.end {
        let len = (cols.end - j0).min(LANES);
        let rows = || (0..K).map(|k| &logits[k * n + j0..][..len]);
        let (mut max, mut best) = ([f32::NEG_INFINITY; LANES], [0.0f32; LANES]);
        let (max, best) = (&mut max[..len], &mut best[..len]);
        for (k, row) in rows().enumerate() {
            let k = k as f32;
            for ((m, b), &v) in max.iter_mut().zip(best.iter_mut()).zip(row) {
                *b = if v > *m { k } else { *b };
                // `max`, not a select on `>`, which LLVM turns into a
                // branchy conditional store. It is the same maximum: `m`
                // is never NaN, a NaN `v` leaves it, and the zero it picks
                // on a ±0 tie moves neither `b` nor the guard below.
                *m = m.max(v);
            }
        }
        let mut near = [0.0f32; LANES];
        let near = &mut near[..len];
        for row in rows() {
            for ((c, &m), &v) in near.iter_mut().zip(max.iter()).zip(row) {
                *c += if v - m <= -SOFTMAX_SKIP_MARGIN {
                    0.0
                } else {
                    1.0
                };
            }
        }
        out.extend((0..len).map(|i| {
            let class = if near[i] == 1.0 && max[i].is_finite() {
                best[i] as usize
            } else {
                let mut z = [0.0f32; K];
                for (k, v) in z.iter_mut().enumerate() {
                    *v = logits[k * n + j0 + i];
                }
                softmax_argmax(&mut z)
            };
            SemanticClass::ALL[class]
        }));
        j0 += len;
    }
}

/// One pixel of `argmax_labels(softmax_in_place(logits))`: the active
/// tier's softmax kernel on the pixel's logits, then the first maximal
/// probability.
fn softmax_argmax(z: &mut [f32]) -> usize {
    el_kernels::active().softmax(z, z.len(), 1);
    let (mut best, mut best_p) = (0, f32::NEG_INFINITY);
    for (k, &p) in z.iter().enumerate() {
        if p > best_p {
            (best, best_p) = (k, p);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::argmax_labels;
    use crate::msdnet::MsdNetConfig;
    use el_nn::Tensor;
    use el_scene::{Conditions, Scene, SceneParams};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn segmentation_shapes_match() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let scene = Scene::generate(&SceneParams::small(), 0);
        let image = scene.render(&Conditions::nominal(), 0);
        let res = segment(&mut net, &image);
        assert_eq!(res.labels.width(), image.width());
        assert_eq!(res.labels.height(), image.height());
    }

    #[test]
    fn repeated_inference_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        let scene = Scene::generate(&SceneParams::small(), 2);
        let image = scene.render(&Conditions::nominal(), 2);
        let a = segment(&mut net, &image);
        let b = segment(&mut net, &image);
        assert_eq!(a.labels, b.labels);
    }

    /// `push_labels` against the softmax-then-argmax reference on one
    /// pixel per column of `pixels`, over every lane pass and over a
    /// sub-range whose passes start off the block's first column.
    fn assert_matches_softmax(pixels: &[[f32; SemanticClass::COUNT]]) {
        let n = pixels.len();
        let logits = Tensor::from_fn(SemanticClass::COUNT, 1, n, |k, _, i| pixels[i][k]);
        let mut probs = logits.clone();
        el_nn::loss::softmax_in_place(&mut probs);
        let reference = argmax_labels(&probs);
        for cols in [0..n, n / 3..n] {
            let mut got = Vec::new();
            push_labels(logits.as_slice(), n, cols.clone(), &mut got);
            assert_eq!(got.len(), cols.len());
            for (i, label) in cols.zip(got) {
                assert_eq!(label, reference[(i, 0)], "logits {:?}", pixels[i]);
            }
        }
    }

    #[test]
    fn skip_guard_boundaries_match_softmax() {
        let guard = -SOFTMAX_SKIP_MARGIN;
        let mut pixels = Vec::new();
        for m in [0.0f32, 1.0, -3.5, 1e4, -1e4] {
            for d in [
                guard,               // exactly on the guard: skipped
                guard.next_down(),   // just inside: skipped
                guard.next_up(),     // just outside: softmax
                guard / 2.0,         // near tie
                -f32::EPSILON,       // near tie
                -f32::EPSILON / 8.0, // expf rounds to 1: probabilities tie
                0.0,                 // exact tie
                -1.0,                // clear winner
            ] {
                for (j, k) in [(0, 1), (1, 0), (7, 3), (3, 7)] {
                    let mut z = [m - 8.0; SemanticClass::COUNT];
                    z[j] = m;
                    z[k] = m + d;
                    pixels.push(z);
                }
            }
        }
        assert_matches_softmax(&pixels);
    }

    #[test]
    fn non_finite_logits_match_softmax() {
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
        ];
        let mut r = ChaCha8Rng::seed_from_u64(0x5EB);
        let mut pixels = vec![
            [f32::NAN; SemanticClass::COUNT],
            [f32::NEG_INFINITY; SemanticClass::COUNT],
        ];
        for _ in 0..400 {
            let mut z = [0.0f32; SemanticClass::COUNT];
            for v in &mut z {
                *v = if r.gen_bool(0.3) {
                    specials[r.gen_range(0..specials.len())]
                } else {
                    r.gen_range(-2.0..2.0f32)
                };
            }
            pixels.push(z);
        }
        assert_matches_softmax(&pixels);
    }
}
