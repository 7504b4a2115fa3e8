//! Deterministic full-image inference.

use el_geom::{LabelMap, SemanticClass};
use el_nn::Workspace;
use el_scene::Image;

use crate::data::write_image;
use crate::msdnet::MsdNet;

/// How far (2⁻⁸) every other logit must sit below a pixel's maximum for
/// its label to be read off the logits without the softmax (see
/// [`pixel_label`]).
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
/// The forward pass runs in cache-sized row bands
/// ([`MsdNet::eval_bands`]) and each band's logits reduce straight to
/// labels, so no whole-frame activation or probability map is ever
/// built. The labels are bit-identical to
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
    let mut input = ws.take_tensor(3, h, w);
    write_image(image, &mut input);
    let mut labels = Vec::with_capacity(w * h);
    net.eval_bands(&input, ws, |logits| {
        let n = logits.len() / SemanticClass::COUNT;
        labels.extend((0..n).map(|i| pixel_label(logits, n, i)));
    });
    ws.recycle(input);
    SegResult {
        labels: LabelMap::from_vec(w, h, labels).expect("one label per pixel"),
    }
}

/// The label of pixel `i` in a `[class][pixel]` block of `n` pixels'
/// logits: the class `argmax_labels` picks from `softmax_in_place`'s
/// probabilities, computed without the softmax wherever it cannot
/// change the answer.
///
/// If the maximum logit `m` (first reached at class `j`) is finite and
/// every other logit `l` has `l - m <= -2⁻⁸`, the label is `j`: the
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
fn pixel_label(logits: &[f32], n: usize, i: usize) -> SemanticClass {
    let mut z = [0.0f32; SemanticClass::COUNT];
    for (k, v) in z.iter_mut().enumerate() {
        *v = logits[k * n + i];
    }
    let (mut best, mut max) = (0, f32::NEG_INFINITY);
    for (k, &v) in z.iter().enumerate() {
        if v > max {
            (best, max) = (k, v);
        }
    }
    let clear = max.is_finite()
        && z.iter()
            .enumerate()
            .all(|(k, &v)| k == best || v - max <= -SOFTMAX_SKIP_MARGIN);
    let class = if clear { best } else { softmax_argmax(&mut z) };
    SemanticClass::from_index(class).expect("class index below SemanticClass::COUNT")
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

    /// `pixel_label` against the softmax-then-argmax reference on one
    /// pixel per column of `pixels`.
    fn assert_matches_softmax(pixels: &[[f32; SemanticClass::COUNT]]) {
        let n = pixels.len();
        let logits = Tensor::from_fn(SemanticClass::COUNT, 1, n, |k, _, i| pixels[i][k]);
        let mut probs = logits.clone();
        el_nn::loss::softmax_in_place(&mut probs);
        let reference = argmax_labels(&probs);
        for (i, z) in pixels.iter().enumerate() {
            assert_eq!(
                pixel_label(logits.as_slice(), n, i),
                reference[(i, 0)],
                "logits {z:?}"
            );
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
