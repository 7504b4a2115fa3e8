//! Exactness of the block-wise, labels-only core segmentation.
//!
//! `segment_ws` runs the MSDnet forward pass in 64-position blocks of
//! the zero-padded frame and reads most labels straight off the logits,
//! skipping the softmax where it cannot change the answer. Both
//! shortcuts must be invisible: its labels equal
//! `argmax_labels(softmax(forward(.., Phase::Eval, ..)))` bit for bit —
//! on random nets, on frames narrower and wider than a block, shorter
//! than the receptive radius, on exact and near ties around the skip
//! guard, on non-finite pixels and from a NaN-poisoned workspace. Run
//! under `EL_FORCE_KERNEL`, this pins the claim on every kernel tier.

use certel::el_geom::{Grid, LabelMap, SemanticClass};
use certel::el_nn::layers::{Layer, Phase};
use certel::el_nn::{loss::softmax, Tensor, Workspace};
use certel::el_scene::{Conditions, Image, Scene, SceneParams};
use certel::el_seg::data::{argmax_labels, image_to_tensor};
use certel::el_seg::{segment_ws, MsdNet, MsdNetConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The skip guard's margin, 2⁻⁸.
const MARGIN: f32 = 1.0 / 256.0;

/// The whole-frame reference: Eval logits, softmax, first-max argmax.
fn reference(net: &mut MsdNet, image: &Image) -> (Tensor, LabelMap) {
    let logits = net.forward(
        &image_to_tensor(image),
        Phase::Eval,
        &mut ChaCha8Rng::seed_from_u64(0),
    );
    let labels = argmax_labels(&softmax(&logits));
    (logits, labels)
}

/// How many pixels fail the skip guard (and so take the softmax path).
fn guarded_pixels(logits: &Tensor) -> usize {
    let (c, h, w) = logits.shape();
    let hw = h * w;
    let z = logits.as_slice();
    (0..hw)
        .filter(|&i| {
            let max = (0..c)
                .map(|k| z[k * hw + i])
                .fold(f32::NEG_INFINITY, f32::max);
            let skippable = |k: usize| z[k * hw + i] - max <= -MARGIN;
            let above = (0..c).filter(|&k| !skippable(k)).count();
            !max.is_finite() || above > 1
        })
        .count()
}

/// Asserts `segment_ws` equals the reference and returns the number of
/// pixels that took the softmax path.
fn assert_exact(net: &mut MsdNet, image: &Image, what: &str) -> usize {
    assert_exact_in(net, image, &mut Workspace::new(), what)
}

/// [`assert_exact`] on a caller's workspace.
fn assert_exact_in(net: &mut MsdNet, image: &Image, ws: &mut Workspace, what: &str) -> usize {
    let (logits, expected) = reference(net, image);
    let got = segment_ws(net, image, ws).labels;
    assert_eq!(
        (got.width(), got.height()),
        (image.width(), image.height()),
        "{what}: label map shape"
    );
    assert!(got == expected, "{what}: block-wise labels diverge");
    guarded_pixels(&logits)
}

fn random_image(w: usize, h: usize, r: &mut ChaCha8Rng) -> Image {
    Grid::from_fn(w, h, |_, _| {
        [r.gen::<f32>(), r.gen::<f32>(), r.gen::<f32>()]
    })
}

fn nets(seed: u64) -> Vec<(&'static str, MsdNet)> {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    vec![
        ("tiny", MsdNet::new(&MsdNetConfig::tiny(), &mut r)),
        (
            "default_uavid",
            MsdNet::new(&MsdNetConfig::default_uavid(), &mut r),
        ),
    ]
}

/// Random tiny and paper-sized nets over degenerate, thin, short and
/// multi-block frames.
#[test]
fn banded_labels_match_whole_frame_softmax_argmax() {
    let mut r = ChaCha8Rng::seed_from_u64(0xBA4D);
    // (w, h): a single pixel, one-pixel-wide strips either way, frames
    // shorter and narrower than the receptive radius, and frames whose
    // padded span is not a whole number of blocks.
    let shapes = [
        (1, 1),
        (3, 257),
        (257, 3),
        (40, 2),
        (3, 3),
        (64, 41),
        (257, 20),
    ];
    let (mut guarded, mut pixels) = (0, 0);
    for seed in [1, 2] {
        for (name, mut net) in nets(seed) {
            for (w, h) in shapes {
                let image = random_image(w, h, &mut r);
                guarded += assert_exact(&mut net, &image, &format!("{name} {w}x{h}"));
                pixels += w * h;
            }
        }
    }
    // Both paths ran: some pixels were decided by the skip, some by the
    // softmax.
    assert!(guarded > 0 && guarded < pixels, "{guarded} of {pixels}");
}

/// Widths around the 64-position block (one column, a monitor crop's
/// 29, one block minus, exactly and plus one, two blocks, a frame plus
/// one) by heights below, at and above the receptive radius (4 for the
/// paper-sized net, 2 for tiny), on a workspace whose pooled buffers
/// are all NaN: the padded copy, its zeros and every block scratch must
/// be written before they are read.
#[test]
fn block_labels_match_on_every_width_from_a_poisoned_workspace() {
    let mut r = ChaCha8Rng::seed_from_u64(0xB10C);
    let (mut guarded, mut pixels) = (0, 0);
    for (name, mut net) in nets(8) {
        for w in [1, 7, 29, 63, 64, 65, 130, 257] {
            for h in [1, 2, 3, 4, 9] {
                let mut ws = Workspace::new();
                for len in [1 << 6, 1 << 12, 1 << 16, 1 << 20] {
                    ws.give(vec![f32::NAN; len]);
                }
                let image = random_image(w, h, &mut r);
                guarded += assert_exact_in(&mut net, &image, &mut ws, &format!("{name} {w}x{h}"));
                pixels += w * h;
            }
        }
    }
    assert!(guarded > 0 && guarded < pixels, "{guarded} of {pixels}");
}

/// A rendered urban frame through the paper-sized net.
#[test]
fn banded_labels_match_on_a_rendered_scene() {
    let (_, mut net) = nets(7).pop().expect("default net");
    let scene = Scene::generate(&SceneParams::small(), 3);
    let image = scene.render(&Conditions::nominal(), 3);
    assert_exact(&mut net, &image, "rendered scene");
}

/// Mutable views of head2's weights (`classes x hidden`) and biases:
/// the last two parameter tensors.
fn head2(net: &mut MsdNet) -> (Vec<f32>, Vec<f32>, usize) {
    let mut params = net.params();
    let bias = params.pop().expect("head2 bias").value.to_vec();
    let weight = params.pop().expect("head2 weight").value.to_vec();
    let hidden = weight.len() / bias.len();
    (weight, bias, hidden)
}

fn set_head2(net: &mut MsdNet, weight: &[f32], bias: &[f32]) {
    let mut params = net.params();
    params
        .pop()
        .expect("head2 bias")
        .value
        .copy_from_slice(bias);
    params
        .pop()
        .expect("head2 weight")
        .value
        .copy_from_slice(weight);
}

/// Two identical head2 rows tie exactly at every pixel, so every pixel
/// whose maximum is one of them takes the softmax path, which picks the
/// lower class index.
#[test]
fn exact_ties_take_the_first_maximum() {
    let mut r = ChaCha8Rng::seed_from_u64(0x71E);
    for (name, mut net) in nets(3) {
        let (mut weight, mut bias, hidden) = head2(&mut net);
        // Class 5 copies class 2 and class 1 copies class 6, so either
        // copy's index may be the larger one; both pairs are favoured.
        for (from, to) in [(2, 5), (6, 1)] {
            weight.copy_within(from * hidden..(from + 1) * hidden, to * hidden);
            bias[from] += 0.5;
            bias[to] = bias[from];
        }
        set_head2(&mut net, &weight, &bias);
        let image = random_image(64, 41, &mut r);
        let guarded = assert_exact(&mut net, &image, &format!("{name} tie"));
        assert!(guarded > 0, "{name}: the tie must reach the softmax path");
    }
}

/// Class 0 shadows class 1 with the same weights and a bias just inside
/// or just outside the guard, so the two logits differ by about `delta`
/// (give or take accumulation rounding) at every pixel. Zero head2
/// weights make the logits equal the biases exactly, so the guard's
/// boundary values are hit on the nose. The shadow has the lower index:
/// at the tiniest `delta` its `expf` rounds to 1, the probabilities
/// tie, and the softmax picks it over the larger logit.
#[test]
fn near_ties_around_the_guard_match() {
    let mut r = ChaCha8Rng::seed_from_u64(0x6A4D);
    for (name, mut net) in nets(4) {
        let (weight0, bias0, hidden) = head2(&mut net);
        let inside = -MARGIN - MARGIN / 64.0;
        let outside = -MARGIN + MARGIN / 64.0;
        let tiny = -MARGIN / (1 << 18) as f32;
        for delta in [inside, -MARGIN, outside, -MARGIN / 2.0, tiny] {
            let (mut weight, mut bias) = (weight0.clone(), bias0.clone());
            weight.copy_within(hidden..2 * hidden, 0);
            bias[1] += 4.0;
            bias[0] = bias[1] + delta;
            set_head2(&mut net, &weight, &bias);
            let image = random_image(64, 41, &mut r);
            assert_exact(&mut net, &image, &format!("{name} shadow {delta}"));

            let flat: Vec<f32> = (0..SemanticClass::COUNT)
                .map(|k| match k {
                    0 => delta,
                    1 => 0.0,
                    _ => -1.0,
                })
                .collect();
            set_head2(&mut net, &vec![0.0; weight.len()], &flat);
            assert_exact(&mut net, &image, &format!("{name} exact {delta}"));
        }
    }
}

/// NaN and infinite pixels poison their receptive field; the poisoned
/// logits must take the softmax path and land where it lands.
#[test]
fn non_finite_pixels_match() {
    let mut r = ChaCha8Rng::seed_from_u64(0x1AF);
    for (name, mut net) in nets(5) {
        let mut image = random_image(64, 41, &mut r);
        for (i, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            for _ in 0..6 {
                let (x, y) = (r.gen_range(0..64), r.gen_range(0..41));
                image[(x, y)][(i + x) % 3] = v;
            }
        }
        image[(0, 0)] = [f32::NAN; 3];
        image[(63, 40)] = [f32::INFINITY; 3];
        let guarded = assert_exact(&mut net, &image, &format!("{name} non-finite"));
        assert!(guarded > 0, "{name}: poisoned pixels must be guarded");
    }
}

/// The block walk draws every buffer and row table from the workspace:
/// once warm, a 256² frame segments without growing it.
#[test]
fn warm_segmentation_is_allocation_free() {
    let (_, net) = nets(6).pop().expect("default net");
    let image = random_image(256, 256, &mut ChaCha8Rng::seed_from_u64(6));
    let mut ws = Workspace::new();
    let first = segment_ws(&net, &image, &mut ws).labels;
    let misses = ws.takes_missed();
    for _ in 0..5 {
        assert!(segment_ws(&net, &image, &mut ws).labels == first);
    }
    assert_eq!(ws.takes_missed(), misses, "warm passes must not allocate");
}
