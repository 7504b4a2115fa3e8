//! 2-D convolution with arbitrary dilation ("same" padding, stride 1).
//!
//! The forward pass is an im2col lowering followed by a register-blocked
//! row-major micro-kernel (see [`Conv2d::forward_with`]); the naive
//! per-tap loop is retained as [`Conv2d::forward_reference`] for
//! equivalence tests and benchmark baselines.

use std::ops::Range;

use rand::RngCore;
use serde::{Deserialize, Serialize};

use super::{Layer, ParamRef, Phase};
use crate::init;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// A 2-D convolution layer with square kernels, stride 1, "same" zero
/// padding and configurable dilation.
///
/// Dilation is the heart of the paper's MSDnet ("Multi-Scale-Dilation
/// net"): parallel branches with dilations 1, 2, 4, … see increasingly
/// large receptive fields at constant cost.
///
/// Weights are stored as `[out][in][ky][kx]`, initialised with He-normal
/// scaling (appropriate for the ReLU non-linearities that follow).
///
/// # Example
///
/// ```
/// use el_nn::{layers::{Conv2d, Layer}, Phase, Tensor};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let mut conv = Conv2d::new(2, 5, 3, 2, &mut rng); // dilation 2
/// let out = conv.forward(&Tensor::zeros(2, 10, 10), Phase::Eval, &mut rng);
/// assert_eq!(out.shape(), (5, 10, 10)); // "same" padding preserves H x W
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    dilation: usize,
    weight: Vec<f32>,
    bias: Vec<f32>,
    #[serde(skip)]
    grad_weight: Vec<f32>,
    #[serde(skip)]
    grad_bias: Vec<f32>,
    #[serde(skip)]
    cached_input: Option<Tensor>,
    #[serde(skip)]
    scratch: Workspace,
}

impl Conv2d {
    /// Creates a convolution with He-normal initialised weights and zero
    /// biases.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even or zero, if any channel count is zero, or
    /// if `dilation` is zero — "same" padding requires odd kernels.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        dilation: usize,
        rng: &mut dyn RngCore,
    ) -> Self {
        assert!(
            kernel % 2 == 1 && kernel > 0,
            "kernel must be odd, got {kernel}"
        );
        assert!(
            in_channels > 0 && out_channels > 0,
            "channel counts must be positive"
        );
        assert!(dilation > 0, "dilation must be positive");
        let fan_in = in_channels * kernel * kernel;
        let n = out_channels * fan_in;
        let weight = init::he_normal(n, fan_in, rng);
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            dilation,
            weight,
            bias: vec![0.0; out_channels],
            grad_weight: vec![0.0; n],
            grad_bias: vec![0.0; out_channels],
            cached_input: None,
            scratch: Workspace::new(),
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Dilation factor.
    pub fn dilation(&self) -> usize {
        self.dilation
    }

    /// Effective receptive-field side: `dilation * (kernel - 1) + 1`.
    pub fn receptive_field(&self) -> usize {
        self.dilation * (self.kernel - 1) + 1
    }

    /// Direct read access to the weights (`[out][in][ky][kx]` layout).
    pub fn weight(&self) -> &[f32] {
        &self.weight
    }

    /// Mutable access to the weights (for tests and serialization round
    /// trips).
    pub fn weight_mut(&mut self) -> &mut [f32] {
        &mut self.weight
    }

    /// Direct read access to the biases.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Restores gradient/caching buffers after deserialization.
    ///
    /// Serde skips gradient state; call this after loading a model if you
    /// intend to continue training it.
    pub fn reset_state(&mut self) {
        self.grad_weight = vec![0.0; self.weight.len()];
        self.grad_bias = vec![0.0; self.bias.len()];
        self.cached_input = None;
    }

    #[inline]
    fn w_idx(&self, o: usize, i: usize, ky: usize, kx: usize) -> usize {
        ((o * self.in_channels + i) * self.kernel + ky) * self.kernel + kx
    }

    /// The naive per-tap scalar convolution — the pre-optimization
    /// implementation, kept as the ground truth that
    /// [`Conv2d::forward_with`] must reproduce exactly (property-tested)
    /// and as the benchmark baseline for the engine speedup.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.channels(),
            self.in_channels,
            "Conv2d expected {} input channels, got {}",
            self.in_channels,
            input.channels()
        );
        let (h, w) = (input.height(), input.width());
        let pad = (self.dilation * (self.kernel - 1)) / 2;
        let mut out = Tensor::zeros(self.out_channels, h, w);
        let inp = input.as_slice();
        let hw = h * w;
        for o in 0..self.out_channels {
            let out_plane = out.channel_mut(o);
            out_plane.fill(self.bias[o]);
            for i in 0..self.in_channels {
                let in_plane = &inp[i * hw..(i + 1) * hw];
                for ky in 0..self.kernel {
                    let dy = (ky * self.dilation) as isize - pad as isize;
                    for kx in 0..self.kernel {
                        let dx = (kx * self.dilation) as isize - pad as isize;
                        let wv = self.weight[self.w_idx(o, i, ky, kx)];
                        if wv == 0.0 {
                            continue;
                        }
                        // Valid output rows for this tap.
                        let y0 = (-dy).max(0) as usize;
                        let y1 = ((h as isize - dy).min(h as isize)).max(0) as usize;
                        let x0 = (-dx).max(0) as usize;
                        let x1 = ((w as isize - dx).min(w as isize)).max(0) as usize;
                        for y in y0..y1 {
                            let iy = (y as isize + dy) as usize;
                            let orow = y * w;
                            let irow = iy * w;
                            for x in x0..x1 {
                                let ix = (x as isize + dx) as usize;
                                out_plane[orow + x] += wv * in_plane[irow + ix];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Optimized, allocation-free forward pass: im2col lowering plus a
    /// register-blocked micro-kernel, with every scratch buffer drawn from
    /// `ws`.
    ///
    /// Produces exactly the same values as [`Conv2d::forward_reference`]:
    /// per output element the reduction accumulates taps in the identical
    /// `(in, ky, kx)` order, so f32 rounding agrees bit for bit (modulo
    /// the sign of zero). Immutable on `self`, so concurrent Monte-Carlo
    /// samples can share one network.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have [`Conv2d::in_channels`] channels.
    pub fn forward_with(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let (h, w) = (input.height(), input.width());
        let mut out = ws.take(self.out_channels * h * w);
        self.forward_rows_into(input, 0..h, &mut out, ws);
        Tensor::from_vec(self.out_channels, h, w, out)
            .expect("workspace buffer sized to the output shape")
    }

    /// Row-range forward pass: writes output rows `rows` of
    /// [`Conv2d::forward_with`]`(input)` into `out`, laid out
    /// `[out_channel][row - rows.start][x]`, lowering only those rows'
    /// im2col columns. Taps that reach outside `rows` read the input
    /// directly, so a band needs no halo copy.
    ///
    /// Every output element is a GEMM column that accumulates its
    /// reduction over `k` in the same strict order whatever the band,
    /// so any row partition reproduces the whole-image pass bit for bit.
    /// Allocation-free with a warm workspace.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have [`Conv2d::in_channels`] channels,
    /// if `rows` leaves the image, or if `out` is not
    /// `out_channels * rows.len() * width` long.
    pub fn forward_rows_into(
        &self,
        input: &Tensor,
        rows: Range<usize>,
        out: &mut [f32],
        ws: &mut Workspace,
    ) {
        assert_eq!(
            input.channels(),
            self.in_channels,
            "Conv2d expected {} input channels, got {}",
            self.in_channels,
            input.channels()
        );
        let (h, w) = (input.height(), input.width());
        assert!(
            rows.start <= rows.end && rows.end <= h,
            "row range {rows:?} outside a {h}-row image"
        );
        let n = rows.len() * w;
        assert_eq!(out.len(), self.out_channels * n, "output buffer size");
        let k_dim = self.k_dim();
        if self.kernel == 1 && rows.len() == h {
            // 1x1 convolution over the whole image: the im2col matrix
            // *is* the input.
            gemm_bias(
                &self.weight,
                input.as_slice(),
                &self.bias,
                out,
                self.out_channels,
                k_dim,
                n,
            );
        } else {
            let mut col = ws.take(k_dim * n);
            self.im2col(input, rows, &mut col);
            gemm_bias(
                &self.weight,
                &col,
                &self.bias,
                out,
                self.out_channels,
                k_dim,
                n,
            );
            ws.give(col);
        }
    }

    /// Output rows per band for a `width`-pixel-wide image run through
    /// [`Conv2d::forward_rows_into`] band by band: as many rows as keep
    /// one band's im2col matrix inside the column budget (64 Ki `f32`, an
    /// L2-resident working set), and at least one.
    pub fn band_rows(&self, width: usize) -> usize {
        ((BAND_COL_BUDGET / self.k_dim()).max(1) / width.max(1)).max(1)
    }

    /// Reduction depth of the lowered GEMM: one im2col row per
    /// `(in, ky, kx)` tap.
    fn k_dim(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Lowers output rows `rows` of `input` into the im2col matrix `col`:
    /// one matrix row per kernel tap, ordered `(in, ky, kx)` — the same
    /// order the reference loop accumulates in — holding
    /// `rows.len() * w` columns. Every column element is written;
    /// out-of-image taps are zero ("same" padding).
    fn im2col(&self, input: &Tensor, rows: Range<usize>, col: &mut [f32]) {
        let (h, w) = (input.height(), input.width());
        let pad = (self.dilation * (self.kernel - 1)) / 2;
        let n = rows.len() * w;
        if n == 0 {
            return;
        }
        let mut k = 0usize;
        for i in 0..self.in_channels {
            let plane = input.channel(i);
            for ky in 0..self.kernel {
                let dy = (ky * self.dilation) as isize - pad as isize;
                for kx in 0..self.kernel {
                    let dx = (kx * self.dilation) as isize - pad as isize;
                    let row = &mut col[k * n..][..n];
                    k += 1;
                    // Valid output columns for this tap (may be empty
                    // when the receptive field exceeds the image).
                    let x0 = (-dx).max(0) as usize;
                    let x1 = ((w as isize - dx).min(w as isize)).max(0) as usize;
                    for (dst, y) in row.chunks_exact_mut(w).zip(rows.clone()) {
                        let iy = y as isize + dy;
                        if x0 >= x1 || iy < 0 || iy >= h as isize {
                            dst.fill(0.0);
                            continue;
                        }
                        let src = &plane[iy as usize * w..][..w];
                        dst[..x0].fill(0.0);
                        dst[x0..x1].copy_from_slice(
                            &src[(x0 as isize + dx) as usize..(x1 as isize + dx) as usize],
                        );
                        dst[x1..].fill(0.0);
                    }
                }
            }
        }
    }
}

/// Element budget (`k_dim x columns`) of one row band's im2col matrix
/// ([`Conv2d::band_rows`]) — 64 Ki f32 = 256 KB, an L2-resident working
/// set on every deployment target. Banding is a pure performance choice:
/// any row partition produces bit-identical results.
const BAND_COL_BUDGET: usize = 64 * 1024;

/// `out[m][n] = bias[m] + sum_k a[m][k] * b[k][n]`, all matrices row-major.
///
/// Register-tiled micro-kernel, **column-tile outer, row-quad inner**:
/// each `b` column tile (a few KB for this workload's reduction depths)
/// is swept once per row quad *from L1*, instead of the whole `b` matrix
/// being re-streamed from memory for every quad. That ordering is what
/// lets one GEMM cover a whole crop's or audit tile's prefix (thousands
/// of columns) without falling off the cache: the working set per step
/// is one column tile plus the (small) weight matrix, independent of
/// `n`. Four output rows accumulate in registers with `k` as the
/// innermost loop, so no partial sums round-trip through memory and each
/// output element still accumulates over `k` strictly in order, matching
/// the naive tap loop's f32 rounding.
///
/// The per-ISA variants (portable → AVX2 → AVX-512F on x86_64,
/// NEON on aarch64 — separate multiply and add instructions, never FMA,
/// which rounds differently) live in [`el_kernels::gemm`]; this resolves
/// the runtime-detected (or `EL_FORCE_KERNEL`-pinned) tier once per
/// process and every tier reproduces the portable kernel bit for bit.
fn gemm_bias(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    m: usize,
    k_dim: usize,
    n: usize,
) {
    el_kernels::active().gemm_bias(a, b, bias, out, m, k_dim, n);
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, phase: Phase, _rng: &mut dyn RngCore) -> Tensor {
        let mut ws = std::mem::take(&mut self.scratch);
        let out = self.forward_with(input, &mut ws);
        self.scratch = ws;
        self.cached_input = if phase == Phase::Train {
            Some(input.clone())
        } else {
            None
        };
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward called without a Train-phase forward");
        assert_eq!(
            grad_out.shape(),
            (self.out_channels, input.height(), input.width()),
            "grad_out shape mismatch"
        );
        let (h, w) = (input.height(), input.width());
        let pad = (self.dilation * (self.kernel - 1)) / 2;
        let mut grad_in = Tensor::zeros(self.in_channels, h, w);
        let hw = h * w;
        let inp = input.as_slice();
        let go = grad_out.as_slice();

        for o in 0..self.out_channels {
            let go_plane = &go[o * hw..(o + 1) * hw];
            self.grad_bias[o] += go_plane.iter().sum::<f32>();
            for i in 0..self.in_channels {
                let in_plane = &inp[i * hw..(i + 1) * hw];
                let gi_plane = grad_in.channel_mut(i);
                for ky in 0..self.kernel {
                    let dy = (ky * self.dilation) as isize - pad as isize;
                    for kx in 0..self.kernel {
                        let dx = (kx * self.dilation) as isize - pad as isize;
                        let widx = self.w_idx(o, i, ky, kx);
                        let wv = self.weight[widx];
                        let mut gw = 0.0f32;
                        let y0 = (-dy).max(0) as usize;
                        let y1 = ((h as isize - dy).min(h as isize)).max(0) as usize;
                        let x0 = (-dx).max(0) as usize;
                        let x1 = ((w as isize - dx).min(w as isize)).max(0) as usize;
                        for y in y0..y1 {
                            let iy = (y as isize + dy) as usize;
                            let orow = y * w;
                            let irow = iy * w;
                            for x in x0..x1 {
                                let ix = (x as isize + dx) as usize;
                                let g = go_plane[orow + x];
                                gw += g * in_plane[irow + ix];
                                gi_plane[irow + ix] += g * wv;
                            }
                        }
                        self.grad_weight[widx] += gw;
                    }
                }
            }
        }
        grad_in
    }

    fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                value: &mut self.weight,
                grad: &mut self.grad_weight,
            },
            ParamRef {
                value: &mut self.bias,
                grad: &mut self.grad_bias,
            },
        ]
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut r);
        conv.weight_mut().fill(0.0);
        // Centre tap = 1.
        let idx = conv.w_idx(0, 0, 1, 1);
        conv.weight_mut()[idx] = 1.0;
        let input = Tensor::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let out = conv.forward(&input, Phase::Eval, &mut r);
        assert_eq!(out, input);
    }

    #[test]
    fn shift_kernel_shifts() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut r);
        conv.weight_mut().fill(0.0);
        // Tap at (ky=1, kx=0): out(y, x) = in(y, x - 1) with zero padding.
        let idx = conv.w_idx(0, 0, 1, 0);
        conv.weight_mut()[idx] = 1.0;
        let input = Tensor::from_fn(1, 3, 3, |_, y, x| (y * 3 + x) as f32 + 1.0);
        let out = conv.forward(&input, Phase::Eval, &mut r);
        assert_eq!(out[(0, 0, 0)], 0.0); // zero padding
        assert_eq!(out[(0, 0, 1)], input[(0, 0, 0)]);
        assert_eq!(out[(0, 2, 2)], input[(0, 2, 1)]);
    }

    #[test]
    fn dilation_extends_receptive_field() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 3, 2, &mut r);
        assert_eq!(conv.receptive_field(), 5);
        conv.weight_mut().fill(0.0);
        // Corner tap at dilation 2 reaches 2 pixels away.
        let idx = conv.w_idx(0, 0, 0, 0);
        conv.weight_mut()[idx] = 1.0;
        let mut input = Tensor::zeros(1, 7, 7);
        input[(0, 1, 1)] = 5.0;
        let out = conv.forward(&input, Phase::Eval, &mut r);
        // out(y, x) = in(y - 2, x - 2): the impulse appears at (3, 3).
        assert_eq!(out[(0, 3, 3)], 5.0);
        assert_eq!(out[(0, 1, 1)], 0.0);
    }

    #[test]
    fn bias_applied_everywhere() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 1, 1, &mut r);
        conv.weight_mut().fill(0.0);
        conv.bias = vec![1.5, -2.0];
        let out = conv.forward(&Tensor::zeros(1, 2, 2), Phase::Eval, &mut r);
        assert!(out.channel(0).iter().all(|&v| v == 1.5));
        assert!(out.channel(1).iter().all(|&v| v == -2.0));
    }

    #[test]
    fn multi_channel_sums() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 1, 1, 1, &mut r);
        conv.weight_mut().copy_from_slice(&[2.0, 3.0]);
        let input = Tensor::from_fn(2, 2, 2, |c, _, _| (c + 1) as f32);
        let out = conv.forward(&input, Phase::Eval, &mut r);
        // 2*1 + 3*2 = 8 everywhere.
        assert!(out.as_slice().iter().all(|&v| v == 8.0));
    }

    #[test]
    fn param_count_and_zero_grad() {
        let mut r = rng();
        let mut conv = Conv2d::new(3, 4, 3, 1, &mut r);
        assert_eq!(conv.param_count(), 3 * 4 * 9 + 4);
        let input = Tensor::full(3, 4, 4, 1.0);
        let out = conv.forward(&input, Phase::Train, &mut r);
        let _ = conv.backward(&out.map(|_| 1.0));
        assert!(conv.grad_bias.iter().any(|&g| g != 0.0));
        conv.zero_grad();
        assert!(conv.grad_weight.iter().all(|&g| g == 0.0));
        assert!(conv.grad_bias.iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "without a Train-phase forward")]
    fn backward_requires_train_forward() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut r);
        let _ = conv.forward(&Tensor::zeros(1, 2, 2), Phase::Eval, &mut r);
        let _ = conv.backward(&Tensor::zeros(1, 2, 2));
    }

    #[test]
    #[should_panic(expected = "kernel must be odd")]
    fn even_kernel_rejected() {
        let mut r = rng();
        let _ = Conv2d::new(1, 1, 2, 1, &mut r);
    }

    #[test]
    fn optimized_matches_reference_across_shapes() {
        let mut r = rng();
        for (ci, co, k, d, h, w) in [
            (1, 1, 1, 1, 5, 7),
            (3, 8, 3, 1, 9, 9),
            (2, 5, 3, 2, 8, 6),
            (4, 4, 5, 1, 7, 11),
            (3, 7, 3, 4, 3, 3), // receptive field larger than the image
            (2, 6, 1, 1, 12, 4),
        ] {
            let conv = Conv2d::new(ci, co, k, d, &mut r);
            let input = Tensor::from_fn(ci, h, w, |c, y, x| {
                ((c * 31 + y * 7 + x) as f32 * 0.13).sin()
            });
            let reference = conv.forward_reference(&input);
            let mut ws = Workspace::new();
            let optimized = conv.forward_with(&input, &mut ws);
            assert_eq!(
                reference, optimized,
                "conv {ci}->{co} k{k} d{d} on {h}x{w} diverged"
            );
        }
    }

    #[test]
    fn row_bands_match_reference_over_stale_scratch() {
        let mut r = rng();
        for (ci, co, k, d, h, w) in [
            (3, 8, 3, 1, 9, 9),
            (2, 5, 3, 4, 11, 6), // taps reach several bands away
            (4, 3, 5, 1, 7, 11),
            (3, 7, 3, 4, 3, 3), // receptive field larger than the image
            (2, 6, 1, 1, 12, 4),
        ] {
            let conv = Conv2d::new(ci, co, k, d, &mut r);
            let input = Tensor::from_fn(ci, h, w, |c, y, x| {
                ((c * 31 + y * 7 + x) as f32 * 0.13).sin()
            });
            let reference = conv.forward_reference(&input);
            for band in 1..=h {
                // Poison the pool: the row-range lowering must write
                // every element, padding zeros included.
                let mut ws = Workspace::new();
                ws.give(vec![f32::NAN; ci * k * k * h * w]);
                let mut y0 = 0;
                while y0 < h {
                    let rows = y0..(y0 + band).min(h);
                    let n = rows.len() * w;
                    let mut out = vec![0.0; co * n];
                    conv.forward_rows_into(&input, rows.clone(), &mut out, &mut ws);
                    for o in 0..co {
                        assert_eq!(
                            &out[o * n..(o + 1) * n],
                            &reference.channel(o)[y0 * w..y0 * w + n],
                            "conv {ci}->{co} k{k} d{d} band {band} rows {rows:?}"
                        );
                    }
                    y0 = rows.end;
                }
            }
        }
    }

    #[test]
    fn band_rows_follow_the_column_budget() {
        let mut r = rng();
        let conv = Conv2d::new(3, 16, 3, 2, &mut r);
        // 64 Ki / 27 = 2427 columns: 9 rows of a 256 px frame.
        assert_eq!(conv.band_rows(256), 9);
        assert_eq!(conv.band_rows(1), 2427);
        assert_eq!(conv.band_rows(10_000), 1);
        assert_eq!(conv.band_rows(0), 2427);
    }

    #[test]
    fn forward_with_is_allocation_free_when_warm() {
        let mut r = rng();
        let conv = Conv2d::new(3, 8, 3, 2, &mut r);
        let input = Tensor::full(3, 16, 16, 0.5);
        let mut ws = Workspace::new();
        let out = conv.forward_with(&input, &mut ws);
        ws.recycle(out);
        let misses = ws.takes_missed();
        for _ in 0..5 {
            let out = conv.forward_with(&input, &mut ws);
            ws.recycle(out);
        }
        assert_eq!(ws.takes_missed(), misses, "warm passes must not allocate");
    }

    #[test]
    fn serde_roundtrip_preserves_weights() {
        let mut r = rng();
        let conv = Conv2d::new(2, 3, 3, 2, &mut r);
        let json = serde_json::to_string(&conv).unwrap();
        let mut back: Conv2d = serde_json::from_str(&json).unwrap();
        back.reset_state();
        assert_eq!(back.weight(), conv.weight());
        assert_eq!(back.bias(), conv.bias());
        assert_eq!(back.dilation(), 2);
    }
}
