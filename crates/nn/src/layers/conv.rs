//! 2-D convolution with arbitrary dilation ("same" padding, stride 1).
//!
//! The forward pass has one lowering, [`Conv2d::forward_blocks`]: the
//! input is copied once into a zero-padded buffer, and each block of
//! [`CONV_BLOCK`] consecutive padded positions is one register-blocked
//! GEMM whose B rows are the taps' slices of that buffer, read through a
//! row table (`el_kernels::Kernels::gemm_bias`). No im2col matrix is
//! built. The naive per-tap loop is retained as
//! [`Conv2d::forward_reference`] for equivalence tests and benchmark
//! baselines.

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

    /// Optimized, allocation-free forward pass: [`Conv2d::forward_blocks`]
    /// on this one convolution, each block's outputs copied into their
    /// pixels of the output tensor, every buffer drawn from `ws`.
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
        let mut out = ws.take_tensor(self.out_channels, h, w);
        Conv2d::forward_blocks([self], input, false, ws, |block, runs| {
            runs.scatter(block, out.as_mut_slice());
        });
        out
    }

    /// The implicit lowering every convolution of the engine runs:
    /// `convs` (all reading `input`) evaluated block by block over one
    /// zero-padded copy of `input`.
    ///
    /// The copy pads `input` by the widest "same" padding among `convs`
    /// on every side, so the image's pixels sit at flat positions
    /// `(r + y) · (w + 2r) + r + x` of each padded plane. Walking those
    /// positions from the first pixel to the last in blocks of
    /// [`CONV_BLOCK`], every block is one GEMM per convolution: row
    /// `(in, ky, kx)` of its B operand is the contiguous slice of the
    /// padded plane `in` that tap reads for the block's positions, named
    /// by a row table (`el_kernels::Kernels::gemm_bias`), so no im2col
    /// matrix is built. The convolutions' outputs stack into one
    /// `[out channel][CONV_BLOCK]` block (the first convolution's
    /// channels first), rectified on store when `relu` is set, and
    /// `visit(block, runs)` receives it with the block's [`BlockRuns`]:
    /// columns that land in pad columns are not pixels and are left out
    /// of the runs. The last block may reach past the last pixel; its
    /// extra columns are dropped the same way.
    ///
    /// Every output element is one GEMM column that starts from the bias
    /// and accumulates its taps strictly in `(in, ky, kx)` order, so any
    /// block partition reproduces [`Conv2d::forward_reference`] bit for
    /// bit. Allocation-free with a warm workspace.
    ///
    /// # Panics
    ///
    /// Panics if some convolution does not take `input`'s channel count.
    pub fn forward_blocks<'a, I>(
        convs: I,
        input: &Tensor,
        relu: bool,
        ws: &mut Workspace,
        mut visit: impl FnMut(&[f32], BlockRuns),
    ) where
        I: IntoIterator<Item = &'a Conv2d>,
        I::IntoIter: Clone,
    {
        let convs = convs.into_iter();
        let (c, h, w) = input.shape();
        let (mut m_all, mut k_all, mut radius) = (0, 0, 0);
        for conv in convs.clone() {
            assert_eq!(
                c, conv.in_channels,
                "Conv2d expected {} input channels, got {c}",
                conv.in_channels
            );
            m_all += conv.out_channels;
            k_all += conv.k_dim();
            radius = radius.max(conv.padding());
        }
        let layout = PaddedLayout {
            height: h,
            width: w,
            radius,
        };
        let wp = layout.padded_width();
        let padded = layout.pad(input, ws);
        let mut rows = ws.take_rows(k_all);
        let mut k0 = 0;
        for conv in convs.clone() {
            conv.tap_rows(&layout, &mut rows[k0..k0 + conv.k_dim()]);
            k0 += conv.k_dim();
        }
        let mut block = ws.take(m_all * CONV_BLOCK);
        let kernels = el_kernels::active();
        for q0 in layout.span().step_by(CONV_BLOCK) {
            let (mut o, mut k0) = (0, 0);
            for conv in convs.clone() {
                let (m, k) = (conv.out_channels, conv.k_dim());
                // The tap table is relative to the block's top-left tap.
                let base = q0 - conv.padding() * (wp + 1);
                kernels.gemm_bias(
                    &conv.weight,
                    &padded[base..],
                    &rows[k0..k0 + k],
                    &conv.bias,
                    &mut block[o * CONV_BLOCK..(o + m) * CONV_BLOCK],
                    m,
                    CONV_BLOCK,
                    relu,
                );
                (o, k0) = (o + m, k0 + k);
            }
            visit(&block, layout.runs(q0));
        }
        ws.give(block);
        ws.give_rows(rows);
        ws.give(padded);
    }

    /// The "same" padding: how far the kernel reaches from its centre.
    fn padding(&self) -> usize {
        (self.dilation * (self.kernel - 1)) / 2
    }

    /// Reduction depth of the lowered GEMM: one B row per `(in, ky, kx)`
    /// tap.
    fn k_dim(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Writes this convolution's tap row table over `layout` into `rows`:
    /// tap `(in, ky, kx)`, in the reference loop's accumulation order,
    /// reads plane `in` at `ky · dilation` rows and `kx · dilation`
    /// columns past the block's top-left tap.
    fn tap_rows(&self, layout: &PaddedLayout, rows: &mut [usize]) {
        let (wp, plane, d) = (layout.padded_width(), layout.plane(), self.dilation);
        let taps = (0..self.in_channels).flat_map(|i| {
            (0..self.kernel)
                .flat_map(move |ky| (0..self.kernel).map(move |kx| i * plane + (ky * wp + kx) * d))
        });
        for (row, tap) in rows.iter_mut().zip(taps) {
            *row = tap;
        }
    }
}

/// Padded positions per block of [`Conv2d::forward_blocks`]: 64 GEMM
/// columns are whole column tiles on every kernel tier, and a block's
/// outputs and tap slices stay in L1.
pub const CONV_BLOCK: usize = 64;

/// Where an `height x width` image sits inside its copy zero-padded by
/// `radius` on every side.
#[derive(Debug, Clone, Copy)]
struct PaddedLayout {
    height: usize,
    width: usize,
    radius: usize,
}

impl PaddedLayout {
    fn padded_width(&self) -> usize {
        self.width + 2 * self.radius
    }

    fn plane(&self) -> usize {
        (self.height + 2 * self.radius) * self.padded_width()
    }

    /// Flat padded positions from the first pixel to one past the last.
    fn span(&self) -> Range<usize> {
        if self.height == 0 || self.width == 0 {
            return 0..0;
        }
        let (r, wp) = (self.radius, self.padded_width());
        r * wp + r..(r + self.height - 1) * wp + r + self.width
    }

    /// The pixel runs of the block starting at padded position `q0`.
    fn runs(&self, q0: usize) -> BlockRuns {
        BlockRuns {
            layout: *self,
            q0,
            q: q0,
            end: (q0 + CONV_BLOCK).min(self.span().end),
        }
    }

    /// A padded copy of `input` from `ws`: every plane, then
    /// `CONV_BLOCK - 1` zeros of slack for the last block's columns past
    /// the last pixel. Every element is written.
    fn pad(&self, input: &Tensor, ws: &mut Workspace) -> Vec<f32> {
        let (r, w, plane) = (self.radius, self.width, self.plane());
        let mut buf = ws.take(input.channels() * plane + CONV_BLOCK - 1);
        let (planes, slack) = buf.split_at_mut(input.channels() * plane);
        slack.fill(0.0);
        if plane > 0 {
            for (ch, dst) in planes.chunks_exact_mut(plane).enumerate() {
                let src = input.channel(ch);
                for (py, row) in dst.chunks_exact_mut(self.padded_width()).enumerate() {
                    match py.checked_sub(r).filter(|&y| y < self.height) {
                        Some(y) => {
                            row[..r].fill(0.0);
                            row[r..r + w].copy_from_slice(&src[y * w..][..w]);
                            row[r + w..].fill(0.0);
                        }
                        None => row.fill(0.0),
                    }
                }
            }
        }
        buf
    }
}

/// The pixel runs of one [`Conv2d::forward_blocks`] block, in order:
/// `(columns, pixel)` pairs, where `columns` is a range of the block's
/// columns and `pixel = y · width + x` is the flat image index of its
/// first column's pixel (the rest follow along the row).
#[derive(Debug, Clone)]
pub struct BlockRuns {
    layout: PaddedLayout,
    q0: usize,
    q: usize,
    end: usize,
}

impl Iterator for BlockRuns {
    type Item = (Range<usize>, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let (r, w, wp) = (
            self.layout.radius,
            self.layout.width,
            self.layout.padded_width(),
        );
        while self.q < self.end {
            let (py, px) = (self.q / wp, self.q % wp);
            if px < r {
                self.q = py * wp + r;
            } else if px >= r + w {
                self.q = (py + 1) * wp + r;
            } else {
                let stop = (py * wp + r + w).min(self.end);
                let run = (self.q - self.q0..stop - self.q0, (py - r) * w + px - r);
                self.q = stop;
                return Some(run);
            }
        }
        None
    }
}

impl BlockRuns {
    /// Copies each run of `block` (`[channel][CONV_BLOCK]`) into its
    /// pixels of `planes` (`[channel][height · width]`).
    pub fn scatter(self, block: &[f32], planes: &mut [f32]) {
        let hw = self.layout.height * self.layout.width;
        for (cols, pixel) in self {
            for (src, dst) in block
                .chunks_exact(CONV_BLOCK)
                .zip(planes.chunks_exact_mut(hw))
            {
                dst[pixel..pixel + cols.len()].copy_from_slice(&src[cols.clone()]);
            }
        }
    }
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
    fn stacked_blocks_match_reference_over_stale_scratch() {
        let mut r = rng();
        for (k0, k1, d0, d1, h, w) in [
            (3, 3, 1, 4, 9, 9),
            (3, 3, 2, 1, 11, 6),
            (5, 1, 1, 1, 7, 11),
            (3, 3, 4, 2, 3, 3), // receptive field larger than the image
            (1, 3, 1, 2, 1, 1),
            (3, 1, 1, 1, 1, 70), // one row spanning two blocks
            (3, 3, 1, 1, 70, 1),
            (3, 3, 2, 4, 5, 64),
        ] {
            let convs = [
                Conv2d::new(2, 3, k0, d0, &mut r),
                Conv2d::new(2, 4, k1, d1, &mut r),
            ];
            let input = Tensor::from_fn(2, h, w, |c, y, x| {
                ((c * 31 + y * 7 + x) as f32 * 0.13).sin()
            });
            let mut expect: Vec<f32> = Vec::new();
            for conv in &convs {
                expect.extend(conv.forward_reference(&input).as_slice());
            }
            for relu in [false, true] {
                // Poison the pool: the padded copy must write every
                // element, its zeros included.
                let mut ws = Workspace::new();
                ws.give(vec![f32::NAN; 4 * (h + 8) * (w + 8) + 1024]);
                let mut got = vec![f32::NAN; 7 * h * w];
                let mut next = 0;
                Conv2d::forward_blocks(&convs, &input, relu, &mut ws, |block, runs| {
                    for (cols, pixel) in runs.clone() {
                        assert_eq!(pixel, next, "runs tile the image in order");
                        next += cols.len();
                    }
                    runs.scatter(block, &mut got);
                });
                assert_eq!(next, h * w, "runs cover the image");
                let expect: Vec<f32> = if relu {
                    expect.iter().map(|&v| el_kernels::relu(v)).collect()
                } else {
                    expect.clone()
                };
                assert_eq!(got, expect, "k{k0}/{k1} d{d0}/{d1} {h}x{w} relu {relu}");
            }
        }
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
