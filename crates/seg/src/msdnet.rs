//! The Multi-Scale-Dilation segmentation network.

use el_nn::layers::{
    keyed_row_seed, BlockRuns, Conv2d, Dropout, Layer, ParamRef, Phase, Relu, CONV_BLOCK,
};
use el_nn::{Tensor, Workspace};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Configuration of an [`MsdNet`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MsdNetConfig {
    /// Input channels (3 for RGB).
    pub in_channels: usize,
    /// Channels produced by each dilated branch.
    pub branch_channels: usize,
    /// Dilation factor of each parallel branch (one branch per entry).
    pub dilations: Vec<usize>,
    /// Hidden width of the fusion head.
    pub head_hidden: usize,
    /// Output classes (8 for UAVid).
    pub classes: usize,
    /// Dropout rate on every dropout layer (the paper uses 0.5).
    pub dropout: f32,
}

impl MsdNetConfig {
    /// The default configuration used by the experiments: three branches
    /// with dilations 1/2/4, 16 channels each, 32 hidden units, 8 classes,
    /// dropout 0.5 (the paper's rate).
    ///
    /// Capacity matters for the monitor: Monte-Carlo dropout yields small
    /// in-distribution `σ` only when the trained network has *redundant*
    /// connections for its confident predictions (the paper's own
    /// intuition) — an under-sized network is uncertain everywhere and the
    /// monitor would reject every zone.
    pub fn default_uavid() -> Self {
        MsdNetConfig {
            in_channels: 3,
            branch_channels: 16,
            dilations: vec![1, 2, 4],
            head_hidden: 32,
            classes: 8,
            dropout: 0.5,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        MsdNetConfig {
            in_channels: 3,
            branch_channels: 4,
            dilations: vec![1, 2],
            head_hidden: 8,
            classes: 8,
            dropout: 0.5,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.in_channels == 0 || self.branch_channels == 0 || self.head_hidden == 0 {
            return Err("channel counts must be positive".into());
        }
        if self.dilations.is_empty() {
            return Err("at least one dilated branch is required".into());
        }
        if self.dilations.contains(&0) {
            return Err("dilations must be positive".into());
        }
        if self.classes < 2 {
            return Err("at least two classes are required".into());
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err("dropout must be in [0, 1)".into());
        }
        Ok(())
    }
}

impl Default for MsdNetConfig {
    fn default() -> Self {
        Self::default_uavid()
    }
}

/// One dilated branch: conv → ReLU → dropout.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Branch {
    conv: Conv2d,
    relu: Relu,
    drop: Dropout,
}

/// The Multi-Scale-Dilation network.
///
/// Architecture (in the spirit of the paper's MSDnet): parallel 3x3
/// convolution branches with increasing dilation — each seeing a larger
/// receptive field at the same cost — concatenated and fused by a small
/// 1x1-convolution head:
///
/// ```text
/// input ─┬─ conv3x3 d=1 ─ relu ─ drop ─┐
///        ├─ conv3x3 d=2 ─ relu ─ drop ─┼─ concat ─ conv1x1 ─ relu ─ drop ─ conv1x1 → logits
///        └─ conv3x3 d=4 ─ relu ─ drop ─┘
/// ```
///
/// Dropout appears after every stage, so one Monte-Carlo sample with
/// dropout live is exactly one pass of the paper's Bayesian MSDnet
/// (Monte-Carlo dropout with rate 0.5). That sample has one definition:
/// [`MsdNet::mc_prefix`] (once per crop) followed by
/// [`MsdNet::mc_sample_blocks`] under coordinate-keyed masks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MsdNet {
    config: MsdNetConfig,
    branches: Vec<Branch>,
    head1: Conv2d,
    head_relu: Relu,
    head_drop: Dropout,
    head2: Conv2d,
}

/// Mask-key layer id of the branch-output dropout stage (the channel key
/// is the **fused** channel index, so every branch keys distinctly).
const MC_LAYER_BRANCH: u32 = 0;
/// Mask-key layer id of the fusion-head dropout stage.
const MC_LAYER_HEAD: u32 = 1;

impl MsdNet {
    /// Builds a network with freshly initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MsdNetConfig::validate`].
    pub fn new(config: &MsdNetConfig, rng: &mut dyn RngCore) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid MsdNet configuration: {e}");
        }
        let branches = config
            .dilations
            .iter()
            .map(|&d| Branch {
                conv: Conv2d::new(config.in_channels, config.branch_channels, 3, d, rng),
                relu: Relu::default(),
                drop: Dropout::new(config.dropout),
            })
            .collect();
        let fused = config.branch_channels * config.dilations.len();
        MsdNet {
            config: config.clone(),
            branches,
            head1: Conv2d::new(fused, config.head_hidden, 1, 1, rng),
            head_relu: Relu::default(),
            head_drop: Dropout::new(config.dropout),
            head2: Conv2d::new(config.head_hidden, config.classes, 1, 1, rng),
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &MsdNetConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.config.classes
    }

    /// Sets the dropout rate on every dropout layer (ablation knob).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate < 1`.
    pub fn set_dropout(&mut self, rate: f32) {
        for b in &mut self.branches {
            b.drop.set_rate(rate);
        }
        self.head_drop.set_rate(rate);
        self.config.dropout = rate;
    }

    /// Serializes the model (weights + config) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("MsdNet serialization cannot fail")
    }

    /// Restores a model from [`MsdNet::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error message on malformed input.
    pub fn from_json(json: &str) -> Result<MsdNet, String> {
        let mut net: MsdNet = serde_json::from_str(json).map_err(|e| e.to_string())?;
        for b in &mut net.branches {
            b.conv.reset_state();
        }
        net.head1.reset_state();
        net.head2.reset_state();
        Ok(net)
    }

    /// The Monte-Carlo-invariant prefix of a stochastic forward pass:
    /// every dilated branch's `conv → relu`, concatenated along channels.
    ///
    /// No dropout layer precedes this computation, so the result is
    /// identical across all Monte-Carlo-dropout samples — the monitor
    /// computes it **once** per verified crop or audit tile and replays
    /// only the stochastic suffix ([`MsdNet::mc_sample_blocks`]) per sample.
    /// The branches run together through [`Conv2d::forward_blocks`], the
    /// lowering [`MsdNet::eval_blocks`] runs, with ReLU applied as each
    /// GEMM stores, and each block's pixels are copied into the fused
    /// tensor. Immutable on `self` and allocation-free with a warm
    /// workspace.
    pub fn mc_prefix(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        let (h, w) = (input.height(), input.width());
        let mut fused = ws.take_tensor(self.config.branch_channels * self.branches.len(), h, w);
        Conv2d::forward_blocks(self.branch_convs(), input, true, ws, |block, runs| {
            runs.scatter(block, fused.as_mut_slice());
        });
        fused
    }

    /// The dilated branches' convolutions, in fused-channel order.
    fn branch_convs(&self) -> impl Iterator<Item = &Conv2d> + Clone {
        self.branches.iter().map(|b| &b.conv)
    }

    /// The network's receptive radius: how far (in pixels) an output can
    /// depend on its input neighbourhood. Everything after the dilated
    /// branch convolutions is pointwise, so this is just the widest
    /// branch's half-width — the halo the tiled Bayesian sweep computes
    /// around each kept interior, and the minimum tile margin it accepts.
    pub fn receptive_radius(&self) -> usize {
        self.branches
            .iter()
            .map(|b| b.conv.receptive_field() / 2)
            .max()
            .unwrap_or(0)
    }

    /// One Monte-Carlo-dropout sample of the suffix over a prefix from
    /// [`MsdNet::mc_prefix`]: calls `visit(p0, logits)` for consecutive
    /// pixel blocks `p0..p0 + n` (`n <= 64`, logits `[class][n]`), each run
    /// through branch masks, head1 (ReLU on store), head mask and head2 in
    /// one L1-resident scratch buffer. Masks are **coordinate-keyed**
    /// ([`el_nn::layers::keyed_mask_word`] of the sample seed and the
    /// *global* frame coordinates; `origin` locates the crop), so a block,
    /// crop or tile draws exactly the whole frame's masks, and each logit
    /// is a GEMM column in strict `k` order whatever the block.
    /// Immutable on `self`, allocation-free warm.
    pub fn mc_sample_blocks(
        &self,
        fused: &Tensor,
        sample_seed: u64,
        origin: (usize, usize),
        ws: &mut Workspace,
        mut visit: impl FnMut(usize, &mut [f32]),
    ) {
        let (c, h, w) = fused.shape();
        let (hw, hid, classes) = (h * w, self.config.head_hidden, self.config.classes);
        let (head1, head2, kernels) = (&self.head1, &self.head2, el_kernels::active());
        let mut scratch = ws.take((c + hid + classes) * CONV_BLOCK);
        let mut rows = ws.take_rows(c.max(hid));
        for p0 in (0..hw).step_by(CONV_BLOCK) {
            let n = CONV_BLOCK.min(hw - p0);
            dense_rows(&mut rows, n);
            let (x, rest) = scratch.split_at_mut(c * n);
            let (y, z) = rest.split_at_mut(hid * n);
            // The block's row segments: (range in the block, global y, x).
            let segments = (p0 / w..=(p0 + n - 1) / w).map(move |r| {
                let (a, b) = ((r * w).max(p0), ((r + 1) * w).min(p0 + n));
                (a - p0..b - p0, origin.0 + r, origin.1 + a - r * w)
            });
            for (ch, row) in x.chunks_exact_mut(n).enumerate() {
                let src = &fused.channel(ch)[p0..p0 + n];
                let rate = self.branches[ch / self.config.branch_channels].drop.rate();
                if rate == 0.0 {
                    row.copy_from_slice(src);
                    continue;
                }
                let scale = 1.0 / (1.0 - rate);
                for (seg, gy, gx) in segments.clone() {
                    let rs = keyed_row_seed(sample_seed, MC_LAYER_BRANCH, ch, gy);
                    kernels.mask_scale_row(rs, gx, rate, scale, &src[seg.clone()], &mut row[seg]);
                }
            }
            kernels.gemm_bias(head1.weight(), x, &rows[..c], head1.bias(), y, hid, n, true);
            let rate = self.head_drop.rate();
            if rate > 0.0 {
                let scale = 1.0 / (1.0 - rate);
                for (ch, row) in y.chunks_exact_mut(n).enumerate() {
                    for (seg, gy, gx) in segments.clone() {
                        let rs = keyed_row_seed(sample_seed, MC_LAYER_HEAD, ch, gy);
                        kernels.mask_scale_row_in_place(rs, gx, rate, scale, &mut row[seg]);
                    }
                }
            }
            let z = &mut z[..classes * n];
            let (w2, b2) = (head2.weight(), head2.bias());
            kernels.gemm_bias(w2, y, &rows[..hid], b2, z, classes, n, false);
            visit(p0, z);
        }
        ws.give_rows(rows);
        ws.give(scratch);
    }

    /// Deterministic (Eval-phase) inference block by block: calls
    /// `visit(logits, runs)` once per [`Conv2d::forward_blocks`] block of
    /// the zero-padded input, in order, with the block's logits laid out
    /// `[class][CONV_BLOCK]` and its [`BlockRuns`] naming which columns
    /// are pixels.
    ///
    /// The dropout layers are identities in Eval, so each block runs
    /// every branch's GEMM with ReLU on store into one fused
    /// `[channel][CONV_BLOCK]` block, then head1 (ReLU on store) and
    /// head2, in an L1-resident scratch of about 29 KB: no whole-frame
    /// activation is ever built. Every logit is bit-identical to
    /// `forward(.., Phase::Eval, ..)`: each one is a GEMM column with the
    /// same strict `k` order whatever the block. Immutable on `self` and
    /// allocation-free with a warm workspace.
    pub fn eval_blocks(
        &self,
        input: &Tensor,
        ws: &mut Workspace,
        mut visit: impl FnMut(&[f32], BlockRuns),
    ) {
        let c = self.config.branch_channels * self.branches.len();
        let (hid, classes) = (self.config.head_hidden, self.config.classes);
        let (head1, head2, kernels) = (&self.head1, &self.head2, el_kernels::active());
        let mut heads = ws.take((hid + classes) * CONV_BLOCK);
        let mut rows = ws.take_rows(c.max(hid));
        dense_rows(&mut rows, CONV_BLOCK);
        Conv2d::forward_blocks(self.branch_convs(), input, true, ws, |fused, runs| {
            let (y, z) = heads.split_at_mut(hid * CONV_BLOCK);
            let (w1, b1, w2, b2) = (head1.weight(), head1.bias(), head2.weight(), head2.bias());
            kernels.gemm_bias(w1, fused, &rows[..c], b1, y, hid, CONV_BLOCK, true);
            kernels.gemm_bias(w2, y, &rows[..hid], b2, z, classes, CONV_BLOCK, false);
            visit(z, runs);
        });
        ws.give_rows(rows);
        ws.give(heads);
    }
}

/// Fills a dense row table: B row `k` of a row-major `[k][n]` operand
/// starts at `k · n`.
fn dense_rows(rows: &mut [usize], n: usize) {
    for (k, row) in rows.iter_mut().enumerate() {
        *row = k * n;
    }
}

impl Layer for MsdNet {
    fn forward(&mut self, input: &Tensor, phase: Phase, rng: &mut dyn RngCore) -> Tensor {
        let mut outs = Vec::with_capacity(self.branches.len());
        for b in &mut self.branches {
            let y = b.conv.forward(input, phase, rng);
            let y = b.relu.forward(&y, phase, rng);
            outs.push(b.drop.forward(&y, phase, rng));
        }
        let refs: Vec<&Tensor> = outs.iter().collect();
        let fused = Tensor::concat_channels(&refs).expect("branch outputs share shapes");
        let y = self.head1.forward(&fused, phase, rng);
        let y = self.head_relu.forward(&y, phase, rng);
        let y = self.head_drop.forward(&y, phase, rng);
        self.head2.forward(&y, phase, rng)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.head2.backward(grad_out);
        let g = self.head_drop.backward(&g);
        let g = self.head_relu.backward(&g);
        let g = self.head1.backward(&g);
        let sizes = vec![self.config.branch_channels; self.branches.len()];
        let parts = g.split_channels(&sizes).expect("fused gradient splits");
        let mut grad_in: Option<Tensor> = None;
        for (b, gp) in self.branches.iter_mut().zip(parts) {
            let g = b.drop.backward(&gp);
            let g = b.relu.backward(&g);
            let g = b.conv.backward(&g);
            match &mut grad_in {
                None => grad_in = Some(g),
                Some(acc) => acc.add_assign(&g).expect("branch input grads share shapes"),
            }
        }
        grad_in.expect("at least one branch")
    }

    fn zero_grad(&mut self) {
        for b in &mut self.branches {
            b.conv.zero_grad();
        }
        self.head1.zero_grad();
        self.head2.zero_grad();
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        let mut out = Vec::new();
        for b in &mut self.branches {
            out.extend(b.conv.params());
        }
        out.extend(self.head1.params());
        out.extend(self.head2.params());
        out
    }

    fn param_count(&self) -> usize {
        self.branches
            .iter()
            .map(|b| b.conv.param_count())
            .sum::<usize>()
            + self.head1.param_count()
            + self.head2.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_nn::gradcheck::{check_input_gradient, check_param_gradients};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    #[test]
    fn output_shape_and_params() {
        let mut r = rng();
        let cfg = MsdNetConfig::default_uavid();
        let mut net = MsdNet::new(&cfg, &mut r);
        let y = net.forward(&Tensor::zeros(3, 12, 10), Phase::Eval, &mut r);
        assert_eq!(y.shape(), (8, 12, 10));
        // 3 branches of (3*16*9 + 16) + head1 (48*32 + 32) + head2 (32*8 + 8).
        assert_eq!(
            net.param_count(),
            3 * (3 * 16 * 9 + 16) + (48 * 32 + 32) + (32 * 8 + 8)
        );
    }

    #[test]
    fn eval_is_deterministic() {
        let mut r = rng();
        let cfg = MsdNetConfig::tiny();
        let mut net = MsdNet::new(&cfg, &mut r);
        let x = Tensor::from_fn(3, 8, 8, |_, y, x| ((y * 8 + x) as f32 * 0.01).sin());
        let a = net.forward(&x, Phase::Eval, &mut r);
        let b = net.forward(&x, Phase::Eval, &mut r);
        assert_eq!(a, b);
    }

    #[test]
    fn gradient_check_composite() {
        let mut r = rng();
        let mut cfg = MsdNetConfig::tiny();
        cfg.dropout = 0.25;
        let mut net = MsdNet::new(&cfg, &mut r);
        let mut xr = ChaCha8Rng::seed_from_u64(1);
        let x = Tensor::from_fn(3, 6, 6, |_, _, _| xr.gen_range(-1.0..1.0f32));
        let seed = Tensor::from_fn(8, 6, 6, |_, _, _| xr.gen_range(-1.0..1.0f32));
        // Mean-error criterion: finite differences through a composite can
        // cross a ReLU kink at isolated coordinates (see el-nn gradcheck
        // docs); the mean is the robust acceptance test here. Parameter
        // gradients additionally suffer f32 cancellation noise (each weight
        // influences every spatial position), so the numeric check is a
        // loose smoke test and the exact wiring is verified by
        // `param_grads_match_equivalent_sequential` below.
        let res = check_input_gradient(&mut net, &x, &seed, &r, 20, 5e-4);
        assert!(
            res.passes_mean(1e-2),
            "input grad err {}",
            res.mean_rel_error
        );
        let res = check_param_gradients(&mut net, &x, &seed, &r, 6, 2e-3);
        assert!(
            res.passes_mean(1e-1),
            "param grad err {}",
            res.mean_rel_error
        );
    }

    #[test]
    fn param_grads_match_equivalent_sequential() {
        use el_nn::layers::Sequential;
        // A single-branch MsdNet with dropout 0 is exactly the stack
        // conv3x3 - relu - conv1x1 - relu - conv1x1 (dropouts are
        // identities and consume no RNG at rate 0). Its parameter
        // gradients must match the Sequential's bit for bit — this pins
        // down the concat/split wiring without finite-difference noise.
        let mut r = rng();
        let mut cfg = MsdNetConfig::tiny();
        cfg.dilations = vec![2];
        cfg.dropout = 0.0;
        let mut net = MsdNet::new(&cfg, &mut r);

        let mut seq = Sequential::new();
        seq.push(net.branches[0].conv.clone());
        seq.push(Relu::default());
        seq.push(net.head1.clone());
        seq.push(Relu::default());
        seq.push(net.head2.clone());

        let mut xr = ChaCha8Rng::seed_from_u64(21);
        let x = Tensor::from_fn(3, 6, 6, |_, _, _| xr.gen_range(-1.0..1.0f32));
        let seed = Tensor::from_fn(8, 6, 6, |_, _, _| xr.gen_range(-1.0..1.0f32));

        net.zero_grad();
        let ya = net.forward(&x, Phase::Train, &mut r);
        let ga = net.backward(&seed);
        seq.zero_grad();
        let yb = seq.forward(&x, Phase::Train, &mut r);
        let gb = seq.backward(&seed);

        assert_eq!(ya, yb, "forward passes diverge");
        assert_eq!(ga, gb, "input gradients diverge");
        let pa: Vec<Vec<f32>> = net.params().iter().map(|p| p.grad.to_vec()).collect();
        let pb: Vec<Vec<f32>> = seq.params().iter().map(|p| p.grad.to_vec()).collect();
        assert_eq!(pa, pb, "parameter gradients diverge");
    }

    #[test]
    fn set_dropout_applies_everywhere() {
        let mut r = rng();
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut r);
        net.set_dropout(0.0);
        let x = Tensor::from_fn(3, 8, 8, |_, y, x| ((y + x) as f32 * 0.1).cos());
        // With dropout 0, train == eval.
        let a = net.forward(&x, Phase::Train, &mut r);
        let b = net.forward(&x, Phase::Eval, &mut r);
        assert_eq!(a, b);
    }

    #[test]
    fn engine_paths_match_layer_forward() {
        let mut r = rng();
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut r);
        let mut ws = Workspace::new();
        // Frames narrower than a block, one column, one row, a row
        // spanning several blocks, and heights below the receptive radius.
        for (h, w) in [
            (19, 300),
            (5, 29),
            (1, 1),
            (70, 1),
            (1, 130),
            (2, 64),
            (9, 65),
        ] {
            let x = Tensor::from_fn(3, h, w, |c, y, x| {
                ((c * 11 + y * 3 + x) as f32 * 0.21).sin()
            });
            let eval_fwd = net.forward(&x, Phase::Eval, &mut r.clone());
            let mut blocked = Tensor::full(net.classes(), h, w, f32::NAN);
            let mut next = 0;
            net.eval_blocks(&x, &mut ws, |logits, runs| {
                for (cols, pixel) in runs.clone() {
                    assert_eq!(pixel, next, "runs tile the frame in order");
                    next += cols.len();
                }
                runs.scatter(logits, blocked.as_mut_slice());
            });
            assert_eq!(next, h * w, "blocks cover the frame");
            assert_eq!(
                blocked, eval_fwd,
                "eval_blocks diverges from forward on {h}x{w}"
            );
        }
    }

    #[test]
    fn forward_reference_matches_optimized() {
        let mut r = rng();
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut r);
        let x = Tensor::from_fn(3, 8, 8, |c, y, x| ((c + 2 * y + 3 * x) as f32 * 0.11).cos());
        let a = net.forward(&x, Phase::Eval, &mut r);
        // The Eval network spelled out over the naive convolution oracle.
        let outs: Vec<Tensor> = net
            .branches
            .iter()
            .map(|b| {
                let mut y = b.conv.forward_reference(&x);
                Relu::apply(&mut y);
                y
            })
            .collect();
        let refs: Vec<&Tensor> = outs.iter().collect();
        let fused = Tensor::concat_channels(&refs).unwrap();
        let mut y = net.head1.forward_reference(&fused);
        Relu::apply(&mut y);
        let b = net.head2.forward_reference(&y);
        assert_eq!(a, b, "naive reference and optimized forward diverge");
    }

    #[test]
    fn keyed_sample_with_zero_dropout_matches_eval() {
        // With dropout 0 a Monte-Carlo sample is the deterministic head
        // pass, so it must agree exactly with Eval inference. This pins
        // the slab-writing prefix and the block walk against
        // `Layer::forward` on every shape a clipped audit prefix can
        // take: square, 1x1, 1xN, Nx1, smaller than the receptive radius
        // (tiny: radius 2) and more than one 64-pixel block, on a stale
        // workspace.
        let mut r = rng();
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut r);
        net.set_dropout(0.0);
        let mut ws = Workspace::new();
        ws.give(vec![f32::NAN; 3 * 4 * 64]);
        for (h, w) in [
            (6, 6),
            (1, 1),
            (1, 7),
            (9, 1),
            (2, 1),
            (1, 2),
            (2, 2),
            (3, 5),
            (8, 9),
            (1, 65),
        ] {
            let x = Tensor::from_fn(3, h, w, |c, y, x| ((c + y * 2 + x) as f32 * 0.31).sin());
            let fused = net.mc_prefix(&x, &mut ws);
            let hw = h * w;
            let mut keyed = Tensor::full(net.classes(), h, w, f32::NAN);
            let mut next = 0;
            net.mc_sample_blocks(&fused, 9, (0, 0), &mut ws, |p0, logits| {
                assert_eq!(p0, next, "blocks arrive in order");
                let n = logits.len() / net.classes();
                for (k, plane) in logits.chunks_exact(n).enumerate() {
                    keyed.as_mut_slice()[k * hw + p0..][..n].copy_from_slice(plane);
                }
                next += n;
            });
            assert_eq!(next, hw, "blocks cover the crop");
            assert_eq!(
                keyed,
                net.forward(&x, Phase::Eval, &mut r),
                "prefix + keyed sample diverges from Eval on {h}x{w}"
            );
            ws.recycle(fused);
        }
    }

    #[test]
    fn mc_prefix_matches_reference_branches_plus_relu() {
        // The prefix is every branch's naive convolution, rectified and
        // concatenated, bit for bit (after ReLU even the sign of a zero
        // agrees): on crops one column wide, a monitor crop's 29, 37, one
        // block and one past it, at heights below the receptive radius
        // and above, from a NaN-poisoned workspace.
        let mut r = rng();
        for cfg in [MsdNetConfig::tiny(), MsdNetConfig::default_uavid()] {
            let net = MsdNet::new(&cfg, &mut r);
            let mut ws = Workspace::new();
            ws.give(vec![f32::NAN; 1 << 16]);
            ws.give(vec![f32::NAN; 1 << 12]);
            for w in [1, 29, 37, 64, 65] {
                for h in [1, 3, 29] {
                    let x = Tensor::from_fn(3, h, w, |c, y, x| {
                        ((c * 13 + y * 5 + x) as f32 * 0.37).sin()
                    });
                    let outs: Vec<Tensor> = net
                        .branches
                        .iter()
                        .map(|b| {
                            let mut y = b.conv.forward_reference(&x);
                            Relu::apply(&mut y);
                            y
                        })
                        .collect();
                    let refs: Vec<&Tensor> = outs.iter().collect();
                    let expect = Tensor::concat_channels(&refs).unwrap();
                    let fused = net.mc_prefix(&x, &mut ws);
                    let bits =
                        |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&fused), bits(&expect), "mc_prefix diverges on {h}x{w}");
                    ws.recycle(fused);
                }
            }
        }
    }

    #[test]
    fn receptive_radius_matches_widest_branch() {
        let mut r = rng();
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut r);
        // tiny: 3x3 branches at dilations 1 and 2 -> radius 2.
        assert_eq!(net.receptive_radius(), 2);
        let net = MsdNet::new(&MsdNetConfig::default_uavid(), &mut r);
        // dilations 1/2/4 -> radius 4.
        assert_eq!(net.receptive_radius(), 4);
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let mut r = rng();
        let mut net = MsdNet::new(&MsdNetConfig::tiny(), &mut r);
        let x = Tensor::from_fn(3, 5, 5, |_, y, x| (y * 5 + x) as f32 * 0.02);
        let y0 = net.forward(&x, Phase::Eval, &mut r);
        let mut back = MsdNet::from_json(&net.to_json()).unwrap();
        let y1 = back.forward(&x, Phase::Eval, &mut r);
        assert_eq!(y0, y1);
        assert!(MsdNet::from_json("not json").is_err());
    }

    #[test]
    #[should_panic(expected = "invalid MsdNet configuration")]
    fn invalid_config_rejected() {
        let mut cfg = MsdNetConfig::tiny();
        cfg.dilations.clear();
        let _ = MsdNet::new(&cfg, &mut rng());
    }
}
