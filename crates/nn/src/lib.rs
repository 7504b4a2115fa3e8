//! From-scratch neural-network substrate for the certel stack.
//!
//! The paper's landing-zone selector is a semantic-segmentation CNN
//! (MSDnet) and its runtime monitor is the *Bayesian* version of the same
//! network obtained by Monte-Carlo dropout (Gal & Ghahramani, 2016): keep
//! dropout active at inference and run several stochastic passes. Rust's
//! ML crate ecosystem is thin, so this crate implements the required
//! substrate from scratch:
//!
//! - [`Tensor`]: a dense `C x H x W` feature map with `f32` storage.
//! - [`layers`]: 2-D convolution with arbitrary dilation (the "multi-scale
//!   dilation" of MSDnet), ReLU, inverted dropout and a sequential
//!   container — every layer implements forward *and* backward.
//! - [`loss`]: per-pixel softmax cross-entropy with optional class weights.
//! - [`optim`]: SGD with momentum and Adam.
//! - [`init`]: He/Xavier weight initialisation.
//! - [`gradcheck`]: finite-difference gradient checking used by the test
//!   suite to validate every backward pass.
//!
//! [`Layer::forward`] takes a [`Phase`]: [`Phase::Train`] samples dropout
//! masks from the RNG stream and caches for backward, [`Phase::Eval`] is
//! deterministic inference. Monte-Carlo-dropout Bayesian inference is not
//! a phase: it is the engine's coordinate-keyed sample below, the only
//! definition of one Bayesian-MSDnet pass.
//!
//! # The fast inference engine
//!
//! [`Layer::forward`] is the training route (and the reference the
//! engine is tested against): it takes `&mut self`, caches activations in
//! [`Phase::Train`] and allocates its outputs. Inference runs through
//! stateless `&self` entry points instead, so Monte-Carlo-dropout samples
//! can run concurrently over one shared network:
//!
//! - [`Workspace`] is a reusable scratch-buffer arena. The engine entry
//!   points take their output buffer and internal scratch (the
//!   convolution's zero-padded input copy, its GEMM row tables and block
//!   buffers) from it, so a warm workspace services entire forward
//!   passes with **zero heap allocations**.
//! - [`layers::Conv2d::forward_blocks`] is the one lowering every
//!   convolution runs ([`layers::Conv2d::forward_with`] is its
//!   one-convolution case): the input is copied once into a zero-padded
//!   buffer, and each block of [`layers::CONV_BLOCK`] consecutive padded
//!   positions is one register-blocked GEMM per convolution whose B rows
//!   — one per `(in, ky, kx)` tap — are slices of that buffer named by a
//!   row table, with ReLU optionally applied as the GEMM stores. No
//!   im2col matrix is built. The GEMM micro-kernel (like the keyed-mask
//!   rows and the ChaCha8 refill) dispatches through the `el_kernels`
//!   tier ladder — portable → AVX2 → AVX-512F on x86_64, NEON on
//!   aarch64, `EL_FORCE_KERNEL` pins a tier — and per output element the
//!   reduction runs in the same `(in, ky, kx)` order as the naive tap
//!   loop on every tier, so the optimized kernel reproduces
//!   [`layers::Conv2d::forward_reference`] exactly whatever the block
//!   partition (asserted by property tests on each tier); the reference
//!   implementation is retained for those tests and for benchmark
//!   baselines.
//! - [`layers::keyed_row_seed`] and [`layers::keyed_mask_word`] define
//!   the **coordinate-keyed** Monte-Carlo dropout mask (a pure hash of
//!   the sample seed and each element's global coordinates, no RNG
//!   stream), and [`layers::Relu::apply_slice`] clamps a raw buffer in
//!   place. The `el-seg` network composes these with the `el_kernels`
//!   mask rows and GEMM into its block-wise Monte-Carlo pass, on which
//!   the `el-monitor` crate builds its parallel Bayesian monitor.
//!
//! # Example
//!
//! ```
//! use el_nn::{layers::{Conv2d, Dropout, Layer, Relu}, Phase, Tensor};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let mut conv = Conv2d::new(3, 4, 3, 1, &mut rng); // 3 -> 4 channels, 3x3, dilation 1
//! let mut relu = Relu::default();
//! let mut drop = Dropout::new(0.5);
//!
//! let input = Tensor::zeros(3, 8, 8);
//! let y = conv.forward(&input, Phase::Eval, &mut rng);
//! let y = relu.forward(&y, Phase::Eval, &mut rng);
//! let y = drop.forward(&y, Phase::Eval, &mut rng);
//! assert_eq!(y.shape(), (4, 8, 8));
//! ```
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod tensor;
pub mod workspace;

pub use layers::{Layer, Phase};
pub use tensor::{NnError, Tensor};
pub use workspace::Workspace;
