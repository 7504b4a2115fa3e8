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
//! The key design point for the monitor is [`Phase`]: layers behave
//! differently in [`Phase::Train`], deterministic [`Phase::Eval`] and
//! [`Phase::Stochastic`] — the last keeps dropout live without gradient
//! bookkeeping, which is exactly Monte-Carlo-dropout Bayesian inference.
//!
//! # The fast inference engine
//!
//! Inference hot paths avoid the allocating [`Layer::forward`] route:
//!
//! - [`Workspace`] is a reusable scratch-buffer arena. Every layer offers
//!   [`Layer::forward_ws`], which takes its output buffer (and internal
//!   scratch such as the convolution's im2col matrix) from the workspace,
//!   so a warm workspace services entire forward passes with **zero heap
//!   allocations** — buffers recycle between layers and between passes.
//! - [`layers::Conv2d`] lowers the dilated convolution to an im2col
//!   matrix (one row per kernel tap, rows are contiguous `h*w` planes)
//!   followed by a register-blocked row-major micro-kernel that computes
//!   four output channels per sweep. The micro-kernel (like the
//!   keyed-mask rows and the ChaCha8 refill) dispatches through the
//!   `el_kernels` tier ladder — portable → AVX2 → AVX-512F on
//!   x86_64, NEON on aarch64, `EL_FORCE_KERNEL` pins a tier — and per
//!   output element the reduction runs in the same `(in, ky, kx)` order
//!   as the naive tap loop on every tier, so the optimized kernel
//!   reproduces [`layers::Conv2d::forward_reference`] exactly (asserted
//!   by property tests on each tier); the reference implementation is
//!   retained for those tests and for benchmark baselines.
//! - Stochastic layers expose stateless, `&self` application paths
//!   ([`layers::Dropout::apply_mc`], [`layers::Relu::apply`]) so
//!   Monte-Carlo-dropout samples can run concurrently over one shared
//!   network — the `el-monitor` crate builds its parallel Bayesian
//!   monitor on exactly these entry points.
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
