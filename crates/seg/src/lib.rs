//! MSDnet-style semantic segmentation for landing-zone selection.
//!
//! The paper's core function is a Multi-Scale-Dilation network (MSDnet, Lyu
//! et al., 2020) trained on UAVid to label each pixel with one of eight
//! classes; the landing-zone selector then avoids everything in the
//! busy-road super-category. This crate provides:
//!
//! - [`MsdNet`]: a multi-scale dilated CNN in the spirit of MSDnet —
//!   parallel dilated-convolution branches (dilations 1, 2, 4, …) fused by
//!   a 1x1-convolution head, with dropout after every stage so that
//!   Monte-Carlo-dropout Bayesian inference (crate `el-monitor`) applies
//!   exactly as in the paper.
//! - [`train`]: a tile-sampling trainer with class-weighted cross-entropy.
//! - [`infer`]: full-image deterministic inference.
//! - [`metrics`]: confusion matrices, pixel accuracy and per-class IoU.
//!
//! # Example
//!
//! ```
//! use el_nn::Layer;
//! use el_seg::{MsdNet, MsdNetConfig};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
//! assert!(net.param_count() > 0);
//! ```
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod data;
pub mod infer;
pub mod metrics;
pub mod msdnet;
pub mod tiled;
pub mod train;

pub use infer::{segment, segment_ws, SegResult};
pub use metrics::ConfusionMatrix;
pub use msdnet::{MsdNet, MsdNetConfig};
pub use tiled::{plan_tiles, prioritize_tiles, Tile, TileConfig};
pub use train::{TrainConfig, TrainReport, Trainer};
