//! Imaging and geometry substrate for the certel emergency-landing stack.
//!
//! This crate provides the pixel-space primitives shared by every layer of
//! the reproduction of *Certifying Emergency Landing for Safe Urban UAV*
//! (Guerin, Delmas, Guiochet — DSN 2021):
//!
//! - [`Grid`]: a generic dense 2-D raster used for images, label maps,
//!   score maps and masks.
//! - [`Point`] / [`Vec2`] / [`Rect`]: integer pixel coordinates, continuous
//!   2-D vectors and axis-aligned rectangles.
//! - [`SemanticClass`] / [`LabelMap`]: the eight UAVid semantic classes the
//!   paper's segmentation model predicts, and dense per-pixel label maps.
//! - [`distance`]: an exact integer squared Euclidean distance transform,
//!   the workhorse behind "select an area far from busy roads".
//! - [`components`]: connected-component labelling for candidate-zone
//!   extraction, the audit's anomalous regions and the risk map's hot
//!   regions.
//! - [`draw`]: rasterisation helpers used by the procedural scene generator.
//!
//! # Example
//!
//! ```
//! use el_geom::{Grid, SemanticClass, distance::distance_from};
//!
//! // A 64x64 scene that is all grass except for a vertical road.
//! let labels = Grid::from_fn(64, 64, |x, _y| {
//!     if (30..34).contains(&x) { SemanticClass::Road } else { SemanticClass::LowVegetation }
//! });
//! // Distance (in pixels) from the nearest road pixel.
//! let dist = distance_from(&labels, |c| c == SemanticClass::Road);
//! assert_eq!(dist[(32, 10)], 0.0);
//! assert!(dist[(0, 10)] > 25.0);
//! ```
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod components;
pub mod distance;
pub mod draw;
pub mod error;
pub mod grid;
pub mod label;
pub mod point;
pub mod rect;
pub mod transform;

pub use components::{label_components, Component, ComponentLabels};
pub use error::GeomError;
pub use grid::Grid;
pub use label::{LabelMap, SemanticClass};
pub use point::{Point, Vec2};
pub use rect::Rect;
