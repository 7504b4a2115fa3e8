//! Scene-generation parameters.

use serde::{Deserialize, Serialize};

/// Parameters controlling procedural scene generation.
///
/// Distances are in pixels unless suffixed `_m`; [`meters_per_pixel`]
/// relates the two (see [`crate::Camera`] for how it derives from flight
/// altitude).
///
/// [`meters_per_pixel`]: SceneParams::meters_per_pixel
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneParams {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Ground resolution, metres per pixel.
    pub meters_per_pixel: f64,
    /// Mean spacing between parallel roads, pixels.
    pub road_spacing: f64,
    /// Road half-width, pixels.
    pub road_half_width: f64,
    /// Margin between road edge and buildings, pixels.
    pub building_margin: f64,
    /// Probability that a city block is a park instead of buildings.
    pub park_fraction: f64,
    /// Cars per 1000 road pixels (split between moving and static).
    pub car_density: f64,
    /// Fraction of cars that are parked (static).
    pub static_car_fraction: f64,
    /// Trees per 1000 non-road pixels.
    pub tree_density: f64,
    /// Humans per 1000 walkable pixels.
    pub human_density: f64,
}

impl SceneParams {
    /// Default parameters: a 256x256 scene at 0.5 m/pixel (a 128 m square
    /// patch, matching the MEDI DELIVERY operating height of ~120 m).
    pub fn default_urban() -> Self {
        SceneParams {
            width: 256,
            height: 256,
            meters_per_pixel: 0.5,
            road_spacing: 80.0,
            road_half_width: 6.0,
            building_margin: 6.0,
            park_fraction: 0.25,
            car_density: 14.0,
            static_car_fraction: 0.45,
            tree_density: 4.0,
            human_density: 1.2,
        }
    }

    /// Small parameters for unit tests: 96x96.
    pub fn small() -> Self {
        SceneParams {
            width: 96,
            height: 96,
            road_spacing: 46.0,
            road_half_width: 4.0,
            building_margin: 4.0,
            ..Self::default_urban()
        }
    }

    /// Returns a copy rescaled by `factor` — the altitude distribution
    /// shift of the paper's Figure 4b OOD image.
    ///
    /// `factor < 1` simulates flying *higher*: the same image width covers
    /// more ground, so every object shrinks and `meters_per_pixel` grows.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive"
        );
        SceneParams {
            width: self.width,
            height: self.height,
            meters_per_pixel: self.meters_per_pixel / factor,
            road_spacing: self.road_spacing * factor,
            road_half_width: (self.road_half_width * factor).max(1.0),
            building_margin: (self.building_margin * factor).max(1.0),
            park_fraction: self.park_fraction,
            car_density: self.car_density,
            static_car_fraction: self.static_car_fraction,
            tree_density: self.tree_density,
            human_density: self.human_density,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.width == 0 || self.height == 0 {
            return Err("scene dimensions must be positive".into());
        }
        for (name, v) in [
            ("meters_per_pixel", self.meters_per_pixel),
            ("road_spacing", self.road_spacing),
            ("road_half_width", self.road_half_width),
            ("building_margin", self.building_margin),
            ("park_fraction", self.park_fraction),
            ("car_density", self.car_density),
            ("static_car_fraction", self.static_car_fraction),
            ("tree_density", self.tree_density),
            ("human_density", self.human_density),
        ] {
            if !v.is_finite() {
                return Err(format!("{name} must be finite (got {v})"));
            }
        }
        if self.meters_per_pixel <= 0.0 {
            return Err("meters_per_pixel must be positive".into());
        }
        if self.road_spacing <= 2.0 * self.road_half_width {
            return Err("road_spacing must exceed the road width".into());
        }
        for (name, v) in [
            ("park_fraction", self.park_fraction),
            ("static_car_fraction", self.static_car_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0, 1]"));
            }
        }
        for (name, v) in [
            ("car_density", self.car_density),
            ("tree_density", self.tree_density),
            ("human_density", self.human_density),
        ] {
            if v < 0.0 {
                return Err(format!("{name} must be non-negative"));
            }
        }
        Ok(())
    }
}

impl Default for SceneParams {
    fn default() -> Self {
        Self::default_urban()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(SceneParams::default_urban().validate().is_ok());
        assert!(SceneParams::small().validate().is_ok());
    }

    #[test]
    fn scaled_shrinks_objects_and_grows_footprint() {
        let p = SceneParams::default_urban();
        let hi = p.scaled(0.5); // fly twice as high
        assert!(hi.road_half_width < p.road_half_width);
        assert!(hi.meters_per_pixel > p.meters_per_pixel);
        assert_eq!(hi.width, p.width);
        assert!(hi.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut p = SceneParams::default_urban();
        p.width = 0;
        assert!(p.validate().is_err());
        let mut p = SceneParams::default_urban();
        p.road_spacing = 5.0;
        assert!(p.validate().is_err());
        let mut p = SceneParams::default_urban();
        p.park_fraction = 1.5;
        assert!(p.validate().is_err());
        let mut p = SceneParams::default_urban();
        p.car_density = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaled_rejects_zero() {
        let _ = SceneParams::default_urban().scaled(0.0);
    }
}
