//! Degree/radian helpers and small angular utilities.
//!
//! The paper expresses every sweep in degrees (view-direction change per
//! camera step, frustum view angle θ), so conversions appear everywhere.

/// Convert degrees to radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * std::f64::consts::PI / 180.0
}

/// Convert radians to degrees.
#[inline]
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / std::f64::consts::PI
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn deg_rad_roundtrip() {
        for d in [0.0, 1.0, 45.0, 90.0, 180.0, 359.0] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn known_conversions() {
        assert!((deg_to_rad(180.0) - PI).abs() < 1e-15);
        assert!((deg_to_rad(90.0) - FRAC_PI_2).abs() < 1e-15);
    }
}
