//! The vicinal-sphere radius model (paper §V-B2, Fig. 10, Eqs. 3–6).
//!
//! Around each sampled camera position `v` the paper aggregates the view
//! frusta of points `v'` inside a small sphere φ of radius `r`. The ideal
//! `r` makes the aggregated frustum ζ — clipped between the volume's near
//! and far planes — exactly fill the fast-memory cache.
//!
//! Derivation (volume edge normalized to 2, camera at distance `d`,
//! `τ = tan(θ/2)`): the aggregated frustum is a cone with apex `r/τ` behind
//! the camera, clipped by the planes at distances `d∓1`. With
//! `a = d + r/τ`, the clipped volume is
//!
//! ```text
//! V(ζ) = π/3 · τ² · [(a+1)³ − (a−1)³] = (2π/3) · τ² · (3a² + 1)
//! ```
//!
//! Setting `V(ζ)/8 = ρ` (the fast-memory fraction of the dataset, the
//! paper's cache-size ratio) and solving for `r` gives Eq. 6:
//!
//! ```text
//! r(d) = sqrt(4ρ/π − τ²/3) − d·τ
//! ```

/// Parameters of the radius model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiusModel {
    /// `ρ`: fast-memory cache size as a fraction of the slow store holding
    /// the full dataset (the paper's "ratio of cache size").
    pub cache_ratio: f64,
    /// Full frustum view angle θ in radians.
    pub view_angle: f64,
    /// Lower clamp for the returned radius: the paper requires `r` to be
    /// larger than the camera-path step so the vicinal area contains the
    /// *next* camera position (§IV-B).
    pub min_radius: f64,
}

impl RadiusModel {
    /// Create a model; `cache_ratio` in (0, 1], positive `view_angle` < π.
    pub fn new(cache_ratio: f64, view_angle: f64) -> Self {
        assert!(cache_ratio > 0.0 && cache_ratio <= 1.0, "cache ratio out of (0, 1]");
        assert!(view_angle > 0.0 && view_angle < std::f64::consts::PI, "view angle out of (0, pi)");
        RadiusModel { cache_ratio, view_angle, min_radius: 1e-3 }
    }

    /// Eq. 6: the optimal vicinal radius for view distance `d` (normalized
    /// units: volume edge = 2). Clamped below by `min_radius` — when the
    /// camera is so far away that even `r = 0` over-predicts, the entropy
    /// filter of §IV-C takes over (the paper's own fallback).
    pub fn optimal_radius(&self, d: f64) -> f64 {
        let tau = (self.view_angle * 0.5).tan();
        let arg = 4.0 * self.cache_ratio / std::f64::consts::PI - tau * tau / 3.0;
        let r = if arg > 0.0 { arg.sqrt() - d * tau } else { f64::NEG_INFINITY };
        r.max(self.min_radius)
    }

    /// Volume of the aggregated frustum ζ for a vicinal radius `r` at view
    /// distance `d` (the paper's Eq. 3 numerator) in normalized units.
    ///
    /// Used by tests to verify that `optimal_radius` solves the fill
    /// condition, and by the benches to report predicted working-set size.
    pub(crate) fn aggregated_frustum_volume(&self, d: f64, r: f64) -> f64 {
        let tau = (self.view_angle * 0.5).tan();
        let a = d + r / tau;
        // Clip the cone between the near (a-1) and far (a+1) planes; if the
        // camera is inside the volume (a < 1) only the forward part counts.
        let h0 = (a - 1.0).max(0.0);
        let h1 = a + 1.0;
        std::f64::consts::PI / 3.0 * tau * tau * (h1.powi(3) - h0.powi(3))
    }

    /// Fraction of the (normalized, volume 8) dataset the aggregated
    /// frustum covers.
    pub fn predicted_fraction(&self, d: f64, r: f64) -> f64 {
        self.aggregated_frustum_volume(d, r) / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_geom::angle::deg_to_rad;

    #[test]
    fn optimal_radius_satisfies_fill_condition() {
        // V(ζ(r*)) / 8 must equal the cache ratio whenever r* is interior
        // (not clamped).
        for &ratio in &[0.3, 0.5, 0.7] {
            for &d in &[2.0, 2.5, 3.0] {
                let m = RadiusModel::new(ratio, deg_to_rad(30.0));
                let r = m.optimal_radius(d);
                if r > m.min_radius {
                    let frac = m.predicted_fraction(d, r);
                    assert!((frac - ratio).abs() < 1e-9, "ratio {ratio} d {d}: fraction {frac}");
                }
            }
        }
    }

    #[test]
    fn radius_shrinks_with_distance() {
        // Intuition from §IV-B: far cameras see more, so the vicinal sphere
        // must shrink to keep the prediction within cache.
        let m = RadiusModel::new(0.5, deg_to_rad(30.0));
        let r2 = m.optimal_radius(2.0);
        let r3 = m.optimal_radius(3.0);
        assert!(r2 > r3, "r(2) = {r2} should exceed r(3) = {r3}");
    }

    #[test]
    fn radius_grows_with_cache_ratio() {
        let d = 2.5;
        let small = RadiusModel::new(0.3, deg_to_rad(30.0)).optimal_radius(d);
        let large = RadiusModel::new(0.7, deg_to_rad(30.0)).optimal_radius(d);
        assert!(large > small);
    }

    #[test]
    fn radius_shrinks_with_wider_view_angle() {
        let d = 2.5;
        let narrow = RadiusModel::new(0.5, deg_to_rad(20.0)).optimal_radius(d);
        let wide = RadiusModel::new(0.5, deg_to_rad(45.0)).optimal_radius(d);
        assert!(narrow > wide, "narrow {narrow} vs wide {wide}");
    }

    #[test]
    fn clamps_to_min_radius_when_over_budget() {
        // Far camera + wide angle + small cache: formula would go negative.
        let m = RadiusModel { min_radius: 0.01, ..RadiusModel::new(0.05, deg_to_rad(60.0)) };
        let r = m.optimal_radius(10.0);
        assert_eq!(r, 0.01);
    }

    #[test]
    fn frustum_volume_is_monotone_in_radius() {
        let m = RadiusModel::new(0.5, deg_to_rad(30.0));
        let v1 = m.aggregated_frustum_volume(2.5, 0.05);
        let v2 = m.aggregated_frustum_volume(2.5, 0.10);
        assert!(v2 > v1);
    }

    #[test]
    fn camera_inside_volume_clips_near_cone() {
        let m = RadiusModel::new(0.5, deg_to_rad(30.0));
        // d + r/τ < 1: the near clip collapses to the apex.
        let v = m.aggregated_frustum_volume(0.2, 0.01);
        assert!(v > 0.0 && v.is_finite());
    }

    #[test]
    fn paper_predefined_radii_are_suboptimal() {
        // Fig. 11 compares r* against fixed r ∈ {0.1, 0.075, 0.05, 0.025}.
        // The fixed values mispredict the cache fraction at most distances.
        let m = RadiusModel::new(0.25, deg_to_rad(30.0));
        let d = 2.2;
        let r_star = m.optimal_radius(d);
        let err_star = (m.predicted_fraction(d, r_star) - 0.25).abs();
        for fixed in [0.1, 0.075, 0.05, 0.025] {
            let err_fixed = (m.predicted_fraction(d, fixed) - 0.25).abs();
            assert!(err_star <= err_fixed + 1e-12, "fixed r = {fixed} beat the optimum");
        }
    }

    #[test]
    #[should_panic]
    fn invalid_ratio_panics() {
        RadiusModel::new(0.0, 0.5);
    }

    #[test]
    #[should_panic]
    fn invalid_angle_panics() {
        RadiusModel::new(0.5, 0.0);
    }
}
