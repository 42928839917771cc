//! Spherical coordinates and sampling of the exploration domain Ω.
//!
//! The paper samples camera positions in a spherical domain Ω enclosing the
//! volume, stratified by view direction and distance (§IV-B), and samples
//! *vicinal* points `v'` inside a small sphere φ around each position.

use crate::rng::SplitMix64;
use crate::vec3::Vec3;
use std::f64::consts::TAU;

/// Spherical coordinate relative to some center: `radius >= 0`,
/// polar angle `theta` in `[0, pi]` measured from +Z, azimuth `phi`
/// in `[0, 2*pi)` measured from +X in the XY plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SphericalCoord {
    /// Distance from the center.
    pub radius: f64,
    /// Polar angle from +Z, in `[0, pi]`.
    pub theta: f64,
    /// Azimuth from +X, in `[0, 2*pi)`.
    pub phi: f64,
}

impl SphericalCoord {
    /// Convert to Cartesian coordinates (relative to the center).
    pub fn to_cartesian(self) -> Vec3 {
        let (st, ct) = self.theta.sin_cos();
        let (sp, cp) = self.phi.sin_cos();
        Vec3::new(self.radius * st * cp, self.radius * st * sp, self.radius * ct)
    }

    /// Convert from Cartesian coordinates (relative to the center).
    pub fn from_cartesian(v: Vec3) -> Self {
        let radius = v.norm();
        if radius <= 1e-300 {
            return SphericalCoord { radius: 0.0, theta: 0.0, phi: 0.0 };
        }
        let theta = (v.z / radius).clamp(-1.0, 1.0).acos();
        let mut phi = v.y.atan2(v.x);
        if phi < 0.0 {
            phi += TAU;
        }
        SphericalCoord { radius, theta, phi }
    }
}

/// The exploration domain Ω: a spherical shell around the volume centroid in
/// which cameras move. `r_min` keeps cameras outside the data (the paper's
/// cameras orbit outside the volume; zooming changes `d` within the shell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorationDomain {
    /// The volume centroid `o` (common center of Ω and the data).
    pub center: Vec3,
    /// Minimum camera distance from `o`.
    pub r_min: f64,
    /// Maximum camera distance from `o` (the radius of Ω).
    pub r_max: f64,
}

impl ExplorationDomain {
    /// Create a shell domain; requires `0 < r_min <= r_max`.
    pub fn new(center: Vec3, r_min: f64, r_max: f64) -> Self {
        assert!(r_min > 0.0 && r_max >= r_min, "domain radii must satisfy 0 < r_min <= r_max");
        ExplorationDomain { center, r_min, r_max }
    }

    /// `true` when `p` lies within the shell (inclusive).
    pub fn contains(&self, p: Vec3) -> bool {
        let d = p.distance(self.center);
        d >= self.r_min - 1e-12 && d <= self.r_max + 1e-12
    }

    /// Clamp a point's distance-from-center into the shell, keeping its
    /// direction.
    pub fn clamp(&self, p: Vec3) -> Vec3 {
        let rel = p - self.center;
        let d = rel.norm();
        if d <= 1e-300 {
            return self.center + Vec3::Z * self.r_min;
        }
        let dc = d.clamp(self.r_min, self.r_max);
        self.center + rel * (dc / d)
    }
}

/// Uniform random point inside a ball of radius `r` centered at `c`
/// (rejection-free: cube-root radial inversion).
pub fn sample_in_ball(rng: &mut SplitMix64, c: Vec3, r: f64) -> Vec3 {
    let dir = sample_on_sphere(rng);
    let u = rng.next_f64();
    c + dir * (r * u.cbrt())
}

/// Uniform random direction on the unit sphere.
pub(crate) fn sample_on_sphere(rng: &mut SplitMix64) -> Vec3 {
    // Marsaglia: z uniform in [-1,1], phi uniform.
    let z = rng.range(-1.0, 1.0);
    let phi = rng.range(0.0, TAU);
    let r = (1.0 - z * z).max(0.0).sqrt();
    Vec3::new(r * phi.cos(), r * phi.sin(), z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spherical_cartesian_roundtrip() {
        for &(r, t, p) in &[(1.0, 0.5, 1.0), (2.5, 1.2, 4.0), (0.1, 3.0, 6.0)] {
            let sc = SphericalCoord { radius: r, theta: t, phi: p };
            let back = SphericalCoord::from_cartesian(sc.to_cartesian());
            assert!((back.radius - r).abs() < 1e-12);
            assert!((back.theta - t).abs() < 1e-12);
            assert!((back.phi - p).abs() < 1e-12);
        }
    }

    #[test]
    fn from_cartesian_origin_is_finite() {
        let sc = SphericalCoord::from_cartesian(Vec3::ZERO);
        assert_eq!(sc.radius, 0.0);
    }

    #[test]
    fn ball_samples_stay_inside() {
        let mut rng = SplitMix64::new(7);
        let c = Vec3::new(1.0, 2.0, 3.0);
        for _ in 0..1000 {
            let p = sample_in_ball(&mut rng, c, 0.25);
            assert!(p.distance(c) <= 0.25 + 1e-12);
        }
    }

    #[test]
    fn ball_samples_fill_the_interior() {
        // Radial CDF check: for uniform ball sampling, P(r < R/2) = 1/8.
        let mut rng = SplitMix64::new(42);
        let n = 20_000;
        let inner =
            (0..n).filter(|_| sample_in_ball(&mut rng, Vec3::ZERO, 1.0).norm() < 0.5).count();
        let frac = inner as f64 / n as f64;
        assert!((frac - 0.125).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn sphere_samples_are_unit() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..100 {
            assert!((sample_on_sphere(&mut rng).norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn domain_clamp_preserves_direction() {
        let dom = ExplorationDomain::new(Vec3::ZERO, 1.0, 2.0);
        let p = dom.clamp(Vec3::new(0.1, 0.0, 0.0));
        assert!((p.norm() - 1.0).abs() < 1e-12);
        assert!(p.x > 0.99);
        let q = dom.clamp(Vec3::new(0.0, 5.0, 0.0));
        assert!((q.norm() - 2.0).abs() < 1e-12);
        assert!(dom.contains(p) && dom.contains(q));
    }

    #[test]
    #[should_panic]
    fn invalid_domain_radii_panic() {
        ExplorationDomain::new(Vec3::ZERO, 2.0, 1.0);
    }
}
