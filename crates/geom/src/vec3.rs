//! Minimal 3-component vector used throughout the workspace.
//!
//! The paper's geometry (Eq. 1 visibility test, the radius model of Fig. 10)
//! only needs dot products, norms and angles, so we keep this deliberately
//! small instead of pulling in a linear-algebra dependency.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A vector (or point) in `R^3`, `f64` throughout: the sampling tables are
/// built once offline, so precision is worth more than SIMD width here.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// Unit +X axis.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit +Y axis.
    pub(crate) const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit +Z axis.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// All three components set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot (inner) product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean (L2) norm, `|| v ||` in the paper's notation.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f64 {
        (self - rhs).norm()
    }

    /// Unit vector in the same direction. Returns `None` for (near-)zero
    /// vectors rather than producing NaNs.
    #[inline]
    pub(crate) fn try_normalize(self) -> Option<Vec3> {
        let n = self.norm();
        if n > 1e-300 {
            Some(self / n)
        } else {
            None
        }
    }

    /// Unit vector in the same direction; panics on the zero vector.
    #[inline]
    pub fn normalize(self) -> Vec3 {
        self.try_normalize().expect("cannot normalize a zero-length vector")
    }

    /// Angle between two vectors in radians, in `[0, pi]`.
    ///
    /// This is the `arccos` expression of the paper's Eq. 1; the argument is
    /// clamped to `[-1, 1]` so floating-point drift cannot produce NaN.
    #[inline]
    pub fn angle_between(self, rhs: Vec3) -> f64 {
        let denom = self.norm() * rhs.norm();
        if denom <= 1e-300 {
            return 0.0;
        }
        (self.dot(rhs) / denom).clamp(-1.0, 1.0).acos()
    }

    /// Linear interpolation: `self` at `t = 0`, `rhs` at `t = 1`.
    #[inline]
    pub fn lerp(self, rhs: Vec3, t: f64) -> Vec3 {
        self + (rhs - self) * t
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// `true` when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Any unit vector orthogonal to `self` (which must be non-zero).
    /// Used to build tangent frames when perturbing view directions.
    pub fn any_orthonormal(self) -> Vec3 {
        let v = self.normalize();
        // Pick the axis least aligned with v to avoid degeneracy.
        let other = if v.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
        v.cross(other).normalize()
    }

    /// Rotate `self` around the (unit) `axis` by `angle` radians
    /// (Rodrigues' rotation formula).
    pub fn rotate_around(self, axis: Vec3, angle: f64) -> Vec3 {
        let k = axis.normalize();
        let (s, c) = angle.sin_cos();
        self * c + k.cross(self) * s + k * (k.dot(self) * (1.0 - c))
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn dot_of_orthogonal_axes_is_zero() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::Y.dot(Vec3::Z), 0.0);
    }

    #[test]
    fn cross_follows_right_hand_rule() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn norm_of_345_triangle() {
        assert!(approx(Vec3::new(3.0, 4.0, 0.0).norm(), 5.0));
    }

    #[test]
    fn normalize_produces_unit_length() {
        let v = Vec3::new(1.0, 2.0, 3.0).normalize();
        assert!(approx(v.norm(), 1.0));
    }

    #[test]
    fn try_normalize_rejects_zero() {
        assert!(Vec3::ZERO.try_normalize().is_none());
    }

    #[test]
    fn angle_between_axes_is_right_angle() {
        assert!(approx(Vec3::X.angle_between(Vec3::Y), FRAC_PI_2));
    }

    #[test]
    fn angle_between_opposite_is_pi() {
        assert!(approx(Vec3::X.angle_between(-Vec3::X), PI));
    }

    #[test]
    fn angle_between_parallel_is_zero() {
        assert!(approx(Vec3::X.angle_between(Vec3::X * 7.0), 0.0));
    }

    #[test]
    fn angle_is_nan_free_under_drift() {
        // Two nearly identical vectors whose normalized dot may exceed 1.
        let a = Vec3::new(1.0, 1.0, 1.0);
        let b = a * (1.0 + 1e-16);
        assert!(a.angle_between(b).is_finite());
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::ZERO;
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn rotate_quarter_turn_about_z() {
        let r = Vec3::X.rotate_around(Vec3::Z, FRAC_PI_2);
        assert!(r.distance(Vec3::Y) < 1e-12);
    }

    #[test]
    fn rotate_preserves_norm() {
        let v = Vec3::new(1.0, -2.0, 0.5);
        let r = v.rotate_around(Vec3::new(0.3, 0.4, -0.8), 1.234);
        assert!(approx(v.norm(), r.norm()));
    }

    #[test]
    fn any_orthonormal_is_orthogonal_unit() {
        for v in [Vec3::X, Vec3::Y, Vec3::Z, Vec3::new(0.1, -3.0, 2.0)] {
            let o = v.any_orthonormal();
            assert!(approx(o.norm(), 1.0));
            assert!(v.dot(o).abs() < 1e-12);
        }
    }

    #[test]
    fn elementwise_min_max() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(3.0, 2.0, 0.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 2.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(3.0, 5.0, 0.0));
    }

    #[test]
    fn array_roundtrip() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let a: [f64; 3] = v.into();
        assert_eq!(Vec3::from(a), v);
    }
}
