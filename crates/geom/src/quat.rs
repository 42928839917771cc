//! Unit quaternions and spherical interpolation.
//!
//! Keyframed camera paths (§III-A's guided explorations: a scientist drops
//! waypoints around a feature and the tool flies smoothly between them)
//! need rotation interpolation that doesn't gimbal-lock or speed-wobble —
//! i.e. slerp on unit quaternions.

use crate::vec3::Vec3;

/// A unit quaternion `w + xi + yj + zk` representing a 3D rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// Vector part, x.
    pub x: f64,
    /// Vector part, y.
    pub y: f64,
    /// Vector part, z.
    pub z: f64,
}

impl Quat {
    /// The identity rotation.
    pub(crate) const IDENTITY: Quat = Quat { w: 1.0, x: 0.0, y: 0.0, z: 0.0 };

    /// Rotation of `angle` radians around the (non-zero) `axis`.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Self {
        let a = axis.normalize();
        let (s, c) = (angle * 0.5).sin_cos();
        Quat { w: c, x: a.x * s, y: a.y * s, z: a.z * s }
    }

    /// The rotation taking unit vector `from` to unit vector `to` along
    /// the shortest arc. Antiparallel inputs rotate π around any
    /// perpendicular axis.
    pub fn between(from: Vec3, to: Vec3) -> Self {
        let f = from.normalize();
        let t = to.normalize();
        let d = f.dot(t);
        if d > 1.0 - 1e-12 {
            return Quat::IDENTITY;
        }
        if d < -1.0 + 1e-12 {
            // 180°: pick any perpendicular axis.
            return Quat::from_axis_angle(f.any_orthonormal(), std::f64::consts::PI);
        }
        let axis = f.cross(t);
        let w = 1.0 + d;
        Quat { w, x: axis.x, y: axis.y, z: axis.z }.normalize()
    }

    /// Quaternion norm.
    pub fn norm(self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Normalize to unit length (panics on the zero quaternion).
    pub fn normalize(self) -> Quat {
        let n = self.norm();
        assert!(n > 1e-300, "cannot normalize a zero quaternion");
        Quat { w: self.w / n, x: self.x / n, y: self.y / n, z: self.z / n }
    }

    /// Conjugate (inverse for unit quaternions).
    #[cfg(test)]
    fn conjugate(self) -> Quat {
        Quat { w: self.w, x: -self.x, y: -self.y, z: -self.z }
    }

    /// Rotate a vector.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // q v q*
        let qv = Vec3::new(self.x, self.y, self.z);
        let uv = qv.cross(v);
        let uuv = qv.cross(uv);
        v + (uv * self.w + uuv) * 2.0
    }

    /// Angle of the rotation, in `[0, π]`.
    pub fn angle(self) -> f64 {
        2.0 * self.w.abs().clamp(0.0, 1.0).acos()
    }

    /// Spherical linear interpolation from `self` (t = 0) to `other`
    /// (t = 1), taking the shorter arc. Constant angular velocity.
    pub fn slerp(self, other: Quat, t: f64) -> Quat {
        let mut b = other;
        let mut dot = self.w * b.w + self.x * b.x + self.y * b.y + self.z * b.z;
        // Shorter arc: flip sign when the quaternions point apart.
        if dot < 0.0 {
            b = Quat { w: -b.w, x: -b.x, y: -b.y, z: -b.z };
            dot = -dot;
        }
        if dot > 1.0 - 1e-10 {
            // Nearly identical: lerp + renormalize avoids 0/0.
            return Quat {
                w: self.w + (b.w - self.w) * t,
                x: self.x + (b.x - self.x) * t,
                y: self.y + (b.y - self.y) * t,
                z: self.z + (b.z - self.z) * t,
            }
            .normalize();
        }
        let theta = dot.clamp(-1.0, 1.0).acos();
        let s = theta.sin();
        let wa = ((1.0 - t) * theta).sin() / s;
        let wb = (t * theta).sin() / s;
        Quat {
            w: self.w * wa + b.w * wb,
            x: self.x * wa + b.x * wb,
            y: self.y * wa + b.y * wb,
            z: self.z * wa + b.z * wb,
        }
    }
}

/// Hamilton product (composition: `self` applied after `rhs`).
impl std::ops::Mul for Quat {
    type Output = Quat;

    fn mul(self, rhs: Quat) -> Quat {
        Quat {
            w: self.w * rhs.w - self.x * rhs.x - self.y * rhs.y - self.z * rhs.z,
            x: self.w * rhs.x + self.x * rhs.w + self.y * rhs.z - self.z * rhs.y,
            y: self.w * rhs.y - self.x * rhs.z + self.y * rhs.w + self.z * rhs.x,
            z: self.w * rhs.z + self.x * rhs.y - self.y * rhs.x + self.z * rhs.w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn close(a: Vec3, b: Vec3) -> bool {
        a.distance(b) < 1e-10
    }

    #[test]
    fn identity_rotates_nothing() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(close(Quat::IDENTITY.rotate(v), v));
    }

    #[test]
    fn quarter_turn_about_z() {
        let q = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        assert!(close(q.rotate(Vec3::X), Vec3::Y));
        assert!(close(q.rotate(Vec3::Y), -Vec3::X));
    }

    #[test]
    fn rotation_preserves_length() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 2.0, -1.0), 1.234);
        let v = Vec3::new(0.3, -4.0, 2.0);
        assert!((q.rotate(v).norm() - v.norm()).abs() < 1e-12);
    }

    #[test]
    fn composition_matches_sequential_rotation() {
        let q1 = Quat::from_axis_angle(Vec3::X, 0.7);
        let q2 = Quat::from_axis_angle(Vec3::Y, 1.1);
        let v = Vec3::new(1.0, 2.0, 3.0);
        let seq = q2.rotate(q1.rotate(v));
        let comp = (q2 * q1).rotate(v);
        assert!(close(seq, comp));
    }

    #[test]
    fn conjugate_inverts() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 1.0, 0.0), 0.9);
        let v = Vec3::new(2.0, -1.0, 0.5);
        assert!(close(q.conjugate().rotate(q.rotate(v)), v));
    }

    #[test]
    fn between_maps_from_to_to() {
        let from = Vec3::new(1.0, 0.2, -0.3).normalize();
        let to = Vec3::new(-0.5, 1.0, 0.7).normalize();
        let q = Quat::between(from, to);
        assert!(close(q.rotate(from), to));
    }

    #[test]
    fn between_handles_degenerate_pairs() {
        let v = Vec3::new(0.0, 0.0, 1.0);
        assert!(close(Quat::between(v, v).rotate(v), v));
        let q = Quat::between(v, -v);
        assert!(close(q.rotate(v), -v));
        assert!((q.angle() - PI).abs() < 1e-9);
    }

    #[test]
    fn slerp_endpoints_are_exact() {
        let a = Quat::from_axis_angle(Vec3::Z, 0.3);
        let b = Quat::from_axis_angle(Vec3::Z, 1.7);
        let v = Vec3::X;
        assert!(close(a.slerp(b, 0.0).rotate(v), a.rotate(v)));
        assert!(close(a.slerp(b, 1.0).rotate(v), b.rotate(v)));
    }

    #[test]
    fn slerp_has_constant_angular_velocity() {
        let a = Quat::IDENTITY;
        let b = Quat::from_axis_angle(Vec3::Y, 1.6);
        let mut prev = a;
        let mut step0: Option<f64> = None;
        for i in 1..=10 {
            let q = a.slerp(b, i as f64 / 10.0);
            let delta = (q * prev.conjugate()).angle();
            if let Some(s0) = step0 {
                assert!((delta - s0).abs() < 1e-9, "wobble at step {i}");
            } else {
                step0 = Some(delta);
            }
            prev = q;
        }
        assert!((step0.unwrap() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn slerp_takes_the_short_arc() {
        // b and -b are the same rotation; slerp must not take the long way.
        let a = Quat::from_axis_angle(Vec3::Z, 0.1);
        let b = Quat::from_axis_angle(Vec3::Z, 0.4);
        let neg_b = Quat { w: -b.w, x: -b.x, y: -b.y, z: -b.z };
        let mid1 = a.slerp(b, 0.5).rotate(Vec3::X);
        let mid2 = a.slerp(neg_b, 0.5).rotate(Vec3::X);
        assert!(close(mid1, mid2));
    }

    #[test]
    fn nearly_identical_slerp_is_stable() {
        let a = Quat::from_axis_angle(Vec3::Z, 0.5);
        let b = Quat::from_axis_angle(Vec3::Z, 0.5 + 1e-13);
        let q = a.slerp(b, 0.37);
        assert!((q.norm() - 1.0).abs() < 1e-12);
    }
}
