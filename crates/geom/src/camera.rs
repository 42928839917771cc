//! Cameras and camera poses.
//!
//! The paper parameterizes a camera position `v` inside the spherical
//! exploration domain Ω by its view direction `l = vo` (towards the volume
//! centroid `o`) and its distance `d = ||vo||`. A pose carries exactly that,
//! plus the frustum view angle θ needed by the visibility test.

use crate::angle::deg_to_rad;
use crate::sphere::SphericalCoord;
use crate::vec3::Vec3;

/// A single camera configuration on (or off) a camera path.
///
/// Cameras always look at the volume centroid `center` (the paper's `o`);
/// interactive orbiting in the evaluated system never changes the look-at
/// target, only position and distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraPose {
    /// Camera position `v` in world coordinates.
    pub position: Vec3,
    /// The look-at target `o` (the volume centroid).
    pub center: Vec3,
    /// Full vertical view angle θ of the frustum, in radians.
    pub view_angle: f64,
}

impl CameraPose {
    /// Create a pose from an explicit position.
    pub fn new(position: Vec3, center: Vec3, view_angle: f64) -> Self {
        CameraPose { position, center, view_angle }
    }

    /// Create a pose from the paper's `<l, d>` parameterization: a unit view
    /// direction `l` pointing from camera towards the center, and the
    /// distance `d` from the center.
    pub fn from_direction_distance(l: Vec3, d: f64, center: Vec3, view_angle: f64) -> Self {
        let dir = l.normalize();
        // l points v -> o, so v = o - l * d.
        CameraPose { position: center - dir * d, center, view_angle }
    }

    /// The paper's view direction `l = vo` (unit vector camera → center).
    ///
    /// Returns `Vec3::Z` for the degenerate camera-at-center case so callers
    /// never see NaNs.
    #[inline]
    pub fn view_direction(&self) -> Vec3 {
        (self.center - self.position).try_normalize().unwrap_or(Vec3::Z)
    }

    /// The paper's view distance `d = ||vo||`.
    #[inline]
    pub fn distance(&self) -> f64 {
        self.position.distance(self.center)
    }

    /// Spherical coordinate of the camera position relative to `center`.
    pub fn spherical(&self) -> SphericalCoord {
        SphericalCoord::from_cartesian(self.position - self.center)
    }

    /// Angle in radians between this pose's view direction and another's.
    pub fn direction_change(&self, other: &CameraPose) -> f64 {
        self.view_direction().angle_between(other.view_direction())
    }

    /// Convenience: a pose orbiting the origin-centered unit volume.
    /// `theta_deg`/`phi_deg` are spherical angles, `d` the distance, and
    /// `view_angle_deg` the frustum angle in degrees.
    pub fn orbit(theta_deg: f64, phi_deg: f64, d: f64, view_angle_deg: f64) -> Self {
        let sc =
            SphericalCoord { radius: d, theta: deg_to_rad(theta_deg), phi: deg_to_rad(phi_deg) };
        CameraPose {
            position: sc.to_cartesian(),
            center: Vec3::ZERO,
            view_angle: deg_to_rad(view_angle_deg),
        }
    }

    /// An orthonormal right/up/forward frame for this pose, for renderers.
    /// `forward` is the view direction; `up` is as close to +Z as possible.
    pub fn basis(&self) -> CameraBasis {
        let forward = self.view_direction();
        let world_up = if forward.z.abs() > 0.999 { Vec3::Y } else { Vec3::Z };
        let right = forward.cross(world_up).normalize();
        let up = right.cross(forward);
        CameraBasis { right, up, forward }
    }
}

/// Orthonormal camera frame derived from a [`CameraPose`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraBasis {
    /// Image-space +X direction.
    pub right: Vec3,
    /// Image-space +Y direction.
    pub up: Vec3,
    /// View direction (camera towards target).
    pub forward: Vec3,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn direction_distance_roundtrip() {
        let l = Vec3::new(1.0, 2.0, -0.5).normalize();
        let pose = CameraPose::from_direction_distance(l, 3.0, Vec3::ZERO, 0.8);
        assert!(approx(pose.distance(), 3.0));
        assert!(pose.view_direction().distance(l) < 1e-12);
    }

    #[test]
    fn view_direction_points_at_center() {
        let pose = CameraPose::new(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 0.8);
        assert!(pose.view_direction().distance(-Vec3::Z) < 1e-12);
    }

    #[test]
    fn degenerate_center_pose_is_nan_free() {
        let pose = CameraPose::new(Vec3::ZERO, Vec3::ZERO, 0.8);
        assert!(pose.view_direction().is_finite());
        assert_eq!(pose.distance(), 0.0);
    }

    #[test]
    fn orbit_distance_is_d() {
        let pose = CameraPose::orbit(37.0, 122.0, 2.5, 45.0);
        assert!(approx(pose.distance(), 2.5));
        assert!(approx(pose.view_angle, deg_to_rad(45.0)));
    }

    #[test]
    fn direction_change_between_orthogonal_views() {
        let a = CameraPose::new(Vec3::new(2.0, 0.0, 0.0), Vec3::ZERO, 0.8);
        let b = CameraPose::new(Vec3::new(0.0, 2.0, 0.0), Vec3::ZERO, 0.8);
        assert!(approx(a.direction_change(&b), std::f64::consts::FRAC_PI_2));
    }

    #[test]
    fn basis_is_orthonormal() {
        let pose = CameraPose::orbit(12.0, 75.0, 2.0, 30.0);
        let b = pose.basis();
        assert!(approx(b.right.norm(), 1.0));
        assert!(approx(b.up.norm(), 1.0));
        assert!(approx(b.forward.norm(), 1.0));
        assert!(b.right.dot(b.up).abs() < 1e-10);
        assert!(b.right.dot(b.forward).abs() < 1e-10);
        assert!(b.up.dot(b.forward).abs() < 1e-10);
    }

    #[test]
    fn basis_handles_pole_looking_camera() {
        // Camera directly above center, forward = -Z: needs the Y fallback.
        let pose = CameraPose::new(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, 0.5);
        let b = pose.basis();
        assert!(b.right.is_finite() && b.up.is_finite());
        assert!(approx(b.right.norm(), 1.0));
    }
}
