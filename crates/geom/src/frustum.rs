//! View-frustum visibility tests.
//!
//! The paper approximates the view frustum by a *cone* around the view
//! direction: a block `b` is visible from camera `v` when the angle φ
//! between `v→b_i` (any corner `b_i`) and `v→o` satisfies `φ < θ/2`
//! (Eq. 1). [`ConeFrustum`] implements exactly that. [`PlaneFrustum`] is the
//! exact six-plane test, provided for the renderer and for validating the
//! cone approximation in tests.

use crate::aabb::Aabb;
use crate::camera::CameraPose;
use crate::vec3::Vec3;

/// Three-way result of [`ConeFrustum::classify_sphere`]: where a bounding
/// sphere sits relative to the cone. `Outside` is *conservative* (never
/// claimed when any part of the sphere touches the cone) and `Inside` is
/// *exact* (only claimed when every point of the sphere is in the cone), so
/// a BVH traversal can prune on `Outside`, bulk-accept on `Inside`, and run
/// the exact per-corner test only on `Crossing` boundary nodes without ever
/// changing the result set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SphereClass {
    /// The sphere is certainly disjoint from the cone.
    Outside,
    /// The sphere may straddle the cone boundary — fall back to exact tests.
    Crossing,
    /// The sphere lies entirely inside the cone.
    Inside,
}

/// The paper's conical frustum approximation (Eq. 1).
///
/// `cos(θ/2)` and `sin(θ/2)` are precomputed at construction so the Eq. 1
/// inner loop is a dot-product compare, not a `cos()` per corner per block,
/// and sphere classification is trig-free; the angle fields are therefore
/// read-only behind accessors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConeFrustum {
    /// Camera position (apex of the cone), the paper's `v` or `v'`.
    pub apex: Vec3,
    /// Unit axis of the cone: the view direction `v→o`.
    pub axis: Vec3,
    /// Half of the view angle, `θ/2`, in radians.
    half_angle: f64,
    /// `cos(θ/2)`, hoisted out of [`Self::contains_point`].
    cos_half_angle: f64,
    /// `sin(θ/2)`, hoisted out of [`Self::classify_sphere`].
    sin_half_angle: f64,
}

impl ConeFrustum {
    /// Cone with apex `apex`, unit axis `axis` and half angle `θ/2` radians.
    pub fn new(apex: Vec3, axis: Vec3, half_angle: f64) -> Self {
        let (sin_half_angle, cos_half_angle) = half_angle.sin_cos();
        ConeFrustum { apex, axis, half_angle, cos_half_angle, sin_half_angle }
    }

    /// Cone for a camera pose looking at the volume centroid.
    pub fn from_pose(pose: &CameraPose) -> Self {
        Self::new(pose.position, pose.view_direction(), pose.view_angle * 0.5)
    }

    /// Half of the view angle, `θ/2`, in radians.
    #[inline]
    pub fn half_angle(&self) -> f64 {
        self.half_angle
    }

    /// Eq. 1 on a single point: `φ = arccos( (v→p)·(v→o) / (||v→p|| ||v→o||) )`,
    /// visible iff `φ <= θ/2`. A point at the apex is trivially visible.
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        let to_p = p - self.apex;
        let n = to_p.norm();
        if n <= 1e-300 {
            return true;
        }
        // cos φ >= cos(θ/2)  ⇔  φ <= θ/2 (cos is decreasing on [0, π]);
        // multiplied through by ||v→p|| ≥ 0 to avoid the division.
        to_p.dot(self.axis) >= self.cos_half_angle * n
    }

    /// The paper's block visibility test: a block is visible when *any* of
    /// its eight corner points falls inside the cone.
    pub fn intersects_block_corners(&self, block: &Aabb) -> bool {
        block.corners().iter().any(|&c| self.contains_point(c))
            // A block completely surrounding the apex has all corners
            // outside any narrow cone yet is certainly visible.
            || block.contains(self.apex)
    }

    /// Classify a sphere against the cone without per-call trigonometry.
    ///
    /// For the common convex case (`θ/2 ≤ 90°`) the sphere center is mapped
    /// into the (axial, radial) half-plane: `a = (c−v)·axis` and
    /// `b = √(‖c−v‖² − a²)`. There the cone is the region below the boundary
    /// ray from the origin at angle `θ/2`, and
    /// `signed = a·sin(θ/2) − b·cos(θ/2)` is the signed distance to the
    /// boundary *line* (positive inside). Since the distance from any outside
    /// point to the cone set is at least its distance to that line, and the
    /// distance from any inside point to the lateral surface is at least
    /// `signed`:
    ///
    /// * `signed ≥ r`  ⇒ every sphere point is inside   → [`SphereClass::Inside`]
    /// * `signed < −r` ⇒ every sphere point is outside  → [`SphereClass::Outside`]
    /// * otherwise the sphere may straddle the boundary → [`SphereClass::Crossing`]
    ///
    /// Non-convex cones (`θ/2 > 90°`) fall back to comparing angular extents,
    /// which is valid for any half angle because the cone is an angular set.
    /// A sphere containing the apex is always `Crossing` (the exact corner
    /// test has an apex-containment clause the sphere cannot settle).
    pub(crate) fn classify_sphere(&self, center: Vec3, radius: f64) -> SphereClass {
        let to_c = center - self.apex;
        let dist2 = to_c.dot(to_c);
        if dist2 <= radius * radius {
            return SphereClass::Crossing; // apex inside the sphere
        }
        if self.cos_half_angle >= 0.0 {
            let a = to_c.dot(self.axis);
            let b = (dist2 - a * a).max(0.0).sqrt();
            let signed = a * self.sin_half_angle - b * self.cos_half_angle;
            if signed >= radius {
                SphereClass::Inside
            } else if signed < -radius {
                SphereClass::Outside
            } else {
                SphereClass::Crossing
            }
        } else {
            let dist = dist2.sqrt();
            let angle_to_center = to_c.angle_between(self.axis);
            // Angular radius of the sphere as seen from the apex.
            let angular_radius = (radius / dist).clamp(-1.0, 1.0).asin();
            if angle_to_center + angular_radius <= self.half_angle {
                SphereClass::Inside
            } else if angle_to_center - angular_radius > self.half_angle {
                SphereClass::Outside
            } else {
                SphereClass::Crossing
            }
        }
    }
}

/// Exact six-plane perspective frustum (symmetric, square cross-section).
///
/// Planes store inward-pointing normals; a box is rejected when it lies
/// entirely on the outside of any plane (the standard p-vertex test).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneFrustum {
    /// `(normal, offset)` pairs: a point `p` is inside when
    /// `normal.dot(p) + offset >= 0` for all planes.
    planes: [(Vec3, f64); 6],
}

impl PlaneFrustum {
    /// Build from a camera pose with the given near/far clip distances.
    /// Aspect ratio is 1 (square image), matching the cone approximation.
    pub fn from_pose(pose: &CameraPose, near: f64, far: f64) -> Self {
        assert!(near > 0.0 && far > near, "need 0 < near < far");
        let basis = pose.basis();
        let (f, r, u) = (basis.forward, basis.right, basis.up);
        let apex = pose.position;
        let half = pose.view_angle * 0.5;
        let (s, c) = half.sin_cos();

        // Side plane normals tilt the forward axis by the half angle.
        let n_left = f * s + r * c;
        let n_right = f * s - r * c;
        let n_bottom = f * s + u * c;
        let n_top = f * s - u * c;
        let n_near = f;
        let n_far = -f;

        let mk = |n: Vec3, p: Vec3| (n, -n.dot(p));
        PlaneFrustum {
            planes: [
                mk(n_left, apex),
                mk(n_right, apex),
                mk(n_bottom, apex),
                mk(n_top, apex),
                mk(n_near, apex + f * near),
                mk(n_far, apex + f * far),
            ],
        }
    }

    /// Exact point containment.
    pub fn contains_point(&self, p: Vec3) -> bool {
        self.planes.iter().all(|(n, off)| n.dot(p) + off >= -1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::deg_to_rad;

    fn looking_down_z(theta_deg: f64) -> ConeFrustum {
        let pose = CameraPose::new(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, deg_to_rad(theta_deg));
        ConeFrustum::from_pose(&pose)
    }

    #[test]
    fn cone_axis_point_is_visible() {
        let cone = looking_down_z(30.0);
        assert!(cone.contains_point(Vec3::ZERO));
        assert!(cone.contains_point(Vec3::new(0.0, 0.0, 2.0)));
    }

    #[test]
    fn cone_rejects_point_behind_camera() {
        let cone = looking_down_z(30.0);
        assert!(!cone.contains_point(Vec3::new(0.0, 0.0, 10.0)));
    }

    #[test]
    fn cone_boundary_angle() {
        // Half angle 30°; a point at exactly 29.9° off axis is inside.
        let cone = looking_down_z(60.0);
        let ang = deg_to_rad(29.9);
        let p = Vec3::new(0.0, 0.0, 5.0) + Vec3::new(ang.sin(), 0.0, -ang.cos()) * 3.0;
        assert!(cone.contains_point(p));
        // 30.1°: outside.
        let ang = deg_to_rad(30.1);
        let q = Vec3::new(0.0, 0.0, 5.0) + Vec3::new(ang.sin(), 0.0, -ang.cos()) * 3.0;
        assert!(!cone.contains_point(q));
    }

    #[test]
    fn apex_point_is_visible() {
        let cone = looking_down_z(30.0);
        assert!(cone.contains_point(cone.apex));
    }

    #[test]
    fn block_on_axis_is_visible_by_corners() {
        let cone = looking_down_z(40.0);
        let b = Aabb::new(Vec3::splat(-0.2), Vec3::splat(0.2));
        assert!(cone.intersects_block_corners(&b));
    }

    #[test]
    fn block_far_off_axis_is_invisible() {
        let cone = looking_down_z(40.0);
        let b = Aabb::new(Vec3::new(50.0, 0.0, -0.2), Vec3::new(50.4, 0.4, 0.2));
        assert!(!cone.intersects_block_corners(&b));
    }

    #[test]
    fn block_containing_apex_is_visible() {
        let cone = looking_down_z(10.0);
        let b = Aabb::new(Vec3::new(-1.0, -1.0, 4.0), Vec3::new(1.0, 1.0, 6.0));
        assert!(cone.intersects_block_corners(&b));
    }

    #[test]
    fn sphere_test_is_superset_of_corner_test() {
        // The bounding-sphere prune must never reject a block the corner
        // test accepts.
        let cone = looking_down_z(35.0);
        for ix in -4..4 {
            for iy in -4..4 {
                for iz in -4..4 {
                    let min = Vec3::new(ix as f64, iy as f64, iz as f64) * 0.5;
                    let b = Aabb::new(min, min + Vec3::splat(0.5));
                    if cone.intersects_block_corners(&b) {
                        assert!(
                            cone.classify_sphere(b.center(), b.bounding_radius())
                                != SphereClass::Outside,
                            "sphere test rejected a corner-visible block {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn classify_sphere_is_consistent_with_exact_tests() {
        // Outside must be conservative (never claimed for a corner-visible
        // block) and Inside must be exact (all corners pass the Eq. 1 test).
        for half_deg in [5.0, 17.5, 35.0, 80.0, 110.0] {
            let cone = looking_down_z(2.0 * half_deg);
            for ix in -4..4 {
                for iy in -4..4 {
                    for iz in -4..4 {
                        let min = Vec3::new(ix as f64, iy as f64, iz as f64) * 0.5;
                        let b = Aabb::new(min, min + Vec3::splat(0.5));
                        match cone.classify_sphere(b.center(), b.bounding_radius()) {
                            SphereClass::Outside => assert!(
                                !cone.intersects_block_corners(&b),
                                "Outside for a corner-visible block {b:?} at θ/2={half_deg}°"
                            ),
                            SphereClass::Inside => assert!(
                                b.corners().iter().all(|&c| cone.contains_point(c)),
                                "Inside but a corner escapes the cone {b:?} at θ/2={half_deg}°"
                            ),
                            SphereClass::Crossing => {}
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sphere_containing_apex_is_crossing() {
        let cone = looking_down_z(30.0);
        // Sphere around the apex: never Inside or Outside.
        assert_eq!(cone.classify_sphere(cone.apex, 0.5), SphereClass::Crossing);
    }

    #[test]
    fn plane_frustum_agrees_with_cone_on_axis() {
        let pose = CameraPose::new(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, deg_to_rad(40.0));
        let pf = PlaneFrustum::from_pose(&pose, 0.1, 100.0);
        assert!(pf.contains_point(Vec3::ZERO));
        assert!(!pf.contains_point(Vec3::new(0.0, 0.0, 10.0))); // behind
        assert!(!pf.contains_point(Vec3::new(0.0, 0.0, 4.95))); // before near
    }

    #[test]
    #[should_panic]
    fn plane_frustum_invalid_clip_panics() {
        let pose = CameraPose::new(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 0.5);
        PlaneFrustum::from_pose(&pose, 1.0, 0.5);
    }
}
