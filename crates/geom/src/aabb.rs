//! Axis-aligned bounding boxes.
//!
//! Data blocks ("bricks") of a partitioned volume are AABBs; the visibility
//! test of the paper's Eq. 1 operates on their eight corner points.

use crate::vec3::Vec3;

/// An axis-aligned box given by its minimum and maximum corners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Build from two corners in any order.
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb { min: a.min(b), max: a.max(b) }
    }

    /// The unit-normalized volume domain used by the paper's radius model:
    /// edge length 2, centered at the origin (coordinates in `[-1, 1]`).
    pub const fn unit() -> Self {
        Aabb { min: Vec3::splat(-1.0), max: Vec3::splat(1.0) }
    }

    #[inline]
    /// Geometric center of the box.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Full edge lengths along each axis.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Half of [`Self::extent`].
    #[inline]
    pub(crate) fn half_extent(&self) -> Vec3 {
        self.extent() * 0.5
    }

    /// Geometric volume (product of edge lengths).
    #[inline]
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Radius of the bounding sphere (distance from center to a corner).
    #[inline]
    pub(crate) fn bounding_radius(&self) -> f64 {
        self.half_extent().norm()
    }

    /// The eight corner points `b_i, i in [0, 7]` of the paper's Eq. 1.
    pub fn corners(&self) -> [Vec3; 8] {
        let (lo, hi) = (self.min, self.max);
        [
            Vec3::new(lo.x, lo.y, lo.z),
            Vec3::new(hi.x, lo.y, lo.z),
            Vec3::new(lo.x, hi.y, lo.z),
            Vec3::new(hi.x, hi.y, lo.z),
            Vec3::new(lo.x, lo.y, hi.z),
            Vec3::new(hi.x, lo.y, hi.z),
            Vec3::new(lo.x, hi.y, hi.z),
            Vec3::new(hi.x, hi.y, hi.z),
        ]
    }

    /// Point containment (closed box).
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Smallest box covering both operands.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    /// Closest point inside the box to `p` (is `p` itself when contained).
    pub fn clamp_point(&self, p: Vec3) -> Vec3 {
        Vec3::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
            p.z.clamp(self.min.z, self.max.z),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_reorders_corners() {
        let b = Aabb::new(Vec3::new(1.0, -1.0, 5.0), Vec3::new(0.0, 2.0, 4.0));
        assert_eq!(b.min, Vec3::new(0.0, -1.0, 4.0));
        assert_eq!(b.max, Vec3::new(1.0, 2.0, 5.0));
    }

    #[test]
    fn unit_box_properties() {
        let u = Aabb::unit();
        assert_eq!(u.center(), Vec3::ZERO);
        assert_eq!(u.extent(), Vec3::splat(2.0));
        assert_eq!(u.volume(), 8.0); // the paper's normalization constant
    }

    #[test]
    fn corners_are_all_distinct_and_contained() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let cs = b.corners();
        for (i, c) in cs.iter().enumerate() {
            assert!(b.contains(*c));
            for c2 in &cs[i + 1..] {
                assert_ne!(c, c2);
            }
        }
    }

    #[test]
    fn containment_boundary_is_closed() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::splat(1.0)));
        assert!(!b.contains(Vec3::splat(1.0 + 1e-9)));
    }

    #[test]
    fn union_covers_both() {
        let a = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let b = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        let u = a.union(&b);
        assert!(u.contains(Vec3::splat(0.5)));
        assert!(u.contains(Vec3::splat(2.5)));
    }

    #[test]
    fn clamp_and_distance() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        assert_eq!(b.clamp_point(Vec3::splat(0.5)), Vec3::splat(0.5));
        assert_eq!(b.clamp_point(Vec3::new(2.0, 0.5, -1.0)), Vec3::new(1.0, 0.5, 0.0));
    }

    #[test]
    fn bounding_radius_of_unit_cube() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        assert!((b.bounding_radius() - 3f64.sqrt()).abs() < 1e-12);
    }
}
