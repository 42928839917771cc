//! Property-based tests for the geometry substrate: 256 seeded cases per
//! property; a failure names the seed and case that replay it.

use viz_geom::angle::{deg_to_rad, rad_to_deg};
use viz_geom::path::{CameraPath, RandomWalkPath, SphericalPath};
use viz_geom::rng::{for_cases, SplitMix64};
use viz_geom::sphere::SphericalCoord;
use viz_geom::{
    Aabb, Bvh, CameraPose, ConeFrustum, ExplorationDomain, PlaneFrustum, Quat, Ray, Vec3,
};

const CASES: usize = 256;

fn finite_vec3(rng: &mut SplitMix64) -> Vec3 {
    Vec3::new(rng.range(-100.0, 100.0), rng.range(-100.0, 100.0), rng.range(-100.0, 100.0))
}

fn nonzero_vec3(rng: &mut SplitMix64) -> Vec3 {
    loop {
        let v = finite_vec3(rng);
        if v.norm() > 1e-6 {
            return v;
        }
    }
}

#[test]
fn dot_is_commutative() {
    for_cases(0x6e01, CASES, |rng, _| {
        let a = finite_vec3(rng);
        let b = finite_vec3(rng);
        assert!((a.dot(b) - b.dot(a)).abs() < 1e-9);
    });
}

#[test]
fn cross_is_orthogonal() {
    for_cases(0x6e02, CASES, |rng, _| {
        let a = nonzero_vec3(rng);
        let b = nonzero_vec3(rng);
        let c = a.cross(b);
        // Orthogonality scaled by the magnitudes involved.
        let scale = a.norm() * b.norm() * c.norm().max(1.0);
        assert!(c.dot(a).abs() <= 1e-9 * scale.max(1.0));
        assert!(c.dot(b).abs() <= 1e-9 * scale.max(1.0));
    });
}

#[test]
fn triangle_inequality() {
    for_cases(0x6e03, CASES, |rng, _| {
        let a = finite_vec3(rng);
        let b = finite_vec3(rng);
        assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    });
}

#[test]
fn normalize_is_unit() {
    for_cases(0x6e04, CASES, |rng, _| {
        let v = nonzero_vec3(rng);
        assert!((v.normalize().norm() - 1.0).abs() < 1e-9);
    });
}

#[test]
fn rotation_preserves_norm_and_angle() {
    for_cases(0x6e05, CASES, |rng, _| {
        let v = nonzero_vec3(rng);
        let axis = nonzero_vec3(rng);
        let angle = rng.range(-6.0, 6.0);
        let r = v.rotate_around(axis, angle);
        assert!((r.norm() - v.norm()).abs() < 1e-6 * v.norm().max(1.0));
    });
}

#[test]
fn angle_between_is_symmetric_and_bounded() {
    for_cases(0x6e06, CASES, |rng, _| {
        let a = nonzero_vec3(rng);
        let b = nonzero_vec3(rng);
        let ab = a.angle_between(b);
        assert!((ab - b.angle_between(a)).abs() < 1e-12);
        assert!((0.0..=std::f64::consts::PI + 1e-12).contains(&ab));
    });
}

#[test]
fn spherical_roundtrip() {
    for_cases(0x6e07, CASES, |rng, _| {
        let v = nonzero_vec3(rng);
        let back = SphericalCoord::from_cartesian(v).to_cartesian();
        assert!(v.distance(back) < 1e-6 * v.norm().max(1.0));
    });
}

#[test]
fn aabb_union_contains_operands() {
    for_cases(0x6e08, CASES, |rng, _| {
        let a = finite_vec3(rng);
        let b = finite_vec3(rng);
        let c = finite_vec3(rng);
        let d = finite_vec3(rng);
        let x = Aabb::new(a, b);
        let y = Aabb::new(c, d);
        let u = x.union(&y);
        for corner in x.corners().into_iter().chain(y.corners()) {
            assert!(u.contains(corner));
        }
    });
}

#[test]
fn aabb_clamp_is_inside_and_idempotent() {
    for_cases(0x6e09, CASES, |rng, _| {
        let a = finite_vec3(rng);
        let b = finite_vec3(rng);
        let p = finite_vec3(rng);
        let bb = Aabb::new(a, b);
        let q = bb.clamp_point(p);
        assert!(bb.contains(q));
        assert_eq!(bb.clamp_point(q), q);
    });
}

#[test]
fn ray_aabb_hit_points_are_on_boundary_or_inside() {
    for_cases(0x6e0a, CASES, |rng, _| {
        let origin = finite_vec3(rng);
        let dir = nonzero_vec3(rng);
        let a = finite_vec3(rng);
        let b = finite_vec3(rng);
        let ray = Ray::new(origin, dir);
        let bb = Aabb::new(a, b);
        if let Some((t0, t1)) = ray.intersect_aabb(&bb) {
            assert!(t0 <= t1);
            assert!(t0 >= 0.0);
            // Entry/exit points are within the (slightly inflated) box.
            let eps = 1e-6 * (1.0 + bb.extent().norm() + origin.norm());
            let grown = Aabb::new(bb.min - Vec3::splat(eps), bb.max + Vec3::splat(eps));
            assert!(grown.contains(ray.at(t0)));
            assert!(grown.contains(ray.at(t1)));
        }
    });
}

#[test]
fn cone_contains_its_axis_points() {
    for_cases(0x6e0b, CASES, |rng, _| {
        let apex = finite_vec3(rng);
        let dir = nonzero_vec3(rng);
        let half_deg = rng.range(1.0, 80.0);
        let t = rng.range(0.0, 50.0);
        let cone = ConeFrustum::new(apex, dir.normalize(), deg_to_rad(half_deg));
        assert!(cone.contains_point(apex + dir.normalize() * t));
    });
}

#[test]
fn spherical_path_step_is_exact() {
    for_cases(0x6e0c, CASES, |rng, _| {
        let step = rng.range(0.5, 40.0);
        let n = rng.index(2..60);
        let dom = ExplorationDomain::new(Vec3::ZERO, 1.5, 5.0);
        let poses = SphericalPath::new(dom, 2.5, step, 0.5).generate(n);
        for w in poses.windows(2) {
            let got = rad_to_deg(w[0].direction_change(&w[1]));
            assert!((got - step).abs() < 1e-6, "step {} got {}", step, got);
        }
    });
}

#[test]
fn random_path_steps_within_range() {
    for_cases(0x6e0d, CASES, |rng, _| {
        let lo = rng.range(0.0, 10.0);
        let extra = rng.range(0.1, 10.0);
        let seed = rng.index(0..1000) as u64;
        let hi = lo + extra;
        let dom = ExplorationDomain::new(Vec3::ZERO, 1.5, 5.0);
        let poses =
            RandomWalkPath::new(dom, 2.5, lo, hi, 0.5, seed).with_distance_jitter(0.0).generate(30);
        for w in poses.windows(2) {
            let got = rad_to_deg(w[0].direction_change(&w[1]));
            assert!(got >= lo - 1e-6 && got <= hi + 1e-6);
        }
    });
}

/// A symmetric square frustum circumscribes the cone of the same view
/// angle: every cone-visible point (inside the clip range) must also be
/// inside the plane frustum.
#[test]
fn plane_frustum_contains_cone() {
    for_cases(0x6e0e, CASES, |rng, _| {
        let theta = rng.range(10.0, 170.0);
        let phi = rng.range(0.0, 360.0);
        let d = rng.range(1.5, 5.0);
        let angle_deg = rng.range(10.0, 70.0);
        let off_frac = rng.range(0.0, 0.95);
        let spin = rng.range(0.0, std::f64::consts::TAU);
        let depth = rng.range(0.2, 4.0);
        let pose = CameraPose::orbit(theta, phi, d, angle_deg);
        let cone = ConeFrustum::from_pose(&pose);
        let pf = PlaneFrustum::from_pose(&pose, 0.05, 100.0);
        // Build a point at `depth` along the axis, offset by a fraction of
        // the cone radius in a random tangential direction.
        let tangent = cone.axis.any_orthonormal().rotate_around(cone.axis, spin);
        let radius = depth * cone.half_angle().tan() * off_frac;
        let p = cone.apex + cone.axis * depth + tangent * radius;
        assert!(cone.contains_point(p), "construction should be in-cone");
        assert!(pf.contains_point(p), "plane frustum must circumscribe the cone");
    });
}

/// Quaternion slerp endpoints and rotation-composition sanity under
/// random axes/angles.
#[test]
fn quat_slerp_rotates_consistently() {
    for_cases(0x6e0f, CASES, |rng, _| {
        let axis = nonzero_vec3(rng);
        let a1 = rng.range(-3.0, 3.0);
        let a2 = rng.range(-3.0, 3.0);
        let t = rng.range(0.0, 1.0);
        let v = nonzero_vec3(rng);
        let qa = Quat::from_axis_angle(axis, a1);
        let qb = Quat::from_axis_angle(axis, a2);
        let q = qa.slerp(qb, t);
        // Same axis ⇒ slerp is angle interpolation along the shorter arc.
        let r = q.rotate(v);
        assert!((r.norm() - v.norm()).abs() < 1e-9 * v.norm().max(1.0));
        // Unit norm is preserved.
        assert!((q.norm() - 1.0).abs() < 1e-9);
    });
}

/// BVH-accelerated cone queries return exactly the brute-force Eq. 1
/// visible set — same members, same (ascending) order — for randomized
/// box soups, camera poses and view angles.
#[test]
fn bvh_cone_query_matches_linear_scan() {
    for_cases(0x6e10, CASES, |rng, _| {
        let corners =
            (0..rng.index(0..80)).map(|_| (finite_vec3(rng), finite_vec3(rng))).collect::<Vec<_>>();
        let theta = rng.range(0.0, 180.0);
        let phi = rng.range(0.0, 360.0);
        let d = rng.range(1.2, 6.0);
        let angle_deg = rng.range(2.0, 120.0);
        let boxes: Vec<Aabb> = corners.into_iter().map(|(a, b)| Aabb::new(a, b)).collect();
        let bvh = Bvh::build(&boxes);
        let pose = CameraPose::orbit(theta, phi, d, angle_deg);
        let cone = ConeFrustum::from_pose(&pose);
        let brute: Vec<u32> = boxes
            .iter()
            .enumerate()
            .filter_map(|(i, b)| cone.intersects_block_corners(b).then_some(i as u32))
            .collect();
        assert_eq!(bvh.cone_query(&cone), brute);
    });
}

#[test]
fn pose_direction_distance_roundtrip() {
    for_cases(0x6e11, CASES, |rng, _| {
        let dir = nonzero_vec3(rng);
        let d = rng.range(0.1, 50.0);
        let pose = CameraPose::from_direction_distance(dir, d, Vec3::ZERO, 0.5);
        assert!((pose.distance() - d).abs() < 1e-9 * d.max(1.0));
        assert!(pose.view_direction().distance(dir.normalize()) < 1e-9);
    });
}
