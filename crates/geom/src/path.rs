//! Camera paths.
//!
//! The paper evaluates two path families (§V-A): a *spherical* path whose
//! view direction advances by a fixed degree interval per camera position,
//! and a *random* path whose per-step direction change is drawn from a
//! degree range (with the distance `d` also varying). Both use 400 camera
//! positions in the paper's experiments.

use crate::angle::deg_to_rad;
use crate::camera::CameraPose;
use crate::rng::SplitMix64;
use crate::sphere::ExplorationDomain;
use crate::vec3::Vec3;

/// A generator of camera poses along an exploration path.
pub trait CameraPath {
    /// Produce the `n` poses of the path, in order.
    fn generate(&self, n: usize) -> Vec<CameraPose>;

    /// Human-readable label used in experiment reports.
    fn label(&self) -> String;
}

/// Orbit at constant distance on a great circle, advancing the view
/// direction by `step_deg` per camera position. With `precession_deg > 0`
/// the orbit plane slowly tilts so long paths cover the sphere instead of
/// retracing one circle.
#[derive(Debug, Clone)]
pub struct SphericalPath {
    /// Exploration domain (the distance is clamped into it).
    pub domain: ExplorationDomain,
    /// Camera distance `d` from the centroid (constant along the path).
    pub distance: f64,
    /// Degrees of view-direction change per step (the paper sweeps
    /// 1, 5, 10, 15, 20, 25, 30, 45).
    pub step_deg: f64,
    /// Degrees the orbit axis tilts per step; 0 = pure great circle.
    pub precession_deg: f64,
    /// Full frustum view angle θ in radians for every pose.
    pub view_angle: f64,
}

impl SphericalPath {
    /// Create a great-circle orbit (no precession).
    pub fn new(domain: ExplorationDomain, distance: f64, step_deg: f64, view_angle: f64) -> Self {
        SphericalPath { domain, distance, step_deg, precession_deg: 0.0, view_angle }
    }

    /// Tilt the orbit plane by `precession_deg` per step.
    pub fn with_precession(mut self, precession_deg: f64) -> Self {
        self.precession_deg = precession_deg;
        self
    }
}

impl CameraPath for SphericalPath {
    fn generate(&self, n: usize) -> Vec<CameraPose> {
        let d = self.distance.clamp(self.domain.r_min, self.domain.r_max);
        let mut dir = Vec3::X; // current direction center -> camera
        let mut axis = Vec3::Z;
        let step = deg_to_rad(self.step_deg);
        let prec = deg_to_rad(self.precession_deg);
        let mut poses = Vec::with_capacity(n);
        for _ in 0..n {
            poses.push(CameraPose::new(
                self.domain.center + dir * d,
                self.domain.center,
                self.view_angle,
            ));
            dir = dir.rotate_around(axis, step).normalize();
            if prec != 0.0 {
                // Tilt the orbit axis around the current direction so the
                // path spirals over the sphere.
                axis = axis.rotate_around(dir, prec).normalize();
            }
        }
        poses
    }

    fn label(&self) -> String {
        format!("spherical(step={}deg,d={:.2})", self.step_deg, self.distance)
    }
}

/// Random exploration: each step rotates the view direction by an angle
/// drawn uniformly from `[step_min_deg, step_max_deg]` around a random axis
/// orthogonal to the current direction, and jitters the distance by up to
/// `distance_jitter` (fraction of the shell width), clamped to the domain.
///
/// This reproduces the paper's "random path with different degree changes
/// for each camera position ... with randomly different d and l values".
#[derive(Debug, Clone)]
pub struct RandomWalkPath {
    /// Exploration domain (distances are clamped into it).
    pub domain: ExplorationDomain,
    /// Initial camera distance.
    pub start_distance: f64,
    /// Lower bound of the per-step view-direction change, degrees.
    pub step_min_deg: f64,
    /// Upper bound of the per-step view-direction change, degrees.
    pub step_max_deg: f64,
    /// Per-step distance change as a fraction of `(r_max - r_min)`;
    /// 0 keeps `d` constant.
    pub distance_jitter: f64,
    /// Full frustum view angle θ in radians.
    pub view_angle: f64,
    /// RNG seed; identical seeds reproduce identical paths.
    pub seed: u64,
}

impl RandomWalkPath {
    /// Create a random walk; `[step_min_deg, step_max_deg]` bounds the
    /// per-step view-direction change.
    pub fn new(
        domain: ExplorationDomain,
        start_distance: f64,
        step_min_deg: f64,
        step_max_deg: f64,
        view_angle: f64,
        seed: u64,
    ) -> Self {
        assert!(step_min_deg <= step_max_deg, "degree range must be ordered");
        RandomWalkPath {
            domain,
            start_distance,
            step_min_deg,
            step_max_deg,
            distance_jitter: 0.05,
            view_angle,
            seed,
        }
    }

    /// Set the per-step distance jitter fraction.
    pub fn with_distance_jitter(mut self, j: f64) -> Self {
        self.distance_jitter = j;
        self
    }
}

impl CameraPath for RandomWalkPath {
    fn generate(&self, n: usize) -> Vec<CameraPose> {
        let mut rng = SplitMix64::new(self.seed);
        let mut dir = crate::sphere::sample_on_sphere(&mut rng);
        let mut d = self.start_distance.clamp(self.domain.r_min, self.domain.r_max);
        let shell = self.domain.r_max - self.domain.r_min;
        let mut poses = Vec::with_capacity(n);
        for _ in 0..n {
            poses.push(CameraPose::new(
                self.domain.center + dir * d,
                self.domain.center,
                self.view_angle,
            ));
            // Rotate around a random axis orthogonal to `dir` so the full
            // step budget goes into direction change.
            let tangent = dir.any_orthonormal();
            let spin = rng.range(0.0, std::f64::consts::TAU);
            let axis = tangent.rotate_around(dir, spin);
            let step = deg_to_rad(rng.range(self.step_min_deg, self.step_max_deg));
            dir = dir.rotate_around(axis, step).normalize();
            if self.distance_jitter > 0.0 && shell > 0.0 {
                let dd = rng.range(-1.0, 1.0) * self.distance_jitter * shell;
                d = (d + dd).clamp(self.domain.r_min, self.domain.r_max);
            }
        }
        poses
    }

    fn label(&self) -> String {
        format!("random(step={}-{}deg,seed={})", self.step_min_deg, self.step_max_deg, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::rad_to_deg;

    fn domain() -> ExplorationDomain {
        ExplorationDomain::new(Vec3::ZERO, 1.5, 6.0)
    }

    #[test]
    fn spherical_path_has_constant_distance_and_step() {
        let p = SphericalPath::new(domain(), 3.0, 10.0, 0.7);
        let poses = p.generate(50);
        assert_eq!(poses.len(), 50);
        for w in poses.windows(2) {
            assert!((w[0].distance() - 3.0).abs() < 1e-9);
            let change = rad_to_deg(w[0].direction_change(&w[1]));
            assert!((change - 10.0).abs() < 1e-6, "step was {change}");
        }
    }

    #[test]
    fn spherical_path_clamps_distance_into_domain() {
        let p = SphericalPath::new(domain(), 100.0, 5.0, 0.7);
        for pose in p.generate(10) {
            assert!((pose.distance() - 6.0).abs() < 1e-9);
        }
    }

    #[test]
    fn random_walk_step_sizes_respect_range() {
        let p = RandomWalkPath::new(domain(), 3.0, 10.0, 15.0, 0.7, 42).with_distance_jitter(0.0);
        let poses = p.generate(200);
        for w in poses.windows(2) {
            let change = rad_to_deg(w[0].direction_change(&w[1]));
            assert!(
                (10.0 - 1e-6..=15.0 + 1e-6).contains(&change),
                "step {change} outside [10, 15]"
            );
        }
    }

    #[test]
    fn random_walk_is_seed_deterministic() {
        let p = RandomWalkPath::new(domain(), 3.0, 0.0, 5.0, 0.7, 7);
        assert_eq!(p.generate(40), p.generate(40));
        let q = RandomWalkPath::new(domain(), 3.0, 0.0, 5.0, 0.7, 8);
        assert_ne!(p.generate(40), q.generate(40));
    }

    #[test]
    fn random_walk_distances_stay_in_domain() {
        let p = RandomWalkPath::new(domain(), 3.0, 5.0, 10.0, 0.7, 3).with_distance_jitter(0.5);
        for pose in p.generate(500) {
            let d = pose.distance();
            assert!((1.5 - 1e-9..=6.0 + 1e-9).contains(&d), "d = {d} escaped the domain");
        }
    }

    #[test]
    fn labels_are_informative() {
        assert!(SphericalPath::new(domain(), 3.0, 5.0, 0.7).label().contains("spherical"));
        assert!(RandomWalkPath::new(domain(), 3.0, 0.0, 5.0, 0.7, 1).label().contains("random"));
    }
}
