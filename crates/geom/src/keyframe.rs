//! Keyframed camera paths: waypoint-driven guided exploration.
//!
//! A scientist marks a handful of interesting viewpoints (the Fig. 2
//! scenario: an overview orbit, a dive toward the typhoon, a pass along
//! the smoke plume); the tool flies smoothly between them. Direction is
//! interpolated by quaternion slerp (constant angular velocity, no gimbal
//! issues) and distance log-linearly (perceptually uniform zooming).

use crate::camera::CameraPose;
use crate::path::CameraPath;
use crate::quat::Quat;
use crate::sphere::ExplorationDomain;
use crate::vec3::Vec3;

/// One waypoint of a keyframed flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keyframe {
    /// Unit direction from the volume center towards the camera.
    pub direction: Vec3,
    /// Camera distance from the center.
    pub distance: f64,
    /// Relative time weight of the segment *leading to* this keyframe
    /// (ignored on the first keyframe). Larger = slower approach.
    pub weight: f64,
}

impl Keyframe {
    /// A keyframe from an arbitrary (non-zero) direction and distance,
    /// unit segment weight.
    pub fn new(direction: Vec3, distance: f64) -> Self {
        Keyframe { direction: direction.normalize(), distance, weight: 1.0 }
    }

    /// Adjust the segment weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(weight > 0.0, "segment weight must be positive");
        self.weight = weight;
        self
    }
}

/// A smooth flight through an ordered list of keyframes.
#[derive(Debug, Clone)]
pub struct KeyframePath {
    /// Exploration domain (distances clamp into it).
    pub domain: ExplorationDomain,
    /// Waypoints (at least two).
    pub keys: Vec<Keyframe>,
    /// Full frustum view angle (radians) of every pose.
    pub view_angle: f64,
    /// Close the loop back to the first keyframe.
    pub closed: bool,
}

impl KeyframePath {
    /// Create an open path through `keys` (needs ≥ 2 waypoints).
    pub fn new(domain: ExplorationDomain, keys: Vec<Keyframe>, view_angle: f64) -> Self {
        assert!(keys.len() >= 2, "keyframe path needs at least two waypoints");
        KeyframePath { domain, keys, view_angle, closed: false }
    }

    /// Close the loop (the path returns to its first waypoint).
    pub fn closed(mut self) -> Self {
        self.closed = true;
        self
    }

    /// Pose at normalized path parameter `u ∈ [0, 1]`.
    pub fn sample(&self, u: f64) -> CameraPose {
        let u = u.clamp(0.0, 1.0);
        let n_seg = if self.closed { self.keys.len() } else { self.keys.len() - 1 };
        // Cumulative segment weights.
        let weights: Vec<f64> =
            (0..n_seg).map(|i| self.keys[(i + 1) % self.keys.len()].weight).collect();
        let total: f64 = weights.iter().sum();
        let mut target = u * total;
        let mut seg = 0;
        while seg + 1 < n_seg && target > weights[seg] {
            target -= weights[seg];
            seg += 1;
        }
        let t = (target / weights[seg]).clamp(0.0, 1.0);

        let a = &self.keys[seg];
        let b = &self.keys[(seg + 1) % self.keys.len()];
        // Slerp the direction via the arc between the two waypoints.
        let arc = Quat::between(a.direction, b.direction);
        let dir = Quat::IDENTITY.slerp(arc, t).rotate(a.direction).normalize();
        // Log-linear distance interpolation (uniform zoom rate).
        let d = (a.distance.max(1e-9).ln() * (1.0 - t) + b.distance.max(1e-9).ln() * t).exp();
        let d = d.clamp(self.domain.r_min, self.domain.r_max);
        CameraPose::new(self.domain.center + dir * d, self.domain.center, self.view_angle)
    }
}

impl CameraPath for KeyframePath {
    fn generate(&self, n: usize) -> Vec<CameraPose> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![self.sample(0.0)];
        }
        (0..n).map(|i| self.sample(i as f64 / (n - 1) as f64)).collect()
    }

    fn label(&self) -> String {
        format!("keyframe({} keys{})", self.keys.len(), if self.closed { ", closed" } else { "" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::rad_to_deg;

    fn domain() -> ExplorationDomain {
        ExplorationDomain::new(Vec3::ZERO, 1.0, 10.0)
    }

    fn simple_path() -> KeyframePath {
        KeyframePath::new(
            domain(),
            vec![
                Keyframe::new(Vec3::X, 3.0),
                Keyframe::new(Vec3::Y, 3.0),
                Keyframe::new(Vec3::Z, 6.0),
            ],
            0.5,
        )
    }

    #[test]
    fn endpoints_hit_keyframes() {
        let p = simple_path();
        let poses = p.generate(50);
        assert_eq!(poses.len(), 50);
        assert!(poses[0].position.distance(Vec3::X * 3.0) < 1e-9);
        assert!(poses[49].position.distance(Vec3::Z * 6.0) < 1e-9);
    }

    #[test]
    fn middle_keyframe_is_passed_through() {
        let p = simple_path();
        // Equal weights: u = 0.5 is exactly the middle waypoint.
        let mid = p.sample(0.5);
        assert!(mid.position.distance(Vec3::Y * 3.0) < 1e-9);
    }

    #[test]
    fn distances_stay_in_domain() {
        let p = KeyframePath::new(
            domain(),
            vec![Keyframe::new(Vec3::X, 0.1), Keyframe::new(Vec3::Y, 100.0)],
            0.5,
        );
        for pose in p.generate(20) {
            let d = pose.distance();
            assert!((1.0 - 1e-9..=10.0 + 1e-9).contains(&d));
        }
    }

    #[test]
    fn angular_speed_is_uniform_within_a_segment() {
        let p = KeyframePath::new(
            domain(),
            vec![Keyframe::new(Vec3::X, 3.0), Keyframe::new(Vec3::Y, 3.0)],
            0.5,
        );
        let poses = p.generate(11);
        let mut first = None;
        for w in poses.windows(2) {
            let step = rad_to_deg(w[0].direction_change(&w[1]));
            match first {
                None => first = Some(step),
                Some(f) => assert!((step - f).abs() < 1e-6, "wobble: {step} vs {f}"),
            }
        }
        assert!((first.unwrap() - 9.0).abs() < 1e-6); // 90° over 10 steps
    }

    #[test]
    fn weights_slow_down_segments() {
        let p = KeyframePath::new(
            domain(),
            vec![
                Keyframe::new(Vec3::X, 3.0),
                Keyframe::new(Vec3::Y, 3.0).with_weight(3.0), // slow approach
                Keyframe::new(Vec3::Z, 3.0).with_weight(1.0),
            ],
            0.5,
        );
        // At u = 0.5 (half the total weight 4), we are still inside the
        // first (weight 3) segment: direction closer to the X→Y arc.
        let pose = p.sample(0.5);
        let sc = pose.spherical();
        // Still in the XY plane (θ = 90°), i.e. not yet lifting towards Z.
        assert!((rad_to_deg(sc.theta) - 90.0).abs() < 1e-6);
    }

    #[test]
    fn log_distance_zoom_is_geometric() {
        let p = KeyframePath::new(
            domain(),
            vec![Keyframe::new(Vec3::X, 2.0), Keyframe::new(Vec3::X, 8.0)],
            0.5,
        );
        // Halfway in log space: sqrt(2·8) = 4.
        assert!((p.sample(0.5).distance() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn closed_path_returns_to_start() {
        let p = simple_path().closed();
        let poses = p.generate(61);
        assert!(poses[0].position.distance(poses[60].position) < 1e-9);
    }

    #[test]
    fn degenerate_requests() {
        let p = simple_path();
        assert!(p.generate(0).is_empty());
        assert_eq!(p.generate(1).len(), 1);
    }

    #[test]
    #[should_panic]
    fn single_keyframe_panics() {
        KeyframePath::new(domain(), vec![Keyframe::new(Vec3::X, 2.0)], 0.5);
    }

    #[test]
    fn label_mentions_keys() {
        assert!(simple_path().label().contains("3 keys"));
    }
}
