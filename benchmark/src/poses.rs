//! The benchmark's own input generator: camera paths from a SplitMix64
//! stream seeded by `--seed`. The program only ever receives the poses.

use crate::adapter::{CameraPose, Vec3};

/// Full view angle θ of every pose, and of the tables built for them.
pub const VIEW_ANGLE_DEG: f64 = 15.0;
/// Flights keep this far from the centre: inside the tables' [2.0, 3.2]
/// domain, and far enough that the rendered pyramid (see
/// `flight::RENDER_FOV_DEG`) only samples blocks of the pose's visible set.
const FLIGHT_DISTANCE: (f64, f64) = (2.4, 3.0);

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

fn pose(direction: Vec3, distance: f64) -> CameraPose {
    CameraPose::from_direction_distance(
        direction,
        distance,
        Vec3::ZERO,
        VIEW_ANGLE_DEG.to_radians(),
    )
}

/// Both kinds of path keep the view direction within 30 degrees of the
/// volume's equator. The volume is a slab (2 x 2 x 1): a pose's block count
/// and ray lengths depend on how far off the equator it looks, so paths
/// that roamed the whole sphere would make every seed a different amount of
/// work. Inside the belt the seeds differ in order, not in what they see.
const BELT_SIN: f64 = 0.5;

/// The camera's distance at frame `k`: once in and out over the lap. Both
/// kinds of path use it, so every seed flies the same mix of distances (a
/// nearer camera sees a narrower cone and fewer blocks).
fn breathing_distance(k: usize, frames: usize, phase: f64) -> f64 {
    let (lo, hi) = FLIGHT_DISTANCE;
    let t = std::f64::consts::TAU * k as f64 / frames as f64 + phase;
    (lo + hi) / 2.0 + (hi - lo) / 2.0 * t.sin()
}

/// A precessing orbit: the view direction turns `step_deg` per frame about
/// an axis tilted to the belt's edge that itself drifts about z, while the
/// distance breathes once per lap. The seed picks where on that orbit the
/// lap starts, not its shape.
pub fn orbit_lap(rng: &mut SplitMix64, frames: usize, step_deg: f64) -> Vec<CameraPose> {
    let tau = std::f64::consts::TAU;
    let tilt = BELT_SIN.asin();
    let mut axis =
        Vec3::new(tilt.sin(), 0.0, tilt.cos()).rotate_around(Vec3::Z, rng.range(0.0, tau));
    let mut dir = axis.any_orthonormal().rotate_around(axis, rng.range(0.0, tau));
    let phase = rng.range(0.0, tau);
    (0..frames)
        .map(|k| {
            let p = pose(dir, breathing_distance(k, frames, phase));
            dir = dir.rotate_around(axis, step_deg.to_radians()).normalize();
            axis = axis.rotate_around(Vec3::Z, 0.5f64.to_radians()).normalize();
            p
        })
        .collect()
}

/// A random walk inside the belt: every frame the direction turns by an
/// angle drawn from `step_deg` about a random bearing (redrawn while the
/// step would leave the belt); the distance breathes as the orbit's does.
pub fn walk_lap(rng: &mut SplitMix64, frames: usize, step_deg: (f64, f64)) -> Vec<CameraPose> {
    let tau = std::f64::consts::TAU;
    let z = rng.range(-BELT_SIN, BELT_SIN);
    let mut dir =
        Vec3::new((1.0 - z * z).sqrt(), 0.0, z).rotate_around(Vec3::Z, rng.range(0.0, tau));
    let phase = rng.range(0.0, tau);
    (0..frames)
        .map(|k| {
            let p = pose(dir, breathing_distance(k, frames, phase));
            let step = rng.range(step_deg.0, step_deg.1).to_radians();
            dir = loop {
                let axis = dir.any_orthonormal().rotate_around(dir, rng.range(0.0, tau));
                let next = dir.rotate_around(axis, step).normalize();
                // Some bearing always stays inside: a step along the equator does.
                if next.z.abs() <= BELT_SIN {
                    break next;
                }
            };
            p
        })
        .collect()
}
