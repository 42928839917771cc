//! # viz-geom — geometry substrate
//!
//! Vector math, axis-aligned boxes, cameras, view frusta, spherical-domain
//! sampling, rays, and camera paths for the application-aware visualization
//! cache. Everything here is deterministic given explicit seeds; nothing
//! touches wall-clock time or global RNG state.
//!
//! The module map follows the paper's geometry (Sections III-IV):
//!
//! - `vec3`, `aabb`, [`angle`], `ray` — basic math.
//! - `camera` — the `<l, d>` camera parameterization of Section IV-B.
//! - `frustum` — the conical visibility test of Eq. 1 plus an exact
//!   six-plane frustum for validation and rendering.
//! - `bvh` — a flat BVH over block AABBs accelerating the Eq. 1 scans
//!   (conservative sphere-cone pruning, exact corner test at leaves).
//! - [`sphere`] — the exploration domain Omega and its sampling lattices.
//! - [`path`] — spherical and random camera paths from Section V-A.
//! - [`rng`] — the workspace's one seedable generator ([`SplitMix64`]) and
//!   the seeded case runner the property tests use.
//! - [`par`] — scoped-thread data parallelism for the pre-processing loops
//!   and the ray-cast rows.
//!
//! # Example
//!
//! ```
//! use viz_geom::{CameraPath, CameraPose, ConeFrustum, ExplorationDomain, SphericalPath, Vec3};
//! use viz_geom::angle::deg_to_rad;
//!
//! // Orbit a unit-normalized volume at distance 2.5, 5 degrees per step.
//! let domain = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
//! let poses = SphericalPath::new(domain, 2.5, 5.0, deg_to_rad(15.0)).generate(72);
//! assert_eq!(poses.len(), 72);
//!
//! // The paper's Eq. 1 cone test for one pose:
//! let cone = ConeFrustum::from_pose(&poses[0]);
//! assert!(cone.contains_point(Vec3::ZERO)); // the centroid is always seen
//! ```

#![warn(missing_docs)]

mod aabb;
pub mod angle;
mod bvh;
mod camera;
mod frustum;
mod keyframe;
pub mod par;
pub mod path;
mod quat;
mod ray;
pub mod rng;
pub mod sphere;
mod vec3;

pub use aabb::Aabb;
pub use bvh::Bvh;
pub use camera::{CameraBasis, CameraPose};
pub use frustum::{ConeFrustum, PlaneFrustum};
pub use keyframe::{Keyframe, KeyframePath};
pub use path::{CameraPath, RandomWalkPath, SphericalPath};
pub use quat::Quat;
pub use ray::{Ray, RayGenerator};
pub use rng::SplitMix64;
pub use sphere::{ExplorationDomain, SphericalCoord};
pub use vec3::Vec3;
