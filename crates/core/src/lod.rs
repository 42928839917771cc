//! The view-dependent multi-resolution baseline (§III-B) and the fidelity
//! argument against it.
//!
//! Conventional out-of-core renderers load distant regions at coarser
//! resolution, shrinking I/O at the cost of resolution. The paper's key
//! objection is that *data-dependent* operations (iso-surface coloring,
//! histograms, correlation) need every visible voxel at full resolution, so
//! LOD either degrades the analysis or falls back to full-resolution loads.
//! This module quantifies both sides: simulated I/O time of an LOD session
//! and the *full-resolution coverage* — the fraction of demanded voxel data
//! delivered at native resolution.

use crate::sampling::visible_blocks;
use crate::session::{SessionConfig, StepMetrics};
use viz_cache::{AccessClass, Hierarchy, PolicyKind};
use viz_geom::CameraPose;
use viz_volume::lod::LodLevel;
use viz_volume::{BlockId, BrickLayout};

/// How an LOD session picks a level for a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LodPolicy {
    /// Distance (in normalized world units, volume edge = 2) below which a
    /// block is fetched at full resolution.
    pub near_distance: f64,
    /// Each additional `step_distance` beyond `near_distance` coarsens the
    /// level by one.
    pub step_distance: f64,
    /// Coarsest level the policy will request.
    pub max_level: u8,
}

impl LodPolicy {
    /// A typical configuration: full resolution within `near`, one level
    /// per additional half unit, up to `max_level`.
    pub fn new(near_distance: f64, step_distance: f64, max_level: u8) -> Self {
        assert!(near_distance >= 0.0 && step_distance > 0.0);
        LodPolicy { near_distance, step_distance, max_level }
    }

    /// Level selected for a block whose center sits `distance` from the
    /// camera.
    pub(crate) fn level_for_distance(&self, distance: f64) -> LodLevel {
        if distance <= self.near_distance {
            return LodLevel(0);
        }
        let extra = ((distance - self.near_distance) / self.step_distance).floor() as u64;
        LodLevel(extra.min(self.max_level as u64) as u8)
    }
}

/// Key of an LOD-aware cached unit: a block at a resolution level.
pub(crate) type LodKey = (BlockId, LodLevel);

/// Report of an LOD baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct LodReport {
    /// Steps executed.
    pub steps: usize,
    /// Demand accesses.
    pub accesses: u64,
    /// Fast-tier misses.
    pub misses: u64,
    /// Miss rate.
    pub miss_rate: f64,
    /// Σ demand I/O seconds (LOD reads are cheaper: `8^-level` bytes).
    pub io_s: f64,
    /// Σ render seconds.
    pub render_s: f64,
    /// Σ wall seconds.
    pub total_s: f64,
    /// Fraction of demanded voxel data delivered at native resolution —
    /// the fidelity available to data-dependent operations.
    pub full_res_coverage: f64,
    /// Per-step metrics.
    pub per_step: Vec<StepMetrics>,
}

/// Run the LOD baseline over a camera path.
///
/// Cache capacity is expressed in *full-resolution block equivalents*: a
/// level-`l` copy occupies `8^-l` of a slot, so the same memory holds many
/// more coarse blocks (we approximate by keying the cache on
/// `(block, level)` and scaling only the I/O bytes — the capacity
/// approximation favours LOD, making the fidelity comparison conservative).
pub fn run_lod_session(
    config: &SessionConfig,
    layout: &BrickLayout,
    policy: &LodPolicy,
    poses: &[CameraPose],
) -> LodReport {
    let num_blocks = layout.num_blocks();
    let mut hier: Hierarchy<LodKey> = Hierarchy::paper_default(
        num_blocks,
        config.cache_ratio,
        PolicyKind::Lru,
        config.block_bytes,
    );

    let mut per_step = Vec::with_capacity(poses.len());
    let (mut io_total, mut render_total, mut wall_total) = (0.0, 0.0, 0.0);
    let (mut full_res_units, mut total_units) = (0.0f64, 0.0f64);

    for pose in poses {
        let visible = visible_blocks(pose, layout);
        let mut step_io = 0.0;
        let mut step_misses = 0usize;
        for &b in &visible {
            let distance = layout.block_bounds(b).center().distance(pose.position);
            let level = policy.level_for_distance(distance);
            let o = hier.fetch((b, level), AccessClass::Demand);
            // Scale the cost model's full-block read time by the level's
            // payload ratio (8^-level voxels).
            let scale = 0.125f64.powi(level.0 as i32);
            if !o.fast_hit {
                step_misses += 1;
                step_io += o.time_s * scale;
            }
            total_units += 1.0;
            if level.0 == 0 {
                full_res_units += 1.0;
            }
        }
        let render_s = config.render.time(visible.len());
        io_total += step_io;
        render_total += render_s;
        wall_total += step_io + render_s;
        per_step.push(StepMetrics {
            visible: visible.len(),
            misses: step_misses,
            io_s: step_io,
            render_s,
            prefetch_s: 0.0,
            lookup_s: 0.0,
            total_s: step_io + render_s,
        });
    }

    let stats = hier.stats();
    LodReport {
        steps: poses.len(),
        accesses: stats.demand_accesses,
        misses: stats.demand_fast_misses,
        miss_rate: stats.miss_rate(),
        io_s: io_total,
        render_s: render_total,
        total_s: wall_total,
        full_res_coverage: if total_units > 0.0 { full_res_units / total_units } else { 1.0 },
        per_step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_geom::angle::deg_to_rad;
    use viz_geom::{CameraPath, ExplorationDomain, SphericalPath, Vec3};
    use viz_volume::Dims3;

    fn layout() -> BrickLayout {
        BrickLayout::new(Dims3::cube(64), Dims3::cube(16))
    }

    fn poses(n: usize) -> Vec<CameraPose> {
        let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
        SphericalPath::new(dom, 2.5, 8.0, deg_to_rad(15.0)).generate(n)
    }

    #[test]
    fn level_selection_is_monotone_in_distance() {
        let p = LodPolicy::new(1.0, 0.5, 3);
        let mut prev = 0u8;
        for i in 0..20 {
            let d = i as f64 * 0.25;
            let l = p.level_for_distance(d).0;
            assert!(l >= prev, "level decreased with distance");
            prev = l;
        }
        assert_eq!(p.level_for_distance(0.5), LodLevel(0));
        assert_eq!(p.level_for_distance(100.0), LodLevel(3));
    }

    #[test]
    fn lod_reduces_io_but_loses_fidelity() {
        let l = layout();
        let cfg = SessionConfig::paper(0.5, l.nominal_block_bytes());
        let path = poses(60);
        // Aggressive LOD: everything beyond 1.0 units is coarse.
        let lod = run_lod_session(&cfg, &l, &LodPolicy::new(1.0, 0.5, 3), &path);
        // Degenerate LOD (= full resolution everywhere) as the reference.
        let full = run_lod_session(&cfg, &l, &LodPolicy::new(1e9, 1.0, 0), &path);
        assert!(lod.io_s < full.io_s, "LOD should cut I/O: {} vs {}", lod.io_s, full.io_s);
        assert_eq!(full.full_res_coverage, 1.0);
        assert!(
            lod.full_res_coverage < 0.5,
            "aggressive LOD should degrade most data ({})",
            lod.full_res_coverage
        );
    }

    #[test]
    fn report_consistency() {
        let l = layout();
        let cfg = SessionConfig::paper(0.5, l.nominal_block_bytes());
        let r = run_lod_session(&cfg, &l, &LodPolicy::new(2.0, 0.5, 2), &poses(25));
        assert_eq!(r.steps, 25);
        assert_eq!(r.per_step.len(), 25);
        let io: f64 = r.per_step.iter().map(|s| s.io_s).sum();
        assert!((io - r.io_s).abs() < 1e-9);
        assert!(r.full_res_coverage >= 0.0 && r.full_res_coverage <= 1.0);
    }

    #[test]
    fn zero_max_level_is_exactly_full_resolution() {
        let p = LodPolicy::new(0.0, 0.1, 0);
        for d in [0.0, 1.0, 100.0] {
            assert_eq!(p.level_for_distance(d), LodLevel(0));
        }
    }
}
