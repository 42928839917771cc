//! Opacity-based block culling: the data-dependent companion to the
//! geometric visibility test.
//!
//! A block whose entire value range maps to zero opacity under the current
//! transfer function cannot contribute to the image, no matter how squarely
//! it sits in the frustum. Culling those blocks shrinks the demand working
//! set exactly the way §IV-C's importance filter shrinks the prefetch set —
//! and it retunes instantly when the user edits the transfer function,
//! because it needs only per-block min/max, not voxels.

use crate::raycast::{frame_working_set, RenderConfig, RenderMode};
use crate::tf::TransferFunction;
use viz_geom::CameraPose;
use viz_volume::{BlockId, BlockStats, BrickLayout};

/// Blocks of the frame working set that can actually contribute color:
/// geometric visibility ([`frame_working_set`] of a `config`-shaped image)
/// cut to the blocks a compositing ray march needs. Rendering from the
/// result gives the image that rendering from the whole working set gives.
///
/// A sample whose cell's base corner lies in block H reads voxels of H and
/// of its +x/+y/+z neighbours, and its value is a trilinear blend of them,
/// so it lies in their joint [min, max] (up to the rounding of the `f64`
/// blend). H is kept when the transfer function's maximum opacity over
/// that joint range is nonzero, and with it every neighbour it reads,
/// since an absent neighbour is clamped into H and changes the sample. A culled H's samples are then all fully transparent, which is
/// what compositing makes of an absent block.
///
/// In [`RenderMode::Mip`] nothing is culled: an absent block drops its
/// samples from the maximum, and a transparent value can be the maximum.
pub fn contributing_working_set(
    pose: &CameraPose,
    layout: &BrickLayout,
    config: &RenderConfig,
    stats: &[BlockStats],
    tf: &TransferFunction,
) -> Vec<BlockId> {
    assert_eq!(stats.len(), layout.num_blocks(), "one BlockStats per block");
    let geometric = frame_working_set(pose, layout, config);
    if config.mode == RenderMode::Mip {
        return geometric;
    }
    let mut keep = vec![false; layout.num_blocks()];
    for &home in &geometric {
        let (lo, hi) = cell_reach(layout, home).fold((f32::INFINITY, f32::NEG_INFINITY), |r, b| {
            (r.0.min(stats[b.index()].min), r.1.max(stats[b.index()].max))
        });
        if tf.max_opacity_in(lo, hi) > 0.0 {
            cell_reach(layout, home).for_each(|b| keep[b.index()] = true);
        }
    }
    geometric.into_iter().filter(|b| keep[b.index()]).collect()
}

/// `home` and its neighbours one block up along any non-empty subset of
/// the axes: every block a sample whose base corner is in `home` reads.
fn cell_reach(layout: &BrickLayout, home: BlockId) -> impl Iterator<Item = BlockId> + '_ {
    let (bx, by, bz) = layout.block_coords(home);
    let grid = layout.grid;
    (0..8).filter_map(move |i| {
        let (x, y, z) = (bx + (i & 1), by + ((i >> 1) & 1), bz + (i >> 2));
        grid.contains(x, y, z).then(|| layout.block_at(x, y, z))
    })
}

/// Per-block stats helper (min/max/mean/entropy) for culling.
pub fn block_stats_for(
    layout: &BrickLayout,
    field: &viz_volume::VolumeField,
    bins: usize,
) -> Vec<BlockStats> {
    let (lo, hi) = field.min_max();
    layout
        .block_ids()
        .map(|id| BlockStats::compute(&field.extract_block(layout, id), lo, hi, bins))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raycast::{orbit_pose, render, FieldSource, RenderConfig};
    use crate::tf::Rgba;
    use viz_geom::angle::deg_to_rad;
    use viz_volume::{DatasetKind, DatasetSpec, Dims3, VolumeField};

    fn setup() -> (VolumeField, BrickLayout, Vec<BlockStats>) {
        let spec = DatasetSpec::new(DatasetKind::Ball3d, 16, 7);
        let field = spec.materialize(0, 0.0);
        let layout = BrickLayout::new(field.dims, Dims3::cube(16));
        let stats = block_stats_for(&layout, &field, 64);
        (field, layout, stats)
    }

    /// Fraction of the geometric working set the transfer function culls.
    fn culled(
        pose: &CameraPose,
        layout: &BrickLayout,
        rc: &RenderConfig,
        stats: &[BlockStats],
        tf: &TransferFunction,
    ) -> f64 {
        let geo = frame_working_set(pose, layout, rc).len();
        let kept = contributing_working_set(pose, layout, rc, stats, tf).len();
        1.0 - kept as f64 / geo as f64
    }

    #[test]
    fn fully_opaque_tf_culls_nothing() {
        let (field, layout, stats) = setup();
        let tf = TransferFunction::new(
            vec![crate::tf::ControlPoint { x: 0.0, color: Rgba::new(1.0, 1.0, 1.0, 1.0) }],
            field.min_max(),
        );
        let pose = orbit_pose(90.0, 0.0, 2.5, deg_to_rad(15.0));
        let rc = RenderConfig::preview(48, 48);
        assert_eq!(culled(&pose, &layout, &rc, &stats, &tf), 0.0);
    }

    #[test]
    fn zero_foot_tf_culls_ambient_blocks() {
        // Finer blocks so the volume corners are entirely outside the ball,
        // and a transfer function with a zero-opacity foot (values below
        // 25% of the range invisible) — the typical interactive setup.
        let spec = DatasetSpec::new(DatasetKind::Ball3d, 16, 7);
        let field = spec.materialize(0, 0.0);
        let layout = BrickLayout::new(field.dims, Dims3::cube(8));
        let stats = block_stats_for(&layout, &field, 64);
        let tf = TransferFunction::new(
            vec![
                crate::tf::ControlPoint { x: 0.0, color: Rgba::TRANSPARENT },
                crate::tf::ControlPoint { x: 0.25, color: Rgba::TRANSPARENT },
                crate::tf::ControlPoint { x: 1.0, color: Rgba::new(1.0, 0.8, 0.2, 0.9) },
            ],
            field.min_max(),
        );
        // Wide view from afar so the frustum includes ambient corners.
        let pose = orbit_pose(90.0, 0.0, 3.0, deg_to_rad(50.0));
        let rc = RenderConfig::preview(48, 48);
        let frac = culled(&pose, &layout, &rc, &stats, &tf);
        assert!(frac > 0.05, "ball exterior should be culled ({frac})");
        assert!(frac < 0.95, "ball interior must survive ({frac})");
    }

    #[test]
    fn culling_is_conservative_for_rendering() {
        // Rendering only the contributing set must produce the same image
        // as rendering everything: culled blocks are invisible by
        // construction.
        use crate::bricked::BrickedSource;
        use std::collections::HashMap;
        use std::sync::Arc;

        let (field, layout, stats) = setup();
        let tf = TransferFunction::heat(field.min_max());
        let pose = orbit_pose(80.0, 25.0, 2.5, deg_to_rad(20.0));
        let rc = RenderConfig::preview(48, 48);

        let full_src = FieldSource::new(&field, &layout);
        let img_full = render(&full_src, &pose, &tf, &rc);

        let keep = contributing_working_set(&pose, &layout, &rc, &stats, &tf);
        let map: HashMap<BlockId, Arc<Vec<f32>>> =
            keep.iter().map(|&b| (b, Arc::new(field.extract_block(&layout, b)))).collect();
        let lookup = move |id: BlockId| map.get(&id).cloned();
        let culled_src = BrickedSource::new(&layout, &lookup);
        let img_culled = render(&culled_src, &pose, &tf, &rc);

        assert_eq!(img_full, img_culled, "culling changed the image");
    }

    /// A 16×8×8 field in two 8³ bricks, 1 on one plane of voxels and 0
    /// elsewhere, in view across the brick face. With the plane at x = 8,
    /// the all-zero brick's samples next to the face blend in the plane's
    /// voxels; at x = 7 the all-zero brick holds the voxels the plane's
    /// brick blends in. Either way rendering from the culled set is
    /// rendering from the whole field, in both modes.
    #[test]
    fn culling_keeps_the_bricks_a_sample_blends_across_a_face() {
        use crate::bricked::BrickedSource;
        use std::sync::Arc;

        let dims = Dims3::new(16, 8, 8);
        let layout = BrickLayout::new(dims, Dims3::cube(8));
        let tf = TransferFunction::heat((0.0, 1.0));
        let pose = orbit_pose(90.0, 90.0, 3.0, deg_to_rad(40.0));
        for plane in [8, 7] {
            let voxels = (0..dims.count()).map(|i| f32::from(u8::from(i % 16 == plane)));
            let field = VolumeField::from_vec(dims, voxels.collect());
            let stats = block_stats_for(&layout, &field, 64);
            for rc in [RenderConfig::preview(32, 32), RenderConfig::preview(32, 32).mip()] {
                let full = render(&FieldSource::new(&field, &layout), &pose, &tf, &rc);
                assert!(full.mean_luminance() > 0.0, "plane x = {plane} out of view");
                let keep = contributing_working_set(&pose, &layout, &rc, &stats, &tf);
                let lookup = |id: BlockId| {
                    keep.contains(&id).then(|| Arc::new(field.extract_block(&layout, id)))
                };
                let culled = render(&BrickedSource::new(&layout, &lookup), &pose, &tf, &rc);
                assert_eq!(full, culled, "plane x = {plane}, {:?}", rc.mode);
            }
        }
    }

    #[test]
    fn retuned_tf_changes_the_cull_set() {
        // Blocks of 8³, so that the ball's core and its neighbours are not
        // the whole working set.
        let (field, _, _) = setup();
        let layout = BrickLayout::new(field.dims, Dims3::cube(8));
        let stats = block_stats_for(&layout, &field, 64);
        let (lo, hi) = field.min_max();
        let pose = orbit_pose(90.0, 0.0, 2.5, deg_to_rad(15.0));
        // An iso-peak on high values keeps few blocks; on low values many
        // more (ambient zero blocks become visible).
        let high = TransferFunction::iso_peak(0.9, 0.05, Rgba::new(1.0, 0.0, 0.0, 1.0), (lo, hi));
        let low = TransferFunction::iso_peak(0.0, 0.05, Rgba::new(1.0, 0.0, 0.0, 1.0), (lo, hi));
        let rc = RenderConfig::preview(48, 48);
        let kept_high = contributing_working_set(&pose, &layout, &rc, &stats, &high).len();
        let kept_low = contributing_working_set(&pose, &layout, &rc, &stats, &low).len();
        assert!(kept_high < kept_low, "high {kept_high} vs low {kept_low}");
    }

    #[test]
    fn max_opacity_in_interval_logic() {
        let tf = TransferFunction::iso_peak(0.5, 0.1, Rgba::new(1.0, 1.0, 1.0, 1.0), (0.0, 1.0));
        // Interval containing the peak.
        assert_eq!(tf.max_opacity_in(0.2, 0.8), 1.0);
        // Interval missing the peak entirely.
        assert_eq!(tf.max_opacity_in(0.0, 0.2), 0.0);
        assert_eq!(tf.max_opacity_in(0.8, 1.0), 0.0);
        // Reversed bounds are normalized.
        assert_eq!(tf.max_opacity_in(0.8, 0.2), 1.0);
        // Endpoint inside the ramp catches partial opacity.
        assert!(tf.max_opacity_in(0.45, 0.45) > 0.0);
    }
}
