//! Opacity-based block culling: the data-dependent companion to the
//! geometric visibility test.
//!
//! A block whose entire value range maps to zero opacity under the current
//! transfer function cannot contribute to the image, no matter how squarely
//! it sits in the frustum. Culling those blocks shrinks the demand working
//! set exactly the way §IV-C's importance filter shrinks the prefetch set —
//! and it retunes instantly when the user edits the transfer function,
//! because it needs only per-block min/max, not voxels.

use crate::raycast::{frame_working_set, RenderConfig};
use crate::tf::TransferFunction;
use viz_geom::CameraPose;
use viz_volume::{BlockId, BlockStats, BrickLayout};

/// Blocks of the frame working set that can actually contribute color:
/// geometric visibility ([`frame_working_set`] of a `config`-shaped image)
/// ∩ nonzero max opacity over the block's value range.
pub fn contributing_working_set(
    pose: &CameraPose,
    layout: &BrickLayout,
    config: &RenderConfig,
    stats: &[BlockStats],
    tf: &TransferFunction,
) -> Vec<BlockId> {
    assert_eq!(stats.len(), layout.num_blocks(), "one BlockStats per block");
    frame_working_set(pose, layout, config)
        .into_iter()
        .filter(|b| tf.max_opacity_in(stats[b.index()].min, stats[b.index()].max) > 0.0)
        .collect()
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

        let err = crate::metrics::mse(&img_full, &img_culled);
        assert!(err < 1e-6, "culling changed the image: mse {err}");
    }

    #[test]
    fn retuned_tf_changes_the_cull_set() {
        let (field, layout, stats) = setup();
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
