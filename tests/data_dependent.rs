//! Integration of the data-dependent machinery (§III-A): transfer-function
//! retuning re-ranks importance through the per-block histogram table,
//! culls blocks through opacity ranges, and redirects the session's
//! prefetch — without ever rescanning voxel data.

use viz_appaware::core::{
    run_session, AppAwareConfig, BlockHistogramTable, RadiusModel, RadiusRule, SamplingConfig,
    SessionConfig, Strategy, VisibleTable,
};
use viz_appaware::geom::angle::deg_to_rad;
use viz_appaware::geom::{CameraPath, ExplorationDomain, SphericalPath, Vec3};
use viz_appaware::render::{
    block_stats_for, contributing_working_set, RenderConfig, Rgba, TransferFunction,
};
use viz_appaware::volume::{BrickLayout, DatasetKind, DatasetSpec, VolumeField};

fn setup() -> (VolumeField, BrickLayout, BlockHistogramTable) {
    let spec = DatasetSpec::new(DatasetKind::Ball3d, 16, 13); // 64³
    let field = spec.materialize(0, 0.0);
    let layout = BrickLayout::with_target_blocks(field.dims, 512);
    let table = BlockHistogramTable::from_field(&layout, &field, 64);
    (field, layout, table)
}

#[test]
fn tf_retune_redirects_the_whole_pipeline() {
    let (field, layout, htable) = setup();
    let (lo, hi) = field.min_max();
    let span = hi - lo;

    // Two transfer functions: one showing only the high-value core, one
    // only the low-value shell.
    let tf_high = TransferFunction::iso_peak(0.85, 0.1, Rgba::new(1.0, 0.5, 0.0, 1.0), (lo, hi));
    let tf_low = TransferFunction::iso_peak(0.15, 0.1, Rgba::new(0.0, 0.5, 1.0, 1.0), (lo, hi));

    // 1. Importance re-ranks instantly from histograms.
    let thr_high = lo + 0.75 * span;
    let thr_low_a = lo + 0.05 * span;
    let thr_low_b = lo + 0.25 * span;
    let imp_high = htable.weighted_importance(move |v| if v > thr_high { 1.0 } else { 0.0 });
    let imp_low =
        htable.weighted_importance(move |v| if v > thr_low_a && v < thr_low_b { 1.0 } else { 0.0 });
    assert_ne!(
        imp_high.ranked()[0].block,
        imp_low.ranked()[0].block,
        "different TFs must promote different blocks"
    );

    // 2. Opacity culling keeps different (overlapping) working sets.
    let stats = block_stats_for(&layout, &field, 64);
    let pose = viz_appaware::render::orbit_pose(80.0, 30.0, 2.5, deg_to_rad(20.0));
    let rc = RenderConfig::preview(64, 64);
    let ws_high = contributing_working_set(&pose, &layout, &rc, &stats, &tf_high);
    let ws_low = contributing_working_set(&pose, &layout, &rc, &stats, &tf_low);
    assert!(!ws_high.is_empty() && !ws_low.is_empty());
    assert_ne!(ws_high, ws_low, "culling must follow the TF");

    // 3. The session prefetches under each importance table and behaves
    //    sanely with both.
    let view_angle = deg_to_rad(15.0);
    let sampling = SamplingConfig::paper_default(2.0, 3.2, view_angle).with_target_samples(512);
    let tv = VisibleTable::build(
        sampling,
        &layout,
        RadiusRule::Optimal(RadiusModel::new(0.25, view_angle)),
        None,
    );
    let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
    let path = SphericalPath::new(dom, 2.5, 8.0, view_angle).generate(60);
    let cfg = SessionConfig::paper(0.5, layout.nominal_block_bytes());
    for imp in [&imp_high, &imp_low] {
        let sigma = imp.sigma_for_fraction(0.25);
        let r = run_session(
            &cfg,
            &layout,
            &Strategy::AppAware(AppAwareConfig::paper(sigma)),
            &path,
            Some((&tv, imp)),
        );
        assert!(r.miss_rate < 1.0);
        assert!(r.prefetch_s >= 0.0);
    }
}

#[test]
fn histogram_table_entropy_agrees_with_block_stats() {
    let (field, layout, htable) = setup();
    let stats = block_stats_for(&layout, &field, 64);
    let derived = htable.entropy_importance();
    for id in layout.block_ids() {
        assert!(
            (stats[id.index()].entropy - derived.entropy(id)).abs() < 1e-9,
            "block {id}: render-side and core-side entropies diverged"
        );
    }
}

#[test]
fn culled_blocks_have_zero_weighted_importance() {
    // Consistency between the two data-dependent filters: a block culled by
    // a binary opacity function must score zero under the same function as
    // an importance weight.
    let (field, layout, htable) = setup();
    let (lo, hi) = field.min_max();
    let cut = lo + 0.6 * (hi - lo);
    let tf = TransferFunction::new(
        vec![
            viz_appaware::render::ControlPoint { x: 0.0, color: Rgba::TRANSPARENT },
            viz_appaware::render::ControlPoint {
                x: (cut - lo) / (hi - lo),
                color: Rgba::TRANSPARENT,
            },
            viz_appaware::render::ControlPoint { x: 1.0, color: Rgba::new(1.0, 1.0, 1.0, 1.0) },
        ],
        (lo, hi),
    );
    let stats = block_stats_for(&layout, &field, 64);
    let imp = htable.weighted_importance(move |v| if v > cut { 1.0 } else { 0.0 });
    for id in layout.block_ids() {
        let culled = tf.max_opacity_in(stats[id.index()].min, stats[id.index()].max) <= 0.0;
        if culled {
            // Histogram bins are coarser than exact min/max, allow epsilon.
            assert!(
                imp.entropy(id) < 0.05,
                "block {id} culled by TF but importance {}",
                imp.entropy(id)
            );
        }
    }
}
