//! Guided keyframe flight: a scientist drops waypoints (overview → dive
//! toward the flame → pass along the jet → pull back) and the tool flies
//! smoothly between them with quaternion-slerped direction and log-linear
//! zoom, while the app-aware policy keeps the working set resident.
//!
//! Run with: `cargo run --release --example keyframe_flight`

use viz_appaware::cache::PolicyKind;
use viz_appaware::core::{
    run_session, AppAwareConfig, ImportanceTable, RadiusModel, RadiusRule, SamplingConfig,
    SessionConfig, Strategy, VisibleTable,
};
use viz_appaware::geom::angle::deg_to_rad;
use viz_appaware::geom::{CameraPath, ExplorationDomain, Keyframe, KeyframePath, Vec3};
use viz_appaware::volume::{BrickLayout, DatasetKind, DatasetSpec};

fn main() {
    let spec = DatasetSpec::new(DatasetKind::LiftedMixFrac, 8, 31);
    let field = spec.materialize(0, 0.0);
    let layout = BrickLayout::with_target_blocks(field.dims, 1024);
    let importance = ImportanceTable::from_field(&layout, &field, 64);
    let sigma = importance.sigma_for_fraction(0.5);

    let view_angle = deg_to_rad(15.0);
    let domain = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);

    // Waypoints of a typical combustion inspection.
    let flight = KeyframePath::new(
        domain,
        vec![
            Keyframe::new(Vec3::new(0.0, 0.0, 1.0), 3.1), // overview from above
            Keyframe::new(Vec3::new(1.0, 0.3, 0.4), 2.2).with_weight(2.0), // dive to the jet inlet
            Keyframe::new(Vec3::new(0.2, 1.0, 0.1), 2.0).with_weight(1.0), // pass along the flame
            Keyframe::new(Vec3::new(-0.6, 0.4, 0.7), 3.0).with_weight(1.5), // pull back
        ],
        view_angle,
    )
    .closed();
    let poses = flight.generate(400);
    println!("flight: {} over {} poses", flight.label(), poses.len());

    let sampling = SamplingConfig::paper_default(2.0, 3.2, view_angle).with_target_samples(3240);
    let t_visible = VisibleTable::build(
        sampling,
        &layout,
        RadiusRule::Optimal(RadiusModel::new(0.25, view_angle)),
        Some((&importance, layout.num_blocks() / 4)),
    );

    let cfg = SessionConfig::paper(0.5, layout.nominal_block_bytes());
    println!(
        "\n{:<22} {:>10} {:>10} {:>12} {:>10}",
        "policy", "miss rate", "I/O (s)", "prefetch (s)", "total (s)"
    );
    for strategy in
        [Strategy::Baseline(PolicyKind::Lru), Strategy::AppAware(AppAwareConfig::paper(sigma))]
    {
        let tables = matches!(strategy, Strategy::AppAware(_)).then_some((&t_visible, &importance));
        let r = run_session(&cfg, &layout, &strategy, &poses, tables);
        println!(
            "{:<22} {:>10.4} {:>10.3} {:>12.3} {:>10.3}",
            strategy.label(),
            r.miss_rate,
            r.io_s,
            r.prefetch_s,
            r.total_s
        );
    }
    println!("\nKeyframe flights are highly predictable (smooth slerp between waypoints)");
    println!("so predicted-visible prefetch hides almost all I/O behind rendering.");
}
