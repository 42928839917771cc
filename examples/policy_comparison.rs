//! Compare every replacement policy in the workspace — the paper's FIFO and
//! LRU baselines, the app-aware policy, and the offline Belady/MIN bound —
//! on one interactive exploration.
//!
//! Run with: `cargo run --release --example policy_comparison`

use viz_appaware::cache::{simulate_belady, PolicyKind};
use viz_appaware::core::{
    compute_visibility, demand_trace, run_session_precomputed, AppAwareConfig, ImportanceTable,
    RadiusModel, RadiusRule, SamplingConfig, SessionConfig, Strategy, VisibleTable,
};
use viz_appaware::geom::angle::deg_to_rad;
use viz_appaware::geom::{CameraPath, ExplorationDomain, RandomWalkPath, Vec3};
use viz_appaware::volume::{BrickLayout, DatasetKind, DatasetSpec};

fn main() {
    let spec = DatasetSpec::new(DatasetKind::LiftedMixFrac, 8, 21);
    let field = spec.materialize(0, 0.0);
    let layout = BrickLayout::with_target_blocks(field.dims, 1024);
    let importance = ImportanceTable::from_field(&layout, &field, 64);
    let sigma = importance.sigma_for_fraction(0.5);

    let view_angle = deg_to_rad(15.0);
    let sampling = SamplingConfig::paper_default(2.0, 3.2, view_angle).with_target_samples(3240);
    let t_visible = VisibleTable::build(
        sampling,
        &layout,
        RadiusRule::Optimal(RadiusModel::new(0.25, view_angle)),
        Some((&importance, layout.num_blocks() / 4)),
    );

    let domain = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
    let path = RandomWalkPath::new(domain, 2.5, 5.0, 10.0, view_angle, 9).generate(400);
    let visibility = compute_visibility(&layout, &path);
    let cfg = SessionConfig::paper(0.5, layout.nominal_block_bytes());

    println!("lifted_mix_frac, {} blocks, 400-step random path (5-10 deg)\n", layout.num_blocks());
    println!("{:<22} {:>10} {:>10} {:>10}", "policy", "miss rate", "I/O (s)", "total (s)");

    for strategy in [
        Strategy::Baseline(PolicyKind::Fifo),
        Strategy::Baseline(PolicyKind::Lru),
        Strategy::AppAware(AppAwareConfig::paper(sigma)),
    ] {
        let tables = matches!(strategy, Strategy::AppAware(_)).then_some((&t_visible, &importance));
        let r = run_session_precomputed(&cfg, &layout, &strategy, &path, &visibility, tables);
        println!("{:<22} {:>10.4} {:>10.3} {:>10.3}", r.strategy, r.miss_rate, r.io_s, r.total_s);
    }

    // The unbeatable offline bound for reactive replacement (no prefetch).
    let trace = demand_trace(&layout, &path);
    let belady = simulate_belady(&trace, (layout.num_blocks() / 4).max(1));
    println!(
        "{:<22} {:>10.4}    (offline lower bound, DRAM tier)",
        "Belady/MIN",
        belady.miss_rate()
    );
}
