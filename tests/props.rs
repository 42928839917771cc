//! Cross-crate property tests: invariants that span the geometry, volume,
//! cache, and core layers together. Each case builds tables and replays a
//! session, so 12 seeded cases per property; a failure names the seed and
//! case that replay it.

use viz_appaware::cache::{simulate_belady, PolicyKind};
use viz_appaware::core::{
    compute_visibility, demand_trace, run_session, run_session_precomputed, AppAwareConfig,
    ImportanceTable, RadiusRule, ReuseProfile, SamplingConfig, SessionConfig, Strategy,
    VisibleTable,
};
use viz_appaware::geom::angle::deg_to_rad;
use viz_appaware::geom::rng::for_cases;
use viz_appaware::geom::{
    CameraPath, CameraPose, ExplorationDomain, RandomWalkPath, SphericalPath, Vec3,
};
use viz_appaware::volume::{BrickLayout, Dims3};

const CASES: usize = 12;

fn small_layout(seed: usize) -> BrickLayout {
    // Vary the grid a little so the properties aren't layout-specific.
    let n = 32 + (seed % 3) * 16;
    BrickLayout::new(Dims3::cube(n), Dims3::cube(8))
}

/// The session's miss accounting always agrees with the reuse-distance
/// profile's cold-miss floor: no policy can miss less than the number
/// of distinct blocks touched.
#[test]
fn misses_never_undercut_compulsory() {
    for_cases(0xe2e1, CASES, |rng, _| {
        let step_deg = rng.range(2.0, 30.0);
        let steps = rng.index(10..60);
        let lseed = rng.index(0..3);
        let layout = small_layout(lseed);
        let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
        let poses = SphericalPath::new(dom, 2.5, step_deg, deg_to_rad(15.0)).generate(steps);
        let trace = demand_trace(&layout, &poses);
        let profile = ReuseProfile::compute(&trace);
        let cfg = SessionConfig::paper(0.5, layout.nominal_block_bytes());
        for kind in [PolicyKind::Fifo, PolicyKind::Lru] {
            let r = run_session(&cfg, &layout, &Strategy::Baseline(kind), &poses, None);
            assert!(
                r.misses >= profile.cold,
                "{}: {} misses < {} compulsory",
                kind.label(),
                r.misses,
                profile.cold
            );
            assert_eq!(r.accesses, trace.len() as u64);
        }
    });
}

/// LRU session misses match the trace profile exactly (two independent
/// implementations of the same semantics).
#[test]
fn lru_session_agrees_with_mattson_profile() {
    for_cases(0xe2e2, CASES, |rng, _| {
        let step_deg = rng.range(2.0, 25.0);
        let steps = rng.index(10..50);
        let layout = small_layout(0);
        let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
        let poses = SphericalPath::new(dom, 2.5, step_deg, deg_to_rad(15.0)).generate(steps);
        let trace = demand_trace(&layout, &poses);
        let profile = ReuseProfile::compute(&trace);
        let cfg = SessionConfig::paper(0.5, layout.nominal_block_bytes());
        let r = run_session(&cfg, &layout, &Strategy::Baseline(PolicyKind::Lru), &poses, None);
        // DRAM capacity = 25% of blocks (ratio 0.5 squared).
        let cap = ((layout.num_blocks() as f64 * 0.25).round() as usize).max(1);
        assert_eq!(r.misses, profile.lru_misses(cap));
    });
}

/// T_visible predictions are always subsets of the block universe and
/// respect the importance cap.
#[test]
fn predictions_are_valid_and_capped() {
    for_cases(0xe2e3, CASES, |rng, _| {
        let samples = rng.index(32..256);
        let cap = rng.index(4..64);
        let theta = rng.range(0.0, 180.0);
        let phi = rng.range(0.0, 360.0);
        let d = rng.range(1.0, 6.0);
        let layout = small_layout(1);
        let imp = ImportanceTable::from_entropies(
            (0..layout.num_blocks()).map(|i| (i % 13) as f64).collect(),
            32,
        );
        let cfg =
            SamplingConfig::paper_default(2.0, 3.2, deg_to_rad(15.0)).with_target_samples(samples);
        let tv = VisibleTable::build(cfg, &layout, RadiusRule::Fixed(0.15), Some((&imp, cap)));
        let pose = CameraPose::orbit(theta, phi, d, 15.0);
        let pred = tv.predict(&pose);
        assert!(pred.len() <= cap);
        for b in pred {
            assert!(b.index() < layout.num_blocks());
        }
    });
}

/// Session wall-time decomposition: total >= io + render for the
/// app-aware overlap rule never undercounts components.
#[test]
fn wall_time_decomposition_is_sound() {
    for_cases(0xe2e4, CASES, |rng, _| {
        let step_deg = rng.range(2.0, 20.0);
        let steps = rng.index(5..40);
        let layout = small_layout(2);
        let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
        let poses = SphericalPath::new(dom, 2.5, step_deg, deg_to_rad(15.0)).generate(steps);
        let cfg = SessionConfig::paper(0.5, layout.nominal_block_bytes());
        let imp = ImportanceTable::from_entropies(vec![1.0; layout.num_blocks()], 32);
        let scfg =
            SamplingConfig::paper_default(2.0, 3.2, deg_to_rad(15.0)).with_target_samples(64);
        let tv = VisibleTable::build(scfg, &layout, RadiusRule::Fixed(0.15), None);
        let r = run_session(
            &cfg,
            &layout,
            &Strategy::AppAware(viz_appaware::core::AppAwareConfig::paper(0.0)),
            &poses,
            Some((&tv, &imp)),
        );
        // Overlap can hide prefetch but never render or I/O.
        assert!(r.total_s + 1e-9 >= r.io_s + r.render_s);
        assert!(r.total_s <= r.io_s + r.render_s + r.prefetch_s + r.lookup_s + 1e-9);
        for s in &r.per_step {
            assert!(s.total_s + 1e-12 >= s.io_s + s.render_s);
        }
    });
}

/// Golden session: FIFO, LRU, the paper's policy and the Belady bound on
/// one fixed scene (512 blocks, cache ratio 0.5, an 80-step 5-10 degree
/// random walk). The literals were printed at 18e5184, the last commit
/// that also carried CLOCK/LFU/ARC/2Q/MRU/LIRS/SLRU: removing those must
/// not move the survivors by a bit.
#[test]
fn golden_session_reports_did_not_move() {
    let layout = small_layout(2);
    let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
    let view = deg_to_rad(15.0);
    let poses = RandomWalkPath::new(dom, 2.5, 5.0, 10.0, view, 0x601d).generate(80);
    let vis = compute_visibility(&layout, &poses);
    let cfg = SessionConfig::paper(0.5, layout.nominal_block_bytes());
    let imp = ImportanceTable::from_entropies(
        (0..layout.num_blocks()).map(|i| (i % 13) as f64).collect(),
        32,
    );
    let sigma = imp.sigma_for_fraction(0.5);
    let scfg = SamplingConfig::paper_default(2.0, 3.2, view).with_target_samples(128);
    let tv = VisibleTable::build(scfg, &layout, RadiusRule::Fixed(0.15), None);

    let golden = [
        (Strategy::Baseline(PolicyKind::Fifo), 2920, 0x40138279ab7bad5f_u64),
        (Strategy::Baseline(PolicyKind::Lru), 5060, 0x4013ed18a5fd3e42),
        (Strategy::AppAware(AppAwareConfig::paper(sigma)), 797, 0x4010ae1750037e3e),
    ];
    for (strategy, misses, total_bits) in golden {
        let tables = matches!(strategy, Strategy::AppAware(_)).then_some((&tv, &imp));
        let r = run_session_precomputed(&cfg, &layout, &strategy, &poses, &vis, tables);
        assert_eq!(r.accesses, 9873, "{}", r.strategy);
        assert_eq!(r.misses, misses, "{}", r.strategy);
        assert_eq!(r.total_s.to_bits(), total_bits, "{}: total_s = {}", r.strategy, r.total_s);
    }

    // DRAM capacity = 25% of blocks (ratio 0.5 squared).
    let belady = simulate_belady(&demand_trace(&layout, &poses), layout.num_blocks() / 4);
    assert_eq!(belady.accesses, 9873);
    assert_eq!(belady.misses, 841);
}
