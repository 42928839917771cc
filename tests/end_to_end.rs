//! End-to-end integration: dataset generation → block partition → tables →
//! Algorithm 1 session on the simulated hierarchy, spanning every crate.

use viz_appaware::cache::PolicyKind;
use viz_appaware::core::{
    run_session, AppAwareConfig, ImportanceTable, RadiusModel, RadiusRule, SamplingConfig,
    SessionConfig, Strategy, VisibleTable,
};
use viz_appaware::geom::angle::deg_to_rad;
use viz_appaware::geom::{CameraPath, CameraPose, ExplorationDomain, SphericalPath, Vec3};
use viz_appaware::volume::{BrickLayout, DatasetKind, DatasetSpec};

struct Setup {
    layout: BrickLayout,
    importance: ImportanceTable,
    t_visible: VisibleTable,
    sigma: f64,
    cfg: SessionConfig,
}

fn setup(kind: DatasetKind) -> Setup {
    let spec = DatasetSpec::new(kind, 16, 5);
    let field = spec.materialize(0, 0.0);
    let layout = BrickLayout::with_target_blocks(field.dims, 256);
    let importance = ImportanceTable::from_field(&layout, &field, 64);
    let view_angle = deg_to_rad(15.0);
    let sampling = SamplingConfig::paper_default(2.0, 3.2, view_angle).with_target_samples(720);
    let t_visible = VisibleTable::build(
        sampling,
        &layout,
        RadiusRule::Optimal(RadiusModel::new(0.25, view_angle)),
        Some((&importance, layout.num_blocks() / 4)),
    );
    let sigma = importance.sigma_for_fraction(0.5);
    let cfg = SessionConfig::paper(0.5, layout.nominal_block_bytes());
    Setup { layout, importance, t_visible, sigma, cfg }
}

fn orbit(steps: usize, deg: f64) -> Vec<CameraPose> {
    let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
    SphericalPath::new(dom, 2.5, deg, deg_to_rad(15.0)).generate(steps)
}

#[test]
fn appaware_beats_fifo_and_lru_on_every_dataset() {
    for kind in DatasetKind::ALL {
        let s = setup(kind);
        let path = orbit(120, 5.0);
        let opt = run_session(
            &s.cfg,
            &s.layout,
            &Strategy::AppAware(AppAwareConfig::paper(s.sigma)),
            &path,
            Some((&s.t_visible, &s.importance)),
        );
        for base in [PolicyKind::Fifo, PolicyKind::Lru] {
            let b = run_session(&s.cfg, &s.layout, &Strategy::Baseline(base), &path, None);
            assert!(
                opt.miss_rate < b.miss_rate,
                "{:?}: OPT {:.4} !< {} {:.4}",
                kind,
                opt.miss_rate,
                base.label(),
                b.miss_rate
            );
        }
    }
}

#[test]
fn miss_rate_grows_with_view_step_for_all_strategies() {
    let s = setup(DatasetKind::Ball3d);
    for strategy in
        [Strategy::Baseline(PolicyKind::Lru), Strategy::AppAware(AppAwareConfig::paper(s.sigma))]
    {
        let mut prev = -1.0f64;
        for deg in [1.0, 10.0, 30.0] {
            let tables =
                matches!(strategy, Strategy::AppAware(_)).then_some((&s.t_visible, &s.importance));
            let r = run_session(&s.cfg, &s.layout, &strategy, &orbit(120, deg), tables);
            assert!(
                r.miss_rate >= prev - 0.02,
                "{}: miss rate dropped {prev} -> {} at {deg} deg",
                r.strategy,
                r.miss_rate
            );
            prev = r.miss_rate;
        }
    }
}

#[test]
fn bigger_cache_ratio_reduces_total_time_for_opt() {
    let s = setup(DatasetKind::Ball3d);
    let path = orbit(120, 12.0);
    let strategy = Strategy::AppAware(AppAwareConfig::paper(s.sigma));
    let half =
        run_session(&s.cfg, &s.layout, &strategy, &path, Some((&s.t_visible, &s.importance)));
    let cfg7 = SessionConfig::paper(0.7, s.layout.nominal_block_bytes());
    let seven =
        run_session(&cfg7, &s.layout, &strategy, &path, Some((&s.t_visible, &s.importance)));
    assert!(
        seven.total_s <= half.total_s + 1e-9,
        "ratio 0.7 ({:.3}s) should not be slower than 0.5 ({:.3}s)",
        seven.total_s,
        half.total_s
    );
    assert!(seven.miss_rate <= half.miss_rate + 1e-9);
}

#[test]
fn reports_are_serializable_and_consistent() {
    let s = setup(DatasetKind::LiftedMixFrac);
    let path = orbit(60, 8.0);
    let strategy = Strategy::AppAware(AppAwareConfig::paper(s.sigma));
    let r = run_session(&s.cfg, &s.layout, &strategy, &path, Some((&s.t_visible, &s.importance)));
    // Aggregates equal per-step sums.
    let io: f64 = r.per_step.iter().map(|x| x.io_s).sum();
    let total: f64 = r.per_step.iter().map(|x| x.total_s).sum();
    assert!((io - r.io_s).abs() < 1e-9);
    assert!((total - r.total_s).abs() < 1e-9);
    assert_eq!(r.steps, 60);
}

#[test]
fn sessions_are_deterministic() {
    let s = setup(DatasetKind::Ball3d);
    let path = orbit(60, 7.0);
    let strategy = Strategy::AppAware(AppAwareConfig::paper(s.sigma));
    let a = run_session(&s.cfg, &s.layout, &strategy, &path, Some((&s.t_visible, &s.importance)));
    let b = run_session(&s.cfg, &s.layout, &strategy, &path, Some((&s.t_visible, &s.importance)));
    assert_eq!(a, b);
}
