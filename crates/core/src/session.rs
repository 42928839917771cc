//! The interactive-visualization session engine — the paper's Algorithm 1
//! and its FIFO/LRU baselines, driven over a camera path against the
//! simulated DRAM/SSD/HDD hierarchy.
//!
//! Per view point `v_i` the engine:
//!
//! 1. computes the ground-truth visible blocks (Eq. 1 cone test),
//! 2. demand-fetches the misses into fast memory (baselines evict by their
//!    own policy; the app-aware mode evicts LRU-among-stale: blocks used by
//!    the current step are pinned),
//! 3. "renders" (an analytic render-time model — see DESIGN.md §2), and
//! 4. in app-aware mode, overlaps rendering with prefetching the predicted
//!    next-view blocks from `T_visible`, entropy-filtered by `T_important`.
//!
//! Total time accounting follows §V-D exactly: baselines accumulate
//! `io + render` per step; the app-aware mode accumulates
//! `io + max(prefetch, render)` because prefetch is hidden behind rendering.

use crate::importance::ImportanceTable;
use crate::prediction::extrapolate_pose;
use crate::sampling::{visible_blocks, VisibleTable};
use viz_cache::{AccessClass, Hierarchy, PolicyKind};
use viz_geom::CameraPose;
use viz_telemetry::EventKind as Ev;
use viz_volume::{BlockId, BrickLayout};

/// Analytic render-time model: `base + per_block × |visible|` seconds.
///
/// Substitutes for the paper's GPU volume renderer; only the duration that
/// prefetching can hide matters to the policy (DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderModel {
    /// Fixed per-frame cost (s).
    pub base_s: f64,
    /// Additional cost per visible block (s).
    pub per_block_s: f64,
}

impl RenderModel {
    /// A frame-rate-realistic default: ~5 ms fixed + 0.2 ms per block
    /// (≈30 fps at 100 visible blocks).
    pub(crate) fn default_interactive() -> Self {
        RenderModel { base_s: 5e-3, per_block_s: 2e-4 }
    }

    /// Render duration for a frame touching `blocks` blocks.
    pub fn time(&self, blocks: usize) -> f64 {
        self.base_s + self.per_block_s * blocks as f64
    }
}

/// Strategy under evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Conventional replacement with no prediction: the paper's FIFO and
    /// LRU comparison points (any [`PolicyKind`] works).
    Baseline(PolicyKind),
    /// The paper's application-aware scheme ("OPT" in the figures).
    AppAware(AppAwareConfig),
}

impl Strategy {
    /// Label used in reports ("FIFO", "LRU", "OPT", ...).
    pub fn label(&self) -> String {
        match self {
            Strategy::Baseline(k) => k.label().to_string(),
            Strategy::AppAware(c) => {
                if c.prefetch && c.preload {
                    "OPT".to_string()
                } else {
                    format!(
                        "OPT(preload={},prefetch={},overlap={})",
                        c.preload, c.prefetch, c.overlap
                    )
                }
            }
        }
    }
}

/// Knobs of the app-aware strategy; the ablation bench toggles these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppAwareConfig {
    /// Entropy threshold σ: only blocks with entropy > σ are pre-loaded and
    /// prefetched (Algorithm 1 lines 7 and 22).
    pub sigma: f64,
    /// Pre-load important blocks before the path starts (line 7).
    pub preload: bool,
    /// Prefetch predicted next-view blocks during rendering (line 22).
    pub prefetch: bool,
    /// Overlap prefetch with rendering; when `false` prefetch time adds
    /// serially (used to quantify the overlap benefit).
    pub overlap: bool,
    /// How the next view's blocks are predicted (ablation knob).
    pub predictor: PredictorKind,
}

/// Source of the next-view prediction driving prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// The paper's `T_visible` nearest-sample lookup (§IV-B).
    #[default]
    Table,
    /// Dead reckoning: extrapolate the camera's motion and compute exact
    /// visibility at the extrapolated pose (no pre-processing; whiffs on
    /// direction changes). Extension baseline.
    DeadReckoning,
}

impl AppAwareConfig {
    /// The full paper configuration (fixed σ).
    pub fn paper(sigma: f64) -> Self {
        AppAwareConfig {
            sigma,
            preload: true,
            prefetch: true,
            overlap: true,
            predictor: PredictorKind::Table,
        }
    }

    /// Swap in the dead-reckoning predictor (ablation).
    pub fn with_dead_reckoning(mut self) -> Self {
        self.predictor = PredictorKind::DeadReckoning;
        self
    }
}

/// Per-step record of a session run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepMetrics {
    /// Blocks visible this step.
    pub visible: usize,
    /// Demand misses (block not in fast memory when requested).
    pub misses: usize,
    /// Simulated demand I/O seconds.
    pub io_s: f64,
    /// Simulated render seconds.
    pub render_s: f64,
    /// Simulated prefetch seconds (0 for baselines).
    pub prefetch_s: f64,
    /// Table look-up overhead seconds (0 for baselines).
    pub lookup_s: f64,
    /// Step wall time under the strategy's overlap rule.
    pub total_s: f64,
}

/// Aggregated result of a session run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Strategy label ("FIFO" / "LRU" / "OPT" / ...).
    pub strategy: String,
    /// Steps walked.
    pub steps: usize,
    /// Total demand accesses (visible-block requests).
    pub accesses: u64,
    /// Demand accesses missing fast memory.
    pub misses: u64,
    /// `misses / accesses`.
    pub miss_rate: f64,
    /// Σ per-step demand I/O seconds.
    pub io_s: f64,
    /// Σ render seconds.
    pub render_s: f64,
    /// Σ prefetch seconds.
    pub prefetch_s: f64,
    /// Σ look-up overhead seconds.
    pub lookup_s: f64,
    /// Σ per-step wall time (the paper's "total time").
    pub total_s: f64,
    /// Per-step details.
    pub per_step: Vec<StepMetrics>,
}

/// Session configuration independent of the strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Fast:slow cache-size ratio (0.5 or 0.7 in the paper).
    pub cache_ratio: f64,
    /// Uniform block payload bytes for the cost model.
    pub block_bytes: usize,
    /// Render-time model.
    pub render: RenderModel,
    /// Per-entry look-up cost modeling the paper's Fig. 7 observation that
    /// larger `T_visible` tables slow down prefetch queries (their lookup
    /// scales with table size; ours is O(1), so this reintroduces the
    /// measured overhead as a model, default 15 ns/entry per query).
    pub lookup_s_per_entry: f64,
    /// Device costs `[fastest, middle, backing]`; defaults to the paper's
    /// DRAM/SSD/HDD testbed.
    pub tier_costs: [viz_cache::TierCost; 3],
}

impl SessionConfig {
    /// Paper-default configuration at a given cache ratio.
    pub fn paper(cache_ratio: f64, block_bytes: usize) -> Self {
        SessionConfig {
            cache_ratio,
            block_bytes,
            render: RenderModel::default_interactive(),
            lookup_s_per_entry: 15e-9,
            tier_costs: [
                viz_cache::TierCost::dram(),
                viz_cache::TierCost::ssd(),
                viz_cache::TierCost::hdd(),
            ],
        }
    }

    /// Swap in a different device triple (e.g. GPU-mem/DRAM/NVMe for VR).
    pub fn with_tier_costs(mut self, costs: [viz_cache::TierCost; 3]) -> Self {
        self.tier_costs = costs;
        self
    }
}

/// Run one strategy over a camera path. Returns the aggregated report; the
/// underlying hierarchy statistics are folded in.
///
/// `tables` must be `Some((t_visible, t_important))` for
/// [`Strategy::AppAware`]; baselines ignore them.
pub fn run_session(
    config: &SessionConfig,
    layout: &BrickLayout,
    strategy: &Strategy,
    poses: &[CameraPose],
    tables: Option<(&VisibleTable, &ImportanceTable)>,
) -> SessionReport {
    let visible = compute_visibility(layout, poses);
    run_session_precomputed(config, layout, strategy, poses, &visible, tables)
}

/// Ground-truth visible sets for every pose of a path (Eq. 1 cone test),
/// computed in parallel. Sweeps that replay the same path under several
/// strategies compute this once and call [`run_session_precomputed`].
pub fn compute_visibility(layout: &BrickLayout, poses: &[CameraPose]) -> Vec<Vec<BlockId>> {
    // Warm the cached BVH once up front so the workers don't all stall on
    // the same lazy build.
    let _ = layout.block_bvh();
    viz_geom::par::map(poses.len(), |i| visible_blocks(&poses[i], layout))
}

/// [`run_session`] with the per-step visible sets supplied by the caller
/// (`visible.len()` must equal `poses.len()`).
pub fn run_session_precomputed(
    config: &SessionConfig,
    layout: &BrickLayout,
    strategy: &Strategy,
    poses: &[CameraPose],
    visible_sets: &[Vec<BlockId>],
    tables: Option<(&VisibleTable, &ImportanceTable)>,
) -> SessionReport {
    assert_eq!(poses.len(), visible_sets.len(), "one visible set per pose");
    let num_blocks = layout.num_blocks();
    let policy = match strategy {
        Strategy::Baseline(k) => *k,
        // Algorithm 1 replaces by least-recently-used among stale blocks.
        Strategy::AppAware(_) => PolicyKind::Lru,
    };
    let mut hier: Hierarchy<BlockId> = Hierarchy::two_level(
        num_blocks,
        config.cache_ratio,
        policy,
        config.block_bytes,
        config.tier_costs,
    );

    let app = match strategy {
        Strategy::AppAware(c) => Some(*c),
        Strategy::Baseline(_) => None,
    };
    let (t_visible, t_important) = match (app, tables) {
        (Some(_), Some((tv, ti))) => (Some(tv), Some(ti)),
        (Some(_), None) => panic!("AppAware strategy requires T_visible and T_important"),
        _ => (None, None),
    };

    // Algorithm 1 line 7: pre-load important blocks (capped at fast-memory
    // capacity so the pre-load cannot thrash itself).
    if let (Some(c), Some(ti)) = (app, t_important) {
        if c.preload {
            let cap = hier.tier_capacity(0);
            for b in ti.above_threshold(c.sigma).take(cap) {
                hier.preload(b);
            }
        }
    }

    let lookup_cost = match (app, t_visible) {
        (Some(c), Some(tv)) if c.prefetch => config.lookup_s_per_entry * tv.len() as f64,
        _ => 0.0,
    };

    let mut per_step = Vec::with_capacity(poses.len());
    let (mut io_total, mut render_total, mut prefetch_total, mut lookup_total, mut wall_total) =
        (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut prev_pose: Option<CameraPose> = None;

    for (step_index, (pose, visible)) in poses.iter().zip(visible_sets).enumerate() {
        let ft = viz_telemetry::start();
        // Pin the current working set in app-aware mode: Algorithm 1 only
        // evicts blocks whose last-use time predates the current step.
        if app.is_some() {
            for &b in visible {
                hier.pin_fastest(b);
            }
        }

        let mut step_io = 0.0;
        let mut step_misses = 0usize;
        for &b in visible {
            let o = hier.fetch(b, AccessClass::Demand);
            if !o.fast_hit {
                step_misses += 1;
                step_io += o.time_s;
            }
        }

        let render_s = config.render.time(visible.len());

        // Algorithm 1 lines 20–22: during rendering, prefetch the predicted
        // set for the nearest sampling position, entropy-filtered.
        let mut step_prefetch = 0.0;
        let mut step_lookup = 0.0;
        if let (Some(c), Some(tv), Some(ti)) = (app, t_visible, t_important) {
            if c.prefetch {
                let dead_reckoned: Vec<BlockId>;
                let predicted: &[BlockId] = match c.predictor {
                    PredictorKind::Table => {
                        step_lookup = lookup_cost;
                        tv.predict(pose)
                    }
                    PredictorKind::DeadReckoning => {
                        // Extrapolate motion; exact visibility at the
                        // predicted pose (no table, no lookup cost).
                        let next = extrapolate_pose(prev_pose.as_ref(), pose);
                        dead_reckoned = visible_blocks(&next, layout);
                        &dead_reckoned
                    }
                };
                for &b in predicted {
                    if ti.entropy(b) > c.sigma && !hier.in_fastest(&b) {
                        let o = hier.fetch(b, AccessClass::Prefetch);
                        step_prefetch += o.time_s;
                    }
                }
            }
        }
        prev_pose = Some(*pose);
        if app.is_some() {
            hier.unpin_fastest();
        }

        let total_s = match app {
            // §V-D: total = io + max(prefetch, render) when overlapped.
            Some(c) if c.overlap => step_io + render_s.max(step_prefetch) + step_lookup,
            Some(_) => step_io + render_s + step_prefetch + step_lookup,
            None => step_io + render_s,
        };

        io_total += step_io;
        render_total += render_s;
        prefetch_total += step_prefetch;
        lookup_total += step_lookup;
        wall_total += total_s;
        // Every demand block is fetched, so the frame is never degraded.
        viz_telemetry::span(Ev::Frame, step_index as u64, 0, ft);
        per_step.push(StepMetrics {
            visible: visible.len(),
            misses: step_misses,
            io_s: step_io,
            render_s,
            prefetch_s: step_prefetch,
            lookup_s: step_lookup,
            total_s,
        });
    }

    let stats = hier.stats();
    SessionReport {
        strategy: strategy.label(),
        steps: poses.len(),
        accesses: stats.demand_accesses,
        misses: stats.demand_fast_misses,
        miss_rate: stats.miss_rate(),
        io_s: io_total,
        render_s: render_total,
        prefetch_s: prefetch_total,
        lookup_s: lookup_total,
        total_s: wall_total,
        per_step,
    }
}

/// Record the demand access trace a path generates (for offline analyses
/// such as the Belady bound): simply the concatenated visible sets.
pub fn demand_trace(layout: &BrickLayout, poses: &[CameraPose]) -> Vec<BlockId> {
    let mut trace = Vec::new();
    for pose in poses {
        trace.extend(visible_blocks(pose, layout));
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{RadiusRule, SamplingConfig};
    use viz_geom::angle::deg_to_rad;
    use viz_geom::{CameraPath, ExplorationDomain, SphericalPath};
    use viz_volume::Dims3;

    fn layout() -> BrickLayout {
        BrickLayout::new(Dims3::cube(64), Dims3::cube(16)) // 64 blocks
    }

    fn domain() -> ExplorationDomain {
        ExplorationDomain::new(viz_geom::Vec3::ZERO, 2.0, 4.0)
    }

    fn poses(step_deg: f64, n: usize) -> Vec<CameraPose> {
        SphericalPath::new(domain(), 2.5, step_deg, deg_to_rad(30.0)).generate(n)
    }

    fn tables(l: &BrickLayout) -> (VisibleTable, ImportanceTable) {
        let imp = ImportanceTable::from_entropies(vec![4.0; l.num_blocks()], 64);
        let cfg = SamplingConfig {
            n_theta: 8,
            n_phi: 16,
            n_dist: 3,
            d_min: 2.0,
            d_max: 4.0,
            vicinal_points: 6,
            view_angle: deg_to_rad(30.0),
            seed: 1,
        };
        let tv = VisibleTable::build(cfg, l, RadiusRule::Fixed(0.3), None);
        (tv, imp)
    }

    #[test]
    fn baseline_report_is_consistent() {
        let l = layout();
        let r = run_session(
            &SessionConfig::paper(0.5, 4096),
            &l,
            &Strategy::Baseline(PolicyKind::Lru),
            &poses(10.0, 50),
            None,
        );
        assert_eq!(r.steps, 50);
        assert_eq!(r.per_step.len(), 50);
        assert!(r.accesses > 0);
        assert!(r.miss_rate >= 0.0 && r.miss_rate <= 1.0);
        assert_eq!(r.prefetch_s, 0.0);
        // Totals are the per-step sums.
        let io_sum: f64 = r.per_step.iter().map(|s| s.io_s).sum();
        assert!((io_sum - r.io_s).abs() < 1e-9);
        let miss_sum: usize = r.per_step.iter().map(|s| s.misses).sum();
        assert_eq!(miss_sum as u64, r.misses);
    }

    #[test]
    fn telemetry_emits_one_frame_span_per_step() {
        // Other tests may run concurrently and also emit while the global
        // gate is open, so assertions are >= and keyed by step index.
        let l = layout();
        viz_telemetry::set_enabled(true);
        let r = run_session(
            &SessionConfig::paper(0.5, 4096),
            &l,
            &Strategy::Baseline(PolicyKind::Lru),
            &poses(10.0, 12),
            None,
        );
        let trace = viz_telemetry::drain();
        viz_telemetry::set_enabled(false);
        assert_eq!(r.steps, 12);
        let frames: Vec<_> = trace.events.iter().filter(|e| e.kind == Ev::Frame).collect();
        assert!(frames.len() >= 12, "expected >=12 frame spans, got {}", frames.len());
        for step in 0..12u64 {
            assert!(frames.iter().any(|e| e.key == step), "no frame span for step {step}");
        }
    }

    #[test]
    fn baseline_total_is_io_plus_render() {
        let l = layout();
        let r = run_session(
            &SessionConfig::paper(0.5, 4096),
            &l,
            &Strategy::Baseline(PolicyKind::Fifo),
            &poses(15.0, 30),
            None,
        );
        assert!((r.total_s - (r.io_s + r.render_s)).abs() < 1e-9);
    }

    #[test]
    fn appaware_beats_baselines_on_smooth_path() {
        let l = layout();
        let cfg = SessionConfig::paper(0.5, 4096);
        let path = poses(5.0, 100);
        let (tv, ti) = tables(&l);
        let opt = run_session(
            &cfg,
            &l,
            &Strategy::AppAware(AppAwareConfig::paper(0.0)),
            &path,
            Some((&tv, &ti)),
        );
        for base in [PolicyKind::Fifo, PolicyKind::Lru] {
            let b = run_session(&cfg, &l, &Strategy::Baseline(base), &path, None);
            assert!(
                opt.miss_rate < b.miss_rate,
                "OPT {} vs {} {}",
                opt.miss_rate,
                base.label(),
                b.miss_rate
            );
        }
    }

    #[test]
    fn appaware_overlap_hides_prefetch_time() {
        let l = layout();
        let cfg = SessionConfig::paper(0.5, 4096);
        let path = poses(5.0, 60);
        let (tv, ti) = tables(&l);
        let with = run_session(
            &cfg,
            &l,
            &Strategy::AppAware(AppAwareConfig::paper(0.0)),
            &path,
            Some((&tv, &ti)),
        );
        let without = run_session(
            &cfg,
            &l,
            &Strategy::AppAware(AppAwareConfig { overlap: false, ..AppAwareConfig::paper(0.0) }),
            &path,
            Some((&tv, &ti)),
        );
        // Same cache behaviour, strictly less or equal wall time.
        assert_eq!(with.miss_rate, without.miss_rate);
        assert!(with.total_s <= without.total_s + 1e-12);
        assert!(with.prefetch_s > 0.0);
    }

    #[test]
    fn prefetch_off_makes_overlap_moot() {
        // With no prefetch there is nothing to hide behind rendering, so
        // `io + max(0, render)` and `io + render + 0` are the same step
        // time: the two configurations differ only in their label.
        let l = layout();
        let cfg = SessionConfig::paper(0.5, 4096);
        let path = poses(5.0, 60);
        let (tv, ti) = tables(&l);
        let run = |overlap: bool| {
            let c = AppAwareConfig { prefetch: false, overlap, ..AppAwareConfig::paper(0.0) };
            run_session(&cfg, &l, &Strategy::AppAware(c), &path, Some((&tv, &ti)))
        };
        let (with, mut without) = (run(true), run(false));
        assert!(with.misses > 0 && with.io_s > 0.0);
        assert_ne!(with.strategy, without.strategy, "the label names `overlap`");
        without.strategy = with.strategy.clone();
        assert_eq!(with, without);
    }

    #[test]
    fn sigma_filters_prefetch_volume() {
        let l = layout();
        let cfg = SessionConfig::paper(0.5, 4096);
        let path = poses(10.0, 40);
        // Half the blocks high-entropy, half zero.
        let ent: Vec<f64> =
            (0..l.num_blocks()).map(|i| if i % 2 == 0 { 5.0 } else { 0.0 }).collect();
        let ti = ImportanceTable::from_entropies(ent, 64);
        let scfg = SamplingConfig {
            n_theta: 8,
            n_phi: 16,
            n_dist: 3,
            d_min: 2.0,
            d_max: 4.0,
            vicinal_points: 6,
            view_angle: deg_to_rad(30.0),
            seed: 1,
        };
        let tv = VisibleTable::build(scfg, &l, RadiusRule::Fixed(0.3), None);
        let loose = run_session(
            &cfg,
            &l,
            &Strategy::AppAware(AppAwareConfig::paper(-1.0)),
            &path,
            Some((&tv, &ti)),
        );
        let tight = run_session(
            &cfg,
            &l,
            &Strategy::AppAware(AppAwareConfig::paper(4.0)),
            &path,
            Some((&tv, &ti)),
        );
        assert!(tight.prefetch_s < loose.prefetch_s);
    }

    #[test]
    #[should_panic]
    fn appaware_without_tables_panics() {
        let l = layout();
        run_session(
            &SessionConfig::paper(0.5, 4096),
            &l,
            &Strategy::AppAware(AppAwareConfig::paper(0.0)),
            &poses(10.0, 5),
            None,
        );
    }

    #[test]
    fn demand_trace_matches_session_accesses() {
        let l = layout();
        let path = poses(10.0, 20);
        let trace = demand_trace(&l, &path);
        let r = run_session(
            &SessionConfig::paper(0.5, 4096),
            &l,
            &Strategy::Baseline(PolicyKind::Lru),
            &path,
            None,
        );
        assert_eq!(trace.len() as u64, r.accesses);
    }

    #[test]
    fn smaller_steps_mean_fewer_misses() {
        // Fig. 12's monotonicity: smaller view-direction change per step ⇒
        // lower miss rate (for any policy).
        let l = layout();
        let cfg = SessionConfig::paper(0.5, 4096);
        let small =
            run_session(&cfg, &l, &Strategy::Baseline(PolicyKind::Lru), &poses(1.0, 100), None);
        let large =
            run_session(&cfg, &l, &Strategy::Baseline(PolicyKind::Lru), &poses(30.0, 100), None);
        assert!(small.miss_rate <= large.miss_rate, "1° path missed more than 30° path");
    }

    #[test]
    fn dead_reckoning_competes_on_smooth_paths() {
        // On a constant orbit, extrapolation is exact: it should perform at
        // least comparably to the table lookup.
        let l = layout();
        let cfg = SessionConfig::paper(0.5, 4096);
        let path = poses(6.0, 80);
        let (tv, ti) = tables(&l);
        let table = run_session(
            &cfg,
            &l,
            &Strategy::AppAware(AppAwareConfig::paper(0.0)),
            &path,
            Some((&tv, &ti)),
        );
        let dr = run_session(
            &cfg,
            &l,
            &Strategy::AppAware(AppAwareConfig::paper(0.0).with_dead_reckoning()),
            &path,
            Some((&tv, &ti)),
        );
        assert!(
            dr.miss_rate <= table.miss_rate * 1.5 + 0.02,
            "dead reckoning collapsed on a smooth orbit: {} vs {}",
            dr.miss_rate,
            table.miss_rate
        );
        // And both beat no prefetching at all.
        let none = run_session(
            &cfg,
            &l,
            &Strategy::AppAware(AppAwareConfig { prefetch: false, ..AppAwareConfig::paper(0.0) }),
            &path,
            Some((&tv, &ti)),
        );
        assert!(dr.miss_rate < none.miss_rate);
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::Baseline(PolicyKind::Fifo).label(), "FIFO");
        assert_eq!(Strategy::AppAware(AppAwareConfig::paper(0.5)).label(), "OPT");
    }

    #[test]
    fn render_model_is_affine() {
        let m = RenderModel { base_s: 1.0, per_block_s: 0.5 };
        assert_eq!(m.time(0), 1.0);
        assert_eq!(m.time(4), 3.0);
    }
}
