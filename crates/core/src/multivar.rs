//! Multi-variable, time-varying sessions: the paper's *data-dependent*
//! operations (§III-A).
//!
//! Beyond moving the camera, a scientist switches variables, advances
//! timesteps, and computes cross-variable statistics (the Fig. 3
//! correlation matrix needs *every* active variable's visible blocks at
//! full resolution). The cached unit therefore becomes a
//! [`BlockKey`] — `(variable, timestep, block)` — and a step's demand set
//! is the cross product of the visible blocks with the active variables.
//!
//! The app-aware tables still apply: `T_visible` is geometry-only (the
//! paper notes it "is independent to specific datasets"), and each variable
//! carries its own `T_important`.

use crate::importance::ImportanceTable;
use crate::sampling::{visible_blocks, VisibleTable};
use crate::session::{SessionConfig, StepMetrics};
use viz_cache::{AccessClass, Hierarchy, PolicyKind};
use viz_geom::CameraPose;
use viz_volume::{BlockKey, BrickLayout};

/// One step of an exploration script: where the camera is, which variables
/// the active analysis touches, and the current timestep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptStep {
    /// Camera pose for this step.
    pub pose: CameraPose,
    /// Variables the view's analysis reads (e.g. the correlation matrix's
    /// variable set). Must be non-empty.
    pub vars: Vec<u16>,
    /// Timestep index.
    pub time: u16,
}

/// A scripted exploration: camera path + variable/timestep schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExplorationScript {
    /// Ordered steps.
    pub steps: Vec<ScriptStep>,
}

impl ExplorationScript {
    /// A script that follows `poses` with a fixed variable set at time 0.
    pub fn single_phase(poses: &[CameraPose], vars: Vec<u16>) -> Self {
        assert!(!vars.is_empty(), "need at least one active variable");
        ExplorationScript {
            steps: poses
                .iter()
                .map(|&pose| ScriptStep { pose, vars: vars.clone(), time: 0 })
                .collect(),
        }
    }

    /// A script that follows `poses` while cycling through variable groups
    /// every `switch_every` steps (the "tuning transfer functions /
    /// switching variables" interaction).
    pub fn with_variable_switches(
        poses: &[CameraPose],
        groups: &[Vec<u16>],
        switch_every: usize,
    ) -> Self {
        assert!(!groups.is_empty() && groups.iter().all(|g| !g.is_empty()));
        assert!(switch_every > 0);
        ExplorationScript {
            steps: poses
                .iter()
                .enumerate()
                .map(|(i, &pose)| ScriptStep {
                    pose,
                    vars: groups[(i / switch_every) % groups.len()].clone(),
                    time: 0,
                })
                .collect(),
        }
    }

    /// Advance the timestep every `advance_every` steps (time-varying
    /// playback, wrapping at `num_timesteps`).
    pub fn with_time_advance(mut self, advance_every: usize, num_timesteps: u16) -> Self {
        assert!(advance_every > 0 && num_timesteps > 0);
        for (i, step) in self.steps.iter_mut().enumerate() {
            step.time = ((i / advance_every) as u16) % num_timesteps;
        }
        self
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the script has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Highest variable index referenced (None for an empty script).
    pub fn max_var(&self) -> Option<u16> {
        self.steps.iter().flat_map(|s| s.vars.iter().copied()).max()
    }
}

/// Strategy for multi-variable runs.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiVarStrategy {
    /// Conventional replacement over `(var, time, block)` keys.
    Baseline(PolicyKind),
    /// App-aware: per-variable pre-load + predicted prefetch with entropy
    /// filtering; LRU-among-stale eviction with working-set pinning.
    AppAware {
        /// Entropy threshold σ (shared across variables).
        sigma: f64,
    },
}

/// Aggregate report of a multi-variable session (same metric semantics as
/// [`crate::session::SessionReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVarReport {
    /// Strategy label.
    pub strategy: String,
    /// Steps executed.
    pub steps: usize,
    /// Total demand accesses (visible blocks × active variables).
    pub accesses: u64,
    /// Demand accesses missing fast memory.
    pub misses: u64,
    /// `misses / accesses`.
    pub miss_rate: f64,
    /// Σ demand I/O seconds.
    pub io_s: f64,
    /// Σ render/analysis seconds.
    pub render_s: f64,
    /// Σ prefetch seconds.
    pub prefetch_s: f64,
    /// Σ wall seconds under the overlap rule.
    pub total_s: f64,
    /// Per-step metrics.
    pub per_step: Vec<StepMetrics>,
}

/// Run a scripted multi-variable exploration.
///
/// `importance[v]` is variable `v`'s `T_important`; `num_timesteps` sizes
/// the key space (the hierarchy capacities scale with
/// `blocks × variables` of one timestep, matching the paper's single-
/// snapshot Table I sizing).
pub fn run_multivar_session(
    config: &SessionConfig,
    layout: &BrickLayout,
    strategy: &MultiVarStrategy,
    script: &ExplorationScript,
    t_visible: Option<&VisibleTable>,
    importance: &[ImportanceTable],
) -> MultiVarReport {
    assert!(!importance.is_empty(), "need at least one importance table");
    if let Some(v) = script.max_var() {
        assert!(
            (v as usize) < importance.len(),
            "script references variable {v} but only {} importance tables given",
            importance.len()
        );
    }

    let policy = match strategy {
        MultiVarStrategy::Baseline(k) => *k,
        MultiVarStrategy::AppAware { .. } => PolicyKind::Lru,
    };
    // Capacity basis: all variables of one timestep (Table I semantics).
    let universe = layout.num_blocks() * importance.len();
    let mut hier: Hierarchy<BlockKey> =
        Hierarchy::paper_default(universe, config.cache_ratio, policy, config.block_bytes);

    let app_sigma = match strategy {
        MultiVarStrategy::AppAware { sigma } => {
            assert!(t_visible.is_some(), "AppAware needs T_visible");
            Some(*sigma)
        }
        MultiVarStrategy::Baseline(_) => None,
    };

    // Pre-load: the most important blocks of every scripted variable at the
    // script's first timestep, sharing the fast tier evenly.
    if let Some(sigma) = app_sigma {
        if let Some(first) = script.steps.first() {
            let share = (hier.tier_capacity(0) / first.vars.len().max(1)).max(1);
            for &v in &first.vars {
                for b in importance[v as usize].above_threshold(sigma).take(share) {
                    hier.preload(BlockKey::new(v, first.time, b));
                }
            }
        }
    }

    let mut per_step = Vec::with_capacity(script.len());
    let (mut io_total, mut render_total, mut prefetch_total, mut wall_total) =
        (0.0f64, 0.0f64, 0.0f64, 0.0f64);

    for step in &script.steps {
        let visible = visible_blocks(&step.pose, layout);
        let keys: Vec<BlockKey> = step
            .vars
            .iter()
            .flat_map(|&v| visible.iter().map(move |&b| BlockKey::new(v, step.time, b)))
            .collect();

        if app_sigma.is_some() {
            for &k in &keys {
                hier.pin_fastest(k);
            }
        }
        let mut step_io = 0.0;
        let mut step_misses = 0usize;
        for &k in &keys {
            let o = hier.fetch(k, AccessClass::Demand);
            if !o.fast_hit {
                step_misses += 1;
                step_io += o.time_s;
            }
        }

        // Analysis cost scales with blocks × variables (each variable's
        // data is scanned by the histogram/correlation pass).
        let render_s = config.render.time(keys.len());

        let mut step_prefetch = 0.0;
        if let (Some(sigma), Some(tv)) = (app_sigma, t_visible) {
            for &b in tv.predict(&step.pose) {
                for &v in &step.vars {
                    if importance[v as usize].entropy(b) > sigma {
                        let k = BlockKey::new(v, step.time, b);
                        if !hier.in_fastest(&k) {
                            let o = hier.fetch(k, AccessClass::Prefetch);
                            step_prefetch += o.time_s;
                        }
                    }
                }
            }
        }
        if app_sigma.is_some() {
            hier.unpin_fastest();
        }

        let total_s = if app_sigma.is_some() {
            step_io + render_s.max(step_prefetch)
        } else {
            step_io + render_s
        };
        io_total += step_io;
        render_total += render_s;
        prefetch_total += step_prefetch;
        wall_total += total_s;
        per_step.push(StepMetrics {
            visible: keys.len(),
            misses: step_misses,
            io_s: step_io,
            render_s,
            prefetch_s: step_prefetch,
            lookup_s: 0.0,
            total_s,
            skipped: 0,
            degraded: false,
        });
    }

    let stats = hier.stats();
    MultiVarReport {
        strategy: match strategy {
            MultiVarStrategy::Baseline(k) => k.label().to_string(),
            MultiVarStrategy::AppAware { .. } => "OPT".to_string(),
        },
        steps: script.len(),
        accesses: stats.demand_accesses,
        misses: stats.demand_fast_misses,
        miss_rate: stats.miss_rate(),
        io_s: io_total,
        render_s: render_total,
        prefetch_s: prefetch_total,
        total_s: wall_total,
        per_step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radius::RadiusModel;
    use crate::sampling::{RadiusRule, SamplingConfig};
    use viz_geom::angle::deg_to_rad;
    use viz_geom::{CameraPath, ExplorationDomain, SphericalPath, Vec3};
    use viz_volume::Dims3;

    fn layout() -> BrickLayout {
        BrickLayout::new(Dims3::cube(32), Dims3::cube(8)) // 64 blocks
    }

    fn poses(n: usize) -> Vec<CameraPose> {
        let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
        SphericalPath::new(dom, 2.5, 6.0, deg_to_rad(15.0)).generate(n)
    }

    fn tables(l: &BrickLayout, nvars: usize) -> (VisibleTable, Vec<ImportanceTable>) {
        let cfg = SamplingConfig {
            n_theta: 6,
            n_phi: 12,
            n_dist: 2,
            d_min: 2.0,
            d_max: 3.2,
            vicinal_points: 4,
            view_angle: deg_to_rad(15.0),
            seed: 3,
        };
        let tv = VisibleTable::build(
            cfg,
            l,
            RadiusRule::Optimal(RadiusModel::new(0.25, deg_to_rad(15.0))),
            None,
        );
        let imps = (0..nvars)
            .map(|v| {
                ImportanceTable::from_entropies(
                    (0..l.num_blocks()).map(|i| ((i + v) % 5) as f64).collect(),
                    32,
                )
            })
            .collect();
        (tv, imps)
    }

    #[test]
    fn script_builders() {
        let p = poses(12);
        let s = ExplorationScript::single_phase(&p, vec![0, 1]);
        assert_eq!(s.len(), 12);
        assert!(s.steps.iter().all(|st| st.vars == vec![0, 1] && st.time == 0));

        let s = ExplorationScript::with_variable_switches(&p, &[vec![0], vec![1, 2]], 4);
        assert_eq!(s.steps[0].vars, vec![0]);
        assert_eq!(s.steps[4].vars, vec![1, 2]);
        assert_eq!(s.steps[8].vars, vec![0]);
        assert_eq!(s.max_var(), Some(2));

        let s = ExplorationScript::single_phase(&p, vec![0]).with_time_advance(3, 2);
        assert_eq!(s.steps[0].time, 0);
        assert_eq!(s.steps[3].time, 1);
        assert_eq!(s.steps[6].time, 0); // wraps
    }

    #[test]
    fn accesses_scale_with_variable_count() {
        let l = layout();
        let p = poses(10);
        let cfg = SessionConfig::paper(0.5, l.nominal_block_bytes());
        let (_, imps) = tables(&l, 3);
        let one = run_multivar_session(
            &cfg,
            &l,
            &MultiVarStrategy::Baseline(PolicyKind::Lru),
            &ExplorationScript::single_phase(&p, vec![0]),
            None,
            &imps,
        );
        let three = run_multivar_session(
            &cfg,
            &l,
            &MultiVarStrategy::Baseline(PolicyKind::Lru),
            &ExplorationScript::single_phase(&p, vec![0, 1, 2]),
            None,
            &imps,
        );
        assert_eq!(three.accesses, 3 * one.accesses);
    }

    #[test]
    fn appaware_beats_lru_with_variable_switching() {
        let l = layout();
        let p = poses(80);
        let cfg = SessionConfig::paper(0.5, l.nominal_block_bytes());
        let (tv, imps) = tables(&l, 4);
        let script = ExplorationScript::with_variable_switches(&p, &[vec![0, 1], vec![2, 3]], 10);
        let lru = run_multivar_session(
            &cfg,
            &l,
            &MultiVarStrategy::Baseline(PolicyKind::Lru),
            &script,
            None,
            &imps,
        );
        let opt = run_multivar_session(
            &cfg,
            &l,
            &MultiVarStrategy::AppAware { sigma: 0.5 },
            &script,
            Some(&tv),
            &imps,
        );
        assert!(
            opt.miss_rate < lru.miss_rate,
            "OPT {:.4} vs LRU {:.4}",
            opt.miss_rate,
            lru.miss_rate
        );
    }

    #[test]
    fn timestep_advance_causes_compulsory_misses() {
        let l = layout();
        let p = poses(40);
        let cfg = SessionConfig::paper(0.5, l.nominal_block_bytes());
        let (_, imps) = tables(&l, 1);
        let static_script = ExplorationScript::single_phase(&p, vec![0]);
        let moving_script = ExplorationScript::single_phase(&p, vec![0]).with_time_advance(10, 4);
        let stat = run_multivar_session(
            &cfg,
            &l,
            &MultiVarStrategy::Baseline(PolicyKind::Lru),
            &static_script,
            None,
            &imps,
        );
        let moving = run_multivar_session(
            &cfg,
            &l,
            &MultiVarStrategy::Baseline(PolicyKind::Lru),
            &moving_script,
            None,
            &imps,
        );
        assert!(
            moving.miss_rate > stat.miss_rate,
            "time-varying playback should miss more: {:.4} vs {:.4}",
            moving.miss_rate,
            stat.miss_rate
        );
    }

    #[test]
    fn report_aggregates_are_consistent() {
        let l = layout();
        let p = poses(20);
        let cfg = SessionConfig::paper(0.5, l.nominal_block_bytes());
        let (tv, imps) = tables(&l, 2);
        let r = run_multivar_session(
            &cfg,
            &l,
            &MultiVarStrategy::AppAware { sigma: 0.0 },
            &ExplorationScript::single_phase(&p, vec![0, 1]),
            Some(&tv),
            &imps,
        );
        assert_eq!(r.per_step.len(), 20);
        let miss_sum: usize = r.per_step.iter().map(|s| s.misses).sum();
        assert_eq!(miss_sum as u64, r.misses);
        let io_sum: f64 = r.per_step.iter().map(|s| s.io_s).sum();
        assert!((io_sum - r.io_s).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn missing_importance_table_panics() {
        let l = layout();
        let p = poses(3);
        let cfg = SessionConfig::paper(0.5, l.nominal_block_bytes());
        let (_, imps) = tables(&l, 1);
        // Script uses variable 5 but only 1 table provided.
        run_multivar_session(
            &cfg,
            &l,
            &MultiVarStrategy::Baseline(PolicyKind::Lru),
            &ExplorationScript::single_phase(&p, vec![5]),
            None,
            &imps,
        );
    }

    #[test]
    #[should_panic]
    fn appaware_without_tvisible_panics() {
        let l = layout();
        let p = poses(3);
        let cfg = SessionConfig::paper(0.5, l.nominal_block_bytes());
        let (_, imps) = tables(&l, 1);
        run_multivar_session(
            &cfg,
            &l,
            &MultiVarStrategy::AppAware { sigma: 0.0 },
            &ExplorationScript::single_phase(&p, vec![0]),
            None,
            &imps,
        );
    }
}
