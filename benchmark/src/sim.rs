//! `sim-policy`: the paper's replacement policy against FIFO and LRU in the
//! virtual-time simulator, with Belady's offline optimum as the bound. No
//! threads, no I/O; the counts are exact for a seed.

use crate::adapter::{
    compute_visibility, run_session_precomputed, simulate_belady, AppAwareConfig, BlockId,
    PolicyKind, SessionConfig, Strategy,
};
use crate::calib::kernel_ns;
use crate::poses::{walk_lap, SplitMix64};
use crate::scene::{Scene, CACHE_RATIO};
use std::time::Instant;

pub const POSES_PER_PATH: usize = 200;
/// Random walk, the view turning 10 to 15 degrees a step.
const STEP_DEG: (f64, f64) = (10.0, 15.0);
/// Paths simulated per second of `--seconds` on the reference container.
pub const PATHS_PER_SECOND: f64 = 10.5;

#[derive(Debug, Default)]
pub struct SimResult {
    /// Wall ms per simulated frame (visibility plus the three policies'
    /// steps for one pose), one sample per path.
    pub frame_ms: Vec<f64>,
    /// The calibration kernel's time after each path.
    pub kernel_ns: Vec<f64>,
    /// Poses x policies.
    pub steps: u64,
    pub accesses: u64,
    pub misses_fifo: u64,
    pub misses_lru: u64,
    pub misses_appaware: u64,
    pub misses_belady: u64,
    pub virtual_s_lru: f64,
    pub virtual_s_appaware: f64,
    pub wall_s_lru: f64,
    pub wall_s_appaware: f64,
}

pub fn run_sim(scene: &Scene, seed: u64, paths: u32) -> SimResult {
    let layout = &scene.layout;
    let config = SessionConfig::paper(CACHE_RATIO, layout.nominal_block_bytes());
    let tables = Some((&*scene.visible, &*scene.importance));
    let app_aware = Strategy::AppAware(AppAwareConfig::paper(scene.sigma));
    // The simulated hierarchy's fast tier holds ratio^2 of the blocks
    // (`Hierarchy::two_level`); Belady gets the same capacity.
    let fast_capacity =
        ((layout.num_blocks() as f64 * CACHE_RATIO * CACHE_RATIO).round() as usize).max(1);

    let mut rng = SplitMix64::new(seed);
    let mut out = SimResult::default();
    for _ in 0..paths {
        let poses = walk_lap(&mut rng, POSES_PER_PATH, STEP_DEG);
        let t_path = Instant::now();
        let visible = compute_visibility(layout, &poses);
        let session = |strategy: &Strategy| {
            let t = Instant::now();
            let report =
                run_session_precomputed(&config, layout, strategy, &poses, &visible, tables);
            (report, t.elapsed().as_secs_f64())
        };
        let (fifo, _) = session(&Strategy::Baseline(PolicyKind::Fifo));
        let (lru, lru_wall) = session(&Strategy::Baseline(PolicyKind::Lru));
        let (app, app_wall) = session(&app_aware);
        out.frame_ms.push(t_path.elapsed().as_secs_f64() * 1e3 / POSES_PER_PATH as f64);
        out.kernel_ns.push(kernel_ns());

        out.steps += 3 * POSES_PER_PATH as u64;
        out.accesses += app.accesses;
        out.misses_fifo += fifo.misses;
        out.misses_lru += lru.misses;
        out.misses_appaware += app.misses;
        out.virtual_s_lru += lru.total_s;
        out.virtual_s_appaware += app.total_s;
        out.wall_s_lru += lru_wall;
        out.wall_s_appaware += app_wall;
    }

    // The bound is computed outside the timed loop: same paths, same order.
    let mut rng = SplitMix64::new(seed);
    for _ in 0..paths {
        let poses = walk_lap(&mut rng, POSES_PER_PATH, STEP_DEG);
        let trace: Vec<BlockId> =
            compute_visibility(layout, &poses).into_iter().flatten().collect();
        out.misses_belady += simulate_belady(&trace, fast_capacity).misses as u64;
    }
    out
}
