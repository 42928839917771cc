//! Degraded-frame fetch: a per-frame I/O budget over the real
//! [`viz_fetch::FetchEngine`].
//!
//! The simulator has no counterpart: it fetches every demand block, as
//! the paper does. A frame hands its demand set and a wall-clock budget
//! to [`fetch_frame`]; every block still gets requested (so the engine's
//! coalescing and retry machinery works the backlog), but the *wait* is
//! bounded by whatever budget remains. Blocks that miss the
//! deadline are reported back so the renderer can draw the frame with
//! resident blocks only — degraded now, recovered on a later frame when
//! the in-flight reads land in the pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use viz_fetch::FetchEngine;
use viz_telemetry::EventKind as Ev;
use viz_volume::BlockKey;

/// Monotone frame counter used as the telemetry span key — one sequence
/// shared by every engine in the process so frames sort globally.
static FRAME_SEQ: AtomicU64 = AtomicU64::new(0);

/// Outcome of fetching one frame's demand set under a budget.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameFetchReport {
    /// Blocks the frame demanded.
    pub requested: usize,
    /// Blocks resident (or loaded within budget).
    pub loaded: usize,
    /// Blocks that missed the deadline or failed; their reads may still be
    /// in flight and land for a later frame.
    pub missed: Vec<BlockKey>,
    /// `true` when at least one block is missing: the frame should render
    /// with resident blocks only.
    pub degraded: bool,
    /// Wall-clock seconds spent in this call.
    pub elapsed_s: f64,
}

impl FrameFetchReport {
    /// Fraction of the demand set available to the renderer (1.0 when the
    /// frame is complete).
    pub fn coverage(&self) -> f64 {
        if self.requested == 0 {
            1.0
        } else {
            self.loaded as f64 / self.requested as f64
        }
    }
}

/// Fetch `keys` through `engine`, waiting at most `budget` wall-clock time
/// in total. The budget converts to one absolute deadline up front and
/// every block waits against that same clock ([`FetchEngine::get_until`]);
/// once the deadline passes the remaining blocks are still requested
/// (zero wait) so their reads stay in flight, but the frame proceeds
/// without them.
pub fn fetch_frame(engine: &FetchEngine, keys: &[BlockKey], budget: Duration) -> FrameFetchReport {
    let ft = viz_telemetry::start();
    let start = Instant::now();
    let deadline = start.checked_add(budget).unwrap_or_else(|| {
        // An effectively-infinite budget: clamp a year out.
        start + Duration::from_secs(365 * 24 * 3600)
    });
    let mut loaded = 0usize;
    let mut missed = Vec::new();
    for &key in keys {
        match engine.get_until(key, deadline) {
            Ok(_) => loaded += 1,
            Err(_) => missed.push(key),
        }
    }
    if viz_telemetry::enabled() {
        let frame = FRAME_SEQ.fetch_add(1, Ordering::Relaxed);
        let arg = ((missed.len() as u64) << 8) | u64::from(!missed.is_empty());
        viz_telemetry::span(Ev::Frame, frame, arg, ft);
    }
    FrameFetchReport {
        requested: keys.len(),
        loaded,
        degraded: !missed.is_empty(),
        missed,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use viz_fetch::{BlockPool, FetchConfig, FetchEngine};
    use viz_volume::{BlockId, MemBlockStore};

    fn store_with(n: u32) -> Arc<MemBlockStore> {
        let s = MemBlockStore::new();
        for i in 0..n {
            s.insert(BlockKey::scalar(BlockId(i)), vec![i as f32; 8]);
        }
        Arc::new(s)
    }

    fn keys(n: u32) -> Vec<BlockKey> {
        (0..n).map(|i| BlockKey::scalar(BlockId(i))).collect()
    }

    #[test]
    fn zero_budget_degrades_then_recovers_next_frame() {
        let pool = Arc::new(BlockPool::new());
        let eng = FetchEngine::spawn(store_with(8), pool.clone(), FetchConfig::deterministic());
        let ks = keys(8);

        // Frame 1: nothing resident, no budget — fully degraded, but every
        // block was still requested (the backlog is in the engine).
        let r1 = fetch_frame(&eng, &ks, Duration::ZERO);
        assert_eq!(r1.requested, 8);
        assert_eq!(r1.loaded, 0);
        assert_eq!(r1.missed.len(), 8);
        assert!(r1.degraded);
        assert_eq!(r1.coverage(), 0.0);
        assert_eq!(eng.metrics().deadline_misses, 8);

        // The abandoned reads land between frames.
        eng.run_until_idle();
        assert_eq!(pool.len(), 8);

        // Frame 2: everything resident — complete frame, same zero budget.
        let r2 = fetch_frame(&eng, &ks, Duration::ZERO);
        assert_eq!(r2.loaded, 8);
        assert!(!r2.degraded);
        assert!(r2.missed.is_empty());
        assert_eq!(r2.coverage(), 1.0);
        eng.shutdown();
    }

    #[test]
    fn generous_budget_loads_everything() {
        let pool = Arc::new(BlockPool::new());
        let eng = FetchEngine::spawn(
            store_with(16),
            pool.clone(),
            FetchConfig { workers: 2, ..FetchConfig::default() },
        );
        let r = fetch_frame(&eng, &keys(16), Duration::from_secs(5));
        assert_eq!(r.loaded, 16);
        assert!(!r.degraded);
        assert!(r.elapsed_s < 5.0);
        eng.shutdown();
    }

    #[test]
    fn empty_frame_is_complete() {
        let pool = Arc::new(BlockPool::new());
        let eng = FetchEngine::spawn(store_with(1), pool, FetchConfig::deterministic());
        let r = fetch_frame(&eng, &[], Duration::from_millis(1));
        assert!(!r.degraded);
        assert_eq!(r.coverage(), 1.0);
        eng.shutdown();
    }
}
