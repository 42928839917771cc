//! A traced fault-storm run emits the lifecycle events the exporters and
//! the flight recorder depend on: source reads, retries, cache evictions
//! and one frame span per camera step.
//!
//! The telemetry gate and rings are process-global, so this is its own
//! test binary with one test: no other test can record into its window.
//! The engine runs inline (`workers = 0`) and latency spikes are off, so
//! every read, fault and eviction happens in the same order on every run
//! and the counts below are exact.

use std::sync::Arc;
use std::time::Duration;
use viz_appaware::cache::{AccessClass, Hierarchy, PolicyKind, TierCost};
use viz_appaware::core::degraded::fetch_frame;
use viz_appaware::fetch::{BlockPool, FaultConfig, FaultInjectingSource, FetchConfig, FetchEngine};
use viz_appaware::telemetry::{self, json, EventKind, Trace};
use viz_appaware::volume::{BlockId, BlockKey, MemBlockStore};

const STEPS: usize = 100;
const WINDOW: usize = 6;
const BLOCKS: usize = STEPS + 2 * WINDOW;

fn key(i: usize) -> BlockKey {
    BlockKey::scalar(BlockId(i as u32))
}

/// What one storm run did, counted by the components themselves.
struct Run {
    trace: Trace,
    source_reads: u64,
    retries: u64,
    missed: usize,
}

/// A 100-step camera path under a seeded fault storm, traced: each step
/// demands a window of blocks through [`fetch_frame`], prefetches the
/// next window, and walks a simulated DRAM/SSD hierarchy so the trace
/// also carries the cache side of the lifecycle.
fn storm_trace_run() -> Run {
    let store = MemBlockStore::new();
    for i in 0..BLOCKS {
        store.insert(key(i), vec![i as f32; 512]);
    }
    let source = Arc::new(FaultInjectingSource::new(
        Arc::new(store),
        FaultConfig { spike: Duration::ZERO, ..FaultConfig::storm(0x7E1E_5EED) },
    ));
    let engine = FetchEngine::spawn(
        source.clone(),
        Arc::new(BlockPool::new()),
        FetchConfig::deterministic(),
    );
    let costs = [TierCost::dram(), TierCost::ssd(), TierCost::hdd()];
    let mut hier: Hierarchy<BlockId> =
        Hierarchy::two_level(BLOCKS, 0.3, PolicyKind::Lru, 4096, costs);

    telemetry::reset();
    telemetry::set_enabled(true);
    let mut missed = 0;
    for f in 0..STEPS {
        engine.bump_generation();
        let demand: Vec<BlockKey> = (f..f + WINDOW).map(key).collect();
        // Admit the frame's demand and the next window's prefetch, then
        // step the inline engine to idle. The frame below waits on
        // nothing: a block the storm kept out is a miss, re-requested by
        // the frame and read on the next step.
        for &k in &demand {
            let _ = engine.request(k);
        }
        for i in f + WINDOW..f + 2 * WINDOW {
            engine.prefetch(key(i), (BLOCKS - i) as f64);
        }
        engine.run_until_idle();
        missed += fetch_frame(&engine, &demand, Duration::ZERO).missed.len();
        for i in f..f + WINDOW {
            hier.fetch(BlockId(i as u32), AccessClass::Demand);
        }
    }
    let m = engine.shutdown();
    telemetry::set_enabled(false);
    Run { trace: telemetry::drain(), source_reads: source.reads(), retries: m.retries, missed }
}

#[test]
fn storm_run_traces_reads_retries_evictions_and_frames() {
    let run = storm_trace_run();
    let trace = &run.trace;
    assert_eq!(trace.dropped, 0, "the run fits in one ring");

    // Every source attempt is one span and every retry one event, so the
    // trace agrees with the source's and the engine's own counters.
    let reads = trace.count(EventKind::SourceRead);
    let retries = trace.count(EventKind::FetchRetry);
    assert_eq!(reads as u64, run.source_reads);
    assert_eq!(retries as u64, run.retries);
    assert_eq!(trace.count(EventKind::Frame), STEPS, "one frame span per step");

    // The seeded storm, pinned: a change to the engine's read, retry or
    // admission order, or to the hierarchy's eviction order, moves these.
    assert_eq!(
        (reads, retries, trace.count(EventKind::CacheEvict), run.missed),
        (120, 9, 166, 0),
        "source_read, fetch_retry, cache_evict, frame misses"
    );

    json::validate(&trace.chrome_trace_json()).expect("chrome trace is valid JSON");
    json::validate(&trace.summary_json()).expect("summary is valid JSON");
}
