//! A traced fault-storm run emits the lifecycle events the exporters and
//! the flight recorder depend on: source reads, retries, cache evictions
//! and one frame span per camera step.
//!
//! The telemetry gate and rings are process-global, so this is its own
//! test binary with one test: no other test can record into its window.
//! The viewer is a served one on the in-process front end, over an
//! engine that runs inline (`workers = 0`), and latency spikes are off,
//! so every read, fault and eviction happens in the same order on every
//! run and the counts below are exact.

use std::sync::Arc;
use std::time::Duration;
use viz_appaware::cache::{AccessClass, Hierarchy, PolicyKind, TierCost};
use viz_appaware::fetch::{BlockPool, FaultConfig, FaultInjectingSource, FetchConfig, FetchEngine};
use viz_appaware::serve::{InProcServer, ServeClient, ServeConfig, Server};
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
    /// `Fetch` requests the server admitted.
    fetches: u64,
}

/// A 100-step camera path under a seeded fault storm, traced: each step
/// is one served frame that demands a window of blocks and prefetches
/// the next window, and walks a simulated DRAM/SSD hierarchy so the trace
/// also carries the cache side of the lifecycle. Then the camera holds
/// still for one frame more, which predicts nothing: the viewer's tier
/// answers it alone.
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
    let server = Server::new(Arc::new(engine), ServeConfig::default());
    let mut inproc = InProcServer::new(server.clone());
    let mut viewer = ServeClient::new(inproc.connect());
    viewer.send_open("storm").unwrap();
    inproc.tick();
    viewer.recv_open().unwrap();
    let costs = [TierCost::dram(), TierCost::ssd(), TierCost::hdd()];
    let mut hier: Hierarchy<BlockId> =
        Hierarchy::two_level(BLOCKS, 0.3, PolicyKind::Lru, 4096, costs);

    telemetry::reset();
    telemetry::set_enabled(true);
    let mut missed = 0;
    for f in 0..=STEPS {
        let at = f.min(STEPS - 1);
        let demand: Vec<BlockKey> = (at..at + WINDOW).map(key).collect();
        let prefetch: Vec<(BlockKey, f64)> = if f < STEPS {
            (at + WINDOW..at + 2 * WINDOW).map(|i| (key(i), (BLOCKS - i) as f64)).collect()
        } else {
            Vec::new()
        };
        // One tick serves the frame: its demand, then its prefetch, step
        // the inline engine to idle. A block the storm kept out past its
        // retries is a miss.
        let generation = viewer.advance().unwrap();
        viewer.send_fetch(generation, demand, prefetch).unwrap();
        inproc.tick();
        let frame = viewer.recv_fetch().unwrap();
        missed += frame.blocks.iter().filter(|b| b.result.is_err()).count();
        for i in at..at + WINDOW {
            hier.fetch(BlockId(i as u32), AccessClass::Demand);
        }
    }
    telemetry::set_enabled(false);
    let m = server.engine().metrics();
    Run {
        trace: telemetry::drain(),
        source_reads: source.reads(),
        retries: m.retries,
        missed,
        fetches: server.metrics().fetch_requests,
    }
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
    assert_eq!(run.fetches, STEPS as u64, "the held frame sent nothing");
    assert_eq!(trace.count(EventKind::Frame), STEPS + 1, "one frame span per step, held included");

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
