//! Telemetry benchmark: trace a deterministic storm run end-to-end and
//! measure the tracing overhead on the fetch hot path.
//!
//! Two parts:
//!
//! 1. **Trace**: a 100-step storm run — demand fetches under a frame
//!    budget through the real [`viz_fetch::FetchEngine`] over a seeded
//!    [`viz_fetch::FaultInjectingSource`], prefetch of the predicted next
//!    window, and a simulated DRAM/SSD hierarchy walk — with telemetry
//!    enabled. The drained trace is exported as Chrome trace-event JSON
//!    (loadable in Perfetto / `chrome://tracing`), validated with the
//!    crate's own JSON checker, and required to contain `source_read`,
//!    `fetch_retry`, `cache_evict` and `frame` events.
//! 2. **Overhead**: the same fetch hot paths timed with the global gate
//!    off and on; the p50 delta is the price of tracing.
//!
//! Results are printed and written as JSON (default `BENCH_telemetry.json`;
//! `--out PATH` overrides, `--trace PATH` moves the Chrome trace, `--fast`
//! shrinks the overhead reps for smoke runs).

use std::sync::Arc;
use std::time::{Duration, Instant};
use viz_cache::{AccessClass, Hierarchy, PolicyKind};
use viz_core::degraded::fetch_frame;
use viz_fetch::{
    BlockPool, FaultConfig, FaultInjectingSource, FetchConfig, FetchEngine, InstrumentedSource,
};
use viz_volume::{BlockId, BlockKey, BlockSource, MemBlockStore};

struct Args {
    fast: bool,
    out: String,
    trace_out: String,
}

fn parse_args() -> Args {
    let mut a = Args {
        fast: false,
        out: "BENCH_telemetry.json".to_string(),
        trace_out: "trace_telemetry.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => a.fast = true,
            "--out" => {
                if let Some(p) = it.next() {
                    a.out = p;
                }
            }
            "--trace" => {
                if let Some(p) = it.next() {
                    a.trace_out = p;
                }
            }
            "--help" | "-h" => {
                eprintln!("options: --fast  --out PATH  --trace PATH");
                std::process::exit(0);
            }
            other => eprintln!("ignoring unknown option {other:?}"),
        }
    }
    a
}

fn key(i: usize) -> BlockKey {
    BlockKey::scalar(BlockId(i as u32))
}

fn store_with(blocks: usize, block_len: usize) -> Arc<MemBlockStore> {
    let s = MemBlockStore::new();
    for i in 0..blocks {
        s.insert(key(i), vec![i as f32; block_len]);
    }
    Arc::new(s)
}

/// The 100-step storm run, traced. Returns the drained trace.
fn storm_trace_run(frames: usize) -> viz_telemetry::Trace {
    let window = 6usize;
    let blocks = frames + 2 * window;
    let slow: Arc<dyn BlockSource> =
        Arc::new(InstrumentedSource::new(store_with(blocks, 512), Duration::from_micros(120)));
    let faulty = Arc::new(FaultInjectingSource::new(slow, FaultConfig::storm(0x7E1E_5EED)));
    let pool = Arc::new(BlockPool::new());
    let engine = FetchEngine::spawn(
        faulty,
        pool,
        FetchConfig { workers: 2, queue_cap: blocks * 2, ..FetchConfig::default() },
    );

    // A small simulated DRAM/SSD hierarchy rides along so the trace also
    // carries the cache side of the lifecycle (hits, misses, evictions).
    let mut hier: Hierarchy<BlockId> = Hierarchy::paper_default(blocks, 0.3, PolicyKind::Lru, 4096);

    viz_telemetry::reset();
    viz_telemetry::set_enabled(true);
    for f in 0..frames {
        engine.bump_generation();
        let ks: Vec<BlockKey> = (f..f + window).map(key).collect();
        let report = fetch_frame(&engine, &ks, Duration::from_millis(10));
        assert_eq!(report.requested, window);
        for i in f + window..f + 2 * window {
            engine.prefetch(key(i), (blocks - i) as f64);
        }
        for i in f..f + window {
            hier.fetch(BlockId(i as u32), AccessClass::Demand);
        }
    }
    engine.sync();
    engine.shutdown();
    viz_telemetry::set_enabled(false);
    viz_telemetry::drain()
}

/// Time `reps` repetitions of a fetch workload; returns the sorted per-rep
/// durations in nanoseconds.
///
/// `service == false`: `n` demand requests for resident blocks per rep —
/// the cheapest operation the engine has (one pool probe), so the measured
/// on/off delta is the *per-event* cost of tracing, the worst possible
/// relative case.
///
/// `service == true`: clear the pool and service all `blocks` prefetches
/// through the deterministic engine per rep — the realistic fetch path
/// (queue, dispatch, source read, publish) over a source with a modest
/// 10 µs read latency, where tracing cost should disappear into the work
/// (`n` is ignored).
fn hot_path_reps(reps: usize, n: usize, service: bool) -> Vec<u64> {
    let blocks = 64usize;
    let pool = Arc::new(BlockPool::new());
    let source: Arc<dyn BlockSource> = if service {
        Arc::new(InstrumentedSource::new(store_with(blocks, 256), Duration::from_micros(10)))
    } else {
        store_with(blocks, 256)
    };
    let engine = FetchEngine::spawn(source, pool.clone(), FetchConfig::deterministic());
    // Make everything resident once.
    for i in 0..blocks {
        engine.prefetch(key(i), 1.0);
    }
    engine.run_until_idle();

    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = if service {
            pool.clear();
            let t0 = Instant::now();
            for i in 0..blocks {
                engine.prefetch(key(i), 1.0);
            }
            engine.run_until_idle();
            t0
        } else {
            let t0 = Instant::now();
            for j in 0..n {
                let t = engine.request(key(j % blocks));
                t.try_wait()
                    .unwrap_or_else(|_| panic!("resident block resolves immediately"))
                    .expect("read ok");
            }
            t0
        };
        times.push(t0.elapsed().as_nanos() as u64);
        // Keep the rings fresh so ring-full drops never skew a rep.
        if viz_telemetry::enabled() {
            viz_telemetry::drain();
        }
    }
    engine.shutdown();
    times.sort_unstable();
    times
}

fn p50(sorted: &[u64]) -> u64 {
    sorted[sorted.len() / 2]
}

fn main() {
    let args = parse_args();
    let frames = 100usize;
    let (reps, n) = if args.fast { (30, 2_000) } else { (200, 10_000) };

    eprintln!("telemetry: tracing a {frames}-step storm run");
    let trace = storm_trace_run(frames);
    let chrome = trace.chrome_trace_json();
    viz_telemetry::json::validate(&chrome).expect("chrome trace must be valid JSON");
    let summary = trace.summary_json();
    viz_telemetry::json::validate(&summary).expect("summary must be valid JSON");

    let count_of = |label: &str| trace.events.iter().filter(|e| e.kind.label() == label).count();
    let (reads, retries, evicts, frames_seen) = (
        count_of("source_read"),
        count_of("fetch_retry"),
        count_of("cache_evict"),
        count_of("frame"),
    );
    eprintln!(
        "  {} events ({} dropped): {reads} source reads, {retries} retries, {evicts} evictions, {frames_seen} frames",
        trace.events.len(),
        trace.dropped
    );
    assert!(reads > 0, "trace must contain source_read spans");
    assert!(retries > 0, "storm run must contain fetch_retry events");
    assert!(evicts > 0, "trace must contain cache_evict events");
    assert!(frames_seen >= frames, "one frame span per step");

    std::fs::write(&args.trace_out, &chrome).expect("write chrome trace");
    eprintln!("  wrote {} ({} bytes, Perfetto-loadable)", args.trace_out, chrome.len());

    // Worst case: resident requests are ~tens of ns each, so the on/off p50
    // delta divided by n is the absolute per-event cost of tracing.
    eprintln!("telemetry: per-event cost, {reps} reps x {n} resident requests");
    viz_telemetry::set_enabled(false);
    viz_telemetry::reset();
    let off = hot_path_reps(reps, n, false);
    viz_telemetry::set_enabled(true);
    let on = hot_path_reps(reps, n, false);
    viz_telemetry::set_enabled(false);
    viz_telemetry::reset();

    let (off_p50, on_p50) = (p50(&off), p50(&on));
    let per_op_off = off_p50 as f64 / n as f64;
    let per_op_on = on_p50 as f64 / n as f64;
    let per_event_ns = (per_op_on - per_op_off).max(0.0);
    eprintln!(
        "  off p50 {per_op_off:.1} ns/op, on p50 {per_op_on:.1} ns/op, ~{per_event_ns:.1} ns/event"
    );

    // Realistic case: full service of 64 cold prefetches per rep. Tracing
    // should vanish into the queue/dispatch/read/publish work here.
    eprintln!("telemetry: service-path overhead, {reps} reps x 64 cold prefetches");
    viz_telemetry::set_enabled(false);
    viz_telemetry::reset();
    let off_svc = hot_path_reps(reps, 0, true);
    viz_telemetry::set_enabled(true);
    let on_svc = hot_path_reps(reps, 0, true);
    viz_telemetry::set_enabled(false);
    viz_telemetry::reset();

    let (off_svc_p50, on_svc_p50) = (p50(&off_svc), p50(&on_svc));
    let svc_ratio = on_svc_p50 as f64 / off_svc_p50.max(1) as f64;
    eprintln!("  off p50 {off_svc_p50} ns/rep, on p50 {on_svc_p50} ns/rep, ratio {svc_ratio:.3}");

    let json = format!(
        r#"{{
  "bench": "telemetry",
  "provenance": "Measured on a shared container from a `cargo --release` build; absolute ns/op values are noisy there, the on/off ratio is the signal. Regenerate with `cargo run --release -p viz-bench --bin telemetry`.",
  "storm_trace": {{
    "frames": {frames},
    "events": {events},
    "dropped": {dropped},
    "source_reads": {reads},
    "retries": {retries},
    "cache_evicts": {evicts},
    "frame_spans": {frames_seen},
    "chrome_trace_bytes": {chrome_bytes}
  }},
  "per_event": {{
    "reps": {reps},
    "requests_per_rep": {n},
    "off_p50_ns_per_op": {per_op_off:.2},
    "on_p50_ns_per_op": {per_op_on:.2},
    "event_cost_ns": {per_event_ns:.2}
  }},
  "service_path": {{
    "reps": {reps},
    "blocks_per_rep": 64,
    "off_p50_ns_per_rep": {off_svc_p50},
    "on_p50_ns_per_rep": {on_svc_p50},
    "on_off_ratio_p50": {svc_ratio:.4}
  }}
}}
"#,
        events = trace.events.len(),
        dropped = trace.dropped,
        chrome_bytes = chrome.len(),
    );
    std::fs::write(&args.out, &json).expect("write results");
    println!("{json}");
    eprintln!("wrote {}", args.out);

    // Tracing must stay cheap. A single event push is bounded (no bound on
    // the microbench *ratio* — a resident probe is only ~tens of ns, so any
    // event push looks huge relatively), and on the realistic service path
    // the on/off ratio must be near 1. Bounds are deliberately loose for
    // noisy shared machines; the JSON records the precise numbers.
    assert!(per_event_ns < 2_000.0, "per-event tracing cost ballooned: {per_event_ns:.1} ns");
    assert!(svc_ratio < 1.25, "telemetry-on service path regressed: ratio {svc_ratio:.3}");
}
