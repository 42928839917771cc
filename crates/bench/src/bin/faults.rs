//! Fault-path benchmark: frame times over a camera-path-like demand/
//! prefetch workload, with and without a seeded fault storm.
//!
//! Two identical runs over a latency-injected source: a healthy baseline,
//! and one wrapped in a [`viz_fetch::FaultInjectingSource`] storm (10%
//! transient errors, 5% latency spikes). Each frame demand-fetches its
//! window under a deadline (missing it degrades the frame instead of
//! stalling), prefetches the predicted next window, and bumps the
//! cancellation generation. Reported per run: frame-time p50/p99/mean,
//! degraded-frame count, and the engine's fault counters — the price of
//! the storm is the delta between the two runs.
//!
//! Uses only `viz-fetch` + `viz-volume` + `std` so it can also be built
//! standalone. Results are printed and written as JSON (default
//! `BENCH_faults.json`; `--out PATH` overrides, `--fast` shrinks the
//! workload for smoke runs).

use std::sync::Arc;
use std::time::{Duration, Instant};
use viz_fetch::{
    BlockPool, FaultConfig, FaultInjectingSource, FetchConfig, FetchEngine, FetchMetrics,
    InstrumentedSource,
};
use viz_volume::{BlockId, BlockKey, BlockSource, MemBlockStore};

struct Args {
    fast: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args { fast: false, out: "BENCH_faults.json".to_string() };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => a.fast = true,
            "--out" => {
                if let Some(p) = it.next() {
                    a.out = p;
                }
            }
            "--help" | "-h" => {
                eprintln!("options: --fast  --out PATH");
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

struct Workload {
    frames: usize,
    window: usize,
    block_len: usize,
    read_delay: Duration,
    frame_budget: Duration,
    /// Simulated render phase; prefetch for the next window overlaps it,
    /// exactly as rendering overlaps I/O in the real pipeline.
    render_time: Duration,
}

struct RunResult {
    frame_times_s: Vec<f64>,
    degraded_frames: usize,
    source_reads: u64,
    injected_errors: u64,
    injected_spikes: u64,
    metrics: FetchMetrics,
}

/// Walk the synthetic camera path once. Per frame: cancel stale
/// predictions, demand-fetch the visible window under the frame budget
/// (deadline misses degrade the frame, they never stall it), prefetch the
/// predicted next window, and time the demand phase.
fn run_path(w: &Workload, storm: Option<FaultConfig>) -> RunResult {
    let blocks = w.frames + 2 * w.window;
    let slow: Arc<dyn BlockSource> =
        Arc::new(InstrumentedSource::new(store_with(blocks, w.block_len), w.read_delay));
    let faulty = storm.map(|cfg| Arc::new(FaultInjectingSource::new(slow.clone(), cfg)));
    let source: Arc<dyn BlockSource> = match &faulty {
        Some(f) => f.clone(),
        None => slow,
    };
    let pool = Arc::new(BlockPool::new());
    let engine = FetchEngine::spawn(
        source,
        pool.clone(),
        FetchConfig { workers: 4, queue_cap: blocks * 2, ..FetchConfig::default() },
    );

    let mut frame_times_s = Vec::with_capacity(w.frames);
    let mut degraded_frames = 0usize;
    for f in 0..w.frames {
        engine.bump_generation();
        let t0 = Instant::now();
        let mut degraded = false;
        for i in f..f + w.window {
            let remaining = w.frame_budget.saturating_sub(t0.elapsed());
            if engine.get_deadline(key(i), remaining).is_err() {
                // Deadline miss or exhausted retries: the frame renders
                // without this block; its read stays in flight and lands
                // for a later frame.
                degraded = true;
            }
        }
        degraded_frames += usize::from(degraded);
        for i in f + w.window..f + 2 * w.window {
            engine.prefetch(key(i), (blocks - i) as f64);
        }
        // "Render" while the workers pull the next window in the background.
        std::thread::sleep(w.render_time);
        frame_times_s.push(t0.elapsed().as_secs_f64());
    }

    // Zero engine stalls: the queue drains and in-flight reads finish.
    engine.sync();
    let metrics = engine.shutdown();
    assert_eq!(metrics.queue_depth, 0, "queue must drain");
    assert_eq!(metrics.inflight, 0, "no reads stuck in flight");

    let (injected_errors, injected_spikes, source_reads) = match &faulty {
        Some(f) => (f.injected_errors(), f.injected_spikes(), f.reads()),
        None => (0, 0, 0),
    };
    RunResult {
        frame_times_s,
        degraded_frames,
        source_reads,
        injected_errors,
        injected_spikes,
        metrics,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct Summary {
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    max_ms: f64,
}

fn summarize(times: &[f64]) -> Summary {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        p50_ms: percentile(&sorted, 0.50) * 1e3,
        p99_ms: percentile(&sorted, 0.99) * 1e3,
        mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64 * 1e3,
        max_ms: sorted.last().copied().unwrap_or(0.0) * 1e3,
    }
}

fn main() {
    let args = parse_args();
    let w = if args.fast {
        Workload {
            frames: 60,
            window: 8,
            block_len: 512,
            read_delay: Duration::from_micros(150),
            frame_budget: Duration::from_millis(25),
            render_time: Duration::from_millis(1),
        }
    } else {
        Workload {
            frames: 200,
            window: 8,
            block_len: 4096,
            read_delay: Duration::from_micros(300),
            frame_budget: Duration::from_millis(50),
            render_time: Duration::from_millis(2),
        }
    };
    eprintln!(
        "faults: {} frames x {}-block window, {} us reads, {} ms render, {} ms frame budget",
        w.frames,
        w.window,
        w.read_delay.as_micros(),
        w.render_time.as_millis(),
        w.frame_budget.as_millis()
    );

    let base = run_path(&w, None);
    let bs = summarize(&base.frame_times_s);
    eprintln!(
        "  baseline: p50 {:.2} ms, p99 {:.2} ms, mean {:.2} ms, {} degraded frames",
        bs.p50_ms, bs.p99_ms, bs.mean_ms, base.degraded_frames
    );

    let storm = run_path(&w, Some(FaultConfig::storm(0xBADD_5EED)));
    let ss = summarize(&storm.frame_times_s);
    eprintln!(
        "  storm:    p50 {:.2} ms, p99 {:.2} ms, mean {:.2} ms, {} degraded frames",
        ss.p50_ms, ss.p99_ms, ss.mean_ms, storm.degraded_frames
    );
    eprintln!(
        "  storm faults: {} errors + {} spikes injected over {} reads -> {} retries, {} surfaced errors, {} deadline misses, breaker {:?}",
        storm.injected_errors,
        storm.injected_spikes,
        storm.source_reads,
        storm.metrics.retries,
        storm.metrics.errors,
        storm.metrics.deadline_misses,
        storm.metrics.breaker_state,
    );

    let p50_overhead = if bs.p50_ms > 0.0 { ss.p50_ms / bs.p50_ms } else { 0.0 };
    let json = format!(
        r#"{{
  "bench": "faults",
  "provenance": "Measured on a single-core container from a `cargo --release` build; workers overlap injected sleep latency, so relative storm overhead is representative. Regenerate with `cargo run --release -p viz-bench --bin faults`.",
  "operating_point": {{
    "frames": {frames},
    "window": {window},
    "block_len_f32": {block_len},
    "read_delay_us": {delay_us},
    "render_time_ms": {render_ms},
    "frame_budget_ms": {budget_ms},
    "storm": {{ "error_rate": 0.10, "spike_rate": 0.05, "spike_us": 500 }}
  }},
  "baseline_frame_ms": {{
    "p50": {b50:.3}, "p99": {b99:.3}, "mean": {bmean:.3}, "max": {bmax:.3},
    "degraded_frames": {bdeg}
  }},
  "storm_frame_ms": {{
    "p50": {s50:.3}, "p99": {s99:.3}, "mean": {smean:.3}, "max": {smax:.3},
    "degraded_frames": {sdeg}
  }},
  "storm_faults": {{
    "source_reads": {sreads},
    "injected_errors": {serr},
    "injected_spikes": {sspikes},
    "retries": {retries},
    "surfaced_errors": {surfaced},
    "deadline_misses": {dmiss},
    "breaker_opens": {bopens}
  }},
  "p50_overhead_storm_vs_baseline": {p50_overhead:.3}
}}
"#,
        frames = w.frames,
        window = w.window,
        block_len = w.block_len,
        delay_us = w.read_delay.as_micros(),
        render_ms = w.render_time.as_millis(),
        budget_ms = w.frame_budget.as_millis(),
        b50 = bs.p50_ms,
        b99 = bs.p99_ms,
        bmean = bs.mean_ms,
        bmax = bs.max_ms,
        bdeg = base.degraded_frames,
        s50 = ss.p50_ms,
        s99 = ss.p99_ms,
        smean = ss.mean_ms,
        smax = ss.max_ms,
        sdeg = storm.degraded_frames,
        sreads = storm.source_reads,
        serr = storm.injected_errors,
        sspikes = storm.injected_spikes,
        retries = storm.metrics.retries,
        surfaced = storm.metrics.errors,
        dmiss = storm.metrics.deadline_misses,
        bopens = storm.metrics.breaker_opens,
    );
    std::fs::write(&args.out, &json).expect("write results");
    println!("{json}");
    eprintln!("wrote {}", args.out);

    // The storm must degrade gracefully, not collapse: every frame
    // completed (the loop above ran to the end), the retry layer absorbed
    // injected faults, and no frame blew past its budget by more than one
    // in-flight read abandonment.
    assert!(storm.injected_errors > 0, "storm must inject faults");
    assert!(storm.metrics.retries > 0, "retries must absorb transient faults");
    let cap_ms = (w.frame_budget + w.render_time).as_secs_f64() * 1e3;
    assert!(
        ss.max_ms <= cap_ms * 2.0,
        "a frame stalled far past its budget: {:.2} ms vs {cap_ms:.2} ms cap",
        ss.max_ms
    );
}
