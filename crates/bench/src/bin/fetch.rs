//! Fetch-engine benchmark: worker-pool throughput, coalescing, and
//! cancellation on a latency-injected block source.
//!
//! Measures:
//!
//! - prefetch throughput at 1/2/4/8 workers over an
//!   [`viz_fetch::InstrumentedSource`] that sleeps per read, mimicking a
//!   storage tier (the PR's ≥2× target at 4 workers vs 1);
//! - demand latency with and without a deep prefetch backlog in the
//!   queue (demand-over-prefetch priority at work);
//! - request coalescing: concurrent demand threads over a small key set,
//!   reads issued vs requests made;
//! - generation cancellation: source reads avoided when the camera moves
//!   on and the queued backlog is bumped stale.
//!
//! Uses only `viz-fetch` + `viz-volume` + `std` so it can also be built
//! standalone. Results are printed and written as JSON (default
//! `BENCH_fetch.json`; `--out PATH` overrides, `--fast` shrinks the
//! workload for smoke runs).

use std::sync::Arc;
use std::time::{Duration, Instant};
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_volume::{BlockId, BlockKey, BlockSource, MemBlockStore};

struct Args {
    fast: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args { fast: false, out: "BENCH_fetch.json".to_string() };
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

fn store_with(blocks: usize, block_len: usize) -> Arc<MemBlockStore> {
    let s = MemBlockStore::new();
    for i in 0..blocks {
        s.insert(BlockKey::scalar(BlockId(i as u32)), vec![i as f32; block_len]);
    }
    Arc::new(s)
}

/// Prefetch every block through a pool of `workers`, sync, and return
/// (elapsed seconds, blocks per second).
fn throughput_run(blocks: usize, block_len: usize, delay: Duration, workers: usize) -> (f64, f64) {
    let source = Arc::new(InstrumentedSource::new(store_with(blocks, block_len), delay));
    let pool = Arc::new(BlockPool::new());
    let engine = FetchEngine::spawn(
        source.clone() as Arc<dyn BlockSource>,
        pool.clone(),
        FetchConfig { workers, queue_cap: blocks * 2, ..FetchConfig::default() },
    );
    let t0 = Instant::now();
    for i in 0..blocks {
        engine.prefetch(BlockKey::scalar(BlockId(i as u32)), i as f64);
    }
    engine.sync();
    let dt = t0.elapsed().as_secs_f64();
    let m = engine.shutdown();
    assert_eq!(m.completed as usize, blocks, "every block must load exactly once");
    assert_eq!(source.reads(), blocks as u64, "no duplicate reads during the sweep");
    (dt, blocks as f64 / dt)
}

/// Demand latency for one block while `backlog` prefetches are queued.
fn demand_latency_run(backlog: usize, delay: Duration, workers: usize) -> f64 {
    let blocks = backlog + 1;
    let source = Arc::new(InstrumentedSource::new(store_with(blocks, 64), delay));
    let pool = Arc::new(BlockPool::new());
    let engine = FetchEngine::spawn(
        source as Arc<dyn BlockSource>,
        pool,
        FetchConfig { workers, queue_cap: blocks * 2, ..FetchConfig::default() },
    );
    for i in 0..backlog {
        engine.prefetch(BlockKey::scalar(BlockId(i as u32)), 1.0);
    }
    let t0 = Instant::now();
    engine.get(BlockKey::scalar(BlockId(backlog as u32))).expect("demand read");
    let dt = t0.elapsed().as_secs_f64();
    engine.shutdown();
    dt
}

fn main() {
    let args = parse_args();
    // 512 blocks of 4096 f32 (16 KiB payloads) behind a ~500 µs source —
    // an SSD-like operating point where scheduling, not memcpy, dominates.
    let (blocks, block_len, delay_us, threads, ops) = if args.fast {
        (64usize, 512usize, 200u64, 4usize, 50usize)
    } else {
        (512, 4096, 500, 8, 200)
    };
    let delay = Duration::from_micros(delay_us);
    eprintln!("fetch: {blocks} blocks x {block_len} f32, {delay_us} us injected latency");

    // Throughput sweep over the worker-pool sizes.
    let mut sweep: Vec<(usize, f64, f64)> = Vec::new();
    for &workers in &[1usize, 2, 4, 8] {
        let (dt, bps) = throughput_run(blocks, block_len, delay, workers);
        eprintln!("  {workers} worker(s): {dt:.3}s, {bps:.0} blocks/s");
        sweep.push((workers, dt, bps));
    }
    let bps1 = sweep[0].2;
    let speedup4 = sweep[2].2 / bps1;
    let speedup8 = sweep[3].2 / bps1;
    eprintln!("  speedup: {speedup4:.2}x at 4 workers, {speedup8:.2}x at 8");

    // Demand latency: empty queue vs a deep low-priority backlog. With
    // demand-over-prefetch priority the backlog should barely matter.
    let lat_empty = demand_latency_run(0, delay, 4);
    let lat_backlog = demand_latency_run(blocks, delay, 4);
    eprintln!(
        "demand latency: {:.1} us empty queue, {:.1} us behind {blocks}-deep backlog",
        lat_empty * 1e6,
        lat_backlog * 1e6
    );

    // Coalescing: `threads` demand threads hammer a small key set; the
    // source must see exactly one read per distinct key.
    let keys = 16usize.min(blocks);
    let source = Arc::new(InstrumentedSource::new(store_with(keys, block_len), delay));
    let pool = Arc::new(BlockPool::new());
    let engine = FetchEngine::spawn(
        source.clone() as Arc<dyn BlockSource>,
        pool,
        FetchConfig { workers: 4, queue_cap: 4096, ..FetchConfig::default() },
    );
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let engine = &engine;
            s.spawn(move || {
                for i in 0..ops {
                    let key = BlockKey::scalar(BlockId(((t * 31 + i * 7) % keys) as u32));
                    engine.get(key).expect("demand read");
                }
            });
        }
    });
    let coalesce_dt = t0.elapsed().as_secs_f64();
    let m = engine.shutdown();
    let requests = (threads * ops) as u64;
    eprintln!(
        "coalescing: {requests} requests over {keys} keys -> {} source reads, {} coalesced",
        source.reads(),
        m.coalesced
    );
    assert_eq!(source.reads(), keys as u64, "coalescing must read each key once");
    let coalesce_reads = source.reads();
    let coalesce_merged = m.coalesced;

    // Cancellation: queue a full backlog, immediately bump the generation,
    // and count how many source reads the engine avoided.
    let source = Arc::new(InstrumentedSource::new(store_with(blocks, block_len), delay));
    let pool = Arc::new(BlockPool::new());
    let engine = FetchEngine::spawn(
        source.clone() as Arc<dyn BlockSource>,
        pool,
        FetchConfig { workers: 4, queue_cap: blocks * 2, ..FetchConfig::default() },
    );
    for i in 0..blocks {
        engine.prefetch(BlockKey::scalar(BlockId(i as u32)), 1.0);
    }
    engine.bump_generation();
    engine.sync();
    let m = engine.shutdown();
    eprintln!(
        "cancellation: {blocks} queued, generation bumped -> {} cancelled, {} source reads",
        m.cancelled,
        source.reads()
    );
    let cancelled = m.cancelled;
    let cancel_reads = source.reads();

    let json = format!(
        r#"{{
  "bench": "fetch",
  "provenance": "Measured on a single-core container from a `cargo --release` build; thread workers still overlap injected sleep latency, so the worker-scaling ratios are representative. Regenerate with `cargo run --release -p viz-bench --bin fetch`.",
  "operating_point": {{
    "blocks": {blocks},
    "block_len_f32": {block_len},
    "injected_latency_us": {delay_us},
    "demand_threads": {threads},
    "demand_ops_per_thread": {ops}
  }},
  "throughput": {{
    "workers_1_blocks_per_s": {bps1:.1},
    "workers_2_blocks_per_s": {bps2:.1},
    "workers_4_blocks_per_s": {bps4:.1},
    "workers_8_blocks_per_s": {bps8:.1},
    "speedup_4_vs_1": {speedup4:.2},
    "speedup_8_vs_1": {speedup8:.2}
  }},
  "demand_latency_us": {{
    "empty_queue": {lat_empty:.1},
    "behind_deep_backlog": {lat_backlog:.1},
    "backlog_depth": {blocks}
  }},
  "coalescing": {{
    "requests": {requests},
    "distinct_keys": {keys},
    "source_reads": {coalesce_reads},
    "merged": {coalesce_merged},
    "elapsed_s": {coalesce_dt:.3}
  }},
  "cancellation": {{
    "queued": {blocks},
    "cancelled": {cancelled},
    "source_reads": {cancel_reads}
  }}
}}
"#,
        bps2 = sweep[1].2,
        bps4 = sweep[2].2,
        bps8 = sweep[3].2,
        lat_empty = lat_empty * 1e6,
        lat_backlog = lat_backlog * 1e6,
    );
    std::fs::write(&args.out, &json).expect("write results");
    println!("{json}");
    eprintln!("wrote {}", args.out);
    assert!(speedup4 >= 2.0, "4-worker pool must be >=2x single-worker throughput");
}
