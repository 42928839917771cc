//! Multi-client serving benchmark: N simulated viewers replaying
//! phase-shifted keyframe flights against ONE shared server.
//!
//! Each client owns a [`viz_core::ClientFlight`] over the same closed
//! keyframe path (the combustion-inspection flight from
//! `examples/keyframe_flight.rs`), rotated to a different starting phase,
//! so per-frame demand sets differ while the union of keys overlaps
//! heavily — exactly the deployment the serve layer exists for. Per
//! client count N we record throughput, demand round-trip p50/p99, shed
//! rate, and the **cross-client coalescing ratio**: the distinct keys
//! each client would have read with its own private engine, summed,
//! divided by the reads the shared engine actually issued. A final
//! "storm" run at tight admission watermarks shows prefetch shedding
//! under pressure while demand is never shed.
//!
//! Results print and land as JSON (default `BENCH_serve.json`; `--out
//! PATH` overrides, `--fast` shrinks client counts and flight length for
//! CI smoke runs).

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use viz_core::{compute_visibility, ClientFlight};
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_geom::{CameraPath, CameraPose, ExplorationDomain, Keyframe, KeyframePath, Vec3};
use viz_serve::{inproc_pair, serve_connection, ServeClient, ServeConfig, ServeMetrics, Server};
use viz_volume::{BlockId, BrickLayout, Dims3, MemBlockStore};

struct Args {
    fast: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args { fast: false, out: "BENCH_serve.json".to_string() };
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

/// The shared scenario: one layout, one closed keyframe flight, the
/// per-step visible sets computed once and cloned into every client.
struct Scenario {
    layout: BrickLayout,
    poses: Vec<CameraPose>,
    visible: Vec<Vec<BlockId>>,
    block_len: usize,
    read_delay: Duration,
    /// Open-loop pacing: each client issues one frame per budget tick
    /// (~30 fps), phase-staggered, instead of hammering back-to-back.
    /// Closed-loop replay on a time-shared box measures the scheduler's
    /// timeslice, not the server; a paced viewer is also what the paper's
    /// interactivity premise actually looks like.
    frame_budget: Duration,
}

fn build_scenario(steps: usize) -> Scenario {
    let layout = BrickLayout::with_target_blocks(Dims3::cube(128), 128);
    let domain = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
    let path = KeyframePath::new(
        domain,
        vec![
            Keyframe::new(Vec3::new(0.0, 0.0, 1.0), 3.1),
            Keyframe::new(Vec3::new(1.0, 0.3, 0.4), 2.2).with_weight(2.0),
            Keyframe::new(Vec3::new(0.2, 1.0, 0.1), 2.0),
            Keyframe::new(Vec3::new(-0.6, 0.4, 0.7), 3.0).with_weight(1.5),
        ],
        0.26, // ~15 degrees
    )
    .closed();
    let poses = path.generate(steps);
    let visible = compute_visibility(&layout, &poses);
    Scenario {
        layout,
        poses,
        visible,
        block_len: 64,
        read_delay: Duration::from_micros(150),
        frame_budget: Duration::from_millis(33),
    }
}

struct ClientResult {
    latencies_s: Vec<f64>,
    demand_blocks: u64,
    demand_errors: u64,
    prefetch_sent: u64,
    shed: u64,
    /// Distinct keys this client asked for — what a private per-client
    /// engine would have had to read from the source.
    unique_keys: usize,
}

struct RunResult {
    wall_s: f64,
    latencies_s: Vec<f64>,
    demand_blocks: u64,
    demand_errors: u64,
    prefetch_sent: u64,
    shed: u64,
    unique_keys_summed: usize,
    source_reads: u64,
    cross_tag_coalesced: u64,
    serve: ServeMetrics,
}

/// Replay the flight `laps` times per client against one shared server.
/// With `laps == 2` the first lap warms the shared pool and is untimed;
/// a barrier lines every client up before the measured lap, so the
/// recorded latencies are the steady interactive state (mostly pool
/// hits), not the one-off cold fill. Generations come from the server's
/// `advance` acks, keeping session and flight in lockstep across laps.
fn run_clients(sc: &Scenario, n: usize, laps: usize, cfg: ServeConfig) -> RunResult {
    let store = MemBlockStore::new();
    for id in sc.layout.block_ids() {
        store.insert(viz_volume::BlockKey::scalar(id), vec![id.0 as f32; sc.block_len]);
    }
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), sc.read_delay));
    let engine = FetchEngine::spawn(
        src.clone(),
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 4, queue_cap: 16384, ..FetchConfig::default() },
    );
    let server = Server::new(Arc::new(engine), cfg);

    let steps = sc.poses.len();
    let stride = steps.div_ceil(n.max(1));
    // Everyone (clients + the timing thread below) lines up before the
    // measured lap.
    let barrier = Arc::new(Barrier::new(n + 1));
    let mut conn_threads = Vec::with_capacity(n);
    let mut client_threads = Vec::with_capacity(n);
    for c in 0..n {
        let (client_end, server_end) = inproc_pair();
        let srv = server.clone();
        conn_threads.push(std::thread::spawn(move || serve_connection(&srv, server_end)));
        let base_flight =
            ClientFlight::from_visible(sc.poses.clone(), sc.visible.clone(), None, 0.0)
                .rotated(c * stride);
        let gate = barrier.clone();
        let budget = sc.frame_budget;
        client_threads.push(std::thread::spawn(move || {
            let mut client = ServeClient::new(client_end);
            client.open(&format!("viewer-{c}")).expect("open");
            let mut r = ClientResult {
                latencies_s: Vec::with_capacity(base_flight.len()),
                demand_blocks: 0,
                demand_errors: 0,
                prefetch_sent: 0,
                shed: 0,
                unique_keys: 0,
            };
            let mut seen = HashSet::new();
            // Absolute per-frame deadlines, phase-offset per client, so
            // paced viewers stay de-phased instead of waking in a thundering
            // herd every budget tick.
            let phase = budget.mul_f64(c as f64 / n.max(1) as f64);
            for lap in 0..laps.max(1) {
                let measured = lap + 1 == laps.max(1);
                if measured {
                    gate.wait();
                }
                let lap_start = Instant::now();
                let mut frame_no = 0u32;
                let mut flight = base_flight.clone();
                while let Some(fr) = flight.next_frame() {
                    if measured {
                        let deadline = lap_start + phase + budget * frame_no;
                        let now = Instant::now();
                        if now < deadline {
                            std::thread::sleep(deadline - now);
                        }
                        frame_no += 1;
                    }
                    let generation = client.advance().expect("advance");
                    seen.extend(fr.demand.iter().copied());
                    seen.extend(fr.prefetch.iter().map(|(k, _)| *k));
                    let want = fr.demand.len() as u64;
                    let speculated = fr.prefetch.len() as u64;
                    let t = Instant::now();
                    let got = client.fetch_at(generation, fr.demand, fr.prefetch).expect("fetch");
                    let dt = t.elapsed().as_secs_f64();
                    r.demand_errors +=
                        got.blocks.iter().filter(|b| b.result.is_err()).count() as u64;
                    r.shed += u64::from(got.shed);
                    if measured {
                        r.latencies_s.push(dt);
                        r.demand_blocks += want;
                        r.prefetch_sent += speculated;
                    }
                }
            }
            client.close().expect("close");
            r.unique_keys = seen.len();
            r
        }));
    }
    barrier.wait();
    let t0 = Instant::now();

    let mut out = RunResult {
        wall_s: 0.0,
        latencies_s: Vec::new(),
        demand_blocks: 0,
        demand_errors: 0,
        prefetch_sent: 0,
        shed: 0,
        unique_keys_summed: 0,
        source_reads: 0,
        cross_tag_coalesced: 0,
        serve: ServeMetrics::default(),
    };
    for h in client_threads {
        let r = h.join().expect("client thread");
        out.latencies_s.extend(r.latencies_s);
        out.demand_blocks += r.demand_blocks;
        out.demand_errors += r.demand_errors;
        out.prefetch_sent += r.prefetch_sent;
        out.shed += r.shed;
        out.unique_keys_summed += r.unique_keys;
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    for h in conn_threads {
        h.join().expect("connection thread");
    }
    server.drain();
    out.source_reads = src.reads();
    out.cross_tag_coalesced = server.engine().metrics().cross_tag_coalesced;
    out.serve = server.metrics();
    out
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
}

fn summarize(times: &[f64]) -> Summary {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        p50_ms: percentile(&sorted, 0.50) * 1e3,
        p99_ms: percentile(&sorted, 0.99) * 1e3,
        mean_ms: sorted.iter().sum::<f64>() / sorted.len().max(1) as f64 * 1e3,
    }
}

fn coalescing_ratio(r: &RunResult) -> f64 {
    if r.source_reads == 0 {
        return 0.0;
    }
    r.unique_keys_summed as f64 / r.source_reads as f64
}

fn main() {
    let args = parse_args();
    let (steps, counts) = if args.fast { (8, vec![1, 4]) } else { (24, vec![1, 4, 16, 64]) };
    let sc = build_scenario(steps);
    let mean_visible =
        sc.visible.iter().map(Vec::len).sum::<usize>() as f64 / sc.visible.len().max(1) as f64;
    eprintln!(
        "serve: {} blocks, {} flight steps, mean visible set {:.1}, {} us reads",
        sc.layout.num_blocks(),
        steps,
        mean_visible,
        sc.read_delay.as_micros()
    );

    let mut entries = Vec::new();
    let mut p99_by_n: Vec<(usize, f64)> = Vec::new();
    let mut ratio_by_n: Vec<(usize, f64)> = Vec::new();
    for &n in &counts {
        let r = run_clients(&sc, n, 2, ServeConfig::default());
        let s = summarize(&r.latencies_s);
        let ratio = coalescing_ratio(&r);
        let throughput = r.demand_blocks as f64 / r.wall_s.max(1e-9);
        eprintln!(
            "  N={n:>2}: {:.2} s wall, {:.0} blocks/s, demand p50 {:.2} ms p99 {:.2} ms, \
             {} source reads vs {} per-client uniques (ratio {ratio:.2}), shed {}",
            r.wall_s, throughput, s.p50_ms, s.p99_ms, r.source_reads, r.unique_keys_summed, r.shed
        );
        assert_eq!(r.demand_errors, 0, "demand must always deliver");
        p99_by_n.push((n, s.p99_ms));
        ratio_by_n.push((n, ratio));
        entries.push(format!(
            r#"    {{
      "clients": {n},
      "wall_s": {wall:.3},
      "demand_blocks": {blocks},
      "throughput_blocks_per_s": {tput:.1},
      "demand_ms": {{ "p50": {p50:.3}, "p99": {p99:.3}, "mean": {mean:.3} }},
      "prefetch_sent": {pf},
      "prefetch_shed": {shed},
      "prefetch_downgraded": {down},
      "source_reads": {reads},
      "unique_keys_per_client_summed": {uniq},
      "cross_client_coalescing_ratio": {ratio:.3},
      "engine_cross_tag_coalesced": {ctc}
    }}"#,
            wall = r.wall_s,
            blocks = r.demand_blocks,
            tput = throughput,
            p50 = s.p50_ms,
            p99 = s.p99_ms,
            mean = s.mean_ms,
            pf = r.prefetch_sent,
            shed = r.serve.prefetch_shed,
            down = r.serve.prefetch_downgraded,
            reads = r.source_reads,
            uniq = r.unique_keys_summed,
            ctc = r.cross_tag_coalesced,
        ));
    }

    // Storm: 16 clients against deliberately tight admission watermarks.
    // Prefetch must shed; demand must not (and must all deliver).
    let storm_n = if args.fast { 4 } else { 16 };
    let storm_cfg = ServeConfig {
        quantum: 4,
        per_client_queue: 8,
        shed_queue_depth: 48,
        downgrade_queue_depth: 16,
        ..ServeConfig::default()
    };
    let storm = run_clients(&sc, storm_n, 1, storm_cfg);
    let ss = summarize(&storm.latencies_s);
    eprintln!(
        "  storm N={storm_n}: prefetch shed {} / {} sent, downgraded {}, demand errors {}",
        storm.serve.prefetch_shed,
        storm.prefetch_sent,
        storm.serve.prefetch_downgraded,
        storm.demand_errors
    );
    let storm_demand_shed =
        storm.demand_blocks - storm.serve.demand_admitted.min(storm.demand_blocks);
    assert_eq!(storm.demand_errors, 0, "storm demand must still deliver");
    assert_eq!(storm_demand_shed, 0, "demand is never shed");
    assert!(storm.serve.prefetch_shed > 0, "the storm config must shed prefetch");

    // Acceptance gates for the full run.
    if !args.fast {
        let at = |v: &[(usize, f64)], n: usize| {
            v.iter().find(|(m, _)| *m == n).map(|(_, x)| *x).unwrap_or(0.0)
        };
        let (p99_1, p99_16) = (at(&p99_by_n, 1), at(&p99_by_n, 16));
        assert!(
            p99_16 <= p99_1 * 2.0,
            "16-client demand p99 {p99_16:.2} ms blew past 2x the single-client {p99_1:.2} ms"
        );
        let ratio_16 = at(&ratio_by_n, 16);
        assert!(
            ratio_16 > 1.5,
            "16-client cross-client coalescing ratio {ratio_16:.2} is below the 1.5x bar"
        );
    }

    let json = format!(
        r#"{{
  "bench": "serve",
  "provenance": "Measured on a shared container from a `cargo --release` build. N viewer threads replay phase-shifted keyframe flights over in-process transports against one server; sweep latencies are the steady interactive state (an untimed warm-up lap fills the shared pool, a barrier starts the measured lap, and each viewer paces itself to one frame per 33 ms budget with phase-staggered deadlines, as a real renderer would), the storm run is cold. Absolute times carry scheduler noise, but ratios (coalescing, shed, p99 scaling) are representative. Regenerate with `cargo run --release -p viz-bench --bin serve`.",
  "operating_point": {{
    "blocks": {blocks},
    "flight_steps": {steps},
    "mean_visible_set": {mv:.1},
    "block_len_f32": {bl},
    "read_delay_us": {delay},
    "frame_budget_ms": {budget},
    "engine_workers": 4
  }},
  "runs": [
{entries}
  ],
  "storm": {{
    "clients": {storm_n},
    "config": {{ "per_client_queue": 8, "shed_queue_depth": 48, "downgrade_queue_depth": 16 }},
    "prefetch_sent": {st_pf},
    "prefetch_shed": {st_shed},
    "prefetch_downgraded": {st_down},
    "demand_blocks": {st_blocks},
    "demand_errors": {st_errors},
    "demand_shed": {st_dshed},
    "demand_ms": {{ "p50": {st_p50:.3}, "p99": {st_p99:.3} }}
  }}
}}
"#,
        blocks = sc.layout.num_blocks(),
        steps = steps,
        mv = mean_visible,
        bl = sc.block_len,
        delay = sc.read_delay.as_micros(),
        budget = sc.frame_budget.as_millis(),
        entries = entries.join(",\n"),
        storm_n = storm_n,
        st_pf = storm.prefetch_sent,
        st_shed = storm.serve.prefetch_shed,
        st_down = storm.serve.prefetch_downgraded,
        st_blocks = storm.demand_blocks,
        st_errors = storm.demand_errors,
        st_dshed = storm_demand_shed,
        st_p50 = ss.p50_ms,
        st_p99 = ss.p99_ms,
    );
    std::fs::write(&args.out, &json).expect("write results");
    println!("{json}");
    eprintln!("wrote {}", args.out);
}
