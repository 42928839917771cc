//! Replay a hostile [`Schedule`] against a real deterministic server,
//! with or without the closed-loop control plane — the measurement side
//! of the adaptive benchmark, and the harness the safety regression test
//! drives.
//!
//! One replay is fully in-process: a `workers = 0` engine stepped to
//! idle after every schedule step, so the only nondeterminism left is
//! the wall-clock RTT measurement itself (which the safety tests avoid
//! by running over a [`viz_fetch::VirtualClockSource`], and the bench
//! embraces by injecting a fixed per-read latency — the I/O cost model
//! the controller is supposed to manage).

use crate::hostile::{ClientOp, Schedule};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use viz_adapt::{ControlPlane, ControlPlaneConfig};
use viz_fetch::{
    BlockPool, FetchConfig, FetchEngine, InstrumentedSource, VirtualClock, VirtualClockSource,
};
use viz_serve::{ServeConfig, Server, SessionId};
use viz_volume::{BlockId, BlockKey, MemBlockStore};

/// How to run a replay.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// `Some(slo)` attaches a [`ControlPlane`] chasing that demand-p99
    /// SLO (ns), ticked once per schedule step; `None` is the fixed
    /// baseline.
    pub slo_p99_ns: Option<u64>,
    /// Wall latency injected per source read (the I/O cost model).
    pub read_delay: Duration,
    /// Read through a [`VirtualClockSource`] instead — no real time
    /// anywhere, for determinism-critical tests.
    pub virtual_clock: bool,
}

impl ReplayOptions {
    /// Fixed defaults with `delay` per read.
    pub fn fixed(delay: Duration) -> Self {
        ReplayOptions { slo_p99_ns: None, read_delay: delay, virtual_clock: false }
    }

    /// Closed loop at `slo` ns with `delay` per read.
    pub fn adaptive(slo: u64, delay: Duration) -> Self {
        ReplayOptions { slo_p99_ns: Some(slo), read_delay: delay, virtual_clock: false }
    }
}

/// What one replay saw (serialized into `BENCH_adaptive.json`).
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Frames executed.
    pub frames: u64,
    /// Demand keys submitted.
    pub demand_keys: u64,
    /// Demand replies that came back `Ok`.
    pub demand_ok: u64,
    /// Demand replies that came back `Err` — must be 0, always.
    pub demand_errors: u64,
    /// `serve_demand_admitted` at the end — must equal `demand_keys`:
    /// demand is never shed, so every submitted key was admitted.
    pub demand_admitted: u64,
    /// Prefetch entries shed (any rung).
    pub prefetch_shed: u64,
    /// Final per-reason shed totals, only reasons that fired.
    pub shed_by_reason: Vec<(String, u64)>,
    /// Source reads actually performed (coalescing + pool hits absorb
    /// the rest). Virtual-clock replays report 0.
    pub source_reads: u64,
    /// Steady-state (second-half) frame p99, milliseconds.
    pub p99_ms: f64,
    /// Steady-state frame p50, milliseconds.
    pub p50_ms: f64,
    /// Ladder scale after each control tick (empty when fixed).
    pub scale_per_tick: Vec<f64>,
    /// Window demand p99 (ms) seen by each control tick (empty when fixed).
    pub p99_ms_per_tick: Vec<f64>,
    /// Final ladder scale (1.0 when fixed).
    pub final_scale: f64,
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)] * 1e3
}

/// Run `schedule` against a fresh deterministic server.
pub fn run_schedule(schedule: &Schedule, opts: &ReplayOptions) -> ReplayReport {
    let store = MemBlockStore::new();
    for i in 0..schedule.cfg.keyspace {
        store.insert(BlockKey::scalar(BlockId(i)), vec![i as f32; 32]);
    }
    // Keep a typed handle to the instrumented source for its read counter.
    let mut instrumented: Option<Arc<InstrumentedSource>> = None;
    let src: Arc<dyn viz_volume::BlockSource> = if opts.virtual_clock {
        let clock = Arc::new(VirtualClock::new());
        Arc::new(VirtualClockSource::uniform(Arc::new(store), clock, 3))
    } else {
        let s = Arc::new(InstrumentedSource::new(Arc::new(store), opts.read_delay));
        instrumented = Some(s.clone());
        s
    };
    let engine = FetchEngine::spawn(
        src,
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 0, ..FetchConfig::default() },
    );
    // The default watermarks are sized for real deployments and sit far
    // above what a replay step can offer — every rung of a 1/16-scaled
    // ladder would still admit everything and the two arms could never
    // diverge. Seed the per-session entry quota just above the per-frame
    // prefetch burst instead, so the scaled ladder is the thing that
    // decides how much prefetch a hostile frame gets to keep.
    let serve_cfg = ServeConfig { per_client_queue: 16, ..ServeConfig::default() };
    let server = Server::new(Arc::new(engine), serve_cfg);
    let mut plane = opts.slo_p99_ns.map(|slo| {
        let mut cfg = ControlPlaneConfig::for_slo(slo);
        cfg.gauge_prefix = "replay_".to_string();
        ControlPlane::new(server.clone(), cfg)
    });

    let mut sessions: HashMap<u32, SessionId> = HashMap::new();
    let mut report = ReplayReport { final_scale: 1.0, ..ReplayReport::default() };
    let mut frame_s: Vec<f64> = Vec::new();
    for step in &schedule.steps {
        let mut pending = Vec::new();
        for op in step {
            match op {
                ClientOp::Open { client } => {
                    let id = server.open_session(&format!("c{client}")).expect("open");
                    sessions.insert(*client, id);
                }
                ClientOp::Close { client } => {
                    let id = sessions.remove(client).expect("close of open session");
                    server.close_session(id);
                }
                ClientOp::Frame { client, demand, prefetch } => {
                    let id = sessions[client];
                    let d: Vec<BlockKey> =
                        demand.iter().map(|&k| BlockKey::scalar(BlockId(k))).collect();
                    let p: Vec<(BlockKey, f64)> = prefetch
                        .iter()
                        .enumerate()
                        .map(|(i, &k)| (BlockKey::scalar(BlockId(k)), 1.0 / (i + 1) as f64))
                        .collect();
                    report.frames += 1;
                    report.demand_keys += d.len() as u64;
                    let t0 = Instant::now();
                    let sub = server.submit(id, 0, d, p).expect("submit");
                    pending.push((t0, sub));
                }
            }
        }
        server.pump();
        server.engine().run_until_idle();
        for (t0, sub) in pending {
            for reply in sub.collect_ready(&server) {
                if reply.result.is_ok() {
                    report.demand_ok += 1;
                } else {
                    report.demand_errors += 1;
                }
            }
            frame_s.push(t0.elapsed().as_secs_f64());
        }
        if let Some(plane) = &mut plane {
            let tick = plane.tick();
            report.scale_per_tick.push(tick.scale);
            report.p99_ms_per_tick.push(tick.window_p99_ns as f64 / 1e6);
            report.final_scale = tick.scale;
        }
    }

    // Steady state = the second half of frames, after warmup and (for the
    // adaptive arm) after the controller has had time to settle.
    let mut tail: Vec<f64> = frame_s[frame_s.len() / 2..].to_vec();
    tail.sort_by(f64::total_cmp);
    report.p99_ms = percentile_ms(&tail, 0.99);
    report.p50_ms = percentile_ms(&tail, 0.50);

    let stats = server.wire_counters();
    let counter = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0);
    report.demand_admitted = counter("serve_demand_admitted");
    report.prefetch_shed = counter("serve_prefetch_shed");
    for reason in [
        "serve_shed_draining",
        "serve_shed_stale_gen",
        "serve_shed_entry_quota",
        "serve_shed_byte_quota",
        "serve_shed_breaker",
        "serve_shed_queue_depth",
        "serve_shed_pool_pressure",
    ] {
        let v = counter(reason);
        if v > 0 {
            report.shed_by_reason.push((reason.to_string(), v));
        }
    }
    report.source_reads = instrumented.map(|i| i.reads()).unwrap_or(0);
    viz_telemetry::stats::clear_gauges();
    report
}
