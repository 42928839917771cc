//! Chaos benchmark: seeded fault schedules driven through the
//! deterministic in-process [`TestCluster`], reporting the two numbers
//! the resilience layer is judged on — how fast failures are *detected*
//! (router down-mark or peer suspicion) and how fast demand latency
//! *recovers* once the fault is repaired.
//!
//! A steady run with no faults first establishes the baseline frame
//! latency over the identical rotating demand window. Then, for each
//! seed, [`ChaosPlan::seeded`] generates a survivable schedule of
//! crashes, restarts, fabric partitions, slow storage, and corrupted
//! reply frames, and [`run_plan`] drives it step by step (one membership
//! round plus one routed demand frame per step). The acceptance bars:
//! zero demand errors under every schedule, every fault detected within
//! a few steps, and the quiet-tail demand latency back within 2x of the
//! steady baseline.
//!
//! Results print and land as JSON (default `BENCH_chaos.json`; `--out
//! PATH` overrides, `--fast` shrinks steps and seeds for CI smoke runs).

use std::time::Instant;
use viz_cluster::chaos::run_plan;
use viz_cluster::{
    ChaosAction, ChaosEvent, ChaosOptions, ChaosPlan, NodeId, ShardStrategy, TestCluster,
};

struct Args {
    fast: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args { fast: false, out: "BENCH_chaos.json".to_string() };
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

const NODES: u32 = 4;
/// Below this the "steady baseline" is an in-process no-op measured in
/// single-digit microseconds, and a 2x ratio measures scheduler noise
/// rather than recovery; the bar uses `max(steady_p99, floor)`.
const STEADY_FLOOR_MS: f64 = 0.25;

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
}

fn summarize(times_s: &[f64]) -> Summary {
    let mut sorted = times_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary { p50_ms: percentile(&sorted, 0.50) * 1e3, p99_ms: percentile(&sorted, 0.99) * 1e3 }
}

fn steps_summary(steps: &[u32]) -> (f64, f64, u32) {
    let mut sorted: Vec<f64> = steps.iter().map(|&s| f64::from(s)).collect();
    sorted.sort_by(f64::total_cmp);
    let max = steps.iter().copied().max().unwrap_or(0);
    (percentile(&sorted, 0.50), percentile(&sorted, 0.99), max)
}

fn join(v: &[u32]) -> String {
    v.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
}

/// The no-fault baseline: the same driver loop (membership round plus
/// one routed demand frame per step) with an empty schedule. A single
/// `Unslow` no-op pins the step count; the first half of the run warms
/// the block pools, the second half is the measured steady state.
fn run_steady(steps: u32, opts: &ChaosOptions) -> Summary {
    let plan = ChaosPlan {
        events: vec![ChaosEvent { step: steps - 9, action: ChaosAction::Unslow(NodeId(0)) }],
    };
    let mut cluster = TestCluster::new(NODES, ShardStrategy::Ring);
    let mut router = cluster.router("chaos-steady");
    let report = run_plan(&mut cluster, &mut router, &plan, opts);
    assert_eq!(report.demand_errors, 0, "steady run must not see demand errors");
    summarize(&report.frame_wall_s[report.frame_wall_s.len() / 2..])
}

struct SeedRun {
    seed: u64,
    steps: u32,
    wall_s: f64,
    demand_blocks: u64,
    demand_errors: u64,
    detections: Vec<u32>,
    recoveries: Vec<u32>,
    tail: Summary,
}

/// One seeded schedule against a fresh cluster. The last 8 steps are the
/// plan's quiet tail — every repair has landed, so their latency is the
/// "recovered" number the 2x bar compares against steady state.
fn run_seed(seed: u64, steps: u32, opts: &ChaosOptions) -> SeedRun {
    let plan = ChaosPlan::seeded(seed, NODES, steps);
    let faults = plan
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.action,
                ChaosAction::Crash(_) | ChaosAction::Isolate(_) | ChaosAction::Corrupt(_)
            )
        })
        .count();
    let repairs = plan.events.len()
        - faults
        - plan
            .events
            .iter()
            .filter(|e| matches!(e.action, ChaosAction::Slow(..) | ChaosAction::Unslow(_)))
            .count();
    let mut cluster = TestCluster::new(NODES, ShardStrategy::Ring);
    let mut router = cluster.router("chaos");
    let t0 = Instant::now();
    let report = run_plan(&mut cluster, &mut router, &plan, opts);
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(report.demand_errors, 0, "seed {seed}: chaos demand must always deliver");
    assert_eq!(
        report.detections.len(),
        faults,
        "seed {seed}: every unreachability fault must be detected"
    );
    assert_eq!(
        report.recoveries.len(),
        repairs,
        "seed {seed}: every repaired node must be re-admitted"
    );
    let tail = summarize(&report.frame_wall_s[report.frame_wall_s.len().saturating_sub(8)..]);
    SeedRun {
        seed,
        steps: report.steps,
        wall_s,
        demand_blocks: report.demand_blocks,
        demand_errors: report.demand_errors,
        detections: report.detections,
        recoveries: report.recoveries,
        tail,
    }
}

fn main() {
    let args = parse_args();
    let seeds: &[u64] = if args.fast { &[11] } else { &[11, 17, 23] };
    let steps: u32 = if args.fast { 40 } else { 120 };
    let steady_steps: u32 = if args.fast { 24 } else { 48 };
    let opts = ChaosOptions::default();
    eprintln!(
        "chaos: {NODES} nodes, {} seeds x {steps} steps, {} keys x {} demand/step",
        seeds.len(),
        opts.key_space,
        opts.demand_per_step
    );

    let steady = run_steady(steady_steps, &opts);
    eprintln!(
        "  steady baseline: p50 {:.3} ms p99 {:.3} ms per frame",
        steady.p50_ms, steady.p99_ms
    );

    let runs: Vec<SeedRun> = seeds.iter().map(|&s| run_seed(s, steps, &opts)).collect();
    let mut all_detections = Vec::new();
    let mut all_recoveries = Vec::new();
    let mut tails_ms = Vec::new();
    for r in &runs {
        eprintln!(
            "  seed {}: {} steps ({:.2} s), {} blocks 0 errors, detections [{}] recoveries [{}], \
             tail p99 {:.3} ms",
            r.seed,
            r.steps,
            r.wall_s,
            r.demand_blocks,
            join(&r.detections),
            join(&r.recoveries),
            r.tail.p99_ms
        );
        all_detections.extend_from_slice(&r.detections);
        all_recoveries.extend_from_slice(&r.recoveries);
        tails_ms.push(r.tail.p99_ms);
    }
    let (det_p50, det_p99, det_max) = steps_summary(&all_detections);
    let (rec_p50, rec_p99, rec_max) = steps_summary(&all_recoveries);
    // The asserted recovery number is the *median* per-seed tail p99 —
    // one scheduler spike in one seed's 8-frame tail must not flap the
    // run — with the per-seed values all in the JSON.
    tails_ms.sort_by(f64::total_cmp);
    let recovered_p99_ms = tails_ms[tails_ms.len() / 2];
    let recovered_worst_ms = tails_ms[tails_ms.len() - 1];
    eprintln!(
        "  detection steps p50 {det_p50:.1} p99 {det_p99:.1} max {det_max}; re-admission steps \
         p50 {rec_p50:.1} p99 {rec_p99:.1} max {rec_max}; recovered p99 {recovered_p99_ms:.3} ms \
         (worst seed {recovered_worst_ms:.3} ms)"
    );

    assert!(!all_detections.is_empty(), "plans must inject unreachability faults");
    assert!(det_max <= 3, "failure detection took {det_max} steps (bar: 3)");
    assert!(rec_max <= 4, "re-admission took {rec_max} steps (bar: 4)");
    if !args.fast {
        // The recovery bar: once every fault is repaired, demand latency
        // must be back within 2x of the no-fault baseline.
        let bar = 2.0 * steady.p99_ms.max(STEADY_FLOOR_MS);
        assert!(
            recovered_p99_ms <= bar,
            "recovered tail p99 {recovered_p99_ms:.3} ms blew past the bar {bar:.3} ms"
        );
    }

    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                r#"    {{
      "seed": {seed},
      "steps": {steps},
      "wall_s": {wall:.3},
      "demand_blocks": {blocks},
      "demand_errors": {errs},
      "detection_steps": [{det}],
      "recovery_steps": [{rec}],
      "tail_ms": {{ "p50": {tp50:.3}, "p99": {tp99:.3} }}
    }}"#,
                seed = r.seed,
                steps = r.steps,
                wall = r.wall_s,
                blocks = r.demand_blocks,
                errs = r.demand_errors,
                det = join(&r.detections),
                rec = join(&r.recoveries),
                tp50 = r.tail.p50_ms,
                tp99 = r.tail.p99_ms,
            )
        })
        .collect();

    let json = format!(
        r#"{{
  "bench": "chaos",
  "provenance": "Measured on a shared container from a `cargo --release` build. The cluster is the deterministic in-process TestCluster (synchronous transports, virtual clock for suspicion deadlines); each step runs one membership round and one routed demand frame, so detection and re-admission are in *steps* (one heartbeat interval each) — the deterministic unit — while frame latencies are wall-clock and carry scheduler noise. A no-fault steady run over the identical demand window sets the baseline; each seeded schedule must deliver every demand block, detect every unreachability fault, re-admit every repaired node, and end its quiet tail within 2x of steady-state p99 (floored at {floor} ms: below that both sides are in-process no-ops and the ratio measures noise). Regenerate with `cargo run --release -p viz-bench --bin chaos`.",
  "operating_point": {{
    "nodes": {nodes},
    "steps_per_seed": {steps},
    "seeds": [{seeds}],
    "demand_per_step": {dps},
    "key_space": {ks},
    "ticks_per_step": {tps},
    "strategy": "ring"
  }},
  "steady_ms": {{ "p50": {sp50:.3}, "p99": {sp99:.3} }},
  "detection_steps": {{ "p50": {det_p50:.1}, "p99": {det_p99:.1}, "max": {det_max} }},
  "recovery_steps": {{ "p50": {rec_p50:.1}, "p99": {rec_p99:.1}, "max": {rec_max} }},
  "recovered_tail_p99_ms": {{ "median_seed": {rec_ms:.3}, "worst_seed": {rec_worst:.3} }},
  "runs": [
{entries}
  ]
}}
"#,
        floor = STEADY_FLOOR_MS,
        nodes = NODES,
        steps = steps,
        seeds = seeds.iter().map(u64::to_string).collect::<Vec<_>>().join(", "),
        dps = opts.demand_per_step,
        ks = opts.key_space,
        tps = opts.ticks_per_step,
        sp50 = steady.p50_ms,
        sp99 = steady.p99_ms,
        rec_ms = recovered_p99_ms,
        rec_worst = recovered_worst_ms,
        entries = entries.join(",\n"),
    );
    std::fs::write(&args.out, &json).expect("write results");
    println!("{json}");
    eprintln!("wrote {}", args.out);
}
