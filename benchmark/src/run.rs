//! One workload, one process: set-up (timed, repeated), the untraced pass
//! that yields the end-to-end metrics, the traced pass that yields the
//! per-layer ones, the output checks, and the result line.

use crate::adapter::{
    compute_visibility, decode_block, encode_block, BlockId, BlockKey, BlockPool, DiskBlockStore,
    FetchConfig, FetchEngine,
};
use crate::calib::{at_reference_speed, speed_factors};
use crate::flight::{
    reference_luminance, run_pass, FlightSpec, FrameRec, Pass, PathKind, FRAMES_PER_LAP,
};
use crate::json::{num, quote};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::pipeline::Pipeline;
use crate::scene::Scene;
use crate::sim::{run_sim, SimResult, PATHS_PER_SECOND, POSES_PER_PATH};
use crate::stats::{median, percentile, ratio, sorted};
use crate::wrap::{LapSource, Probe, ReadRec};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// `--trace 0`: the untraced pass; end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: half the time untraced (the overhead reference), half
    /// traced; per-layer metrics.
    Layers,
    /// No `--trace`: the untraced pass at full length, then a traced pass
    /// at a quarter of it; both lists.
    Full,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
    pub out: Option<PathBuf>,
}

/// Set-up is repeated and its median reported, so one slow directory sync
/// does not decide `setup_s`. A traced run reports no `setup_s`, and a
/// smoke run (`run.sh --quick`) is too short for the median to matter:
/// both set up once.
/// Seconds' worth of work in the first (untraced) and second (traced)
/// pass.
fn pass_seconds(args: &Args) -> (f64, f64) {
    match args.mode {
        Mode::EndToEnd => (args.seconds, 0.0),
        Mode::Layers => (args.seconds / 2.0, args.seconds / 2.0),
        Mode::Full => (args.seconds, args.seconds / 4.0),
    }
}

fn setup_repeats(args: &Args) -> usize {
    if args.mode == Mode::Layers || args.seconds < 2.0 {
        1
    } else {
        3
    }
}

fn flight_spec(workload: &str) -> Option<FlightSpec> {
    let base = FlightSpec {
        nodes: 1,
        viewers: 1,
        path: PathKind::Orbit,
        predict_and_render: true,
        cold_laps: true,
        frames_per_second: 15.0,
    };
    match workload {
        "flight-smooth" => Some(base),
        "flight-erratic" => {
            Some(FlightSpec { path: PathKind::Walk, frames_per_second: 13.5, ..base })
        }
        "cluster-smooth" => Some(FlightSpec { nodes: 2, frames_per_second: 18.0, ..base }),
        "warm-shared" => Some(FlightSpec {
            viewers: 2,
            predict_and_render: false,
            cold_laps: false,
            frames_per_second: 26.0,
            ..base
        }),
        _ => None,
    }
}

struct Check {
    name: &'static str,
    pass: bool,
    detail: String,
}

struct Outcome {
    values: Values,
    checks: Vec<Check>,
    attempted: u64,
    failed: u64,
    /// `(layer, mean self ms in a median frame)`.
    budget: Vec<(&'static str, f64)>,
    sizes: String,
}

/// Scratch space for the dataset and traces: beside the built binary.
fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    exe.parent().expect("binary has a directory").join("out")
}

fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn run(args: &Args) -> Result<bool, String> {
    let outcome = match flight_spec(&args.workload) {
        Some(spec) => run_flight(args, &spec)?,
        None if args.workload == "sim-policy" => run_simulated(args)?,
        None => return Err(format!("unknown workload {:?}", args.workload)),
    };
    let correct = outcome.checks.iter().all(|c| c.pass);
    report(args, &outcome, correct).map_err(|e| e.to_string())?;
    Ok(correct)
}

// ---------------------------------------------------------------- flights

fn run_flight(args: &Args, spec: &FlightSpec) -> Result<Outcome, String> {
    let data_dir = work_dir().join(format!("data-{}-{}", args.workload, std::process::id()));
    let result = run_flight_in(args, spec, &data_dir);
    let _ = std::fs::remove_dir_all(&data_dir);
    result
}

fn run_flight_in(args: &Args, spec: &FlightSpec, data_dir: &Path) -> Result<Outcome, String> {
    // Set-up: field + tables + server start, until viewers hold open
    // sessions. The dataset is written once, outside it: that time is the
    // host's `fsync` latency (it varies fourfold between runs here) and is
    // reported as `volume.dataset_write_s`.
    let repeats = setup_repeats(args);
    let mut setup_s = Vec::new();
    let mut write_s = None;
    let mut scene = None;
    for _ in 0..repeats {
        drop(scene.take());
        let t = Instant::now();
        let mut built = Scene::build();
        let mut spent = t.elapsed();
        match write_s {
            None => {
                built.write_dataset(data_dir).map_err(|e| format!("dataset: {e}"))?;
                write_s = Some(built.times.write_s);
            }
            Some(s) => built.times.write_s = s,
        }
        let t = Instant::now();
        let pipeline = Pipeline::start(spec.nodes, data_dir, false).map_err(|e| e.to_string())?;
        let viewers: Result<Vec<_>, _> = (0..spec.viewers).map(|i| pipeline.viewer(i)).collect();
        spent += t.elapsed();
        setup_s.push(spent.as_secs_f64());
        drop(viewers?);
        pipeline.stop();
        scene = Some(built);
    }
    let scene = scene.expect("at least one set-up");

    // At least one frame in a pass that runs at all.
    let frames = |seconds: f64| (seconds * spec.frames_per_second).ceil() as usize;
    let (untraced_frames, traced_frames) =
        (frames(pass_seconds(args).0), frames(pass_seconds(args).1));
    let untraced = run_pass(spec, &scene, data_dir, args.seed, untraced_frames, false)?;
    let traced = match traced_frames {
        0 => None,
        n => Some(run_pass(spec, &scene, data_dir, args.seed, n, true)?),
    };

    let mut values = Values::default();
    let mut checks = Vec::new();
    let mut budget = Vec::new();

    // ---- end to end, from the untraced pass
    let reference = frames_at_reference_speed(&untraced.frames, spec.viewers);
    let totals = sorted(reference.frame_ms.clone());
    values.set_n("setup_s", median(setup_s.clone()), setup_s.len());
    values.set_n("frames_per_s", reference.frames_per_s, totals.len());
    values.set_n("frame_ms_p50", percentile(&totals, 0.50), totals.len());
    values.set_n("frame_ms_p95", percentile(&totals, 0.95), totals.len());
    values.set_n(
        "demand_hit_ratio",
        hit_ratio(&untraced.frames),
        untraced.tally.attempted as usize,
    );
    println!(
        "# as measured: frame_ms_p50 {:.4}, frames_per_s {:.4}, median speed factor {:.4}",
        median(untraced.frames.iter().map(|f| ms(f.total)).collect()),
        ratio(untraced.frames.len() as f64, untraced.wall_s),
        reference.factor_p50
    );
    check_pass(&mut checks, "untraced", spec, &scene, &untraced);

    // ---- per layer, from the traced pass
    if let Some(t) = &traced {
        check_pass(&mut checks, "traced", spec, &scene, t);
        let blocking = read_overlap(&t.frames, &t.reads);
        layer_values(&mut values, spec, &scene, t, &blocking);
        micro_passes(&mut values, spec, &scene, data_dir, t)?;
        let traced_reference = frames_at_reference_speed(&t.frames, spec.viewers);
        values.set(
            "bench.trace_overhead_ratio",
            ratio(median(traced_reference.frame_ms), percentile(&totals, 0.50)),
        );
        values.set("bench.speed_factor_p50", traced_reference.factor_p50);
        let raw_p50 = median(t.frames.iter().map(|f| ms(f.total)).collect());
        values.set_n("bench.frame_ms_p50_raw", raw_p50, t.frames.len());
        values.set("bench.frames_per_s_raw", ratio(t.frames.len() as f64, t.wall_s));
        budget = frame_budget(&t.frames, &blocking);
        let sum: f64 = budget.iter().map(|(_, v)| v).sum();
        values.set("bench.budget_sum_ratio", ratio(sum, raw_p50));
        write_trace(&args.workload, t).map_err(|e| format!("trace file: {e}"))?;
    }
    values.set("rss_peak_mb", rss_peak_mb());

    let sizes = format!(
        "{{\"frames_per_lap\": {FRAMES_PER_LAP}, \"untraced_frames\": {untraced_frames}, \
         \"traced_frames\": {traced_frames}, \"viewers\": {}, \"nodes\": {}, \"blocks\": {}, \
         \"setup_repeats\": {repeats}}}",
        spec.viewers,
        spec.nodes,
        scene.layout.num_blocks()
    );
    Ok(Outcome {
        values,
        checks,
        attempted: untraced.tally.attempted + traced.as_ref().map_or(0, |t| t.tally.attempted),
        failed: untraced.tally.failed + traced.as_ref().map_or(0, |t| t.tally.failed),
        budget,
        sizes,
    })
}

/// The end-to-end timings with the CPU's speed regime divided out (see
/// `calib`): each frame's time over the speed factor of its moment.
struct AtReferenceSpeed {
    frame_ms: Vec<f64>,
    frames_per_s: f64,
    factor_p50: f64,
}

fn frames_at_reference_speed(frames: &[FrameRec], viewers: usize) -> AtReferenceSpeed {
    let mut out = AtReferenceSpeed { frame_ms: Vec::new(), frames_per_s: 0.0, factor_p50: 0.0 };
    let mut factors_all = Vec::new();
    let mut slowest_viewer_s = 0f64;
    for viewer in 0..viewers as u32 {
        let own: Vec<&FrameRec> = frames.iter().filter(|f| f.viewer == viewer).collect();
        let factors = speed_factors(&own.iter().map(|f| f.kernel_ns).collect::<Vec<_>>());
        let busy_s: f64 =
            own.iter().zip(&factors).map(|(f, k)| (f.done_ns - f.start_ns) as f64 / 1e9 / k).sum();
        slowest_viewer_s = slowest_viewer_s.max(busy_s);
        out.frame_ms.extend(own.iter().zip(&factors).map(|(f, k)| ms(f.total) / k));
        factors_all.extend(factors);
    }
    out.frames_per_s = ratio(frames.len() as f64, slowest_viewer_s);
    out.factor_p50 = median(factors_all);
    out
}

fn hit_ratio(frames: &[FrameRec]) -> f64 {
    let ready: u64 = frames.iter().map(|f| u64::from(f.ready)).sum();
    let blocks: u64 = frames.iter().map(|f| u64::from(f.blocks)).sum();
    ratio(ready as f64, blocks as f64)
}

/// The output checks of one pass.
fn check_pass(checks: &mut Vec<Check>, which: &str, spec: &FlightSpec, scene: &Scene, p: &Pass) {
    let mut add = |name, pass, detail: String| {
        checks.push(Check { name, pass, detail: format!("{which} pass: {detail}") })
    };
    add(
        "no_failed_demand",
        p.tally.failed == 0,
        format!("{} of {} demand blocks failed", p.tally.failed, p.tally.attempted),
    );
    add(
        "payloads_match_dataset",
        p.tally.bad_payloads == 0,
        format!("{} payloads differ from the generated field", p.tally.bad_payloads),
    );
    add(
        "at_most_one_read_per_key",
        p.reads.len() <= p.tally.keys.len(),
        format!(
            "{} source reads for {} distinct keys requested",
            p.reads.len(),
            p.tally.keys.len()
        ),
    );
    if !spec.cold_laps {
        add(
            "warm_laps_read_nothing",
            p.reads.is_empty(),
            format!("{} source reads", p.reads.len()),
        );
    }
    if spec.predict_and_render {
        add(
            "render_lookup_misses_zero",
            p.tally.lookup_misses == 0,
            format!("{} lookup misses", p.tally.lookup_misses),
        );
        let worst = p
            .tally
            .luminance
            .iter()
            .map(|(pose, got)| (got - reference_luminance(scene, pose)).abs())
            .fold(0.0, f64::max);
        add(
            "luminance_matches_reference",
            p.tally.luminance.len() == 2 && worst <= 1e-4,
            format!("first and last frame differ from the field render by at most {worst:e}"),
        );
    }
}

/// Per-layer values the traced pass itself yields.
fn layer_values(values: &mut Values, spec: &FlightSpec, scene: &Scene, p: &Pass, blocking: &[u64]) {
    let n = p.frames.len();
    let p50 = |f: &dyn Fn(&FrameRec) -> f64| median(p.frames.iter().map(f).collect());
    let c = &p.counters;

    values.set("core.table_build_s", scene.times.table_s);
    values.set("core.importance_build_s", scene.times.importance_s);
    values.set("volume.dataset_write_s", scene.times.write_s);
    values.set_n("core.next_frame_us_p50", p50(&|f| us(f.next_frame)), n);
    values.set(
        "core.predicted_per_frame",
        ratio(p.tally.predicted as f64, p.tally.prediction_frames as f64),
    );
    values.set(
        "core.prediction_recall",
        ratio(p.tally.predicted_hit as f64, p.tally.next_demand as f64),
    );
    values.set(
        "core.prediction_precision",
        ratio(p.tally.predicted_hit as f64, p.tally.predicted as f64),
    );

    let fetch = sorted(p.frames.iter().map(|f| ms(f.fetch)).collect());
    values.set_n("serve.demand_ms_p50", percentile(&fetch, 0.50), n);
    values.set_n("serve.demand_ms_p95", percentile(&fetch, 0.95), n);
    values.set_n("serve.demand_ms_p99", percentile(&fetch, 0.99), n);
    values.set(
        "serve.wire_bytes_per_frame",
        ratio((p.tally.wire.0 + p.tally.wire.1) as f64, n as f64),
    );
    values.set("serve.wire_tx_bytes", p.tally.wire.0 as f64);
    values.set("serve.wire_rx_bytes", p.tally.wire.1 as f64);
    values.set("serve.demand_error_rate", ratio(p.tally.failed as f64, p.tally.attempted as f64));
    values.set_n("serve.encode_req_us_p50", p50(&|f| us(f.link.enc)), n);
    values.set_n("serve.send_us_p50", p50(&|f| us(f.link.send)), n);
    values.set_n("serve.recv_wait_us_p50", p50(&|f| us(f.link.wait)), n);
    values.set_n("serve.decode_resp_us_p50", p50(&|f| us(f.link.dec)), n);
    if spec.nodes == 1 {
        values.set_n("serve.advance_rtt_us_p50", p50(&|f| us(f.advance)), n);
    }
    let server_self: Vec<f64> =
        p.frames.iter().zip(blocking).map(|(f, b)| us(f.link.wait.saturating_sub(*b))).collect();
    values.set_n("serve.server_self_us_p50", median(server_self), n);
    let warm: Vec<f64> = p
        .frames
        .iter()
        .filter(|f| f.blocks > 0 && f.ready == f.blocks)
        .map(|f| us(f.fetch) / f64::from(f.blocks))
        .collect();
    values.set_n("serve.fetch_us_per_block_warm", median(warm.clone()), warm.len());
    values.set("serve.demand_admitted", c.demand_admitted as f64);
    values.set("serve.prefetch_admitted", c.prefetch_admitted as f64);
    values.set("serve.prefetch_shed", c.prefetch_shed as f64);
    values.set("serve.prefetch_downgraded", c.prefetch_downgraded as f64);

    values.set("fetch.completed", c.completed as f64);
    values.set("fetch.demand_completed", c.demand_completed as f64);
    values.set("fetch.coalesced", c.coalesced as f64);
    values.set("fetch.cancelled", c.cancelled as f64);
    values.set("fetch.dropped", c.dropped as f64);
    values.set("fetch.retries", c.retries as f64);
    values.set("fetch.errors", c.errors as f64);
    values.set(
        "fetch.queue_depth_max",
        p.frames.iter().map(|f| f.queue_depth).max().unwrap_or(0) as f64,
    );
    values.set("fetch.pool_bytes_peak", c.pool_bytes as f64);
    values.set(
        "fetch.pool_hit_ratio",
        ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
    );
    values.set("fetch.demand_miss_rate", if n == 0 { 0.0 } else { 1.0 - hit_ratio(&p.frames) });

    // A read is speculative when it started before its key was first
    // demanded (or the key never was); it paid off when the key was
    // demanded later. A read blocks demand when a frame was already
    // waiting for its key before it finished.
    let demanded = |r: &ReadRec| p.tally.first_demand.get(&r.key).copied();
    let speculative =
        p.reads.iter().filter(|r| demanded(r).map_or(true, |t| r.start_ns < t)).count();
    let paid_off = p.reads.iter().filter(|r| demanded(r).is_some_and(|t| r.start_ns < t)).count();
    let blocking_reads =
        p.reads.iter().filter(|r| demanded(r).is_some_and(|t| t <= r.end_ns)).count();
    values.set_n(
        "fetch.prefetch_useful_ratio",
        ratio(paid_off as f64, speculative as f64),
        speculative,
    );

    let read_us = sorted(p.reads.iter().map(|r| us(r.end_ns - r.start_ns)).collect());
    values.set("volume.reads", p.reads.len() as f64);
    values.set("volume.reads_per_frame", ratio(p.reads.len() as f64, n as f64));
    values.set("volume.read_bytes", p.reads.iter().map(|r| f64::from(r.bytes)).sum());
    values.set_n("volume.read_us_p50", percentile(&read_us, 0.50), read_us.len());
    values.set_n("volume.read_us_p99", percentile(&read_us, 0.99), read_us.len());
    values.set("volume.read_busy_s", read_us.iter().sum::<f64>() / 1e6);
    values.set("volume.reads_blocking_demand", blocking_reads as f64);

    if spec.nodes > 1 {
        let overhead = p50(&|f| us(f.fetch.saturating_sub(f.link.total())));
        values.set_n("cluster.router_overhead_us_p50", overhead, n);
        values.set(
            "cluster.nodes_per_frame",
            ratio(p.frames.iter().map(|f| f64::from(f.links_used)).sum(), n as f64),
        );
        let mut per_node = vec![0f64; spec.nodes as usize];
        p.reads.iter().for_each(|r| per_node[r.node as usize] += 1.0);
        let mean = per_node.iter().sum::<f64>() / per_node.len() as f64;
        values.set(
            "cluster.read_imbalance",
            ratio(per_node.iter().cloned().fold(0.0, f64::max), mean),
        );
        values.set("cluster.peer_requests", c.peer_requests as f64);
        values.set("cluster.rounds_max", f64::from(p.tally.rounds_max));
    }

    if spec.predict_and_render {
        let render = sorted(p.frames.iter().map(|f| ms(f.render)).collect());
        values.set_n("render.frame_ms_p50", percentile(&render, 0.50), n);
        values.set_n("render.frame_ms_p99", percentile(&render, 0.99), n);
        values.set("render.lookup_misses", p.tally.lookup_misses as f64);
    }
    values.set_n("client.install_us_p50", p50(&|f| us(f.install)), n);
    values.set("bench.frames", n as f64);
    values.set("bench.ops_attempted", p.tally.attempted as f64);
    values.set("bench.ops_failed", p.tally.failed as f64);
}

/// For each frame, how much of its wait for the reply overlapped source
/// reads: the union of read intervals cut to the frame's wait window.
fn read_overlap(frames: &[FrameRec], reads: &[ReadRec]) -> Vec<u64> {
    let mut spans: Vec<(u64, u64)> = reads.iter().map(|r| (r.start_ns, r.end_ns)).collect();
    spans.sort_unstable();
    let mut union: Vec<(u64, u64)> = Vec::new();
    for (s, e) in spans {
        match union.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => union.push((s, e)),
        }
    }
    frames
        .iter()
        .map(|f| {
            let (lo, hi) = (f.link.wait_start_ns, f.link.last_recv_ns);
            let first = union.partition_point(|&(_, e)| e <= lo);
            union[first..]
                .iter()
                .take_while(|&&(s, _)| s < hi)
                .map(|&(s, e)| e.min(hi).saturating_sub(s.max(lo)))
                .sum()
        })
        .collect()
}

/// Where a median frame's time goes: mean self time per step over the
/// frames between the 40th and 60th percentile of frame time. The rows sum
/// to those frames' mean total, which is the median within the band's width.
fn frame_budget(frames: &[FrameRec], blocking: &[u64]) -> Vec<(&'static str, f64)> {
    let totals = sorted(frames.iter().map(|f| f.total as f64).collect());
    let (lo, hi) = (percentile(&totals, 0.40), percentile(&totals, 0.60));
    let band: Vec<(&FrameRec, u64)> = frames
        .iter()
        .zip(blocking.iter().copied())
        .filter(|(f, _)| (lo..=hi).contains(&(f.total as f64)))
        .collect();
    let mean = |f: &dyn Fn(&FrameRec, u64) -> u64| {
        band.iter().map(|(r, b)| ms(f(r, *b))).sum::<f64>() / band.len().max(1) as f64
    };
    vec![
        ("core.next_frame", mean(&|f, _| f.next_frame)),
        ("serve.advance", mean(&|f, _| f.advance)),
        ("serve.encode_req", mean(&|f, _| f.link.enc)),
        ("serve.send", mean(&|f, _| f.link.send)),
        ("volume.read (blocking)", mean(&|f, b| b.min(f.link.wait))),
        ("serve.server_self", mean(&|f, b| f.link.wait.saturating_sub(b))),
        ("serve.decode_resp", mean(&|f, _| f.link.dec)),
        ("serve.fetch other (router)", mean(&|f, _| f.fetch.saturating_sub(f.link.total()))),
        ("client.install", mean(&|f, _| f.install)),
        ("render.frame", mean(&|f, _| f.render)),
        (
            "driver (between steps)",
            mean(&|f, _| {
                f.total.saturating_sub(f.next_frame + f.advance + f.fetch + f.install + f.render)
            }),
        ),
    ]
}

/// Per-layer values measured on their own, around single public calls.
fn micro_passes(
    values: &mut Values,
    spec: &FlightSpec,
    scene: &Scene,
    data_dir: &Path,
    p: &Pass,
) -> Result<(), String> {
    let layout = &scene.layout;

    // viz-core: one pose's visible set.
    let visible: Vec<f64> = p
        .lap
        .iter()
        .map(|pose| {
            let t = Instant::now();
            std::hint::black_box(compute_visibility(layout, std::slice::from_ref(pose)));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    values.set_n("core.visible_us_p50", median(visible.clone()), visible.len());

    // viz-volume: the decode half of a read (CRC + convert), no file I/O.
    let sample: Vec<BlockId> = layout.block_ids().step_by(4).collect();
    let decode: Vec<f64> = sample
        .iter()
        .map(|&id| {
            let bytes = encode_block(layout.block_dims(id), &scene.field.extract_block(layout, id));
            let t = Instant::now();
            std::hint::black_box(decode_block(&bytes).expect("own encoding decodes"));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    values.set_n("volume.decode_us_p50", median(decode.clone()), decode.len());

    // viz-fetch: a private engine's cold get beyond its source read, and a
    // resident get.
    let probe = Probe::new(true);
    let store = DiskBlockStore::open(data_dir).map_err(|e| e.to_string())?;
    let source = LapSource::new(Arc::new(store), probe.clone(), 0);
    let engine = FetchEngine::spawn(
        source,
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 2, ..FetchConfig::default() },
    );
    let timed_get = |id: BlockId| {
        let t = Instant::now();
        std::hint::black_box(engine.get(BlockKey::scalar(id)).map_err(|e| e.to_string())?);
        Ok::<f64, String>(t.elapsed().as_nanos() as f64 / 1e3)
    };
    let cold: Vec<f64> = sample.iter().map(|&id| timed_get(id)).collect::<Result<_, _>>()?;
    let reads = probe.take_reads();
    let read_us: std::collections::HashMap<BlockKey, f64> =
        reads.iter().map(|r| (r.key, us(r.end_ns - r.start_ns))).collect();
    let overhead: Vec<f64> = sample
        .iter()
        .zip(&cold)
        .map(|(&id, &get)| {
            (get - read_us.get(&BlockKey::scalar(id)).copied().unwrap_or(0.0)).max(0.0)
        })
        .collect();
    let hit: Vec<f64> = sample.iter().map(|&id| timed_get(id)).collect::<Result<_, _>>()?;
    engine.shutdown();
    values.set_n("fetch.cold_get_overhead_us_p50", median(overhead), sample.len());
    values.set_n("fetch.hit_get_us_p50", median(hit), sample.len());

    // viz-cluster: one owner lookup on the ring map.
    if spec.nodes > 1 {
        let pipeline = Pipeline::start(spec.nodes, data_dir, false).map_err(|e| e.to_string())?;
        let map = pipeline.map().expect("a cluster has a map");
        let keys: Vec<BlockKey> = layout.block_ids().map(BlockKey::scalar).collect();
        let lookups: Vec<f64> = keys
            .chunks(64)
            .map(|chunk| {
                let t = Instant::now();
                chunk.iter().for_each(|&k| {
                    std::hint::black_box(map.owner(k));
                });
                t.elapsed().as_nanos() as f64 / chunk.len() as f64
            })
            .collect();
        values.set_n("cluster.owner_lookup_ns_p50", median(lookups.clone()), lookups.len());
        pipeline.stop();
    }
    Ok(())
}

/// The traced pass as Chrome-trace JSON (`chrome://tracing`, Perfetto).
fn write_trace(workload: &str, p: &Pass) -> std::io::Result<()> {
    let mut out = String::with_capacity(p.frames.len() * 1200 + p.reads.len() * 160);
    out.push_str("{\"traceEvents\": [\n");
    let mut event = |name: &str, tid: u32, start_ns: u64, dur_ns: u64, frame: usize| {
        let _ = writeln!(
            out,
            "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {}, \"dur\": {}, \
             \"args\": {{\"frame\": {frame}}}}},",
            quote(name),
            num(us(start_ns)),
            num(us(dur_ns)),
        );
    };
    let mut per_viewer = std::collections::HashMap::new();
    for f in &p.frames {
        let index: &mut usize = per_viewer.entry(f.viewer).or_default();
        let (tid, i) = (f.viewer, *index);
        *index += 1;
        event("frame", tid, f.start_ns, f.total, i);
        event("core.next_frame", tid, f.start_ns, f.next_frame, i);
        event("serve.advance", tid, f.start_ns + f.next_frame, f.advance, i);
        event("serve.fetch", tid, f.fetch_start_ns, f.fetch, i);
        let l = &f.link;
        if l.first_send_ns > 0 {
            event("encode_req", tid, l.first_send_ns - l.enc.min(l.first_send_ns), l.enc, i);
            event("send", tid, l.first_send_ns, l.send, i);
            event(
                "recv_wait",
                tid,
                l.wait_start_ns,
                l.last_recv_ns.saturating_sub(l.wait_start_ns),
                i,
            );
            event("decode_resp", tid, l.last_recv_ns, l.dec, i);
        }
        let fetch_end = f.fetch_start_ns + f.fetch;
        event("client.install", tid, fetch_end, f.install, i);
        event("render.frame", tid, fetch_end + f.install, f.render, i);
    }
    // Reads overlap across worker threads; give each a lane it fits in.
    let mut reads: Vec<&ReadRec> = p.reads.iter().collect();
    reads.sort_unstable_by_key(|r| r.start_ns);
    let mut lanes: Vec<u64> = Vec::new();
    for r in reads {
        let lane =
            lanes.iter().position(|&busy_until| busy_until <= r.start_ns).unwrap_or(lanes.len());
        if lane == lanes.len() {
            lanes.push(0);
        }
        lanes[lane] = r.end_ns;
        event(
            "volume.read",
            100 + r.node * 16 + lane as u32,
            r.start_ns,
            r.end_ns - r.start_ns,
            r.frame as usize,
        );
    }
    out.push_str(
        "{\"name\": \"end\", \"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"ts\": 0, \"s\": \"g\"}\n]}\n",
    );
    let dir = work_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("trace-{workload}.json")), out)
}

// -------------------------------------------------------------- simulator

fn run_simulated(args: &Args) -> Result<Outcome, String> {
    let repeats = setup_repeats(args);
    let mut setup_s = Vec::new();
    let mut scene = None;
    for _ in 0..repeats {
        drop(scene.take());
        let t = Instant::now();
        scene = Some(Scene::build());
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let scene = scene.expect("at least one set-up");

    // Nothing inside the simulator can be stamped from outside, so the
    // "traced" pass is the same code timed again.
    let paths = |seconds: f64| (seconds * PATHS_PER_SECOND).ceil() as u32;
    let (first_paths, second_paths) = (paths(pass_seconds(args).0), paths(pass_seconds(args).1));
    let first = run_sim(&scene, args.seed, first_paths);
    let second = (second_paths > 0).then(|| run_sim(&scene, args.seed, second_paths));

    let mut values = Values::default();
    let mut checks = Vec::new();
    let factors = speed_factors(&first.kernel_ns);
    let at_reference = at_reference_speed(&first.frame_ms, &factors);
    // Every path simulates the same number of frames, so the rate is the
    // inverse of the mean time per frame.
    let mean_frame_ms = at_reference.iter().sum::<f64>() / at_reference.len() as f64;
    let frame_ms = sorted(at_reference);
    values.set_n("setup_s", median(setup_s.clone()), setup_s.len());
    values.set_n("frames_per_s", ratio(3e3, mean_frame_ms), first.steps as usize);
    values.set_n("frame_ms_p50", percentile(&frame_ms, 0.50), frame_ms.len());
    values.set_n("frame_ms_p95", percentile(&frame_ms, 0.95), frame_ms.len());
    values.set_n(
        "demand_hit_ratio",
        1.0 - ratio(first.misses_appaware as f64, first.accesses as f64),
        first.accesses as usize,
    );
    println!(
        "# as measured: frame_ms_p50 {:.4}, frames_per_s {:.4}, median speed factor {:.4}",
        median(first.frame_ms.clone()),
        ratio(3e3 * first.frame_ms.len() as f64, first.frame_ms.iter().sum()),
        median(factors)
    );
    check_sim(&mut checks, &first);

    if let Some(s) = &second {
        check_sim(&mut checks, s);
        let per_policy_steps = (s.steps / 3) as f64;
        values.set("core.table_build_s", scene.times.table_s);
        values.set("core.importance_build_s", scene.times.importance_s);
        values.set("cache.sim_miss_ratio", ratio(s.misses_appaware as f64, s.misses_lru as f64));
        values.set("cache.sim_time_ratio", ratio(s.virtual_s_appaware, s.virtual_s_lru));
        values.set("cache.sim_us_per_step_lru", ratio(s.wall_s_lru * 1e6, per_policy_steps));
        values.set(
            "cache.sim_us_per_step_appaware",
            ratio(s.wall_s_appaware * 1e6, per_policy_steps),
        );
        values.set("cache.misses_fifo", s.misses_fifo as f64);
        values.set("cache.misses_lru", s.misses_lru as f64);
        values.set("cache.misses_appaware", s.misses_appaware as f64);
        values.set("cache.misses_belady", s.misses_belady as f64);
        let factors = speed_factors(&s.kernel_ns);
        let at_reference = at_reference_speed(&s.frame_ms, &factors);
        values.set(
            "bench.trace_overhead_ratio",
            ratio(median(at_reference), percentile(&frame_ms, 0.50)),
        );
        values.set("bench.speed_factor_p50", median(factors));
        values.set_n("bench.frame_ms_p50_raw", median(s.frame_ms.clone()), s.frame_ms.len());
        values.set(
            "bench.frames_per_s_raw",
            ratio(3e3 * s.frame_ms.len() as f64, s.frame_ms.iter().sum()),
        );
        values.set("bench.frames", s.steps as f64);
        values.set("bench.ops_attempted", s.accesses as f64);
    }
    values.set("rss_peak_mb", rss_peak_mb());

    Ok(Outcome {
        values,
        checks,
        attempted: first.accesses + second.as_ref().map_or(0, |s| s.accesses),
        failed: 0,
        budget: Vec::new(),
        sizes: format!(
            "{{\"poses_per_path\": {POSES_PER_PATH}, \"paths\": {first_paths}, \
             \"paths_second_pass\": {second_paths}, \"policies\": 3, \"setup_repeats\": {repeats}}}"
        ),
    })
}

fn check_sim(checks: &mut Vec<Check>, s: &SimResult) {
    checks.push(Check {
        name: "belady_bounds_reactive_policies",
        pass: s.misses_belady <= s.misses_fifo && s.misses_belady <= s.misses_lru,
        detail: format!("belady {} fifo {} lru {}", s.misses_belady, s.misses_fifo, s.misses_lru),
    });
    checks.push(Check {
        name: "appaware_beats_lru",
        pass: s.misses_appaware < s.misses_lru,
        detail: format!("app-aware {} lru {}", s.misses_appaware, s.misses_lru),
    });
}

// ----------------------------------------------------------------- output

fn report(args: &Args, o: &Outcome, correct: bool) -> std::io::Result<()> {
    let lists: &[(&str, &[(&'static str, &'static str)])] = match args.mode {
        Mode::EndToEnd => &[("end_to_end", END_TO_END)],
        Mode::Layers => &[("per_layer", PER_LAYER)],
        Mode::Full => &[("end_to_end", END_TO_END), ("per_layer", PER_LAYER)],
    };

    println!(
        "# vizbench {} seed {} seconds {} ({:?})",
        args.workload, args.seed, args.seconds, args.mode
    );
    let mut line = String::new();
    let mut file = String::new();
    for (section, list) in lists {
        let _ = write!(file, "  {}: {{\n", quote(section));
        let rows = o.values.in_order(list);
        for (i, (name, unit, v)) in rows.iter().enumerate() {
            let samples =
                if v.samples > 0 { format!("  (n={})", v.samples) } else { String::new() };
            println!("{name:<36} {:>16.4} {unit}{samples}", v.value);
            let _ = write!(
                line,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if line.is_empty() { "" } else { ", " },
                quote(name),
                num(v.value),
                quote(unit)
            );
            let _ = writeln!(
                file,
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}{}",
                quote(name),
                num(v.value),
                quote(unit),
                v.samples,
                if i + 1 < rows.len() { "," } else { "" }
            );
        }
        file.push_str("  },\n");
    }
    if !o.budget.is_empty() {
        let total: f64 = o.budget.iter().map(|(_, v)| v).sum();
        println!("# budget of a median frame (mean self time over the frames between p40 and p60)");
        for (layer, self_ms) in &o.budget {
            println!("{layer:<36} {self_ms:>16.4} ms  {:>5.1} %", 100.0 * ratio(*self_ms, total));
        }
        println!("{:<36} {total:>16.4} ms", "sum");
    }
    for c in &o.checks {
        println!("# check {:<34} {}  {}", c.name, if c.pass { "ok  " } else { "FAIL" }, c.detail);
    }

    if let Some(path) = &args.out {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut text = String::from("{\n  \"schema\": \"vizbench/1\",\n");
        let _ = writeln!(text, "  \"workload\": {},", quote(&args.workload));
        let _ = writeln!(text, "  \"seed\": {},\n  \"seconds\": {},", args.seed, num(args.seconds));
        let _ = writeln!(text, "  \"mode\": {},", quote(&format!("{:?}", args.mode)));
        let _ = writeln!(
            text,
            "  \"provenance\": {{\"rustc\": {}, \"flags\": {}, \"shims\": {}, \"nproc\": {nproc}, \"commit\": {}}},",
            quote(env!("VIZBENCH_RUSTC")),
            quote(env!("VIZBENCH_FLAGS")),
            quote(env!("VIZBENCH_SHIMS")),
            quote(&env("VIZBENCH_COMMIT")),
        );
        let _ = writeln!(text, "  \"sizes\": {},", o.sizes);
        let _ = writeln!(text, "  \"claim\": null,");
        let _ = writeln!(
            text,
            "  \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {},",
            o.attempted, o.failed
        );
        text.push_str(&file);
        text.push_str("  \"layers\": [");
        for (i, (layer, self_ms)) in o.budget.iter().enumerate() {
            let _ = write!(
                text,
                "{}{{\"layer\": {}, \"self_ms\": {}}}",
                if i > 0 { ", " } else { "" },
                quote(layer),
                num(*self_ms)
            );
        }
        text.push_str("],\n  \"checks\": [\n");
        for (i, c) in o.checks.iter().enumerate() {
            let _ = writeln!(
                text,
                "    {{\"name\": {}, \"pass\": {}, \"detail\": {}}}{}",
                quote(c.name),
                c.pass,
                quote(&c.detail),
                if i + 1 < o.checks.len() { "," } else { "" }
            );
        }
        text.push_str("  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)?;
    }

    // The harness reads the last line of standard output.
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{line}}}}}",
        o.attempted.max(1),
        o.failed
    );
    Ok(())
}
