//! The four served workloads: closed-loop viewers flying a camera path
//! against the pipeline. A viewer issues frame k+1 only after frame k's
//! demand blocks arrived and (where the workload renders) the frame was
//! drawn. Nothing sleeps; every millisecond measured is work.

use crate::adapter::{
    compute_visibility, render, BlockId, BlockKey, BrickedSource, CameraPose, ClientFlight,
    CountingLookup, FieldSource, RenderConfig, TransferFunction,
};
use crate::calib::kernel_ns;
use crate::pipeline::{Counters, Pipeline, Viewer};
use crate::poses::{orbit_lap, walk_lap, SplitMix64};
use crate::scene::Scene;
use crate::wrap::{LinkSteps, ReadRec};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Frames flown over one timestep: 300 degrees of the orbit.
pub const FRAMES_PER_LAP: usize = 60;
/// Image edge in pixels and ray step in world units: sized so that a
/// frame's render takes about as long as its demand fetch in a cold lap.
const IMAGE_EDGE: usize = 32;
const RAY_STEP: f64 = 0.02;
/// The rendered square pyramid sits inside the 15 degree view cone with room
/// to spare: every ray sample, and its trilinear neighbours, then fall in
/// blocks of the pose's visible set, so a frame drawn from exactly its
/// demand payloads has no lookup misses.
const RENDER_FOV_DEG: f64 = 8.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathKind {
    /// Precessing orbit, the view turning 5 degrees a frame.
    Orbit,
    /// Random walk, the view turning 30 to 35 degrees a frame.
    Walk,
}

#[derive(Debug, Clone, Copy)]
pub struct FlightSpec {
    pub nodes: u32,
    pub viewers: usize,
    pub path: PathKind,
    /// Prediction-driven prefetch and rendering; off for `warm-shared`,
    /// which measures the serving path alone.
    pub predict_and_render: bool,
    /// Each lap addresses a new timestep, so it is cold for the pool,
    /// which never evicts. Off for `warm-shared`: every block of the lap
    /// is fetched once before the clock starts and the timed laps read
    /// nothing.
    pub cold_laps: bool,
    /// Timed frames per viewer per second of `--seconds`: what the
    /// reference container manages, so a run lasts about `--seconds` there
    /// and does the same work everywhere.
    pub frames_per_second: f64,
}

/// One frame as the viewer saw it (durations in ns; the sub-steps are
/// only stamped in a traced pass).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameRec {
    pub viewer: u32,
    pub start_ns: u64,
    pub total: u64,
    pub next_frame: u64,
    pub advance: u64,
    pub fetch_start_ns: u64,
    pub fetch: u64,
    /// The slowest link's steps inside `fetch`.
    pub link: LinkSteps,
    pub links_used: u32,
    pub install: u64,
    pub render: u64,
    pub blocks: u32,
    pub ready: u32,
    pub queue_depth: u32,
    /// The calibration kernel's time right after this frame.
    pub kernel_ns: f64,
    /// When the viewer was done with this frame's bookkeeping.
    pub done_ns: u64,
}

/// What the viewers count while flying; summed over viewers for the pass.
#[derive(Default)]
pub struct Tally {
    pub wire: (u64, u64),
    pub attempted: u64,
    pub failed: u64,
    pub bad_payloads: u64,
    pub lookup_misses: u64,
    /// Rendered luminance of viewer 0's first and last frame, with the pose.
    pub luminance: Vec<(CameraPose, f64)>,
    /// Every key asked for, as demand or as prefetch.
    pub keys: HashSet<BlockKey>,
    /// When each key was first demanded (ns since the probe's epoch).
    pub first_demand: HashMap<BlockKey, u64>,
    pub predicted: u64,
    pub predicted_hit: u64,
    pub next_demand: u64,
    pub prediction_frames: u64,
    pub rounds_max: u32,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.wire = (self.wire.0 + other.wire.0, self.wire.1 + other.wire.1);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bad_payloads += other.bad_payloads;
        self.lookup_misses += other.lookup_misses;
        self.luminance.extend(other.luminance);
        self.keys.extend(other.keys);
        for (key, t) in other.first_demand {
            let first = self.first_demand.entry(key).or_insert(t);
            *first = (*first).min(t);
        }
        self.predicted += other.predicted;
        self.predicted_hit += other.predicted_hit;
        self.next_demand += other.next_demand;
        self.prediction_frames += other.prediction_frames;
        self.rounds_max = self.rounds_max.max(other.rounds_max);
    }
}

/// Everything one pass produced.
pub struct Pass {
    pub frames: Vec<FrameRec>,
    pub wall_s: f64,
    pub reads: Vec<ReadRec>,
    pub counters: Counters,
    pub tally: Tally,
    pub lap: Vec<CameraPose>,
}

fn lap_poses(path: PathKind, seed: u64) -> Vec<CameraPose> {
    let mut rng = SplitMix64::new(seed);
    match path {
        PathKind::Orbit => orbit_lap(&mut rng, FRAMES_PER_LAP, 5.0),
        PathKind::Walk => walk_lap(&mut rng, FRAMES_PER_LAP, (30.0, 35.0)),
    }
}

fn render_config() -> RenderConfig {
    RenderConfig { step: RAY_STEP, ..RenderConfig::preview(IMAGE_EDGE, IMAGE_EDGE) }
}

fn render_pose(pose: &CameraPose) -> CameraPose {
    CameraPose::new(pose.position, pose.center, RENDER_FOV_DEG.to_radians())
}

/// The reference image's luminance for a pose: the same renderer reading
/// the generated field directly.
pub fn reference_luminance(scene: &Scene, pose: &CameraPose) -> f64 {
    let source = FieldSource::new(&scene.field, &scene.layout);
    let tf = TransferFunction::heat(scene.field.min_max());
    render(&source, &render_pose(pose), &tf, &render_config()).mean_luminance()
}

struct ViewerLoop<'a> {
    id: u32,
    spec: &'a FlightSpec,
    scene: &'a Scene,
    pipeline: &'a Pipeline,
    viewer: Viewer,
    flight: Option<ClientFlight>,
    poses: Vec<CameraPose>,
    tf: TransferFunction,
    /// The viewer's resident bricks: the payloads of the current frame.
    bricks: Vec<Option<Arc<Vec<f32>>>>,
    wire_base: (u64, u64),
    frames: Vec<FrameRec>,
    out: Tally,
}

impl<'a> ViewerLoop<'a> {
    fn new(
        id: u32,
        spec: &'a FlightSpec,
        scene: &'a Scene,
        pipeline: &'a Pipeline,
        viewer: Viewer,
        flight: ClientFlight,
        poses: Vec<CameraPose>,
    ) -> Self {
        ViewerLoop {
            id,
            spec,
            scene,
            pipeline,
            flight: Some(flight),
            poses,
            tf: TransferFunction::heat(scene.field.min_max()),
            bricks: vec![None; scene.layout.num_blocks()],
            wire_base: viewer.wire_bytes(),
            viewer,
            frames: Vec::new(),
            out: Tally::default(),
        }
    }

    fn finish(mut self) -> (Vec<FrameRec>, Tally) {
        let (tx, rx) = self.viewer.wire_bytes();
        self.out.wire = (tx - self.wire_base.0, rx - self.wire_base.1);
        (self.frames, self.out)
    }

    /// Fly the first `frames` poses of the path over `timestep`.
    fn lap(&mut self, timestep: u32, frames: usize) {
        let probe = &self.pipeline.probe;
        let traced = probe.traced;
        let layout = &self.scene.layout;
        let config = render_config();
        let mut flight = self.flight.take().expect("flight").for_variable(0, timestep as u16);
        flight.rewind();
        let key_of = |id: BlockId| BlockKey::new(0, timestep as u16, id);
        let mut predicted_prev: Vec<BlockId> = Vec::new();
        let mut marked = vec![false; layout.num_blocks()];

        for i in 0..frames {
            let mut rec = FrameRec { viewer: self.id, ..FrameRec::default() };
            let t0 = probe.now_ns();
            if self.id == 0 {
                probe.frame_now.store(self.frames.len() as u32, Ordering::Relaxed);
            }
            let fr = flight.next_frame().expect("one frame per pose");
            let t1 = if traced { probe.now_ns() } else { t0 };
            let generation = self.viewer.advance();
            let t2 = if traced { probe.now_ns() } else { t0 };
            if traced {
                // Discard what the advance round trip stamped.
                self.viewer.links.iter().for_each(|l| {
                    l.take();
                });
            }
            let prefetch = if self.spec.predict_and_render { fr.prefetch } else { Vec::new() };
            let predicted: Vec<BlockId> = prefetch.iter().map(|(k, _)| k.block).collect();
            let asked = fr.demand.len() as u64;

            let fetch_start = probe.now_ns();
            let result = generation.and_then(|g| self.viewer.fetch(g, fr.demand, prefetch));
            let t3 = probe.now_ns();
            if traced {
                rec.queue_depth = self.pipeline.queue_depth() as u32;
            }
            let (replies, rounds) = match result {
                Ok(ok) => ok,
                Err(_) => {
                    // A failed round trip fails every block it asked for.
                    self.out.attempted += asked;
                    self.out.failed += asked;
                    continue;
                }
            };

            self.bricks.iter_mut().for_each(|slot| *slot = None);
            for reply in &replies {
                if let Ok(data) = &reply.result {
                    self.bricks[reply.key.block.index()] = Some(data.clone());
                }
            }
            let t4 = if traced { probe.now_ns() } else { t3 };
            let mut image = None;
            if self.spec.predict_and_render {
                let bricks = &self.bricks;
                let lookup = CountingLookup::new(|id: BlockId| bricks[id.index()].clone());
                let source = BrickedSource::new(layout, &lookup);
                image = Some(render(&source, &render_pose(&self.poses[i]), &self.tf, &config));
                self.out.lookup_misses += lookup.counts().1;
            }
            let t5 = probe.now_ns();

            // ---- everything below is the driver's bookkeeping, outside the frame
            rec.start_ns = t0;
            rec.total = t5 - t0;
            rec.fetch_start_ns = fetch_start;
            rec.fetch = t3 - fetch_start;
            rec.blocks = replies.len() as u32;
            rec.ready = probe.ready_before(replies.iter().map(|r| r.key), fetch_start);
            if traced {
                rec.next_frame = t1 - t0;
                rec.advance = t2 - t1;
                rec.install = t4 - t3;
                rec.render = t5 - t4;
                for link in &self.viewer.links {
                    let steps = link.take();
                    rec.links_used += u32::from(steps.total() > 0);
                    if steps.total() >= rec.link.total() {
                        rec.link = steps;
                    }
                }
                if self.spec.nodes == 1 {
                    // `ServeClient` encodes before its first send and
                    // decodes after its last receive.
                    rec.link.enc = rec.link.first_send_ns.saturating_sub(fetch_start);
                    rec.link.dec = t3.saturating_sub(rec.link.last_recv_ns);
                }
            }
            self.out.rounds_max = self.out.rounds_max.max(rounds);
            self.out.attempted += asked;
            for reply in &replies {
                match &reply.result {
                    Ok(data) if self.scene.payload_matches(reply.key, data) => {}
                    Ok(_) => self.out.bad_payloads += 1,
                    Err(_) => self.out.failed += 1,
                }
                self.out.keys.insert(reply.key);
                self.out.first_demand.entry(reply.key).or_insert(fetch_start);
            }
            self.out.failed += asked.saturating_sub(replies.len() as u64);
            self.out.keys.extend(predicted.iter().map(|&id| key_of(id)));
            if i > 0 && self.spec.predict_and_render {
                predicted_prev.iter().for_each(|id| marked[id.index()] = true);
                self.out.predicted += predicted_prev.len() as u64;
                self.out.predicted_hit +=
                    replies.iter().filter(|r| marked[r.key.block.index()]).count() as u64;
                self.out.next_demand += replies.len() as u64;
                self.out.prediction_frames += 1;
                predicted_prev.iter().for_each(|id| marked[id.index()] = false);
            }
            predicted_prev = predicted;
            if let (0, Some(image)) = (self.id, image) {
                // Keep the first frame and the latest one.
                let sample = (self.poses[i], image.mean_luminance());
                match self.out.luminance.len() {
                    0 | 1 => self.out.luminance.push(sample),
                    _ => self.out.luminance[1] = sample,
                }
            }
            rec.kernel_ns = kernel_ns();
            rec.done_ns = probe.now_ns();
            self.frames.push(rec);
        }
        self.flight = Some(flight);
    }
}

/// Run `frames` timed frames per viewer of `spec` against a fresh pipeline.
pub fn run_pass(
    spec: &FlightSpec,
    scene: &Scene,
    data_dir: &Path,
    seed: u64,
    frames: usize,
    traced: bool,
) -> Result<Pass, String> {
    let pipeline = Pipeline::start(spec.nodes, data_dir, traced).map_err(|e| e.to_string())?;
    let lap = lap_poses(spec.path, seed);
    let tables = spec.predict_and_render.then(|| (scene.visible.clone(), scene.importance.clone()));
    let flight = ClientFlight::new(&scene.layout, lap.clone(), tables, scene.sigma);

    let mut viewers = Vec::new();
    for i in 0..spec.viewers {
        // Viewers share the path, each a further fraction of a lap along it.
        let phase = i * FRAMES_PER_LAP / spec.viewers;
        let mut poses = lap.clone();
        poses.rotate_left(phase);
        viewers.push((pipeline.viewer(i)?, flight.clone().rotated(phase), poses));
    }

    if !spec.cold_laps {
        // Make timestep 0 resident: demand every block the lap sees, once.
        let mut seen = vec![false; scene.layout.num_blocks()];
        let keys: Vec<BlockKey> = compute_visibility(&scene.layout, &lap)
            .into_iter()
            .flatten()
            .filter(|id| !std::mem::replace(&mut seen[id.index()], true))
            .map(BlockKey::scalar)
            .collect();
        for chunk in keys.chunks(256) {
            viewers[0].0.fetch(0, chunk.to_vec(), Vec::new())?;
        }
    }

    let gate = Barrier::new(spec.viewers + 1);
    let (outs, wall_s, base) = std::thread::scope(|s| {
        let handles: Vec<_> = viewers
            .into_iter()
            .enumerate()
            .map(|(i, (viewer, flight, poses))| {
                let (pipeline, gate) = (&pipeline, &gate);
                s.spawn(move || {
                    let mut v =
                        ViewerLoop::new(i as u32, spec, scene, pipeline, viewer, flight, poses);
                    gate.wait();
                    gate.wait();
                    for (lap, first) in (0..frames).step_by(FRAMES_PER_LAP).enumerate() {
                        let timestep = if spec.cold_laps { lap as u32 } else { 0 };
                        v.lap(timestep, (frames - first).min(FRAMES_PER_LAP));
                    }
                    v.finish()
                })
            })
            .collect();
        // First gate: every viewer is connected and warm. Anything read or
        // counted so far is not part of the timed phase.
        gate.wait();
        drop(pipeline.probe.take_reads());
        let base = pipeline.counters();
        let t0 = Instant::now();
        gate.wait();
        let outs: Vec<(Vec<FrameRec>, Tally)> =
            handles.into_iter().map(|h| h.join().expect("viewer thread")).collect();
        (outs, t0.elapsed().as_secs_f64(), base)
    });

    let counters = pipeline.counters().since(&base);
    let reads = pipeline.probe.take_reads();
    pipeline.stop();

    let mut pass =
        Pass { frames: Vec::new(), wall_s, reads, counters, tally: Tally::default(), lap };
    for (frames, tally) in outs {
        pass.frames.extend(frames);
        pass.tally.absorb(tally);
    }
    Ok(pass)
}
