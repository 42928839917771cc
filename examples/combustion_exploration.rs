//! Out-of-core exploration of the combustion dataset with *real* data
//! movement: blocks live in an on-disk store, and the viewer is a served
//! one — a `viz-serve` [`Server`] over a 4-worker `viz-fetch` engine and a
//! resident pool bounded at half the dataset, behind a localhost TCP
//! listener, with one [`ServeClient`] session whose client tier (the
//! viewer's fast memory) is bounded at half the dataset too. Each frame is
//! one fetch: its working set as demand, the predicted next view's
//! important blocks as prefetch, which the server loads while the CPU ray
//! caster renders (Algorithm 1's overlap, as actual threads). Frames are
//! written as PPM images.
//!
//! The disk store is wrapped in a seeded [`FaultInjectingSource`] storm
//! (10% transient errors, 5% latency spikes), so the run also exercises
//! the fault path end to end: retries absorb the injected errors, each
//! frame's demand is cut off at the server's per-frame deadline
//! ([`ServeConfig::demand_deadline`]), and a frame missing blocks renders
//! *degraded* — with the blocks that arrived — instead of stalling. Each
//! degraded frame names its cause: blocks past the deadline (their reads
//! stay in flight and land for a later frame) or blocks whose reads
//! failed.
//!
//! Run with: `cargo run --release --example combustion_exploration`

use std::sync::Arc;
use std::time::Duration;
use viz_appaware::core::{ImportanceTable, RadiusModel, RadiusRule, SamplingConfig, VisibleTable};
use viz_appaware::fetch::{BlockPool, FaultConfig, FaultInjectingSource, FetchConfig, FetchEngine};
use viz_appaware::geom::angle::deg_to_rad;
use viz_appaware::geom::{CameraPath, ExplorationDomain, SphericalPath, Vec3};
use viz_appaware::render::{
    frame_working_set, render, BrickedSource, CountingLookup, RenderConfig, TransferFunction,
};
use viz_appaware::serve::{ClientTier, ServeClient, ServeConfig, Server, TcpServer, TcpTransport};
use viz_appaware::volume::{
    BlockId, BlockKey, BrickLayout, DatasetKind, DatasetSpec, DiskBlockStore,
};

/// Per-frame wall-clock budget for demand reads; past it the frame
/// renders with whatever arrived.
const FRAME_BUDGET: Duration = Duration::from_millis(100);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::temp_dir().join("viz_combustion_example");
    std::fs::create_dir_all(&out_dir)?;

    // Pre-processing: generate lifted_rr at 1/8 scale and write every block
    // to the disk store (the "HDD" end of the pipeline).
    let spec = DatasetSpec::new(DatasetKind::LiftedRr, 8, 7);
    let field = spec.materialize(0, 0.0);
    let layout = BrickLayout::with_target_blocks(field.dims, 512);
    let store = Arc::new(DiskBlockStore::open(out_dir.join("blocks"))?);
    store.write_field(&layout, &field, 0, 0)?;
    println!(
        "wrote {} blocks of {} to {}",
        layout.num_blocks(),
        layout.block,
        store.root().display()
    );

    // The application-aware tables.
    let importance = ImportanceTable::from_field(&layout, &field, 64);
    let view_angle = deg_to_rad(15.0);
    let sampling = SamplingConfig::paper_default(2.0, 3.2, view_angle).with_target_samples(1620);
    let t_visible = VisibleTable::build(
        sampling,
        &layout,
        RadiusRule::Optimal(RadiusModel::new(0.25, view_angle)),
        Some((&importance, layout.num_blocks() / 4)),
    );
    let sigma = importance.sigma_for_fraction(0.5);

    // The server: a pool of at most half the dataset's blocks, which
    // evicts the least recently used past that, and 4 workers draining a
    // priority queue, reading through a seeded fault storm so the
    // retry/deadline machinery is visibly in play (a healthy run would
    // look identical, just quieter).
    let faulty = Arc::new(FaultInjectingSource::new(store.clone(), FaultConfig::storm(7)));
    let cap = layout.num_blocks() / 2;
    let engine = FetchEngine::spawn(
        faulty.clone(),
        Arc::new(BlockPool::with_capacity(cap)),
        FetchConfig {
            workers: 4,
            queue_cap: 1024,
            source_timeout: Some(Duration::from_millis(250)),
            ..FetchConfig::default()
        },
    );
    let cfg = ServeConfig { demand_deadline: Some(FRAME_BUDGET), ..ServeConfig::default() };
    let quota = cfg.per_client_queue;
    let server = Server::new(Arc::new(engine), cfg);
    let pool = server.engine().pool().clone();
    let front = TcpServer::bind(server.clone(), "127.0.0.1:0")?;
    let link = TcpTransport::connect(&front.local_addr().to_string())?;
    let mut viewer = ServeClient::new(link).with_tier(ClientTier::with_capacity(cap));
    viewer.open("combustion")?;

    // Pre-load the important blocks (Algorithm 1 line 7), hottest first, as
    // prefetch-only fetches, each within the session's prefetch quota so
    // none is shed.
    let preload: Vec<(BlockKey, f64)> = importance
        .above_threshold(sigma)
        .take(layout.num_blocks() / 4)
        .map(|b| (BlockKey::scalar(b), importance.entropy(b)))
        .collect();
    for batch in preload.chunks(quota) {
        viewer.fetch(Vec::new(), batch.to_vec())?;
    }
    server.engine().sync();
    println!(
        "pre-loaded {} important blocks ({:.1} MiB resident, cap {cap} blocks)",
        pool.len(),
        pool.bytes_resident() as f64 / (1024.0 * 1024.0),
    );

    // Fly the camera, rendering frames while the server prefetches the
    // next view.
    let domain = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
    let path = SphericalPath::new(domain, 2.4, 12.0, view_angle).generate(12);
    let tf = TransferFunction::heat(field.min_max());
    let rc = RenderConfig::preview(192, 192);
    let mut degraded_frames = 0usize;

    for (i, pose) in path.iter().enumerate() {
        // Demand what the frame needs; the client answers the blocks its
        // tier holds and asks the server for the rest, which waits at most
        // FRAME_BUDGET for them. Prefetch the predicted next view, ordered
        // by entropy.
        let demand: Vec<BlockKey> =
            frame_working_set(pose, &layout, &rc).into_iter().map(BlockKey::scalar).collect();
        let prefetch: Vec<(BlockKey, f64)> = t_visible
            .predict(pose)
            .iter()
            .map(|&b| (BlockKey::scalar(b), importance.entropy(b)))
            .filter(|&(_, e)| e > sigma)
            .collect();
        let cut_off_before = server.metrics().deadline_misses;
        viewer.advance()?;
        let reply = viewer.fetch(demand, prefetch)?;
        let late = (server.metrics().deadline_misses - cut_off_before) as usize;

        // Render from the reply's payloads: a block that did not arrive is
        // a hole in this frame, not a stall.
        let mut bricks = vec![None; layout.num_blocks()];
        let mut missing = 0usize;
        for b in reply.blocks {
            match b.result {
                Ok(data) => bricks[b.key.block.index()] = Some(data),
                Err(_) => missing += 1,
            }
        }
        let lookup = CountingLookup::new(|id: BlockId| bricks[id.index()].clone());
        let src = BrickedSource::new(&layout, &lookup);
        let img = render(&src, pose, &tf, &rc);
        let frame_path = out_dir.join(format!("frame_{i:02}.ppm"));
        img.save_ppm(&frame_path)?;
        let (_, render_misses) = lookup.counts();
        degraded_frames += usize::from(missing > 0);
        println!(
            "frame {i:02}: mean luminance {:.4}, {} held by the viewer, pool = {} blocks / {:.1} MiB{} -> {}",
            img.mean_luminance(),
            reply.held,
            pool.len(),
            pool.bytes_resident() as f64 / (1024.0 * 1024.0),
            if missing > 0 {
                format!(
                    " [DEGRADED: {late} blocks past the deadline, {} failed, \
                     {render_misses} bricks absent at render]",
                    missing.saturating_sub(late)
                )
            } else {
                String::new()
            },
            frame_path.display()
        );
    }

    viewer.close()?;
    front.shutdown();
    let s = server.metrics();
    let m = server.engine().metrics();
    let (hits, misses) = pool.stats();
    println!(
        "\nengine: {} blocks loaded ({} on demand), {} coalesced, {} dropped, {} errors",
        m.completed, m.demand_completed, m.coalesced, m.dropped, m.errors
    );
    println!(
        "server: {} demand keys asked, {} prefetch admitted, {} resident, {} shed",
        s.demand_admitted, s.prefetch_admitted, s.prefetch_resident, s.prefetch_shed
    );
    println!(
        "faults: {} injected errors / {} spikes over {} reads; {} retries, \
         {} source timeouts, {} deadline misses, {} late arrivals; \
         breaker {:?} ({} opens), {degraded_frames} degraded frames",
        faulty.injected_errors(),
        faulty.injected_spikes(),
        faulty.reads(),
        m.retries,
        m.timeouts,
        s.deadline_misses,
        m.late_arrivals,
        m.breaker_state,
        m.breaker_opens,
    );
    println!("pool lookups: {hits} hits / {misses} misses; pool capped at {cap} blocks");
    println!("frames written to {}", out_dir.display());
    Ok(())
}
