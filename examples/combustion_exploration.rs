//! Out-of-core exploration of the combustion dataset with *real* data
//! movement: blocks live in an on-disk store, the `viz-fetch` engine pulls
//! predicted blocks into a resident pool bounded at half the dataset
//! with a 4-worker pool (Algorithm 1's overlap, as actual threads) while
//! the CPU ray caster renders, and frames are written as PPM images.
//!
//! Demonstrates the full engine surface: entropy-priority prefetch,
//! demand reads that jump the queue and coalesce with in-flight
//! prefetches, generation bumps that cancel stale predictions when the
//! camera moves on, and the pool's own least-recently-used eviction at
//! its block cap.
//!
//! The disk store is wrapped in a seeded [`FaultInjectingSource`] storm
//! (10% transient errors, 5% latency spikes), so the run also exercises
//! the fault path end to end: retries absorb the injected errors, each
//! frame's demand reads run under a deadline via [`fetch_frame`], and a
//! frame whose reads miss the budget renders *degraded* — resident blocks
//! only — instead of stalling, recovering on a later frame.
//!
//! Run with: `cargo run --release --example combustion_exploration`

use std::sync::Arc;
use std::time::Duration;
use viz_appaware::core::{
    fetch_frame, ImportanceTable, RadiusModel, RadiusRule, SamplingConfig, VisibleTable,
};
use viz_appaware::fetch::{BlockPool, FaultConfig, FaultInjectingSource, FetchConfig, FetchEngine};
use viz_appaware::geom::angle::deg_to_rad;
use viz_appaware::geom::{CameraPath, ExplorationDomain, SphericalPath, Vec3};
use viz_appaware::render::{
    frame_working_set, render, BrickedSource, CountingLookup, RenderConfig, TransferFunction,
};
use viz_appaware::volume::{BlockKey, BrickLayout, DatasetKind, DatasetSpec, DiskBlockStore};

/// Per-frame wall-clock budget for demand reads; past it the frame
/// renders with whatever is resident.
const FRAME_BUDGET: Duration = Duration::from_millis(100);

fn main() -> std::io::Result<()> {
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

    // The fetch engine: a pool of at most half the dataset's blocks, which
    // evicts the least recently used past that, and 4 workers draining a
    // priority queue, reading through a seeded fault storm so the
    // retry/deadline machinery is visibly in play (a healthy run would
    // look identical, just quieter).
    let faulty = Arc::new(FaultInjectingSource::new(store.clone(), FaultConfig::storm(7)));
    let cap = layout.num_blocks() / 2;
    let pool = Arc::new(BlockPool::with_capacity(cap));
    let engine = FetchEngine::spawn(
        faulty.clone(),
        pool.clone(),
        FetchConfig {
            workers: 4,
            queue_cap: 1024,
            source_timeout: Some(Duration::from_millis(250)),
            ..FetchConfig::default()
        },
    );

    // Pre-load the important blocks (Algorithm 1 line 7), hottest first.
    for b in importance.above_threshold(sigma).take(layout.num_blocks() / 4) {
        engine.prefetch(BlockKey::scalar(b), importance.entropy(b));
    }
    engine.sync();
    println!(
        "pre-loaded {} important blocks ({:.1} MiB resident, cap {cap} blocks)",
        pool.len(),
        pool.bytes_resident() as f64 / (1024.0 * 1024.0),
    );

    // Fly the camera, rendering frames while prefetching the next view.
    let domain = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
    let path = SphericalPath::new(domain, 2.4, 12.0, view_angle).generate(12);
    let tf = TransferFunction::heat(field.min_max());
    let rc = RenderConfig::preview(192, 192);
    let mut demand_loads = 0usize;
    let mut degraded_frames = 0usize;

    for (i, pose) in path.iter().enumerate() {
        // The camera has moved: predictions queued for the previous view are
        // stale. Bump the generation so unstarted ones are cancelled at
        // dequeue instead of wasting disk bandwidth.
        engine.bump_generation();

        // Demand-load whatever the frame needs that prefetch didn't cover,
        // under the frame budget. Demand requests outrank every queued
        // prefetch and coalesce with in-flight reads; blocks that miss the
        // deadline (or exhaust their retries) are reported back and the
        // frame renders without them — their reads stay in flight and land
        // for a later frame. Looking the resident ones up with `get` marks
        // them recently used, so the prefetch that lands while this frame
        // renders evicts older blocks first.
        let missing: Vec<BlockKey> = frame_working_set(pose, &layout, &rc)
            .into_iter()
            .map(BlockKey::scalar)
            .filter(|&k| pool.get(k).is_none())
            .collect();
        let frame = fetch_frame(&engine, &missing, FRAME_BUDGET);
        demand_loads += frame.loaded;
        degraded_frames += usize::from(frame.degraded);

        // Kick off prefetch for the predicted *next* view, ordered by
        // entropy, then render this frame while the workers drain the queue.
        for &b in t_visible.predict(pose) {
            let e = importance.entropy(b);
            if e > sigma {
                engine.prefetch(BlockKey::scalar(b), e);
            }
        }
        let lookup =
            CountingLookup::new(|id: viz_appaware::volume::BlockId| pool.get(BlockKey::scalar(id)));
        let src = BrickedSource::new(&layout, &lookup);
        let img = render(&src, pose, &tf, &rc);
        let frame_path = out_dir.join(format!("frame_{i:02}.ppm"));
        img.save_ppm(&frame_path)?;
        let (_, render_misses) = lookup.counts();
        println!(
            "frame {i:02}: mean luminance {:.4}, pool = {} blocks / {:.1} MiB{} -> {}",
            img.mean_luminance(),
            pool.len(),
            pool.bytes_resident() as f64 / (1024.0 * 1024.0),
            if frame.degraded {
                format!(
                    " [DEGRADED: {} blocks late, {render_misses} bricks absent at render]",
                    frame.missed.len()
                )
            } else {
                String::new()
            },
            frame_path.display()
        );
    }

    let m = engine.shutdown();
    let (hits, misses) = pool.stats();
    println!(
        "\nengine: {} blocks loaded ({} on demand), {} coalesced, \
         {} stale prefetches cancelled, {} dropped, {} errors",
        m.completed, m.demand_completed, m.coalesced, m.cancelled, m.dropped, m.errors
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
        m.deadline_misses,
        m.late_arrivals,
        m.breaker_state,
        m.breaker_opens,
    );
    println!("render-path demand loads: {demand_loads}; pool capped at {cap} blocks");
    println!("pool lookups: {hits} hits / {misses} misses");
    println!("frames written to {}", out_dir.display());
    Ok(())
}
