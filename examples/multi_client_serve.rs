//! Serving many viewers from one machine: three clients explore the same
//! combustion flight at different phases through `viz-serve`, sharing a
//! single fetch engine and resident pool. Duplicate wants coalesce into
//! one source read even across clients; fairness interleaves their
//! demand; prefetch admission sheds under pressure while demand always
//! flows. Each client predicts from the pose it renders (the paper's
//! `T_visible` / `T_important` tables), keeps the blocks it received in
//! its client tier (the viewer's fast memory, 1,024 blocks by default) and
//! asks the server only for the rest of the next view, so a second lap
//! over the same poses asks for no demand at all.
//!
//! Uses the deterministic in-process transport so the run is exactly
//! reproducible; swap [`InProcServer`] for [`viz_appaware::serve::TcpServer`]
//! and `TcpTransport::connect` to serve real sockets instead.
//!
//! Run with: `cargo run --release --example multi_client_serve`

use std::sync::Arc;
use std::time::Duration;
use viz_appaware::core::{
    compute_visibility, ClientFlight, ImportanceTable, RadiusRule, SamplingConfig, VisibleTable,
};
use viz_appaware::fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_appaware::geom::angle::deg_to_rad;
use viz_appaware::geom::{CameraPath, ExplorationDomain, Keyframe, KeyframePath, Vec3};
use viz_appaware::serve::{InProcServer, InProcTransport, ServeClient, ServeConfig, Server};
use viz_appaware::volume::{BlockKey, BrickLayout, DatasetKind, DatasetSpec, MemBlockStore};

fn main() {
    // One modest bricked combustion volume in a memory-backed store, read
    // through an instrumented source so we can count what actually hits
    // "disk".
    let field = DatasetSpec::new(DatasetKind::LiftedRr, 8, 7).materialize(0, 0.0);
    let layout = BrickLayout::with_target_blocks(field.dims, 128);
    let store = MemBlockStore::new();
    for id in layout.block_ids() {
        store.insert(BlockKey::scalar(id), vec![id.0 as f32; 64]);
    }
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::from_micros(50)));
    let engine = FetchEngine::spawn(
        src.clone(),
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 0, ..FetchConfig::default() }, // deterministic: no threads
    );
    let server = Server::new(Arc::new(engine), ServeConfig::default());
    let mut inproc = InProcServer::new(server.clone());

    // Three viewers on the same closed keyframe flight, phase-shifted — the
    // "colleagues inspecting the same feature" deployment.
    let domain = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
    let view_angle = deg_to_rad(15.0);
    let path = KeyframePath::new(
        domain,
        vec![
            Keyframe::new(Vec3::new(0.0, 0.0, 1.0), 3.0),
            Keyframe::new(Vec3::new(1.0, 0.3, 0.4), 2.2).with_weight(2.0),
            Keyframe::new(Vec3::new(-0.6, 0.4, 0.7), 2.8),
        ],
        view_angle,
    )
    .closed();
    let poses = path.generate(12);
    let visible = compute_visibility(&layout, &poses);

    // The tables every viewer predicts from, shared: T_visible over the
    // exploration domain, T_important by block entropy, σ at the median.
    let sampling = SamplingConfig::paper_default(2.0, 3.2, view_angle).with_target_samples(256);
    let tv = Arc::new(VisibleTable::build(sampling, &layout, RadiusRule::Fixed(0.5), None));
    let ti = Arc::new(ImportanceTable::from_field(&layout, &field, 64));
    let sigma = ti.sigma_for_fraction(0.5);

    let mut clients: Vec<_> = (0..3)
        .map(|i| {
            let tables = Some((tv.clone(), ti.clone()));
            let flight = ClientFlight::from_visible(poses.clone(), visible.clone(), tables, sigma)
                .rotated(i * 4);
            (ServeClient::new(inproc.connect()), flight)
        })
        .collect();

    // Open every session. The in-process server advances when ticked.
    for (i, (c, _)) in clients.iter_mut().enumerate() {
        c.send_open(&format!("viewer-{i}")).unwrap();
    }
    inproc.tick();
    for (c, _) in clients.iter_mut() {
        let sid = c.recv_open().unwrap();
        println!("opened session s{sid}");
    }

    let (served, held) = fly(&mut inproc, &mut clients);
    let m = server.metrics();
    let (pool_hits, _) = server.engine().pool().stats();
    println!("served {served} demand blocks across 3 clients");
    println!(
        "{held} of them held by the clients from earlier frames, {} asked of the server",
        m.demand_served
    );
    assert!(held > 0, "consecutive views overlap, so a client holds part of the next one");
    assert_eq!(held + m.demand_served, served as u64, "each block is held or asked, not both");

    println!(
        "source reads: {}; demand pool hits: {pool_hits}; cross-client coalescing saved {} \
         duplicate reads",
        src.reads(),
        server.engine().metrics().cross_tag_coalesced
    );
    println!(
        "prefetch: admitted {}, downgraded {}, shed {}, already resident {}",
        m.prefetch_admitted, m.prefetch_downgraded, m.prefetch_shed, m.prefetch_resident
    );
    // Every predicted key has exactly one fate, summed over the sessions.
    let submitted: u64 = server.sessions().iter().map(|v| v.prefetch_submitted).sum();
    let fates = m.prefetch_admitted + m.prefetch_downgraded + m.prefetch_shed + m.prefetch_resident;
    assert_eq!(submitted, fates, "every prefetch key is admitted, downgraded, shed or resident");

    // A second lap over the same poses: this volume's 128 blocks fit in
    // every viewer's tier, so each demanded block is held and the server
    // is asked for none.
    clients.iter_mut().for_each(|(_, flight)| flight.rewind());
    let (served_again, held_again) = fly(&mut inproc, &mut clients);
    assert_eq!(held_again, served_again as u64, "the second lap holds every demanded block");
    assert_eq!(server.metrics().demand_served, m.demand_served, "and asks for no demand");
    println!("second lap: all {served_again} demand blocks held, none asked of the server");

    let report = server.drain();
    println!(
        "drained: {} sessions closed, {} demand flushed, {} prefetch dropped",
        report.sessions_closed, report.demand_flushed, report.prefetch_dropped
    );
}

/// Replay the flight once: every step each client asks, under the
/// flight's next generation, for its visible set (demand) plus the blocks
/// its tables predict around the pose it renders (speculation for the
/// next step). The `Fetch` carries the generation, and one above the
/// session's advances it. Returns the demand blocks served and how many of them the
/// clients held.
fn fly(
    inproc: &mut InProcServer,
    clients: &mut [(ServeClient<InProcTransport>, ClientFlight)],
) -> (usize, u64) {
    let (mut served, mut held) = (0usize, 0u64);
    for _step in 0..clients[0].1.len() {
        let mut demanded = Vec::new();
        for (c, flight) in clients.iter_mut() {
            let fr = flight.next_frame().expect("flight step");
            demanded.push(fr.demand.clone());
            c.send_fetch(fr.generation, fr.demand, fr.prefetch).unwrap();
        }
        inproc.tick();
        for ((c, _), want) in clients.iter_mut().zip(demanded) {
            let got = c.recv_fetch().unwrap();
            let keys: Vec<BlockKey> = got.blocks.iter().map(|b| b.key).collect();
            assert_eq!(keys, want, "every demanded block arrives, in request order");
            assert!(got.blocks.iter().all(|b| b.result.is_ok()));
            served += got.blocks.len();
            held += u64::from(got.held);
        }
    }
    (served, held)
}
