//! Deterministic multi-client serving: `workers = 0`, every interleaving
//! chosen by the test via the [`InProcServer`] stepper.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_serve::proto::{encode_response, ERR_UNKNOWN_SESSION};
use viz_serve::{
    BlockReply, InProcServer, Response, ServeClient, ServeConfig, Server, SessionId, Transport,
};
use viz_volume::{BlockId, BlockKey, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

/// A deterministic server over an instrumented in-memory store holding
/// blocks `0..n`, each `[i; 16]`.
fn det_server(cfg: ServeConfig, n: u32) -> (Arc<Server>, Arc<InstrumentedSource>) {
    let store = MemBlockStore::new();
    for i in 0..n {
        store.insert(key(i), vec![i as f32; 16]);
    }
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::ZERO));
    let engine = FetchEngine::spawn(
        src.clone(),
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 0, ..FetchConfig::default() },
    );
    (Server::new(Arc::new(engine), cfg), src)
}

/// A transport that keeps a copy of the last frame it received.
struct Tap<T> {
    inner: T,
    last: Arc<Mutex<Vec<u8>>>,
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.inner.send(frame)
    }
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let frame = self.inner.recv()?;
        *self.last.lock().unwrap() = frame.clone();
        Ok(frame)
    }
    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.try_recv()
    }
}

#[test]
fn two_clients_same_key_is_one_source_read() {
    let (server, src) = det_server(ServeConfig::default(), 8);
    let mut inproc = InProcServer::new(server.clone());
    let (frame_a, frame_b) = (Arc::default(), Arc::default());
    let mut a = ServeClient::new(Tap { inner: inproc.connect(), last: Arc::clone(&frame_a) });
    let mut b = ServeClient::new(Tap { inner: inproc.connect(), last: Arc::clone(&frame_b) });

    a.send_open("a").unwrap();
    b.send_open("b").unwrap();
    inproc.tick();
    let sa = a.recv_open().unwrap();
    let sb = b.recv_open().unwrap();
    assert_ne!(sa, sb);

    // Both demand the same key before the engine runs: a tick serves every
    // ready connection before it steps the engine, so the second request
    // must coalesce onto the first's in-flight read.
    a.send_fetch(0, vec![key(3)], vec![]).unwrap();
    b.send_fetch(0, vec![key(3)], vec![]).unwrap();
    inproc.tick();

    let ra = a.recv_fetch().unwrap();
    let rb = b.recv_fetch().unwrap();
    let pa = ra.blocks[0].result.as_ref().unwrap();
    let pb = rb.blocks[0].result.as_ref().unwrap();
    assert_eq!(pa.as_ref(), &vec![3.0; 16], "client A got the payload");
    assert_eq!(pa, pb, "client B got the same payload");

    assert_eq!(src.reads(), 1, "exactly one source read for two clients");
    let m = server.engine().metrics();
    assert_eq!(m.cross_tag_coalesced, 1, "the join was across sessions");
    assert_eq!(server.metrics().demand_served, 2);

    // Both payloads went out on the pool's cached checksum, in frames
    // byte-identical to ones checksummed the long way.
    for (session, frame) in [(sa, &frame_a), (sb, &frame_b)] {
        let unhinted = Response::FetchReply {
            session,
            blocks: vec![BlockReply { key: key(3), result: Ok(pa.clone()), crc: None }],
            shed: 0,
            downgraded: 0,
        };
        assert_eq!(*frame.lock().unwrap(), encode_response(&unhinted));
    }
    let counters = server.wire_counters();
    let count = |name: &str| counters.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!((count("serve_crc_cached"), count("serve_crc_computed")), (2, 0));
}

/// N viewers replay one closed keyframe flight, each rotated to its own
/// phase, against one shared server. The flights carry no tables, so they
/// ask for demand only. Every key any of them wants is read from the
/// source once: the reads equal the flight's distinct keys at every N, and
/// with more than one viewer some of them are joins across sessions.
#[test]
fn phase_rotated_viewers_read_each_distinct_key_once_at_every_n() {
    use std::collections::HashSet;
    use viz_core::{compute_visibility, ClientFlight};
    use viz_geom::{CameraPath, ExplorationDomain, Keyframe, KeyframePath, Vec3};
    use viz_serve::InProcTransport;
    use viz_volume::{BrickLayout, Dims3};

    let layout = BrickLayout::with_target_blocks(Dims3::cube(128), 128);
    let poses = KeyframePath::new(
        ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2),
        vec![
            Keyframe::new(Vec3::new(0.0, 0.0, 1.0), 3.1),
            Keyframe::new(Vec3::new(1.0, 0.3, 0.4), 2.2).with_weight(2.0),
            Keyframe::new(Vec3::new(0.2, 1.0, 0.1), 2.0),
            Keyframe::new(Vec3::new(-0.6, 0.4, 0.7), 3.0).with_weight(1.5),
        ],
        0.26,
    )
    .closed()
    .generate(24);
    let visible = compute_visibility(&layout, &poses);

    for n in [1usize, 4, 16] {
        let (server, src) = det_server(ServeConfig::default(), layout.num_blocks() as u32);
        let mut inproc = InProcServer::new(server.clone());
        let stride = poses.len().div_ceil(n);
        let mut viewers: Vec<(ServeClient<InProcTransport>, ClientFlight)> = (0..n)
            .map(|c| {
                let mut client = ServeClient::new(inproc.connect());
                client.send_open(&format!("viewer-{c}")).unwrap();
                let flight = ClientFlight::from_visible(poses.clone(), visible.clone(), None, 0.0)
                    .rotated(c * stride);
                (client, flight)
            })
            .collect();
        inproc.tick();
        for (client, _) in &mut viewers {
            client.recv_open().unwrap();
        }

        // Lockstep frames: every viewer advances and sends its fetch, and
        // every fetch is decoded before the engine runs, so overlapping
        // wants meet in the engine's queue.
        let mut wanted = HashSet::new();
        let mut demand_errors = 0;
        for _ in 0..poses.len() {
            for (client, flight) in &mut viewers {
                let generation = client.advance().unwrap();
                let fr = flight.next_frame().unwrap();
                wanted.extend(fr.demand.iter().copied());
                wanted.extend(fr.prefetch.iter().map(|(k, _)| *k));
                client.send_fetch(generation, fr.demand, fr.prefetch).unwrap();
            }
            inproc.tick();
            for (client, _) in &mut viewers {
                let got = client.recv_fetch().unwrap();
                demand_errors += got.blocks.iter().filter(|b| b.result.is_err()).count();
            }
        }

        assert_eq!(demand_errors, 0, "N={n}: demand always delivers");
        assert_eq!(src.reads(), wanted.len() as u64, "N={n}: one source read per distinct key");
        assert_eq!(src.reads(), 98, "N={n}: reads do not grow with N");
        assert_eq!(
            server.engine().metrics().cross_tag_coalesced > 0,
            n > 1,
            "N={n}: reads are shared across sessions when there are several"
        );
    }
}

#[test]
fn replies_route_to_the_requesting_session() {
    let (server, _src) = det_server(ServeConfig::default(), 8);
    let mut inproc = InProcServer::new(server);
    let mut a = ServeClient::new(inproc.connect());
    let mut b = ServeClient::new(inproc.connect());

    a.send_open("a").unwrap();
    b.send_open("b").unwrap();
    inproc.tick();
    a.recv_open().unwrap();
    b.recv_open().unwrap();

    a.send_fetch(0, vec![key(1)], vec![]).unwrap();
    b.send_fetch(0, vec![key(2)], vec![]).unwrap();
    inproc.tick();
    assert_eq!(a.recv_fetch().unwrap().blocks[0].result.as_ref().unwrap()[0], 1.0);
    assert_eq!(b.recv_fetch().unwrap().blocks[0].result.as_ref().unwrap()[0], 2.0);

    a.send_stats().unwrap();
    inproc.tick();
    let stats = match a.recv_response().unwrap() {
        viz_serve::Response::StatsReply { counters } => counters,
        other => panic!("wanted StatsReply, got {other:?}"),
    };
    assert_eq!(stats.iter().find(|(n, _)| n == "serve_demand_served").unwrap().1, 2);
    assert_eq!(stats.iter().find(|(n, _)| n == "serve_sessions_opened").unwrap().1, 2);
}

/// The in-process twin of the TCP pipelining test, without
/// sockets: one connection pipelines Open, three Fetches and Stats before
/// a single tick while a second connection's fetch interleaves. Each
/// fetch parks its connection with later requests still buffered, yet
/// every reply comes back in request order.
#[test]
fn pipelined_requests_reply_in_order_on_one_tick() {
    use viz_serve::proto::encode_request;
    use viz_serve::{Request, TraceCtx};

    let (server, _src) = det_server(ServeConfig::default(), 64);
    let mut inproc = InProcServer::new(server.clone());
    let mut a = ServeClient::new(inproc.connect());
    let mut b = ServeClient::new(inproc.connect());
    b.send_open("bystander").unwrap();
    inproc.tick();
    let sb = b.recv_open().unwrap();

    // Session ids are handed out densely, so the pipeliner can name the
    // session its Open will get before the ack arrives.
    let sa = sb + 1;
    a.send_open("pipeliner").unwrap();
    for i in 0..3u32 {
        a.send_raw(&encode_request(&Request::Fetch {
            session: sa,
            generation: 0,
            demand: vec![key(i), key(i + 8)],
            prefetch: vec![(key(40 + i), 0.5)],
            trace: TraceCtx::NONE,
        }))
        .unwrap();
    }
    a.send_stats().unwrap();
    b.send_fetch(0, vec![key(7)], vec![]).unwrap();
    inproc.tick();

    assert_eq!(a.recv_open().unwrap(), sa);
    for i in 0..3u32 {
        let got = a.recv_fetch().unwrap();
        assert_eq!(got.blocks.len(), 2);
        assert_eq!(got.blocks[0].key, key(i), "reply order must match request order");
        assert!(got.blocks.iter().all(|r| r.result.is_ok()));
    }
    let tail = a.recv_response().unwrap();
    assert!(
        matches!(tail, Response::StatsReply { .. }),
        "the pipelined stats probe answers last: {tail:?}"
    );
    let other = b.recv_fetch().unwrap();
    assert_eq!(other.blocks[0].result.as_ref().unwrap()[0], 7.0);
    assert_eq!(server.metrics().demand_served, 7);
}

#[test]
fn unknown_session_is_a_typed_error_not_a_dead_connection() {
    let (server, _src) = det_server(ServeConfig::default(), 4);
    let mut inproc = InProcServer::new(server);
    let mut c = ServeClient::new(inproc.connect());

    c.send_raw(&viz_serve::proto::encode_request(&viz_serve::Request::Fetch {
        session: 999,
        generation: 0,
        demand: vec![key(0)],
        prefetch: vec![],
        trace: viz_serve::TraceCtx::NONE,
    }))
    .unwrap();
    inproc.tick();
    match c.recv_response().unwrap() {
        viz_serve::Response::Error { code, .. } => assert_eq!(code, ERR_UNKNOWN_SESSION),
        other => panic!("wanted Error, got {other:?}"),
    }

    // The connection is still good.
    c.send_open("late").unwrap();
    inproc.tick();
    c.recv_open().unwrap();
}

#[test]
fn demand_is_never_shed_while_prefetch_downgrades_then_sheds() {
    let cfg =
        ServeConfig { downgrade_queue_depth: 2, shed_queue_depth: 4, ..ServeConfig::default() };
    let (server, _src) = det_server(cfg, 64);
    let sid = server.open_session("storm").unwrap();

    let demand: Vec<BlockKey> = (0..8).map(key).collect();
    let prefetch: Vec<(BlockKey, f64)> = (8..16).map(|i| (key(i), 0.9)).collect();
    let sub = server.submit(sid, 0, demand, prefetch).unwrap();

    // Backlog walks 0..8 as entries are admitted: 2 at full priority,
    // 2 downgraded (backlog 2..4), the remaining 4 shed at the watermark.
    assert_eq!(sub.shed(), 4);
    assert_eq!(sub.downgraded(), 2);

    server.pump();
    server.engine().run_until_idle();
    let replies = sub.collect_ready(&server);
    assert_eq!(replies.len(), 8, "every demand key answered despite the storm");
    assert!(replies.iter().all(|r| r.result.is_ok()));

    let m = server.metrics();
    assert_eq!(m.demand_admitted, 8);
    assert_eq!(m.demand_served, 8);
    assert_eq!(m.prefetch_shed, 4);
    assert_eq!(m.prefetch_downgraded, 2);

    // The harshest static ladder: every prefetch quota and watermark at
    // zero. Several sessions keep asking for speculation; none of it is
    // admitted, and every demand key is still admitted and served. A
    // predicted key that an earlier frame's demand made resident is
    // counted as resident before the ladder; every other entry sheds.
    let cfg = ServeConfig {
        per_client_queue: 0,
        engine_queue_target: 0,
        shed_queue_depth: 0,
        downgrade_queue_depth: 0,
        ..ServeConfig::default()
    };
    let (server, _src) = det_server(cfg, 64);
    let sessions: Vec<SessionId> =
        (0..4).map(|c| server.open_session(&format!("c{c}")).unwrap()).collect();
    let (mut demand_keys, mut prefetch_keys) = (0u64, 0u64);
    let mut resident = std::collections::HashSet::new();
    for frame in 0..6u32 {
        let subs: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(c, &sid)| {
                let base = (frame * 4 + c as u32 * 8) % 48;
                let demand: Vec<BlockKey> = (base..base + 4).map(key).collect();
                let prefetch: Vec<(BlockKey, f64)> =
                    (base + 4..base + 12).map(|i| (key(i), 1.0)).collect();
                demand_keys += demand.len() as u64;
                prefetch_keys += prefetch.len() as u64;
                let held = prefetch.iter().filter(|(k, _)| resident.contains(k)).count() as u32;
                let sub = server.submit(sid, u64::from(frame), demand, prefetch).unwrap();
                assert_eq!(sub.resident(), held, "earlier frames made these resident");
                assert_eq!(sub.shed(), 8 - held, "every other prefetch entry sheds");
                assert_eq!(sub.downgraded(), 0);
                sub
            })
            .collect();
        server.pump();
        server.engine().run_until_idle();
        for sub in subs {
            let replies = sub.collect_ready(&server);
            assert_eq!(replies.len(), 4);
            assert!(replies.iter().all(|r| r.result.is_ok()), "demand never sheds or fails");
            resident.extend(replies.iter().map(|r| r.key));
        }
    }
    let m = server.metrics();
    assert_eq!(m.demand_admitted, demand_keys);
    assert_eq!(m.demand_served, demand_keys);
    assert_eq!(m.demand_errors, 0);
    assert_eq!((m.prefetch_admitted, m.prefetch_downgraded), (0, 0));
    assert_eq!(m.prefetch_shed + m.prefetch_resident, prefetch_keys);
}

/// A predicted key the pool already holds costs no quota: it is counted
/// as resident and dropped before the ladder, so the whole entry quota
/// goes to the keys that still need a read.
#[test]
fn resident_predictions_bypass_the_ladder() {
    let cfg = ServeConfig { per_client_queue: 4, ..ServeConfig::default() };
    let (server, _src) = det_server(cfg, 64);
    let sid = server.open_session("v").unwrap();
    let sub = server.submit(sid, 0, (0..8).map(key).collect(), vec![]).unwrap();
    server.pump();
    server.engine().run_until_idle();
    assert!(sub.collect_ready(&server).iter().all(|r| r.result.is_ok()));
    let completed = server.engine().metrics().completed;

    let sub = server.submit(sid, 0, vec![], (0..12).map(|i| (key(i), 1.0)).collect()).unwrap();
    assert_eq!(sub.resident(), 8, "keys 0..8 are resident");
    assert_eq!((sub.shed(), sub.downgraded()), (0, 0));
    let m = server.metrics();
    assert_eq!((m.prefetch_admitted, m.prefetch_resident, m.prefetch_shed), (4, 8, 0));
    let view = &server.sessions()[0];
    assert_eq!((view.prefetch_submitted, view.prefetch_resident), (12, 8));

    server.pump();
    server.engine().run_until_idle();
    assert_eq!(server.engine().metrics().completed, completed + 4, "keys 8..12 were read");
    assert_eq!(server.engine().pool().len(), 12);
}

#[test]
fn per_client_quotas_bound_a_greedy_session() {
    let cfg = ServeConfig { per_client_queue: 4, ..ServeConfig::default() };
    let (server, _src) = det_server(cfg, 64);
    let greedy = server.open_session("greedy").unwrap();
    let modest = server.open_session("modest").unwrap();

    let sub = server.submit(greedy, 0, vec![], (0..10).map(|i| (key(i), 1.0)).collect()).unwrap();
    assert_eq!(sub.shed(), 6, "entries past the per-client queue quota shed");

    // The quota is per client: the other session still admits freely.
    let sub2 = server.submit(modest, 0, vec![], (20..23).map(|i| (key(i), 1.0)).collect()).unwrap();
    assert_eq!(sub2.shed(), 0);

    let views = server.sessions();
    assert_eq!(views[0].prefetch_shed, 6);
    assert_eq!(views[1].prefetch_shed, 0);
}

#[test]
fn advance_purges_stale_prefetch_and_sheds_stale_generations() {
    let (server, src) = det_server(ServeConfig::default(), 64);
    let sid = server.open_session("stepper").unwrap();

    // Queue speculation under generation 0, then advance before pumping
    // with a Fetch at generation 1: the queued entries must never reach
    // the source.
    let sub = server.submit(sid, 0, vec![], vec![(key(1), 1.0), (key(2), 1.0)]).unwrap();
    assert_eq!(sub.shed(), 0);
    server.submit(sid, 1, vec![], vec![]).unwrap();
    assert_eq!(server.sessions()[0].generation, 1);
    server.pump();
    server.engine().run_until_idle();
    assert_eq!(src.reads(), 0, "purged prefetch never touched the source");

    // A straggler still submitting under generation 0 sheds...
    let stale = server.submit(sid, 0, vec![], vec![(key(3), 1.0)]).unwrap();
    assert_eq!(stale.shed(), 1);
    // ...while the current generation admits.
    let fresh = server.submit(sid, 1, vec![], vec![(key(4), 1.0)]).unwrap();
    assert_eq!(fresh.shed(), 0);
    server.pump();
    server.engine().run_until_idle();
    assert!(server.engine().pool().contains(key(4)));
    assert!(!server.engine().pool().contains(key(3)));
}

#[test]
fn a_fetch_below_the_session_generation_does_not_lower_it() {
    let (server, src) = det_server(ServeConfig::default(), 64);
    let sid = server.open_session("stepper").unwrap();
    let generation = || server.sessions()[0].generation;

    server.submit(sid, 3, vec![], vec![]).unwrap();
    assert_eq!(generation(), 3);
    // A straggler from generation 1 sheds its prefetch, keeps its demand,
    // and leaves the session at 3.
    let stale = server.submit(sid, 1, vec![key(5)], vec![(key(6), 1.0)]).unwrap();
    assert_eq!(stale.shed(), 1);
    assert_eq!(generation(), 3, "the session's generation never falls");
    // So a Fetch at the current generation still admits.
    let fresh = server.submit(sid, 3, vec![], vec![(key(7), 1.0)]).unwrap();
    assert_eq!(fresh.shed(), 0);
    server.pump();
    server.engine().run_until_idle();
    assert!(stale.collect_ready(&server)[0].result.is_ok(), "stale demand still delivers");
    assert!(server.engine().pool().contains(key(7)));
    assert!(!server.engine().pool().contains(key(6)));
    assert_eq!(src.reads(), 2);
}

#[test]
fn drain_flushes_demand_drops_prefetch_and_refuses_new_work() {
    let (server, src) = det_server(ServeConfig::default(), 64);
    let a = server.open_session("a").unwrap();
    let b = server.open_session("b").unwrap();

    let sub_a = server.submit(a, 0, vec![key(0), key(1)], vec![(key(10), 1.0)]).unwrap();
    let sub_b = server.submit(b, 0, vec![key(2)], vec![(key(11), 1.0), (key(12), 0.5)]).unwrap();

    let report = server.drain();
    assert_eq!(report.sessions_closed, 2);
    assert_eq!(report.demand_flushed, 3, "all queued demand reached the engine");
    assert_eq!(report.prefetch_dropped, 3, "queued speculation was discarded");
    assert_eq!(src.reads(), 3, "drain ran the engine to idle on demand only");

    let ra = sub_a.collect_ready(&server);
    let rb = sub_b.collect_ready(&server);
    assert!(ra.iter().all(|r| r.result.is_ok()), "flushed demand still delivers");
    assert!(rb[0].result.is_ok());

    assert_eq!(server.open_session("late"), Err(viz_serve::ServeError::Draining));
    assert_eq!(server.sessions().len(), 0);
}

#[test]
fn session_cap_refuses_the_overflow_open() {
    let cfg = ServeConfig { max_sessions: 2, ..ServeConfig::default() };
    let (server, _src) = det_server(cfg, 4);
    server.open_session("a").unwrap();
    server.open_session("b").unwrap();
    assert_eq!(server.open_session("c"), Err(viz_serve::ServeError::TooManySessions));
    // Closing one frees a slot.
    let views = server.sessions();
    assert!(server.close_session(views[0].id));
    server.open_session("c").unwrap();
}

#[test]
fn disconnecting_a_client_closes_its_sessions() {
    let (server, _src) = det_server(ServeConfig::default(), 4);
    let mut inproc = InProcServer::new(server.clone());
    let mut a = ServeClient::new(inproc.connect());
    a.send_open("ephemeral").unwrap();
    inproc.tick();
    a.recv_open().unwrap();
    assert_eq!(server.sessions().len(), 1);

    drop(a);
    inproc.tick();
    assert_eq!(server.sessions().len(), 0, "owned session closed on disconnect");
    assert_eq!(server.metrics().sessions_closed, 1);
}
