//! The reply checksum hint end to end: a resident block's CRC rides from
//! the pool to the wire encoder, `Stats` says whether it did, and a hint
//! that does not match the bytes never gets a payload past the client.

use std::sync::Arc;
use std::time::Duration;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_serve::proto::{decode_request, decode_response, encode_response, ProtoError};
use viz_serve::{
    inproc_pair, BlockReply, ClientError, ClientTier, InProcServer, Request, Response, ServeClient,
    ServeConfig, Server, SessionId, Transport,
};
use viz_volume::checksum::crc32_f32s;
use viz_volume::{BlockId, BlockKey, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

fn counter(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no counter {name}")).1
}

fn stats(inproc: &mut InProcServer, c: &mut ServeClient<impl Transport>) -> Vec<(String, u64)> {
    c.send_stats().unwrap();
    inproc.tick();
    match c.recv_response().unwrap() {
        Response::StatsReply { counters } => counters,
        other => panic!("wanted StatsReply, got {other:?}"),
    }
}

/// The shape of the `warm-shared` benchmark workload: a resident timestep,
/// two viewers half a lap apart, no prefetch — every served payload's CRC
/// must come from the pool, none from a pass at encode.
#[test]
fn resident_blocks_are_served_without_a_checksum_pass() {
    const BLOCKS: u32 = 32;
    let store = MemBlockStore::new();
    // Exactly the timestep fits: the last check below evicts by inserting
    // one block more.
    let pool = Arc::new(BlockPool::with_capacity(BLOCKS as usize));
    for i in 0..BLOCKS {
        store.insert(key(i), vec![i as f32; 64]);
        pool.insert(key(i), vec![i as f32; 64]);
    }
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::ZERO));
    let engine = FetchEngine::spawn(
        src.clone(),
        pool.clone(),
        FetchConfig { workers: 0, ..FetchConfig::default() },
    );
    let server = Server::new(Arc::new(engine), ServeConfig::default());
    let mut inproc = InProcServer::new(server);
    // Each viewer's tier holds its last frame only, so a window that wraps
    // round to blocks it saw a lap ago still asks for them.
    let mut a = ServeClient::new(inproc.connect()).with_tier(ClientTier::with_capacity(0));
    let mut b = ServeClient::new(inproc.connect()).with_tier(ClientTier::with_capacity(0));
    a.send_open("a").unwrap();
    b.send_open("b").unwrap();
    inproc.tick();
    let sa = a.recv_open().unwrap();
    b.recv_open().unwrap();

    // Each window moves two blocks, so after its first frame a viewer
    // holds six of its eight and asks the server for two.
    let window = |start: u32| (0..8).map(|i| key((start + i) % BLOCKS)).collect::<Vec<_>>();
    let mut received = [0; 2];
    for frame in 0..16 {
        a.send_fetch(0, window(frame * 2), vec![]).unwrap();
        b.send_fetch(0, window(frame * 2 + BLOCKS / 2), vec![]).unwrap();
        inproc.tick();
        for (v, c, start) in [(0, &mut a, frame * 2), (1, &mut b, frame * 2 + BLOCKS / 2)] {
            let got = c.recv_fetch().unwrap();
            assert_eq!(got.blocks.len(), 8);
            assert_eq!(got.held, if frame == 0 { 0 } else { 6 });
            for (i, reply) in got.blocks.iter().enumerate() {
                let want = ((start + i as u32) % BLOCKS) as f32;
                assert_eq!(reply.result.as_ref().unwrap().as_slice(), &[want; 64]);
                received[v] += 1;
            }
        }
    }
    assert_eq!(received, [16 * 8; 2], "every viewer got every demanded block");
    assert_eq!(src.reads(), 0, "the timestep was resident");
    let s = stats(&mut inproc, &mut a);
    assert_eq!(counter(&s, "serve_demand_served"), 76, "8 + 15 x 2 asked a viewer");
    assert_eq!(counter(&s, "serve_crc_cached"), counter(&s, "serve_demand_served"));
    assert_eq!(counter(&s, "serve_crc_computed"), 0);

    // A block evicted between its ticket resolving and the reply being
    // built has no checksum to lend: the encoder takes the pass, the
    // counter says so, and the client still gets the right bytes. A tick
    // has no such gap, so the request is driven by hand through the same
    // server: admit, pump, run the engine, evict, then collect and encode.
    // The full pool evicts key 5 once every other resident key is used
    // after it and one block more is inserted.
    let server = inproc.server().clone();
    let sub = server.submit(SessionId(sa), 0, vec![key(5), key(6)], vec![]).unwrap();
    server.pump();
    server.engine().run_until_idle();
    for i in (0..BLOCKS).filter(|&i| i != 5) {
        assert!(pool.get(key(i)).is_some());
    }
    pool.insert(key(BLOCKS), vec![0.0; 64]);
    assert!(!pool.contains(key(5)) && pool.contains(key(6)));
    assert_eq!(pool.len(), BLOCKS as usize);
    let blocks = sub.collect_ready(&server);
    let frame =
        encode_response(&Response::FetchReply { session: sa, blocks, shed: 0, downgraded: 0 });
    let got = match decode_response(&frame).unwrap() {
        Response::FetchReply { blocks, .. } => blocks,
        other => panic!("wanted FetchReply, got {other:?}"),
    };
    assert_eq!(got[0].result.as_ref().unwrap().as_slice(), &[5.0; 64]);
    assert_eq!(got[1].result.as_ref().unwrap().as_slice(), &[6.0; 64]);
    let s = stats(&mut inproc, &mut a);
    assert_eq!(counter(&s, "serve_crc_computed"), 1);
    assert_eq!(counter(&s, "serve_crc_cached"), 76 + 1);
}

/// A server end played by hand, so the reply can carry a hint no pool
/// would give: the CRC of other bytes.
#[test]
fn wrong_hint_fails_closed_at_the_client() {
    let (client_end, mut server_end) = inproc_pair();
    let mut client = ServeClient::new(client_end);
    client.send_open("v").unwrap();
    server_end.recv().unwrap();
    server_end.send(&encode_response(&Response::OpenAck { session: 1 })).unwrap();
    client.recv_open().unwrap();

    let payload = Arc::new(vec![0.25f32, -8.0, 3.5, 1e-9, 42.0]);
    let reply = |k, crc| Response::FetchReply {
        session: 1,
        blocks: vec![BlockReply { key: k, result: Ok(payload.clone()), crc }],
        shed: 0,
        downgraded: 0,
    };
    // Each fetch asks for a key the client tier does not hold yet: a held
    // key is answered locally and nothing reaches the server end.
    let mut serve_one = |k, frame: Vec<u8>| {
        client.send_fetch(0, vec![k], vec![]).unwrap();
        let req = decode_request(&server_end.recv().unwrap()).unwrap();
        assert!(matches!(req, Request::Fetch { .. }));
        server_end.send(&frame).unwrap();
        client.recv_fetch()
    };

    // The true hint and no hint are the same frame, and it is accepted.
    let good = encode_response(&reply(key(0), Some(crc32_f32s(&payload))));
    assert_eq!(good, encode_response(&reply(key(0), None)));
    let got = serve_one(key(0), good).unwrap();
    assert_eq!(got.blocks[0].result.as_ref().unwrap(), &payload);

    let stale = Some(crc32_f32s(&[0.25f32, -8.0, 3.5, 1e-9, 43.0]));
    if cfg!(debug_assertions) {
        // Debug builds cross-check every joined CRC against a full pass.
        let caught = std::panic::catch_unwind(|| encode_response(&reply(key(1), stale)));
        assert!(caught.is_err(), "the encoder's cross-check must trip");
    } else {
        match serve_one(key(1), encode_response(&reply(key(1), stale))) {
            Err(ClientError::Proto(ProtoError::BadCrc { .. })) => {}
            other => panic!("wanted BadCrc and no payload, got {other:?}"),
        }
    }
}
