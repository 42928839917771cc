//! Localhost TCP end-to-end: real sockets, real worker threads, many
//! concurrent clients against one shared engine, through the
//! thread-per-connection [`TcpServer`] — replies, coalescing, metrics,
//! demand deadlines, shutdown, and pipelined requests on one connection.

use std::sync::Arc;
use std::time::Duration;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_serve::proto::errkind_code;
use viz_serve::{ServeClient, ServeConfig, Server, TcpServer, TcpTransport};
use viz_volume::{BlockId, BlockKey, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

fn tcp_server(workers: usize, n: u32) -> (TcpServer, Arc<InstrumentedSource>) {
    let store = MemBlockStore::new();
    for i in 0..n {
        store.insert(key(i), vec![i as f32; 8]);
    }
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::from_micros(200)));
    let engine = FetchEngine::spawn(
        src.clone(),
        Arc::new(BlockPool::new()),
        FetchConfig { workers, ..FetchConfig::default() },
    );
    let server = Server::new(Arc::new(engine), ServeConfig::default());
    (TcpServer::bind(server, "127.0.0.1:0").unwrap(), src)
}

#[test]
fn four_tcp_clients_share_one_engine() {
    let (tcp, src) = tcp_server(2, 32);
    let addr = tcp.local_addr().to_string();

    let handles: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::new(TcpTransport::connect(&addr).expect("connect"));
                client.open(&format!("client-{c}")).expect("open");
                // Every client wants blocks 0..4 (shared) plus one of its
                // own — cross-client coalescing territory.
                let demand: Vec<BlockKey> = (0..4).map(key).chain([key(10 + c)]).collect();
                let got = client.fetch(demand.clone(), vec![(key(20 + c), 0.8)]).expect("fetch");
                assert_eq!(got.blocks.len(), 5);
                for (i, reply) in got.blocks.iter().enumerate() {
                    assert_eq!(reply.key, demand[i]);
                    let data = reply.result.as_ref().expect("payload");
                    assert_eq!(data[0], reply.key.block.0 as f32);
                }
                assert_eq!(got.shed, 0);
                let generation = client.advance().expect("advance");
                assert_eq!(generation, 1);
                client.close().expect("close");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // 4 clients × 5 demand + 4 prefetch = 24 wants over at most 12
    // distinct keys; the shared engine must not have read more than the
    // distinct set (demand 0..4 and 10..14, prefetch 20..24).
    assert!(src.reads() <= 13, "shared engine read {} times", src.reads());

    let server = tcp.server().clone();
    let m = server.metrics();
    assert_eq!(m.demand_served, 20);
    assert_eq!(m.sessions_opened, 4);
    assert_eq!(m.sessions_closed, 4);

    let report = tcp.shutdown();
    assert_eq!(report.sessions_closed, 0, "clients closed their own sessions");
}

#[test]
fn stats_round_trip_over_tcp() {
    let (tcp, _src) = tcp_server(1, 8);
    let addr = tcp.local_addr().to_string();

    let mut client = ServeClient::new(TcpTransport::connect(&addr).unwrap());
    client.open("stats").unwrap();
    client.fetch(vec![key(1), key(2)], vec![]).unwrap();
    let stats = client.stats().unwrap();
    let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(get("serve_demand_served"), Some(2));
    assert_eq!(get("serve_sessions_opened"), Some(1));
    assert!(get("fetch_completed").unwrap_or(0) >= 2, "engine counters ride along");
    assert!(get("pool_resident_blocks").unwrap_or(0) >= 2, "pool gauges ride along");

    drop(client);
    tcp.shutdown();
}

#[test]
fn shutdown_forces_out_a_lingering_client() {
    let (tcp, _src) = tcp_server(1, 8);
    let addr = tcp.local_addr().to_string();

    let mut client = ServeClient::new(TcpTransport::connect(&addr).unwrap());
    client.open("lingerer").unwrap();
    client.fetch(vec![key(3)], vec![]).unwrap();
    assert_eq!(tcp.server().sessions().len(), 1);

    // The client neither closes nor disconnects; shutdown must not hang:
    // it forces the connection out, and the handler closes the orphaned
    // session on its way down.
    let server = tcp.server().clone();
    tcp.shutdown();
    assert_eq!(server.sessions().len(), 0);
    assert_eq!(server.metrics().sessions_closed, 1);

    // The socket is dead afterwards.
    assert!(client.stats().is_err());
}

/// The demand deadline bounds a whole frame, not each key: an 8-key frame
/// over a source far slower than the deadline replies `TimedOut` for every
/// key within one deadline, which the handler's blocking wait enforces
/// against the frame's admission time. The abandoned reads still land
/// in the pool afterwards, so the retry is all pool hits.
#[test]
fn demand_deadline_bounds_a_frame_of_slow_keys() {
    const KEYS: u32 = 8;
    let store = MemBlockStore::new();
    for i in 0..KEYS {
        store.insert(key(i), vec![0.5 + i as f32; 8]);
    }
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::from_millis(300)));
    let engine = FetchEngine::spawn(
        src,
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 2, ..FetchConfig::default() },
    );
    let server = Server::new(
        Arc::new(engine),
        ServeConfig { demand_deadline: Some(Duration::from_millis(40)), ..ServeConfig::default() },
    );
    let tcp = TcpServer::bind(server, "127.0.0.1:0").unwrap();

    let mut client =
        ServeClient::new(TcpTransport::connect(&tcp.local_addr().to_string()).unwrap());
    client.open("impatient").unwrap();
    let demand: Vec<BlockKey> = (0..KEYS).map(key).collect();
    let t0 = std::time::Instant::now();
    let got = client.fetch(demand.clone(), vec![]).unwrap();
    let waited = t0.elapsed();
    let timed_out = errkind_code(std::io::ErrorKind::TimedOut);
    assert_eq!(got.blocks.len(), KEYS as usize);
    for reply in &got.blocks {
        assert_eq!(
            reply.result,
            Err(timed_out),
            "{:?}: a 300 ms read cannot beat 40 ms",
            reply.key
        );
    }
    assert!(
        waited < Duration::from_millis(200),
        "deadline reply took {waited:?}; the deadline is per frame, not per key"
    );
    assert_eq!(tcp.server().metrics().deadline_misses, u64::from(KEYS));
    // The reads were abandoned, not cancelled: once they land, every block
    // is resident and the retry is all pool hits.
    let pool = tcp.server().engine().pool().clone();
    let landing = std::time::Instant::now();
    while !demand.iter().all(|&k| pool.contains(k)) {
        assert!(landing.elapsed() < Duration::from_secs(30), "abandoned reads never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let again = client.fetch(demand, vec![]).unwrap();
    for (i, reply) in again.blocks.iter().enumerate() {
        assert_eq!(reply.result.as_ref().unwrap()[0], 0.5 + i as f32);
    }
    client.close().unwrap();
    tcp.shutdown();
}

/// One connection pipelines several requests; replies come back in
/// request order even though each fetch parks its handler mid-stream, and
/// a second connection's traffic is served meanwhile.
#[test]
fn tcp_preserves_per_connection_order_under_pipelining() {
    let (tcp, _src) = tcp_server(2, 64);
    let addr = tcp.local_addr().to_string();

    let mut a = ServeClient::new(TcpTransport::connect(&addr).unwrap());
    let mut b = ServeClient::new(TcpTransport::connect(&addr).unwrap());
    a.open("pipeliner").unwrap();
    b.open("bystander").unwrap();

    // Queue three fetches back-to-back without reading any reply, then a
    // stats probe: four responses must arrive, in request order.
    for i in 0..3u32 {
        a.send_fetch(0, vec![key(i), key(i + 8)], vec![(key(40 + i), 0.5)]).unwrap();
    }
    a.send_stats().unwrap();
    let other = b.fetch(vec![key(7)], vec![]).unwrap();
    assert_eq!(other.blocks.len(), 1);
    for i in 0..3u32 {
        let got = a.recv_fetch().unwrap();
        assert_eq!(got.blocks.len(), 2);
        assert_eq!(got.blocks[0].key, key(i), "reply order must match request order");
        assert!(got.blocks.iter().all(|r| r.result.is_ok()));
    }
    let tail = a.recv_response().unwrap();
    assert!(
        matches!(tail, viz_serve::Response::StatsReply { .. }),
        "the pipelined stats probe answers last: {tail:?}"
    );
    let m = tcp.server().metrics();
    assert_eq!(m.demand_served, 7);
    tcp.shutdown();
}

/// Three pipelined requests for replies of 8 MiB each, sent before any
/// reply is read — more than loopback socket buffers hold, so the handler
/// blocks part-way through writing the first reply while the other
/// requests wait unread behind it. Every payload must arrive whole and in
/// order.
#[test]
fn tcp_delivers_large_pipelined_replies_intact() {
    const WORDS: usize = 256 << 10;
    let payload =
        |i: u32| -> Vec<f32> { (0..WORDS).map(|j| (i * 1000) as f32 + (j % 977) as f32).collect() };
    let store = MemBlockStore::new();
    for i in 0..8 {
        store.insert(key(i), payload(i));
    }
    let engine = FetchEngine::spawn(
        Arc::new(store),
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 1, ..FetchConfig::default() },
    );
    let server = Server::new(Arc::new(engine), ServeConfig::default());
    let tcp = TcpServer::bind(server, "127.0.0.1:0").unwrap();

    let mut client =
        ServeClient::new(TcpTransport::connect(&tcp.local_addr().to_string()).unwrap());
    client.open("bulk").unwrap();
    let orders: [Vec<u32>; 3] =
        [(0..8).collect(), (0..8).rev().collect(), vec![3, 1, 4, 1, 5, 2, 6, 5]];
    for order in &orders {
        client.send_fetch(0, order.iter().map(|&i| key(i)).collect(), vec![]).unwrap();
    }
    for order in &orders {
        let got = client.recv_fetch().unwrap();
        assert_eq!(got.blocks.len(), order.len());
        for (reply, &i) in got.blocks.iter().zip(order) {
            assert_eq!(reply.key, key(i));
            assert!(reply.result.as_ref().unwrap()[..] == payload(i)[..], "block {i} differs");
        }
    }
    client.close().unwrap();
    tcp.shutdown();
}
