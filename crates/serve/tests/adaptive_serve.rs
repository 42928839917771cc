//! The serve-side adaptive surface: per-reason shed counters on the wire
//! for every rung of the shed ladder, and the four fates of a predicted
//! key.

use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use viz_fetch::{
    BlockPool, BreakerConfig, FaultInjectingSource, FetchConfig, FetchEngine, InstrumentedSource,
    RetryPolicy,
};
use viz_geom::rng::{for_cases, SplitMix64};
use viz_serve::{ServeConfig, Server, SessionId};
use viz_volume::{BlockId, BlockKey, BlockSource, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

fn store(n: u32) -> Arc<MemBlockStore> {
    let store = MemBlockStore::new();
    for i in 0..n {
        store.insert(key(i), vec![i as f32; 16]);
    }
    Arc::new(store)
}

fn server_over(src: Arc<dyn BlockSource>, fetch: FetchConfig, cfg: ServeConfig) -> Arc<Server> {
    let engine = FetchEngine::spawn(src, Arc::new(BlockPool::new()), fetch);
    Server::new(Arc::new(engine), cfg)
}

fn det_server(cfg: ServeConfig, n: u32) -> Arc<Server> {
    let src = Arc::new(InstrumentedSource::new(store(n), Duration::ZERO));
    server_over(src, FetchConfig { workers: 0, ..FetchConfig::default() }, cfg)
}

fn counter(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("missing {name}")).1
}

/// One counter per [`viz_serve::ShedReason`], in ladder order.
const SHED_COUNTERS: [&str; 5] = [
    "serve_shed_draining",
    "serve_shed_stale_gen",
    "serve_shed_entry_quota",
    "serve_shed_breaker",
    "serve_shed_queue_depth",
];

/// `server` shed exactly `n` prefetch entries, every one attributed to
/// `reason` on the wire, and the per-reason counters sum to the total.
fn assert_sheds(server: &Server, reason: &str, n: u64) {
    let stats = server.wire_counters();
    let total = counter(&stats, "serve_prefetch_shed");
    assert_eq!(total, n, "{reason}: total sheds");
    let mut sum = 0;
    for name in SHED_COUNTERS {
        let v = counter(&stats, name);
        assert_eq!(v, if name == reason { n } else { 0 }, "{reason} rung: {name}");
        sum += v;
    }
    assert_eq!(sum, total, "{reason}: per-reason sheds must sum to serve_prefetch_shed");
}

fn prefetch(keys: std::ops::Range<u32>) -> Vec<(BlockKey, f64)> {
    keys.map(|i| (key(i), 1.0)).collect()
}

/// A source whose reads block until [`Gate::open`]: holds a drain inside
/// its engine sync, with the sessions still registered.
struct Gate {
    inner: Arc<MemBlockStore>,
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl BlockSource for Gate {
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>> {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        drop(open);
        self.inner.read_block(key)
    }
    fn block_bytes(&self, key: BlockKey) -> io::Result<usize> {
        self.inner.block_bytes(key)
    }
}

/// Every rung of the shed ladder fires on a server configured so that it
/// is the first to fail, and each shed reaches the wire under its own
/// reason — nothing shed goes unattributed.
#[test]
fn per_reason_shed_counters_reach_the_wire() {
    let det = FetchConfig { workers: 0, ..FetchConfig::default() };

    // Draining: a drain blocked in its engine sync still has the session
    // registered, so a frame submitted now walks the ladder and sheds at
    // the first rung.
    let gate = Arc::new(Gate { inner: store(8), open: Mutex::new(false), cv: Condvar::new() });
    let server = server_over(gate.clone(), det, ServeConfig::default());
    let id = server.open_session("v").unwrap();
    let held = server.submit(id, 0, vec![key(0)], vec![]).unwrap();
    let drain = {
        let server = server.clone();
        std::thread::spawn(move || server.drain())
    };
    while !server.is_draining() {
        std::thread::yield_now();
    }
    let sub = server.submit(id, 0, vec![], prefetch(1..3)).unwrap();
    assert_eq!(sub.shed(), 2);
    gate.open();
    assert_eq!(drain.join().unwrap().sessions_closed, 1);
    assert!(held.collect_ready(&server)[0].result.is_ok(), "demand flows through a drain");
    assert_sheds(&server, "serve_shed_draining", 2);

    // Stale generation: a Fetch at generation 1 advanced the session past
    // the frame's generation.
    let server = det_server(ServeConfig::default(), 8);
    let id = server.open_session("v").unwrap();
    assert_eq!(server.submit(id, 1, vec![], vec![]).unwrap().shed(), 0);
    assert_eq!(server.submit(id, 0, vec![], prefetch(1..3)).unwrap().shed(), 2);
    assert_sheds(&server, "serve_shed_stale_gen", 2);

    // Entry quota: 5 entries against a quota of 2.
    let server = det_server(ServeConfig { per_client_queue: 2, ..ServeConfig::default() }, 32);
    let id = server.open_session("v").unwrap();
    assert_eq!(server.submit(id, 0, vec![], prefetch(10..15)).unwrap().shed(), 3);
    assert_sheds(&server, "serve_shed_entry_quota", 3);

    // Breaker open: one failed demand read trips a threshold-1 breaker.
    let faulty = Arc::new(FaultInjectingSource::healthy(store(8)));
    faulty.set_outage(Some(io::ErrorKind::Other));
    let fetch = FetchConfig {
        retry: RetryPolicy::none(),
        breaker: BreakerConfig { failure_threshold: 1 },
        ..det
    };
    let server = server_over(faulty, fetch, ServeConfig::default());
    let id = server.open_session("v").unwrap();
    let sub = server.submit(id, 0, vec![key(0)], vec![]).unwrap();
    server.pump();
    server.engine().run_until_idle();
    assert!(sub.collect_ready(&server)[0].result.is_err());
    assert_eq!(server.submit(id, 0, vec![], prefetch(1..3)).unwrap().shed(), 2);
    assert_sheds(&server, "serve_shed_breaker", 2);

    // Queue depth: the combined backlog reaches the shed watermark.
    let server = det_server(ServeConfig { shed_queue_depth: 2, ..ServeConfig::default() }, 32);
    let id = server.open_session("v").unwrap();
    assert_eq!(server.submit(id, 0, vec![], prefetch(10..15)).unwrap().shed(), 3);
    assert_sheds(&server, "serve_shed_queue_depth", 3);
}

/// Submit one random prediction for `id` (now and then under a stale
/// generation) and check that each of its keys has exactly one fate, in
/// the submission and in the server's counters. Returns the keys
/// submitted and, of those, how many were queued (admitted at full or
/// reduced priority).
fn submit_checked(server: &Server, rng: &mut SplitMix64, id: SessionId, keys: u32) -> (u64, u64) {
    let current = server.sessions().iter().find(|v| v.id == id).unwrap().generation;
    let generation = if rng.below(4) == 0 { current.saturating_sub(1) } else { current };
    let prefetch: Vec<(BlockKey, f64)> = (0..rng.index(0..24))
        .map(|_| (key(rng.below(u64::from(keys)) as u32), rng.range(0.1, 1.0)))
        .collect();
    let demand: Vec<BlockKey> =
        (0..rng.index(0..4)).map(|_| key(rng.below(u64::from(keys)) as u32)).collect();
    let n = prefetch.len() as u64;
    let before = server.metrics();
    let sub = server.submit(id, generation, demand, prefetch).unwrap();
    let after = server.metrics();
    let (shed, downgraded, resident) =
        (u64::from(sub.shed()), u64::from(sub.downgraded()), u64::from(sub.resident()));
    let admitted = after.prefetch_admitted - before.prefetch_admitted;
    assert_eq!(after.prefetch_shed - before.prefetch_shed, shed);
    assert_eq!(after.prefetch_downgraded - before.prefetch_downgraded, downgraded);
    assert_eq!(after.prefetch_resident - before.prefetch_resident, resident);
    assert_eq!(n, shed + downgraded + admitted + resident, "submission: every key has one fate");
    (n, downgraded + admitted)
}

/// submitted = shed + downgraded + admitted + resident, for the server
/// and for every session.
fn assert_fates(server: &Server, submitted: &[u64], queued: &[u64]) {
    let m = server.metrics();
    let total: u64 = submitted.iter().sum();
    let fates = m.prefetch_shed + m.prefetch_downgraded + m.prefetch_admitted + m.prefetch_resident;
    assert_eq!(total, fates, "server: every key has one fate");
    let views = server.sessions();
    assert_eq!(views.len(), submitted.len());
    for (c, v) in views.iter().enumerate() {
        assert_eq!(v.prefetch_submitted, submitted[c], "session {c} submitted");
        let fates = v.prefetch_shed + v.prefetch_resident + queued[c];
        assert_eq!(v.prefetch_submitted, fates, "session {c}: every key has one fate");
    }
}

/// Every predicted key is exactly one of admitted, downgraded, shed or
/// resident, whatever the ladder: random quotas and watermarks, random
/// resident subsets, random predictions from several sessions, stale
/// generations, and now and then a submission while the server drains.
#[test]
fn every_predicted_key_has_exactly_one_fate() {
    const KEYS: u32 = 48;
    for_cases(0xfa7e_5eed, 48, |rng, _| {
        let cfg = ServeConfig {
            per_client_queue: rng.index(0..16),
            engine_queue_target: rng.index(0..8),
            shed_queue_depth: rng.index(0..32),
            downgrade_queue_depth: rng.index(0..32),
            ..ServeConfig::default()
        };
        // Key `KEYS` is never predicted, so it is never resident: a demand
        // for it holds a drain in its engine sync once the gate closes.
        let gate =
            Arc::new(Gate { inner: store(KEYS + 1), open: Mutex::new(true), cv: Condvar::new() });
        let det = FetchConfig { workers: 0, ..FetchConfig::default() };
        let server = server_over(gate.clone(), det, cfg);
        for i in 0..KEYS {
            if rng.below(3) == 0 {
                server.engine().pool().insert(key(i), vec![i as f32; 16]);
            }
        }
        let ids: Vec<SessionId> =
            (0..3).map(|c| server.open_session(&format!("c{c}")).unwrap()).collect();
        let (mut submitted, mut queued) = ([0u64; 3], [0u64; 3]);
        for _ in 0..12 {
            let c = rng.index(0..ids.len());
            if rng.below(4) == 0 {
                // An empty Fetch at the next generation advances the session.
                let next =
                    server.sessions().iter().find(|v| v.id == ids[c]).unwrap().generation + 1;
                server.submit(ids[c], next, vec![], vec![]).unwrap();
            }
            let (n, q) = submit_checked(&server, rng, ids[c], KEYS);
            submitted[c] += n;
            queued[c] += q;
            if rng.below(2) == 0 {
                server.pump();
                server.engine().run_until_idle();
            }
        }
        assert_fates(&server, &submitted, &queued);

        if rng.below(3) == 0 {
            *gate.open.lock().unwrap() = false;
            let held = server.submit(ids[0], 0, vec![key(KEYS)], vec![]).unwrap();
            let drain = {
                let server = server.clone();
                std::thread::spawn(move || server.drain())
            };
            while !server.is_draining() {
                std::thread::yield_now();
            }
            let c = rng.index(0..ids.len());
            let (n, q) = submit_checked(&server, rng, ids[c], KEYS);
            assert_eq!(q, 0, "a draining server queues no speculation");
            submitted[c] += n;
            assert_fates(&server, &submitted, &queued);
            gate.open();
            assert_eq!(drain.join().unwrap().sessions_closed, ids.len());
            drop(held);
        }
    });
}
