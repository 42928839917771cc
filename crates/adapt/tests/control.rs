//! Closed-loop integration: a [`ControlPlane`] over a real deterministic
//! server.
//!
//! The ladder tests pin the loop's *direction* rather than wall-clock
//! values: with a 1 ns SLO every measured demand RTT is an overload, with
//! a 10 s SLO every RTT is headroom — both verdicts hold on any machine.
//! Throughout, the safety invariant is asserted the hard way: every
//! demand key of every frame comes back `Ok`, whatever the ladder does.

use std::sync::Arc;
use std::time::Duration;
use viz_adapt::{ControlPlane, ControlPlaneConfig};
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_serve::{ServeConfig, Server};
use viz_volume::{BlockId, BlockKey, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

fn det_server(n: u32) -> Arc<Server> {
    let store = MemBlockStore::new();
    for i in 0..n {
        store.insert(key(i), vec![i as f32; 16]);
    }
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::ZERO));
    let engine = FetchEngine::spawn(
        src,
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 0, ..FetchConfig::default() },
    );
    Server::new(Arc::new(engine), ServeConfig::default())
}

fn counter(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("missing {name}")).1
}

/// One frame: 2 demand keys + a spread of prefetch, engine stepped to
/// idle, all demand replies asserted `Ok`.
fn frame(server: &Arc<Server>, id: viz_serve::SessionId, base: u32) {
    let demand = vec![key(base % 64), key((base + 1) % 64)];
    let prefetch: Vec<(BlockKey, f64)> =
        (2..10).map(|j| (key((base + j) % 64), 1.0 / f64::from(j))).collect();
    let sub = server.submit(id, 0, demand, prefetch).unwrap();
    server.pump();
    server.engine().run_until_idle();
    for reply in sub.collect_ready(server) {
        assert!(reply.result.is_ok(), "demand must always land: {reply:?}");
    }
}

#[test]
fn overload_tightens_the_ladder_and_demand_never_sheds() {
    let server = det_server(64);
    let id = server.open_session("v").unwrap();
    let base = server.ladder();
    // A 1 ns SLO makes every real RTT read as overload.
    let mut cfg = ControlPlaneConfig::for_slo(1);
    cfg.gauge_prefix = "t_over_".to_string();
    let mut plane = ControlPlane::new(server.clone(), cfg);

    let mut last = None;
    for i in 0..12 {
        frame(&server, id, i * 3);
        last = Some(plane.tick());
    }
    let last = last.unwrap();
    assert!(last.scale < 1.0, "overload must tighten, scale = {}", last.scale);
    assert!(last.ladder.per_client_queue < base.per_client_queue);
    assert!(last.ladder.shed_queue_depth < base.shed_queue_depth);
    assert_eq!(server.ladder(), last.ladder, "plane actuates the live server");

    // The safety invariant, from the counters' point of view: every demand
    // key admitted and none errored, no matter how tight the ladder got.
    let stats = server.wire_counters();
    assert_eq!(counter(&stats, "serve_demand_admitted"), 24);
    assert_eq!(counter(&stats, "serve_demand_errors"), 0);
}

#[test]
fn headroom_reopens_the_ladder() {
    let server = det_server(64);
    let id = server.open_session("v").unwrap();
    let base = server.ladder();
    // A 10 s SLO makes every real RTT read as headroom.
    let mut cfg = ControlPlaneConfig::for_slo(10_000_000_000);
    cfg.gauge_prefix = "t_head_".to_string();
    let mut plane = ControlPlane::new(server.clone(), cfg);

    let mut last = None;
    for i in 0..12 {
        frame(&server, id, i * 3);
        last = Some(plane.tick());
    }
    let last = last.unwrap();
    assert!(last.scale > 1.0, "headroom must reopen, scale = {}", last.scale);
    assert!(last.ladder.per_client_queue > base.per_client_queue);
}

#[test]
fn interval_sheds_are_attributed_by_reason() {
    let server = det_server(64);
    let id = server.open_session("v").unwrap();
    let mut cfg = ControlPlaneConfig::for_slo(1_000_000);
    cfg.gauge_prefix = "t_shed_".to_string();
    let mut plane = ControlPlane::new(server.clone(), cfg);
    plane.tick(); // baseline interval

    let mut ladder = server.ladder();
    ladder.per_client_queue = 1;
    server.set_ladder(ladder);
    let sub = server.submit(id, 0, vec![], (0..4).map(|i| (key(i), 1.0)).collect()).unwrap();
    assert_eq!(sub.shed(), 3);

    let report = plane.tick();
    assert_eq!(report.signals.prefetch_shed, 3);
    assert_eq!(
        report.signals.shed_by_reason,
        vec![("serve_shed_entry_quota".to_string(), 3)],
        "the interval's sheds must be attributed to the quota rung"
    );
}
