//! Cross-node trace propagation and the flight recorder, end to end on
//! the deterministic in-process cluster: a router frame's trace context
//! rides the wire to every owner node, coalesced sessions join into one
//! connected span tree, the router's scrape plane merges per-node
//! drains into one clock-aligned Perfetto document, and a chaos-injected
//! crash cuts a reconstructable flight dump with zero demand errors.

use std::sync::Mutex;
use viz_cluster::chaos::run_plan;
use viz_cluster::{
    read_flight_dump, ChaosAction, ChaosEvent, ChaosPlan, NodeId, ShardStrategy, TestCluster,
};
use viz_serve::ClientTier;
use viz_telemetry::{collect, json, EventKind};
use viz_volume::{BlockId, BlockKey};

/// Serializes the tests that enable + drain the global telemetry trace.
static TRACE: Mutex<()> = Mutex::new(());

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

fn seed(cluster: &TestCluster, n: u32) -> Vec<BlockKey> {
    (0..n)
        .map(|i| {
            let k = key(i);
            cluster.insert(k, vec![i as f32; 16]);
            k
        })
        .collect()
}

/// A key owned by `node` under the cluster's current map.
fn owned_key(cluster: &TestCluster, keys: &[BlockKey], node: NodeId) -> BlockKey {
    *keys
        .iter()
        .find(|&&k| cluster.map().owner(k) == Some(node))
        .expect("some key lands on the node")
}

/// A traced router frame over keys owned by both nodes: the frame's
/// trace id rides each node's batch, so the serve span and the storage
/// reads on both nodes carry it.
#[test]
fn wire_trace_ctx_attributes_events_on_both_nodes() {
    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    viz_telemetry::set_enabled(true);
    let _ = viz_telemetry::drain();

    let cluster = TestCluster::new(2, ShardStrategy::Ring);
    let keys = seed(&cluster, 32);
    let demand = vec![owned_key(&cluster, &keys, NodeId(0)), owned_key(&cluster, &keys, NodeId(1))];

    let mut router = cluster.router("viewer");
    let reply = router.fetch(demand, vec![]);
    assert!(reply.blocks.iter().all(|b| b.result.is_ok()));
    assert_eq!(reply.rounds, 1);
    for n in 0..2 {
        assert_eq!(cluster.reads(NodeId(n)), 1, "node {n} read the key it owns");
    }

    let trace = viz_telemetry::drain();
    let root = trace
        .events
        .iter()
        .find(|e| e.kind == EventKind::RouterFetch && e.node == 0)
        .expect("the router recorded its frame span");
    let t = root.key;
    assert_eq!(root.trace, t, "the frame span carries the trace id it minted");
    // Telemetry stamps node `n` as `n + 1`.
    for tag in [1u16, 2] {
        let on =
            |kind| trace.events.iter().any(|e| e.kind == kind && e.trace == t && e.node == tag);
        assert!(on(EventKind::RpcServe), "node tag {tag}: the serve span is in the frame's trace");
        assert!(on(EventKind::SourceRead), "node tag {tag}: the read is in the frame's trace");
    }
    viz_telemetry::set_enabled(false);
}

/// The propagation acceptance test: one demand key, two sessions with
/// distinct trace ids on the key's owner, coalesced in its engine — the
/// drained events hold both ids, a `TraceJoin` edge links them, and
/// together they form ONE connected span tree.
#[test]
fn coalesced_sessions_and_peer_forward_yield_one_connected_span_tree() {
    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    viz_telemetry::set_enabled(true);
    let _ = viz_telemetry::drain();

    let cluster = TestCluster::new(2, ShardStrategy::Ring);
    let keys = seed(&cluster, 32);
    let owned = owned_key(&cluster, &keys, NodeId(1));

    const T1: u64 = 0xA11CE;
    const T2: u64 = 0xB0B;
    let node1 = cluster.node(NodeId(1)).unwrap();
    let server = node1.server().clone();
    let s1 = server.open_session("viewer-a").unwrap();
    let s2 = server.open_session("viewer-b").unwrap();
    // Both submissions queue before the engine runs (exactly the wire
    // dispatch order under node 1's attribution scope, tag 2), so the
    // second session's demand joins the first's queued job.
    let (sub1, sub2) = viz_telemetry::with_node(2, || {
        let sub1 =
            viz_telemetry::with_trace(T1, || server.submit(s1, 0, vec![owned], vec![])).unwrap();
        let sub2 =
            viz_telemetry::with_trace(T2, || server.submit(s2, 0, vec![owned], vec![])).unwrap();
        server.pump();
        server.engine().run_until_idle();
        (sub1, sub2)
    });
    let r1 = sub1.collect_ready(&server);
    let r2 = sub2.collect_ready(&server);
    assert!(r1[0].result.is_ok() && r2[0].result.is_ok());
    assert!(server.engine().metrics().cross_tag_coalesced >= 1, "the sessions coalesced");
    assert_eq!(cluster.reads(NodeId(1)), 1, "one storage read on the owner");
    assert_eq!(cluster.reads(NodeId(0)), 0, "nothing read elsewhere");

    let trace = viz_telemetry::drain();
    let ids = collect::trace_ids(&trace.events);
    assert_eq!(ids, vec![T2, T1], "both trace ids recorded (sorted)");
    assert!(
        trace.events.iter().any(|e| e.kind == EventKind::TraceJoin && e.trace == T2 && e.arg == T1),
        "the coalesce recorded the joining trace against the primary"
    );
    assert!(
        collect::traces_connected(&trace.events, &ids),
        "the two traces form one connected span tree, not islands"
    );
    // Both traces are recorded on the owner: admission and read under
    // the primary, the join under the second.
    assert!(trace
        .events
        .iter()
        .any(|e| e.kind == EventKind::SourceRead && e.trace == T1 && e.node == 2));
    assert!(trace.events.iter().any(|e| e.trace == T2 && e.node == 2));
    viz_telemetry::set_enabled(false);
}

/// The scrape plane: heartbeat-RTT clock sync, per-node `TelemetryGet`
/// drains, and one merged Perfetto document that passes the structural
/// validator, plus the cluster Prometheus rollup.
#[test]
fn router_scrape_merges_clock_aligned_perfetto_trace() {
    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    viz_telemetry::set_enabled(true);
    let _ = viz_telemetry::drain();

    let cluster = TestCluster::new(2, ShardStrategy::Ring);
    let keys = seed(&cluster, 16);
    let mut router = cluster.router("viewer");
    assert_eq!(router.sync_clocks(), 2, "both nodes answered the clock probe");

    let reply = router.fetch(keys, vec![]);
    assert!(reply.blocks.iter().all(|b| b.result.is_ok()));

    let drains = router.scrape();
    assert_eq!(drains.len(), 2, "one drain per live node");
    let all: Vec<_> = drains.iter().flat_map(|d| d.events.iter().cloned()).collect();
    let ids = collect::trace_ids(&all);
    assert_eq!(ids.len(), 1, "one frame mints one trace id");
    assert!(
        all.iter().any(|e| e.kind == EventKind::RouterFetch && e.node == 0 && e.trace == ids[0]),
        "the router's frame span is present and attributed"
    );
    assert!(
        all.iter().any(|e| e.kind == EventKind::RpcServe && e.node != 0 && e.trace == ids[0]),
        "a node-side serve span carries the same trace"
    );

    let doc = collect::cluster_chrome_trace(&drains);
    json::validate(&doc).expect("merged cluster trace is valid JSON");
    assert!(doc.contains("\"name\":\"router\""), "router process named");
    assert!(doc.contains("\"name\":\"node-0\"") && doc.contains("\"name\":\"node-1\""));

    let prom = collect::cluster_prometheus(&drains);
    assert!(prom.contains("viz_node_counter_total{node=\"0\""), "per-node series present");
    assert!(prom.contains("viz_counter_total{"), "summed series present");
    assert!(prom.contains("viz_telemetry_ring_dropped_total"), "drop diagnostics present");
    viz_telemetry::set_enabled(false);
}

/// A chaos window fires a flight-recorder trigger and the dump cut at
/// that moment replays the fault timeline — injection events first,
/// symptoms after — while the demand invariant holds. Crashes alone
/// never produce failure events (the router's heartbeat routes around
/// them before demand pays), so the trigger here is the SLO burn
/// tracker catching a slow node the failure detector cannot see, with a
/// crash window overlapping it on the same timeline.
#[test]
fn chaos_faults_trigger_flight_dump_with_zero_demand_errors() {
    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    viz_telemetry::set_enabled(true);
    viz_telemetry::reset();
    // Interactive-frame SLO scaled to the test workload: a read through
    // the slowed node (~1.5 ms) blows a 100 µs service SLO; 2 of any 16
    // services over is a burn.
    viz_telemetry::flight::configure(viz_telemetry::flight::FlightConfig {
        slo_ns: 100_000,
        slo_burn: 0.1,
        slo_min_count: 16,
        ..viz_telemetry::flight::FlightConfig::default()
    });

    let mut cluster = TestCluster::new(3, ShardStrategy::Ring);
    // A tier that holds the last frame only: `run_plan` needs every
    // step's new keys to reach the nodes.
    let mut router = cluster.router("chaos").with_tier(ClientTier::with_capacity(0));
    let slow = NodeId(1);
    let crashed = NodeId(2);
    let plan = ChaosPlan {
        events: vec![
            ChaosEvent { step: 2, action: ChaosAction::Slow(slow, 1_500) },
            ChaosEvent { step: 3, action: ChaosAction::Crash(crashed) },
            ChaosEvent { step: 6, action: ChaosAction::Restart(crashed) },
            ChaosEvent { step: 8, action: ChaosAction::Unslow(slow) },
        ],
    };
    let path = std::env::temp_dir().join("viz_trace_test_flight.vfdr");
    let _ = std::fs::remove_file(&path);

    let report = run_plan(&mut cluster, &mut router, &plan, Some(&path));
    assert_eq!(report.demand_errors, 0, "no fault cost a demand block");
    assert!(report.demand_blocks > 0, "the workload ran");
    assert!(report.triggers >= 1, "the slow window burned the SLO and fired a trigger");
    assert!(report.dump_events > 0, "the trigger cut a dump");

    let sections = read_flight_dump(&path).expect("dump reads back");
    assert!(!sections.is_empty());
    let total: usize = sections.iter().map(|s| s.events.len()).sum();
    assert_eq!(total as u64, report.dump_events, "dump holds what the report counted");
    assert!(
        sections.iter().any(|s| !s.triggers.is_empty()),
        "the firing trigger rides in the dump"
    );
    let injected: Vec<_> = sections
        .iter()
        .flat_map(|s| s.events.iter())
        .filter(|e| e.kind == EventKind::FaultInjected)
        .collect();
    assert!(injected.len() >= 2, "the injections are on the reconstructed timeline");
    assert!(
        injected.iter().any(|e| e.key == u64::from(slow.0) && e.arg == 2 << 1),
        "the slow fault (family 2) names its victim"
    );
    assert!(
        injected.iter().any(|e| e.key == u64::from(crashed.0) && e.arg == 0),
        "the crash (family 0, not a repair) names its victim"
    );
    let _ = std::fs::remove_file(&path);
    viz_telemetry::flight::configure(viz_telemetry::flight::FlightConfig::default());
    viz_telemetry::reset();
    viz_telemetry::set_enabled(false);
}
