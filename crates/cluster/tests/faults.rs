//! Deterministic failure injection: partitions the control plane has
//! not noticed yet, breaker state on dead peers, and routing under map
//! skew. Availability invariant throughout: demand never errors because
//! of cluster topology — shared storage always allows a local read.

use viz_cluster::{ClusterConfig, NodeId, ShardStrategy, TestCluster};
use viz_fetch::BreakerConfig;
use viz_telemetry::EventKind;
use viz_volume::{BlockId, BlockKey};

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

/// Split `keys` into its even and odd positions: two disjoint windows,
/// so a router that fetched one holds none of the other and a frame on
/// the other reaches the nodes.
fn halves(keys: &[BlockKey]) -> [Vec<BlockKey>; 2] {
    let half = |parity| keys.iter().copied().skip(parity).step_by(2).collect();
    [half(0), half(1)]
}

#[test]
fn partitioned_peer_falls_back_locally_and_breaker_opens() {
    viz_telemetry::set_enabled(true);
    let _ = viz_telemetry::drain();

    let mut cluster = TestCluster::with_configs(
        2,
        ShardStrategy::Ring,
        viz_serve::ServeConfig::default(),
        ClusterConfig::deterministic(),
    );
    let keys = seed(&cluster, 64);
    let remote: Vec<BlockKey> = keys
        .iter()
        .copied()
        .filter(|&k| cluster.map().owner(k) == Some(NodeId(1)))
        .take(12)
        .collect();
    // More remote keys than the breaker's threshold, so it opens and
    // later demands probe it.
    let threshold = BreakerConfig::default().failure_threshold as usize;
    assert!(remote.len() > threshold, "need more node-1 keys than the breaker threshold");

    // Node 1 dies, but nobody reassigns the map: node 0 keeps trying to
    // forward, failing, and falling back to its local (shared) storage.
    cluster.partition_node(NodeId(1));
    let mut client = cluster.client(NodeId(0));
    client.open("viewer").unwrap();
    for &k in &remote {
        let out = client.fetch(vec![k], vec![]).unwrap();
        assert!(
            out.blocks[0].result.is_ok(),
            "a dead peer must degrade locality, never availability"
        );
    }
    // Every read happened on node 0 (the fallback), none on the corpse.
    assert_eq!(cluster.reads(NodeId(0)), remote.len() as u64);
    assert_eq!(cluster.reads(NodeId(1)), 0);

    // The per-peer breaker crossed its threshold and opened; later
    // demands became half-open probes that failed and re-opened it.
    let node0 = cluster.node(NodeId(0)).unwrap();
    let (opens, half_opens, _closes, _rejected) =
        node0.peer_breaker_counters(NodeId(1)).expect("peer client was dialed");
    assert!(opens >= 1, "breaker never opened after {} failures", remote.len());
    assert!(half_opens >= 1, "no probe was attempted after the breaker opened");

    // And the transitions are visible in telemetry, alongside the
    // per-failure fallback records.
    let trace = viz_telemetry::drain();
    assert!(trace.count(EventKind::BreakerOpen) >= 1, "BreakerOpen not recorded");
    assert!(
        trace.count(EventKind::PeerFallback) >= remote.len(),
        "every failed forward should record a PeerFallback"
    );
    assert!(trace.count(EventKind::PeerFetch) >= remote.len());
    viz_telemetry::set_enabled(false);
}

#[test]
fn router_survives_partition_before_any_reassignment() {
    let mut cluster = TestCluster::new(4, ShardStrategy::Ring);
    let keys = seed(&cluster, 64);
    // The warm frame and the post-partition frame are disjoint halves, so
    // the router's tier holds nothing the second frame asks for.
    let [warm, after] = halves(&keys);
    let mut router = cluster.router("viewer");
    assert!(router.fetch(warm, vec![]).blocks.iter().all(|b| b.result.is_ok()));

    // Partition without reassignment: the surviving nodes still hold the
    // old map, so a map refresh brings nothing new. The router must
    // fail over on its own, via the ring-successor candidates.
    let dead = NodeId(3);
    let orphaned = after.iter().filter(|&&k| cluster.map().owner(k) == Some(dead)).count();
    assert!(orphaned > 0);
    cluster.partition_node(dead);

    let reply = router.fetch(after, vec![]);
    assert_eq!(reply.held, 0, "every key of the frame was asked");
    assert!(
        reply.blocks.iter().all(|b| b.result.is_ok()),
        "router failover must cover a partition the control plane missed"
    );
    assert!(reply.rounds >= 2);
    assert_eq!(router.map().version(), 1, "no newer map existed to learn");
    assert_eq!(router.down_nodes(), vec![dead]);
    for n in cluster.live_nodes() {
        assert_eq!(cluster.node(n).unwrap().server().metrics().demand_errors, 0);
    }
}

#[test]
fn map_skew_resolves_by_direct_read_not_a_cycle() {
    let cluster = TestCluster::new(2, ShardStrategy::Ring);
    let keys = seed(&cluster, 32);
    let remote =
        *keys.iter().find(|&&k| cluster.map().owner(k) == Some(NodeId(1))).expect("a key on n1");

    // Manufacture disagreement: node 1 now believes node 0 owns
    // everything (v2), while node 0 still believes node 1 owns `remote`
    // (v1). A naive forward chases the key in a circle forever.
    let skewed = cluster.map().without(NodeId(1));
    assert!(cluster.node(NodeId(1)).unwrap().install_map(skewed));

    let mut client = cluster.client(NodeId(0));
    client.open("viewer").unwrap();
    let out = client.fetch(vec![remote], vec![]).unwrap();
    assert!(out.blocks[0].result.is_ok(), "skew must cost locality, not availability");

    // Node 1 answered the forward with a direct local read (its
    // dispatcher refuses to re-forward keys it does not own under its
    // own map), so exactly one storage read happened, on node 1.
    assert_eq!(cluster.reads(NodeId(1)), 1);
    assert_eq!(cluster.reads(NodeId(0)), 0);
}

#[test]
fn failed_node_keys_reassign_to_ring_successors() {
    // The failover the router performs and the reassignment the map
    // performs must agree: after a crash, each orphaned key's new owner
    // is one of the fallback candidates the OLD map already listed.
    let mut cluster = TestCluster::new(4, ShardStrategy::Ring);
    let keys = seed(&cluster, 128);
    let old_map = cluster.map().clone();
    let dead = NodeId(0);
    cluster.fail_node(dead);
    for &k in &keys {
        let before = old_map.owner(k).unwrap();
        let after = cluster.map().owner(k).unwrap();
        if before == dead {
            assert!(
                old_map.owners(k, 4)[1..].contains(&after),
                "key reassigned off the successor list"
            );
        } else {
            assert_eq!(before, after, "unrelated key moved on node failure");
        }
    }
}
