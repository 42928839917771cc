//! Deterministic failure injection: crashed nodes whose keys fail over
//! along their ring successors under a map that never changes.
//! Availability invariant throughout: demand never errors because of
//! cluster topology — shared storage always allows a read on another
//! node.

use viz_cluster::{NodeId, ShardMap, ShardStrategy, TestCluster};
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
fn router_survives_partition_before_any_reassignment() {
    let cluster = TestCluster::new(4, ShardStrategy::Ring);
    let keys = seed(&cluster, 64);
    // The warm frame and the post-partition frame are disjoint halves, so
    // the router's tier holds nothing the second frame asks for.
    let [warm, after] = halves(&keys);
    let mut router = cluster.router("viewer");
    assert!(router.fetch(warm, vec![]).blocks.iter().all(|b| b.result.is_ok()));

    // The node vanishes and no map changes: the router fails over on its
    // own, along the ring successors.
    let dead = NodeId(3);
    let orphaned = after.iter().filter(|&&k| cluster.map().owner(k) == Some(dead)).count();
    assert!(orphaned > 0);
    cluster.crash_node(dead);

    let reply = router.fetch(after, vec![]);
    assert_eq!(reply.held, 0, "every key of the frame was asked");
    assert!(
        reply.blocks.iter().all(|b| b.result.is_ok()),
        "router failover must cover a crashed node"
    );
    assert!(reply.rounds >= 2);
    assert_eq!(router.down_nodes(), vec![dead]);
    for n in cluster.live_nodes() {
        assert_eq!(cluster.node(n).unwrap().server().metrics().demand_errors, 0);
    }
}

/// Two nodes crash together and no heartbeat runs before the frame:
/// every key whose owner is down walks its ring successors past both
/// dead nodes to the first survivor, which is the owner a map built over
/// the survivors names. No map changes hands.
#[test]
fn two_failures_need_no_map_push() {
    let cluster = TestCluster::new(5, ShardStrategy::Ring);
    let keys = seed(&cluster, 256);
    let dead = [NodeId(1), NodeId(2)];
    // Some key's owner and first successor are both down, so a walk that
    // stopped one successor short would time it out.
    assert!(keys.iter().any(|&k| cluster.map().owners(k, 2).iter().all(|n| dead.contains(n))));
    let survivors: Vec<NodeId> =
        cluster.live_nodes().into_iter().filter(|n| !dead.contains(n)).collect();
    // `TestCluster` rings 64 points a node.
    let reassigned = ShardMap::new(&survivors, 64, ShardStrategy::Ring);
    for &n in &dead {
        cluster.crash_node(n);
    }

    let mut router = cluster.router("viewer");
    let reply = router.fetch(keys.clone(), vec![]);
    let errors = reply.blocks.iter().filter(|b| b.result.is_err()).count();
    assert_eq!(errors, 0, "{errors} of {} keys failed", keys.len());
    assert!(reply.rounds <= 3, "{} rounds", reply.rounds);
    // Each key was read once, by its owner under the survivors' map.
    for n in (0..5).map(NodeId) {
        let owned = keys.iter().filter(|&&k| reassigned.owner(k) == Some(n)).count() as u64;
        assert_eq!(cluster.reads(n), owned, "node {n}");
    }
}
