//! Deterministic failure injection: partitions the control plane has
//! not noticed yet, and reassignment on node failure. Availability
//! invariant throughout: demand never errors because of cluster
//! topology — shared storage always allows a read on another node.

use viz_cluster::{NodeId, ShardStrategy, TestCluster};
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
