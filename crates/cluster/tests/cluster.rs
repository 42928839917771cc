//! Deterministic multi-node acceptance: a 4-node in-process cluster on
//! synchronous transports — no sockets or sleeps anywhere, and the only
//! threads are the router's per-round fan-out, joined inside each
//! `fetch` call. Replies merge in sorted node order over disjoint
//! per-node state, so every asserted outcome replays exactly.

use viz_cluster::{NodeId, ShardStrategy, TestCluster};
use viz_volume::{BlockId, BlockKey};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

/// Insert blocks `0..n` with recognizable payloads.
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
fn router_resolves_cross_node_demand_through_owners() {
    let cluster = TestCluster::new(4, ShardStrategy::Ring);
    let keys = seed(&cluster, 64);
    let mut router = cluster.router("viewer");

    let reply = router.fetch(keys.clone(), vec![]);
    assert_eq!(reply.rounds, 1, "healthy cluster resolves in one round");
    assert_eq!(reply.blocks.len(), 64);
    for (i, b) in reply.blocks.iter().enumerate() {
        assert_eq!(b.key, keys[i], "replies keep request order");
        let data = b.result.as_ref().expect("healthy cluster serves every key");
        assert_eq!(data[0], i as f32);
    }

    // Each key was read exactly once, by its owner — the router sent it
    // to the right node, and that node read local storage.
    let mut by_owner = [0u64; 4];
    for &k in &keys {
        by_owner[cluster.map().owner(k).unwrap().0 as usize] += 1;
    }
    for n in 0..4 {
        assert_eq!(
            cluster.reads(NodeId(n)),
            by_owner[n as usize],
            "node {n} read a different set than it owns"
        );
        assert!(by_owner[n as usize] > 0, "64 ring-hashed keys should touch all 4 nodes");
    }
}

#[test]
fn reads_spread_roughly_uniformly_across_nodes() {
    let cluster = TestCluster::new(4, ShardStrategy::Ring);
    let keys = seed(&cluster, 256);
    let mut router = cluster.router("viewer");
    let reply = router.fetch(keys, vec![]);
    assert!(reply.blocks.iter().all(|b| b.result.is_ok()));

    let expect = 256 / 4;
    for n in 0..4 {
        let reads = cluster.reads(NodeId(n));
        assert!(
            reads > expect / 3 && reads < expect * 3,
            "node {n} read {reads} of 256 (expected ~{expect})"
        );
    }
}

/// A node asked for a key it does not own serves it from its own engine
/// and storage: nodes never forward.
#[test]
fn non_owner_serves_from_its_own_storage_and_pool() {
    let cluster = TestCluster::new(2, ShardStrategy::Ring);
    let keys = seed(&cluster, 32);
    let remote =
        *keys.iter().find(|&&k| cluster.map().owner(k) == Some(NodeId(1))).expect("some key on n1");

    let mut client = cluster.client(NodeId(0));
    client.open("viewer").unwrap();
    let out = client.fetch(vec![remote], vec![]).unwrap();
    assert_eq!(out.blocks[0].result.as_ref().unwrap()[0], remote.block.0 as f32);
    assert_eq!(cluster.reads(NodeId(0)), 1, "the asked node read it");
    assert_eq!(cluster.reads(NodeId(1)), 0, "the owner read nothing");

    // The block landed in node 0's pool: a fresh client (the first holds
    // the block and would not send the key) asks again, and no node reads.
    let mut fresh = cluster.client(NodeId(0));
    fresh.open("second viewer").unwrap();
    let again = fresh.fetch(vec![remote], vec![]).unwrap();
    assert_eq!(again.held, 0, "the fresh client asked node 0");
    assert!(again.blocks[0].result.is_ok());
    assert_eq!(cluster.reads(NodeId(0)), 1, "a pool hit, not a re-read");
    assert_eq!(cluster.reads(NodeId(1)), 0, "still no read on the owner");
}

#[test]
fn crash_failover_keeps_demand_flowing() {
    let cluster = TestCluster::new(4, ShardStrategy::Ring);
    let keys = seed(&cluster, 64);
    // The warm frame and the failover frame are disjoint halves, so the
    // router's tier holds nothing the failover frame asks for.
    let [warm, after] = halves(&keys);
    let mut router = cluster.router("viewer");
    assert!(router.fetch(warm, vec![]).blocks.iter().all(|b| b.result.is_ok()));

    let dead = NodeId(2);
    let owned_by_dead = after.iter().filter(|&&k| cluster.map().owner(k) == Some(dead)).count();
    assert!(owned_by_dead > 0, "node 2 must own something for this test to bite");
    cluster.crash_node(dead);

    // The map does not change: the router's batch to the dead node fails
    // at the transport, and the orphaned keys resolve on their first
    // live ring successors.
    let reply = router.fetch(after, vec![]);
    assert_eq!(reply.held, 0, "every key of the frame was asked");
    assert!(
        reply.blocks.iter().all(|b| b.result.is_ok()),
        "failover must not surface a single demand error"
    );
    assert!(reply.rounds >= 2, "the dead node's keys needed a second round");
    assert_eq!(router.down_nodes(), vec![dead]);

    // Survivor serve layers saw zero demand errors throughout.
    for n in cluster.live_nodes() {
        let m = cluster.node(n).unwrap().server().metrics();
        assert_eq!(m.demand_errors, 0, "node {n} reported demand errors");
    }
}

#[test]
fn drain_failover_reports_zero_demand_errors() {
    let cluster = TestCluster::new(4, ShardStrategy::Ring);
    let keys = seed(&cluster, 48);
    // Disjoint warm and post-drain frames: the router's tier holds none
    // of the post-drain demand, so the drained node's keys are asked.
    let [warm, after] = halves(&keys);
    let drained = NodeId(1);
    assert!(after.iter().any(|&k| cluster.map().owner(k) == Some(drained)));
    let mut router = cluster.router("viewer");
    assert!(router.fetch(warm, vec![]).blocks.iter().all(|b| b.result.is_ok()));

    cluster.drain_node(drained);

    let reply = router.fetch(after, vec![]);
    assert_eq!(reply.held, 0, "every key of the frame was asked");
    assert!(reply.rounds >= 1, "the frame routed");
    assert!(reply.blocks.iter().all(|b| b.result.is_ok()), "drain must be invisible to demand");
    for n in cluster.live_nodes() {
        assert_eq!(cluster.node(n).unwrap().server().metrics().demand_errors, 0);
    }
}

#[test]
fn off_owner_batch_reads_local_storage() {
    let cluster = TestCluster::new(2, ShardStrategy::Ring);
    let keys = seed(&cluster, 8);
    let k = keys[0];
    let cands = cluster.map().owners(k, 2);
    let (owner, fallback) = (cands[0], cands[1]);
    let mut router = cluster.router("viewer");

    // The owner stops answering: the router marks it down and fails over
    // to the ring successor.
    cluster.isolate(owner);
    assert!(router.fetch(vec![k], vec![]).blocks[0].result.is_ok());
    assert_eq!(router.down_nodes(), vec![owner]);
    assert_eq!(cluster.reads(fallback), 1, "fallback served the key locally");

    // The owner answers again before the router probes it, so the next
    // owner key still goes to the fallback, which reads its own storage:
    // nodes never forward to the owner.
    cluster.heal(owner);
    let k2 = *keys[1..].iter().find(|&&x| cluster.map().owner(x) == Some(owner)).unwrap();
    assert!(router.fetch(vec![k2], vec![]).blocks[0].result.is_ok());
    assert_eq!(cluster.reads(fallback), 2, "fallback served the second key locally");
    assert_eq!(cluster.reads(owner), 0, "owner read nothing");
}

#[test]
fn prefetch_rides_to_owners_and_warms_their_pools() {
    let cluster = TestCluster::new(2, ShardStrategy::Ring);
    let keys = seed(&cluster, 32);
    let mut router = cluster.router("viewer");

    // Demand one key, speculate on the rest.
    let pf: Vec<(BlockKey, f64)> = keys[1..].iter().map(|&k| (k, 1.0)).collect();
    let reply = router.fetch(vec![keys[0]], pf);
    assert!(reply.blocks[0].result.is_ok());
    assert_eq!(reply.shed, 0, "a healthy cluster sheds nothing");

    // Every block was read exactly once cluster-wide (each by its
    // owner's prefetch), so a follow-up demand sweep is pure pool hits.
    let total: u64 = (0..2).map(|n| cluster.reads(NodeId(n))).sum();
    assert_eq!(total, 32);
    let again = router.fetch(keys, vec![]);
    assert!(again.blocks.iter().all(|b| b.result.is_ok()));
    let total_after: u64 = (0..2).map(|n| cluster.reads(NodeId(n))).sum();
    assert_eq!(total_after, 32, "the demand sweep re-read nothing");
}
