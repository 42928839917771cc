//! Deterministic failure injection: crashed nodes whose keys fail over
//! along their ring successors under a map that never changes.
//! Availability invariant throughout: demand never errors because of
//! cluster topology — shared storage always allows a read on another
//! node.

use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use viz_cluster::{NodeId, PeerLink, Router, RouterConfig, ShardMap, ShardStrategy, TestCluster};
use viz_serve::proto::errkind_code;
use viz_serve::{BlockReply, Request, Response};
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

/// A key's owner and its next two ring successors crash and no heartbeat
/// runs before the frame. The frame meets one dead node a round, so it
/// reaches the fourth node on the key's list in its fourth round: a key
/// that has met only dead nodes goes on past three rounds, up to one per
/// node. Three rounds would time the key out although two nodes are live.
#[test]
fn three_failures_ahead_of_a_key_resolve_in_one_frame() {
    let cluster = TestCluster::new(5, ShardStrategy::Ring);
    let k = seed(&cluster, 1)[0];
    let list = cluster.map().owners(k, 5);
    let mut dead = list[..3].to_vec();
    for &n in &dead {
        cluster.crash_node(n);
    }

    let mut router = cluster.router("viewer");
    let reply = router.fetch(vec![k], vec![]);
    assert_eq!(reply.blocks[0].result.as_ref().map(|d| d[0]), Ok(0.0));
    assert_eq!(reply.rounds, 4);
    dead.sort();
    assert_eq!(router.down_nodes(), dead);
    assert_eq!(cluster.reads(list[3]), 1, "the first live node on the list read it");
}

/// A live node that answers every demand key with a transient error
/// (`TimedOut`, as an overloaded server would), counting the fetches.
struct Overloaded(Arc<AtomicU32>);

impl PeerLink for Overloaded {
    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        Ok(match req {
            Request::Open { .. } => Response::OpenAck { session: 1 },
            Request::Fetch { demand, .. } => {
                self.0.fetch_add(1, Ordering::Relaxed);
                let err = Err(errkind_code(io::ErrorKind::TimedOut));
                let blocks =
                    demand.iter().map(|&key| BlockReply { key, result: err.clone(), crc: None });
                Response::FetchReply {
                    session: 1,
                    blocks: blocks.collect(),
                    shed: 0,
                    downgraded: 0,
                }
            }
            other => panic!("unexpected request {other:?}"),
        })
    }
}

/// Every node is live but answers with a transient error: the key is
/// asked three times, as on a small map, not once per node of a 6-node
/// one. Only a walk past dead nodes earns rounds beyond three.
#[test]
fn transient_errors_keep_three_rounds_on_a_large_map() {
    let ids: Vec<NodeId> = (0..6).map(NodeId).collect();
    let map = ShardMap::new(&ids, 64, ShardStrategy::Ring);
    let fetches = Arc::new(AtomicU32::new(0));
    let count = fetches.clone();
    let connect = Arc::new(move |_: NodeId| -> io::Result<Box<dyn PeerLink>> {
        Ok(Box::new(Overloaded(count.clone())))
    });
    let mut router = Router::new("viewer", map, connect, RouterConfig::default());

    let reply = router.fetch(vec![key(0)], vec![]);
    assert_eq!(reply.rounds, 3);
    assert_eq!(fetches.load(Ordering::Relaxed), 3, "one ask a round");
    assert_eq!(reply.blocks[0].result, Err(errkind_code(io::ErrorKind::TimedOut)));
    assert!(router.down_nodes().is_empty(), "every node answered");
}
