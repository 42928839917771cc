//! Serving one dataset from four machines: a sharded cluster where every
//! block has exactly one owner, a client-side router that answers what
//! its last frame carried itself and sends each other demand straight
//! to its owner, and nodes that serve whatever they are asked from
//! their own storage, never forwarding. Then a node crashes
//! mid-flight and the demand keeps flowing — the map reassigns the
//! orphaned shards to the ring successors the router was already using
//! as fallbacks.
//!
//! Uses the deterministic in-process cluster (virtual clock, synchronous
//! transports) so the run replays exactly; swap the [`TestCluster`] for
//! [`viz_appaware::cluster::ClusterNode`] + `TcpServer::bind_with` +
//! [`viz_appaware::cluster::TcpPeerLink`] to deploy over real sockets
//! (`benchmark/src/pipeline.rs` builds its cluster workload that way).
//!
//! Run with: `cargo run --release --example multi_node_serve`

use viz_appaware::cluster::{NodeId, ShardStrategy, TestCluster};
use viz_appaware::volume::{BlockKey, BrickLayout, Dims3};

fn main() {
    // A bricked volume sharded over four nodes on a consistent-hash ring.
    let layout = BrickLayout::with_target_blocks(Dims3::cube(128), 256);
    let cluster = TestCluster::new(4, ShardStrategy::Ring);
    let keys: Vec<BlockKey> = layout
        .block_ids()
        .map(|id| {
            let k = BlockKey::scalar(id);
            cluster.insert(k, vec![id.0 as f32; 64]);
            k
        })
        .collect();
    println!("{} blocks sharded over 4 nodes (map v{})", keys.len(), cluster.map().version());

    // The viewer's router fans each frame out to the owners in per-node
    // batches and merges the replies back into request order.
    let mut router = cluster.router("viewer");
    let frame: Vec<BlockKey> = keys[..64].to_vec();
    let prefetch: Vec<(BlockKey, f64)> = keys[64..128].iter().map(|&k| (k, 0.5)).collect();
    let reply = router.fetch(frame, prefetch);
    assert!(reply.blocks.iter().all(|b| b.result.is_ok()));
    println!(
        "frame 1: {} demand blocks in {} round(s), {} shed",
        reply.blocks.len(),
        reply.rounds,
        reply.shed
    );
    for n in 0..4 {
        println!("  node {n}: {} storage reads", cluster.reads(NodeId(n)));
    }

    // A node dies. The map drops it (v2) and its shards move to the ring
    // successors; the router notices the dead transport, refreshes the
    // map from a survivor, and replays the orphaned keys — the viewer
    // sees a slower frame, never a failed one.
    let mut cluster = cluster;
    let dead = NodeId(2);
    // The view moves on: frame 2 keeps the last quarter of frame 1, which
    // the router still holds, and its new blocks include some the dead
    // node owned, which it must ask for.
    let frame: Vec<BlockKey> = keys[48..112].to_vec();
    let orphaned = keys[64..112].iter().filter(|&&k| cluster.map().owner(k) == Some(dead)).count();
    assert!(orphaned > 0, "frame 2 must ask for some of the dead node's blocks");
    cluster.fail_node(dead);
    println!("node {dead} crashed; map now v{}", cluster.map().version());

    let reply = router.fetch(frame, vec![]);
    assert!(reply.blocks.iter().all(|b| b.result.is_ok()), "failover must not drop demand");
    assert!(reply.held > 0, "the overlap with frame 1 is answered by the router's tier");
    assert!(reply.rounds >= 2, "the dead node's blocks failed over in a second round");
    println!(
        "frame 2: {} demand blocks ({} held by the router, {orphaned} orphaned) in {} round(s) \
         despite the crash",
        reply.blocks.len(),
        reply.held,
        reply.rounds
    );
    println!("router learned map v{}; down: {:?}", router.map().version(), router.down_nodes());
    for n in cluster.live_nodes() {
        let m = cluster.node(n).unwrap().server().metrics();
        assert_eq!(m.demand_errors, 0);
    }
    println!("zero demand errors on every survivor");
}
