//! Serving one dataset from four machines: a sharded cluster where every
//! block has exactly one owner, a client-side router that answers what
//! its client tier holds itself and sends each other demand straight
//! to its owner, and nodes that serve whatever they are asked from
//! their own storage, never forwarding. Then two nodes that neighbour
//! each other on the ring crash together mid-flight, and the demand keeps
//! flowing with no map change: the router walks each orphaned key's ring
//! successors to the first live node, the owner a map over the survivors
//! would name.
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
    println!("{} blocks sharded over 4 nodes", keys.len());

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

    // Two nodes die at once and the map stays as it is. The router
    // notices the dead transports and sends each orphaned key to the next
    // live node on its ring-successor list — for some keys, past both
    // dead nodes. The viewer sees a slower frame, never a failed one.
    let dead = [NodeId(1), NodeId(2)];
    // The view moves on: frame 2 keeps the last quarter of frame 1, which
    // the router still holds, and its new blocks include some the dead
    // nodes owned, which it must ask for.
    let frame: Vec<BlockKey> = keys[48..112].to_vec();
    // Whether the `i`th node on a key's ring-successor list (0 = owner) died.
    let died = |k: BlockKey, i: usize| dead.contains(&cluster.map().owners(k, 2)[i]);
    let new_blocks = &keys[64..112];
    let orphaned = new_blocks.iter().filter(|&&k| died(k, 0)).count();
    let both_down = new_blocks.iter().filter(|&&k| died(k, 0) && died(k, 1)).count();
    assert!(both_down > 0, "frame 2 must ask for a block whose owner and successor both died");
    for n in dead {
        cluster.crash_node(n);
    }
    println!("nodes {} and {} crashed; the map is unchanged", dead[0], dead[1]);

    let reply = router.fetch(frame, vec![]);
    let errors = reply.blocks.iter().filter(|b| b.result.is_err()).count();
    assert_eq!(errors, 0, "failover must not drop demand");
    assert!(reply.held > 0, "the overlap with frame 1 is answered by the router's tier");
    assert!(reply.rounds >= 2, "the dead nodes' blocks failed over in a second round");
    println!(
        "frame 2: {} demand blocks ({} held by the router, {orphaned} orphaned, {both_down} \
         with owner and successor down) in {} round(s), {errors} errors",
        reply.blocks.len(),
        reply.held,
        reply.rounds
    );
    println!("router marks down: {:?}", router.down_nodes());
    for n in cluster.live_nodes() {
        let m = cluster.node(n).unwrap().server().metrics();
        assert_eq!(m.demand_errors, 0);
    }
    println!("zero demand errors on every survivor");
}
