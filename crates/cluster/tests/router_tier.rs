//! The router's client tier: a `Router` answers the demand keys its tier
//! holds from their payloads and routes only the rest to the owners,
//! merging both back into one reply per demand slot.
//!
//! Most tests build the tier at capacity 0, where it holds the last frame
//! only; the rest run at the default capacity.

use std::sync::Arc;
use viz_cluster::{NodeId, Router, RouterConfig, ShardStrategy, TestCluster};
use viz_serve::{BlockReply, ClientTier};
use viz_volume::{BlockId, BlockKey};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

fn payload(i: u32) -> Vec<f32> {
    vec![i as f32; 16]
}

fn keys(ids: impl IntoIterator<Item = u32>) -> Vec<BlockKey> {
    ids.into_iter().map(key).collect()
}

/// A 3-node ring cluster over a store holding blocks `0..n`.
fn setup(n: u32) -> TestCluster {
    let cluster = TestCluster::new(3, ShardStrategy::Ring);
    for i in 0..n {
        cluster.insert(key(i), payload(i));
    }
    cluster
}

/// A router named `name` on `cluster` whose tier holds the last frame
/// only.
fn last_frame_router(cluster: &TestCluster, name: &str) -> Router {
    cluster.router(name).with_tier(ClientTier::with_capacity(0))
}

/// Demand keys admitted over every live node.
fn demand_admitted(cluster: &TestCluster) -> u64 {
    let live = cluster.live_nodes().into_iter();
    live.map(|n| cluster.node(n).unwrap().server().metrics().demand_admitted).sum()
}

/// Storage reads over every node.
fn reads(cluster: &TestCluster) -> u64 {
    cluster.map().nodes().iter().map(|&n| cluster.reads(n)).sum()
}

fn owned_by(cluster: &TestCluster, keys: &[BlockKey], node: NodeId) -> Vec<BlockKey> {
    keys.iter().copied().filter(|&k| cluster.map().owner(k) == Some(node)).collect()
}

fn assert_payloads(blocks: &[BlockReply], want: &[BlockKey]) {
    let got: Vec<BlockKey> = blocks.iter().map(|b| b.key).collect();
    assert_eq!(got, want, "one reply per demand slot, in request order");
    for b in blocks {
        assert_eq!(b.result.as_ref().unwrap().as_slice(), payload(b.key.block.0), "{:?}", b.key);
    }
}

#[test]
fn overlapping_windows_route_only_the_absent_keys() {
    let cluster = setup(16);
    let mut router = last_frame_router(&cluster, "viewer");
    let first = router.fetch(keys(0..8), vec![]);
    assert_payloads(&first.blocks, &keys(0..8));
    assert_eq!((first.held, first.rounds), (0, 1));
    assert_eq!(demand_admitted(&cluster), 8);

    let second = router.fetch(keys(5..12), vec![]);
    assert_payloads(&second.blocks, &keys(5..12));
    assert_eq!(second.held, 3, "5, 6 and 7 were in the last frame");
    assert_eq!(second.rounds, 1);
    assert_eq!(demand_admitted(&cluster), 8 + 4, "only 8..12 reached the owners");
}

#[test]
fn held_payloads_are_the_last_frames_arcs() {
    let cluster = setup(8);
    let mut router = last_frame_router(&cluster, "viewer");
    let first = router.fetch(keys([1, 2, 3]), vec![]);
    let second = router.fetch(keys([3, 4, 1]), vec![]);
    assert_eq!(second.held, 2);
    let arc = |blocks: &[BlockReply], i: usize| blocks[i].result.as_ref().unwrap().clone();
    assert!(Arc::ptr_eq(&arc(&second.blocks, 0), &arc(&first.blocks, 2)), "key 3: no copy");
    assert!(Arc::ptr_eq(&arc(&second.blocks, 2), &arc(&first.blocks, 0)), "key 1: no copy");
    assert_payloads(&second.blocks, &keys([3, 4, 1]));
}

#[test]
fn the_tier_holds_the_last_frame_only() {
    let cluster = setup(8);
    let mut router = last_frame_router(&cluster, "viewer");
    router.fetch(keys(0..4), vec![]);
    router.fetch(keys(4..8), vec![]);
    // 0..4 left the tier when 4..8 replaced it.
    let third = router.fetch(keys(0..4), vec![]);
    assert_payloads(&third.blocks, &keys(0..4));
    assert_eq!(third.held, 0);
    assert_eq!(demand_admitted(&cluster), 4 + 4 + 4, "every key was asked again");
}

#[test]
fn an_error_is_never_held() {
    let cluster = setup(4);
    let mut router = last_frame_router(&cluster, "viewer");
    // Key 9 is not in the store: its reply is a final error.
    let first = router.fetch(keys([1, 9]), vec![]);
    assert!(first.blocks[0].result.is_ok());
    assert!(first.blocks[1].result.is_err());

    let second = router.fetch(keys([1, 9]), vec![]);
    assert_eq!(second.held, 1, "only key 1 is held");
    assert_eq!(second.rounds, 1, "key 9 was routed again");
    assert!(second.blocks[1].result.is_err());
    assert_eq!(demand_admitted(&cluster), 2 + 1);
}

#[test]
fn a_timed_out_slot_is_asked_again() {
    let cluster = setup(16);
    // Every node unreachable, so the key walks the whole ring and stays
    // unresolved (`TimedOut`); probe every frame so a healed node is
    // re-admitted at the start of the next one.
    let cfg = RouterConfig { probe_every: 1 };
    let mut router = cluster.router_with("viewer", cfg).with_tier(ClientTier::with_capacity(0));
    let owner = NodeId(0);
    let k = owned_by(&cluster, &keys(0..16), owner)[0];

    let all = cluster.live_nodes();
    for &n in &all {
        cluster.isolate(n);
    }
    let first = router.fetch(vec![k], vec![]);
    let timed_out = viz_serve::proto::errkind_code(std::io::ErrorKind::TimedOut);
    assert_eq!(first.blocks[0].result.as_ref().err(), Some(&timed_out));
    assert_eq!(router.down_nodes(), all);

    cluster.heal(owner);
    let admitted = cluster.node(owner).unwrap().server().metrics().demand_admitted;
    let second = router.fetch(vec![k], vec![]);
    assert_eq!(second.held, 0, "the timed-out key was not held");
    assert_payloads(&second.blocks, &[k]);
    assert_eq!(
        cluster.node(owner).unwrap().server().metrics().demand_admitted,
        admitted + 1,
        "the owner was asked again"
    );
}

#[test]
fn an_all_held_frame_still_delivers_its_prefetch() {
    let cluster = setup(16);
    let mut router = last_frame_router(&cluster, "viewer");
    router.fetch(keys(0..4), vec![]);
    let (reads_before, admitted_before) = (reads(&cluster), demand_admitted(&cluster));

    let prefetch = vec![(key(10), 0.9), (key(11), 0.5)];
    let got = router.fetch(keys([3, 0, 2]), prefetch);
    assert_payloads(&got.blocks, &keys([3, 0, 2]));
    assert_eq!((got.held, got.rounds), (3, 0), "no demand was routed");
    assert_eq!(got.shed, 0);
    assert_eq!(demand_admitted(&cluster), admitted_before, "no demand reached an owner");
    assert_eq!(reads(&cluster), reads_before + 2, "the owners read both predicted blocks");
}

#[test]
fn a_frame_that_prefetches_only_held_keys_reaches_no_node() {
    let cluster = setup(16);
    let mut router = last_frame_router(&cluster, "viewer");
    router.fetch(keys(0..4), vec![]);
    let requests = |c: &TestCluster| -> u64 {
        let live = c.live_nodes().into_iter();
        live.map(|n| c.node(n).unwrap().server().metrics().fetch_requests).sum()
    };
    let before = requests(&cluster);

    let got = router.fetch(keys([3, 0]), vec![(key(1), 0.9), (key(2), 0.5)]);
    assert_payloads(&got.blocks, &keys([3, 0]));
    assert_eq!((got.held, got.rounds, got.shed), (2, 0, 0));
    assert_eq!(requests(&cluster), before, "no node was sent a frame");
}

#[test]
fn a_held_key_is_answered_while_its_owner_is_partitioned() {
    let cluster = setup(32);
    let mut router = last_frame_router(&cluster, "viewer");
    let owner = NodeId(1);
    let owned = owned_by(&cluster, &keys(0..32), owner);
    assert!(owned.len() >= 2, "node 1 must own two keys");
    let (warm, cold) = (&owned[..1], &owned[1..]);
    assert!(router.fetch(warm.to_vec(), vec![]).blocks[0].result.is_ok());

    cluster.crash_node(owner);
    let reads_before = reads(&cluster);
    let got = router.fetch(warm.to_vec(), vec![]);
    assert_payloads(&got.blocks, warm);
    assert_eq!((got.held, got.rounds), (1, 0), "answered with no round trip");
    assert!(router.down_nodes().is_empty(), "nothing was asked, so nothing failed");
    assert_eq!(reads(&cluster), reads_before, "no fallback read either");

    // A key the last frame did not carry does reach the partition, and
    // fails over from it.
    let got = router.fetch(cold.to_vec(), vec![]);
    assert_payloads(&got.blocks, cold);
    assert_eq!(got.held, 0);
    assert!(got.rounds >= 2);
    assert_eq!(router.down_nodes(), vec![owner]);
}

/// One router's frames are independent of another's: a fresh router
/// holds nothing, so it asks for a key a warm router would answer.
#[test]
fn each_router_holds_only_its_own_frames() {
    let cluster = setup(8);
    let mut warm = last_frame_router(&cluster, "warm");
    warm.fetch(keys(0..4), vec![]);
    let mut fresh = last_frame_router(&cluster, "fresh");
    let got = fresh.fetch(keys(0..4), vec![]);
    assert_eq!(got.held, 0);
    assert_eq!(demand_admitted(&cluster), 4 + 4);
    assert_eq!(warm.fetch(keys(0..4), vec![]).held, 4);
}

// ---- the default capacity -------------------------------------------

#[test]
fn a_key_from_two_frames_back_is_held() {
    let cluster = setup(8);
    let mut router = cluster.router("viewer");
    router.fetch(keys(0..4), vec![]);
    router.fetch(keys(4..8), vec![]);
    assert_eq!(demand_admitted(&cluster), 8);

    let third = router.fetch(keys(0..4), vec![]);
    assert_payloads(&third.blocks, &keys(0..4));
    assert_eq!((third.held, third.rounds), (4, 0), "0..4 stayed in the tier under 4..8");
    assert_eq!(demand_admitted(&cluster), 8, "nothing reached an owner");
}
