//! The resilience layer under deterministic chaos: seeded fault
//! schedules (crash, restart, partition, slow storage, corrupted
//! frames), and the router's down marks and probe re-admission — all on
//! the in-process cluster with the virtual clock, so every run replays.
//!
//! The invariant every test enforces: demand never errors because of
//! cluster topology. Faults cost locality or latency, never
//! availability.

use std::sync::Mutex;
use viz_cluster::chaos::run_plan;
use viz_cluster::{
    ChaosAction, ChaosPlan, NodeId, Router, RouterConfig, ShardStrategy, TestCluster,
};
use viz_serve::ClientTier;
use viz_telemetry::EventKind;
use viz_volume::{BlockId, BlockKey};

/// Serializes the tests that enable + drain the global telemetry trace,
/// and the ones whose `run_plan` drains it while another has it enabled.
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

fn owned_by(cluster: &TestCluster, keys: &[BlockKey], node: NodeId) -> Vec<BlockKey> {
    keys.iter().copied().filter(|&k| cluster.map().owner(k) == Some(node)).collect()
}

/// `router` with a tier that holds the last frame only, so each step of
/// [`run_plan`]'s rotating window sends its new keys to the nodes.
fn last_frame_only(router: Router) -> Router {
    router.with_tier(ClientTier::with_capacity(0))
}

/// Split `keys` into its even and odd positions: two disjoint windows,
/// so a router that fetched one holds none of the other and a frame on
/// the other reaches the nodes.
fn halves(keys: &[BlockKey]) -> [Vec<BlockKey>; 2] {
    let half = |parity| keys.iter().copied().skip(parity).step_by(2).collect();
    [half(0), half(1)]
}

#[test]
fn seeded_plans_zero_demand_errors_across_seeds() {
    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    for seed in [11u64, 17, 23] {
        let mut cluster = TestCluster::new(4, ShardStrategy::Ring);
        let mut router = last_frame_only(cluster.router("chaos"));
        let plan = ChaosPlan::seeded(seed, 4, 40);
        assert!(!plan.events.is_empty(), "seed {seed}: plan scheduled nothing");
        let faults = plan
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.action,
                    ChaosAction::Crash(_) | ChaosAction::Isolate(_) | ChaosAction::Corrupt(_)
                )
            })
            .count();
        let repairs = plan
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.action,
                    ChaosAction::Restart(_) | ChaosAction::Heal(_) | ChaosAction::Uncorrupt(_)
                )
            })
            .count();

        let report = run_plan(&mut cluster, &mut router, &plan, None);

        assert_eq!(report.demand_errors, 0, "seed {seed}: demand must never error");
        assert!(report.demand_blocks > 0, "seed {seed}: the workload ran");
        assert_eq!(
            report.detections.len(),
            faults,
            "seed {seed}: every unreachability fault was detected"
        );
        assert_eq!(
            report.recoveries.len(),
            repairs,
            "seed {seed}: every repaired node was re-admitted"
        );
        assert!(
            report.detections.iter().all(|&d| d <= 2),
            "seed {seed}: detection within 2 steps, got {:?}",
            report.detections
        );
        assert!(
            report.recoveries.iter().all(|&r| r <= 3),
            "seed {seed}: re-admission within 3 steps, got {:?}",
            report.recoveries
        );
        assert!(router.down_nodes().is_empty(), "seed {seed}: nothing down once healed");
        assert_eq!(cluster.live_nodes().len(), 4, "seed {seed}: every crashed node restarted");
    }
}

#[test]
fn seeded_plan_replays_identically() {
    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    let mut c1 = TestCluster::new(4, ShardStrategy::Ring);
    let mut r1 = last_frame_only(c1.router("a"));
    let mut c2 = TestCluster::new(4, ShardStrategy::Ring);
    let mut r2 = last_frame_only(c2.router("a"));
    let plan = ChaosPlan::seeded(17, 4, 40);
    let a = run_plan(&mut c1, &mut r1, &plan, None);
    let b = run_plan(&mut c2, &mut r2, &plan, None);
    assert_eq!(a.demand_blocks, b.demand_blocks);
    assert_eq!(a.demand_errors, b.demand_errors);
    assert_eq!(a.detections, b.detections);
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(a.frame_ticks, b.frame_ticks);
}

/// The router-revival regression: a node that crashed (marked down) and
/// restarted can only re-admit through the periodic probe — nothing else
/// clears the flag for it.
#[test]
fn crashed_then_restarted_node_resumes_traffic_via_probe() {
    let mut cluster = TestCluster::new(3, ShardStrategy::Ring);
    let keys = seed(&cluster, 96);
    // Alternating halves reach the nodes on every frame.
    let mut router =
        last_frame_only(cluster.router_with("viewer", RouterConfig { probe_every: 4 }));
    let victim = NodeId(1);
    let owned = owned_by(&cluster, &keys, victim);
    assert!(!owned.is_empty());
    // Each frame asks for the half of the victim's keys the last frame
    // did not carry, so the router's tier holds none of it and every
    // frame reaches the victim (or fails over from it).
    let windows = halves(&owned);
    assert!(windows.iter().all(|w| !w.is_empty()));

    let r = router.fetch(windows[0].clone(), vec![]);
    assert!(r.blocks.iter().all(|b| b.result.is_ok()));
    assert!(cluster.reads(victim) > 0, "the victim served its keys before the crash");

    // Crash: the next frame fails over whole and marks the node down.
    cluster.crash_node(victim);
    let r = router.fetch(windows[1].clone(), vec![]);
    assert_eq!(r.held, 0, "every key of the frame was asked");
    assert!(r.blocks.iter().all(|b| b.result.is_ok()), "failover keeps demand whole");
    assert_eq!(router.down_nodes(), vec![victim]);

    // Restart: only the probe can re-admit.
    cluster.restart_node(victim);
    let before = cluster.reads(victim);
    let mut readmitted = false;
    for frame in 0..8 {
        let r = router.fetch(windows[frame % 2].clone(), vec![]);
        assert_eq!(r.held, 0, "frame {frame}: every key was asked");
        assert!(r.blocks.iter().all(|b| b.result.is_ok()));
        if router.down_nodes().is_empty() {
            readmitted = true;
            break;
        }
    }
    assert!(readmitted, "the periodic probe re-admitted the restarted node");
    // The re-admitting frame itself routed to the victim (cold pool →
    // storage reads through its tap).
    assert!(cluster.reads(victim) > before, "the restarted node serves its keys again");
}

/// A heartbeat marks an unreachable node down, so demand routes around
/// it *before* any fetch pays for the discovery, and a heartbeat after
/// the heal re-admits it.
#[test]
fn isolation_suspects_and_heal_readmits_with_zero_errors() {
    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    viz_telemetry::set_enabled(true);
    let _ = viz_telemetry::drain();

    let cluster = TestCluster::new(3, ShardStrategy::Ring);
    let keys = seed(&cluster, 96);
    let victim = NodeId(2);
    let owned = owned_by(&cluster, &keys, victim);
    assert!(!owned.is_empty());
    let mut router = cluster.router("viewer");

    cluster.isolate(victim);
    assert_eq!(router.heartbeat(), 2, "only the two reachable nodes answered");
    assert_eq!(router.down_nodes(), vec![victim], "the heartbeat marked the isolated node");

    // Demand lands on a healthy replica up front: one round, zero
    // errors, and nothing reaches the victim.
    let victim_reads = cluster.reads(victim);
    let r = router.fetch(owned.clone(), vec![]);
    assert_eq!(r.held, 0, "every key of the frame was asked");
    assert!(r.blocks.iter().all(|b| b.result.is_ok()));
    assert_eq!(r.rounds, 1, "no failed round: the victim was routed around up front");
    assert_eq!(cluster.reads(victim), victim_reads, "the down node saw no demand");

    cluster.heal(victim);
    assert_eq!(router.heartbeat(), 3, "every node answered after the heal");
    assert!(router.down_nodes().is_empty(), "re-admitted after heal");

    let trace = viz_telemetry::drain();
    assert!(trace.count(EventKind::NodeRecovered) >= 1, "re-admission recorded");
    viz_telemetry::set_enabled(false);
}
