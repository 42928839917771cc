//! Deterministic chaos: seeded fault schedules driven through a
//! [`TestCluster`] on the virtual clock.
//!
//! A [`ChaosPlan`] is a list of `(step, action)` events — crash, restart,
//! fabric partition, slow storage, corrupted reply frames — generated
//! from a seed so every run replays exactly. [`run_plan`] executes the
//! plan step by step: apply the step's faults, run the router's
//! [`crate::Router::heartbeat`], route one frame of demand through the
//! router, and record what happened. The router is the cluster's one
//! failure detector (nodes dial nobody), so the report's two numbers
//! are the router's: steps from fault injection to *detection* (the
//! router marks the target down) and steps from the repair action to
//! *re-admission* (it no longer does) — alongside the invariant every
//! schedule must uphold: zero demand errors, no matter what the plan
//! did.

use crate::router::Router;
use crate::shard::{splitmix64, NodeId};
use crate::testing::TestCluster;
use std::path::Path;
use std::time::Duration;
use viz_telemetry::{instant, EventKind as Ev};
use viz_volume::{BlockId, BlockKey};

/// One fault (or repair) the harness can apply to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Remove the node from the fabric; the router fails its keys over
    /// along their ring successors.
    Crash(NodeId),
    /// Rebuild a crashed node over the shared store.
    Restart(NodeId),
    /// Refuse inbound frames to the node while it stays alive.
    Isolate(NodeId),
    /// Undo [`ChaosAction::Isolate`].
    Heal(NodeId),
    /// Inject this many microseconds of real sleep into each storage
    /// read the node performs.
    Slow(NodeId, u64),
    /// Undo [`ChaosAction::Slow`].
    Unslow(NodeId),
    /// Flip one byte in every reply frame the node serves (callers see
    /// CRC/decode failures).
    Corrupt(NodeId),
    /// Undo [`ChaosAction::Corrupt`].
    Uncorrupt(NodeId),
}

impl ChaosAction {
    /// `(fault family, is_repair)` for telemetry: families are Crash 0,
    /// Isolate 1, Slow 2, Corrupt 3; the repair bit marks the undo
    /// action. Packed into [`Ev::FaultInjected`]'s `arg` as
    /// `family << 1 | repair`.
    pub(crate) fn wire_code(&self) -> (u64, bool) {
        match *self {
            ChaosAction::Crash(_) => (0, false),
            ChaosAction::Restart(_) => (0, true),
            ChaosAction::Isolate(_) => (1, false),
            ChaosAction::Heal(_) => (1, true),
            ChaosAction::Slow(..) => (2, false),
            ChaosAction::Unslow(_) => (2, true),
            ChaosAction::Corrupt(_) => (3, false),
            ChaosAction::Uncorrupt(_) => (3, true),
        }
    }

    /// The node this action targets.
    pub fn target(&self) -> NodeId {
        match *self {
            ChaosAction::Crash(n)
            | ChaosAction::Restart(n)
            | ChaosAction::Isolate(n)
            | ChaosAction::Heal(n)
            | ChaosAction::Slow(n, _)
            | ChaosAction::Unslow(n)
            | ChaosAction::Corrupt(n)
            | ChaosAction::Uncorrupt(n) => n,
        }
    }
}

/// One scheduled action.
#[derive(Debug, Clone, Copy)]
pub struct ChaosEvent {
    /// The driver step (0-based) at which the action applies.
    pub step: u32,
    /// What happens.
    pub action: ChaosAction,
}

/// A replayable fault schedule.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Events in step order (ties applied in list order).
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// A seeded schedule over `steps` driver steps against node ids
    /// `0..nodes` (`nodes >= 2`, or every fault would be unroutable).
    ///
    /// The generator keeps the schedule *survivable by construction*:
    /// one fault window at a time, every fault paired with its repair a
    /// few steps later, and a quiet tail so the last repair's
    /// re-admission resolves inside the plan. Randomness (from
    /// `splitmix64` over the seed) decides fault kind, target, window
    /// length, and gaps — not whether the plan is fair.
    pub fn seeded(seed: u64, nodes: u32, steps: u32) -> ChaosPlan {
        assert!(nodes >= 2, "chaos plans need at least two nodes");
        let mut ctr = seed;
        let mut rnd = move || {
            ctr = ctr.wrapping_add(1);
            splitmix64(ctr)
        };
        let tail = 8u32; // quiet steps reserved for the last re-admission
        let mut events = Vec::new();
        let mut step = 2u32;
        while step + tail < steps {
            let node = NodeId((rnd() % u64::from(nodes)) as u32);
            let window = 2 + (rnd() % 3) as u32;
            if step + window + tail >= steps {
                break;
            }
            let (fault, repair) = match rnd() % 4 {
                0 => (ChaosAction::Crash(node), ChaosAction::Restart(node)),
                1 => (ChaosAction::Isolate(node), ChaosAction::Heal(node)),
                2 => {
                    let micros = 200 + rnd() % 600;
                    (ChaosAction::Slow(node, micros), ChaosAction::Unslow(node))
                }
                _ => (ChaosAction::Corrupt(node), ChaosAction::Uncorrupt(node)),
            };
            events.push(ChaosEvent { step, action: fault });
            events.push(ChaosEvent { step: step + window, action: repair });
            step += window + 2 + (rnd() % 3) as u32;
        }
        ChaosPlan { events }
    }
}

/// Demand keys [`run_plan`] routes per step (a rotating window over
/// [`KEY_SPACE`]).
const DEMAND_PER_STEP: u32 = 8;

/// Distinct block keys the workload cycles through (seeded into the
/// shared store up front).
const KEY_SPACE: u32 = 64;

/// What a plan run observed.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Driver steps executed.
    pub steps: u32,
    /// Demand blocks requested across all steps.
    pub demand_blocks: u64,
    /// Demand blocks that came back as errors — the invariant says 0.
    pub demand_errors: u64,
    /// Steps from each unreachability fault (crash, isolate, corrupt)
    /// to the router marking the target down.
    pub detections: Vec<u32>,
    /// Steps from each repair action to re-admission (the router's down
    /// mark cleared).
    pub recoveries: Vec<u32>,
    /// Virtual ticks each step's demand frame took.
    pub frame_ticks: Vec<u64>,
    /// Flight-recorder triggers observed during the run (0 with the
    /// telemetry gate off).
    pub triggers: u64,
    /// Events written to the flight dump, when one was triggered and
    /// [`run_plan`] was given a dump path.
    pub dump_events: u64,
}

fn chaos_key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

/// Whether the router currently holds `target` unreachable.
fn marked(router: &Router, target: NodeId) -> bool {
    router.down_nodes().contains(&target)
}

/// Execute `plan` (see module docs). Per step: apply due actions, run
/// the router's heartbeat, route one demand frame, and update the
/// detection/recovery trackers.
///
/// With `flight_dump` set, the first flight-recorder trigger observed
/// during the run writes a cluster flight dump there (read it back with
/// [`crate::read_flight_dump`]) — the injected fault's cross-node
/// timeline, reconstructable offline. Requires the telemetry gate on to
/// observe anything.
///
/// # Panics
///
/// When `router`'s client tier holds a step's whole demand window: that
/// frame reaches no node, so a fault it overlaps proves nothing. The
/// window moves three keys a step over 64, so a tier that holds more
/// than the last frame (the default) holds every window after a lap;
/// build the router with
/// [`with_tier`](Router::with_tier)`(`[`ClientTier::with_capacity`]`(0))`.
///
/// [`ClientTier::with_capacity`]: viz_serve::ClientTier::with_capacity
pub fn run_plan(
    cluster: &mut TestCluster,
    router: &mut Router,
    plan: &ChaosPlan,
    flight_dump: Option<&Path>,
) -> ChaosReport {
    for i in 0..KEY_SPACE {
        cluster.insert(chaos_key(i), vec![i as f32; 8]);
    }
    let steps = plan.events.iter().map(|e| e.step + 1).max().unwrap_or(0) + 8;
    let mut report = ChaosReport::default();
    // Faults awaiting detection / repairs awaiting re-admission, each
    // with the step its action applied.
    let mut pending_detect: Vec<(NodeId, u32)> = Vec::new();
    let mut pending_recover: Vec<(NodeId, u32)> = Vec::new();
    for step in 0..steps {
        for ev in plan.events.iter().filter(|e| e.step == step) {
            let target = ev.action.target();
            // The injection lands on the timeline *before* its effects,
            // so a reconstructed trace shows cause then symptom.
            let (family, repair) = ev.action.wire_code();
            instant(Ev::FaultInjected, u64::from(target.0), family << 1 | u64::from(repair));
            match ev.action {
                ChaosAction::Crash(n) => cluster.crash_node(n),
                ChaosAction::Restart(n) => cluster.restart_node(n),
                ChaosAction::Isolate(n) => cluster.isolate(n),
                ChaosAction::Heal(n) => cluster.heal(n),
                ChaosAction::Slow(n, micros) => {
                    cluster.set_read_delay(n, Duration::from_micros(micros));
                }
                ChaosAction::Unslow(n) => cluster.set_read_delay(n, Duration::ZERO),
                ChaosAction::Corrupt(n) => cluster.corrupt_from(n, true),
                ChaosAction::Uncorrupt(n) => cluster.corrupt_from(n, false),
            }
            match ev.action {
                ChaosAction::Crash(_) | ChaosAction::Isolate(_) | ChaosAction::Corrupt(_) => {
                    pending_detect.push((target, step));
                    pending_recover.retain(|(n, _)| *n != target);
                }
                ChaosAction::Restart(_) | ChaosAction::Heal(_) | ChaosAction::Uncorrupt(_) => {
                    pending_recover.push((target, step));
                    // An undetected fault that already got repaired has
                    // nothing left to detect.
                    pending_detect.retain(|(n, _)| *n != target);
                }
                ChaosAction::Slow(..) | ChaosAction::Unslow(_) => {}
            }
        }
        router.heartbeat();
        // A rotating demand window so ownership of the requested keys
        // moves across nodes over the run.
        let demand: Vec<BlockKey> = (0..DEMAND_PER_STEP)
            .map(|i| chaos_key((step.wrapping_mul(3) + i) % KEY_SPACE))
            .collect();
        let t0 = cluster.clock().now();
        let reply = router.fetch(demand, Vec::new());
        assert!(
            reply.held < DEMAND_PER_STEP,
            "step {step}: the router's tier held the whole window, so no node saw the frame"
        );
        report.frame_ticks.push(cluster.clock().now() - t0);
        report.demand_blocks += reply.blocks.len() as u64;
        report.demand_errors += reply.blocks.iter().filter(|b| b.result.is_err()).count() as u64;
        pending_detect.retain(|&(n, since)| {
            if marked(router, n) {
                report.detections.push(step - since);
                false
            } else {
                true
            }
        });
        pending_recover.retain(|&(n, since)| {
            if !marked(router, n) {
                report.recoveries.push(step - since);
                false
            } else {
                true
            }
        });
        // Pump the rings through the flight recorder and poll its
        // triggers: the first one during the run cuts the dump.
        if viz_telemetry::enabled() {
            let _ = viz_telemetry::drain();
            let fired = viz_telemetry::flight::take_triggers();
            report.triggers += fired.len() as u64;
            if !fired.is_empty() && report.dump_events == 0 {
                if let Some(path) = flight_dump {
                    let mut snap = viz_telemetry::flight::snapshot_history();
                    snap.triggers = fired;
                    let sections = crate::obs::sections_from_snapshot(&snap);
                    if let Ok(n) = crate::obs::write_flight_dump(path, &sections) {
                        report.dump_events = n;
                    }
                }
            }
        }
    }
    report.steps = steps;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_replay_and_pair_every_fault() {
        let a = ChaosPlan::seeded(42, 4, 40);
        let b = ChaosPlan::seeded(42, 4, 40);
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.step, y.step);
            assert_eq!(x.action, y.action);
        }
        assert!(!a.events.is_empty());
        // Every fault has a later repair on the same node.
        for (i, ev) in a.events.iter().enumerate() {
            let repair = match ev.action {
                ChaosAction::Crash(n) => Some(ChaosAction::Restart(n)),
                ChaosAction::Isolate(n) => Some(ChaosAction::Heal(n)),
                ChaosAction::Slow(n, _) => Some(ChaosAction::Unslow(n)),
                ChaosAction::Corrupt(n) => Some(ChaosAction::Uncorrupt(n)),
                _ => None,
            };
            if let Some(repair) = repair {
                assert!(
                    a.events[i + 1..].iter().any(|e| e.action == repair && e.step > ev.step),
                    "unpaired fault {:?}",
                    ev.action
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosPlan::seeded(1, 4, 60);
        let b = ChaosPlan::seeded(2, 4, 60);
        let same = a.events.len() == b.events.len()
            && a.events.iter().zip(&b.events).all(|(x, y)| x.action == y.action);
        assert!(!same, "seeds should produce distinct schedules");
    }
}
