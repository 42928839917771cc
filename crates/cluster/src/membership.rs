//! Failure detection: deadline-based suspicion over heartbeat acks.
//!
//! Each participant (node or router) keeps one [`Membership`] view of its
//! peers. Evidence is *directional*: only the outcomes of this
//! participant's own probes count — a successful `Pong` to our `Ping` is
//! positive evidence ([`Membership::note_ok`]), while inbound traffic
//! from a peer proves nothing about whether *we* can reach *it* (under
//! an asymmetric partition the unreachable node's outbound pings still
//! arrive, and must not clear the suspicion routing depends on). A
//! probe's transport failure is
//! immediate negative evidence ([`Membership::note_fail`]); and
//! [`Membership::sweep`] applies the deadline rule: a peer whose last
//! positive evidence is older than the detector's `suspect_after`
//! becomes *suspect*. Suspect peers are excluded from demand routing
//! proactively — the read path skips them before paying a timeout — and
//! re-admitted the moment a probe succeeds.
//!
//! Time is a caller-supplied monotonic `u64` so the same detector runs on
//! the deterministic virtual clock (ticks) in tests and on wall-clock
//! milliseconds in deployments.

use crate::shard::NodeId;
use std::collections::HashMap;
use viz_telemetry::{instant, EventKind as Ev};

#[derive(Debug, Clone, Copy)]
struct PeerHealth {
    last_ok: u64,
    suspect: bool,
}

/// One participant's live view of its peers (see module docs).
#[derive(Debug)]
pub struct Membership {
    /// A peer with no positive evidence for this long (in the caller's
    /// clock units) becomes suspect at the next [`Membership::sweep`].
    suspect_after: u64,
    peers: HashMap<u32, PeerHealth>,
}

impl Membership {
    /// An empty view that suspects a peer silent for longer than
    /// `suspect_after`; peers register on first evidence.
    pub fn new(suspect_after: u64) -> Membership {
        Membership { suspect_after, peers: HashMap::new() }
    }

    /// Record positive evidence for `peer` at `now`. Returns `true` when
    /// this re-admitted a suspect (emitting [`Ev::NodeRecovered`]).
    pub(crate) fn note_ok(&mut self, peer: NodeId, now: u64) -> bool {
        let h = self.peers.entry(peer.0).or_insert(PeerHealth { last_ok: now, suspect: false });
        h.last_ok = now;
        let recovered = h.suspect;
        h.suspect = false;
        if recovered {
            instant(Ev::NodeRecovered, u64::from(peer.0), 0);
        }
        recovered
    }

    /// Record a hard failure (transport error, refused connection) for
    /// `peer`: immediate suspicion, no deadline wait. Returns `true` when
    /// the peer was not already suspect (emitting [`Ev::SuspectNode`]).
    pub(crate) fn note_fail(&mut self, peer: NodeId) -> bool {
        let h = self.peers.entry(peer.0).or_insert(PeerHealth { last_ok: 0, suspect: false });
        let newly = !h.suspect;
        h.suspect = true;
        if newly {
            instant(Ev::SuspectNode, u64::from(peer.0), 1);
        }
        newly
    }

    /// Apply the deadline rule at `now`: peers silent longer than
    /// `suspect_after` become suspect. Returns the
    /// newly suspected peers, sorted.
    pub fn sweep(&mut self, now: u64) -> Vec<NodeId> {
        let mut newly = Vec::new();
        for (&id, h) in &mut self.peers {
            if !h.suspect && now.saturating_sub(h.last_ok) > self.suspect_after {
                h.suspect = true;
                instant(Ev::SuspectNode, u64::from(id), 0);
                newly.push(NodeId(id));
            }
        }
        newly.sort();
        newly
    }

    /// Whether `peer` is currently suspect. Unknown peers are healthy:
    /// absence of evidence is not evidence of death.
    pub fn is_suspect(&self, peer: NodeId) -> bool {
        self.peers.get(&peer.0).is_some_and(|h| h.suspect)
    }

    /// Currently suspect peers, sorted.
    pub fn suspects(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            self.peers.iter().filter(|(_, h)| h.suspect).map(|(&id, _)| NodeId(id)).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(suspect_after: u64) -> Membership {
        Membership::new(suspect_after)
    }

    #[test]
    fn deadline_lapse_marks_suspect_and_probe_recovers() {
        let mut mem = m(10);
        mem.note_ok(NodeId(1), 0);
        mem.note_ok(NodeId(2), 0);
        assert!(mem.sweep(10).is_empty(), "deadline is exclusive");
        mem.note_ok(NodeId(2), 11);
        assert_eq!(mem.sweep(11), vec![NodeId(1)]);
        assert!(mem.is_suspect(NodeId(1)));
        assert!(!mem.is_suspect(NodeId(2)));
        // A successful probe re-admits immediately.
        assert!(mem.note_ok(NodeId(1), 12));
        assert!(!mem.is_suspect(NodeId(1)));
        assert_eq!(mem.suspects(), Vec::<NodeId>::new());
    }

    #[test]
    fn hard_failure_suspects_without_waiting() {
        let mut mem = m(1_000_000);
        mem.note_ok(NodeId(3), 5);
        assert!(mem.note_fail(NodeId(3)));
        assert!(!mem.note_fail(NodeId(3)), "already suspect");
        assert_eq!(mem.suspects(), vec![NodeId(3)]);
    }

    #[test]
    fn unknown_peers_are_healthy_and_sweep_is_idempotent() {
        let mut mem = m(10);
        assert!(!mem.is_suspect(NodeId(9)));
        mem.note_ok(NodeId(1), 0);
        assert_eq!(mem.sweep(100), vec![NodeId(1)]);
        assert!(mem.sweep(200).is_empty(), "no double suspicion");
    }
}
