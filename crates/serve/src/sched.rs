//! Deficit-round-robin fairness across sessions, within each priority
//! class.
//!
//! Every session owns two FIFO lanes — demand and prefetch — and the
//! scheduler drains them round-robin with a per-visit deficit refill of
//! `quantum` requests: a client flooding 10,000 prefetches cannot starve
//! a client asking for 4, because each visit serves at most `quantum`
//! entries before the cursor moves on. Demand and prefetch run separate
//! cursors so a demand burst never charges a session's prefetch deficit.
//! The scheduler holds requests *before* the engine; the pump moves them
//! into the shared [`viz_fetch::FetchEngine`] in the fair order, bounded
//! by the engine backlog target.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Sender;
use viz_fetch::Ticket;
use viz_volume::BlockKey;

/// A queued demand request; the ticket is routed back to the waiting
/// connection handler through `tx` when the pump issues it.
pub(crate) struct DemandEntry {
    pub key: BlockKey,
    pub tx: Sender<(BlockKey, Ticket)>,
    /// Trace context of the submitting request; the pump restores it
    /// around engine admission so the engine's events stay attributed
    /// even though they run on the pump thread.
    pub trace: u64,
}

/// A queued prefetch request.
pub(crate) struct PrefetchEntry {
    pub key: BlockKey,
    pub pri: f64,
    /// Session generation at submit; `purge_prefetch` drops entries from
    /// earlier generations when the client advances its frame.
    pub gen: u64,
}

#[derive(Default)]
struct SessQueue {
    demand: VecDeque<DemandEntry>,
    prefetch: VecDeque<PrefetchEntry>,
    d_deficit: u32,
    p_deficit: u32,
}

/// Two-class DRR scheduler (see module docs).
#[derive(Default)]
pub(crate) struct Scheduler {
    queues: HashMap<u32, SessQueue>,
    order: Vec<u32>,
    d_cursor: usize,
    p_cursor: usize,
    d_total: usize,
    p_total: usize,
}

impl Scheduler {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn add_session(&mut self, sid: u32) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.queues.entry(sid) {
            e.insert(SessQueue::default());
            self.order.push(sid);
        }
    }

    /// Drop a session's lanes; returns `(demand, prefetch)` entries
    /// discarded (demand senders drop, unblocking any waiter with a
    /// disconnect).
    pub(crate) fn remove_session(&mut self, sid: u32) -> (usize, usize) {
        let Some(q) = self.queues.remove(&sid) else {
            return (0, 0);
        };
        self.order.retain(|&s| s != sid);
        self.d_total -= q.demand.len();
        self.p_total -= q.prefetch.len();
        (q.demand.len(), q.prefetch.len())
    }

    pub(crate) fn push_demand(&mut self, sid: u32, e: DemandEntry) {
        self.add_session(sid);
        self.queues.get_mut(&sid).unwrap().demand.push_back(e);
        self.d_total += 1;
    }

    pub(crate) fn push_prefetch(&mut self, sid: u32, e: PrefetchEntry) {
        self.add_session(sid);
        self.queues.get_mut(&sid).unwrap().prefetch.push_back(e);
        self.p_total += 1;
    }

    /// Discard a session's queued prefetch older than `cur_gen`.
    pub(crate) fn purge_prefetch(&mut self, sid: u32, cur_gen: u64) -> usize {
        let Some(q) = self.queues.get_mut(&sid) else {
            return 0;
        };
        let before = q.prefetch.len();
        q.prefetch.retain(|e| e.gen >= cur_gen);
        let dropped = before - q.prefetch.len();
        self.p_total -= dropped;
        dropped
    }

    /// Entries a session has queued in its prefetch lane.
    pub(crate) fn queued_prefetch(&self, sid: u32) -> usize {
        self.queues.get(&sid).map_or(0, |q| q.prefetch.len())
    }

    pub(crate) fn queued_demand_total(&self) -> usize {
        self.d_total
    }

    pub(crate) fn queued_prefetch_total(&self) -> usize {
        self.p_total
    }

    /// Pop the next demand entry in DRR order.
    pub(crate) fn pop_next_demand(&mut self, quantum: u32) -> Option<(u32, DemandEntry)> {
        if self.d_total == 0 {
            return None;
        }
        let n = self.order.len();
        let mut visited = 0;
        loop {
            debug_assert!(visited <= n, "DRR walk looped past every session");
            let idx = self.d_cursor % n;
            let sid = self.order[idx];
            let q = self.queues.get_mut(&sid).unwrap();
            if q.demand.is_empty() {
                q.d_deficit = 0;
                self.d_cursor = (idx + 1) % n;
                visited += 1;
                continue;
            }
            if q.d_deficit == 0 {
                q.d_deficit = quantum.max(1);
            }
            let e = q.demand.pop_front().unwrap();
            q.d_deficit -= 1;
            self.d_total -= 1;
            if q.d_deficit == 0 || q.demand.is_empty() {
                if q.demand.is_empty() {
                    q.d_deficit = 0;
                }
                self.d_cursor = (idx + 1) % n;
            }
            return Some((sid, e));
        }
    }

    /// Pop the next prefetch entry in DRR order.
    pub(crate) fn pop_next_prefetch(&mut self, quantum: u32) -> Option<(u32, PrefetchEntry)> {
        if self.p_total == 0 {
            return None;
        }
        let n = self.order.len();
        let mut visited = 0;
        loop {
            debug_assert!(visited <= n, "DRR walk looped past every session");
            let idx = self.p_cursor % n;
            let sid = self.order[idx];
            let q = self.queues.get_mut(&sid).unwrap();
            if q.prefetch.is_empty() {
                q.p_deficit = 0;
                self.p_cursor = (idx + 1) % n;
                visited += 1;
                continue;
            }
            if q.p_deficit == 0 {
                q.p_deficit = quantum.max(1);
            }
            let e = q.prefetch.pop_front().unwrap();
            q.p_deficit -= 1;
            self.p_total -= 1;
            if q.p_deficit == 0 || q.prefetch.is_empty() {
                if q.prefetch.is_empty() {
                    q.p_deficit = 0;
                }
                self.p_cursor = (idx + 1) % n;
            }
            return Some((sid, e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use viz_volume::BlockId;

    fn pe(i: u32, gen: u64) -> PrefetchEntry {
        PrefetchEntry { key: BlockKey::scalar(BlockId(i)), pri: 1.0, gen }
    }

    #[test]
    fn drr_interleaves_a_flood_with_a_trickle() {
        let mut s = Scheduler::new();
        for i in 0..12 {
            s.push_prefetch(1, pe(i, 0));
        }
        for i in 100..103 {
            s.push_prefetch(2, pe(i, 0));
        }
        let order: Vec<u32> =
            std::iter::from_fn(|| s.pop_next_prefetch(2)).map(|(sid, _)| sid).collect();
        // Quantum 2: the flood gets 2, the trickle gets 2, and so on — the
        // trickle's last entry leaves within the third round, not after all
        // 12 flood entries.
        assert_eq!(order.len(), 15);
        let trickle_done = order.iter().rposition(|&s| s == 2).unwrap();
        assert!(trickle_done <= 8, "trickle finished at {trickle_done}: {order:?}");
        assert_eq!(&order[..4], &[1, 1, 2, 2]);
    }

    #[test]
    fn demand_and_prefetch_cursors_are_independent() {
        let mut s = Scheduler::new();
        let (tx, _rx) = channel();
        for i in 0..4 {
            s.push_demand(
                1,
                DemandEntry { key: BlockKey::scalar(BlockId(i)), tx: tx.clone(), trace: 0 },
            );
        }
        s.push_prefetch(2, pe(9, 0));
        assert_eq!(s.queued_demand_total(), 4);
        assert_eq!(s.pop_next_prefetch(1).unwrap().0, 2, "session 1's demand burst is no charge");
        assert_eq!(s.pop_next_demand(1).unwrap().0, 1);
        assert_eq!((s.queued_demand_total(), s.queued_prefetch_total()), (3, 0));
    }

    #[test]
    fn purge_drops_only_stale_generations() {
        let mut s = Scheduler::new();
        s.push_prefetch(1, pe(0, 1));
        s.push_prefetch(1, pe(1, 2));
        s.push_prefetch(1, pe(2, 3));
        assert_eq!(s.queued_prefetch(1), 3);
        assert_eq!(s.purge_prefetch(1, 3), 2);
        assert_eq!(s.queued_prefetch(1), 1);
        assert_eq!(s.queued_prefetch_total(), 1);
    }

    #[test]
    fn remove_session_reports_dropped_entries() {
        let mut s = Scheduler::new();
        let (tx, _rx) = channel();
        s.push_demand(5, DemandEntry { key: BlockKey::scalar(BlockId(0)), tx, trace: 0 });
        s.push_prefetch(5, pe(1, 0));
        s.push_prefetch(5, pe(2, 0));
        assert_eq!(s.remove_session(5), (1, 2));
        assert_eq!(s.remove_session(5), (0, 0));
        assert!(s.pop_next_demand(4).is_none());
        assert!(s.pop_next_prefetch(4).is_none());
    }
}
