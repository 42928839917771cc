//! Event-loop parts: a timer wheel + virtual readiness.
//!
//! Two pieces for a loop that steps many connections on one thread
//! without sleeping: a hashed [`TimerWheel`] that tracks thousands of
//! deadlines with O(1) schedule/cancel and no threads at all, and a
//! [`ReadySet`] that gives in-process pipes readiness semantics — a
//! producer marks its token, the loop takes the marked set each tick.
//! `viz-serve`'s deterministic `InProcServer` composes both, on a virtual
//! clock. Nothing here owns a thread or touches a socket.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Handle a scheduled timer; pass back to [`TimerWheel::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// Hashed timer wheel over caller-supplied nanosecond timestamps.
///
/// Deadlines hash into `slots` buckets by tick; expiry scans only the
/// buckets the clock passed since the last call, re-checking entries that
/// hashed in from a later lap. The clock is explicit — wall time, a bench
/// clock, or a test's virtual clock all work — which is what lets the
/// deterministic soak suite drive thousands of deadlines without
/// sleeping. Cancellation is O(1) (a tombstone map), and entries carry an
/// opaque `token` so callers map expiries back to their own state.
#[derive(Debug)]
pub struct TimerWheel {
    tick_ns: u64,
    slots: Vec<Vec<WheelEntry>>,
    /// Deadline by live timer id; the authority for cancel/len.
    live: HashMap<u64, u64>,
    next_id: u64,
    /// Wheel tick the last expiry sweep ended at.
    cursor: u64,
    started: bool,
}

#[derive(Debug, Clone, Copy)]
struct WheelEntry {
    id: u64,
    deadline_ns: u64,
    token: u64,
}

impl TimerWheel {
    /// A wheel with `slots` buckets of `tick_ns` granularity each.
    /// Deadlines resolve no finer than one tick.
    pub fn new(tick_ns: u64, slots: usize) -> Self {
        assert!(tick_ns > 0 && slots > 0, "wheel needs positive tick and slot count");
        TimerWheel {
            tick_ns,
            slots: (0..slots).map(|_| Vec::new()).collect(),
            live: HashMap::new(),
            next_id: 0,
            cursor: 0,
            started: false,
        }
    }

    /// Default shape for serving: 1 ms ticks, 512 slots (a half-second
    /// horizon before laps overlap — laps are handled, just rescanned).
    pub fn for_serving() -> Self {
        TimerWheel::new(1_000_000, 512)
    }

    /// Live (scheduled, not yet expired or cancelled) timers.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Schedule `token` to expire at `deadline_ns` on the caller's clock.
    pub fn schedule(&mut self, deadline_ns: u64, token: u64) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        let slot = ((deadline_ns / self.tick_ns) as usize) % self.slots.len();
        self.slots[slot].push(WheelEntry { id, deadline_ns, token });
        self.live.insert(id, deadline_ns);
        TimerId(id)
    }

    /// Cancel a timer; `false` when it already expired or was cancelled.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.live.remove(&id.0).is_some()
    }

    /// Sweep every bucket the clock passed since the last call and return
    /// the `(TimerId, token)` of each expired live timer, unordered.
    /// Cancelled tombstones are dropped on the way.
    pub fn expire(&mut self, now_ns: u64) -> Vec<(TimerId, u64)> {
        let mut fired = Vec::new();
        if self.live.is_empty() {
            // Nothing can fire, but keep the cursor moving so the next
            // schedule/expire pair does not rescan the whole gap.
            self.cursor = now_ns / self.tick_ns;
            self.started = true;
            return fired;
        }
        let now_tick = now_ns / self.tick_ns;
        // First sweep starts at bucket zero: anything scheduled before the
        // wheel ever expired must still be found (the span cap below bounds
        // the scan to one full lap regardless).
        let from = if self.started { self.cursor } else { 0 };
        // A full lap covers every bucket; more is pointless.
        let span = (now_tick - from.min(now_tick)).min(self.slots.len() as u64 - 1);
        for t in 0..=span {
            let slot = ((from + t) as usize) % self.slots.len();
            self.slots[slot].retain(|e| {
                if self.live.get(&e.id) != Some(&e.deadline_ns) {
                    return false; // cancelled tombstone
                }
                if e.deadline_ns <= now_ns {
                    self.live.remove(&e.id);
                    fired.push((TimerId(e.id), e.token));
                    return false;
                }
                true // hashed in from a later lap
            });
        }
        self.cursor = now_tick;
        self.started = true;
        fired
    }
}

fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Virtual readiness: what an in-process pipe reports in place of a
/// socket's readability.
///
/// Producers [`ReadyHandle::mark`] their token when they enqueue a frame;
/// the event loop [`ReadySet::take_ready`]s the set each tick and reads
/// from those tokens' pipes. A token is taken once however many frames
/// wait behind it, so a consumer that stops reading early (a connection
/// that parks a fetch) returns to the pipe itself: `InProcServer` does
/// when the fetch unparks.
#[derive(Debug, Default)]
pub struct ReadySet {
    ready: Mutex<Vec<u64>>,
}

impl ReadySet {
    /// An empty set.
    pub fn new() -> Arc<Self> {
        Arc::new(ReadySet::default())
    }

    /// Mark `token` ready (idempotent until taken).
    pub fn mark(&self, token: u64) {
        let mut r = relock(&self.ready);
        if !r.contains(&token) {
            r.push(token);
        }
    }

    /// Take and clear the ready tokens, in mark order.
    pub fn take_ready(&self) -> Vec<u64> {
        std::mem::take(&mut relock(&self.ready))
    }

    /// A producer-side handle that marks `token` on this set.
    pub fn handle(self: &Arc<Self>, token: u64) -> ReadyHandle {
        ReadyHandle { set: self.clone(), token }
    }
}

/// Producer-side handle: marks one token on its [`ReadySet`].
#[derive(Debug, Clone)]
pub struct ReadyHandle {
    set: Arc<ReadySet>,
    token: u64,
}

impl ReadyHandle {
    /// Mark the token ready.
    pub fn mark(&self) {
        self.set.mark(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_in_deadline_windows_not_before() {
        let mut w = TimerWheel::new(1_000, 16); // 1 us ticks
        let a = w.schedule(5_000, 0xA);
        let _b = w.schedule(9_000, 0xB);
        assert_eq!(w.len(), 2);
        assert!(w.expire(4_999).is_empty());
        let fired = w.expire(5_000);
        assert_eq!(fired, vec![(a, 0xA)]);
        assert_eq!(w.len(), 1);
        let fired = w.expire(20_000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, 0xB);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_cancel_is_a_tombstone() {
        let mut w = TimerWheel::new(1_000, 8);
        let a = w.schedule(3_000, 1);
        let b = w.schedule(3_000, 2);
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double cancel reports false");
        let fired = w.expire(10_000);
        assert_eq!(fired, vec![(b, 2)]);
        assert!(!w.cancel(b), "expired timers cannot be cancelled");
    }

    #[test]
    fn wheel_handles_laps_past_the_horizon() {
        // 4 slots of 1 us: a 10 us deadline laps the wheel twice.
        let mut w = TimerWheel::new(1_000, 4);
        let far = w.schedule(10_500, 7);
        let near = w.schedule(2_500, 3);
        // The far entry shares a bucket region with near ticks but must
        // not fire early.
        assert_eq!(w.expire(3_000), vec![(near, 3)]);
        assert!(w.expire(9_000).is_empty());
        assert_eq!(w.expire(11_000), vec![(far, 7)]);
    }

    #[test]
    fn wheel_expire_with_sparse_calls_only_scans_one_lap() {
        let mut w = TimerWheel::new(1_000, 8);
        let id = w.schedule(1_000_000_000, 9); // 1 s out
                                               // Huge clock jumps (sparse expiry calls) still find it, once.
        assert!(w.expire(500_000_000).is_empty());
        assert_eq!(w.expire(2_000_000_000), vec![(id, 9)]);
    }

    #[test]
    fn ready_set_is_idempotent_and_ordered() {
        let set = ReadySet::new();
        let h1 = set.handle(1);
        let h2 = set.handle(2);
        assert!(set.take_ready().is_empty());
        h2.mark();
        h1.mark();
        h2.mark(); // duplicate collapses
        assert_eq!(set.take_ready(), vec![2, 1]);
        assert!(set.take_ready().is_empty());
        h1.mark();
        assert_eq!(set.take_ready(), vec![1], "a handle marks its own token");
    }
}
