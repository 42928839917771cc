//! Per-thread SPSC event rings and the global registry that drains them.
//!
//! Each recording thread owns one [`Ring`] (via a thread-local), so pushes
//! are single-producer and never contend: a push is two relaxed loads, a
//! slot write, and one release store. The drain side (any thread) takes
//! the registry mutex, walks every ring, and consumes `[tail, head)` with
//! acquire/release pairing on `head`/`tail` — the only cross-thread
//! synchronization in the crate.
//!
//! Overflow policy is *drop-newest*: a full ring counts the event in
//! `dropped` and moves on, so a stalled drain can never block or corrupt a
//! producer. Dropped counts surface in [`crate::Trace::dropped`].

use crate::event::{EventKind, TraceEvent};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Events per thread ring. Power of two; 8192 × 48 B = 384 KiB per
/// recording thread, enough for ~80 ms of saturated fetch traffic between
/// drains.
pub(crate) const RING_CAP: usize = 1 << 13;

/// Events dropped across all rings since process start. Unlike each
/// ring's own counter (reset by every drain so [`crate::Trace::dropped`]
/// covers just that window), this one only grows — the Prometheus
/// exporter and serve wire counters read it so silent loss is visible
/// from a remote scraper even when drains race.
static DROPPED_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Cumulative count of events dropped by full rings, process lifetime.
pub fn dropped_total() -> u64 {
    DROPPED_TOTAL.load(Ordering::Relaxed)
}

pub(crate) struct Ring {
    buf: Box<[UnsafeCell<TraceEvent>]>,
    /// Next write slot (monotonic; slot = head % len). Producer-owned,
    /// release-stored so the consumer sees slot writes.
    head: AtomicUsize,
    /// Next unread slot (monotonic). Consumer-owned, release-stored so the
    /// producer sees freed capacity.
    tail: AtomicUsize,
    dropped: AtomicU64,
    tid: u16,
}

// SAFETY: slot access is disciplined by the head/tail protocol below —
// the owning thread writes only slots in [head, tail + cap), the draining
// thread reads only [tail, head), and the release/acquire pairs on `head`
// (producer→consumer) and `tail` (consumer→producer) order the slot
// accesses on both sides.
unsafe impl Send for Ring {}
// SAFETY: shared `&Ring`s reach the `UnsafeCell` slots from at most two
// threads at once, one per side of that protocol: `push` runs only on the
// owning thread (the thread-local behind `with_local`), and `drain_into`
// only under the registry lock, so there is one consumer at a time. The
// two sides never touch one slot together: a slot is written only while
// it is outside [tail, head) and read only while inside it, and the
// release/acquire pairs order each write before its read and each read
// before the slot is reused. Everything else in a `Ring` is atomic or
// never written after `new`.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(tid: u16) -> Ring {
        let zero = TraceEvent {
            t_ns: 0,
            dur_ns: 0,
            key: 0,
            arg: 0,
            trace: 0,
            kind: EventKind::FetchAdmitDemand,
            tid: 0,
            node: 0,
        };
        Ring {
            buf: (0..RING_CAP).map(|_| UnsafeCell::new(zero)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            tid,
        }
    }

    /// Record one event. Must only be called by the ring's owning thread
    /// (guaranteed by the thread-local in [`with_local`]).
    pub(crate) fn push(&self, mut ev: TraceEvent) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= self.buf.len() {
            // Full: drop-newest so the producer never stalls. The global
            // total only moves on this (overflow) path, never per-push.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            DROPPED_TOTAL.fetch_add(1, Ordering::Relaxed);
            return;
        }
        ev.tid = self.tid;
        let slot = head % self.buf.len();
        // SAFETY: `[tail, head)` is unread by us and `head` hasn't been
        // published yet, so slot `head % len` is exclusively ours; the
        // release store below publishes the write before the consumer can
        // read it.
        unsafe { *self.buf[slot].get() = ev };
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    /// Consume all pending events into `out`. Caller must hold the
    /// registry lock (serializing consumers).
    fn drain_into(&self, out: &mut Vec<TraceEvent>) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        while tail != head {
            let slot = tail % self.buf.len();
            // SAFETY: `tail < head` (mod wrap), so the producer published
            // this slot via its release store on `head`, which our acquire
            // load observed; it won't overwrite it until we advance `tail`.
            out.push(unsafe { *self.buf[slot].get() });
            tail = tail.wrapping_add(1);
        }
        self.tail.store(tail, Ordering::Release);
        self.dropped.swap(0, Ordering::Relaxed)
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_registry() -> MutexGuard<'static, Vec<Arc<Ring>>> {
    // A panic while holding the registry lock leaves the rings intact;
    // keep draining rather than poisoning telemetry forever.
    match registry().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static LOCAL: Arc<Ring> = {
        let ring = Arc::new(Ring::new(NEXT_TID.fetch_add(1, Ordering::Relaxed) as u16));
        lock_registry().push(ring.clone());
        ring
    };
}

/// Run `f` with the calling thread's ring, registering it on first use.
pub(crate) fn with_local<R>(f: impl FnOnce(&Ring) -> R) -> Option<R> {
    // During thread teardown the TLS slot may already be gone; losing a
    // final event there is fine.
    LOCAL.try_with(|r| f(r)).ok()
}

/// Drain every registered ring. Returns `(events, dropped)`; events are
/// unsorted here — [`crate::drain`] sorts the merged timeline.
pub(crate) fn drain_all() -> (Vec<TraceEvent>, u64) {
    let rings = lock_registry();
    let mut out = Vec::new();
    let mut dropped = 0u64;
    for ring in rings.iter() {
        dropped += ring.drain_into(&mut out);
    }
    (out, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64) -> TraceEvent {
        TraceEvent {
            t_ns,
            dur_ns: 0,
            key: 7,
            arg: 0,
            trace: 0,
            kind: EventKind::CacheHit,
            tid: 0,
            node: 0,
        }
    }

    #[test]
    fn push_then_drain_roundtrips_in_order() {
        let ring = Ring::new(42);
        for i in 0..100 {
            ring.push(ev(i));
        }
        let mut out = Vec::new();
        let dropped = ring.drain_into(&mut out);
        assert_eq!(dropped, 0);
        assert_eq!(out.len(), 100);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.t_ns, i as u64);
            assert_eq!(e.tid, 42, "push stamps the ring's tid");
        }
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let ring = Ring::new(1);
        for i in 0..(RING_CAP as u64 + 10) {
            ring.push(ev(i));
        }
        let mut out = Vec::new();
        let dropped = ring.drain_into(&mut out);
        assert_eq!(out.len(), RING_CAP);
        assert_eq!(dropped, 10);
        // The *oldest* events survive.
        assert_eq!(out[0].t_ns, 0);
        assert_eq!(out.last().unwrap().t_ns, RING_CAP as u64 - 1);
        // Dropped counter reset by the drain.
        assert_eq!(ring.drain_into(&mut Vec::new()), 0);
    }

    #[test]
    fn drain_frees_capacity() {
        let ring = Ring::new(1);
        for round in 0..3u64 {
            for i in 0..RING_CAP as u64 {
                ring.push(ev(round * RING_CAP as u64 + i));
            }
            let mut out = Vec::new();
            assert_eq!(ring.drain_into(&mut out), 0, "round {round}");
            assert_eq!(out.len(), RING_CAP);
        }
    }

    #[test]
    fn cross_thread_drain_sees_producer_writes() {
        let ring = Arc::new(Ring::new(9));
        let producer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 0..50_000u64 {
                    ring.push(ev(i));
                }
            })
        };
        // Concurrent consumer: everything drained must be well-formed.
        let mut seen = 0u64;
        let mut dropped = 0u64;
        let mut out = Vec::new();
        loop {
            out.clear();
            dropped += ring.drain_into(&mut out);
            for e in &out {
                assert_eq!(e.kind, EventKind::CacheHit);
                assert_eq!(e.key, 7);
                assert_eq!(e.tid, 9);
            }
            seen += out.len() as u64;
            if producer.is_finished() && out.is_empty() {
                break;
            }
        }
        producer.join().unwrap();
        out.clear();
        dropped += ring.drain_into(&mut out);
        seen += out.len() as u64;
        assert_eq!(seen + dropped, 50_000);
    }
}
