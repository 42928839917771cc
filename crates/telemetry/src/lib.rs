//! # viz-telemetry — unified tracing for the viz pipeline
//!
//! Zero-dependency observability: per-thread lock-free event rings behind
//! a global on/off gate, log-bucketed histograms, named counters, and
//! three exporters (Chrome trace-event JSON, Prometheus text exposition,
//! per-run summary JSON).
//!
//! Design points:
//!
//! - **Off means off.** Every recording call starts with one relaxed
//!   atomic load of the gate; when disabled, nothing else happens — no
//!   clock reads, no TLS access, no allocation. [`start`] returns `None`
//!   when disabled so call sites skip their `Instant::now()` too.
//! - **Recording never blocks.** Each thread writes to its own SPSC ring;
//!   a full ring drops the newest event and counts it. The only lock in
//!   the crate serializes [`drain`] against ring registration.
//! - **One timeline.** All built-in instrumentation records wall-clock
//!   time relative to a single epoch (set when the gate turns on), so one
//!   [`drain`] yields a coherent cross-crate trace.
//!
//! ```
//! viz_telemetry::set_enabled(true);
//! let t0 = viz_telemetry::start();
//! // ... do the work being measured ...
//! viz_telemetry::span(viz_telemetry::EventKind::SourceRead, 0xB10C, 1, t0);
//! let trace = viz_telemetry::drain();
//! assert_eq!(trace.count(viz_telemetry::EventKind::SourceRead), 1);
//! viz_telemetry::set_enabled(false);
//! ```

pub mod collect;
mod counter;
mod event;
mod export;
pub mod flight;
mod hist;
mod ring;

pub use counter::Counter;
pub use event::{EventKind, TraceEvent};
pub use export::{json, prometheus_text, Trace};
pub use hist::LogHistogram;
pub use ring::dropped_total;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn event recording on or off. Enabling pins the epoch that all
/// wall-clock timestamps are measured from (first enable wins). Counters
/// are unaffected — they are always live.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::Release);
}

/// Is recording on? One relaxed load — cheap enough for every hot path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start a span clock: `Some(Instant::now())` when recording, `None`
/// when off. Pass the result to [`span`] at the end of the region.
#[inline]
pub fn start() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

fn since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Nanoseconds since the telemetry epoch — the clock every event
/// timestamp is measured on. Usable with the gate off (the epoch pins on
/// first use); heartbeat `Pong`s carry it so a collector can estimate
/// per-node clock offsets from RTT midpoints.
pub fn now_ns() -> u64 {
    since_epoch(Instant::now())
}

/// Record a point event at the current wall-clock time.
#[inline]
pub fn instant(kind: EventKind, key: u64, arg: u64) {
    if !enabled() {
        return;
    }
    let t_ns = since_epoch(Instant::now());
    push(kind, key, arg, t_ns, 0);
}

/// Close a span opened with [`start`]. No-op when `started` is `None`
/// (the gate was off at open) or the gate is off now.
#[inline]
pub fn span(kind: EventKind, key: u64, arg: u64, started: Option<Instant>) {
    if let Some(t0) = started {
        span_from(kind, key, arg, t0);
    }
}

/// Close a span whose start `Instant` was measured by the caller (e.g. an
/// engine that already timestamps jobs for its own metrics).
#[inline]
pub fn span_from(kind: EventKind, key: u64, arg: u64, t0: Instant) {
    if !enabled() {
        return;
    }
    let dur_ns = t0.elapsed().as_nanos() as u64;
    push(kind, key, arg, since_epoch(t0), dur_ns);
}

/// Record a span with caller-supplied timestamps.
#[cfg(test)]
fn span_at(kind: EventKind, key: u64, arg: u64, t_ns: u64, dur_ns: u64) {
    if !enabled() {
        return;
    }
    push(kind, key, arg, t_ns, dur_ns);
}

// ---- trace / node attribution context ------------------------------
//
// Both are plain thread-locals read only *after* the gate check, so the
// gate-off hot path stays one relaxed load. The trace context names the
// originating client request a thread is currently working for (minted
// by the Router, carried over VSRV); the node context names which
// in-process cluster node the thread belongs to, letting one process
// host many nodes (the deterministic TestCluster) and still split the
// merged ring drain per node.

thread_local! {
    static TRACE_CTX: Cell<u64> = const { Cell::new(0) };
    static NODE_CTX: Cell<u16> = const { Cell::new(0) };
}

/// Set the calling thread's trace context; every event recorded by this
/// thread carries it until changed. Returns the previous value so scoped
/// callers can restore it. 0 means "no traced request".
#[inline]
pub(crate) fn set_trace(trace: u64) -> u64 {
    TRACE_CTX.with(|c| c.replace(trace))
}

/// The calling thread's current trace context (0 when none).
#[inline]
pub fn current_trace() -> u64 {
    TRACE_CTX.with(Cell::get)
}

/// Set the calling thread's node attribution id (0 = client /
/// unattributed; cluster nodes record `NodeId + 1`). Returns the
/// previous value.
#[inline]
pub(crate) fn set_node(node: u16) -> u16 {
    NODE_CTX.with(|c| c.replace(node))
}

/// The calling thread's current node attribution id.
#[inline]
pub fn current_node() -> u16 {
    NODE_CTX.with(Cell::get)
}

/// Run `f` with the thread's trace context set to `trace`, restoring the
/// previous context on the way out (panic-safe via the guard's `Drop`).
pub fn with_trace<R>(trace: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_trace(self.0);
        }
    }
    let _g = Restore(set_trace(trace));
    f()
}

/// Run `f` with the thread's node attribution set to `node`, restoring
/// the previous value on the way out.
pub fn with_node<R>(node: u16, f: impl FnOnce() -> R) -> R {
    struct Restore(u16);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_node(self.0);
        }
    }
    let _g = Restore(set_node(node));
    f()
}

fn push(kind: EventKind, key: u64, arg: u64, t_ns: u64, dur_ns: u64) {
    // Only reached with the gate on; the two TLS reads are the whole
    // cost of attribution.
    let trace = current_trace();
    let node = current_node();
    let ev = TraceEvent { t_ns, dur_ns, key, arg, trace, kind, tid: 0, node };
    ring::with_local(|r| r.push(ev));
}

/// Drain every thread's ring into one time-sorted [`Trace`]. Events
/// recorded after the drain starts land in the next drain. Every drained
/// batch also flows through the flight recorder ([`flight`]), which
/// retains a bounded recent-history copy and evaluates its triggers.
pub fn drain() -> Trace {
    let (mut events, dropped) = ring::drain_all();
    events.sort_by_key(|e| (e.t_ns, e.tid));
    flight::observe(&events, dropped);
    Trace { events, dropped }
}

/// Discard all buffered events (start a fresh recording window). Also
/// clears the flight recorder's history and trigger state.
pub fn reset() {
    let _ = ring::drain_all();
    flight::reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The gate and rings are process-global: serialize the tests that
    // toggle them so they cannot observe each other's events.
    static GUARD: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        match GUARD.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_gate_records_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        assert!(start().is_none());
        instant(EventKind::CacheHit, 1, 0);
        span_at(EventKind::Frame, 2, 0, 100, 50);
        let t = drain();
        assert!(t.events.is_empty());
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn wall_clock_spans_measure_elapsed_time() {
        let _g = lock();
        set_enabled(true);
        reset();
        let t0 = start();
        assert!(t0.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        span(EventKind::SourceRead, 0xF00, 9, t0);
        instant(EventKind::PoolInsert, 0xF00, 4096);
        let t = drain();
        set_enabled(false);
        let reads: Vec<_> =
            t.events.iter().filter(|e| e.kind == EventKind::SourceRead && e.key == 0xF00).collect();
        assert_eq!(reads.len(), 1);
        assert!(reads[0].dur_ns >= 2_000_000, "slept 2ms, got {}ns", reads[0].dur_ns);
        let inserts: Vec<_> =
            t.events.iter().filter(|e| e.kind == EventKind::PoolInsert && e.key == 0xF00).collect();
        assert_eq!(inserts.len(), 1);
        assert_eq!(inserts[0].arg, 4096);
        // Sorted timeline: the insert comes at-or-after the read start.
        assert!(inserts[0].t_ns >= reads[0].t_ns);
    }

    #[test]
    fn virtual_time_events_keep_caller_timestamps() {
        let _g = lock();
        set_enabled(true);
        reset();
        span_at(EventKind::Frame, 3, 1, 5_000, 16_000_000);
        let t = drain();
        set_enabled(false);
        let frame = t.events.iter().find(|e| e.kind == EventKind::Frame && e.key == 3).unwrap();
        assert_eq!((frame.t_ns, frame.dur_ns, frame.arg), (5_000, 16_000_000, 1));
    }

    #[test]
    fn multithreaded_events_merge_into_one_sorted_trace() {
        let _g = lock();
        set_enabled(true);
        reset();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        instant(EventKind::WaiterWake, 0xBEEF_0000 + t, i);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let t = drain();
        set_enabled(false);
        let mine: Vec<_> = t
            .events
            .iter()
            .filter(|e| e.kind == EventKind::WaiterWake && (e.key & 0xFFFF_0000) == 0xBEEF_0000)
            .collect();
        assert_eq!(mine.len() as u64 + t.dropped, 2_000);
        assert!(t.events.windows(2).all(|w| (w[0].t_ns, w[0].tid) <= (w[1].t_ns, w[1].tid)));
        // Distinct producer threads got distinct tids.
        let tids: std::collections::HashSet<u16> = mine.iter().map(|e| e.tid).collect();
        assert!(tids.len() > 1 || mine.len() < 2);
    }

    #[test]
    fn trace_and_node_context_stamp_events() {
        let _g = lock();
        set_enabled(true);
        reset();
        with_node(3, || {
            with_trace(0xABCD, || instant(EventKind::CacheHit, 0x7AC0, 1));
            assert_eq!(current_trace(), 0, "with_trace restored");
        });
        assert_eq!(current_node(), 0, "with_node restored");
        instant(EventKind::CacheMiss, 0x7AC1, 0);
        let t = drain();
        set_enabled(false);
        let hit = t.events.iter().find(|e| e.key == 0x7AC0).unwrap();
        assert_eq!((hit.trace, hit.node), (0xABCD, 3));
        let miss = t.events.iter().find(|e| e.key == 0x7AC1).unwrap();
        assert_eq!((miss.trace, miss.node), (0, 0), "context does not leak");
    }

    #[test]
    fn drained_trace_exports_roundtrip_through_validator() {
        let _g = lock();
        set_enabled(true);
        reset();
        for i in 0..10 {
            instant(EventKind::CacheEvict, i, i << 8);
            span_at(EventKind::QueueWait, i, 1, i * 100, 42);
        }
        let t = drain();
        set_enabled(false);
        json::validate(&t.chrome_trace_json()).unwrap();
        json::validate(&t.summary_json()).unwrap();
        let p = t.prometheus_text(&[("extra", 1)]);
        assert!(p.contains("viz_counter_total{name=\"extra\"} 1"));
    }
}
