//! Always-on flight recorder + SLO tracker.
//!
//! The per-thread rings are the first-stage pre-drain buffer; every
//! batch that leaves them through [`crate::drain`] also flows through
//! `observe`, which (a) retains a bounded copy of the most recent
//! events — so a triggered dump can reach *back in time* past the last
//! scrape — (b) accumulates per-span-kind log-bucketed latency
//! histograms, and (c) evaluates the fault triggers below. Nothing here
//! touches the record hot path: a thread recording events never takes
//! the flight lock; only drains do.
//!
//! Triggers (see [`TriggerKind`]):
//! - **DemandError** — any permanent fetch failure (`FetchFail`).
//! - **DeadlineBurst** — ≥ `deadline_burst` `DeadlineMiss` events inside
//!   `burst_window_ns`.
//! - **BreakerOpen** — a circuit breaker tripped open.
//! - **SloBurn** — over a window of `slo_min_count` `FetchService`
//!   spans, the fraction slower than `slo_ns` reached `slo_burn`.
//!
//! Consumers poll [`take_triggers`] (the chaos harness does this every
//! step) and call [`snapshot`] to capture the recent history — the
//! cluster layer serializes snapshots from every reachable node into one
//! CRC-framed dump file.

use crate::event::{EventKind, TraceEvent, KIND_COUNT};
use crate::hist::LogHistogram;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Why a snapshot was triggered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TriggerKind {
    /// A demand fetch failed permanently.
    DemandError = 1,
    /// A burst of demand deadline misses.
    DeadlineBurst = 2,
    /// A circuit breaker opened.
    BreakerOpen = 3,
    /// The latency SLO burn rate crossed its threshold.
    SloBurn = 4,
}

impl TriggerKind {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<TriggerKind> {
        match code {
            1 => Some(TriggerKind::DemandError),
            2 => Some(TriggerKind::DeadlineBurst),
            3 => Some(TriggerKind::BreakerOpen),
            4 => Some(TriggerKind::SloBurn),
            _ => None,
        }
    }

    /// Stable snake_case name.
    pub fn label(self) -> &'static str {
        match self {
            TriggerKind::DemandError => "demand_error",
            TriggerKind::DeadlineBurst => "deadline_burst",
            TriggerKind::BreakerOpen => "breaker_open",
            TriggerKind::SloBurn => "slo_burn",
        }
    }
}

/// One fired trigger.
#[derive(Clone, Copy, Debug)]
pub struct Trigger {
    /// What fired.
    pub kind: TriggerKind,
    /// Timestamp (ns since epoch) of the event that fired it.
    pub t_ns: u64,
    /// The firing event's subject key (block key, breaker id, …).
    pub key: u64,
}

/// Flight-recorder tuning. The defaults suit the interactive-frame
/// workload: a burst is 4 misses inside one ~33 ms frame pair, the SLO
/// is 50 ms demand service with a 20% burn threshold over 64 services.
#[derive(Clone, Copy, Debug)]
pub struct FlightConfig {
    /// Events retained in the recent-history buffer (drop-oldest).
    pub capacity: usize,
    /// `DeadlineMiss` count that constitutes a burst…
    pub deadline_burst: usize,
    /// …within this window (ns, over event timestamps).
    pub burst_window_ns: u64,
    /// Demand service latency SLO (ns) for burn-rate tracking.
    pub slo_ns: u64,
    /// Burn-rate threshold in `[0, 1]`: fraction of services over
    /// `slo_ns` that fires [`TriggerKind::SloBurn`].
    pub slo_burn: f64,
    /// Services per burn-rate evaluation window.
    pub slo_min_count: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 1 << 14,
            deadline_burst: 4,
            burst_window_ns: 66_000_000,
            slo_ns: 50_000_000,
            slo_burn: 0.2,
            slo_min_count: 64,
        }
    }
}

/// A captured flight snapshot: the recent-history window plus the
/// cumulative latency summaries, ready to serialize into a dump.
#[derive(Clone)]
pub struct FlightSnapshot {
    /// Most recent events, time-sorted, up to the configured capacity.
    pub events: Vec<TraceEvent>,
    /// Cumulative ring-overflow drops, process lifetime
    /// ([`crate::dropped_total`]).
    pub dropped: u64,
    /// Triggers fired since the last [`take_triggers`] (left in place —
    /// snapshotting must not race the poller out of its edge).
    pub triggers: Vec<Trigger>,
    /// Per-span-kind duration histograms accumulated since the last
    /// [`reset`], as `(kind, histogram)` for kinds with any data.
    pub hists: Vec<(EventKind, LogHistogram)>,
}

struct FlightState {
    cfg: FlightConfig,
    history: VecDeque<TraceEvent>,
    hists: Box<[LogHistogram]>,
    recent_misses: VecDeque<u64>,
    slo_total: u64,
    slo_over: u64,
    triggers: Vec<Trigger>,
}

impl FlightState {
    fn new(cfg: FlightConfig) -> FlightState {
        FlightState {
            cfg,
            history: VecDeque::new(),
            hists: (0..KIND_COUNT).map(|_| LogHistogram::new()).collect(),
            recent_misses: VecDeque::new(),
            slo_total: 0,
            slo_over: 0,
            triggers: Vec::new(),
        }
    }

    fn fire(&mut self, kind: TriggerKind, ev: &TraceEvent) {
        self.triggers.push(Trigger { kind, t_ns: ev.t_ns, key: ev.key });
    }

    fn observe_one(&mut self, ev: &TraceEvent) {
        if self.history.len() >= self.cfg.capacity {
            self.history.pop_front();
        }
        self.history.push_back(*ev);
        if ev.kind.is_span() {
            self.hists[ev.kind as usize].record(ev.dur_ns);
        }
        match ev.kind {
            EventKind::FetchFail => self.fire(TriggerKind::DemandError, ev),
            EventKind::BreakerOpen => self.fire(TriggerKind::BreakerOpen, ev),
            EventKind::DeadlineMiss => {
                let horizon = ev.t_ns.saturating_sub(self.cfg.burst_window_ns);
                while self.recent_misses.front().is_some_and(|&t| t < horizon) {
                    self.recent_misses.pop_front();
                }
                self.recent_misses.push_back(ev.t_ns);
                if self.recent_misses.len() >= self.cfg.deadline_burst {
                    self.fire(TriggerKind::DeadlineBurst, ev);
                    // One trigger per burst, not one per miss past the
                    // threshold.
                    self.recent_misses.clear();
                }
            }
            EventKind::FetchService => {
                self.slo_total += 1;
                if ev.dur_ns > self.cfg.slo_ns {
                    self.slo_over += 1;
                }
                if self.slo_total >= self.cfg.slo_min_count {
                    let burn = self.slo_over as f64 / self.slo_total as f64;
                    if burn >= self.cfg.slo_burn {
                        self.fire(TriggerKind::SloBurn, ev);
                    }
                    self.slo_total = 0;
                    self.slo_over = 0;
                }
            }
            _ => {}
        }
    }
}

fn state() -> &'static Mutex<FlightState> {
    static STATE: OnceLock<Mutex<FlightState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(FlightState::new(FlightConfig::default())))
}

fn lock() -> MutexGuard<'static, FlightState> {
    match state().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Replace the recorder's tuning. History, histograms, and pending
/// triggers are kept; only thresholds and capacity change (the history
/// shrinks lazily as new events arrive).
pub fn configure(cfg: FlightConfig) {
    lock().cfg = cfg;
}

/// Feed one drained batch through the recorder. Called by
/// [`crate::drain`] with the batch it is about to hand out; events must
/// be time-sorted.
pub(crate) fn observe(events: &[TraceEvent], _ring_dropped: u64) {
    if events.is_empty() {
        return;
    }
    let mut st = lock();
    for ev in events {
        st.observe_one(ev);
    }
}

/// Triggers fired since the last call (edge-drained).
pub fn take_triggers() -> Vec<Trigger> {
    std::mem::take(&mut lock().triggers)
}

/// Capture the current flight window. Pumps the rings first (via
/// [`crate::drain`]) so events recorded since the last scrape are
/// included; those events are thereby consumed from the regular drain
/// stream — a dump supersedes the scrape it raced with.
pub fn snapshot() -> FlightSnapshot {
    let _ = crate::drain();
    snapshot_history()
}

/// Capture the current flight window without pumping the rings —
/// for callers that just drained (e.g. a `TelemetryGet` handler).
pub fn snapshot_history() -> FlightSnapshot {
    let st = lock();
    FlightSnapshot {
        events: st.history.iter().copied().collect(),
        dropped: crate::dropped_total(),
        triggers: st.triggers.clone(),
        hists: EventKind::ALL
            .iter()
            .filter(|k| st.hists[**k as usize].count() > 0)
            .map(|&k| (k, st.hists[k as usize].clone()))
            .collect(),
    }
}

/// Clear history, histograms, SLO windows, and pending triggers (fresh
/// recording window; called by [`crate::reset`]).
pub fn reset() {
    let mut st = lock();
    let cfg = st.cfg;
    *st = FlightState::new(cfg);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, t_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent { t_ns, dur_ns, key: 0xF11, arg: 0, trace: 7, kind, tid: 1, node: 2 }
    }

    // The recorder is process-global, shared with the lib tests that
    // call drain(); serialize the trigger-edge tests against each other
    // and check only what each injected.
    static GUARD: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        match GUARD.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn serial_reset(cfg: FlightConfig) {
        reset();
        configure(cfg);
    }

    #[test]
    fn history_is_bounded_and_keeps_newest() {
        let _g = serial();
        serial_reset(FlightConfig { capacity: 8, ..FlightConfig::default() });
        let batch: Vec<_> = (0..20).map(|i| ev(EventKind::CacheHit, i, 0)).collect();
        observe(&batch, 0);
        let snap = snapshot_history();
        let mine: Vec<_> = snap.events.iter().filter(|e| e.key == 0xF11).collect();
        assert!(mine.len() <= 8);
        assert_eq!(mine.last().unwrap().t_ns, 19, "newest survives");
        serial_reset(FlightConfig::default());
    }

    #[test]
    fn deadline_burst_fires_once_per_burst() {
        let _g = serial();
        serial_reset(FlightConfig {
            deadline_burst: 3,
            burst_window_ns: 100,
            ..FlightConfig::default()
        });
        let _ = take_triggers();
        // Two misses far apart: no burst.
        observe(&[ev(EventKind::DeadlineMiss, 0, 0), ev(EventKind::DeadlineMiss, 1_000, 0)], 0);
        assert!(take_triggers().iter().all(|t| t.kind != TriggerKind::DeadlineBurst));
        // Three misses inside the window: exactly one trigger.
        let batch: Vec<_> = (0..3).map(|i| ev(EventKind::DeadlineMiss, 2_000 + i, 0)).collect();
        observe(&batch, 0);
        let fired: Vec<_> =
            take_triggers().into_iter().filter(|t| t.kind == TriggerKind::DeadlineBurst).collect();
        assert_eq!(fired.len(), 1);
        serial_reset(FlightConfig::default());
    }

    #[test]
    fn demand_error_and_breaker_open_trigger_immediately() {
        let _g = serial();
        serial_reset(FlightConfig::default());
        let _ = take_triggers();
        observe(&[ev(EventKind::FetchFail, 5, 0), ev(EventKind::BreakerOpen, 6, 0)], 0);
        let kinds: Vec<_> = take_triggers().into_iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TriggerKind::DemandError));
        assert!(kinds.contains(&TriggerKind::BreakerOpen));
        serial_reset(FlightConfig::default());
    }

    #[test]
    fn slo_burn_fires_on_slow_window() {
        let _g = serial();
        serial_reset(FlightConfig {
            slo_ns: 1_000,
            slo_burn: 0.5,
            slo_min_count: 4,
            ..FlightConfig::default()
        });
        let _ = take_triggers();
        // 4 fast services: no burn.
        let fast: Vec<_> = (0..4).map(|i| ev(EventKind::FetchService, i, 10)).collect();
        observe(&fast, 0);
        assert!(take_triggers().iter().all(|t| t.kind != TriggerKind::SloBurn));
        // 2 fast + 2 slow = 50% burn: fires.
        let mixed = vec![
            ev(EventKind::FetchService, 10, 10),
            ev(EventKind::FetchService, 11, 9_999),
            ev(EventKind::FetchService, 12, 10),
            ev(EventKind::FetchService, 13, 8_888),
        ];
        observe(&mixed, 0);
        let fired: Vec<_> =
            take_triggers().into_iter().filter(|t| t.kind == TriggerKind::SloBurn).collect();
        assert_eq!(fired.len(), 1);
        serial_reset(FlightConfig::default());
    }

    #[test]
    fn span_histograms_accumulate() {
        let _g = serial();
        serial_reset(FlightConfig::default());
        observe(
            &[
                ev(EventKind::SourceRead, 0, 100),
                ev(EventKind::SourceRead, 1, 300),
                ev(EventKind::CacheHit, 2, 0),
            ],
            0,
        );
        let snap = snapshot_history();
        let (_, h) = snap
            .hists
            .iter()
            .find(|(k, _)| *k == EventKind::SourceRead)
            .expect("source_read histogram present");
        assert!(h.count() >= 2);
        assert!(h.max() >= 300);
        assert!(!snap.hists.iter().any(|(k, _)| *k == EventKind::CacheHit), "instants not timed");
        serial_reset(FlightConfig::default());
    }

    #[test]
    fn trigger_codes_roundtrip() {
        for k in [
            TriggerKind::DemandError,
            TriggerKind::DeadlineBurst,
            TriggerKind::BreakerOpen,
            TriggerKind::SloBurn,
        ] {
            assert_eq!(TriggerKind::from_code(k.code()), Some(k));
        }
        assert_eq!(TriggerKind::from_code(0), None);
        assert_eq!(TriggerKind::from_code(9), None);
    }
}
