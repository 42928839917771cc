//! The multi-tenant server: one shared [`FetchEngine`] + [`viz_fetch::BlockPool`]
//! behind a session registry, DRR fairness, admission control, and load
//! shedding.
//!
//! ## Request life cycle
//!
//! A `Fetch` request is **admitted** (demand unconditionally; prefetch
//! subject to the shed ladder below), queued in the per-session DRR
//! lanes, **pumped** into the shared engine in fair order, and its demand
//! tickets **collected** into a `FetchReply`. Duplicate keys across
//! different sessions coalesce inside the engine onto one source read —
//! the whole point of sharing it — and the engine counts those
//! cross-tag joins ([`viz_fetch::FetchMetrics::cross_tag_coalesced`]).
//!
//! ## The shed ladder
//!
//! A predicted key the shared pool already holds is counted as
//! *resident* and dropped before the ladder: Algorithm 1 prefetches only
//! what fast memory lacks, so it costs no quota and never reaches the
//! lanes or the engine. Every other prefetch entry walks, in order:
//! draining → stale generation → per-client entry quota → breaker open
//! → global queue depth. (The pool needs no rung: it is bounded by its
//! own capacity, [`viz_fetch::BlockPool::with_capacity`].)
//! First failure sheds the entry with a typed [`ShedReason`]; between
//! the downgrade and shed watermarks entries are admitted at a quarter of
//! their priority instead. **Demand is never shed** — a blocked renderer
//! beats a speculation every time, which is the same demand-over-prefetch
//! invariant the engine heap enforces, applied one layer up.

use crate::conn::Conn;
use crate::proto::{errkind_code, Request, Response};
use crate::registry::{Registry, SessionId, SessionView};
use crate::sched::{DemandEntry, PrefetchEntry, Scheduler};
use crate::transport::Transport;
use crate::{proto, BlockReply};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use viz_fetch::{BreakerState, FetchEngine, Ticket};
use viz_telemetry::{instant, Counter, EventKind as Ev};
use viz_volume::BlockKey;

/// DRR deficit refilled per visit, in requests.
const QUANTUM: u32 = 8;

/// How many prefetch entries one pump pass hands the engine as a single
/// batched admission (grouped per session, DRR order kept).
const PUMP_BATCH: usize = 64;

/// Serving policy knobs. `Default` suits tests and small deployments;
/// the bench stresses the watermarks explicitly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-session cap on queued prefetch entries.
    pub per_client_queue: usize,
    /// Stop pumping prefetch into the engine once its prefetch backlog
    /// reaches this depth (demand pumps unconditionally).
    pub engine_queue_target: usize,
    /// Shed new prefetch outright at this combined backlog.
    pub shed_queue_depth: usize,
    /// Admit prefetch at a quarter priority from this backlog up.
    pub downgrade_queue_depth: usize,
    /// Bound each frame's demand wait, counted from the frame's admission:
    /// keys unresolved by then reply `TimedOut`, however many the frame
    /// asked for. `None` waits for the engine's own timeout/retry
    /// machinery to resolve every ticket.
    pub demand_deadline: Option<Duration>,
    /// Registry cap; opens past it are refused.
    pub max_sessions: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            per_client_queue: 256,
            engine_queue_target: 1024,
            shed_queue_depth: 4096,
            downgrade_queue_depth: 2048,
            demand_deadline: None,
            max_sessions: 1024,
        }
    }
}

/// Why a prefetch entry was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Server is draining; only demand still flows.
    Draining,
    /// Entry belongs to a generation older than the session's current.
    StaleGeneration,
    /// The session's prefetch lane is at its entry quota.
    ClientQuota,
    /// The engine's circuit breaker is open — the source is presumed
    /// down, speculation would only deepen the failure.
    BreakerOpen,
    /// Combined scheduler + engine prefetch backlog crossed the shed
    /// watermark.
    QueueDepth,
}

impl ShedReason {
    /// Stable code, used as the `RequestShed` telemetry arg that
    /// flight-recorder dumps decode. Codes 4 (the retired per-client byte
    /// quota) and 7 (the retired pool-pressure rung: the pool is bounded
    /// by its own capacity) are never reused.
    pub fn code(self) -> u16 {
        match self {
            ShedReason::Draining => 1,
            ShedReason::StaleGeneration => 2,
            ShedReason::ClientQuota => 3,
            ShedReason::BreakerOpen => 5,
            ShedReason::QueueDepth => 6,
        }
    }
}

/// Typed serving failure, mapped onto wire `ERR_*` codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The server is draining and refuses new sessions/work.
    Draining,
    /// The registry is at [`ServeConfig::max_sessions`].
    TooManySessions,
    /// The request named a session the registry does not know.
    UnknownSession,
}

impl ServeError {
    /// The matching wire error code.
    pub fn code(self) -> u16 {
        match self {
            ServeError::Draining => proto::ERR_DRAINING,
            ServeError::TooManySessions => proto::ERR_TOO_MANY_SESSIONS,
            ServeError::UnknownSession => proto::ERR_UNKNOWN_SESSION,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Draining => write!(f, "server is draining"),
            ServeError::TooManySessions => write!(f, "session cap reached"),
            ServeError::UnknownSession => write!(f, "unknown session"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serve-layer counters, named for the wire/Prometheus exposition.
struct ServeStats {
    sessions_opened: Counter,
    sessions_closed: Counter,
    fetch_requests: Counter,
    demand_admitted: Counter,
    prefetch_admitted: Counter,
    prefetch_downgraded: Counter,
    prefetch_shed: Counter,
    /// Predicted keys already resident at admission: dropped before the
    /// ladder, so submitted = shed + downgraded + admitted + resident.
    prefetch_resident: Counter,
    demand_served: Counter,
    demand_errors: Counter,
    bytes_served: Counter,
    /// Served payloads whose CRC came with them from the pool.
    crc_cached: Counter,
    /// Served payloads the wire encoder has to checksum itself (no longer
    /// resident, or replaced, by the time the reply is built).
    crc_computed: Counter,
    // Per-reason shed breakdown: whoever tunes the `ServeConfig` ladder
    // needs to know *why* prefetch is being refused (an entry-quota shed
    // wants a bigger quota; a breaker shed wants nothing at all).
    shed_draining: Counter,
    shed_stale_gen: Counter,
    shed_entry_quota: Counter,
    shed_breaker: Counter,
    shed_queue_depth: Counter,
}

impl ServeStats {
    const fn new() -> Self {
        ServeStats {
            sessions_opened: Counter::new("serve_sessions_opened"),
            sessions_closed: Counter::new("serve_sessions_closed"),
            fetch_requests: Counter::new("serve_fetch_requests"),
            demand_admitted: Counter::new("serve_demand_admitted"),
            prefetch_admitted: Counter::new("serve_prefetch_admitted"),
            prefetch_downgraded: Counter::new("serve_prefetch_downgraded"),
            prefetch_shed: Counter::new("serve_prefetch_shed"),
            prefetch_resident: Counter::new("serve_prefetch_resident"),
            demand_served: Counter::new("serve_demand_served"),
            demand_errors: Counter::new("serve_demand_errors"),
            bytes_served: Counter::new("serve_bytes_served"),
            crc_cached: Counter::new("serve_crc_cached"),
            crc_computed: Counter::new("serve_crc_computed"),
            shed_draining: Counter::new("serve_shed_draining"),
            shed_stale_gen: Counter::new("serve_shed_stale_gen"),
            shed_entry_quota: Counter::new("serve_shed_entry_quota"),
            shed_breaker: Counter::new("serve_shed_breaker"),
            shed_queue_depth: Counter::new("serve_shed_queue_depth"),
        }
    }

    fn shed_counter(&self, reason: ShedReason) -> &Counter {
        match reason {
            ShedReason::Draining => &self.shed_draining,
            ShedReason::StaleGeneration => &self.shed_stale_gen,
            ShedReason::ClientQuota => &self.shed_entry_quota,
            ShedReason::BreakerOpen => &self.shed_breaker,
            ShedReason::QueueDepth => &self.shed_queue_depth,
        }
    }

    fn pairs(&self) -> Vec<(&'static str, u64)> {
        [
            &self.sessions_opened,
            &self.sessions_closed,
            &self.fetch_requests,
            &self.demand_admitted,
            &self.prefetch_admitted,
            &self.prefetch_downgraded,
            &self.prefetch_shed,
            &self.prefetch_resident,
            &self.demand_served,
            &self.demand_errors,
            &self.bytes_served,
            &self.crc_cached,
            &self.crc_computed,
            &self.shed_draining,
            &self.shed_stale_gen,
            &self.shed_entry_quota,
            &self.shed_breaker,
            &self.shed_queue_depth,
        ]
        .iter()
        .map(|c| (c.name(), c.get()))
        .collect()
    }
}

/// Point-in-time serve-layer metrics snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Sessions opened over the server's lifetime.
    pub sessions_opened: u64,
    /// Sessions closed (including drain).
    pub sessions_closed: u64,
    /// `Fetch` requests processed.
    pub fetch_requests: u64,
    /// Demand keys admitted (demand is never shed).
    pub demand_admitted: u64,
    /// Prefetch keys admitted at full priority.
    pub prefetch_admitted: u64,
    /// Prefetch keys admitted at reduced priority.
    pub prefetch_downgraded: u64,
    /// Prefetch keys refused admission.
    pub prefetch_shed: u64,
    /// Prefetch keys already resident at admission, dropped before the
    /// ladder. Every submitted prefetch key is exactly one of admitted,
    /// downgraded, shed or resident.
    pub prefetch_resident: u64,
    /// Demand replies delivered with a payload.
    pub demand_served: u64,
    /// Demand replies delivered with an error code.
    pub demand_errors: u64,
    /// Payload bytes delivered to clients.
    pub bytes_served: u64,
}

/// Report from [`Server::drain`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Sessions closed by the drain.
    pub sessions_closed: usize,
    /// Demand entries flushed into the engine before closing.
    pub demand_flushed: usize,
    /// Queued prefetch entries discarded.
    pub prefetch_dropped: usize,
}

/// The multi-tenant block server (see module docs).
pub struct Server {
    engine: Arc<FetchEngine>,
    cfg: ServeConfig,
    registry: Mutex<Registry>,
    sched: Mutex<Scheduler>,
    stats: ServeStats,
    draining: AtomicBool,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Same poison policy as the fetch engine: a panic while holding the
    // lock fails that request, not every future one.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Server {
    /// Wrap a shared engine in a server.
    pub fn new(engine: Arc<FetchEngine>, cfg: ServeConfig) -> Arc<Server> {
        Arc::new(Server {
            engine,
            cfg,
            registry: Mutex::new(Registry::new()),
            sched: Mutex::new(Scheduler::new()),
            stats: ServeStats::new(),
            draining: AtomicBool::new(false),
        })
    }

    /// The shared fetch engine.
    pub fn engine(&self) -> &Arc<FetchEngine> {
        &self.engine
    }

    /// The config the server runs with: its watermarks and quotas are
    /// the shed ladder every admission walks.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// `true` once [`Server::drain`] has started.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Register a session.
    pub fn open_session(&self, name: &str) -> Result<SessionId, ServeError> {
        if self.is_draining() {
            return Err(ServeError::Draining);
        }
        let mut reg = relock(&self.registry);
        if reg.len() >= self.cfg.max_sessions {
            return Err(ServeError::TooManySessions);
        }
        let id = reg.open(name);
        let n = reg.len() as u64;
        drop(reg);
        relock(&self.sched).add_session(id.0);
        self.stats.sessions_opened.inc();
        instant(Ev::SessionOpen, u64::from(id.0), n);
        Ok(id)
    }

    /// Unregister a session, discarding its queued work. Returns `false`
    /// for an unknown id.
    pub fn close_session(&self, id: SessionId) -> bool {
        self.close_session_inner(id, false)
    }

    fn close_session_inner(&self, id: SessionId, drained: bool) -> bool {
        if relock(&self.registry).close(id).is_none() {
            return false;
        }
        relock(&self.sched).remove_session(id.0);
        self.stats.sessions_closed.inc();
        instant(Ev::SessionClose, u64::from(id.0), u64::from(drained));
        true
    }

    /// Admit one frame request: demand unconditionally, prefetch through
    /// the shed ladder. A `generation` above the session's advances the
    /// session first, purging its queued prefetch from earlier
    /// generations; one below it sheds the prefetch as stale, and the
    /// session's generation never falls. The returned [`Submission`]
    /// collects the demand outcomes after a [`Server::pump`].
    pub fn submit(
        &self,
        id: SessionId,
        generation: u64,
        demand: Vec<BlockKey>,
        prefetch: Vec<(BlockKey, f64)>,
    ) -> Result<Submission, ServeError> {
        let advanced = match relock(&self.registry).get_mut(id) {
            None => return Err(ServeError::UnknownSession),
            Some(s) => {
                s.demand_submitted += demand.len() as u64;
                let advanced = generation > s.generation;
                s.generation = s.generation.max(generation);
                advanced
            }
        };
        if advanced {
            relock(&self.sched).purge_prefetch(id.0, generation);
        }
        self.stats.fetch_requests.inc();
        let (tx, rx) = channel();
        let demand_n = demand.len();
        {
            let trace = viz_telemetry::current_trace();
            let mut sched = relock(&self.sched);
            for &key in &demand {
                sched.push_demand(id.0, DemandEntry { key, tx: tx.clone(), trace });
            }
        }
        self.stats.demand_admitted.add(demand_n as u64);
        let t = self.admit_prefetch(id, generation, prefetch);
        let queued = u64::from(t.admitted + t.downgraded);
        instant(Ev::RequestAdmit, u64::from(id.0), ((demand_n as u64) << 32) | queued);
        Ok(Submission {
            session: id,
            demand_keys: demand,
            rx,
            received: 0,
            disconnected: false,
            waiting: Vec::new(),
            got: HashMap::new(),
            tally: t,
            t0: Instant::now(),
        })
    }

    /// Split a prediction into resident and absent keys, then walk the
    /// shed ladder for each absent one.
    fn admit_prefetch(
        &self,
        id: SessionId,
        generation: u64,
        mut prefetch: Vec<(BlockKey, f64)>,
    ) -> PrefetchTally {
        let mut t = PrefetchTally::default();
        if prefetch.is_empty() {
            return t;
        }
        let submitted = prefetch.len();
        // Algorithm 1 fetches only what fast memory lacks: a resident key
        // is counted and dropped here, before any quota, lane or engine
        // sees it. The split asks `contains`, which leaves the pool's LRU
        // order alone: a prediction is not a use, and only a demand read
        // (`get`) marks a block recently used. The engine's own pool check
        // in `prefetch_locked` stays, for keys that land between this
        // split and the pump.
        let pool = self.engine.pool();
        prefetch.retain(|&(key, _)| !pool.contains(key));
        t.resident = (submitted - prefetch.len()) as u32;
        let session_gen = match relock(&self.registry).get_mut(id) {
            Some(s) => {
                s.prefetch_submitted += submitted as u64;
                s.prefetch_resident += u64::from(t.resident);
                s.generation
            }
            None => return PrefetchTally::default(),
        };
        self.stats.prefetch_resident.add(u64::from(t.resident));
        // One poll per submit; admitted entries adjust the view so a
        // single huge request cannot blow through the watermark unseen.
        let (_, engine_pf) = self.engine.queue_depths();
        let breaker_open = self.engine.breaker_state() == BreakerState::Open;
        let draining = self.is_draining();
        let cfg = &self.cfg;

        let mut sched = relock(&self.sched);
        let mut lane_n = sched.queued_prefetch(id.0);
        let mut backlog = engine_pf + sched.queued_prefetch_total();
        for (key, pri) in prefetch {
            let verdict = if draining {
                Err(ShedReason::Draining)
            } else if generation < session_gen {
                Err(ShedReason::StaleGeneration)
            } else if lane_n >= cfg.per_client_queue {
                Err(ShedReason::ClientQuota)
            } else if breaker_open {
                Err(ShedReason::BreakerOpen)
            } else if backlog >= cfg.shed_queue_depth {
                Err(ShedReason::QueueDepth)
            } else if backlog >= cfg.downgrade_queue_depth {
                Ok(pri * 0.25)
            } else {
                Ok(pri)
            };
            match verdict {
                Ok(p) => {
                    if p < pri {
                        t.downgraded += 1;
                        self.stats.prefetch_downgraded.inc();
                    } else {
                        t.admitted += 1;
                        self.stats.prefetch_admitted.inc();
                    }
                    sched.push_prefetch(id.0, PrefetchEntry { key, pri: p, gen: session_gen });
                    lane_n += 1;
                    backlog += 1;
                }
                Err(reason) => {
                    t.shed += 1;
                    self.stats.prefetch_shed.inc();
                    self.stats.shed_counter(reason).inc();
                    instant(Ev::RequestShed, u64::from(id.0), u64::from(reason.code()));
                }
            }
        }
        drop(sched);
        if t.shed > 0 {
            if let Some(s) = relock(&self.registry).get_mut(id) {
                s.prefetch_shed += u64::from(t.shed);
            }
        }
        t
    }

    /// Move queued work into the shared engine in DRR order: demand
    /// drains completely, prefetch stops at the engine backlog target.
    /// While draining, prefetch stays queued (drain discards it).
    pub fn pump(&self) {
        loop {
            let e = relock(&self.sched).pop_next_demand(QUANTUM);
            let Some((sid, e)) = e else { break };
            // Restore the submitting request's trace context around
            // admission: the engine captures it for the whole job.
            let ticket =
                viz_telemetry::with_trace(e.trace, || self.engine.request_tagged(e.key, sid));
            // A dropped receiver (disconnected client) just drops the
            // ticket; the engine still completes the read into the pool.
            let _ = e.tx.send((e.key, ticket));
        }
        if self.is_draining() {
            return;
        }
        let engine_queue_target = self.cfg.engine_queue_target;
        loop {
            let (_, engine_pf) = self.engine.queue_depths();
            if engine_pf >= engine_queue_target {
                break;
            }
            // Pop a bounded run in DRR order under one scheduler lock,
            // then admit it to the engine in per-session batches (the
            // engine takes its own lock once per batch instead of once
            // per key — see `FetchEngine::prefetch_batch_tagged`).
            let budget = engine_queue_target.saturating_sub(engine_pf).min(PUMP_BATCH);
            let mut run: Vec<(u32, BlockKey, f64)> = Vec::with_capacity(budget);
            {
                let mut sched = relock(&self.sched);
                for _ in 0..budget {
                    let Some((sid, e)) = sched.pop_next_prefetch(QUANTUM) else { break };
                    run.push((sid, e.key, e.pri));
                }
            }
            if run.is_empty() {
                break;
            }
            let mut i = 0;
            while i < run.len() {
                let sid = run[i].0;
                let end = run[i..].iter().position(|r| r.0 != sid).map_or(run.len(), |off| i + off);
                let items: Vec<(BlockKey, f64)> = run[i..end].iter().map(|r| (r.1, r.2)).collect();
                self.engine.prefetch_batch_tagged(&items, sid);
                i = end;
            }
        }
    }

    /// Graceful shutdown: refuse new work, flush queued demand into the
    /// engine, discard queued prefetch, wait for the engine to go idle,
    /// and close every session.
    pub fn drain(&self) -> DrainReport {
        self.draining.store(true, Ordering::SeqCst);
        let demand_flushed = relock(&self.sched).queued_demand_total();
        self.pump();
        let mut prefetch_dropped = 0;
        let ids = relock(&self.registry).ids();
        {
            let mut sched = relock(&self.sched);
            for id in &ids {
                let (_, p) = sched.remove_session(id.0);
                prefetch_dropped += p;
            }
        }
        self.engine.sync();
        let mut sessions_closed = 0;
        for id in ids {
            if self.close_session_inner(id, true) {
                sessions_closed += 1;
            }
        }
        DrainReport { sessions_closed, demand_flushed, prefetch_dropped }
    }

    /// Snapshot every registered session.
    pub fn sessions(&self) -> Vec<SessionView> {
        relock(&self.registry).views()
    }

    /// Serve-layer metrics snapshot.
    pub fn metrics(&self) -> ServeMetrics {
        let s = &self.stats;
        ServeMetrics {
            sessions_opened: s.sessions_opened.get(),
            sessions_closed: s.sessions_closed.get(),
            fetch_requests: s.fetch_requests.get(),
            demand_admitted: s.demand_admitted.get(),
            prefetch_admitted: s.prefetch_admitted.get(),
            prefetch_downgraded: s.prefetch_downgraded.get(),
            prefetch_shed: s.prefetch_shed.get(),
            prefetch_resident: s.prefetch_resident.get(),
            demand_served: s.demand_served.get(),
            demand_errors: s.demand_errors.get(),
            bytes_served: s.bytes_served.get(),
        }
    }

    /// The counter set a `Stats` request answers with: serve-layer
    /// counters, engine counters (`fetch_` prefix), pool gauges, and the
    /// engine's live queue depths — the load signal the cluster router
    /// uses for tie-breaking between replica owners.
    pub fn wire_counters(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> =
            self.stats.pairs().into_iter().map(|(n, c)| (n.to_string(), c)).collect();
        v.extend(self.engine.counter_pairs().into_iter().map(|(n, c)| (format!("fetch_{n}"), c)));
        let pool = self.engine.pool();
        v.push(("pool_resident_blocks".to_string(), pool.len() as u64));
        v.push(("pool_resident_bytes".to_string(), pool.bytes_resident() as u64));
        let (qd, qp) = self.engine.queue_depths();
        v.push(("engine_queue_demand".to_string(), qd as u64));
        v.push(("engine_queue_prefetch".to_string(), qp as u64));
        v.push(("sessions_active".to_string(), relock(&self.registry).len() as u64));
        // Telemetry-plane health: is the gate on, and has any per-thread
        // ring ever overflowed (cumulative — a lost event is permanent).
        v.push(("telemetry_enabled".to_string(), u64::from(viz_telemetry::enabled())));
        v.push(("telemetry_ring_dropped_total".to_string(), viz_telemetry::dropped_total()));
        v
    }

    /// Answer a `TelemetryGet`: drain this process's rings (routing the
    /// batch through the flight recorder) and package events, per-span
    /// summary histograms, and wire counters for the collector.
    fn wire_telemetry(&self) -> proto::WireTelemetry {
        let tr = viz_telemetry::drain();
        let mut hists = Vec::new();
        for kind in viz_telemetry::EventKind::ALL {
            if !kind.is_span() {
                continue;
            }
            let h = tr.histogram(kind);
            let (pairs, count, sum, min, max) = h.sparse();
            if count > 0 {
                hists.push(proto::HistSnapshot { kind, pairs, count, sum, min, max });
            }
        }
        proto::WireTelemetry {
            dropped: viz_telemetry::dropped_total(),
            events: tr.events,
            hists,
            counters: self.wire_counters(),
        }
    }

    fn record_served(&self, id: SessionId, served: u64, errors: u64, bytes: u64, crc_cached: u64) {
        self.stats.demand_served.add(served);
        self.stats.demand_errors.add(errors);
        self.stats.bytes_served.add(bytes);
        self.stats.crc_cached.add(crc_cached);
        self.stats.crc_computed.add(served - crc_cached);
        if let Some(s) = relock(&self.registry).get_mut(id) {
            s.demand_served += served;
        }
    }
}

/// Where one submission's prefetch keys went: each is exactly one of
/// admitted (full priority), downgraded, shed or resident.
#[derive(Debug, Clone, Copy, Default)]
struct PrefetchTally {
    admitted: u32,
    downgraded: u32,
    shed: u32,
    resident: u32,
}

/// An admitted frame request: collects the demand outcomes once the pump
/// has issued them.
///
/// Two consumption styles share this state: the blocking
/// [`Submission::collect`] (the thread-per-connection [`TcpServer`] parks
/// here) and the incremental `Submission::poll_ready` (the
/// [`crate::InProcServer`] calls it each tick and never blocks). Polling
/// and then collecting is fine — tickets already drained by a poll are
/// resolved or parked in `waiting`, and `collect` finishes both.
pub struct Submission {
    session: SessionId,
    demand_keys: Vec<BlockKey>,
    rx: Receiver<(BlockKey, Ticket)>,
    /// Entries received off `rx` so far (resolved or parked).
    received: usize,
    /// The sender side went away (session closed underneath us).
    disconnected: bool,
    /// Tickets received but not yet resolved (poll path only).
    waiting: Vec<(BlockKey, Ticket)>,
    got: HashMap<BlockKey, Result<Arc<Vec<f32>>, u16>>,
    tally: PrefetchTally,
    /// Admission time; `finish` records submit→outcome as the frame's
    /// demand RTT.
    t0: Instant,
}

impl Submission {
    /// Prefetch entries shed at admission.
    pub fn shed(&self) -> u32 {
        self.tally.shed
    }

    /// Prefetch entries admitted at reduced priority.
    pub fn downgraded(&self) -> u32 {
        self.tally.downgraded
    }

    /// Prefetch entries the pool already held at admission: dropped
    /// before the shed ladder, never queued.
    pub fn resident(&self) -> u32 {
        self.tally.resident
    }

    /// Drain whatever the pump has issued and resolve whatever the
    /// engine has finished, without blocking. Returns `true` once every
    /// demand key has an outcome (or the session vanished), i.e. the
    /// reply is complete and a `collect_*` call will not block.
    pub(crate) fn poll_ready(&mut self) -> bool {
        loop {
            match self.rx.try_recv() {
                Ok(pair) => {
                    self.received += 1;
                    self.waiting.push(pair);
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => break,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    break;
                }
            }
        }
        let waiting = std::mem::take(&mut self.waiting);
        for (key, ticket) in waiting {
            match ticket.try_wait() {
                Ok(r) => {
                    self.got.insert(key, r.map_err(|e| errkind_code(e.kind)));
                }
                Err(still_pending) => self.waiting.push((key, still_pending)),
            }
        }
        self.waiting.is_empty() && (self.received >= self.demand_keys.len() || self.disconnected)
    }

    /// Block until every demand key has an outcome (the engine's workers
    /// resolve the tickets), or until [`ServeConfig::demand_deadline`]
    /// past admission, whichever is first: every ticket waits against the
    /// frame's one deadline. Requires a [`Server::pump`] to have issued the
    /// entries; a [`TcpServer`] connection thread does this.
    pub fn collect(mut self, server: &Server) -> Vec<BlockReply> {
        let deadline = server.cfg.demand_deadline.map(|d| self.t0 + d);
        let resolve = |ticket: Ticket| match deadline {
            Some(at) => match ticket.wait_until(at) {
                Ok(r) => r.map_err(|e| errkind_code(e.kind)),
                Err(_still_pending) => Err(errkind_code(io::ErrorKind::TimedOut)),
            },
            None => ticket.wait().map_err(|e| errkind_code(e.kind)),
        };
        // Tickets an earlier poll drained but could not resolve.
        for (key, ticket) in std::mem::take(&mut self.waiting) {
            let outcome = resolve(ticket);
            self.got.insert(key, outcome);
        }
        while self.received < self.demand_keys.len() {
            // A dropped sender means the session was closed underneath
            // us; the remaining keys resolve as Interrupted below.
            let Ok((key, ticket)) = self.rx.recv() else { break };
            self.received += 1;
            let outcome = resolve(ticket);
            self.got.insert(key, outcome);
        }
        self.finish(server, io::ErrorKind::Interrupted)
    }

    /// Non-blocking collection for deterministic (`workers = 0`) runs:
    /// call after the engine has been stepped to idle; any ticket still
    /// unresolved reports `Interrupted`.
    pub fn collect_ready(self, server: &Server) -> Vec<BlockReply> {
        self.collect_polled(server, io::ErrorKind::Interrupted)
    }

    /// Non-blocking collection: whatever is resolved now, every other key
    /// reporting `missing`.
    fn collect_polled(mut self, server: &Server, missing: io::ErrorKind) -> Vec<BlockReply> {
        self.poll_ready();
        self.finish(server, missing)
    }

    fn finish(self, server: &Server, missing: io::ErrorKind) -> Vec<BlockReply> {
        let missing = errkind_code(missing);
        let got = self.got;
        let pool = server.engine.pool();
        let (mut served, mut errors, mut bytes, mut crc_cached) = (0u64, 0u64, 0u64, 0u64);
        let replies: Vec<BlockReply> = self
            .demand_keys
            .iter()
            .map(|&key| {
                let result = got.get(&key).cloned().unwrap_or(Err(missing));
                let mut crc = None;
                match &result {
                    Ok(data) => {
                        served += 1;
                        bytes += (data.len() * std::mem::size_of::<f32>()) as u64;
                        crc = pool.crc_of(key, data);
                        crc_cached += u64::from(crc.is_some());
                    }
                    Err(_) => errors += 1,
                }
                BlockReply { key, result, crc }
            })
            .collect();
        server.record_served(self.session, served, errors, bytes, crc_cached);
        replies
    }
}

/// What a decoded request needs next: an immediate reply, or demand
/// collection after a pump.
pub enum Outcome {
    /// Reply is ready to send.
    Ready(Response),
    /// A `Fetch` was admitted; pump, then resolve the pending fetch.
    Fetch(PendingFetch),
}

/// An admitted `Fetch` awaiting its demand outcomes.
pub struct PendingFetch {
    session: u32,
    sub: Submission,
    /// Span clock opened at dispatch; the resolving call closes the
    /// `RpcServe` span with it.
    t0: Option<std::time::Instant>,
    /// Wire tag of the originating request (the `RpcServe` arg).
    tag: u8,
    /// Trace context of the originating request, re-established when the
    /// reply resolves (resolution runs outside the dispatch scope).
    trace: u64,
}

impl PendingFetch {
    /// Non-blocking progress check: `true` once the reply is complete
    /// and [`PendingFetch::resolve`] will lose nothing.
    pub fn poll(&mut self) -> bool {
        self.sub.poll_ready()
    }

    /// Block until the reply is complete (the thread-per-connection
    /// [`TcpServer`]).
    pub fn wait(self, server: &Server) -> Response {
        self.reply(|sub| sub.collect(server))
    }

    /// Reply from whatever is resolved now, every other demand key
    /// reporting `missing`: `Interrupted` once [`PendingFetch::poll`] said
    /// the reply is complete or a deterministic engine ran to idle,
    /// `TimedOut` at a missed per-frame demand deadline (those reads stay
    /// in flight and land in the pool for a later frame).
    pub fn resolve(self, server: &Server, missing: io::ErrorKind) -> Response {
        self.reply(|sub| sub.collect_polled(server, missing))
    }

    /// The `FetchReply` around `collect`'s blocks, closing the `RpcServe`
    /// span under the originating request's trace context.
    fn reply(self, collect: impl FnOnce(Submission) -> Vec<BlockReply>) -> Response {
        let PendingFetch { session, sub, t0, tag, trace } = self;
        let (shed, downgraded) = (sub.shed(), sub.downgraded());
        let blocks = collect(sub);
        viz_telemetry::with_trace(trace, || {
            viz_telemetry::span(Ev::RpcServe, u64::from(session), u64::from(tag), t0);
        });
        Response::FetchReply { session, blocks, shed, downgraded }
    }
}

/// Dispatch one decoded request against a server. Requests carrying a
/// v2 trace context run with the thread's trace context set to it, so
/// everything recorded during admission — and, via `DemandEntry`, the
/// engine work pumped later — is attributed to the originating client
/// request.
pub fn handle_request(server: &Server, req: Request) -> Outcome {
    let ctx = req.trace_ctx();
    if ctx.is_some() {
        viz_telemetry::with_trace(ctx.trace, || handle_request_inner(server, req))
    } else {
        handle_request_inner(server, req)
    }
}

fn handle_request_inner(server: &Server, req: Request) -> Outcome {
    let tag = req.tag_code();
    match req {
        Request::Open { name } => Outcome::Ready(match server.open_session(&name) {
            Ok(id) => Response::OpenAck { session: id.0 },
            Err(e) => Response::Error { code: e.code(), message: e.to_string() },
        }),
        Request::Close { session } => Outcome::Ready(if server.close_session(SessionId(session)) {
            Response::CloseAck { session }
        } else {
            let e = ServeError::UnknownSession;
            Response::Error { code: e.code(), message: e.to_string() }
        }),
        Request::Fetch { session, generation, demand, prefetch, trace } => {
            let t0 = viz_telemetry::start();
            match server.submit(SessionId(session), generation, demand, prefetch) {
                Ok(sub) => {
                    Outcome::Fetch(PendingFetch { session, sub, t0, tag, trace: trace.trace })
                }
                Err(e) => {
                    Outcome::Ready(Response::Error { code: e.code(), message: e.to_string() })
                }
            }
        }
        Request::Stats => Outcome::Ready(Response::StatsReply { counters: server.wire_counters() }),
        Request::Ping => Outcome::Ready(Response::Pong { now_ns: viz_telemetry::now_ns() }),
        Request::TelemetryGet => Outcome::Ready(Response::TelemetryReply(server.wire_telemetry())),
    }
}

/// Per-node request dispatch: lets a layer above the server (the cluster
/// node) tag every telemetry event emitted while serving a request with
/// its node id, around [`handle_request`]. One dispatcher is shared by
/// every connection of a front end, so implementations hold their own
/// state behind `Arc`s.
pub trait RequestDispatch: Send + Sync {
    /// Dispatch one decoded request against `server`.
    fn dispatch(&self, server: &Arc<Server>, req: Request) -> Outcome;

    /// Decode one request frame and dispatch it. A frame that does not
    /// decode is answered with the typed `Error` its
    /// [`proto::ProtoError`] maps to, and the connection stays up.
    fn dispatch_frame(&self, server: &Arc<Server>, frame: &[u8]) -> Outcome {
        match proto::decode_request(frame) {
            Ok(req) => self.dispatch(server, req),
            Err(pe) => Outcome::Ready(Response::Error { code: pe.code(), message: pe.to_string() }),
        }
    }
}

/// The single-node dispatcher: every request goes straight to
/// [`handle_request`].
pub(crate) struct DefaultDispatch;

impl RequestDispatch for DefaultDispatch {
    fn dispatch(&self, server: &Arc<Server>, req: Request) -> Outcome {
        handle_request(server, req)
    }
}

/// Serve one connection until the peer disconnects: decode → dispatch
/// through `dispatch` → pump → reply. Malformed frames answer with a
/// typed `Error` response and the connection stays up; sessions opened on
/// this connection are closed when it ends. The cluster node's TCP front
/// end tags every decoded request's events with its node id this way.
pub(crate) fn serve_connection_with<T: Transport>(
    server: &Arc<Server>,
    dispatch: &dyn RequestDispatch,
    mut t: T,
) {
    let mut conn = Conn::default();
    while let Ok(frame) = t.recv() {
        let resp = match conn.dispatch(server, dispatch, &frame, None) {
            Some(r) => r,
            None => conn.wait(server),
        };
        if send_reply(&mut t, &resp).is_err() {
            break;
        }
        server.pump();
    }
    conn.close(server);
}

/// Send `resp` as the segments it encodes to
/// ([`proto::ReplyFrame::segments`]): a `FetchReply`'s payloads go from the
/// pool's buffers to the transport without being copied into a frame.
pub(crate) fn send_reply(t: &mut impl Transport, resp: &Response) -> io::Result<()> {
    t.send_segments(&proto::encode_reply_frame(resp).segments())
}

/// A live TCP connection: the accept-side stream handle (kept so
/// shutdown can force the socket closed) and its handler thread.
type TcpConns = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// A localhost TCP front end: accept thread + one thread per connection.
pub struct TcpServer {
    server: Arc<Server>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: TcpConns,
}

impl TcpServer {
    /// Bind and start accepting. Use `"127.0.0.1:0"` to let the OS pick
    /// a port; read it back via [`TcpServer::local_addr`].
    pub fn bind(server: Arc<Server>, addr: &str) -> io::Result<TcpServer> {
        TcpServer::bind_with(server, Arc::new(DefaultDispatch), addr)
    }

    /// [`TcpServer::bind`] with a custom [`RequestDispatch`] shared by
    /// every accepted connection (how a cluster node serves over TCP with
    /// its events tagged by node id).
    pub fn bind_with(
        server: Arc<Server>,
        dispatch: Arc<dyn RequestDispatch>,
        addr: &str,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: TcpConns = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let server = server.clone();
            let stop = stop.clone();
            let conns = conns.clone();
            std::thread::spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let peer = match stream.try_clone() {
                        Ok(c) => c,
                        Err(_) => continue,
                    };
                    let server = server.clone();
                    let dispatch = dispatch.clone();
                    let handle = std::thread::spawn(move || {
                        serve_connection_with(
                            &server,
                            &*dispatch,
                            crate::TcpTransport::new(stream),
                        );
                    });
                    // Reap connections whose handler has returned, so a
                    // long-lived server holds one fd per *live* client.
                    let mut held = relock(&conns);
                    held.retain(|(_, h)| !h.is_finished());
                    held.push((peer, handle));
                }
            })
        };
        Ok(TcpServer { server, addr: local, stop, accept: Some(accept), conns })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served [`Server`].
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Stop accepting, close remaining connections, and drain.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *relock(&self.conns));
        for (stream, handle) in conns {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let _ = handle.join();
        }
        self.server.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeClient, TcpTransport};
    use viz_fetch::{BlockPool, FetchConfig, InstrumentedSource};
    use viz_volume::MemBlockStore;

    /// The `RequestShed` telemetry arg is a wire-stable code: flight-recorder
    /// dumps decode it, so no variant may change its number, and the
    /// retired byte quota's 4 and pool-pressure rung's 7 stay unused.
    #[test]
    fn shed_reason_codes_are_stable() {
        let codes = [
            (ShedReason::Draining, 1),
            (ShedReason::StaleGeneration, 2),
            (ShedReason::ClientQuota, 3),
            (ShedReason::BreakerOpen, 5),
            (ShedReason::QueueDepth, 6),
        ];
        for (reason, code) in codes {
            assert_eq!(reason.code(), code, "{reason:?}");
        }
    }

    /// Sequential clients that come and go leave nothing behind: each
    /// accept reaps the connections whose handler has returned, so the
    /// server holds the live client and at most one straggler — not one
    /// stream per client it ever accepted.
    #[test]
    fn accept_loop_reaps_finished_connections() {
        let src = Arc::new(InstrumentedSource::new(Arc::new(MemBlockStore::new()), Duration::ZERO));
        let engine = FetchEngine::spawn(src, Arc::new(BlockPool::new()), FetchConfig::default());
        let server = Server::new(Arc::new(engine), ServeConfig::default());
        let tcp = TcpServer::bind(server.clone(), "127.0.0.1:0").unwrap();
        let addr = tcp.local_addr().to_string();
        for i in 0..64 {
            let mut client = ServeClient::new(TcpTransport::connect(&addr).unwrap());
            client.open(&format!("c{i}")).unwrap();
            drop(client);
            // Let the handler see the hang-up and return before the next
            // accept, so that accept has something to reap.
            let t0 = Instant::now();
            while !relock(&tcp.conns).iter().all(|(_, h)| h.is_finished()) {
                assert!(t0.elapsed() < Duration::from_secs(10), "handler {i} never returned");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let held = relock(&tcp.conns).len();
        assert!(held <= 2, "{held} connections held after 64 sequential clients");
        assert!(server.sessions().is_empty());
        tcp.shutdown();
    }
}
