//! The fetch engine: priority scheduling, coalescing, cancellation, and
//! fault tolerance.
//!
//! A [`FetchEngine`] owns a binary heap of requests drained by a pool of
//! worker threads (or stepped inline in deterministic mode). Scheduling
//! order is: demand fetches first (the renderer is stalled on them), then
//! prefetches by descending priority (callers pass `T_important` entropy),
//! FIFO among equals. Every dispatch takes one key and reads it with one
//! [`BlockSource::read_block`] call, so a demand read never waits behind
//! sibling reads. Concurrent requests for one key coalesce onto a
//! single read; queued prefetches whose generation predates the current
//! camera step are cancelled at dequeue without touching the source.
//!
//! The fault-tolerance layer (the `retry`/`fault` modules) keeps a
//! misbehaving source from stalling the render loop:
//!
//! - transient read errors are retried with bounded exponential backoff
//!   and jitter ([`RetryPolicy`]); permanent ones fail fast;
//! - a hung read is abandoned after [`FetchConfig::source_timeout`]
//!   without losing the worker (the read finishes on a side thread and
//!   its payload still lands in the pool as a *late arrival*);
//! - a [`CircuitBreaker`] trips after consecutive request failures,
//!   fails prefetches fast while open, and half-opens on the next demand
//!   read so recovery needs no timers;
//! - workers are supervised: a panic is converted into a [`FetchError`]
//!   for the in-flight waiters and the worker re-enters its loop, and all
//!   engine locks are poison-tolerant so one bad block can never wedge
//!   the engine;
//! - waiters can bound their stall with [`FetchEngine::get_deadline`] /
//!   [`Ticket::wait_timeout`] and render degraded instead of blocking.

use crate::iopool::IoPool;
use crate::pool::{BlockPool, PoolEntry};
use crate::retry::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use std::any::Any;
use std::cell::Cell;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use viz_telemetry::{Counter, EventKind as Ev};
use viz_volume::{BlockKey, BlockSource};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FetchConfig {
    /// Worker threads. `0` selects deterministic mode: nothing runs until
    /// the caller steps the scheduler with [`FetchEngine::run_one`] /
    /// [`FetchEngine::run_until_idle`] on its own thread.
    pub workers: usize,
    /// Maximum queued *prefetch* requests; beyond it new prefetches are
    /// dropped (counted in [`FetchMetrics::dropped`]). Demand fetches are
    /// never dropped.
    pub queue_cap: usize,
    /// Retry policy for transient source errors. In deterministic mode
    /// retries happen inline with no backoff sleep.
    pub retry: RetryPolicy,
    /// Abandon a single source read after this long (the worker moves on;
    /// the read finishes on a pooled I/O thread and its payload still
    /// lands in the pool). `None` trusts the source to return. Timed
    /// reads dispatch through the bounded `IoPool` when set.
    pub source_timeout: Option<Duration>,
    /// Cap on concurrent I/O threads servicing timed reads. Reads beyond
    /// the cap queue for a pool thread instead of spawning more, so a
    /// fault storm of hung reads can no longer leak one thread per read.
    pub io_threads: usize,
    /// Circuit-breaker tuning (see [`CircuitBreaker`]). Set
    /// `failure_threshold` to `u32::MAX` to effectively disable it.
    pub breaker: BreakerConfig,
}

impl Default for FetchConfig {
    fn default() -> Self {
        FetchConfig {
            workers: 4,
            queue_cap: 4096,
            retry: RetryPolicy::default(),
            source_timeout: None,
            io_threads: 32,
            breaker: BreakerConfig::default(),
        }
    }
}

impl FetchConfig {
    /// The configuration [`FetchEngine::deterministic`] uses: no workers,
    /// effectively unbounded queue, inline zero-delay retries.
    pub fn deterministic() -> Self {
        FetchConfig { workers: 0, queue_cap: usize::MAX >> 1, ..Default::default() }
    }
}

/// Cloneable fetch failure. `io::Error` is not `Clone`, but a coalesced
/// read has many waiters and each needs a copy of the outcome.
#[derive(Debug, Clone)]
pub struct FetchError {
    /// The underlying `io::ErrorKind`.
    pub kind: io::ErrorKind,
    /// Human-readable context.
    pub message: String,
}

impl FetchError {
    /// Would the engine's retry layer consider this error transient?
    /// (See [`crate::retry::is_transient`].)
    pub fn is_transient(&self) -> bool {
        crate::retry::is_transient(self.kind)
    }
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fetch failed ({:?}): {}", self.kind, self.message)
    }
}

impl std::error::Error for FetchError {}

impl From<io::Error> for FetchError {
    fn from(e: io::Error) -> Self {
        FetchError { kind: e.kind(), message: e.to_string() }
    }
}

impl From<FetchError> for io::Error {
    fn from(e: FetchError) -> Self {
        io::Error::new(e.kind, e.message)
    }
}

fn shutdown_error() -> FetchError {
    FetchError { kind: io::ErrorKind::Interrupted, message: "fetch engine shut down".into() }
}

fn panic_error(p: &(dyn Any + Send)) -> FetchError {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into());
    FetchError { kind: io::ErrorKind::Other, message: format!("panic during block read: {msg}") }
}

type Payload = Arc<Vec<f32>>;
type FetchResult = Result<Payload, FetchError>;

/// Handle to one demand fetch. Resolves exactly once, via [`Ticket::wait`],
/// a successful [`Ticket::try_wait`], or a resolved [`Ticket::wait_until`].
#[derive(Debug)]
pub struct Ticket(TicketInner);

#[derive(Debug)]
enum TicketInner {
    Ready(FetchResult),
    Waiting(Receiver<FetchResult>),
}

impl Ticket {
    /// Block until the fetch completes. If the engine shuts down first,
    /// returns an [`io::ErrorKind::Interrupted`]-kinded error.
    pub fn wait(self) -> FetchResult {
        match self.0 {
            TicketInner::Ready(r) => r,
            TicketInner::Waiting(rx) => rx.recv().unwrap_or_else(|_| Err(shutdown_error())),
        }
    }

    /// Non-blocking poll: `Ok(result)` once resolved, `Err(self)` while the
    /// fetch is still in flight (deterministic mode: step the engine, then
    /// poll again).
    pub fn try_wait(self) -> Result<FetchResult, Ticket> {
        match self.0 {
            TicketInner::Ready(r) => Ok(r),
            TicketInner::Waiting(rx) => match rx.try_recv() {
                Ok(r) => Ok(r),
                Err(TryRecvError::Disconnected) => Ok(Err(shutdown_error())),
                Err(TryRecvError::Empty) => Err(Ticket(TicketInner::Waiting(rx))),
            },
        }
    }

    /// Wait up to `timeout`: `Ok(result)` once resolved, `Err(self)` on
    /// deadline expiry — the fetch stays in flight and the ticket can keep
    /// waiting, or be dropped to render degraded (the payload still lands
    /// in the pool when the read completes).
    pub(crate) fn wait_timeout(self, timeout: Duration) -> Result<FetchResult, Ticket> {
        match self.0 {
            TicketInner::Ready(r) => Ok(r),
            TicketInner::Waiting(rx) => match rx.recv_timeout(timeout) {
                Ok(r) => Ok(r),
                Err(RecvTimeoutError::Disconnected) => Ok(Err(shutdown_error())),
                Err(RecvTimeoutError::Timeout) => Err(Ticket(TicketInner::Waiting(rx))),
            },
        }
    }

    /// `wait_timeout` against an absolute deadline. Callers
    /// bounding many fetches by one budget (a frame's demand set) compute
    /// the deadline once and pass it to every wait, so the blocks share a
    /// single clock instead of each re-measuring its own remainder.
    pub fn wait_until(self, deadline: Instant) -> Result<FetchResult, Ticket> {
        self.wait_timeout(deadline.saturating_duration_since(Instant::now()))
    }
}

/// Heap node. `stamp` pairs it with the live [`Pending`] entry: priority
/// upgrades push a fresh node and re-stamp the entry, so superseded nodes
/// are recognized and skipped at dequeue (lazy deletion).
#[derive(Debug)]
struct HeapEntry {
    demand: bool,
    pri: f64,
    seq: u64,
    stamp: u64,
    key: BlockKey,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.demand
            .cmp(&other.demand)
            .then(self.pri.total_cmp(&other.pri))
            .then(other.seq.cmp(&self.seq)) // earlier request wins ties
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}

impl Eq for HeapEntry {}

/// One logical queued request per key (coalescing happens at enqueue).
struct Pending {
    demand: bool,
    pri: f64,
    gen: u64,
    stamp: u64,
    /// Fairness tag of the caller that *created* this entry (0 = untagged;
    /// the serve layer passes session ids). Later coalescers with a
    /// different tag count as cross-tag saves but do not take ownership.
    tag: u32,
    /// Enqueue time when telemetry was enabled at admission (closes the
    /// `QueueWait` span at dispatch).
    enq: Option<Instant>,
    /// Trace context of the caller that created this entry (0 = untraced).
    /// Restored on the servicing thread so `SourceRead` / `FetchService` /
    /// `PoolInsert` attribute to the originating client request. A traced
    /// demand upgrade adopts an untraced entry's attribution; other
    /// cross-trace coalescers are recorded as [`Ev::TraceJoin`] edges.
    trace: u64,
    /// Node id of the admitting context (0 = client/router process),
    /// restored alongside `trace` while servicing.
    node: u16,
    waiters: Vec<Sender<FetchResult>>,
}

/// One read being serviced right now; keeps the owner's fairness tag so
/// coalescers arriving mid-read are still attributed.
struct Inflight {
    tag: u32,
    /// Owning trace for [`Ev::TraceJoin`] edges from late coalescers.
    trace: u64,
    waiters: Vec<Sender<FetchResult>>,
}

struct State {
    heap: BinaryHeap<HeapEntry>,
    pending: HashMap<BlockKey, Pending>,
    inflight: HashMap<BlockKey, Inflight>,
    pending_prefetch: usize,
    seq: u64,
    stamp: u64,
    shutdown: bool,
}

/// Engine counters: named [`viz_telemetry::Counter`]s so the same values
/// feed [`FetchMetrics`] and Prometheus exposition without a mapping
/// table.
struct Counters {
    demand_requests: Counter,
    prefetch_requests: Counter,
    coalesced: Counter,
    cross_tag_coalesced: Counter,
    dropped: Counter,
    cancelled: Counter,
    completed: Counter,
    demand_completed: Counter,
    prefetch_completed: Counter,
    errors: Counter,
    retries: Counter,
    timeouts: Counter,
    deadline_misses: Counter,
    worker_panics: Counter,
    late_arrivals: Counter,
    breaker_rejected_admission: Counter,
    breaker_rejected_dequeue: Counter,
    lat_sum_ns: Counter,
    /// Starts at `u64::MAX` so `min_of` records the true minimum;
    /// `lat_count == 0` means "no reads yet".
    lat_min_ns: Counter,
    lat_max_ns: Counter,
    lat_count: Counter,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            demand_requests: Counter::new("demand_requests"),
            prefetch_requests: Counter::new("prefetch_requests"),
            coalesced: Counter::new("coalesced"),
            cross_tag_coalesced: Counter::new("cross_tag_coalesced"),
            dropped: Counter::new("dropped"),
            cancelled: Counter::new("cancelled"),
            completed: Counter::new("completed"),
            demand_completed: Counter::new("demand_completed"),
            prefetch_completed: Counter::new("prefetch_completed"),
            errors: Counter::new("errors"),
            retries: Counter::new("retries"),
            timeouts: Counter::new("timeouts"),
            deadline_misses: Counter::new("deadline_misses"),
            worker_panics: Counter::new("worker_panics"),
            late_arrivals: Counter::new("late_arrivals"),
            breaker_rejected_admission: Counter::new("breaker_rejected_admission"),
            breaker_rejected_dequeue: Counter::new("breaker_rejected_dequeue"),
            lat_sum_ns: Counter::new("lat_sum_ns"),
            lat_min_ns: Counter::with_initial("lat_min_ns", u64::MAX),
            lat_max_ns: Counter::new("lat_max_ns"),
            lat_count: Counter::new("lat_count"),
        }
    }
}

impl Counters {
    /// `(name, value)` pairs for every counter, in declaration order —
    /// the `extra` input of [`viz_telemetry::Trace::prometheus_text`].
    fn pairs(&self) -> Vec<(&'static str, u64)> {
        let all = [
            &self.demand_requests,
            &self.prefetch_requests,
            &self.coalesced,
            &self.cross_tag_coalesced,
            &self.dropped,
            &self.cancelled,
            &self.completed,
            &self.demand_completed,
            &self.prefetch_completed,
            &self.errors,
            &self.retries,
            &self.timeouts,
            &self.deadline_misses,
            &self.worker_panics,
            &self.late_arrivals,
            &self.breaker_rejected_admission,
            &self.breaker_rejected_dequeue,
            &self.lat_sum_ns,
            &self.lat_min_ns,
            &self.lat_max_ns,
            &self.lat_count,
        ];
        all.iter().map(|c| (c.name(), c.get())).collect()
    }
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    idle: Condvar,
    source: Arc<dyn BlockSource>,
    pool: Arc<BlockPool>,
    generation: AtomicU64,
    breaker: CircuitBreaker,
    io: IoPool,
    cfg: FetchConfig,
    m: Counters,
}

/// Poison-tolerant state lock: a panicking worker must never wedge the
/// engine, so a poisoned mutex is entered anyway (the supervisor repairs
/// any half-done job via the inflight map).
fn lock_state(s: &Shared) -> MutexGuard<'_, State> {
    s.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Point-in-time engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FetchMetrics {
    /// Demand (`request`/`get`) calls.
    pub demand_requests: u64,
    /// `prefetch` calls.
    pub prefetch_requests: u64,
    /// Requests merged onto an existing result (resident block), queue
    /// entry, or in-flight read instead of issuing their own. Behind a
    /// `viz_serve::Server` this is mostly demand pool hits and in-flight
    /// joins: the server drops predicted keys that are already resident
    /// before they reach the engine (counting them as
    /// `serve_prefetch_resident`), so they are not counted here.
    pub coalesced: u64,
    /// Of `coalesced`, merges where the incoming fairness tag differed
    /// from the tag that created the queue/in-flight entry — i.e. one
    /// client's read served another client (resident-pool hits carry no
    /// owner and are not attributed here).
    pub cross_tag_coalesced: u64,
    /// Prefetches rejected because the queue was at `queue_cap`.
    pub dropped: u64,
    /// Stale-generation prefetches discarded at dequeue (source untouched).
    pub cancelled: u64,
    /// Reads that completed successfully.
    pub completed: u64,
    /// Of `completed`, how many were demand fetches.
    pub demand_completed: u64,
    /// Of `completed`, how many were prefetches.
    pub prefetch_completed: u64,
    /// Requests that failed after retries were exhausted (or fail-fast).
    pub errors: u64,
    /// Transient-error retry attempts issued.
    pub retries: u64,
    /// Source reads abandoned at [`FetchConfig::source_timeout`].
    pub timeouts: u64,
    /// [`FetchEngine::get_deadline`] calls that expired unresolved.
    pub deadline_misses: u64,
    /// Worker panics caught and converted to waiter errors.
    pub worker_panics: u64,
    /// Abandoned reads whose payload later landed in the pool anyway.
    pub late_arrivals: u64,
    /// I/O threads spawned for timed reads over the engine's lifetime —
    /// bounded by [`FetchConfig::io_threads`] even under a fault storm.
    pub io_threads_spawned: u64,
    /// Circuit-breaker state at snapshot time.
    pub breaker_state: BreakerState,
    /// Closed/half-open → open transitions.
    pub breaker_opens: u64,
    /// Open → half-open probe dispatches.
    pub breaker_half_opens: u64,
    /// Open/half-open → closed recoveries.
    pub breaker_closes: u64,
    /// Prefetches failed fast while the breaker was open (admission +
    /// dequeue; `breaker_rejected_admission + breaker_rejected_dequeue`).
    pub breaker_rejected: u64,
    /// Of `breaker_rejected`, how many were turned away at admission.
    pub breaker_rejected_admission: u64,
    /// Of `breaker_rejected`, how many were queued prefetches discarded
    /// at dequeue after the breaker opened.
    pub breaker_rejected_dequeue: u64,
    /// Requests currently queued (gauge).
    pub queue_depth: usize,
    /// Of `queue_depth`, entries in the demand class (gauge).
    pub queue_depth_demand: usize,
    /// Of `queue_depth`, entries in the prefetch class (gauge). The serve
    /// layer's shed decision watches this without poking engine internals.
    pub queue_depth_prefetch: usize,
    /// Reads currently in flight (gauge).
    pub inflight: usize,
    /// Current cancellation generation.
    pub generation: u64,
    /// Fastest successful read, seconds (0 if none).
    pub latency_min_s: f64,
    /// Mean successful read, seconds (0 if none).
    pub latency_mean_s: f64,
    /// Slowest successful read, seconds (0 if none).
    pub latency_max_s: f64,
}

/// Multi-worker block-fetch engine over a [`BlockSource`]. See the crate
/// docs for the scheduling/coalescing/cancellation contract.
pub struct FetchEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

struct Job {
    key: BlockKey,
    demand: bool,
    /// Admitting caller's trace context, restored while servicing.
    trace: u64,
    /// Admitting caller's node id, restored while servicing.
    node: u16,
}

impl FetchEngine {
    /// Start an engine. `cfg.workers == 0` selects deterministic mode.
    pub fn spawn(source: Arc<dyn BlockSource>, pool: Arc<BlockPool>, cfg: FetchConfig) -> Self {
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                pending: HashMap::new(),
                inflight: HashMap::new(),
                pending_prefetch: 0,
                seq: 0,
                stamp: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            source,
            pool,
            generation: AtomicU64::new(0),
            breaker: CircuitBreaker::new(),
            io: IoPool::new(cfg.io_threads),
            cfg,
            m: Counters::default(),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let s = shared.clone();
                std::thread::Builder::new()
                    .name(format!("viz-fetch-{i}"))
                    .spawn(move || supervised_worker(&s))
                    .expect("failed to spawn fetch worker")
            })
            .collect();
        FetchEngine { shared, workers }
    }

    /// Deterministic single-stepped engine (no threads, unbounded queue).
    pub fn deterministic(source: Arc<dyn BlockSource>, pool: Arc<BlockPool>) -> Self {
        Self::spawn(source, pool, FetchConfig::deterministic())
    }

    /// The resident pool this engine fills.
    pub fn pool(&self) -> &Arc<BlockPool> {
        &self.shared.pool
    }

    /// Queue a background load of `key` at `priority` (higher = sooner;
    /// callers pass `T_important` entropy). Returns `false` only when the
    /// request was dropped: queue at capacity, circuit breaker open, or
    /// engine shutting down. Requests for resident, queued, or in-flight
    /// keys coalesce and return `true`.
    pub fn prefetch(&self, key: BlockKey, priority: f64) -> bool {
        self.prefetch_tagged(key, priority, 0)
    }

    /// [`Self::prefetch`] with a fairness tag (the serve layer passes
    /// session ids; 0 means untagged). When the request coalesces onto a
    /// queue entry or in-flight read created under a *different* tag, the
    /// engine counts a [`FetchMetrics::cross_tag_coalesced`] save and
    /// emits a `CrossClientCoalesce` event — one client's read served
    /// another's.
    pub(crate) fn prefetch_tagged(&self, key: BlockKey, priority: f64, tag: u32) -> bool {
        let s = &*self.shared;
        s.m.prefetch_requests.inc();
        if s.pool.contains(key) {
            s.m.coalesced.inc();
            viz_telemetry::instant(Ev::FetchCoalesce, key_salt(key), 0);
            return true;
        }
        let mut st = lock_state(s);
        if st.shutdown {
            s.m.dropped.inc();
            viz_telemetry::instant(Ev::FetchDrop, key_salt(key), 1);
            return false;
        }
        let gen = s.generation.load(Ordering::Relaxed);
        let (accepted, enqueued) = prefetch_locked(s, &mut st, key, priority, tag, gen);
        drop(st);
        if enqueued {
            s.work.notify_one();
        }
        accepted
    }

    /// Admit a whole visible-set delta in one call: every `(key,
    /// priority)` pair runs the full per-key admission — pool/in-flight/
    /// pending coalescing, breaker and queue-cap checks — under a single
    /// state lock, so a thousand-block camera step costs one lock
    /// round-trip instead of a thousand. Returns how many entries were
    /// accepted (queued, upgraded, or coalesced); dropped and
    /// breaker-rejected keys are counted exactly as per-key admission
    /// would count them. `tag` is the fairness tag, as in
    /// [`Self::request_tagged`].
    pub fn prefetch_batch_tagged(&self, items: &[(BlockKey, f64)], tag: u32) -> usize {
        let s = &*self.shared;
        let mut st = lock_state(s);
        let gen = s.generation.load(Ordering::Relaxed);
        let mut accepted = 0usize;
        let mut enqueued = 0usize;
        for &(key, priority) in items {
            s.m.prefetch_requests.inc();
            if st.shutdown {
                s.m.dropped.inc();
                viz_telemetry::instant(Ev::FetchDrop, key_salt(key), 1);
                continue;
            }
            let (acc, enq) = prefetch_locked(s, &mut st, key, priority, tag, gen);
            accepted += usize::from(acc);
            enqueued += usize::from(enq);
        }
        drop(st);
        if enqueued == 1 {
            s.work.notify_one();
        } else if enqueued > 1 {
            s.work.notify_all();
        }
        accepted
    }

    /// Demand-fetch `key`: resident blocks resolve immediately; otherwise
    /// the request jumps every queued prefetch (upgrading one already
    /// queued for this key) and the [`Ticket`] resolves when the read
    /// lands. Demand fetches are never dropped or cancelled.
    pub fn request(&self, key: BlockKey) -> Ticket {
        self.request_tagged(key, 0)
    }

    /// [`Self::request`] with a fairness tag (see
    /// `prefetch_tagged` for the cross-tag coalescing contract).
    pub fn request_tagged(&self, key: BlockKey, tag: u32) -> Ticket {
        let s = &*self.shared;
        s.m.demand_requests.inc();
        if let Some(p) = s.pool.get(key) {
            s.m.coalesced.inc();
            viz_telemetry::instant(Ev::FetchCoalesce, key_salt(key), 0);
            return Ticket(TicketInner::Ready(Ok(p)));
        }
        let mut st = lock_state(s);
        // Re-check under the lock: completions insert into the pool while
        // holding it, so a miss above may have landed just before we got in.
        if let Some(p) = s.pool.get(key) {
            s.m.coalesced.inc();
            viz_telemetry::instant(Ev::FetchCoalesce, key_salt(key), 0);
            return Ticket(TicketInner::Ready(Ok(p)));
        }
        if st.shutdown {
            return Ticket(TicketInner::Ready(Err(shutdown_error())));
        }
        let (tx, rx) = channel();
        if let Some(inf) = st.inflight.get_mut(&key) {
            s.m.coalesced.inc();
            viz_telemetry::instant(Ev::FetchCoalesce, key_salt(key), 1);
            let owner = inf.tag;
            let owner_trace = inf.trace;
            inf.waiters.push(tx);
            note_cross_tag(s, key, owner, tag);
            note_trace_join(key, owner_trace);
            return Ticket(TicketInner::Waiting(rx));
        }
        if st.pending.contains_key(&key) {
            s.m.coalesced.inc();
            viz_telemetry::instant(Ev::FetchCoalesce, key_salt(key), 2);
            st.seq += 1;
            st.stamp += 1;
            let (seq, stamp) = (st.seq, st.stamp);
            let p = st.pending.get_mut(&key).unwrap();
            note_cross_tag(s, key, p.tag, tag);
            note_trace_join(key, p.trace);
            if p.trace == 0 {
                // The demand caller takes over attribution of an entry
                // admitted untraced (typically a speculative prefetch).
                p.trace = viz_telemetry::current_trace();
                p.node = viz_telemetry::current_node();
            }
            p.waiters.push(tx);
            if !p.demand {
                p.demand = true;
                p.stamp = stamp;
                let pri = p.pri;
                st.pending_prefetch -= 1;
                st.heap.push(HeapEntry { demand: true, pri, seq, stamp, key });
                drop(st);
                viz_telemetry::instant(Ev::FetchAdmitDemand, key_salt(key), 1);
                s.work.notify_one();
            }
            return Ticket(TicketInner::Waiting(rx));
        }
        let gen = s.generation.load(Ordering::Relaxed);
        st.seq += 1;
        st.stamp += 1;
        let (seq, stamp) = (st.seq, st.stamp);
        let enq = viz_telemetry::start();
        st.pending.insert(
            key,
            Pending {
                demand: true,
                pri: 0.0,
                gen,
                stamp,
                tag,
                enq,
                trace: viz_telemetry::current_trace(),
                node: viz_telemetry::current_node(),
                waiters: vec![tx],
            },
        );
        st.heap.push(HeapEntry { demand: true, pri: 0.0, seq, stamp, key });
        drop(st);
        viz_telemetry::instant(Ev::FetchAdmitDemand, key_salt(key), 0);
        s.work.notify_one();
        Ticket(TicketInner::Waiting(rx))
    }

    /// Blocking demand fetch: `request(key).wait()`. Do not call in
    /// deterministic mode (no worker will ever service it — use
    /// [`Self::request`] + [`Self::run_until_idle`] there).
    pub fn get(&self, key: BlockKey) -> FetchResult {
        self.request(key).wait()
    }

    /// Demand fetch with a per-request deadline. On expiry returns a
    /// [`io::ErrorKind::TimedOut`]-kinded error and counts a
    /// [`FetchMetrics::deadline_misses`]; the read itself stays in flight,
    /// so the payload lands in the pool for the next frame (degraded
    /// rendering now, recovery later). Not meaningful in deterministic
    /// mode, where nothing services requests while the caller blocks.
    pub fn get_deadline(&self, key: BlockKey, deadline: Duration) -> FetchResult {
        match self.request(key).wait_timeout(deadline) {
            Ok(r) => r,
            Err(_ticket) => {
                self.shared.m.deadline_misses.inc();
                viz_telemetry::instant(Ev::DeadlineMiss, key_salt(key), deadline.as_nanos() as u64);
                Err(FetchError {
                    kind: io::ErrorKind::TimedOut,
                    message: format!("demand read of {key:?} missed {deadline:?} deadline"),
                })
            }
        }
    }

    /// Demand fetch bounded by an absolute deadline: [`Self::get_deadline`]
    /// with the budget arithmetic done once on the caller's clock (see
    /// [`Ticket::wait_until`]). An already-passed deadline still admits
    /// the request — the read stays in flight for a later frame — and
    /// returns [`io::ErrorKind::TimedOut`] immediately.
    pub fn get_until(&self, key: BlockKey, deadline: Instant) -> FetchResult {
        match self.request(key).wait_until(deadline) {
            Ok(r) => r,
            Err(_ticket) => {
                self.shared.m.deadline_misses.inc();
                viz_telemetry::instant(Ev::DeadlineMiss, key_salt(key), 0);
                Err(FetchError {
                    kind: io::ErrorKind::TimedOut,
                    message: format!("demand read of {key:?} missed its frame deadline"),
                })
            }
        }
    }

    /// Advance the cancellation generation (call once per camera step).
    /// Prefetches queued under earlier generations and not re-requested
    /// since are dropped at dequeue. Returns the new generation.
    pub fn bump_generation(&self) -> u64 {
        self.shared.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current cancellation generation.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Relaxed)
    }

    /// Current circuit-breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.shared.breaker.state()
    }

    /// Wait until every queued and in-flight request has been serviced,
    /// cancelled, or dropped. In deterministic mode this steps the
    /// scheduler to idle on the calling thread.
    pub fn sync(&self) {
        if self.shared.cfg.workers == 0 {
            self.run_until_idle();
            return;
        }
        let s = &*self.shared;
        let mut st = lock_state(s);
        while !(st.pending.is_empty() && st.inflight.is_empty()) {
            st = s.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Deterministic mode: dequeue and service the single highest-priority
    /// runnable request on the calling thread. Stale-generation prefetches
    /// encountered on the way are cancelled (and not counted as serviced).
    /// A panicking source is caught here, surfaced to waiters as a
    /// [`FetchError`], and does not propagate to the caller.
    /// Returns the serviced key, or `None` when the queue is idle.
    pub fn run_one(&self) -> Option<BlockKey> {
        let s = &self.shared;
        let job = {
            let mut st = lock_state(s);
            try_dequeue(s, &mut st)
        }?;
        let key = job.key;
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| service(s, job))) {
            s.m.worker_panics.inc();
            fail_job_after_panic(s, key, p.as_ref());
        }
        Some(key)
    }

    /// Deterministic mode: run until the queue drains; returns how many
    /// requests were serviced (cancelled ones don't count).
    pub fn run_until_idle(&self) -> usize {
        let mut n = 0;
        while self.run_one().is_some() {
            n += 1;
        }
        n
    }

    /// Requests currently queued (logical entries, not stale heap nodes).
    pub fn queue_depth(&self) -> usize {
        lock_state(&self.shared).pending.len()
    }

    /// Queued entries per priority class, `(demand, prefetch)` — one lock,
    /// no full metrics snapshot. The serve layer polls this on every
    /// admission decision.
    pub fn queue_depths(&self) -> (usize, usize) {
        let st = lock_state(&self.shared);
        (st.pending.len() - st.pending_prefetch, st.pending_prefetch)
    }

    /// Engine counter `(name, value)` pairs, for Prometheus exposition
    /// (the `extra` argument of [`viz_telemetry::Trace::prometheus_text`]).
    pub fn counter_pairs(&self) -> Vec<(&'static str, u64)> {
        let mut pairs = self.shared.m.pairs();
        pairs.push(("io_threads_spawned", self.shared.io.spawned() as u64));
        pairs
    }

    /// Snapshot the engine metrics.
    pub fn metrics(&self) -> FetchMetrics {
        let s = &*self.shared;
        let (queue_depth, queue_depth_prefetch, inflight) = {
            let st = lock_state(s);
            (st.pending.len(), st.pending_prefetch, st.inflight.len())
        };
        let count = s.m.lat_count.get();
        let (min, mean, max) = if count == 0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                s.m.lat_min_ns.get() as f64 * 1e-9,
                s.m.lat_sum_ns.get() as f64 * 1e-9 / count as f64,
                s.m.lat_max_ns.get() as f64 * 1e-9,
            )
        };
        let (breaker_opens, breaker_half_opens, breaker_closes, breaker_rejected) =
            s.breaker.counters();
        FetchMetrics {
            demand_requests: s.m.demand_requests.get(),
            prefetch_requests: s.m.prefetch_requests.get(),
            coalesced: s.m.coalesced.get(),
            cross_tag_coalesced: s.m.cross_tag_coalesced.get(),
            dropped: s.m.dropped.get(),
            cancelled: s.m.cancelled.get(),
            completed: s.m.completed.get(),
            demand_completed: s.m.demand_completed.get(),
            prefetch_completed: s.m.prefetch_completed.get(),
            errors: s.m.errors.get(),
            retries: s.m.retries.get(),
            timeouts: s.m.timeouts.get(),
            deadline_misses: s.m.deadline_misses.get(),
            worker_panics: s.m.worker_panics.get(),
            late_arrivals: s.m.late_arrivals.get(),
            io_threads_spawned: s.io.spawned() as u64,
            breaker_state: s.breaker.state(),
            breaker_opens,
            breaker_half_opens,
            breaker_closes,
            breaker_rejected,
            breaker_rejected_admission: s.m.breaker_rejected_admission.get(),
            breaker_rejected_dequeue: s.m.breaker_rejected_dequeue.get(),
            queue_depth,
            queue_depth_demand: queue_depth - queue_depth_prefetch,
            queue_depth_prefetch,
            inflight,
            generation: s.generation.load(Ordering::Relaxed),
            latency_min_s: min,
            latency_mean_s: mean,
            latency_max_s: max,
        }
    }

    /// Stop the workers (queued requests are abandoned; waiting tickets
    /// resolve with an `Interrupted` error) and return final metrics.
    /// Call [`Self::sync`] first to drain instead.
    pub fn shutdown(mut self) -> FetchMetrics {
        self.stop_workers();
        self.metrics()
    }

    fn stop_workers(&mut self) {
        {
            let mut st = lock_state(&self.shared);
            if st.shutdown {
                return;
            }
            st.shutdown = true;
            // Abandoned demand waiters unblock via sender drop.
            st.pending.clear();
            st.pending_prefetch = 0;
            st.heap.clear();
        }
        self.shared.work.notify_all();
        self.shared.idle.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Close the I/O pool last: queued timed reads finish (or hang on
        // their detached threads), and dropping the job channel breaks
        // the `Arc<Shared>` cycle through queued jobs.
        self.shared.io.shutdown();
    }
}

impl Drop for FetchEngine {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

impl fmt::Debug for FetchEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FetchEngine")
            .field("cfg", &self.shared.cfg)
            .field("metrics", &self.metrics())
            .finish()
    }
}

/// Per-key prefetch admission with the state lock already held: pool and
/// in-flight coalescing, pending merge/upgrade, breaker and queue-cap
/// checks, fresh enqueue. The pool check runs under the lock because
/// completions insert while holding it — a racing miss would otherwise
/// re-read a key that just landed. Returns `(accepted, enqueued)`;
/// `enqueued` means a heap node was pushed and a worker needs waking.
fn prefetch_locked(
    s: &Shared,
    st: &mut MutexGuard<'_, State>,
    key: BlockKey,
    priority: f64,
    tag: u32,
    gen: u64,
) -> (bool, bool) {
    if s.pool.contains(key) {
        s.m.coalesced.inc();
        viz_telemetry::instant(Ev::FetchCoalesce, key_salt(key), 0);
        return (true, false);
    }
    if let Some(inf) = st.inflight.get(&key) {
        s.m.coalesced.inc();
        viz_telemetry::instant(Ev::FetchCoalesce, key_salt(key), 1);
        note_cross_tag(s, key, inf.tag, tag);
        note_trace_join(key, inf.trace);
        return (true, false);
    }
    if st.pending.contains_key(&key) {
        s.m.coalesced.inc();
        viz_telemetry::instant(Ev::FetchCoalesce, key_salt(key), 2);
        st.seq += 1;
        st.stamp += 1;
        let (seq, stamp) = (st.seq, st.stamp);
        let p = st.pending.get_mut(&key).unwrap();
        note_cross_tag(s, key, p.tag, tag);
        note_trace_join(key, p.trace);
        // Re-requested now: wanted by the current generation even if it
        // was first queued before a camera step.
        p.gen = gen;
        if !p.demand && priority > p.pri {
            p.pri = priority;
            p.stamp = stamp;
            st.heap.push(HeapEntry { demand: false, pri: priority, seq, stamp, key });
            return (true, true);
        }
        return (true, false);
    }
    // Source presumed down: speculative reads would only feed the
    // failure run. Demand reads still pass (they carry the probe).
    if !s.breaker.admit_prefetch() {
        s.m.breaker_rejected_admission.inc();
        viz_telemetry::instant(Ev::BreakerReject, key_salt(key), 0);
        return (false, false);
    }
    if st.pending_prefetch >= s.cfg.queue_cap {
        s.m.dropped.inc();
        viz_telemetry::instant(Ev::FetchDrop, key_salt(key), 0);
        return (false, false);
    }
    st.seq += 1;
    st.stamp += 1;
    let (seq, stamp) = (st.seq, st.stamp);
    let enq = viz_telemetry::start();
    st.pending.insert(
        key,
        Pending {
            demand: false,
            pri: priority,
            gen,
            stamp,
            tag,
            enq,
            trace: viz_telemetry::current_trace(),
            node: viz_telemetry::current_node(),
            waiters: Vec::new(),
        },
    );
    st.pending_prefetch += 1;
    st.heap.push(HeapEntry { demand: false, pri: priority, seq, stamp, key });
    viz_telemetry::instant(Ev::FetchAdmitPrefetch, key_salt(key), priority.to_bits());
    (true, true)
}

/// Pop the next runnable job, discarding stale heap nodes (superseded by a
/// priority upgrade), cancelling stale-generation prefetches, and failing
/// prefetches fast while the breaker is not closed. Demand dequeues while
/// the breaker is open become its half-open probe.
fn try_dequeue(s: &Shared, st: &mut MutexGuard<'_, State>) -> Option<Job> {
    while let Some(e) = st.heap.pop() {
        let live = st.pending.get(&e.key).is_some_and(|p| p.stamp == e.stamp);
        if !live {
            continue;
        }
        let p = st.pending.remove(&e.key).unwrap();
        if !p.demand {
            st.pending_prefetch -= 1;
            if p.gen < s.generation.load(Ordering::Relaxed) {
                // The camera moved on; this prediction is void. The source
                // is never touched. Demand fetches never take this branch.
                s.m.cancelled.inc();
                viz_telemetry::instant(Ev::FetchCancel, key_salt(e.key), p.gen);
                notify_if_idle(s, st);
                continue;
            }
            if !s.breaker.admit_prefetch() {
                // Queued before the breaker opened: fail fast rather than
                // burn a read on a source presumed down.
                s.m.breaker_rejected_dequeue.inc();
                viz_telemetry::instant(Ev::BreakerReject, key_salt(e.key), 1);
                notify_if_idle(s, st);
                continue;
            }
        } else {
            s.breaker.on_demand_dispatch();
        }
        viz_telemetry::span(Ev::QueueWait, key_salt(e.key), u64::from(p.demand), p.enq);
        st.inflight.insert(e.key, Inflight { tag: p.tag, trace: p.trace, waiters: p.waiters });
        return Some(Job { key: e.key, demand: p.demand, trace: p.trace, node: p.node });
    }
    None
}

fn notify_if_idle(s: &Shared, st: &MutexGuard<'_, State>) {
    if st.pending.is_empty() && st.inflight.is_empty() {
        s.idle.notify_all();
    }
}

/// Record a cross-trace coalesce: the calling thread's ambient trace
/// joins a read owned by `owner_trace`. Emitted on the joining caller's
/// thread so the event auto-stamps the joining trace id; `arg` carries
/// the owner's. Silent when either side is untraced or both are the
/// same request — the join edge is what lets a merged cluster trace
/// connect every client whose demand was served by one source read.
fn note_trace_join(key: BlockKey, owner_trace: u64) {
    if !viz_telemetry::enabled() {
        return;
    }
    let joining = viz_telemetry::current_trace();
    if joining != 0 && owner_trace != 0 && joining != owner_trace {
        viz_telemetry::instant(Ev::TraceJoin, key_salt(key), owner_trace);
    }
}

/// Count a coalesce that crossed fairness tags (one client's queued or
/// in-flight read serving another client's request).
fn note_cross_tag(s: &Shared, key: BlockKey, owner: u32, incoming: u32) {
    if owner != incoming {
        s.m.cross_tag_coalesced.inc();
        viz_telemetry::instant(
            Ev::CrossClientCoalesce,
            key_salt(key),
            (u64::from(owner) << 32) | u64::from(incoming),
        );
    }
}

/// Stable per-key salt decorrelating backoff jitter between hot keys.
fn key_salt(key: BlockKey) -> u64 {
    (u64::from(key.var) << 48) ^ (u64::from(key.time) << 32) ^ u64::from(key.block.0)
}

/// One source read attempt, honoring `cfg.source_timeout`. With a timeout
/// the read runs on the bounded [`IoPool`]: if it outlasts the deadline
/// the worker abandons it (returning `TimedOut`), and the pool thread
/// parks a successful late result straight into the pool so the block is
/// not lost — only late. At most [`FetchConfig::io_threads`] such reads
/// run concurrently; a storm of hung reads queues instead of leaking one
/// thread per read.
fn read_source(s: &Arc<Shared>, key: BlockKey) -> Result<Vec<f32>, FetchError> {
    let Some(limit) = s.cfg.source_timeout else {
        // No timeout: read inline. A panicking source propagates to the
        // worker supervisor / `run_one`, which fails the job's waiters.
        return s.source.read_block(key).map_err(FetchError::from);
    };
    let (tx, rx) = channel::<Result<Vec<f32>, FetchError>>();
    let io_shared = s.clone();
    let submitted = s.io.submit(Box::new(move || {
        let res = catch_unwind(AssertUnwindSafe(|| io_shared.source.read_block(key)));
        let out = match res {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(FetchError::from(e)),
            Err(p) => Err(panic_error(p.as_ref())),
        };
        if let Err(unsent) = tx.send(out) {
            // The worker timed out and dropped the receiver. Land the
            // payload anyway: the next frame hits the pool instead of
            // re-reading a block we already paid for.
            if let Ok(data) = unsent.0 {
                let entry = PoolEntry::new(Arc::new(data));
                let _st = lock_state(&io_shared);
                io_shared.pool.insert_entry(key, entry);
                io_shared.m.late_arrivals.inc();
                viz_telemetry::instant(Ev::LateArrival, key_salt(key), 0);
            }
        }
    }));
    if !submitted {
        // Pool already shut down (engine stopping): read inline; the
        // shutdown path does not need the timeout guard.
        return s.source.read_block(key).map_err(FetchError::from);
    }
    match rx.recv_timeout(limit) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => {
            // A result that raced the timeout decision is still a result.
            if let Ok(out) = rx.try_recv() {
                return out;
            }
            drop(rx); // further sends fail; the io thread self-handles
            s.m.timeouts.inc();
            viz_telemetry::instant(Ev::SourceTimeout, key_salt(key), limit.as_nanos() as u64);
            Err(FetchError {
                kind: io::ErrorKind::TimedOut,
                message: format!("source read of {key:?} exceeded {limit:?}; abandoned"),
            })
        }
        Err(RecvTimeoutError::Disconnected) => Err(FetchError {
            kind: io::ErrorKind::Other,
            message: "fetch io pool dropped the read without reporting".into(),
        }),
    }
}

fn engine_shutting_down(s: &Shared) -> bool {
    lock_state(s).shutdown
}

/// Read one block — retrying transient failures per `cfg.retry` — and
/// publish the outcome: pool insert + waiter fan-out happen under the
/// state lock so a concurrent `request` either sees the in-flight entry
/// or the resident block, never neither.
fn service(s: &Arc<Shared>, job: Job) {
    viz_telemetry::with_node(job.node, || {
        viz_telemetry::with_trace(job.trace, || {
            let t0 = Instant::now();
            let res = read_retrying(s, job.key);
            publish_one(s, &job, res, t0);
        })
    });
}

/// Read one key, retrying transient failures per `cfg.retry`.
fn read_retrying(s: &Arc<Shared>, key: BlockKey) -> Result<Vec<f32>, FetchError> {
    let salt = key_salt(key);
    let mut attempt = 0;
    loop {
        let ta = viz_telemetry::start();
        let r = read_source(s, key);
        viz_telemetry::span(
            Ev::SourceRead,
            salt,
            (u64::from(attempt) << 1) | u64::from(r.is_ok()),
            ta,
        );
        let kind = match &r {
            Ok(_) => return r,
            Err(e) => e.kind,
        };
        if !s.cfg.retry.should_retry(kind, attempt) || engine_shutting_down(s) {
            return r;
        }
        s.m.retries.inc();
        viz_telemetry::instant(Ev::FetchRetry, salt, u64::from(attempt));
        // Deterministic mode retries inline, with no backoff sleep.
        if s.cfg.workers > 0 {
            let d = s.cfg.retry.backoff(attempt, salt);
            if !d.is_zero() {
                let tb = viz_telemetry::start();
                std::thread::sleep(d);
                viz_telemetry::span(Ev::FetchBackoff, salt, u64::from(attempt), tb);
            }
        }
        attempt += 1;
    }
}

/// Publish one finished read: pool insert + waiter fan-out + terminal
/// counters, all under the state lock (see [`service`]).
fn publish_one(s: &Arc<Shared>, job: &Job, res: Result<Vec<f32>, FetchError>, t0: Instant) {
    let salt = key_salt(job.key);
    let dt_ns = t0.elapsed().as_nanos() as u64;
    // The payload's checksum is a pass over its bytes: take it before the lock.
    let res = res.map(|data| PoolEntry::new(Arc::new(data)));
    let mut st = lock_state(s);
    let waiters = st.inflight.remove(&job.key).map(|i| i.waiters).unwrap_or_default();
    match res {
        Ok(entry) => {
            s.breaker.on_success();
            let payload = entry.data().clone();
            s.pool.insert_entry(job.key, entry);
            s.m.completed.inc();
            if job.demand {
                s.m.demand_completed.inc();
            } else {
                s.m.prefetch_completed.inc();
            }
            s.m.lat_sum_ns.add(dt_ns);
            s.m.lat_count.inc();
            s.m.lat_max_ns.max_of(dt_ns);
            s.m.lat_min_ns.min_of(dt_ns);
            viz_telemetry::instant(Ev::PoolInsert, salt, payload.len() as u64);
            if !waiters.is_empty() {
                viz_telemetry::instant(Ev::WaiterWake, salt, waiters.len() as u64);
            }
            for w in waiters {
                let _ = w.send(Ok(payload.clone()));
            }
            viz_telemetry::span_from(Ev::FetchService, salt, 1, t0);
        }
        Err(e) => {
            s.m.errors.inc();
            s.breaker.on_failure(s.cfg.breaker.failure_threshold);
            viz_telemetry::instant(Ev::FetchFail, salt, errkind_code(e.kind));
            for w in waiters {
                let _ = w.send(Err(e.clone()));
            }
            viz_telemetry::span_from(Ev::FetchService, salt, 0, t0);
        }
    }
    notify_if_idle(s, &st);
}

/// Small stable code for [`io::ErrorKind`]s the engine distinguishes, for
/// the `arg` of [`Ev::FetchFail`] events (0 = anything else).
fn errkind_code(kind: io::ErrorKind) -> u64 {
    match kind {
        io::ErrorKind::NotFound => 1,
        io::ErrorKind::InvalidData => 2,
        io::ErrorKind::Interrupted => 3,
        io::ErrorKind::TimedOut => 4,
        io::ErrorKind::WouldBlock => 5,
        _ => 0,
    }
}

/// Fail the waiters of a job whose service panicked, counting the panic
/// as a request failure for the breaker.
fn fail_job_after_panic(s: &Arc<Shared>, key: BlockKey, p: &(dyn Any + Send)) {
    let e = panic_error(p);
    let mut st = lock_state(s);
    let waiters = st.inflight.remove(&key).map(|i| i.waiters).unwrap_or_default();
    s.m.errors.inc();
    viz_telemetry::instant(Ev::WorkerPanic, key_salt(key), 0);
    s.breaker.on_failure(s.cfg.breaker.failure_threshold);
    for w in waiters {
        let _ = w.send(Err(e.clone()));
    }
    notify_if_idle(s, &st);
}

fn worker_loop(s: &Arc<Shared>, active: &Cell<Option<BlockKey>>) {
    let mut st = lock_state(s);
    loop {
        if let Some(job) = try_dequeue(s, &mut st) {
            drop(st);
            active.set(Some(job.key));
            service(s, job);
            active.set(None);
            st = lock_state(s);
            continue;
        }
        if st.shutdown {
            return;
        }
        st = s.work.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Worker supervision: catch a panic anywhere in the worker's loop, fail
/// the in-flight job it was holding (so waiters see a [`FetchError`],
/// not a hang), and re-enter the loop — the worker respawns in place and
/// the pool never shrinks. A key already published before the panic is
/// left alone (it is no longer in the in-flight map).
fn supervised_worker(s: &Arc<Shared>) {
    let active = Cell::new(None);
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(s, &active))) {
            Ok(()) => return, // clean shutdown
            Err(p) => {
                s.m.worker_panics.inc();
                if let Some(key) = active.take() {
                    if lock_state(s).inflight.contains_key(&key) {
                        fail_job_after_panic(s, key, p.as_ref());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_volume::{BlockId, MemBlockStore};

    fn key(i: u32) -> BlockKey {
        BlockKey::scalar(BlockId(i))
    }

    fn store_with(n: u32) -> Arc<MemBlockStore> {
        let s = MemBlockStore::new();
        for i in 0..n {
            s.insert(key(i), vec![i as f32; 8]);
        }
        Arc::new(s)
    }

    #[test]
    fn heap_orders_demand_then_priority_then_fifo() {
        let mut h = BinaryHeap::new();
        h.push(HeapEntry { demand: false, pri: 0.9, seq: 1, stamp: 1, key: key(1) });
        h.push(HeapEntry { demand: false, pri: 0.2, seq: 2, stamp: 2, key: key(2) });
        h.push(HeapEntry { demand: true, pri: 0.0, seq: 3, stamp: 3, key: key(3) });
        h.push(HeapEntry { demand: false, pri: 0.9, seq: 4, stamp: 4, key: key(4) });
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).map(|e| e.key.block.0).collect();
        assert_eq!(order, vec![3, 1, 4, 2]);
    }

    #[test]
    fn threaded_prefetch_then_sync_makes_resident() {
        let pool = Arc::new(BlockPool::new());
        let eng = FetchEngine::spawn(store_with(32), pool.clone(), FetchConfig::default());
        for i in 0..32 {
            assert!(eng.prefetch(key(i), i as f64));
        }
        eng.sync();
        assert_eq!(pool.len(), 32);
        let m = eng.shutdown();
        assert_eq!(m.completed, 32);
        assert_eq!(m.errors, 0);
        assert_eq!(m.breaker_state, BreakerState::Closed);
        assert!(m.latency_max_s >= m.latency_min_s);
    }

    #[test]
    fn demand_get_blocks_until_payload() {
        let pool = Arc::new(BlockPool::new());
        let eng = FetchEngine::spawn(store_with(4), pool.clone(), FetchConfig::default());
        let p = eng.get(key(2)).unwrap();
        assert_eq!(p.as_slice(), &[2.0f32; 8]);
        // Second get hits the pool without a second read.
        let p2 = eng.get(key(2)).unwrap();
        assert!(Arc::ptr_eq(&p, &p2));
        assert_eq!(eng.metrics().completed, 1);
    }

    #[test]
    fn missing_block_reports_error_to_waiter_only() {
        let pool = Arc::new(BlockPool::new());
        let eng = FetchEngine::spawn(store_with(1), pool.clone(), FetchConfig::default());
        assert!(eng.get(key(0)).is_ok());
        let err = eng.get(key(99)).unwrap_err();
        assert_eq!(err.kind, io::ErrorKind::NotFound);
        assert!(!err.is_transient());
        let m = eng.metrics();
        assert_eq!((m.completed, m.errors), (1, 1));
        assert_eq!(m.retries, 0, "NotFound must fail fast, never retry");
    }

    #[test]
    fn shutdown_unblocks_waiting_tickets() {
        let pool = Arc::new(BlockPool::new());
        // Deterministic engine: nothing services the request.
        let eng = FetchEngine::deterministic(store_with(1), pool);
        let t = eng.request(key(0));
        drop(eng);
        let err = t.wait().unwrap_err();
        assert_eq!(err.kind, io::ErrorKind::Interrupted);
    }

    #[test]
    fn ticket_try_wait_round_trips() {
        let pool = Arc::new(BlockPool::new());
        let eng = FetchEngine::deterministic(store_with(2), pool);
        let t = eng.request(key(1));
        let t = t.try_wait().unwrap_err(); // not serviced yet
        assert_eq!(eng.run_until_idle(), 1);
        let got = t.try_wait().expect("resolved after stepping").unwrap();
        assert_eq!(got.as_slice(), &[1.0f32; 8]);
    }

    #[test]
    fn ticket_wait_timeout_returns_ticket_on_expiry() {
        let pool = Arc::new(BlockPool::new());
        let eng = FetchEngine::deterministic(store_with(1), pool);
        let t = eng.request(key(0));
        let t = t.wait_timeout(Duration::from_millis(5)).unwrap_err();
        eng.run_until_idle();
        let got = t.wait_timeout(Duration::from_millis(5)).expect("resolved").unwrap();
        assert_eq!(got.as_slice(), &[0.0f32; 8]);
    }

    /// Every admitted request must end in exactly one terminal counter
    /// (or still be accounted by the queue/in-flight gauges):
    ///
    /// ```text
    /// demand_requests + prefetch_requests ==
    ///     coalesced + dropped + breaker_rejected_admission
    ///   + completed + cancelled + breaker_rejected_dequeue + errors
    ///   + queue_depth + inflight
    /// ```
    ///
    /// Deterministic scenario exercising all seven terminal outcomes; the
    /// identity is checked at every snapshot, including mid-queue ones.
    #[test]
    fn counters_balance_across_all_outcomes() {
        fn assert_balanced(m: &FetchMetrics) {
            let admitted = m.demand_requests + m.prefetch_requests;
            let settled = m.coalesced
                + m.dropped
                + m.breaker_rejected_admission
                + m.completed
                + m.cancelled
                + m.breaker_rejected_dequeue
                + m.errors
                + m.queue_depth as u64
                + m.inflight as u64;
            assert_eq!(admitted, settled, "unbalanced counters: {m:?}");
        }

        let pool = Arc::new(BlockPool::new());
        let cfg = FetchConfig { queue_cap: 4, ..FetchConfig::deterministic() };
        let eng = FetchEngine::spawn(store_with(16), pool.clone(), cfg);

        // Outcome "dropped": fill the prefetch queue, then overflow it.
        for i in 0..4 {
            assert!(eng.prefetch(key(i), 1.0));
        }
        assert!(!eng.prefetch(key(4), 1.0));
        assert!(!eng.prefetch(key(5), 1.0));
        // Outcome "coalesced": duplicate prefetch of a queued key.
        assert!(eng.prefetch(key(0), 2.0));
        assert_balanced(&eng.metrics());

        // Outcome "cancelled": a camera step voids all queued prefetches.
        eng.bump_generation();
        assert_eq!(eng.run_until_idle(), 0, "stale prefetches must not be serviced");
        let m = eng.metrics();
        assert_eq!(m.cancelled, 4);
        assert_balanced(&m);

        // Outcome "completed": fresh prefetches under the new generation.
        assert!(eng.prefetch(key(0), 1.0));
        assert!(eng.prefetch(key(1), 1.0));
        assert_eq!(eng.run_until_idle(), 2);
        // Resident hits coalesce (demand and prefetch paths).
        assert!(eng.get(key(0)).is_ok());
        assert!(eng.prefetch(key(1), 1.0));
        assert_balanced(&eng.metrics());

        // Outcome "errors", repeated until the breaker opens. Queue one
        // good-generation prefetch *before* the failures so it is still
        // queued when the breaker trips.
        assert!(eng.prefetch(key(2), 1.0));
        let threshold = eng.shared.cfg.breaker.failure_threshold;
        // Distinct missing keys (NotFound fails fast, no retry, no
        // coalescing); demands outrank the queued prefetch, so all
        // failures land before key(2) reaches the front.
        let tickets: Vec<_> = (0..threshold).map(|i| eng.request(key(900 + i))).collect();
        eng.run_until_idle();
        for t in tickets {
            assert!(t.wait().is_err());
        }
        assert_eq!(eng.breaker_state(), BreakerState::Open);
        let m = eng.metrics();
        assert_eq!(m.errors, u64::from(threshold));
        // Outcome "breaker_rejected_dequeue": key(2) was discarded at
        // dequeue while draining the failing demands.
        assert_eq!(m.breaker_rejected_dequeue, 1);
        assert_balanced(&m);

        // Outcome "breaker_rejected_admission": new prefetch while open.
        assert!(!eng.prefetch(key(3), 1.0));
        let m = eng.metrics();
        assert_eq!(m.breaker_rejected_admission, 1);
        assert_eq!(m.breaker_rejected, m.breaker_rejected_admission + m.breaker_rejected_dequeue);
        assert_balanced(&m);

        // All seven outcome classes were exercised.
        assert!(m.coalesced > 0 && m.dropped > 0 && m.cancelled > 0);
        assert!(m.completed > 0 && m.errors > 0);
        eng.sync();
        assert_balanced(&eng.metrics());
    }

    #[test]
    fn cross_tag_coalescing_is_counted_per_owner() {
        let pool = Arc::new(BlockPool::new());
        let eng = FetchEngine::deterministic(store_with(8), pool.clone());

        // Session 1 queues the read; session 2 and an untagged caller pile
        // on. Only the differing-tag merges count as cross-tag saves.
        let t1 = eng.request_tagged(key(0), 1);
        let t2 = eng.request_tagged(key(0), 2); // cross (1 → 2)
        assert!(eng.prefetch_tagged(key(0), 0.5, 1)); // same tag: not cross
        assert!(eng.prefetch_tagged(key(0), 0.5, 7)); // cross (1 → 7)
        let m = eng.metrics();
        assert_eq!(m.coalesced, 3);
        assert_eq!(m.cross_tag_coalesced, 2);

        // Per-class gauges: one demand queued, plus two tagged prefetches.
        assert!(eng.prefetch_tagged(key(1), 0.9, 2));
        assert!(eng.prefetch_tagged(key(2), 0.1, 1));
        assert_eq!(eng.queue_depths(), (1, 2));
        let m = eng.metrics();
        assert_eq!((m.queue_depth_demand, m.queue_depth_prefetch), (1, 2));
        assert_eq!(m.queue_depth, m.queue_depth_demand + m.queue_depth_prefetch);

        assert_eq!(eng.run_until_idle(), 3);
        assert_eq!(eng.queue_depths(), (0, 0));
        let a = t1.wait().unwrap();
        let b = t2.wait().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "both sessions share one payload");
        assert_eq!(eng.metrics().completed, 3, "the shared key was read once");
    }

    #[test]
    fn timed_read_storm_spawns_bounded_io_threads() {
        /// Every read hangs long past the timeout: the worst case that
        /// used to spawn one sacrificial thread per read.
        struct HangingSource;
        impl viz_volume::BlockSource for HangingSource {
            fn read_block(&self, _key: BlockKey) -> io::Result<Vec<f32>> {
                std::thread::sleep(Duration::from_millis(100));
                Err(io::Error::new(io::ErrorKind::NotFound, "hung source"))
            }
            fn block_bytes(&self, _key: BlockKey) -> io::Result<usize> {
                Ok(0)
            }
        }
        let pool = Arc::new(BlockPool::new());
        let cfg = FetchConfig {
            workers: 4,
            source_timeout: Some(Duration::from_millis(2)),
            retry: RetryPolicy::none(),
            io_threads: 2,
            ..FetchConfig::default()
        };
        let eng = FetchEngine::spawn(Arc::new(HangingSource), pool, cfg);
        let tickets: Vec<_> = (0..16).map(|i| eng.request(key(i))).collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap_err().kind, io::ErrorKind::TimedOut);
        }
        let m = eng.metrics();
        assert!(m.timeouts >= 16, "every read should have been abandoned: {m:?}");
        assert!(
            m.io_threads_spawned <= 2,
            "storm leaked past the io_threads cap: {}",
            m.io_threads_spawned
        );
    }

    #[test]
    fn get_deadline_times_out_and_counts_a_miss() {
        let pool = Arc::new(BlockPool::new());
        // Deterministic: nothing will service the read within the deadline.
        let eng = FetchEngine::deterministic(store_with(1), pool);
        let err = eng.get_deadline(key(0), Duration::from_millis(5)).unwrap_err();
        assert_eq!(err.kind, io::ErrorKind::TimedOut);
        assert_eq!(eng.metrics().deadline_misses, 1);
        // The abandoned read is still queued; servicing it lands the block.
        assert_eq!(eng.run_until_idle(), 1);
        assert!(eng.pool().contains(key(0)));
    }

    #[test]
    fn wait_until_and_get_until_honor_absolute_deadlines() {
        let pool = Arc::new(BlockPool::new());
        let eng = FetchEngine::deterministic(store_with(2), pool);
        let t = eng.request(key(0));
        let past = Instant::now();
        let t = t.wait_until(past).unwrap_err(); // already expired
        let err = eng.get_until(key(1), past).unwrap_err();
        assert_eq!(err.kind, io::ErrorKind::TimedOut);
        assert_eq!(eng.metrics().deadline_misses, 1);
        eng.run_until_idle();
        let got = t
            .wait_until(Instant::now() + Duration::from_millis(100))
            .expect("resolved after stepping")
            .unwrap();
        assert_eq!(got.as_slice(), &[0.0f32; 8]);
        assert!(eng.pool().contains(key(1)), "missed read still landed");
    }

    #[test]
    fn batch_admission_matches_per_key_semantics() {
        let pool = Arc::new(BlockPool::new());
        let cfg = FetchConfig { queue_cap: 4, ..FetchConfig::deterministic() };
        let eng = FetchEngine::spawn(store_with(16), pool.clone(), cfg);
        // 6 fresh keys against cap 4: first 4 queue, last 2 drop.
        let items: Vec<(BlockKey, f64)> = (0..6).map(|i| (key(i), f64::from(i))).collect();
        assert_eq!(eng.prefetch_batch_tagged(&items, 0), 4);
        let m = eng.metrics();
        assert_eq!(m.dropped, 2);
        assert_eq!(m.queue_depth_prefetch, 4);
        // Re-submitting queued keys coalesces; the upgrade takes effect.
        assert_eq!(eng.prefetch_batch_tagged(&[(key(0), 9.0), (key(1), 0.0)], 0), 2);
        assert_eq!(eng.metrics().coalesced, 2);
        assert_eq!(eng.run_one(), Some(key(0)), "upgraded key dispatches first");
        eng.run_until_idle();
        assert_eq!(pool.len(), 4);
    }
}
