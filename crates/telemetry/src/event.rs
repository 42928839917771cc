//! Event taxonomy: every traced moment in the block lifecycle is one of
//! these kinds, either an *instant* (a point in time) or a *span* (a
//! duration). Events are fixed-size and `Copy` so the per-thread rings
//! never allocate on the hot path.

/// What happened. Covers the full block lifecycle — fetch admit → queue →
/// dispatch → retry/backoff → source read → pool insert → waiter wake —
/// plus cache hit/miss/evict with policy attribution, frame spans with a
/// degraded/skipped cause, circuit-breaker state transitions, and the
/// serve layer's session lifecycle (open/close, admit/shed, cross-client
/// coalescing).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A demand request was admitted to the engine (instant; `arg` = 1
    /// when it upgraded an already-queued prefetch, 0 for a fresh entry).
    FetchAdmitDemand,
    /// A prefetch was admitted to the queue (instant; `arg` = priority
    /// bits).
    FetchAdmitPrefetch,
    /// A request coalesced onto an existing resident/in-flight/pending
    /// entry (instant; `arg`: 0 resident, 1 in-flight, 2 pending merge).
    FetchCoalesce,
    /// A prefetch was dropped at admission (instant; `arg`: 0 queue full,
    /// 1 shutdown).
    FetchDrop,
    /// A queued prefetch was discarded at dequeue because its generation
    /// was stale (instant; `arg` = generation it carried).
    FetchCancel,
    /// Time a job spent queued, admit → dispatch (span; `arg` = 1 for
    /// demand jobs).
    QueueWait,
    /// One attempt reading the backing source (span; `arg` =
    /// `attempt << 1 | success`).
    SourceRead,
    /// A transient failure will be retried (instant; `arg` = attempt).
    FetchRetry,
    /// Backoff sleep between attempts (span; `arg` = attempt).
    FetchBackoff,
    /// Full service of one job, dispatch → publish (span; `arg` = 1 on
    /// success).
    FetchService,
    /// A fetch failed permanently (instant; `arg` = error-kind code).
    FetchFail,
    /// A payload was published to the block pool (instant; `arg` = payload
    /// length).
    PoolInsert,
    /// Waiters were woken after a publish (instant; `arg` = waiter count).
    WaiterWake,
    /// A read outlived its deadline but still landed in the pool
    /// (instant).
    LateArrival,
    /// A source read hit the per-read timeout and was abandoned
    /// (instant).
    SourceTimeout,
    /// A demand fetch missed its caller deadline (instant).
    DeadlineMiss,
    /// Cache hierarchy hit (instant; `arg` = tier level).
    CacheHit,
    /// Cache hierarchy miss to backing store (instant).
    CacheMiss,
    /// A resident block was evicted (instant; `arg` =
    /// `tier << 8 | policy code`).
    CacheEvict,
    /// One rendered/simulated frame (span; `arg` =
    /// `missing << 8 | degraded`).
    Frame,
    /// One render pass over the sample grid (span; `arg` = pixel count).
    RenderPass,
    /// Circuit breaker Closed/HalfOpen → Open (instant).
    BreakerOpen,
    /// Circuit breaker Open → HalfOpen probe (instant).
    BreakerHalfOpen,
    /// Circuit breaker → Closed (instant).
    BreakerClose,
    /// The breaker rejected a prefetch (instant; `arg`: 0 at admission,
    /// 1 at dequeue).
    BreakerReject,
    /// A fetch worker panicked and was respawned (instant).
    WorkerPanic,
    /// A serve-layer client session was opened (instant; `key` = session
    /// id, `arg` = sessions now registered).
    SessionOpen,
    /// A serve-layer client session was closed (instant; `key` = session
    /// id, `arg` = 1 when closed by a graceful drain, 0 otherwise).
    SessionClose,
    /// A client request passed serve-layer admission (instant; `key` =
    /// session id, `arg` = `demand << 32 | prefetch` counts admitted).
    RequestAdmit,
    /// The serve layer shed or downgraded a prefetch under pressure
    /// (instant; `key` = session id, `arg` = shed-reason code; demand is
    /// never shed).
    RequestShed,
    /// Two *different* sessions coalesced onto one source read (instant;
    /// `key` = salted block key, `arg` = `owner_tag << 32 | incoming_tag`).
    CrossClientCoalesce,
    /// One `viz_serve::InProcServer::tick`, run to quiescence (span;
    /// `key` = tick count, `arg` = `work_units << 32 | open connections`).
    ReactorTick,
    /// One peer-node block fetch round trip over VSRV (span; `key` = peer
    /// node id, `arg` = `keys << 1 | success`).
    PeerFetch,
    /// A peer fetch failed after retries and the read fell back to the
    /// local shared-storage path (instant; `key` = peer node id, `arg` =
    /// error-kind code).
    PeerFallback,
    /// A node or router installed a newer shard map (instant; `key` =
    /// node id, `arg` = new map version).
    MapUpdate,
    /// A membership heartbeat (`Ping`) went out to a peer (instant;
    /// `key` = peer node id, `arg` = the sender's map version).
    HeartbeatSent,
    /// Failure detection marked a peer suspect — missed heartbeat
    /// deadline or a hard transport failure (instant; `key` = suspected
    /// node id, `arg` = 1 for a hard failure, 0 for a deadline lapse).
    SuspectNode,
    /// A suspected or down node answered a probe and was re-admitted to
    /// routing (instant; `key` = recovered node id).
    NodeRecovered,
    /// A demand read hedged to a second replica after the primary passed
    /// the latency threshold (instant; `key` = primary node id, `arg` =
    /// 1 when the hedge result was used, 0 when the primary still won).
    HedgedRead,
    /// One router-side fetch round — mint trace id, answer held keys
    /// from the client tier, fan the rest out to owners, collect replies
    /// (span; `key` = minted trace id, `arg` = `demand_keys << 8 |
    /// rounds`, where `demand_keys` counts held slots too and `rounds` is
    /// 0 when every demand key was held).
    RouterFetch,
    /// Server-side handling of one traced request frame, decode → reply
    /// (span; `key` = session id, `arg` = request tag code).
    RpcServe,
    /// A traced request joined an already-pending or in-flight fetch for
    /// the same key; the event's own `trace` is the joining request, `arg`
    /// is the primary trace it merged into (instant; `key` = salted block
    /// key).
    TraceJoin,
    /// The flight recorder captured a triggered snapshot (instant; `key`
    /// = trigger code, `arg` = events captured).
    FlightDump,
    /// The chaos harness injected or repaired a fault (instant; `key` =
    /// target node id, `arg` = `action code << 1 | 1 when repair`).
    FaultInjected,
}

/// Number of event kinds (array sizing for per-kind aggregation).
pub const KIND_COUNT: usize = 44;

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::FetchAdmitDemand,
        EventKind::FetchAdmitPrefetch,
        EventKind::FetchCoalesce,
        EventKind::FetchDrop,
        EventKind::FetchCancel,
        EventKind::QueueWait,
        EventKind::SourceRead,
        EventKind::FetchRetry,
        EventKind::FetchBackoff,
        EventKind::FetchService,
        EventKind::FetchFail,
        EventKind::PoolInsert,
        EventKind::WaiterWake,
        EventKind::LateArrival,
        EventKind::SourceTimeout,
        EventKind::DeadlineMiss,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::CacheEvict,
        EventKind::Frame,
        EventKind::RenderPass,
        EventKind::BreakerOpen,
        EventKind::BreakerHalfOpen,
        EventKind::BreakerClose,
        EventKind::BreakerReject,
        EventKind::WorkerPanic,
        EventKind::SessionOpen,
        EventKind::SessionClose,
        EventKind::RequestAdmit,
        EventKind::RequestShed,
        EventKind::CrossClientCoalesce,
        EventKind::ReactorTick,
        EventKind::PeerFetch,
        EventKind::PeerFallback,
        EventKind::MapUpdate,
        EventKind::HeartbeatSent,
        EventKind::SuspectNode,
        EventKind::NodeRecovered,
        EventKind::HedgedRead,
        EventKind::RouterFetch,
        EventKind::RpcServe,
        EventKind::TraceJoin,
        EventKind::FlightDump,
        EventKind::FaultInjected,
    ];

    /// Stable snake_case name used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::FetchAdmitDemand => "fetch_admit_demand",
            EventKind::FetchAdmitPrefetch => "fetch_admit_prefetch",
            EventKind::FetchCoalesce => "fetch_coalesce",
            EventKind::FetchDrop => "fetch_drop",
            EventKind::FetchCancel => "fetch_cancel",
            EventKind::QueueWait => "queue_wait",
            EventKind::SourceRead => "source_read",
            EventKind::FetchRetry => "fetch_retry",
            EventKind::FetchBackoff => "fetch_backoff",
            EventKind::FetchService => "fetch_service",
            EventKind::FetchFail => "fetch_fail",
            EventKind::PoolInsert => "pool_insert",
            EventKind::WaiterWake => "waiter_wake",
            EventKind::LateArrival => "late_arrival",
            EventKind::SourceTimeout => "source_timeout",
            EventKind::DeadlineMiss => "deadline_miss",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::CacheEvict => "cache_evict",
            EventKind::Frame => "frame",
            EventKind::RenderPass => "render_pass",
            EventKind::BreakerOpen => "breaker_open",
            EventKind::BreakerHalfOpen => "breaker_half_open",
            EventKind::BreakerClose => "breaker_close",
            EventKind::BreakerReject => "breaker_reject",
            EventKind::WorkerPanic => "worker_panic",
            EventKind::SessionOpen => "session_open",
            EventKind::SessionClose => "session_close",
            EventKind::RequestAdmit => "request_admit",
            EventKind::RequestShed => "request_shed",
            EventKind::CrossClientCoalesce => "cross_client_coalesce",
            EventKind::ReactorTick => "reactor_tick",
            EventKind::PeerFetch => "peer_fetch",
            EventKind::PeerFallback => "peer_fallback",
            EventKind::MapUpdate => "map_update",
            EventKind::HeartbeatSent => "heartbeat_sent",
            EventKind::SuspectNode => "suspect_node",
            EventKind::NodeRecovered => "node_recovered",
            EventKind::HedgedRead => "hedged_read",
            EventKind::RouterFetch => "router_fetch",
            EventKind::RpcServe => "rpc_serve",
            EventKind::TraceJoin => "trace_join",
            EventKind::FlightDump => "flight_dump",
            EventKind::FaultInjected => "fault_injected",
        }
    }

    /// Coarse grouping used as the Chrome trace `cat` field.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::FetchAdmitDemand
            | EventKind::FetchAdmitPrefetch
            | EventKind::FetchCoalesce
            | EventKind::FetchDrop
            | EventKind::FetchCancel
            | EventKind::QueueWait
            | EventKind::SourceRead
            | EventKind::FetchRetry
            | EventKind::FetchBackoff
            | EventKind::FetchService
            | EventKind::FetchFail
            | EventKind::PoolInsert
            | EventKind::WaiterWake
            | EventKind::LateArrival
            | EventKind::SourceTimeout
            | EventKind::DeadlineMiss
            | EventKind::WorkerPanic
            | EventKind::TraceJoin => "fetch",
            EventKind::CacheHit | EventKind::CacheMiss | EventKind::CacheEvict => "cache",
            EventKind::Frame | EventKind::RenderPass => "frame",
            EventKind::BreakerOpen
            | EventKind::BreakerHalfOpen
            | EventKind::BreakerClose
            | EventKind::BreakerReject => "breaker",
            EventKind::SessionOpen
            | EventKind::SessionClose
            | EventKind::RequestAdmit
            | EventKind::RequestShed
            | EventKind::CrossClientCoalesce
            | EventKind::ReactorTick
            | EventKind::RpcServe => "serve",
            EventKind::PeerFetch
            | EventKind::PeerFallback
            | EventKind::MapUpdate
            | EventKind::HeartbeatSent
            | EventKind::SuspectNode
            | EventKind::NodeRecovered
            | EventKind::HedgedRead
            | EventKind::RouterFetch
            | EventKind::FlightDump
            | EventKind::FaultInjected => "cluster",
        }
    }

    /// Span kinds carry a meaningful duration; instants always record 0.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::QueueWait
                | EventKind::SourceRead
                | EventKind::FetchBackoff
                | EventKind::FetchService
                | EventKind::Frame
                | EventKind::RenderPass
                | EventKind::ReactorTick
                | EventKind::PeerFetch
                | EventKind::RouterFetch
                | EventKind::RpcServe
        )
    }
}

/// One recorded event. 48 bytes, `Copy`, no heap: what the per-thread
/// rings store and what [`crate::drain`] hands back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start time in nanoseconds since the telemetry epoch (the moment the
    /// gate was last enabled), or a caller-supplied virtual timestamp.
    pub t_ns: u64,
    /// Duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// Subject key — usually a salted block key, a frame index, or 0.
    pub key: u64,
    /// Kind-specific argument (see each [`EventKind`]'s docs).
    pub arg: u64,
    /// Distributed trace id this event is attributed to (the thread's
    /// trace context at record time, see [`crate::set_trace`]); 0 when
    /// the work was not serving any traced request.
    pub trace: u64,
    /// What happened.
    pub kind: EventKind,
    /// Recording thread, as a small dense id assigned at first use.
    pub tid: u16,
    /// Recording node's attribution id ([`crate::set_node`]); 0 for
    /// client/unattributed work, cluster nodes record `NodeId + 1`.
    pub node: u16,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn labels_are_unique_and_snake_case() {
        let mut seen = HashSet::new();
        for k in EventKind::ALL {
            let l = k.label();
            assert!(seen.insert(l), "duplicate label {l}");
            assert!(
                l.chars().all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()),
                "label {l} is not snake_case"
            );
        }
        assert_eq!(seen.len(), KIND_COUNT);
    }

    #[test]
    fn categories_cover_all_kinds() {
        for k in EventKind::ALL {
            assert!(matches!(
                k.category(),
                "fetch" | "cache" | "frame" | "breaker" | "serve" | "cluster"
            ));
        }
    }

    #[test]
    fn span_kinds_are_exactly_the_duration_carriers() {
        let spans: Vec<_> = EventKind::ALL.iter().filter(|k| k.is_span()).collect();
        assert_eq!(spans.len(), 10);
    }

    #[test]
    fn trace_event_is_small() {
        assert!(std::mem::size_of::<TraceEvent>() <= 48);
    }
}
