//! One cluster node: a viz-serve [`Server`] whose engine reads through a
//! [`RoutedSource`] — keys this node owns read local storage, keys owned
//! elsewhere forward to their owner over VSRV ([`crate::peer`]).
//!
//! ## Why the source is the routing seam
//!
//! Putting the forward *inside* the node's fetch engine (rather than in
//! front of it) means every piece of single-node machinery applies to
//! remote keys for free: N local clients demanding one remote key
//! coalesce in the engine into **one** peer round trip (the same
//! cross-session coalescing that dedupes local reads), the block lands in
//! this node's pool so the next frame is a pool hit, and prefetch
//! admission/shedding treat remote keys like any other.
//!
//! ## Cycle safety
//!
//! A forward can only cycle if two nodes disagree about ownership (map
//! skew mid-reassignment). Two fences bound it: the node's dispatcher
//! answers a `PeerFetch` through its engine only when it owns *every*
//! key under its own map (otherwise it reads local storage directly —
//! shared storage makes that always correct), so a receiver never
//! forwards a peer's keys onward; and any peer failure falls back to a
//! local read. Demand therefore never errors because of cluster
//! topology; skew costs locality, not availability.
//!
//! The hop stamp does not count forwards: every node forwards at
//! [`FORWARD_HOPS`] and no receiver increments it. It only marks the
//! router's off-owner batches, stamped [`DIRECT_HOPS`], which is at or
//! past [`MAX_HOPS`], so the receiver reads them from local storage even
//! for keys it owns.

use crate::membership::Membership;
use crate::peer::{note_fallback, Connector, PeerClient};
use crate::shard::{NodeId, ShardMap};
use std::collections::HashMap;
use std::io;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, RetryPolicy};
use viz_serve::proto::{errkind_code, PING_FROM_CLIENT};
use viz_serve::{
    handle_request, BlockReply, Outcome, Request, RequestDispatch, Response, ServeConfig, Server,
};
use viz_telemetry::{instant, EventKind as Ev};
use viz_volume::{BlockKey, BlockSource};

/// Hop count a node stamps on the `PeerFetch` it forwards to a key's
/// owner.
pub(crate) const FORWARD_HOPS: u8 = 1;

/// A `PeerFetch` stamped below this goes through the receiver's engine
/// (when it owns every key); at or past it the receiver reads its local
/// storage directly.
pub(crate) const MAX_HOPS: u8 = 2;

/// Hop count the router stamps on an off-owner batch: past [`MAX_HOPS`],
/// so the receiver answers from local storage instead of forwarding the
/// keys back to their (failed) owner.
pub(crate) const DIRECT_HOPS: u8 = u8::MAX;

/// Replica candidates a demand read considers: the key's owner plus one
/// ring successor. The read goes to the first candidate the failure
/// detector calls healthy, so a suspected owner costs nothing — the read
/// routes around it up front.
const READ_REPLICAS: usize = 2;

/// A peer with no positive heartbeat evidence for this long (in the
/// caller's clock units: virtual ticks in tests, milliseconds deployed)
/// becomes suspect.
const SUSPECT_AFTER: u64 = 3_000;

/// Cluster-layer tuning for one node.
#[derive(Clone, Default)]
pub struct ClusterConfig {
    /// Retry policy for transient peer-fetch failures (transport drop,
    /// peer timeout).
    pub peer_retry: RetryPolicy,
    /// `true` resolves peer-forwarded fetches by stepping the `workers =
    /// 0` engine inline (the deterministic test cluster); `false` blocks
    /// on worker threads (real deployments).
    pub deterministic: bool,
    /// When set, a remote demand read that has not answered within this
    /// wall-clock threshold triggers a hedged second read (the next
    /// replica — under shared storage, the local copy) and the first
    /// result wins. `None` disables hedging.
    pub hedge_after: Option<Duration>,
}

impl ClusterConfig {
    /// Tuning for the in-process deterministic cluster: inline engine
    /// stepping, no retry sleeps.
    pub fn deterministic() -> Self {
        ClusterConfig {
            peer_retry: RetryPolicy::none(),
            deterministic: true,
            ..ClusterConfig::default()
        }
    }
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Shard map + peer clients shared between the node and its engine's
/// [`RoutedSource`].
struct ClusterShared {
    self_id: NodeId,
    map: RwLock<Arc<ShardMap>>,
    connect: Arc<Connector>,
    peer_retry: RetryPolicy,
    /// One lazily-dialed client per peer, each behind its own lock so
    /// concurrent fetches to *different* peers proceed in parallel while
    /// fetches to the same peer serialize on its one connection.
    peers: Mutex<HashMap<u32, Arc<Mutex<PeerClient>>>>,
    /// The failure detector. Only the heartbeat path records evidence
    /// (note_ok / note_fail / sweep); the demand read path *consults* it
    /// ([`Membership::is_suspect`]) but never writes, so per-peer fetch
    /// fault handling (retry, breaker) keeps its own semantics.
    membership: Mutex<Membership>,
    hedge_after: Option<Duration>,
}

impl ClusterShared {
    fn map(&self) -> Arc<ShardMap> {
        self.map.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Pick the node that serves a demand read of `key`: the first
    /// replica candidate (owner, then ring successors) that is either us
    /// or not currently suspect. Falls back to local — shared storage
    /// makes a local read always correct — when every candidate is
    /// suspect.
    fn route(&self, map: &ShardMap, key: BlockKey) -> NodeId {
        let candidates = map.owners(key, READ_REPLICAS);
        if candidates.is_empty() {
            return self.self_id;
        }
        let mem = relock(&self.membership);
        candidates
            .iter()
            .copied()
            .find(|&n| n == self.self_id || !mem.is_suspect(n))
            .unwrap_or(self.self_id)
    }

    fn peer(&self, id: NodeId) -> Arc<Mutex<PeerClient>> {
        let mut peers = relock(&self.peers);
        peers
            .entry(id.0)
            .or_insert_with(|| {
                let connect = self.connect.clone();
                Arc::new(Mutex::new(PeerClient::new(
                    self.self_id,
                    id,
                    Box::new(move || connect(id)),
                    self.peer_retry,
                )))
            })
            .clone()
    }

    /// Race a peer fetch of `key` against a local read: the primary runs
    /// on a detached thread (a scoped join would block on the slow peer —
    /// exactly what hedging exists to avoid); if it has not answered
    /// within `threshold`, the calling thread reads locally and the
    /// first result wins. `Ok` is the primary's outcome (possibly late
    /// but preferred once it landed); `Err` carries the local result that
    /// already resolved the read. The detached thread holds that peer's
    /// client lock until the slow fetch returns, so later fetches to the
    /// same peer serialize behind it — the price of not abandoning the
    /// connection.
    fn hedged_fetch(
        &self,
        owner: NodeId,
        key: BlockKey,
        threshold: Duration,
        local: &Arc<dyn BlockSource>,
    ) -> Result<io::Result<Vec<BlockReply>>, io::Result<Vec<f32>>> {
        let (tx, rx) = mpsc::channel();
        let peer = self.peer(owner);
        std::thread::spawn(move || {
            let mut peer = relock(&peer);
            // The receiver gives up after its own local read; ignore a
            // closed channel.
            let _ = tx.send(peer.fetch(&[key]));
        });
        match rx.recv_timeout(threshold) {
            Ok(fetched) => Ok(fetched),
            Err(_) => {
                let local_result = local.read_block(key);
                // Prefer a primary that landed while we were reading —
                // it came from the owner's warm pool.
                match rx.try_recv() {
                    Ok(Ok(blocks)) => {
                        instant(Ev::HedgedRead, u64::from(owner.0), 0);
                        Ok(Ok(blocks))
                    }
                    _ => {
                        instant(Ev::HedgedRead, u64::from(owner.0), 1);
                        Err(local_result)
                    }
                }
            }
        }
    }

    /// Fetch `key` from `owner`, falling back to a `local` read on any
    /// peer failure. Records no membership evidence: the heartbeat path
    /// owns suspicion, the read path only routes by it.
    fn peer_or_local(
        &self,
        owner: NodeId,
        key: BlockKey,
        local: &Arc<dyn BlockSource>,
    ) -> io::Result<Vec<f32>> {
        let fetched = match self.hedge_after {
            Some(threshold) => match self.hedged_fetch(owner, key, threshold, local) {
                Ok(f) => f,
                Err(local_result) => return local_result,
            },
            None => {
                let peer = self.peer(owner);
                let mut peer = relock(&peer);
                peer.fetch(&[key])
            }
        };
        let kind = match fetched {
            Ok(mut blocks) if blocks.len() == 1 => {
                match blocks.pop().expect("len checked").result {
                    Ok(data) => return Ok(Arc::try_unwrap(data).unwrap_or_else(|a| (*a).clone())),
                    // The owner failed this key; shared storage lets us
                    // retry locally.
                    Err(code) => viz_serve::proto::errkind_from_code(code),
                }
            }
            Ok(_) => io::ErrorKind::InvalidData,
            Err(e) => e.kind(),
        };
        note_fallback(owner, kind);
        local.read_block(key)
    }
}

/// The node's [`BlockSource`]: owned keys read `local`, remote keys
/// round-trip to the first *healthy* replica (owner, then ring
/// successors) with local fallback (see module docs).
pub(crate) struct RoutedSource {
    local: Arc<dyn BlockSource>,
    shared: Arc<ClusterShared>,
}

impl BlockSource for RoutedSource {
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>> {
        let map = self.shared.map();
        let target = self.shared.route(&map, key);
        if target != self.shared.self_id {
            self.shared.peer_or_local(target, key, &self.local)
        } else {
            self.local.read_block(key)
        }
    }

    fn block_bytes(&self, key: BlockKey) -> io::Result<usize> {
        // Size probes stay local: shared storage answers them without a
        // round trip, and quota accounting only needs an estimate.
        self.local.block_bytes(key)
    }
}

/// One sharded serve node (see module docs). Implements
/// [`RequestDispatch`] so a [`viz_serve::TcpServer::bind_with`] front end
/// routes every decoded request through the cluster layer.
pub struct ClusterNode {
    id: NodeId,
    server: Arc<Server>,
    shared: Arc<ClusterShared>,
    local: Arc<dyn BlockSource>,
    cfg: ClusterConfig,
}

impl ClusterNode {
    /// Build a node over `local` storage with the initial `map`.
    /// `connect` dials peers (TCP in deployments, in-process links in
    /// tests); the engine and server are built here so their source is
    /// the node's `RoutedSource`.
    pub fn new(
        id: NodeId,
        local: Arc<dyn BlockSource>,
        map: ShardMap,
        connect: impl Fn(NodeId) -> io::Result<Box<dyn crate::peer::PeerLink>> + Send + Sync + 'static,
        fetch_cfg: FetchConfig,
        serve_cfg: ServeConfig,
        cfg: ClusterConfig,
    ) -> Arc<ClusterNode> {
        let shared = Arc::new(ClusterShared {
            self_id: id,
            map: RwLock::new(Arc::new(map)),
            connect: Arc::new(connect),
            peer_retry: cfg.peer_retry,
            peers: Mutex::new(HashMap::new()),
            membership: Mutex::new(Membership::new(SUSPECT_AFTER)),
            hedge_after: cfg.hedge_after,
        });
        let routed = Arc::new(RoutedSource { local: local.clone(), shared: shared.clone() });
        let engine = FetchEngine::spawn(routed, Arc::new(BlockPool::new()), fetch_cfg);
        let server = Server::new(Arc::new(engine), serve_cfg);
        Arc::new(ClusterNode { id, server, shared, local, cfg })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The wrapped serve layer.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// The shard map currently in force.
    pub fn map(&self) -> Arc<ShardMap> {
        self.shared.map()
    }

    /// Breaker transition counters `(opens, half_opens, closes,
    /// rejected)` for this node's client to `peer` — `None` until a
    /// fetch has actually dialed it.
    pub fn peer_breaker_counters(&self, peer: NodeId) -> Option<(u64, u64, u64, u64)> {
        let peers = relock(&self.shared.peers);
        peers.get(&peer.0).map(|p| relock(p).breaker_counters())
    }

    /// Peers this node's failure detector currently suspects, sorted.
    pub fn suspects(&self) -> Vec<NodeId> {
        relock(&self.shared.membership).suspects()
    }

    /// Whether this node's failure detector currently suspects `peer`.
    pub fn is_suspect(&self, peer: NodeId) -> bool {
        relock(&self.shared.membership).is_suspect(peer)
    }

    /// One membership round at `now` (the caller's monotonic clock —
    /// virtual ticks in tests, wall-clock milliseconds in deployments):
    /// ping every map peer, record the evidence, pull a newer shard map
    /// from any peer that advertises one (anti-entropy), then apply the
    /// suspicion deadline. Returns `(alive, suspect)` counts over the
    /// map's peers.
    pub(crate) fn heartbeat_tick(&self, now: u64) -> (usize, usize) {
        let map = self.shared.map();
        let mut alive = 0usize;
        for &peer in map.nodes() {
            if peer == self.id {
                continue;
            }
            let my_version = self.shared.map().version();
            let pinged = {
                let client = self.shared.peer(peer);
                let mut client = relock(&client);
                client.ping(my_version)
            };
            match pinged {
                Ok((_, their_version)) => {
                    alive += 1;
                    relock(&self.shared.membership).note_ok(peer, now);
                    if their_version > my_version {
                        // The peer is ahead: pull its map now rather
                        // than waiting to fail a misrouted fetch.
                        let _ = self.pull_map_from(peer);
                    }
                }
                Err(_) => {
                    relock(&self.shared.membership).note_fail(peer);
                }
            }
        }
        let suspect = {
            let mut mem = relock(&self.shared.membership);
            mem.sweep(now);
            mem.suspects().into_iter().filter(|&n| map.contains(n)).count()
        };
        (alive, suspect)
    }

    /// Pull `peer`'s shard map and install it if newer than ours.
    /// Returns whether a newer map was installed.
    pub(crate) fn pull_map_from(&self, peer: NodeId) -> io::Result<bool> {
        let (version, bytes) = {
            let client = self.shared.peer(peer);
            let mut client = relock(&client);
            client.map_get()?
        };
        if version <= self.shared.map().version() {
            return Ok(false);
        }
        let map = crate::shard::ShardMap::decode(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(self.install_map(map))
    }

    /// Install `map` if it is newer than the current one; returns whether
    /// it was installed. Reassignment control planes push the same map to
    /// every node; version ordering makes the push idempotent and
    /// tolerant of reordering.
    pub fn install_map(&self, map: ShardMap) -> bool {
        let mut cur = self.shared.map.write().unwrap_or_else(|p| p.into_inner());
        if map.version() <= cur.version() {
            return false;
        }
        instant(Ev::MapUpdate, u64::from(self.id.0), map.version());
        *cur = Arc::new(map);
        true
    }

    /// The node id as stamped on telemetry events: `NodeId + 1`, so node
    /// 0 stays the "client / unattributed" sentinel in merged traces.
    fn node_tag(&self) -> u16 {
        (self.id.0 as u16).saturating_add(1)
    }

    /// Serve one already-framed request synchronously on the calling
    /// thread — the deterministic in-process transport. Fetches pump the
    /// scheduler and step the inline engine to idle (recursing into peer
    /// nodes through their own `serve_frame` when a read forwards).
    /// Stamps every telemetry event emitted while serving with this
    /// node's id.
    pub(crate) fn serve_frame(&self, frame: &[u8]) -> Vec<u8> {
        viz_telemetry::with_node(self.node_tag(), || {
            let resp = match self.dispatch_frame(&self.server, frame) {
                Outcome::Ready(r) => r,
                Outcome::Fetch(p) => {
                    self.server.pump();
                    if self.cfg.deterministic {
                        self.server.engine().run_until_idle();
                        p.resolve(&self.server, io::ErrorKind::Interrupted)
                    } else {
                        p.wait(&self.server)
                    }
                }
            };
            viz_serve::proto::encode_response(&resp)
        })
    }

    /// Answer a `PeerFetch` without engine submission: straight local
    /// reads (shared storage), used past the hop cap and under map skew.
    fn peer_direct(&self, session: u32, demand: Vec<BlockKey>) -> Outcome {
        self.server.record_peer_direct(demand.len() as u64);
        let blocks = demand
            .into_iter()
            .map(|key| BlockReply {
                key,
                result: self
                    .local
                    .read_block(key)
                    .map(Arc::new)
                    .map_err(|e| errkind_code(e.kind())),
                crc: None,
            })
            .collect();
        Outcome::Ready(Response::FetchReply { session, blocks, shed: 0, downgraded: 0 })
    }
}

impl RequestDispatch for ClusterNode {
    fn dispatch(&self, server: &Arc<Server>, req: Request) -> Outcome {
        // Every event emitted while this node serves — dispatch, pump,
        // inline engine steps — carries the node's id, so a merged
        // cluster trace can tell the owner's spans from the peer's.
        viz_telemetry::with_node(self.node_tag(), || self.dispatch_inner(server, req))
    }
}

impl ClusterNode {
    fn dispatch_inner(&self, server: &Arc<Server>, req: Request) -> Outcome {
        match req {
            Request::MapGet => {
                let m = self.shared.map();
                Outcome::Ready(Response::MapReply { version: m.version(), map_bytes: m.encode() })
            }
            Request::TelemetryGet => {
                // The serve layer answers with the client sentinel; the
                // cluster layer knows which node it is.
                Outcome::Ready(Response::TelemetryReply(server.wire_telemetry(self.id.0)))
            }
            Request::Ping { from, map_version } => {
                // Anti-entropy runs in both directions: we pull if the
                // sender is ahead; a behind sender pulls off our Pong.
                // Deliberately NOT positive membership evidence: under
                // an asymmetric partition the isolated node's outbound
                // pings still arrive, and admitting them would keep
                // clearing the suspicion that routes reads around it.
                // Evidence is directional — only our own probe
                // succeeding proves *we* can reach the peer.
                if from != PING_FROM_CLIENT && map_version > self.shared.map().version() {
                    let _ = self.pull_map_from(NodeId(from));
                }
                Outcome::Ready(Response::Pong {
                    node: self.id.0,
                    map_version: self.shared.map().version(),
                    now_ns: viz_telemetry::now_ns(),
                })
            }
            Request::PeerFetch { session, hops, demand, trace } => {
                let map = self.shared.map();
                let all_owned = demand.iter().all(|&k| map.owner(k) == Some(self.id));
                if hops < MAX_HOPS && all_owned {
                    // Normal ownership: resolve through the engine so
                    // concurrent peers coalesce and the pool warms.
                    handle_request(server, Request::PeerFetch { session, hops, demand, trace })
                } else if trace.is_some() {
                    viz_telemetry::with_trace(trace.trace, || self.peer_direct(session, demand))
                } else {
                    self.peer_direct(session, demand)
                }
            }
            other => handle_request(server, other),
        }
    }
}
