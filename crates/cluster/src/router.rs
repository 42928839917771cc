//! The client-side router: holds the static shard map, answers what the
//! viewer already holds from its client tier, splits the rest of each
//! frame's demand across owner nodes in per-node batches, sends the
//! batches concurrently (one scoped thread per node, joined before the
//! call returns — this is what makes an N-node cold frame approach 1/N
//! of the single-node time instead of paying N sequential round trips),
//! merges the replies back into request order, and fails over when an
//! owner stops answering.
//!
//! ## The client tier
//!
//! A router keeps the `Ok` demand payloads it merged in a [`ClientTier`],
//! the viewer's fast memory that [`viz_serve::ServeClient`] uses too: an
//! LRU tier counted in blocks that pins the frame merged last, so it
//! holds that frame and, up to its capacity, the blocks of earlier ones.
//! A demand key the tier holds fills its slot before the first routing
//! round, so only the absent keys are grouped into owner batches; a frame
//! whose demand is all held routes no demand and needs 0 rounds. Errors
//! and `TimedOut` slots are never held, so they are asked again. A held
//! key is answered even while its owner is unreachable, so a failover
//! shows only on keys the tier does not hold.
//!
//! Prefetch goes out once, with the first fan-out: each owner's entries
//! ride with its first-round demand batch, or alone as a prefetch-only
//! request when it has none (every demand key it owns is held, say).
//!
//! ## Failover is reassignment
//!
//! [`crate::ShardMap::owners`] lists a key's owner followed by every
//! other node in ring-successor order. The router sends a key to the
//! first node on that list it has not marked down and has not already
//! tried this frame. The first live node on the list is the owner a map
//! built over the live nodes would name, so walking the whole ring *is*
//! the reassignment: the map never changes and no map travels. Nodes
//! already marked down cost nothing. A frame has three rounds, and a round
//! marks every node it could not reach. Past the third, a frame goes on
//! only for keys that have met nothing but dead nodes, one round per node
//! at most, so such a key reaches the first live node on its list within
//! the frame however many nodes before it died. A key a live node
//! answered with a transient error keeps three tries, however large the
//! map.
//!
//! ## Off-owner batches
//!
//! Shared storage means any node *can* serve any key; ownership is a
//! locality optimization, not a correctness constraint. Every batch is a
//! plain `Fetch`, and a node serves every key it is sent from its own
//! engine and storage, so a failover batch sent to a node that does
//! *not* own its keys (its owner is down) is read there.
//! Nodes never forward: the router is the cluster's one routing layer,
//! and its down marks (failed round trips, [`Router::heartbeat`], the
//! periodic probe) are its one failure detector.

use crate::peer::{Connector, PeerLink};
use crate::shard::{NodeId, ShardMap};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use viz_serve::proto::{ERR_DRAINING, ERR_UNKNOWN_SESSION};
use viz_serve::{BlockReply, ClientTier, Request, Response, TraceCtx};
use viz_telemetry::{instant, span, EventKind as Ev};
use viz_volume::BlockKey;

/// Routing rounds per [`Router::fetch`] for every unresolved key, transient
/// retries included. A round marks every node it could not reach down,
/// and the next round walks each pending key past all of them, so a key
/// meets at most one dead node a round; a key that has met only dead
/// nodes goes on past this, up to one round per node, to reach the first
/// live one.
const MIN_ROUNDS: u32 = 3;

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// While any node is marked down, probe it with a `Ping` every this
    /// many frames (0 disables) — a crashed-then-restarted node resumes
    /// taking traffic without any other signal.
    pub probe_every: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { probe_every: 8 }
    }
}

/// One frame's merged routing outcome.
#[derive(Debug)]
pub struct RouterReply {
    /// One reply per demand key, in request order.
    pub blocks: Vec<BlockReply>,
    /// Prefetch entries shed — by node admission, or dropped here
    /// because their owner was down.
    pub shed: u64,
    /// Prefetch entries the nodes admitted at reduced priority.
    pub downgraded: u64,
    /// Demand routing rounds the frame needed: 0 when every demand key was
    /// held, 1 when every owner asked answered, more after a failover.
    pub rounds: u32,
    /// Demand slots answered from the client tier, never sent.
    pub held: u32,
}

struct NodeConn {
    link: Option<Box<dyn PeerLink>>,
    session: Option<u32>,
    down: bool,
}

impl NodeConn {
    fn fresh() -> NodeConn {
        NodeConn { link: None, session: None, down: false }
    }
}

/// A sharded-cluster client (see module docs). One router holds one
/// session per node; viewers each own a router.
pub struct Router {
    name: String,
    map: ShardMap,
    connect: Arc<Connector>,
    cfg: RouterConfig,
    conns: HashMap<u32, NodeConn>,
    /// Frames routed so far (drives the periodic down-node probe).
    frames: u64,
    /// Per-node clock-offset estimates from [`Router::sync_clocks`]
    /// (ns to add to that node's event timestamps).
    offsets: HashMap<u32, i64>,
    /// The viewer's fast memory (see module docs).
    tier: ClientTier,
}

/// Mint the trace id for one routed frame: a hash of the router's name
/// and its frame counter, so concurrent routers mint distinct ids and a
/// deterministic test run mints the same ids every time. Never 0 (the
/// "untraced" sentinel).
fn mint_trace(name: &str, frame: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finisher over (name hash ⊕ frame).
    let mut z = h ^ frame.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z.max(1)
}

impl Router {
    /// A router named `name` (its per-node sessions open as
    /// `router/<name>`) over the cluster's `map`; `connect` dials nodes.
    pub fn new(name: &str, map: ShardMap, connect: Arc<Connector>, cfg: RouterConfig) -> Router {
        Router {
            name: name.to_string(),
            map,
            connect,
            cfg,
            conns: HashMap::new(),
            frames: 0,
            offsets: HashMap::new(),
            tier: ClientTier::default(),
        }
    }

    /// Hold merged blocks in `tier` instead of a default one.
    pub fn with_tier(mut self, tier: ClientTier) -> Router {
        self.tier = tier;
        self
    }

    /// Nodes currently marked unreachable.
    pub fn down_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            self.conns.iter().filter(|(_, c)| c.down).map(|(&id, _)| NodeId(id)).collect();
        v.sort();
        v
    }

    /// Probe every map node with a `Ping` heartbeat: an answer re-admits
    /// a node previously marked down (emitting [`Ev::NodeRecovered`]), and
    /// a failed round trip marks it down before any demand fetch pays for
    /// the discovery. Returns the number of nodes that answered.
    pub fn heartbeat(&mut self) -> usize {
        let nodes: Vec<NodeId> = self.map.nodes().to_vec();
        nodes.into_iter().filter(|&n| self.probe(n)).count()
    }

    /// Probe only the nodes currently marked down (the cheap revival
    /// path [`Router::fetch`] runs every [`RouterConfig::probe_every`]
    /// frames). Returns how many recovered.
    pub(crate) fn probe_down(&mut self) -> usize {
        self.down_nodes().into_iter().filter(|&n| self.probe(n)).count()
    }

    /// One `Ping` round trip to `node`, attempted even while it is
    /// marked down — the probe *is* how a down node earns its way back.
    fn probe(&mut self, node: NodeId) -> bool {
        let was_down = {
            let conn = self.conn(node);
            let was = conn.down;
            // Clear the down gate for the attempt; a transport failure
            // inside `round_trip` re-marks it.
            conn.down = false;
            was
        };
        match self.round_trip(node, &Request::Ping) {
            Ok(Response::Pong { .. }) => {
                if was_down {
                    instant(Ev::NodeRecovered, u64::from(node.0), 0);
                }
                true
            }
            Ok(_) => {
                // Answered, but not with a Pong: keep the prior verdict.
                self.conn(node).down = was_down;
                false
            }
            Err(_) => false,
        }
    }

    /// Route one frame: held demand answered from the client tier, the
    /// rest split per owner, each owner's prefetch sent with the first
    /// fan-out, failed batches retried along each key's ring successors
    /// across three rounds, more for keys walking past dead nodes (see
    /// module docs). Unresolved keys report `TimedOut`.
    pub fn fetch(&mut self, demand: Vec<BlockKey>, prefetch: Vec<(BlockKey, f64)>) -> RouterReply {
        self.frames = self.frames.wrapping_add(1);
        // Every frame gets one trace id, stamped on every batch it fans
        // out — the root of the cross-node span tree.
        let trace = mint_trace(&self.name, self.frames);
        let ctx = TraceCtx { trace, span: 0 };
        let t0 = viz_telemetry::start();
        let demand_n = demand.len() as u64;
        if self.cfg.probe_every > 0
            && self.frames % u64::from(self.cfg.probe_every) == 0
            && self.conns.values().any(|c| c.down)
        {
            self.probe_down();
        }
        // Held slots are filled before the first round, so only absent
        // keys are ever pending.
        let mut results: Vec<Option<Result<Arc<Vec<f32>>, u16>>> =
            demand.iter().map(|&key| self.tier.get(key).map(Ok)).collect();
        let held = results.iter().filter(|r| r.is_some()).count() as u32;
        let mut attempted: Vec<Vec<NodeId>> = vec![Vec::new(); demand.len()];
        let (mut shed, mut downgraded, mut rounds) = (0u64, 0u64, 0u32);

        // Prefetch rides along exactly once, grouped by primary owner, in
        // the first fan-out; entries whose owner is down shed (speculation
        // is not worth a failover round trip).
        let mut prefetch_by_node: HashMap<u32, Vec<(BlockKey, f64)>> = HashMap::new();
        for (key, pri) in prefetch {
            match self.map.owner(key) {
                Some(owner) => prefetch_by_node.entry(owner.0).or_default().push((key, pri)),
                None => shed += 1,
            }
        }

        let max_rounds = MIN_ROUNDS.max(self.map.nodes().len() as u32);
        // False once a round finds every node down: no later one can do
        // better within this frame.
        let mut reachable = true;
        loop {
            let mut groups: HashMap<u32, Vec<usize>> = HashMap::new();
            // Past the third round only keys that every node asked so far
            // failed to reach go on: a transient error keeps three tries.
            let pending: Vec<usize> = (0..demand.len())
                .filter(|&i| results[i].is_none())
                .filter(|&i| rounds < MIN_ROUNDS || attempted[i].iter().all(|&n| self.is_down(n)))
                .collect();
            if reachable && !pending.is_empty() && rounds < max_rounds {
                rounds += 1;
                // Group this round's keys by chosen node.
                for &i in &pending {
                    if let Some(node) = self.pick(demand[i], &attempted[i]) {
                        groups.entry(node.0).or_default().push(i);
                    }
                }
                reachable = !groups.is_empty();
            }
            // The first fan-out also carries every owner's prefetch: alone
            // when the owner has no demand batch this round.
            for &nid in prefetch_by_node.keys() {
                groups.entry(nid).or_default();
            }
            if groups.is_empty() {
                break;
            }
            let mut nodes: Vec<u32> = groups.keys().copied().collect();
            nodes.sort();
            // One batch per node; after the first fan-out no prefetch is
            // left to ride.
            type Batch = (u32, Vec<usize>, Vec<BlockKey>, Vec<(BlockKey, f64)>);
            let batches: Vec<Batch> = nodes
                .into_iter()
                .map(|nid| {
                    let idxs = groups.remove(&nid).expect("node came from groups");
                    let keys: Vec<BlockKey> = idxs.iter().map(|&i| demand[i]).collect();
                    for &i in &idxs {
                        attempted[i].push(NodeId(nid));
                    }
                    (nid, idxs, keys, prefetch_by_node.remove(&nid).unwrap_or_default())
                })
                .collect();
            // Fan the round out: each node's batch runs on its own
            // scoped thread, owning that node's connection until the
            // join. Replies are still folded in sorted node order below,
            // so accounting stays deterministic.
            let connect = self.connect.clone();
            let name = self.name.clone();
            let mut conns: Vec<(u32, NodeConn)> = batches
                .iter()
                .map(|(nid, ..)| (*nid, self.conns.remove(nid).unwrap_or_else(NodeConn::fresh)))
                .collect();
            type BatchOutcome = (Vec<usize>, u64, io::Result<(Vec<BlockReply>, u32, u32)>);
            let round_results: Vec<BatchOutcome> = std::thread::scope(|s| {
                let handles: Vec<_> = batches
                    .into_iter()
                    .zip(conns.iter_mut())
                    .map(|((nid, idxs, keys, pf), (_, conn))| {
                        let (connect, name) = (&connect, &name);
                        s.spawn(move || {
                            let pf_n = pf.len() as u64;
                            let node = NodeId(nid);
                            (
                                idxs,
                                pf_n,
                                exchange_on(connect.as_ref(), name, node, conn, keys, pf, ctx),
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("router fan-out thread")).collect()
            });
            for (nid, conn) in conns {
                self.conns.insert(nid, conn);
            }
            for (idxs, pf_n, res) in round_results {
                match res {
                    Ok((blocks, s, d)) => {
                        shed += u64::from(s);
                        downgraded += u64::from(d);
                        for (&i, reply) in idxs.iter().zip(blocks) {
                            match reply.result {
                                Ok(data) => results[i] = Some(Ok(data)),
                                // Transient server-side kinds retry on
                                // the next candidate; the rest are
                                // final (NotFound won't improve by
                                // asking another replica of the same
                                // storage).
                                Err(code) if is_transient_code(code) => {}
                                Err(code) => results[i] = Some(Err(code)),
                            }
                        }
                    }
                    Err(_) => {
                        // Transport-level failure: `exchange_on` marked
                        // the node down; its keys stay pending for the
                        // next round. Its prefetch is gone — count it
                        // shed.
                        shed += pf_n;
                    }
                }
            }
        }

        let timed_out = viz_serve::proto::errkind_code(io::ErrorKind::TimedOut);
        let blocks: Vec<BlockReply> = demand
            .into_iter()
            .zip(results)
            .map(|(key, r)| BlockReply { key, result: r.unwrap_or(Err(timed_out)), crc: None })
            .collect();
        self.tier.merge(&blocks);
        // The frame's root span: key = the minted trace id, arg packs
        // demand size (held slots included) and the rounds the frame
        // needed (0 when every demand key was held).
        viz_telemetry::with_trace(trace, || {
            span(Ev::RouterFetch, trace, (demand_n << 8) | u64::from(rounds.min(255)), t0);
        });
        RouterReply { blocks, shed, downgraded, rounds, held }
    }

    /// The node this key should try next: the first live, un-attempted
    /// node on its whole-ring successor list (see module docs). Falls back
    /// to the first live node (repeat attempts allowed) so transient
    /// errors can retry; `None` when every node is down.
    fn pick(&self, key: BlockKey, attempted: &[NodeId]) -> Option<NodeId> {
        let cands = self.map.owners(key, self.map.nodes().len());
        let live: Vec<NodeId> = cands.iter().copied().filter(|&n| !self.is_down(n)).collect();
        live.iter().copied().find(|n| !attempted.contains(n)).or_else(|| live.first().copied())
    }

    /// Whether `node` is marked unreachable.
    fn is_down(&self, node: NodeId) -> bool {
        self.conns.get(&node.0).is_some_and(|c| c.down)
    }

    fn conn(&mut self, node: NodeId) -> &mut NodeConn {
        self.conns.entry(node.0).or_insert_with(NodeConn::fresh)
    }

    /// One framed round trip (see [`round_trip_on`]).
    fn round_trip(&mut self, node: NodeId, req: &Request) -> io::Result<Response> {
        let connect = self.connect.clone();
        round_trip_on(connect.as_ref(), node, self.conn(node), req)
    }

    /// Estimate every live node's clock offset from one `Ping` round
    /// trip each (RTT-midpoint,
    /// [`viz_telemetry::collect::offset_from_rtt`]); the estimates align
    /// scraped drains onto the router's timeline. A node reporting
    /// `now_ns = 0` keeps its previous estimate. Returns nodes synced.
    pub fn sync_clocks(&mut self) -> usize {
        let mut synced = 0;
        for node in self.map.nodes().to_vec() {
            if self.is_down(node) {
                continue;
            }
            let t_send = viz_telemetry::now_ns();
            if let Ok(Response::Pong { now_ns }) = self.round_trip(node, &Request::Ping) {
                let t_recv = viz_telemetry::now_ns();
                if now_ns != 0 {
                    let off = viz_telemetry::collect::offset_from_rtt(t_send, t_recv, now_ns);
                    self.offsets.insert(node.0, off);
                    synced += 1;
                }
            }
        }
        synced
    }

    /// The last [`Router::sync_clocks`] estimate for `node` (ns to add
    /// to its event timestamps; 0 until synced).
    pub(crate) fn clock_offset(&self, node: NodeId) -> i64 {
        self.offsets.get(&node.0).copied().unwrap_or(0)
    }

    /// Drain every live node's telemetry plane (`TelemetryGet`) into
    /// collector drains, clock-aligned with the last
    /// [`Router::sync_clocks`] estimates — the scrape half of
    /// [`viz_telemetry::collect::cluster_chrome_trace`] /
    /// [`cluster_prometheus`](viz_telemetry::collect::cluster_prometheus).
    pub fn scrape(&mut self) -> Vec<viz_telemetry::collect::NodeDrain> {
        let mut drains = Vec::new();
        for node in self.map.nodes().to_vec() {
            if self.is_down(node) {
                continue;
            }
            if let Ok(Response::TelemetryReply(w)) = self.round_trip(node, &Request::TelemetryGet) {
                let off = self.clock_offset(node);
                drains.push(crate::obs::drain_from_wire(node, &w, off));
            }
        }
        drains
    }
}

/// One batch round trip to `node` on its connection, as a plain `Fetch`.
/// Reopens the session once on `ERR_UNKNOWN_SESSION`; `ERR_DRAINING` and
/// transport failures mark the node down. A free function over the
/// node's [`NodeConn`] so a fan-out thread can run it while the `Router`
/// itself stays on the caller's thread.
fn exchange_on(
    connect: &Connector,
    name: &str,
    node: NodeId,
    conn: &mut NodeConn,
    keys: Vec<BlockKey>,
    prefetch: Vec<(BlockKey, f64)>,
    trace: TraceCtx,
) -> io::Result<(Vec<BlockReply>, u32, u32)> {
    for attempt in 0..2 {
        let session = ensure_session_on(connect, name, node, conn)?;
        let req = Request::Fetch {
            session,
            generation: 0,
            demand: keys.clone(),
            prefetch: prefetch.clone(),
            trace,
        };
        match round_trip_on(connect, node, conn, &req) {
            Ok(Response::FetchReply { blocks, shed, downgraded, .. }) => {
                return Ok((blocks, shed, downgraded));
            }
            Ok(Response::Error { code, message }) if code == ERR_UNKNOWN_SESSION => {
                // The node restarted or drained our session; reopen
                // once within this round.
                conn.session = None;
                if attempt == 1 {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, message));
                }
            }
            Ok(Response::Error { code, message }) if code == ERR_DRAINING => {
                conn.down = true;
                return Err(io::Error::new(io::ErrorKind::ConnectionRefused, message));
            }
            Ok(Response::Error { message, .. }) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, message));
            }
            Ok(_) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "expected FetchReply"));
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("loop returns on every arm by attempt 1")
}

fn ensure_session_on(
    connect: &Connector,
    name: &str,
    node: NodeId,
    conn: &mut NodeConn,
) -> io::Result<u32> {
    if let Some(s) = conn.session {
        return Ok(s);
    }
    let name = format!("router/{name}");
    match round_trip_on(connect, node, conn, &Request::Open { name })? {
        Response::OpenAck { session } => {
            conn.session = Some(session);
            Ok(session)
        }
        Response::Error { code, message } if code == ERR_DRAINING => {
            conn.down = true;
            Err(io::Error::new(io::ErrorKind::ConnectionRefused, message))
        }
        Response::Error { message, .. } => Err(io::Error::new(io::ErrorKind::InvalidData, message)),
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, "expected OpenAck")),
    }
}

/// One framed round trip; transport failure drops the link and marks
/// the node down (a later probe can revive it).
fn round_trip_on(
    connect: &Connector,
    node: NodeId,
    conn: &mut NodeConn,
    req: &Request,
) -> io::Result<Response> {
    if conn.down {
        return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "node marked down"));
    }
    if conn.link.is_none() {
        match connect(node) {
            Ok(l) => {
                conn.link = Some(l);
                conn.session = None;
            }
            Err(e) => {
                conn.down = true;
                return Err(e);
            }
        }
    }
    let link = conn.link.as_mut().expect("link just ensured");
    match link.round_trip(req) {
        Ok(resp) => Ok(resp),
        Err(e) => {
            conn.link = None;
            conn.session = None;
            conn.down = true;
            Err(e)
        }
    }
}

/// Wire error codes the router treats as retryable on another node:
/// Interrupted (3), TimedOut (4), WouldBlock (5).
fn is_transient_code(code: u16) -> bool {
    matches!(code, 3..=5)
}
