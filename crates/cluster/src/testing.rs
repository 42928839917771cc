//! A deterministic in-process multi-node cluster: every node's engine is
//! `workers = 0`, every "connection" is a synchronous function call, and
//! source time is a shared [`VirtualClock`] — so cluster tests replay
//! byte-for-byte, with no sockets, threads, or sleeps.
//!
//! [`SyncLink`] (router→node) and [`SyncTransport`] (client→node) both
//! resolve a frame by calling the target node's
//! [`ClusterNode::serve_frame`] on the calling thread. Nodes dial
//! nobody: each is built with a connector that panics if called, so
//! every test over this cluster also checks that no node forwards.

use crate::node::{ClusterConfig, ClusterNode};
use crate::peer::{Connector, PeerLink};
use crate::router::{Router, RouterConfig};
use crate::shard::{splitmix64, NodeId, ShardMap, ShardStrategy};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use viz_fetch::{FetchConfig, InstrumentedSource, VirtualClock, VirtualClockSource};
use viz_serve::proto::{decode_response, try_encode_request};
use viz_serve::{Request, Response, ServeClient, ServeConfig, Transport};
use viz_volume::{BlockKey, MemBlockStore};

/// The in-process "network": live nodes plus per-target fault state.
/// Removal from `nodes` models a crash (callers see
/// `ConnectionRefused`); `blocked` models a partition at the fabric
/// (the node stays alive but inbound frames refuse); `corrupt` flips
/// one byte in every reply a target serves (the "bad NIC" fault — CRC
/// framing rejects it at the caller).
#[derive(Default)]
struct Fabric {
    nodes: Mutex<HashMap<u32, Arc<ClusterNode>>>,
    blocked: Mutex<HashSet<u32>>,
    /// Corrupting targets, each with a counter seeding the
    /// deterministic flip position.
    corrupt: Mutex<HashMap<u32, u64>>,
}

/// Shared handle to the fabric every link and transport resolves
/// through.
type NodeRegistry = Arc<Fabric>;

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn lookup(registry: &NodeRegistry, id: NodeId) -> io::Result<Arc<ClusterNode>> {
    relock(&registry.nodes)
        .get(&id.0)
        .cloned()
        .ok_or_else(|| io::Error::new(io::ErrorKind::ConnectionRefused, format!("{id} is offline")))
}

fn serve_sync(registry: &NodeRegistry, id: NodeId, frame: &[u8]) -> io::Result<Vec<u8>> {
    if relock(&registry.blocked).contains(&id.0) {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("{id} is partitioned"),
        ));
    }
    let mut reply = lookup(registry, id)?.serve_frame(frame);
    if let Some(count) = relock(&registry.corrupt).get_mut(&id.0) {
        // One deterministic byte flip anywhere in the frame breaks
        // either the length prefix or the CRC, so the caller always
        // sees a decode failure rather than silently bad data.
        let pos = (splitmix64(*count) as usize) % reply.len();
        reply[pos] ^= 0x40;
        *count += 1;
    }
    Ok(reply)
}

/// A [`PeerLink`] that serves each round trip by calling the target
/// node's dispatcher on this thread. Looks the target up per call, so a
/// failed node turns into `ConnectionRefused` exactly like a dead socket.
pub(crate) struct SyncLink {
    registry: NodeRegistry,
    target: NodeId,
}

impl PeerLink for SyncLink {
    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        let reply = serve_sync(&self.registry, self.target, &try_encode_request(req)?)?;
        Ok(decode_response(&reply)?)
    }
}

/// A [`Transport`] over the same synchronous call path, for
/// [`ServeClient`]s talking to one node directly.
pub struct SyncTransport {
    registry: NodeRegistry,
    target: NodeId,
    replies: VecDeque<Vec<u8>>,
}

impl Transport for SyncTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let reply = serve_sync(&self.registry, self.target, frame)?;
        self.replies.push_back(reply);
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.replies.pop_front().ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "no reply queued; send first")
        })
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.replies.pop_front())
    }
}

/// An in-process cluster over one shared [`MemBlockStore`] (the "shared
/// parallel file system" of the deployment model): every node can read
/// every block, each through its own [`InstrumentedSource`] tap so tests
/// can assert *which* node did the reading.
pub struct TestCluster {
    store: Arc<MemBlockStore>,
    clock: Arc<VirtualClock>,
    registry: NodeRegistry,
    taps: HashMap<u32, Arc<InstrumentedSource>>,
    map: ShardMap,
}

impl TestCluster {
    /// `n` nodes (ids `0..n`) sharded by `strategy`.
    pub fn new(n: u32, strategy: ShardStrategy) -> TestCluster {
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut cluster = TestCluster {
            store: Arc::new(MemBlockStore::new()),
            clock: Arc::new(VirtualClock::new()),
            registry: Arc::new(Fabric::default()),
            taps: HashMap::new(),
            map: ShardMap::new(&ids, 64, strategy),
        };
        for id in ids {
            cluster.build_node(id);
        }
        cluster
    }

    /// Build (or rebuild) node `id` over the shared store, reusing its tap
    /// if it had one so read accounting spans restarts. The node's
    /// connector panics: nodes dial nobody.
    fn build_node(&mut self, id: NodeId) {
        let tap = self
            .taps
            .entry(id.0)
            .or_insert_with(|| {
                let timed = VirtualClockSource::uniform(self.store.clone(), self.clock.clone(), 1);
                Arc::new(InstrumentedSource::new(Arc::new(timed), Duration::ZERO))
            })
            .clone();
        let node = ClusterNode::new(
            id,
            tap,
            self.map.clone(),
            |_| -> io::Result<Box<dyn PeerLink>> { panic!("cluster nodes dial nobody") },
            FetchConfig::deterministic(),
            ServeConfig::default(),
            ClusterConfig,
        );
        relock(&self.registry.nodes).insert(id.0, node);
    }

    /// The shared backing store (seed blocks here).
    pub fn store(&self) -> &Arc<MemBlockStore> {
        &self.store
    }

    /// Insert a block into shared storage.
    pub fn insert(&self, key: BlockKey, data: Vec<f32>) {
        self.store.insert(key, data);
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The cluster's static shard map, the one every router holds.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// A live node, if it has not crashed.
    pub fn node(&self, id: NodeId) -> Option<Arc<ClusterNode>> {
        relock(&self.registry.nodes).get(&id.0).cloned()
    }

    /// Live node ids, sorted.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            relock(&self.registry.nodes).keys().map(|&id| NodeId(id)).collect();
        v.sort();
        v
    }

    /// Storage reads issued *by* `id`'s local source, counting reads
    /// even after the node crashed.
    pub fn reads(&self, id: NodeId) -> u64 {
        self.taps.get(&id.0).map_or(0, |t| t.reads())
    }

    /// A connector for routers: each link calls its node in-process.
    pub(crate) fn connector(&self) -> Arc<Connector> {
        let registry = self.registry.clone();
        Arc::new(move |id| {
            Ok(Box::new(SyncLink { registry: registry.clone(), target: id }) as Box<dyn PeerLink>)
        })
    }

    /// A router named `name` holding the cluster's map.
    pub fn router(&self, name: &str) -> Router {
        self.router_with(name, RouterConfig::default())
    }

    /// [`TestCluster::router`] with explicit tuning.
    pub fn router_with(&self, name: &str, cfg: RouterConfig) -> Router {
        Router::new(name, self.map.clone(), self.connector(), cfg)
    }

    /// A direct client to one node. It does not route: the node serves
    /// every key it is asked from its own engine and storage, owner or
    /// not.
    pub fn client(&self, id: NodeId) -> ServeClient<SyncTransport> {
        ServeClient::new(SyncTransport {
            registry: self.registry.clone(),
            target: id,
            replies: VecDeque::new(),
        })
    }

    /// Crash `id`: it vanishes from the registry, so callers see
    /// `ConnectionRefused`. The map still names it; routers asking it
    /// fail over along its keys' ring successors.
    pub fn crash_node(&self, id: NodeId) {
        relock(&self.registry.nodes).remove(&id.0);
    }

    /// Partition `id` at the fabric: inbound frames refuse while the
    /// node object stays alive, so its own outbound traffic still flows
    /// — the asymmetric half of a real network partition.
    /// [`TestCluster::heal`] reconnects it.
    pub fn isolate(&self, id: NodeId) {
        relock(&self.registry.blocked).insert(id.0);
    }

    /// Reconnect a node isolated by [`TestCluster::isolate`].
    pub fn heal(&self, id: NodeId) {
        relock(&self.registry.blocked).remove(&id.0);
    }

    /// Start (`on`) or stop corrupting every reply frame `id` serves:
    /// one deterministically-seeded byte flip per frame, which CRC
    /// framing converts into a decode failure at the caller.
    pub(crate) fn corrupt_from(&self, id: NodeId, on: bool) {
        let mut corrupt = relock(&self.registry.corrupt);
        if on {
            corrupt.entry(id.0).or_insert(0);
        } else {
            corrupt.remove(&id.0);
        }
    }

    /// Inject `delay` of real wall-clock sleep into every storage read
    /// `id` performs — the slow-node fault. `Duration::ZERO` restores
    /// full speed.
    pub fn set_read_delay(&self, id: NodeId, delay: Duration) {
        if let Some(tap) = self.taps.get(&id.0) {
            tap.set_delay(delay);
        }
    }

    /// Restart a crashed node: rebuild it over the shared store (same
    /// tap, so read accounting spans the restart). Routers that marked it
    /// down re-admit it on their next probe.
    pub fn restart_node(&mut self, id: NodeId) {
        self.build_node(id);
    }

    /// Gracefully retire `id`: drain its server first (flushing queued
    /// demand), then remove it as [`TestCluster::crash_node`] does.
    pub fn drain_node(&self, id: NodeId) {
        if let Some(node) = self.node(id) {
            node.server().drain();
        }
        self.crash_node(id);
    }
}
