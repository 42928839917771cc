//! The serving side of a pass: one node behind the default TCP front end,
//! or a two-node ring cluster, each reading the dataset through a
//! [`LapSource`]; and the viewer's end of the connection.

use crate::adapter::{
    BlockKey, BlockPool, BlockReply, ClusterConfig, ClusterNode, DiskBlockStore, FetchConfig,
    FetchEngine, NodeId, PeerLink, Router, RouterConfig, ServeClient, ServeConfig, Server,
    ShardMap, ShardStrategy, TcpFrontend, TcpServer, TcpTransport,
};
use crate::wrap::{BenchLink, LapSource, LinkStats, Probe, StampedTransport};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Every program config is its `Default` (so a changed default is
/// measured), except the worker count: the container has two cores.
fn fetch_config() -> FetchConfig {
    FetchConfig { workers: 2, ..FetchConfig::default() }
}

/// Virtual nodes per member of the ring map (the value the program's own
/// cluster bench uses; `ShardMap` has no default).
const RING_VNODES: u32 = 64;

enum Front {
    Single(TcpFrontend),
    /// `TcpServer::bind_with` is the one way to serve a node's dispatcher.
    Node(TcpServer),
}

type AddrTable = Arc<Mutex<HashMap<u32, SocketAddr>>>;

pub struct Pipeline {
    pub probe: Arc<Probe>,
    fronts: Vec<Front>,
    servers: Vec<Arc<Server>>,
    addrs: AddrTable,
    map: Option<ShardMap>,
}

/// Program counters summed over the pipeline's nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub demand_admitted: u64,
    pub prefetch_admitted: u64,
    pub prefetch_shed: u64,
    pub prefetch_downgraded: u64,
    pub completed: u64,
    pub demand_completed: u64,
    pub coalesced: u64,
    pub cancelled: u64,
    pub dropped: u64,
    pub retries: u64,
    pub errors: u64,
    pub pool_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub peer_requests: u64,
}

impl Counters {
    /// What accrued since `base` (the pool only grows, so its size is kept).
    pub fn since(&self, base: &Counters) -> Counters {
        Counters {
            demand_admitted: self.demand_admitted - base.demand_admitted,
            prefetch_admitted: self.prefetch_admitted - base.prefetch_admitted,
            prefetch_shed: self.prefetch_shed - base.prefetch_shed,
            prefetch_downgraded: self.prefetch_downgraded - base.prefetch_downgraded,
            completed: self.completed - base.completed,
            demand_completed: self.demand_completed - base.demand_completed,
            coalesced: self.coalesced - base.coalesced,
            cancelled: self.cancelled - base.cancelled,
            dropped: self.dropped - base.dropped,
            retries: self.retries - base.retries,
            errors: self.errors - base.errors,
            pool_bytes: self.pool_bytes,
            pool_hits: self.pool_hits - base.pool_hits,
            pool_misses: self.pool_misses - base.pool_misses,
            peer_requests: self.peer_requests - base.peer_requests,
        }
    }
}

fn dial(
    addrs: &AddrTable,
    node: NodeId,
    stats: Arc<LinkStats>,
    probe: Arc<Probe>,
) -> io::Result<Box<dyn PeerLink>> {
    let addr = addrs.lock().expect("address table").get(&node.0).copied().ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, format!("no address for node {}", node.0))
    })?;
    let t = StampedTransport::new(TcpTransport::connect(&addr.to_string())?, stats, probe);
    Ok(Box::new(BenchLink::new(t)))
}

impl Pipeline {
    /// Start `nodes` servers over the dataset in `data_dir`. One node is a
    /// plain `Server` behind `TcpFrontend`; more are `ClusterNode`s on a
    /// ring map, each with a private `DiskBlockStore` view of the files.
    pub fn start(nodes: u32, data_dir: &Path, traced: bool) -> io::Result<Pipeline> {
        let probe = Probe::new(traced);
        let addrs: AddrTable = Arc::new(Mutex::new(HashMap::new()));
        let source = |node| -> io::Result<_> {
            Ok(LapSource::new(Arc::new(DiskBlockStore::open(data_dir)?), probe.clone(), node))
        };
        if nodes == 1 {
            let engine = FetchEngine::spawn(source(0)?, Arc::new(BlockPool::new()), fetch_config());
            let server = Server::new(Arc::new(engine), ServeConfig::default());
            let front = TcpFrontend::bind(server.clone(), "127.0.0.1:0")?;
            addrs.lock().expect("address table").insert(0, front.local_addr());
            return Ok(Pipeline {
                probe,
                fronts: vec![Front::Single(front)],
                servers: vec![server],
                addrs,
                map: None,
            });
        }
        let ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        let map = ShardMap::new(&ids, RING_VNODES, ShardStrategy::Ring);
        let (mut fronts, mut servers) = (Vec::new(), Vec::new());
        for &id in &ids {
            let (peer_addrs, peer_probe) = (addrs.clone(), probe.clone());
            let peer_stats = Arc::new(LinkStats::default());
            let node = ClusterNode::new(
                id,
                source(id.0)?,
                map.clone(),
                move |peer| dial(&peer_addrs, peer, peer_stats.clone(), peer_probe.clone()),
                fetch_config(),
                ServeConfig::default(),
                ClusterConfig::default(),
            );
            let front = TcpServer::bind_with(node.server().clone(), node.clone(), "127.0.0.1:0")?;
            addrs.lock().expect("address table").insert(id.0, front.local_addr());
            servers.push(node.server().clone());
            fronts.push(Front::Node(front));
        }
        Ok(Pipeline { probe, fronts, servers, addrs, map: Some(map) })
    }

    /// The shard map, when this is a cluster.
    pub fn map(&self) -> Option<&ShardMap> {
        self.map.as_ref()
    }

    /// Connect viewer `index`: a `ServeClient` session on the single node,
    /// or a `Router` holding one link per cluster node.
    pub fn viewer(&self, index: usize) -> Result<Viewer, String> {
        let name = format!("viewer-{index}");
        match &self.map {
            None => {
                let stats = Arc::new(LinkStats::default());
                let addr = self.addrs.lock().expect("address table")[&0];
                let t = TcpTransport::connect(&addr.to_string()).map_err(|e| e.to_string())?;
                let mut client =
                    ServeClient::new(StampedTransport::new(t, stats.clone(), self.probe.clone()));
                client.open(&name).map_err(|e| e.to_string())?;
                Ok(Viewer { conn: Conn::Direct(client), links: vec![stats] })
            }
            Some(map) => {
                let links: Vec<Arc<LinkStats>> =
                    map.nodes().iter().map(|_| Arc::new(LinkStats::default())).collect();
                let (addrs, probe, stats) = (self.addrs.clone(), self.probe.clone(), links.clone());
                let connect = move |node: NodeId| {
                    dial(&addrs, node, stats[node.0 as usize].clone(), probe.clone())
                };
                let router =
                    Router::new(&name, map.clone(), Arc::new(connect), RouterConfig::default());
                Ok(Viewer { conn: Conn::Routed(router), links })
            }
        }
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for server in &self.servers {
            let s = server.metrics();
            c.demand_admitted += s.demand_admitted;
            c.prefetch_admitted += s.prefetch_admitted;
            c.prefetch_shed += s.prefetch_shed;
            c.prefetch_downgraded += s.prefetch_downgraded;
            let f = server.engine().metrics();
            c.completed += f.completed;
            c.demand_completed += f.demand_completed;
            c.coalesced += f.coalesced;
            c.cancelled += f.cancelled;
            c.dropped += f.dropped;
            c.retries += f.retries;
            c.errors += f.errors;
            let pool = server.engine().pool();
            c.pool_bytes += pool.bytes_resident() as u64;
            let (hits, misses) = pool.stats();
            c.pool_hits += hits;
            c.pool_misses += misses;
            c.peer_requests += server
                .wire_counters()
                .into_iter()
                .find(|(name, _)| name == "serve_peer_requests")
                .map_or(0, |(_, v)| v);
        }
        c
    }

    /// Requests waiting in the engines' queues right now, over all nodes.
    pub fn queue_depth(&self) -> usize {
        self.servers.iter().map(|s| s.engine().queue_depth()).sum()
    }

    /// Stop accepting, close connections and drain; waits for every
    /// connection thread.
    pub fn stop(self) {
        for front in self.fronts {
            match front {
                Front::Single(f) => drop(f.shutdown()),
                Front::Node(f) => drop(f.shutdown()),
            }
        }
    }
}

enum Conn {
    Direct(ServeClient<StampedTransport<TcpTransport>>),
    Routed(Router),
}

/// A viewer's connection to the pipeline.
pub struct Viewer {
    conn: Conn,
    /// One per node this viewer talks to.
    pub links: Vec<Arc<LinkStats>>,
}

impl Viewer {
    /// Start a new frame generation; the `Router` has no such call and
    /// fetches at generation 0.
    pub fn advance(&mut self) -> Result<u64, String> {
        match &mut self.conn {
            Conn::Direct(c) => c.advance().map_err(|e| e.to_string()),
            Conn::Routed(_) => Ok(0),
        }
    }

    /// One demand round trip; returns the replies in request order and the
    /// routing rounds it took (1 for a direct connection).
    pub fn fetch(
        &mut self,
        generation: u64,
        demand: Vec<BlockKey>,
        prefetch: Vec<(BlockKey, f64)>,
    ) -> Result<(Vec<BlockReply>, u32), String> {
        match &mut self.conn {
            Conn::Direct(c) => c
                .fetch_at(generation, demand, prefetch)
                .map(|out| (out.blocks, 1))
                .map_err(|e| e.to_string()),
            Conn::Routed(r) => {
                let reply = r.fetch(demand, prefetch);
                Ok((reply.blocks, reply.rounds))
            }
        }
    }

    pub fn wire_bytes(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.links.iter().fold((0, 0), |(tx, rx), l| {
            (tx + l.tx_bytes.load(Relaxed), rx + l.rx_bytes.load(Relaxed))
        })
    }
}
