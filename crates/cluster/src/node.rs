//! One cluster node: a viz-serve [`Server`] whose engine reads the node's
//! own `local` storage, with every telemetry event it emits tagged by the
//! node's id.
//!
//! Routing is the client's job: the [`crate::Router`] sends each key to
//! its owner, so a node serves whatever it is asked from its own engine
//! and never dials another node. Under the shared-storage model a read
//! on a node that does not own the key is still correct; it only puts
//! the block in a pool other than its owner's. That is what a failover
//! batch does while the owner is down. The shard map is static and the
//! router's alone, so a node holds none.

use crate::peer::PeerLink;
use crate::shard::{NodeId, ShardMap};
use std::io;
use std::sync::Arc;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine};
use viz_serve::{handle_request, Outcome, Request, RequestDispatch, ServeConfig, Server};
use viz_volume::BlockSource;

/// Cluster-layer tuning for one node. It has no fields: nodes do not
/// forward, so there is nothing left to tune. The type stays because
/// callers of [`ClusterNode::new`] still pass one.
#[derive(Clone, Default)]
pub struct ClusterConfig;

/// One sharded serve node (see module docs). Implements
/// [`RequestDispatch`] so a [`viz_serve::TcpServer::bind_with`] front end
/// tags the events of every request it serves with the node's id.
pub struct ClusterNode {
    id: NodeId,
    server: Arc<Server>,
}

impl ClusterNode {
    /// Build a node over `local` storage; the engine and server are built
    /// here over `local`.
    ///
    /// `_map`, `_connect` (a dialer to other nodes) and `_cfg` are not
    /// used: the map is the router's, and a node dials nobody. The three
    /// parameters stay only so existing callers keep compiling.
    pub fn new(
        id: NodeId,
        local: Arc<dyn BlockSource>,
        _map: ShardMap,
        _connect: impl Fn(NodeId) -> io::Result<Box<dyn PeerLink>> + Send + Sync + 'static,
        fetch_cfg: FetchConfig,
        serve_cfg: ServeConfig,
        _cfg: ClusterConfig,
    ) -> Arc<ClusterNode> {
        let engine = FetchEngine::spawn(local, Arc::new(BlockPool::new()), fetch_cfg);
        let server = Server::new(Arc::new(engine), serve_cfg);
        Arc::new(ClusterNode { id, server })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The wrapped serve layer.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// The node id as stamped on telemetry events: `NodeId + 1`, so node
    /// 0 stays the "client / unattributed" sentinel in merged traces.
    fn node_tag(&self) -> u16 {
        (self.id.0 as u16).saturating_add(1)
    }

    /// Serve one already-framed request synchronously on the calling
    /// thread — the deterministic in-process transport, over a `workers =
    /// 0` engine: fetches pump the scheduler and step the engine inline
    /// to idle. Stamps every telemetry event emitted while serving with
    /// this node's id.
    pub(crate) fn serve_frame(&self, frame: &[u8]) -> Vec<u8> {
        viz_telemetry::with_node(self.node_tag(), || {
            let resp = match self.dispatch_frame(&self.server, frame) {
                Outcome::Ready(r) => r,
                Outcome::Fetch(p) => {
                    self.server.pump();
                    self.server.engine().run_until_idle();
                    p.resolve(&self.server, io::ErrorKind::Interrupted)
                }
            };
            viz_serve::proto::encode_response(&resp)
        })
    }
}

impl RequestDispatch for ClusterNode {
    fn dispatch(&self, server: &Arc<Server>, req: Request) -> Outcome {
        // Every event emitted while this node serves — dispatch, pump,
        // inline engine steps — carries the node's id, so a merged
        // cluster trace can tell one node's spans from another's.
        viz_telemetry::with_node(self.node_tag(), || handle_request(server, req))
    }
}
