//! # viz-cluster — sharded multi-node block serving
//!
//! Scales the single-node [`viz_serve`] server out: every
//! [`viz_volume::BlockKey`] maps to exactly one *owner* node, and the
//! client-side [`Router`] sends each frame's demand to the owners
//! directly. The router is the one routing layer: a node serves what it
//! is asked from its own engine and storage, and never dials another
//! node.
//!
//! - `shard` — the [`ShardMap`]: consistent-hash ring placement, built
//!   once and never changed. Each key's owner and ring successors are a
//!   pure function of the node list.
//! - `peer` — the router's links to nodes: [`PeerLink`], one framed
//!   VSRV round trip, and [`TcpPeerLink`] over TCP.
//! - `node` — a [`ClusterNode`] wraps a [`viz_serve::Server`] whose
//!   engine reads the node's local storage, and tags every telemetry
//!   event it emits with the node's id.
//! - `router` — the client side: answer what the viewer's client tier
//!   holds, split the rest of a frame's demand per owner,
//!   merge replies, and fail over along each key's whole ring-successor
//!   list. The first live node on that list is the owner a map over the
//!   survivors would name, so failover is the reassignment and no map
//!   ever changes. Its down marks (failed round trips, heartbeats and
//!   periodic probes) are the cluster's failure detection.
//! - `testing` — a deterministic in-process [`TestCluster`]: N nodes
//!   over one shared store on a virtual clock, synchronous transports,
//!   crash/restart/drain, fabric partitions, slow storage, and corrupted
//!   reply frames in one call each.
//! - [`chaos`] — seeded, replayable fault schedules ([`ChaosPlan`])
//!   driven through the test cluster by [`chaos::run_plan`], reporting
//!   detection/recovery latency and the zero-demand-errors invariant.
//! - `obs` — cluster observability glue: `TelemetryGet` replies, each
//!   stamped with the node the router asked → [`viz_telemetry::collect`]
//!   drains (Perfetto merge + Prometheus rollup), and the CRC-framed
//!   flight-recorder dump file.
//!
//! The deployment model is shared storage (every node can read every
//! block, as on a parallel file system): ownership concentrates each
//! block's pool residency and request coalescing on one node, but any
//! node can serve any key from its own storage, so a router failing over
//! from a dead owner costs locality and never availability.
//!
//! ## Example
//!
//! ```
//! use viz_cluster::{NodeId, ShardStrategy, TestCluster};
//! use viz_volume::{BlockId, BlockKey};
//!
//! let cluster = TestCluster::new(3, ShardStrategy::Ring);
//! for i in 0..32u32 {
//!     cluster.insert(BlockKey::scalar(BlockId(i)), vec![i as f32; 8]);
//! }
//! let mut router = cluster.router("viewer");
//! let demand: Vec<_> = (0..32u32).map(|i| BlockKey::scalar(BlockId(i))).collect();
//! let reply = router.fetch(demand.clone(), vec![]);
//! assert_eq!(reply.blocks.len(), 32);
//! assert!(reply.blocks.iter().all(|b| b.result.is_ok()));
//! // Each key was read by its owner node, not by whichever node was asked.
//! let total: u64 = (0..3).map(|n| cluster.reads(NodeId(n))).sum();
//! assert_eq!(total, 32);
//! ```

#![warn(missing_docs)]

pub mod chaos;
mod node;
mod obs;
mod peer;
mod router;
mod shard;
mod testing;

pub use chaos::{ChaosAction, ChaosEvent, ChaosPlan, ChaosReport};
pub use node::{ClusterConfig, ClusterNode};
pub use obs::{read_flight_dump, DumpSection};
pub use peer::{PeerLink, TcpPeerLink};
pub use router::{Router, RouterConfig, RouterReply};
pub use shard::{NodeId, ShardMap, ShardStrategy};
pub use testing::{SyncTransport, TestCluster};
