//! # viz-serve — multi-client block/frame server
//!
//! One shared [`viz_fetch::FetchEngine`] + [`viz_fetch::BlockPool`]
//! serving many visualization clients at once. The paper's replacement
//! policy and fetch overlap assume a single viewer; this crate is the
//! layer that lets N viewers share the machinery without sharing fate:
//!
//! - [`proto`] — a length-prefixed, CRC-framed, versioned binary wire
//!   protocol (Open / Close / Fetch / Stats request–response pairs, plus
//!   the cluster's Ping and TelemetryGet). A `Fetch` carries the client's
//!   frame generation, so it is the one message a frame sends, and a
//!   frame whose demand the client tier holds and that prefetches
//!   nothing sends none. Corruption decodes to typed [`proto::ProtoError`]s, never
//!   panics, mirroring the persist codecs' contract.
//! - `transport` — frame pipes: an in-process pair for deterministic
//!   tests, localhost TCP for real connections.
//! - `registry` — per-session identity: generation counter and
//!   accounting. The server learns no prediction tables: each client
//!   predicts for its own pose and sends demand and prefetch keys.
//! - `server` — the tenant layer: deficit-round-robin fairness across
//!   sessions within each priority class, a per-client entry quota, a
//!   load-shed ladder that rejects or downgrades prefetch (never demand)
//!   under pressure, graceful drain, and per-client telemetry through the
//!   `viz_telemetry` rings. Duplicate keys across *different* clients
//!   coalesce into one source read inside the shared engine.
//! - `inproc` — the deterministic front end: [`InProcServer`] runs
//!   every connection on one loop over in-process pipes on a virtual
//!   clock, stepped by `tick` — what every serve test, and the soak
//!   suite's thousands of virtual sessions, drive. Real connections go
//!   through [`TcpServer`]: an accept thread and one thread per
//!   connection.
//! - `client` — a typed client over any transport, with split
//!   send/recv halves for deterministic stepping. It keeps the blocks it
//!   received in the viewer's fast memory ([`ClientTier`]: bounded, LRU,
//!   pinning the frame just returned; the cluster's router shares it) and
//!   asks the server only for the demand it lacks.
//!
//! Both front ends run one per-connection state machine: decode,
//! dispatch, park a `Fetch`, reply in request order, and close the
//! sessions a connection opened when it goes away.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use viz_fetch::{BlockPool, FetchEngine};
//! use viz_serve::{InProcServer, ServeClient, ServeConfig, Server};
//! use viz_volume::{BlockId, BlockKey, MemBlockStore};
//!
//! let store = MemBlockStore::new();
//! store.insert(BlockKey::scalar(BlockId(7)), vec![1.5; 8]);
//! let engine = FetchEngine::deterministic(Arc::new(store), Arc::new(BlockPool::new()));
//! let server = Server::new(Arc::new(engine), ServeConfig::default());
//!
//! let mut inproc = InProcServer::new(server);
//! let mut client = ServeClient::new(inproc.connect());
//! client.send_open("viewer").unwrap();
//! inproc.tick();
//! client.recv_open().unwrap();
//!
//! client.send_fetch(0, vec![BlockKey::scalar(BlockId(7))], vec![]).unwrap();
//! inproc.tick();
//! let got = client.recv_fetch().unwrap();
//! assert_eq!(got.blocks[0].result.as_ref().unwrap()[0], 1.5);
//! ```

#![warn(missing_docs)]

mod client;
mod conn;
mod inproc;
pub mod proto;
mod registry;
mod sched;
mod server;
mod transport;

pub use client::{ClientError, ClientTier, FetchOutcome, ServeClient};
pub use inproc::InProcServer;
pub use proto::{
    BlockReply, HistSnapshot, ProtoError, Request, Response, TraceCtx, WireTelemetry,
    MAX_FRAME_BYTES, PROTO_VERSION,
};
pub use registry::{SessionId, SessionView};
pub use server::{
    handle_request, DrainReport, Outcome, PendingFetch, RequestDispatch, ServeConfig, ServeError,
    ServeMetrics, Server, ShedReason, Submission, TcpServer,
};
pub use transport::{inproc_pair, InProcTransport, TcpTransport, Transport};

/// The TCP front end under the name the benchmark harness imports.
pub type TcpFrontend = TcpServer;
