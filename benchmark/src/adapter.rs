//! The only file of the driver that names program symbols. Everything the
//! benchmark touches in the workspace crates is re-exported here, so an API
//! change in the program shows up as an edit to this one list (the README
//! repeats it). Entry points ROADMAP plans to keep are preferred; the one
//! exception is `TcpServer::bind_with`, the only public way to put a
//! `ClusterNode`'s dispatcher behind a TCP listener.

pub use viz_cache::{simulate_belady, PolicyKind};
pub use viz_cluster::{
    ClusterConfig, ClusterNode, NodeId, PeerLink, Router, RouterConfig, ShardMap, ShardStrategy,
};
pub use viz_core::{
    compute_visibility, run_session_precomputed, AppAwareConfig, ClientFlight, ImportanceTable,
    RadiusModel, RadiusRule, SamplingConfig, SessionConfig, Strategy, VisibleTable,
};
pub use viz_fetch::{BlockPool, FetchConfig, FetchEngine};
pub use viz_geom::{CameraPose, Vec3};
pub use viz_render::{
    render, BrickedSource, CountingLookup, FieldSource, RenderConfig, TransferFunction,
};
pub use viz_serve::proto::{decode_response, encode_request};
pub use viz_serve::{
    BlockReply, Request, Response, ServeClient, ServeConfig, Server, TcpFrontend, TcpServer,
    TcpTransport, Transport,
};
pub use viz_volume::store::{decode_block, encode_block};
pub use viz_volume::{
    BlockId, BlockKey, BlockSource, BrickLayout, DatasetKind, DatasetSpec, DiskBlockStore,
    VolumeField,
};
