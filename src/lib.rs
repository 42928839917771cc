//! Umbrella crate for the viz-appaware workspace.
//!
//! Re-exports the public APIs of every workspace crate so downstream users
//! can depend on a single package. See the individual crates for details:
//!
//! - [`geom`] — vector math, cameras, frusta, camera paths.
//! - [`volume`] — bricked volumes, synthetic datasets, entropy.
//! - [`cache`] — replacement policies and the tiered-hierarchy simulator.
//! - [`fetch`] — the concurrent block-fetch engine: bounded LRU resident
//!   pool, priority scheduling, request coalescing, cancellation.
//! - [`core`] — the paper's contribution: `T_visible`, `T_important`,
//!   the radius model, and the Algorithm 1 session engine.
//! - [`render`] — CPU ray caster and the per-view region analytics.
//! - [`serve`] — multi-client block/frame server: CRC-framed wire
//!   protocol, session registry, deficit-round-robin fairness, load
//!   shedding, cross-session request coalescing.
//! - [`cluster`] — sharded multi-node serving: a static consistent-hash
//!   shard map, nodes that serve from their own storage, and a
//!   client-side owner router, the one routing layer.
//! - [`telemetry`] — zero-dependency tracing: per-thread event rings,
//!   log-bucketed histograms, Chrome-trace / Prometheus / summary
//!   exporters.

pub use viz_cache as cache;
pub use viz_cluster as cluster;
pub use viz_core as core;
pub use viz_fetch as fetch;
pub use viz_geom as geom;
pub use viz_render as render;
pub use viz_serve as serve;
pub use viz_telemetry as telemetry;
pub use viz_volume as volume;
