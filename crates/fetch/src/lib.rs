//! # viz-fetch — concurrent block-fetch engine
//!
//! The serving layer for Algorithm 1's I/O overlap on real data. The paper
//! hides block-fetch latency behind rendering (`total = io + max(prefetch,
//! render)`, §V-D); this crate turns that accounting rule into an actual
//! multi-worker engine over the [`viz_volume::BlockSource`] trait:
//!
//! - [`BlockPool`] — the resident set, bounded by construction: at most
//!   its capacity in blocks, replaced least recently used first under one
//!   lock, as the viewer's client tier is.
//! - [`FetchEngine`] — a configurable worker pool draining a binary heap of
//!   requests. **Demand** fetches (the renderer is blocked on them) always
//!   outrank **prefetches**; prefetches order by `T_important` entropy.
//!   Each dispatch reads one key, as Algorithm 1 fetches each missing
//!   block on its own.
//! - **Request coalescing** — concurrent requests for one [`BlockKey`]
//!   attach to a single in-flight read and all receive the shared `Arc`
//!   payload; a key is never read twice concurrently.
//! - **Generation-based cancellation** — a camera step may bump a
//!   generation; queued prefetches from stale generations are dropped at
//!   dequeue without ever touching the source. Demand fetches are never
//!   cancelled. Served viewers do not bump it: a `viz_serve` session
//!   purges its own stale prefetch before the engine sees it.
//! - **Deterministic mode** — `workers = 0` runs the scheduler inline via
//!   [`FetchEngine::run_one`], and [`VirtualClockSource`] injects per-tier
//!   latency on a logical clock, so scheduling order, coalescing and
//!   cancellation are reproducibly testable.
//! - **Fault tolerance** — transient source errors retry with bounded
//!   exponential backoff + jitter ([`RetryPolicy`]); permanent ones fail
//!   fast. A [`CircuitBreaker`] sheds prefetch load off a failing source
//!   and recovers via demand-read probes. Hung reads are abandoned at
//!   [`FetchConfig::source_timeout`] without losing the worker; a waiter
//!   bounds its stall with [`Ticket::wait_until`], which is how
//!   `viz_serve` cuts a frame off at its demand deadline. Workers are
//!   supervised (panics become [`FetchError`]s, locks are
//!   poison-tolerant), and [`FaultInjectingSource`] injects seeded
//!   deterministic fault storms to prove all of it in tests and benches.
//!
//! [`BlockKey`]: viz_volume::BlockKey
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use viz_fetch::{BlockPool, FetchConfig, FetchEngine};
//! use viz_volume::{BlockId, BlockKey, MemBlockStore};
//!
//! let store = MemBlockStore::new();
//! for i in 0..8u32 {
//!     store.insert(BlockKey::scalar(BlockId(i)), vec![i as f32; 16]);
//! }
//! let pool = Arc::new(BlockPool::new());
//! let engine = FetchEngine::spawn(
//!     Arc::new(store),
//!     pool.clone(),
//!     FetchConfig { workers: 2, queue_cap: 64, ..Default::default() },
//! );
//! // Prefetch by importance; demand-fetch what the frame needs now.
//! engine.prefetch(BlockKey::scalar(BlockId(3)), 0.9);
//! let block = engine.get(BlockKey::scalar(BlockId(0))).unwrap();
//! assert_eq!(block[0], 0.0);
//! engine.sync();
//! assert!(pool.contains(BlockKey::scalar(BlockId(3))));
//! let m = engine.shutdown();
//! assert_eq!(m.completed, 2);
//! ```

#![warn(missing_docs)]

mod engine;
mod fault;
mod iopool;
mod pool;
mod retry;
mod virt;

pub use engine::{FetchConfig, FetchEngine, FetchError, FetchMetrics, Ticket};
pub use fault::{FaultConfig, FaultInjectingSource};
pub use pool::BlockPool;
pub use retry::{is_transient, BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use virt::{
    InstrumentedSource, ReadRecord, Tier, TierLatency, VirtualClock, VirtualClockSource,
};
