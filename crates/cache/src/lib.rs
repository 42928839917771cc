//! # viz-cache — memory-hierarchy substrate
//!
//! The paper's two baseline replacement policies (FIFO and LRU), an offline
//! Belady bound, a single-level cache with pinning, and the multi-tier
//! DRAM/SSD/HDD hierarchy simulator used by every experiment in the paper's
//! evaluation.
//!
//! - `policy` — the [`policy::ReplacementPolicy`] trait and [`policy::PolicyKind`].
//! - `fifo`, `lru` — policy implementations, sharing one slab of two
//!   lists (every resident key, and the unpinned ones) so that a victim is
//!   O(1) however many keys are pinned.
//! - `belady` — offline-optimal (MIN) trace simulation.
//! - `cache` — one bounded cache level with pin support.
//! - `cost` — per-tier latency/bandwidth cost model.
//! - `hierarchy` — the inclusive multi-tier simulator and its statistics.
//!
//! # Example
//!
//! ```
//! use viz_cache::{AccessClass, Hierarchy, PolicyKind};
//!
//! // The paper's setup: DRAM = 25%, SSD = 50% of a 1024-block dataset.
//! let mut h: Hierarchy<u32> = Hierarchy::paper_default(1024, 0.5, PolicyKind::Lru, 64 * 1024);
//! h.fetch(7, AccessClass::Demand);          // cold: comes from the HDD
//! let again = h.fetch(7, AccessClass::Demand);
//! assert!(again.fast_hit);                  // now resident in DRAM
//! assert_eq!(h.stats().demand_fast_misses, 1);
//! ```

#![warn(missing_docs)]

mod belady;
mod cache;
mod cost;
mod fifo;
mod hierarchy;
mod lru;
mod order;
mod policy;
mod stats;

pub use belady::{simulate_belady, BeladyResult};
pub use cache::{CacheLevel, Lookup};
pub use cost::TierCost;
pub use hierarchy::{FetchOutcome, Hierarchy, TierSpec};
pub use policy::{PolicyKind, ReplacementPolicy};
pub use stats::{AccessClass, HierarchyStats, LevelStats};
