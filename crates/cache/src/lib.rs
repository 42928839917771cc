//! # viz-cache — memory-hierarchy substrate
//!
//! The paper's two baseline replacement policies (FIFO and LRU), an offline
//! Belady bound, a single-level cache with pinning, and the two-tier
//! DRAM/SSD-over-HDD hierarchy simulator used by every experiment in the
//! paper's evaluation.
//!
//! - `cache` — [`CacheLevel`]: one bounded cache level with pin support,
//!   replacing by a [`PolicyKind`].
//! - `order` — the level's replacement order: a slab of two lists (every
//!   resident key, and the unpinned ones) so that a victim is O(1)
//!   however many keys are pinned. Its [`KeyMap`] (a `HashMap` over the
//!   multiplicative [`MulHasher`]) is exported for maps beside a level.
//! - `policy` — [`PolicyKind`]: FIFO or LRU, and their telemetry codes.
//! - `belady` — offline-optimal (MIN) trace simulation.
//! - `cost` — per-tier latency/bandwidth cost model.
//! - `hierarchy` — [`Hierarchy`]: two cache tiers over a backing store,
//!   inclusive, and its demand statistics.
//!
//! # Example
//!
//! ```
//! use viz_cache::{AccessClass, Hierarchy, PolicyKind, TierCost};
//!
//! // The paper's setup: DRAM = 25%, SSD = 50% of a 1024-block dataset,
//! // over an HDD.
//! let costs = [TierCost::dram(), TierCost::ssd(), TierCost::hdd()];
//! let mut h: Hierarchy<u32> = Hierarchy::two_level(1024, 0.5, PolicyKind::Lru, 64 * 1024, costs);
//! h.fetch(7, AccessClass::Demand);          // cold: comes from the HDD
//! let again = h.fetch(7, AccessClass::Demand);
//! assert!(again.fast_hit);                  // now resident in DRAM
//! assert_eq!(h.stats().demand_fast_misses, 1);
//! ```

#![warn(missing_docs)]

mod belady;
mod cache;
mod cost;
mod hierarchy;
mod order;
mod policy;
mod stats;

pub use belady::{simulate_belady, BeladyResult};
pub use cache::{CacheLevel, Lookup};
pub use cost::TierCost;
pub use hierarchy::{FetchOutcome, Hierarchy};
pub use order::{KeyMap, MulHasher};
pub use policy::PolicyKind;
pub use stats::{AccessClass, HierarchyStats};
