//! The multi-level memory-hierarchy simulator.
//!
//! Mirrors the paper's experimental setup (§V-A): a dataset resident on the
//! slowest store (HDD) is cached through successively faster, smaller tiers
//! (SSD, then DRAM), with "the ratio of cache size ... 0.5 between two
//! successive memory levels". The hierarchy is *inclusive*: fetching a block
//! into DRAM also installs it in every intermediate tier, and an eviction
//! from a fast tier simply drops the copy (slower tiers still hold it until
//! they evict independently).

use crate::cache::{CacheLevel, Lookup};
use crate::cost::TierCost;
use crate::policy::PolicyKind;
use crate::stats::{AccessClass, HierarchyStats};
use std::hash::{Hash, Hasher};
use viz_telemetry::EventKind as Ev;

/// Telemetry subject key for an arbitrary cache key (hashed — telemetry
/// events carry `u64`s, not generic keys).
fn tel_key<K: Hash>(k: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

/// Configuration of one cache tier.
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// Display name ("DRAM", "SSD", ...).
    pub name: String,
    /// Capacity in blocks.
    pub capacity: usize,
    /// Read cost of this tier.
    pub cost: TierCost,
    /// Replacement policy governing this tier.
    pub policy: PolicyKind,
}

impl TierSpec {
    /// Create a tier spec.
    pub fn new(name: &str, capacity: usize, cost: TierCost, policy: PolicyKind) -> Self {
        TierSpec { name: name.to_string(), capacity, cost, policy }
    }
}

/// Where a fetch was satisfied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchOutcome {
    /// 0-based tier index; one past the last tier means the backing store.
    pub level: usize,
    /// Simulated seconds the fetch took.
    pub time_s: f64,
    /// Whether the fastest tier already held the block.
    pub fast_hit: bool,
}

/// `(fastest, middle)` tier capacities for a cache ratio in `(0, 1]`:
/// `ratio²` and `ratio` of the dataset, at least one block each.
fn ratio_capacities(num_blocks: usize, ratio: f64) -> (usize, usize) {
    assert!(ratio > 0.0 && ratio <= 1.0, "cache ratio must be in (0, 1]");
    let mid = ((num_blocks as f64 * ratio).round() as usize).max(1);
    let fast = ((num_blocks as f64 * ratio * ratio).round() as usize).max(1);
    (fast, mid)
}

struct Tier<K: Copy + Eq + Hash> {
    spec: TierSpec,
    cache: CacheLevel<K>,
}

/// The paper's three-level setup: tiers fastest-first, plus an infinite
/// backing store that holds the whole dataset.
pub struct Hierarchy<K: Copy + Eq + Hash> {
    tiers: Vec<Tier<K>>,
    backing: TierCost,
    backing_name: String,
    block_bytes: usize,
    stats: HierarchyStats,
}

impl<K: Copy + Eq + Hash + Send + 'static> Hierarchy<K> {
    /// Build from tier specs (fastest first) over a backing store.
    /// `block_bytes` is the uniform block payload size used by the cost
    /// model.
    pub fn new(tiers: Vec<TierSpec>, backing: TierCost, block_bytes: usize) -> Self {
        assert!(!tiers.is_empty(), "need at least one cache tier");
        assert!(block_bytes > 0, "block size must be positive");
        for w in tiers.windows(2) {
            assert!(
                w[0].capacity <= w[1].capacity,
                "inclusive hierarchy needs non-decreasing capacities ({} > {})",
                w[0].name,
                w[1].name
            );
        }
        let n = tiers.len();
        Hierarchy {
            tiers: tiers
                .into_iter()
                .map(|spec| Tier { cache: CacheLevel::new(spec.policy, spec.capacity), spec })
                .collect(),
            backing,
            backing_name: "backing".to_string(),
            block_bytes,
            stats: HierarchyStats::new(n),
        }
    }

    /// The paper's standard configuration: DRAM and SSD tiers over an HDD,
    /// with DRAM = `ratio²`·blocks and SSD = `ratio`·blocks (ratio 0.5 ⇒
    /// 25% / 50% of the dataset, exactly §V-A).
    pub fn paper_default(
        num_blocks: usize,
        ratio: f64,
        policy: PolicyKind,
        block_bytes: usize,
    ) -> Self {
        let (dram_cap, ssd_cap) = ratio_capacities(num_blocks, ratio);
        Hierarchy::new(
            vec![
                TierSpec::new("DRAM", dram_cap, TierCost::dram(), policy),
                TierSpec::new("SSD", ssd_cap, TierCost::ssd(), policy),
            ],
            TierCost::hdd(),
            block_bytes,
        )
    }

    /// The paper's two-cache-tier shape with custom device costs
    /// `[fastest, middle, backing]` — e.g. GPU-memory/DRAM/NVMe for a VR
    /// rig instead of DRAM/SSD/HDD.
    pub fn two_level(
        num_blocks: usize,
        ratio: f64,
        policy: PolicyKind,
        block_bytes: usize,
        costs: [TierCost; 3],
    ) -> Self {
        let (fast_cap, mid_cap) = ratio_capacities(num_blocks, ratio);
        Hierarchy::new(
            vec![
                TierSpec::new("fast", fast_cap, costs[0], policy),
                TierSpec::new("mid", mid_cap, costs[1], policy),
            ],
            costs[2],
            block_bytes,
        )
    }
}

impl<K: Copy + Eq + Hash> Hierarchy<K> {
    /// Capacity of tier `i` in blocks.
    pub fn tier_capacity(&self, i: usize) -> usize {
        self.tiers[i].spec.capacity
    }

    /// Name of tier `i`.
    pub fn tier_name(&self, i: usize) -> &str {
        if i < self.tiers.len() {
            &self.tiers[i].spec.name
        } else {
            &self.backing_name
        }
    }

    /// `true` when the fastest tier currently holds `key`.
    pub fn in_fastest(&self, key: &K) -> bool {
        self.tiers[0].cache.contains(key)
    }

    /// Number of blocks resident in the fastest tier.
    pub fn fastest_len(&self) -> usize {
        self.tiers[0].cache.len()
    }

    /// Fetch a block to the fastest tier, simulating the data movement.
    ///
    /// Searches tiers fastest-to-slowest; on a hit at level `i`, the block
    /// is promoted into every faster tier. A complete miss reads from the
    /// backing store and installs the block in every tier. The simulated
    /// time is the read cost *of the level that supplied the data* (faster
    /// levels' copy costs are subsumed — the stream is pipelined).
    pub fn fetch(&mut self, key: K, class: AccessClass) -> FetchOutcome {
        let n = self.tiers.len();
        match class {
            AccessClass::Demand => self.stats.demand_accesses += 1,
            AccessClass::Prefetch => self.stats.prefetch_accesses += 1,
        }

        // Find the fastest level holding the key.
        let mut found: Option<usize> = None;
        for (i, tier) in self.tiers.iter_mut().enumerate() {
            if tier.cache.access(key) == Lookup::Hit {
                found = Some(i);
                break;
            }
        }
        let level = found.unwrap_or(n);
        let fast_hit = level == 0;
        if viz_telemetry::enabled() {
            if level < n {
                viz_telemetry::instant(Ev::CacheHit, tel_key(&key), level as u64);
            } else {
                viz_telemetry::instant(
                    Ev::CacheMiss,
                    tel_key(&key),
                    u64::from(class == AccessClass::Prefetch),
                );
            }
        }
        if !fast_hit {
            match class {
                AccessClass::Demand => self.stats.demand_fast_misses += 1,
                AccessClass::Prefetch => self.stats.prefetch_fast_misses += 1,
            }
        }

        // Cost: read from the supplying level.
        let cost = if level < n {
            self.tiers[level].spec.cost.read_time(self.block_bytes)
        } else {
            self.backing.read_time(self.block_bytes)
        };
        {
            let l = &mut self.stats.levels[level];
            l.bytes_read += self.block_bytes as u64;
            match class {
                AccessClass::Demand => {
                    l.demand_hits += u64::from(level < n);
                    l.demand_read_s += cost;
                }
                AccessClass::Prefetch => {
                    l.prefetch_hits += u64::from(level < n);
                    l.prefetch_read_s += cost;
                }
            }
        }

        // Promote into all faster tiers (inclusive).
        for i in (0..level.min(n)).rev() {
            let evicted = self.tiers[i].cache.insert(key);
            if i == 0 {
                self.stats.fast_evictions += evicted.len() as u64;
            }
            if viz_telemetry::enabled() {
                let arg = ((i as u64) << 8) | u64::from(self.tiers[i].spec.policy.code());
                for ek in &evicted {
                    viz_telemetry::instant(Ev::CacheEvict, tel_key(ek), arg);
                }
            }
        }

        FetchOutcome { level, time_s: cost, fast_hit }
    }

    /// Pre-load a block into every tier without charging I/O time or touching
    /// miss statistics (the paper's one-time pre-processing placement of
    /// important blocks, Algorithm 1 line 7).
    pub fn preload(&mut self, key: K) {
        for i in (0..self.tiers.len()).rev() {
            let evicted = self.tiers[i].cache.insert(key);
            if i == 0 {
                self.stats.fast_evictions += evicted.len() as u64;
            }
            if viz_telemetry::enabled() {
                let arg = ((i as u64) << 8) | u64::from(self.tiers[i].spec.policy.code());
                for ek in &evicted {
                    viz_telemetry::instant(Ev::CacheEvict, tel_key(ek), arg);
                }
            }
        }
    }

    /// Pin `key` in the fastest tier (Algorithm 1's protection of blocks
    /// used by the current view step).
    pub fn pin_fastest(&mut self, key: K) {
        self.tiers[0].cache.pin(key);
    }

    /// Release all fastest-tier pins (end of a view step).
    pub fn unpin_fastest(&mut self) {
        self.tiers[0].cache.unpin_all();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Reset statistics (e.g. after a warm-up phase), keeping residency.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::new(self.tiers.len());
    }

    /// Uniform block size used by the cost model.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy<u32> {
        // DRAM: 2 blocks, SSD: 4 blocks, over HDD; 1 MiB blocks.
        Hierarchy::new(
            vec![
                TierSpec::new("DRAM", 2, TierCost::dram(), PolicyKind::Lru),
                TierSpec::new("SSD", 4, TierCost::ssd(), PolicyKind::Lru),
            ],
            TierCost::hdd(),
            1 << 20,
        )
    }

    #[test]
    fn cold_fetch_comes_from_backing() {
        let mut h = small();
        let o = h.fetch(1, AccessClass::Demand);
        assert_eq!(o.level, 2);
        assert!(!o.fast_hit);
        assert!((o.time_s - TierCost::hdd().read_time(1 << 20)).abs() < 1e-12);
    }

    #[test]
    fn refetch_hits_fastest() {
        let mut h = small();
        h.fetch(1, AccessClass::Demand);
        let o = h.fetch(1, AccessClass::Demand);
        assert_eq!(o.level, 0);
        assert!(o.fast_hit);
        assert_eq!(h.stats().demand_fast_misses, 1);
        assert_eq!(h.stats().demand_accesses, 2);
    }

    #[test]
    fn evicted_from_dram_still_hits_ssd() {
        let mut h = small();
        h.fetch(1, AccessClass::Demand);
        h.fetch(2, AccessClass::Demand);
        h.fetch(3, AccessClass::Demand); // evicts 1 from DRAM (cap 2)
        assert!(!h.in_fastest(&1));
        let o = h.fetch(1, AccessClass::Demand);
        assert_eq!(o.level, 1, "block should be served from SSD");
        assert!((o.time_s - TierCost::ssd().read_time(1 << 20)).abs() < 1e-12);
    }

    #[test]
    fn full_working_set_overflow_reaches_backing_again() {
        let mut h = small();
        for k in 0..10u32 {
            h.fetch(k, AccessClass::Demand);
        }
        // 0..5 evicted from SSD too; refetching 0 is an HDD read.
        let o = h.fetch(0, AccessClass::Demand);
        assert_eq!(o.level, 2);
    }

    #[test]
    fn miss_rate_counts_fast_tier_only() {
        let mut h = small();
        h.fetch(1, AccessClass::Demand); // miss
        h.fetch(1, AccessClass::Demand); // hit
        h.fetch(2, AccessClass::Demand); // miss
        h.fetch(1, AccessClass::Demand); // hit
        assert!((h.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefetch_does_not_inflate_demand_stats() {
        let mut h = small();
        h.fetch(7, AccessClass::Prefetch);
        assert_eq!(h.stats().demand_accesses, 0);
        assert_eq!(h.stats().miss_rate(), 0.0);
        assert!(h.stats().prefetch_s() > 0.0);
        // The prefetched block now demand-hits DRAM.
        let o = h.fetch(7, AccessClass::Demand);
        assert!(o.fast_hit);
        assert_eq!(h.stats().demand_fast_misses, 0);
    }

    #[test]
    fn preload_is_free_and_resident() {
        let mut h = small();
        h.preload(9);
        assert!(h.in_fastest(&9));
        assert_eq!(h.stats().demand_io_s(), 0.0);
        assert_eq!(h.stats().total_bytes_read(), 0);
    }

    #[test]
    fn pinned_blocks_survive_thrash() {
        let mut h = small();
        h.fetch(1, AccessClass::Demand);
        h.pin_fastest(1);
        for k in 10..20u32 {
            h.fetch(k, AccessClass::Demand);
        }
        assert!(h.in_fastest(&1), "pinned block evicted");
        h.unpin_fastest();
        for k in 20..25u32 {
            h.fetch(k, AccessClass::Demand);
        }
        assert!(!h.in_fastest(&1), "unpinned block should eventually fall out");
    }

    #[test]
    fn paper_default_capacities() {
        let h: Hierarchy<u32> = Hierarchy::paper_default(1024, 0.5, PolicyKind::Lru, 4096);
        assert_eq!(h.tier_capacity(0), 256); // 25% of dataset
        assert_eq!(h.tier_capacity(1), 512); // 50% of dataset
        assert_eq!(h.tier_name(0), "DRAM");
        assert_eq!(h.tier_name(2), "backing");
    }

    #[test]
    fn paper_default_ratio_07() {
        let h: Hierarchy<u32> = Hierarchy::paper_default(1000, 0.7, PolicyKind::Lru, 4096);
        assert_eq!(h.tier_capacity(0), 490);
        assert_eq!(h.tier_capacity(1), 700);
    }

    #[test]
    fn cache_ratio_outside_half_open_unit_interval_panics() {
        for ratio in [0.0, -0.1, 1.5, f64::NAN] {
            for two_level in [false, true] {
                let err = std::panic::catch_unwind(|| -> Hierarchy<u32> {
                    if two_level {
                        let costs = [TierCost::dram(), TierCost::ssd(), TierCost::hdd()];
                        Hierarchy::two_level(1024, ratio, PolicyKind::Lru, 4096, costs)
                    } else {
                        Hierarchy::paper_default(1024, ratio, PolicyKind::Lru, 4096)
                    }
                })
                .err()
                .unwrap_or_else(|| panic!("ratio {ratio} accepted (two_level: {two_level})"));
                let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
                assert!(msg.contains("(0, 1]"), "ratio {ratio}: panicked with {msg:?}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn decreasing_capacities_panic() {
        let _: Hierarchy<u32> = Hierarchy::new(
            vec![
                TierSpec::new("big-fast", 8, TierCost::dram(), PolicyKind::Lru),
                TierSpec::new("small-slow", 4, TierCost::ssd(), PolicyKind::Lru),
            ],
            TierCost::hdd(),
            1,
        );
    }

    #[test]
    fn reset_stats_keeps_residency() {
        let mut h = small();
        h.fetch(1, AccessClass::Demand);
        h.reset_stats();
        assert_eq!(h.stats().demand_accesses, 0);
        let o = h.fetch(1, AccessClass::Demand);
        assert!(o.fast_hit, "residency must survive a stats reset");
    }

    #[test]
    fn telemetry_attributes_evictions_to_tier_and_policy() {
        viz_telemetry::set_enabled(true);
        let mut h = small();
        // DRAM holds 2 blocks: the third fetch must evict one via LRU.
        for k in 0..6u32 {
            h.fetch(k, AccessClass::Demand);
        }
        let trace = viz_telemetry::drain();
        viz_telemetry::set_enabled(false);
        let lru_code = u64::from(PolicyKind::Lru.code());
        let dram_evicts =
            trace.events.iter().filter(|e| e.kind == Ev::CacheEvict && e.arg == lru_code).count();
        let ssd_evicts = trace
            .events
            .iter()
            .filter(|e| e.kind == Ev::CacheEvict && e.arg == ((1 << 8) | lru_code))
            .count();
        // 6 fetches through a 2-block DRAM: at least 4 fast evictions, and
        // the 4-block SSD overflowed at least twice.
        assert!(dram_evicts >= 4, "got {dram_evicts} DRAM evictions");
        assert!(ssd_evicts >= 2, "got {ssd_evicts} SSD evictions");
        assert!(trace.count(Ev::CacheMiss) >= 6);
    }

    #[test]
    fn bytes_read_accounting() {
        let mut h = small();
        h.fetch(1, AccessClass::Demand); // 1 MiB from HDD
        h.fetch(1, AccessClass::Demand); // 1 MiB from DRAM
        assert_eq!(h.stats().total_bytes_read(), 2 << 20);
        assert_eq!(h.stats().levels[2].bytes_read, 1 << 20);
        assert_eq!(h.stats().levels[0].bytes_read, 1 << 20);
    }
}
