//! The two-tier memory-hierarchy simulator.
//!
//! Mirrors the paper's experimental setup (§V-A): a dataset resident on the
//! slowest store (HDD) is cached through two successively faster, smaller
//! tiers (SSD, then DRAM), with "the ratio of cache size ... 0.5 between
//! two successive memory levels". The hierarchy is *inclusive*: fetching a
//! block into DRAM also installs it in the SSD tier, and an eviction from
//! the fast tier simply drops the copy (the SSD tier still holds it until
//! it evicts independently).

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

/// The backing store's level: one past the two cache tiers.
const BACKING: usize = 2;

/// Where a fetch was satisfied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchOutcome {
    /// 0 for the fastest tier, 1 for the middle one, 2 for the backing store.
    pub level: usize,
    /// Simulated seconds the fetch took.
    pub time_s: f64,
    /// Whether the fastest tier already held the block.
    pub fast_hit: bool,
}

/// The paper's three-level setup: two cache tiers, fastest first, over an
/// infinite backing store that holds the whole dataset.
pub struct Hierarchy<K> {
    tiers: [CacheLevel<K>; 2],
    /// Seconds to read one block from the fastest tier, the middle tier
    /// and the backing store.
    read_s: [f64; 3],
    stats: HierarchyStats,
}

impl<K: Copy + Eq + Hash> Hierarchy<K> {
    /// The paper's two-cache-tier shape over device costs
    /// `[fastest, middle, backing]`: DRAM/SSD/HDD in §V-A, or e.g.
    /// GPU-memory/DRAM/NVMe for a VR rig. The tiers hold `ratio²` and
    /// `ratio` of the blocks (at least one each), so the fast tier is never
    /// the larger; ratio 0.5 gives §V-A's 25% / 50% of the dataset.
    pub fn two_level(
        num_blocks: usize,
        ratio: f64,
        policy: PolicyKind,
        block_bytes: usize,
        costs: [TierCost; 3],
    ) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "cache ratio must be in (0, 1]");
        assert!(block_bytes > 0, "block size must be positive");
        let n = num_blocks as f64;
        let capacity = |blocks: f64| (blocks.round() as usize).max(1);
        Hierarchy {
            tiers: [
                CacheLevel::new(policy, capacity(n * ratio * ratio)),
                CacheLevel::new(policy, capacity(n * ratio)),
            ],
            read_s: costs.map(|c| c.read_time(block_bytes)),
            stats: HierarchyStats::default(),
        }
    }

    /// Capacity of tier `i` in blocks.
    pub fn tier_capacity(&self, i: usize) -> usize {
        self.tiers[i].capacity()
    }

    /// `true` when the fastest tier currently holds `key`.
    pub fn in_fastest(&self, key: &K) -> bool {
        self.tiers[0].contains(key)
    }

    /// Number of blocks resident in the fastest tier.
    pub fn fastest_len(&self) -> usize {
        self.tiers[0].len()
    }

    /// Fetch a block to the fastest tier, simulating the data movement.
    ///
    /// Searches tiers fastest-to-slowest; on a hit at the middle tier, the
    /// block is promoted into the fastest. A complete miss reads from the
    /// backing store and installs the block in both tiers. The simulated
    /// time is the read cost *of the level that supplied the data* (faster
    /// levels' copy costs are subsumed — the stream is pipelined).
    pub fn fetch(&mut self, key: K, class: AccessClass) -> FetchOutcome {
        let demand = class == AccessClass::Demand;
        let level =
            self.tiers.iter_mut().position(|t| t.access(key) == Lookup::Hit).unwrap_or(BACKING);
        let fast_hit = level == 0;
        if viz_telemetry::enabled() {
            if level < BACKING {
                viz_telemetry::instant(Ev::CacheHit, tel_key(&key), level as u64);
            } else {
                viz_telemetry::instant(Ev::CacheMiss, tel_key(&key), u64::from(!demand));
            }
        }
        if demand {
            self.stats.demand_accesses += 1;
            self.stats.demand_fast_misses += u64::from(!fast_hit);
        }
        // Promote into every faster tier (inclusive).
        for i in (0..level).rev() {
            self.install(i, key);
        }
        FetchOutcome { level, time_s: self.read_s[level], fast_hit }
    }

    /// Pre-load a block into both tiers without charging I/O time or
    /// touching miss statistics (the paper's one-time pre-processing
    /// placement of important blocks, Algorithm 1 line 7).
    pub fn preload(&mut self, key: K) {
        for i in (0..BACKING).rev() {
            self.install(i, key);
        }
    }

    /// Insert `key` into tier `i`, attributing each eviction to the tier
    /// and its policy (`arg` = `tier << 8 | policy code`).
    fn install(&mut self, i: usize, key: K) {
        let tier = &mut self.tiers[i];
        let evicted = tier.insert(key);
        if viz_telemetry::enabled() {
            let arg = ((i as u64) << 8) | u64::from(tier.kind().code());
            for ek in &evicted {
                viz_telemetry::instant(Ev::CacheEvict, tel_key(ek), arg);
            }
        }
    }

    /// Pin `key` in the fastest tier (Algorithm 1's protection of blocks
    /// used by the current view step).
    pub fn pin_fastest(&mut self, key: K) {
        self.tiers[0].pin(key);
    }

    /// Release all fastest-tier pins (end of a view step).
    pub fn unpin_fastest(&mut self) {
        self.tiers[0].unpin_all();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §V-A's devices: DRAM and SSD tiers over an HDD.
    fn paper(num_blocks: usize, ratio: f64, block_bytes: usize) -> Hierarchy<u32> {
        let costs = [TierCost::dram(), TierCost::ssd(), TierCost::hdd()];
        Hierarchy::two_level(num_blocks, ratio, PolicyKind::Lru, block_bytes, costs)
    }

    fn small() -> Hierarchy<u32> {
        // DRAM: 2 blocks, SSD: 4 blocks, over HDD; 1 MiB blocks.
        let h = paper(8, 0.5, 1 << 20);
        assert_eq!((h.tier_capacity(0), h.tier_capacity(1)), (2, 4));
        h
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
        assert_eq!(*h.stats(), HierarchyStats::default());
        // Resident in the middle tier too: evicted from DRAM, it is an
        // SSD hit.
        h.fetch(1, AccessClass::Demand);
        h.fetch(2, AccessClass::Demand);
        assert_eq!(h.fetch(9, AccessClass::Demand).level, 1);
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
        let h = paper(1024, 0.5, 4096);
        assert_eq!(h.tier_capacity(0), 256); // 25% of dataset
        assert_eq!(h.tier_capacity(1), 512); // 50% of dataset
    }

    #[test]
    fn paper_default_ratio_07() {
        let h = paper(1000, 0.7, 4096);
        assert_eq!(h.tier_capacity(0), 490);
        assert_eq!(h.tier_capacity(1), 700);
    }

    #[test]
    fn cache_ratio_outside_half_open_unit_interval_panics() {
        for ratio in [0.0, -0.1, 1.5, f64::NAN] {
            let err = std::panic::catch_unwind(|| paper(1024, ratio, 4096))
                .err()
                .unwrap_or_else(|| panic!("ratio {ratio} accepted"));
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("(0, 1]"), "ratio {ratio}: panicked with {msg:?}");
        }
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
}
