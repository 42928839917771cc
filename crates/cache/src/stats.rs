//! Access statistics for the hierarchy simulator.

/// Whether an access was issued by the renderer (demand) or by the
/// overlap prefetcher of the paper's Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Blocking fetch required before rendering can proceed.
    Demand,
    /// Speculative fetch overlapped with rendering.
    Prefetch,
}

/// Counters for one hierarchy level (or the backing store).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelStats {
    /// Demand accesses satisfied at this level.
    pub demand_hits: u64,
    /// Prefetch accesses satisfied at this level.
    pub prefetch_hits: u64,
    /// Bytes read *from* this level (to service any access).
    pub bytes_read: u64,
    /// Simulated seconds spent reading from this level for demand accesses.
    pub demand_read_s: f64,
    /// Simulated seconds spent reading from this level for prefetches.
    pub prefetch_read_s: f64,
}

/// Aggregate statistics of a hierarchy simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierarchyStats {
    /// One entry per cache tier (fastest first) plus one final entry for
    /// the backing store.
    pub levels: Vec<LevelStats>,
    /// Total demand accesses.
    pub demand_accesses: u64,
    /// Total prefetch accesses.
    pub prefetch_accesses: u64,
    /// Demand accesses *not* found in the fastest tier (the paper's
    /// headline miss count: any access that forces data movement).
    pub demand_fast_misses: u64,
    /// Prefetch accesses not already resident in the fastest tier.
    pub prefetch_fast_misses: u64,
    /// Total evictions out of the fastest tier.
    pub fast_evictions: u64,
}

impl HierarchyStats {
    /// Create with `tiers + 1` level slots.
    pub fn new(tiers: usize) -> Self {
        HierarchyStats { levels: vec![LevelStats::default(); tiers + 1], ..Default::default() }
    }

    /// The paper's miss rate: fraction of demand accesses that were not
    /// resident in the fastest memory when requested.
    pub fn miss_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_fast_misses as f64 / self.demand_accesses as f64
        }
    }

    /// Total simulated prefetch time.
    pub fn prefetch_s(&self) -> f64 {
        self.levels.iter().map(|l| l.prefetch_read_s).sum()
    }

    /// Total bytes moved out of every level.
    pub fn total_bytes_read(&self) -> u64 {
        self.levels.iter().map(|l| l.bytes_read).sum()
    }

    /// Merge another stats object (e.g. from a sharded run) into this one.
    pub fn merge(&mut self, other: &HierarchyStats) {
        assert_eq!(self.levels.len(), other.levels.len(), "level count mismatch");
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.demand_hits += b.demand_hits;
            a.prefetch_hits += b.prefetch_hits;
            a.bytes_read += b.bytes_read;
            a.demand_read_s += b.demand_read_s;
            a.prefetch_read_s += b.prefetch_read_s;
        }
        self.demand_accesses += other.demand_accesses;
        self.prefetch_accesses += other.prefetch_accesses;
        self.demand_fast_misses += other.demand_fast_misses;
        self.prefetch_fast_misses += other.prefetch_fast_misses;
        self.fast_evictions += other.fast_evictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = HierarchyStats::new(2);
        assert_eq!(s.levels.len(), 3);
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn miss_rate_fraction() {
        let mut s = HierarchyStats::new(1);
        s.demand_accesses = 10;
        s.demand_fast_misses = 3;
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = HierarchyStats::new(1);
        a.demand_accesses = 5;
        a.demand_fast_misses = 2;
        a.levels[0].bytes_read = 100;
        let mut b = HierarchyStats::new(1);
        b.demand_accesses = 3;
        b.demand_fast_misses = 1;
        b.levels[1].demand_read_s = 0.5;
        a.merge(&b);
        assert_eq!(a.demand_accesses, 8);
        assert_eq!(a.demand_fast_misses, 3);
        assert_eq!(a.levels[0].bytes_read, 100);
        assert!((a.levels[1].demand_read_s - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_levels() {
        let mut a = HierarchyStats::new(1);
        a.merge(&HierarchyStats::new(2));
    }

    #[test]
    fn prefetch_time_sums_all_levels() {
        let mut s = HierarchyStats::new(1);
        s.levels[0].prefetch_read_s = 1.0;
        s.levels[1].prefetch_read_s = 2.0;
        assert!((s.prefetch_s() - 3.0).abs() < 1e-12);
    }
}
