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

/// Demand statistics of a hierarchy simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Total demand accesses.
    pub demand_accesses: u64,
    /// Demand accesses *not* found in the fastest tier (the paper's
    /// headline miss count: any access that forces data movement).
    pub demand_fast_misses: u64,
}

impl HierarchyStats {
    /// The paper's miss rate: fraction of demand accesses that were not
    /// resident in the fastest memory when requested.
    pub fn miss_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_fast_misses as f64 / self.demand_accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = HierarchyStats::default();
        assert_eq!(s.demand_accesses, 0);
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn miss_rate_fraction() {
        let s = HierarchyStats { demand_accesses: 10, demand_fast_misses: 3 };
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
    }
}
