//! Access-trace capture and analysis.
//!
//! The paper's argument rests on a claim about access *patterns*: nearby
//! views re-touch the same blocks (Observation 1). This module makes that
//! measurable — record the demand trace of any exploration, compute its
//! reuse-distance profile, and derive the LRU miss curve for *every* cache
//! size in one pass (the classic Mattson stack algorithm), which is how the
//! cache-ratio choices of §V-A/Fig. 13 can be made from a trace alone.

use std::collections::HashSet;
use std::hash::Hash;

/// Reuse-distance profile of a trace.
///
/// The reuse distance of an access is the number of *distinct* keys
/// touched since the previous access to the same key (∞ for first
/// accesses). An LRU cache of capacity `c` hits exactly the accesses with
/// distance < `c` — so this histogram IS the LRU miss curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseProfile {
    /// `counts[d]` = number of accesses with reuse distance exactly `d`.
    pub counts: Vec<u64>,
    /// First-time (compulsory, infinite-distance) accesses.
    pub cold: u64,
    /// Total accesses.
    pub total: u64,
}

impl ReuseProfile {
    /// Compute the profile of `trace` (O(n · distinct) via an ordered list;
    /// adequate for the block-count scales of this workspace).
    pub fn compute<K: Copy + Eq + Hash>(trace: &[K]) -> Self {
        // LRU stack: most recent at the end.
        let mut stack: Vec<K> = Vec::new();
        let mut seen: HashSet<K> = HashSet::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        for &k in trace {
            if seen.insert(k) {
                cold += 1;
                stack.push(k);
            } else {
                // Distance = number of distinct keys above k in the stack.
                let idx = stack.iter().rposition(|&s| s == k).expect("stack desync");
                let dist = stack.len() - 1 - idx;
                if counts.len() <= dist {
                    counts.resize(dist + 1, 0);
                }
                counts[dist] += 1;
                stack.remove(idx);
                stack.push(k);
            }
        }
        ReuseProfile { counts, cold, total: trace.len() as u64 }
    }

    /// LRU miss count for a cache of `capacity` entries: cold misses plus
    /// every access whose reuse distance ≥ capacity.
    pub fn lru_misses(&self, capacity: usize) -> u64 {
        let far: u64 = self.counts.iter().skip(capacity).sum();
        self.cold + far
    }

    /// LRU miss *rate* for a capacity.
    pub fn lru_miss_rate(&self, capacity: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.lru_misses(capacity) as f64 / self.total as f64
        }
    }

    /// Smallest capacity achieving at most `target` miss rate, if any
    /// capacity in `0..=limit` does.
    pub fn capacity_for_miss_rate(&self, target: f64, limit: usize) -> Option<usize> {
        (0..=limit).find(|&c| self.lru_miss_rate(c) <= target)
    }

    /// Mean finite reuse distance (None when nothing was reused).
    pub fn mean_distance(&self) -> Option<f64> {
        let n: u64 = self.counts.iter().sum();
        if n == 0 {
            return None;
        }
        let sum: f64 = self.counts.iter().enumerate().map(|(d, &c)| d as f64 * c as f64).sum();
        Some(sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_cache::{CacheLevel, Lookup, PolicyKind};

    #[test]
    fn repeated_key_has_zero_distance() {
        let p = ReuseProfile::compute(&[1u32, 1, 1, 1]);
        assert_eq!(p.cold, 1);
        assert_eq!(p.counts, vec![3]);
    }

    #[test]
    fn alternating_keys_have_distance_one() {
        let p = ReuseProfile::compute(&[1u32, 2, 1, 2, 1]);
        assert_eq!(p.cold, 2);
        assert_eq!(p.counts.len(), 2);
        assert_eq!(p.counts[1], 3);
    }

    #[test]
    fn all_distinct_is_all_cold() {
        let p = ReuseProfile::compute(&[1u32, 2, 3, 4, 5]);
        assert_eq!(p.cold, 5);
        assert!(p.counts.iter().all(|&c| c == 0));
        assert_eq!(p.lru_miss_rate(100), 1.0);
    }

    #[test]
    fn miss_curve_is_monotone_nonincreasing() {
        let trace: Vec<u32> = (0..200).map(|i| (i * i + i / 3) as u32 % 17).collect();
        let p = ReuseProfile::compute(&trace);
        let curve: Vec<f64> = (0..=20).map(|c| p.lru_miss_rate(c)).collect();
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        // With capacity ≥ distinct keys, only cold misses remain.
        assert!((curve[17] - p.cold as f64 / p.total as f64).abs() < 1e-12);
    }

    #[test]
    fn profile_predicts_actual_lru_exactly() {
        // The Mattson property: profile-derived misses == simulated LRU.
        let mut state = 77u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 25) as u32
        };
        let trace: Vec<u32> = (0..600).map(|_| next()).collect();
        let p = ReuseProfile::compute(&trace);
        for cap in [1usize, 3, 7, 12, 25] {
            let mut c: CacheLevel<u32> = CacheLevel::new(PolicyKind::Lru, cap);
            let mut misses = 0u64;
            for &k in &trace {
                if c.access(k) == Lookup::Miss {
                    misses += 1;
                    c.insert(k, |_| {});
                }
            }
            assert_eq!(p.lru_misses(cap), misses, "capacity {cap}");
        }
    }

    #[test]
    fn capacity_for_miss_rate_finds_knee() {
        let trace: Vec<u32> = (0..10u32).cycle().take(500).collect();
        let p = ReuseProfile::compute(&trace);
        // Cyclic over 10 keys: any capacity >= 10 hits everything after
        // warmup; capacity 9 thrashes.
        assert!(p.lru_miss_rate(9) > 0.9);
        assert_eq!(p.capacity_for_miss_rate(0.05, 64), Some(10));
        assert_eq!(p.capacity_for_miss_rate(0.0, 5), None);
    }

    #[test]
    fn mean_distance_of_cyclic_trace() {
        let trace: Vec<u32> = (0..5u32).cycle().take(50).collect();
        let p = ReuseProfile::compute(&trace);
        // Every reuse skips the 4 other keys.
        assert_eq!(p.mean_distance(), Some(4.0));
        let empty = ReuseProfile::compute::<u32>(&[]);
        assert_eq!(empty.mean_distance(), None);
    }

    #[test]
    fn camera_path_traces_have_short_reuse_distances() {
        // Observation 1, measured: consecutive-view traces reuse blocks at
        // distances far below the block count.
        use crate::session::demand_trace;
        use viz_geom::angle::deg_to_rad;
        use viz_geom::{CameraPath, ExplorationDomain, SphericalPath, Vec3};
        use viz_volume::{BrickLayout, Dims3};
        let layout = BrickLayout::new(Dims3::cube(48), Dims3::cube(8)); // 216 blocks
        let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
        let poses = SphericalPath::new(dom, 2.5, 3.0, deg_to_rad(15.0)).generate(60);
        let trace = demand_trace(&layout, &poses);
        let p = ReuseProfile::compute(&trace);
        let mean = p.mean_distance().unwrap();
        assert!(
            mean < layout.num_blocks() as f64 / 2.0,
            "mean reuse distance {mean} not short vs {} blocks",
            layout.num_blocks()
        );
        // An LRU cache of half the blocks hits the bulk of the reuses
        // (the 8-voxel blocks of this miniature layout inflate the cone
        // test, so the per-frame working set is proportionally larger than
        // at experiment scale).
        assert!(
            p.lru_miss_rate(layout.num_blocks() / 2) < 0.35,
            "miss rate at half capacity: {}",
            p.lru_miss_rate(layout.num_blocks() / 2)
        );
    }
}
