//! Belady's offline-optimal replacement (MIN), cited by the paper (§II,
//! [Belady 1966]) and used here as the unbeatable lower bound against which
//! the online policies are situated in the ablation benches.
//!
//! Because MIN needs the complete future access sequence it is exposed as a
//! trace simulator rather than as a [`PolicyKind`](crate::PolicyKind) a
//! [`CacheLevel`](crate::CacheLevel) runs online.

use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

/// Result of an offline MIN simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeladyResult {
    /// Total accesses in the trace.
    pub accesses: usize,
    /// Accesses that found the key resident.
    pub hits: usize,
    /// Accesses that required a fetch.
    pub misses: usize,
}

impl BeladyResult {
    /// Fraction of accesses that missed.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Simulate Belady's MIN over `trace` with a cache of `capacity` entries.
///
/// On a miss with a full cache, the resident key whose *next* use lies
/// farthest in the future (or never) is evicted. Runs in
/// `O(n log n)` using a lazy max-heap of next-use positions.
pub fn simulate_belady<K: Copy + Eq + Hash>(trace: &[K], capacity: usize) -> BeladyResult {
    assert!(capacity > 0, "capacity must be positive");
    let n = trace.len();

    // next_use[i] = position of the next access to trace[i] after i, or n.
    let mut next_use = vec![n; n];
    let mut last_pos: HashMap<K, usize> = HashMap::new();
    for (i, k) in trace.iter().enumerate().rev() {
        if let Some(&p) = last_pos.get(k) {
            next_use[i] = p;
        }
        last_pos.insert(*k, i);
    }

    // resident: key → its current next-use position (n = never again).
    let mut resident: HashMap<K, usize> = HashMap::new();
    // Max-heap of (next_use, key-slot) candidates; entries go stale when a
    // key is re-accessed, so validate against `resident` on pop.
    let mut heap: BinaryHeap<(usize, usize)> = BinaryHeap::new();
    // Slot table so the heap stores Copy indices even for non-Ord keys.
    let mut slot_keys: Vec<K> = Vec::new();

    let mut hits = 0usize;
    let mut misses = 0usize;

    for (i, &k) in trace.iter().enumerate() {
        let nu = next_use[i];
        if resident.contains_key(&k) {
            hits += 1;
            resident.insert(k, nu);
            let slot = slot_keys.len();
            slot_keys.push(k);
            heap.push((nu, slot));
        } else {
            misses += 1;
            if resident.len() >= capacity {
                // Pop until a live entry surfaces.
                while let Some((nu_top, slot)) = heap.pop() {
                    let key = slot_keys[slot];
                    if resident.get(&key) == Some(&nu_top) {
                        resident.remove(&key);
                        break;
                    }
                }
            }
            resident.insert(k, nu);
            let slot = slot_keys.len();
            slot_keys.push(k);
            heap.push((nu, slot));
        }
    }
    BeladyResult { accesses: n, hits, misses }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference O(n·c) implementation for cross-checking.
    fn naive_belady(trace: &[u32], capacity: usize) -> BeladyResult {
        let mut resident: Vec<u32> = Vec::new();
        let (mut hits, mut misses) = (0, 0);
        for i in 0..trace.len() {
            let k = trace[i];
            if resident.contains(&k) {
                hits += 1;
                continue;
            }
            misses += 1;
            if resident.len() >= capacity {
                // Evict the key used farthest in the future.
                let victim_idx = (0..resident.len())
                    .max_by_key(|&ri| {
                        trace[i + 1..]
                            .iter()
                            .position(|&t| t == resident[ri])
                            .map(|p| p as i64)
                            .unwrap_or(i64::MAX)
                    })
                    .unwrap();
                resident.swap_remove(victim_idx);
            }
            resident.push(k);
        }
        BeladyResult { accesses: trace.len(), hits, misses }
    }

    #[test]
    fn classic_textbook_example() {
        // Belady's standard demonstration sequence, capacity 3.
        let trace = [7u32, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1];
        let r = simulate_belady(&trace, 3);
        assert_eq!(r.misses, 9, "MIN has exactly 9 faults on this sequence");
        assert_eq!(r.hits, 11);
    }

    #[test]
    fn all_unique_keys_all_miss() {
        let trace: Vec<u32> = (0..100).collect();
        let r = simulate_belady(&trace, 10);
        assert_eq!(r.misses, 100);
        assert_eq!(r.miss_rate(), 1.0);
    }

    #[test]
    fn repeating_working_set_within_capacity_hits() {
        let trace: Vec<u32> = (0..5).cycle().take(100).collect();
        let r = simulate_belady(&trace, 5);
        assert_eq!(r.misses, 5); // compulsory misses only
        assert_eq!(r.hits, 95);
    }

    #[test]
    fn empty_trace() {
        let r = simulate_belady::<u32>(&[], 4);
        assert_eq!(r.accesses, 0);
        assert_eq!(r.miss_rate(), 0.0);
    }

    #[test]
    fn matches_naive_on_random_traces() {
        // Deterministic pseudo-random traces (LCG), several capacities.
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 12) as u32
        };
        for cap in [1usize, 2, 4, 8] {
            let trace: Vec<u32> = (0..300).map(|_| next()).collect();
            let fast = simulate_belady(&trace, cap);
            let slow = naive_belady(&trace, cap);
            assert_eq!(fast.misses, slow.misses, "cap {cap}");
        }
    }

    #[test]
    fn belady_never_worse_than_lru() {
        use crate::cache::{CacheLevel, Lookup};
        use crate::policy::PolicyKind;
        let mut state = 999u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 20) as u32
        };
        let trace: Vec<u32> = (0..500).map(|_| next()).collect();
        for cap in [2usize, 5, 10] {
            let opt = simulate_belady(&trace, cap);
            let mut lru: CacheLevel<u32> = CacheLevel::new(PolicyKind::Lru, cap);
            let mut lru_misses = 0;
            for &k in &trace {
                if lru.access(k) == Lookup::Miss {
                    lru_misses += 1;
                    lru.insert(k, |_| {});
                }
            }
            assert!(opt.misses <= lru_misses, "cap {cap}: OPT {} > LRU {lru_misses}", opt.misses);
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        simulate_belady::<u32>(&[1], 0);
    }
}
