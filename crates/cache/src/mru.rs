//! Most-Recently-Used replacement.
//!
//! MRU is the textbook antidote to LRU's cyclic-thrash pathology: for a
//! looping scan over a working set slightly larger than the cache, evicting
//! the *most* recent entry retains a stable prefix and hits on it every
//! lap. Included because interactive orbits (the paper's spherical paths)
//! are exactly such loops — the ablation bench shows where each wins.

use crate::policy::ReplacementPolicy;
use std::collections::HashMap;
use std::hash::Hash;

/// Evicts the most recently touched key (insertions count as touches).
#[derive(Debug)]
pub struct MruPolicy<K> {
    /// key → last-touch sequence number.
    last: HashMap<K, u64>,
    /// (sequence, key) ordered newest-first via BTreeMap reverse iteration.
    order: std::collections::BTreeMap<u64, K>,
    next: u64,
}

impl<K: Copy + Eq + Hash> MruPolicy<K> {
    /// Create an empty MRU policy.
    pub fn new() -> Self {
        MruPolicy { last: HashMap::new(), order: std::collections::BTreeMap::new(), next: 0 }
    }

    fn touch(&mut self, key: K) {
        let seq = self.next;
        self.next += 1;
        if let Some(old) = self.last.insert(key, seq) {
            self.order.remove(&old);
        }
        self.order.insert(seq, key);
    }
}

impl<K: Copy + Eq + Hash> Default for MruPolicy<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash + Send> ReplacementPolicy<K> for MruPolicy<K> {
    fn on_insert(&mut self, key: K) {
        debug_assert!(!self.last.contains_key(&key), "duplicate insert");
        self.touch(key);
    }

    fn on_hit(&mut self, key: K) {
        if self.last.contains_key(&key) {
            self.touch(key);
        }
    }

    fn choose_victim(&mut self, is_evictable: &mut dyn FnMut(&K) -> bool) -> Option<K> {
        // Newest first.
        let found =
            self.order.iter().rev().find(|(_, k)| is_evictable(k)).map(|(&s, &k)| (s, k))?;
        self.order.remove(&found.0);
        self.last.remove(&found.1);
        Some(found.1)
    }

    fn on_remove(&mut self, key: &K) {
        if let Some(seq) = self.last.remove(key) {
            self.order.remove(&seq);
        }
    }

    fn len(&self) -> usize {
        self.last.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.last.contains_key(key)
    }

    fn name(&self) -> &'static str {
        "mru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheLevel, Lookup};
    use crate::policy::conformance;

    #[test]
    fn conformance_lifecycle() {
        conformance::basic_lifecycle(Box::new(MruPolicy::new()));
    }

    #[test]
    fn conformance_pinning() {
        conformance::respects_pinning(Box::new(MruPolicy::new()));
    }

    #[test]
    fn conformance_removal() {
        conformance::external_removal(Box::new(MruPolicy::new()));
    }

    #[test]
    fn evicts_newest_first() {
        let mut p = MruPolicy::new();
        p.on_insert(1u32);
        p.on_insert(2);
        p.on_insert(3);
        assert_eq!(p.choose_victim(&mut |_| true), Some(3));
        p.on_hit(1); // 1 becomes newest
        assert_eq!(p.choose_victim(&mut |_| true), Some(1));
        assert_eq!(p.choose_victim(&mut |_| true), Some(2));
    }

    #[test]
    fn mru_beats_lru_on_cyclic_scan() {
        // Loop over N+1 keys with capacity N: LRU misses 100%, MRU keeps a
        // stable prefix resident.
        let cap = 8;
        let keys: Vec<u32> = (0..(cap as u32 + 1)).collect();
        let run = |policy: Box<dyn ReplacementPolicy<u32>>| -> usize {
            let mut c = CacheLevel::with_policy(policy, cap);
            let mut misses = 0;
            for _ in 0..20 {
                for &k in &keys {
                    if c.access(k) == Lookup::Miss {
                        misses += 1;
                        c.insert(k);
                    }
                }
            }
            misses
        };
        let lru_misses = run(Box::<crate::lru::LruPolicy<_>>::default());
        let mru_misses = run(Box::<MruPolicy<_>>::default());
        assert_eq!(lru_misses, 20 * keys.len(), "LRU must thrash completely");
        assert!(
            mru_misses < lru_misses / 3,
            "MRU should break the loop pathology: {mru_misses} vs {lru_misses}"
        );
    }
}
