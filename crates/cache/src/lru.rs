//! Least-Recently-Used replacement (paper baseline, and the in-frame
//! eviction rule inside the paper's Algorithm 1: LRU among the blocks the
//! current view step has not pinned).
//!
//! Built on the slab of two intrusive lists in `order.rs`: the recency
//! list of every resident key, and the sub-list of unpinned keys in the
//! same order. Insert, hit, pin, removal and the victim are all O(1) —
//! the victim is the unpinned list's tail, never a walk past pinned
//! entries — and `unpin_all` is one walk of the recency list per view
//! step.

use crate::order::KeyOrder;
use crate::policy::ReplacementPolicy;
use std::hash::Hash;

/// Classic LRU list: most-recent at the head, victims taken from the
/// unpinned tail.
#[derive(Debug)]
pub(crate) struct LruPolicy<K> {
    order: KeyOrder<K>,
}

impl<K: Copy + Eq + Hash> LruPolicy<K> {
    /// Create an empty LRU policy.
    pub(crate) fn new() -> Self {
        LruPolicy { order: KeyOrder::new() }
    }

    /// Keys from least- to most-recently used, pinned or not.
    #[cfg(test)]
    fn lru_order(&self) -> Vec<K> {
        self.order.oldest_first()
    }
}

impl<K: Copy + Eq + Hash> Default for LruPolicy<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash + Send> ReplacementPolicy<K> for LruPolicy<K> {
    fn on_insert(&mut self, key: K) {
        self.order.insert(key);
    }

    fn on_hit(&mut self, key: K) -> bool {
        self.order.touch(&key)
    }

    fn choose_victim(&mut self) -> Option<K> {
        self.order.pop_victim()
    }

    fn on_remove(&mut self, key: &K) {
        self.order.remove(key);
    }

    fn pin(&mut self, key: &K) -> bool {
        self.order.pin(key)
    }

    fn unpin_all(&mut self) {
        self.order.unpin_all();
    }

    fn pinned_len(&self) -> usize {
        self.order.pinned_len()
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.order.contains(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::conformance;

    #[test]
    fn conformance_lifecycle() {
        conformance::basic_lifecycle(Box::new(LruPolicy::new()));
    }

    #[test]
    fn conformance_pinning() {
        conformance::respects_pinning(Box::new(LruPolicy::new()));
    }

    #[test]
    fn conformance_removal() {
        conformance::external_removal(Box::new(LruPolicy::new()));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut p = LruPolicy::new();
        for k in 1..=3u32 {
            p.on_insert(k);
        }
        p.on_hit(1); // order (LRU→MRU): 2, 3, 1
        assert_eq!(p.choose_victim(), Some(2));
        assert_eq!(p.choose_victim(), Some(3));
        assert_eq!(p.choose_victim(), Some(1));
    }

    #[test]
    fn lru_order_reflects_hits() {
        let mut p = LruPolicy::new();
        for k in 1..=4u32 {
            p.on_insert(k);
        }
        p.on_hit(2);
        p.on_hit(1);
        assert_eq!(p.lru_order(), vec![3, 4, 2, 1]);
    }

    #[test]
    fn pinned_tail_skips_to_next_lru() {
        let mut p = LruPolicy::new();
        for k in 1..=3u32 {
            p.on_insert(k);
        }
        // 1 is LRU but pinned.
        p.pin(&1);
        assert_eq!(p.choose_victim(), Some(2));
        assert_eq!(p.lru_order(), vec![1, 3]);
    }

    #[test]
    fn hit_while_pinned_counts_after_unpin() {
        let mut p = LruPolicy::new();
        for k in 1..=3u32 {
            p.on_insert(k);
        }
        p.pin(&1);
        p.on_hit(1); // order (LRU→MRU): 2, 3, 1
        p.unpin_all();
        assert_eq!(p.choose_victim(), Some(2));
        assert_eq!(p.choose_victim(), Some(3));
        assert_eq!(p.choose_victim(), Some(1));
    }

    #[test]
    fn slab_reuses_freed_nodes() {
        let mut p = LruPolicy::new();
        for round in 0..5 {
            for k in 0..100u32 {
                p.on_insert(k + round * 100);
            }
            while p.choose_victim().is_some() {}
        }
        // 5 rounds × 100 inserts but the slab never exceeds 100 nodes.
        assert!(p.order.slots() <= 100);
    }

    #[test]
    fn hit_on_absent_key_is_noop() {
        let mut p = LruPolicy::new();
        p.on_insert(1u32);
        p.on_hit(42);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn remove_head_and_tail_keep_list_consistent() {
        let mut p = LruPolicy::new();
        for k in 1..=3u32 {
            p.on_insert(k);
        }
        p.on_remove(&3); // head (MRU)
        p.on_remove(&1); // tail (LRU)
        assert_eq!(p.lru_order(), vec![2]);
        assert_eq!(p.choose_victim(), Some(2));
        assert!(p.is_empty());
    }
}
