//! First-In First-Out replacement (paper baseline).
//!
//! The same slab as [`crate::lru`] (`order.rs`) over an arrival list
//! that hits never reorder: the victim is the oldest unpinned arrival, in
//! O(1). A pinned key keeps its place in arrival order, and a removed key
//! is unlinked at once, so a key that returns is the newest arrival.

use crate::order::KeyOrder;
use crate::policy::ReplacementPolicy;
use std::hash::Hash;

/// Evicts in arrival order, ignoring accesses entirely.
#[derive(Debug)]
pub(crate) struct FifoPolicy<K> {
    order: KeyOrder<K>,
}

impl<K: Copy + Eq + Hash> FifoPolicy<K> {
    /// Create an empty FIFO policy.
    pub(crate) fn new() -> Self {
        FifoPolicy { order: KeyOrder::new() }
    }
}

impl<K: Copy + Eq + Hash> Default for FifoPolicy<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash + Send> ReplacementPolicy<K> for FifoPolicy<K> {
    fn on_insert(&mut self, key: K) {
        self.order.insert(key);
    }

    fn on_hit(&mut self, key: K) -> bool {
        // FIFO is access-oblivious.
        self.order.contains(&key)
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
    use crate::cache::CacheLevel;
    use crate::policy::{conformance, PolicyKind};

    #[test]
    fn conformance_lifecycle() {
        conformance::basic_lifecycle(Box::new(FifoPolicy::new()));
    }

    #[test]
    fn conformance_pinning() {
        conformance::respects_pinning(Box::new(FifoPolicy::new()));
    }

    #[test]
    fn conformance_removal() {
        conformance::external_removal(Box::new(FifoPolicy::new()));
    }

    #[test]
    fn evicts_in_insertion_order() {
        let mut p = FifoPolicy::new();
        for k in [5u32, 1, 9, 2] {
            p.on_insert(k);
        }
        assert_eq!(p.choose_victim(), Some(5));
        assert_eq!(p.choose_victim(), Some(1));
    }

    #[test]
    fn hits_do_not_change_order() {
        let mut p = FifoPolicy::new();
        p.on_insert(1u32);
        p.on_insert(2);
        p.on_hit(1);
        p.on_hit(1);
        assert_eq!(p.choose_victim(), Some(1));
    }

    #[test]
    fn pinned_front_falls_back_to_second() {
        let mut p = FifoPolicy::new();
        p.on_insert(1u32);
        p.on_insert(2);
        p.pin(&1);
        assert_eq!(p.choose_victim(), Some(2));
        assert!(p.contains(&1));
    }

    #[test]
    fn stale_entries_are_skipped_after_removal() {
        let mut p = FifoPolicy::new();
        p.on_insert(1u32);
        p.on_insert(2);
        p.on_remove(&1);
        assert_eq!(p.choose_victim(), Some(2));
        assert_eq!(p.choose_victim(), None);
    }

    /// A pinned key skipped by a victim search keeps its age: once
    /// unpinned it is again the oldest arrival.
    #[test]
    fn pinned_key_keeps_its_age_through_a_victim_search() {
        let mut c = CacheLevel::new(PolicyKind::Fifo, 3);
        for k in [1u32, 2, 3] {
            c.insert(k);
        }
        c.pin(1);
        assert_eq!(c.insert(4), vec![2]);
        c.unpin_all();
        assert_eq!(c.insert(5), vec![1]);
    }

    /// A removed key that returns is the newest arrival, not its old self.
    #[test]
    fn reinserted_key_is_the_newest_arrival() {
        let mut c = CacheLevel::new(PolicyKind::Fifo, 3);
        c.insert(1u32);
        c.insert(2);
        c.remove(&1);
        c.insert(3);
        c.insert(1);
        assert_eq!(c.insert(4), vec![2]);
    }
}
