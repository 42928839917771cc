//! A single cache level: bounded set of resident keys in one replacement
//! order, with pin support for the paper's "only evict blocks whose last
//! use is older than the current step" rule.
//!
//! The order is a [`KeyOrder`] (an O(1) victim however many keys are
//! pinned); the policy decides only whether a hit refreshes a key's place
//! in it. A key pinned *before* it is resident waits here, in a small set,
//! until [`CacheLevel::insert`] pins it in the order.

use crate::order::{KeyOrder, KeySet};
use crate::policy::PolicyKind;
use std::hash::Hash;

/// Outcome of requesting a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Key was resident.
    Hit,
    /// Key was absent.
    Miss,
}

/// A bounded cache level. Capacity is counted in entries because the paper
/// partitions data into uniform-size blocks (§IV: "divided into a set of
/// uniform-size blocks"), making entry count ∝ bytes.
#[derive(Debug)]
pub struct CacheLevel<K> {
    order: KeyOrder<K>,
    kind: PolicyKind,
    capacity: usize,
    /// Keys pinned while absent; pinned in the order once inserted.
    pinned_absent: KeySet<K>,
}

impl<K: Copy + Eq + Hash> CacheLevel<K> {
    /// Create an empty level replacing by `kind`.
    pub fn new(kind: PolicyKind, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CacheLevel { order: KeyOrder::new(), kind, capacity, pinned_absent: KeySet::default() }
    }

    /// The replacement policy.
    pub(crate) fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.order.len() == 0
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Residency check without touching recency state.
    pub fn contains(&self, key: &K) -> bool {
        self.order.contains(key)
    }

    /// A hit refreshes `key`'s place in the order under LRU only. Returns
    /// whether `key` is resident.
    fn hit(&mut self, key: &K) -> bool {
        match self.kind {
            PolicyKind::Lru => self.order.touch(key),
            PolicyKind::Fifo => self.order.contains(key),
        }
    }

    /// Record an access: returns [`Lookup::Hit`] and updates recency when
    /// resident, [`Lookup::Miss`] otherwise (no insertion).
    pub fn access(&mut self, key: K) -> Lookup {
        if self.hit(&key) {
            Lookup::Hit
        } else {
            Lookup::Miss
        }
    }

    /// Insert a key (after a miss was serviced), evicting as needed.
    /// Returns the evicted keys (0 or 1 under normal operation).
    ///
    /// When every resident entry is pinned the insertion is still honoured
    /// and the level grows past capacity: nothing bounds it. Algorithm 1
    /// pins the current frame's working set, and a frame's visible set can
    /// outrun the fast tier — in `fig11` it does on most steps, and the
    /// fast tier peaks near twice its capacity. Bounding the level (a miss
    /// that finds every resident key pinned is served but not cached) is
    /// the ROADMAP's bounded-memory item.
    pub fn insert(&mut self, key: K) -> Vec<K> {
        if self.hit(&key) {
            return Vec::new();
        }
        // Everything pinned: the insert is honoured past capacity.
        let evicted = self.evict_to(self.capacity - 1);
        self.order.insert(key);
        if !self.pinned_absent.is_empty() && self.pinned_absent.remove(&key) {
            self.order.pin(&key);
        }
        evicted
    }

    /// Evict unpinned keys, each time the one the policy would replace
    /// next, until at most `len` are resident or every resident key is
    /// pinned. Returns the evicted keys in eviction order. This is how a
    /// level whose pins were released comes back within a bound without
    /// an insert.
    pub fn evict_to(&mut self, len: usize) -> Vec<K> {
        let mut evicted = Vec::new();
        while self.order.len() > len {
            match self.order.pop_victim() {
                Some(v) => evicted.push(v),
                None => break,
            }
        }
        evicted
    }

    /// Remove a key outright (invalidation).
    pub fn remove(&mut self, key: &K) {
        self.order.remove(key);
        self.pinned_absent.remove(key);
    }

    /// Protect a key from eviction until [`Self::unpin_all`] (or removal).
    /// An absent key is protected from the moment it is inserted.
    pub fn pin(&mut self, key: K) {
        if !self.order.pin(&key) {
            self.pinned_absent.insert(key);
        }
    }

    /// Release every pin.
    pub fn unpin_all(&mut self) {
        self.order.unpin_all();
        self.pinned_absent.clear();
    }

    /// Number of currently pinned keys, resident or not.
    pub fn pinned_len(&self) -> usize {
        self.order.pinned_len() + self.pinned_absent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru(cap: usize) -> CacheLevel<u32> {
        CacheLevel::new(PolicyKind::Lru, cap)
    }

    /// Fill a level of capacity `keys.len()` with `keys`, oldest first.
    fn filled(kind: PolicyKind, keys: &[u32]) -> CacheLevel<u32> {
        let mut c = CacheLevel::new(kind, keys.len());
        for &k in keys {
            c.insert(k);
        }
        c
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut c = lru(2);
        assert_eq!(c.access(1), Lookup::Miss);
        assert!(c.insert(1).is_empty());
        assert_eq!(c.access(1), Lookup::Hit);
    }

    #[test]
    fn eviction_at_capacity() {
        let mut c = lru(2);
        c.insert(1);
        c.insert(2);
        let ev = c.insert(3);
        assert_eq!(ev, vec![1]);
        assert_eq!(c.len(), 2);
        assert!(!c.contains(&1));
    }

    #[test]
    fn access_updates_recency() {
        let mut c = lru(2);
        c.insert(1);
        c.insert(2);
        c.access(1); // 2 becomes LRU
        assert_eq!(c.insert(3), vec![2]);
        assert!(c.contains(&1));
    }

    #[test]
    fn duplicate_insert_is_treated_as_hit() {
        let mut c = lru(2);
        c.insert(1);
        c.insert(2);
        assert!(c.insert(1).is_empty()); // refreshes 1
        assert_eq!(c.insert(3), vec![2]);
    }

    #[test]
    fn pinned_keys_survive_eviction() {
        let mut c = lru(2);
        c.insert(1);
        c.insert(2);
        c.pin(1);
        c.pin(2);
        // Everything pinned: overflow rather than evict.
        assert!(c.insert(3).is_empty());
        assert_eq!(c.len(), 3);
        c.unpin_all();
        // Next insert sheds entries back to capacity.
        let ev = c.insert(4);
        assert_eq!(ev.len(), 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn pin_protects_lru_victim() {
        let mut c = lru(2);
        c.insert(1);
        c.insert(2);
        c.pin(1); // 1 is LRU but pinned
        assert_eq!(c.insert(3), vec![2]);
        assert!(c.contains(&1));
        assert_eq!(c.pinned_len(), 1);
    }

    #[test]
    fn remove_clears_pin() {
        let mut c = lru(2);
        c.insert(1);
        c.pin(1);
        c.remove(&1);
        assert_eq!(c.pinned_len(), 0);
        assert!(!c.contains(&1));
    }

    #[test]
    fn pin_of_an_absent_key_takes_effect_on_insert() {
        let mut c = lru(2);
        c.pin(1);
        assert_eq!(c.pinned_len(), 1);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.pinned_len(), 1);
        // 1 is LRU but pinned since before it arrived.
        assert_eq!(c.insert(3), vec![2]);
        c.unpin_all();
        assert_eq!(c.pinned_len(), 0);
        assert_eq!(c.insert(4), vec![1]);
    }

    #[test]
    fn works_with_every_builtin_policy() {
        for kind in [PolicyKind::Fifo, PolicyKind::Lru] {
            let mut c: CacheLevel<u32> = CacheLevel::new(kind, 4);
            for k in 0..16 {
                c.access(k);
                c.insert(k);
            }
            assert!(c.len() <= 4, "{} overflowed", kind.label());
            // A re-access of the most recent key must hit.
            assert_eq!(c.access(15), Lookup::Hit, "{}", kind.label());
        }
    }

    #[test]
    fn evict_to_walks_past_pins_in_lru_order() {
        let mut c = filled(PolicyKind::Lru, &[1, 2, 3, 4]);
        c.access(1); // order (LRU→MRU): 2, 3, 4, 1
        c.pin(3);
        assert_eq!(c.evict_to(2), vec![2, 4]);
        assert_eq!(c.order.oldest_first(), vec![3, 1]);
        assert_eq!(c.evict_to(0), vec![1], "the pinned key stays");
        assert!(c.evict_to(0).is_empty());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evict_to_brings_an_overflowed_level_back_within_a_bound() {
        let mut c = lru(2);
        for k in [1, 2, 3] {
            c.pin(k);
            c.insert(k);
        }
        assert_eq!(c.len(), 3, "every key pinned: overflow");
        c.unpin_all();
        assert_eq!(c.evict_to(c.capacity()), vec![1]);
        assert!(c.evict_to(5).is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        lru(0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = filled(PolicyKind::Lru, &[1, 2, 3]);
        c.access(1); // order (LRU→MRU): 2, 3, 1
        assert_eq!(c.insert(4), vec![2]);
        assert_eq!(c.insert(5), vec![3]);
        assert_eq!(c.insert(6), vec![1]);
    }

    #[test]
    fn lru_order_reflects_hits() {
        let mut c = filled(PolicyKind::Lru, &[1, 2, 3, 4]);
        c.access(2);
        c.access(1);
        assert_eq!(c.order.oldest_first(), vec![3, 4, 2, 1]);
    }

    #[test]
    fn lru_pinned_tail_skips_to_next_lru() {
        let mut c = filled(PolicyKind::Lru, &[1, 2, 3]);
        c.pin(1); // LRU but pinned
        assert_eq!(c.insert(4), vec![2]);
        assert_eq!(c.order.oldest_first(), vec![1, 3, 4]);
    }

    #[test]
    fn lru_hit_while_pinned_counts_after_unpin() {
        let mut c = filled(PolicyKind::Lru, &[1, 2, 3]);
        c.pin(1);
        c.access(1); // order (LRU→MRU): 2, 3, 1
        c.unpin_all();
        assert_eq!(c.insert(4), vec![2]);
        assert_eq!(c.insert(5), vec![3]);
        assert_eq!(c.insert(6), vec![1]);
    }

    #[test]
    fn lru_access_of_an_absent_key_changes_nothing() {
        let mut c = filled(PolicyKind::Lru, &[1, 2]);
        assert_eq!(c.access(42), Lookup::Miss);
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(3), vec![1]);
    }

    #[test]
    fn lru_removing_head_and_tail_keeps_the_order_consistent() {
        let mut c = filled(PolicyKind::Lru, &[1, 2, 3]);
        c.remove(&3); // head (MRU)
        c.remove(&1); // tail (LRU)
        assert_eq!(c.order.oldest_first(), vec![2]);
        assert!(c.insert(4).is_empty());
        assert!(c.insert(5).is_empty());
        assert_eq!(c.insert(6), vec![2]);
    }

    #[test]
    fn lru_slab_reuses_freed_nodes() {
        let mut c = lru(100);
        for k in 0..500u32 {
            c.insert(k);
        }
        // 500 inserts through 100 entries: the slab never exceeds 100 nodes.
        assert_eq!(c.len(), 100);
        assert!(c.order.slots() <= 100);
    }

    #[test]
    fn fifo_evicts_in_arrival_order() {
        let mut c = filled(PolicyKind::Fifo, &[5, 1, 9, 2]);
        assert_eq!(c.insert(7), vec![5]);
        assert_eq!(c.insert(8), vec![1]);
    }

    #[test]
    fn fifo_hits_do_not_change_order() {
        let mut c = filled(PolicyKind::Fifo, &[1, 2]);
        assert_eq!(c.access(1), Lookup::Hit);
        assert_eq!(c.access(1), Lookup::Hit);
        assert!(c.insert(1).is_empty(), "a resident insert is a hit");
        assert_eq!(c.insert(3), vec![1]);
    }

    #[test]
    fn fifo_pinned_front_falls_back_to_second() {
        let mut c = filled(PolicyKind::Fifo, &[1, 2]);
        c.pin(1);
        assert_eq!(c.insert(3), vec![2]);
        assert!(c.contains(&1));
    }

    #[test]
    fn fifo_removed_key_is_never_a_victim() {
        let mut c = filled(PolicyKind::Fifo, &[1, 2]);
        c.remove(&1);
        assert!(c.insert(3).is_empty());
        assert_eq!(c.insert(4), vec![2]);
    }

    /// A pinned key skipped by a victim search keeps its age: once
    /// unpinned it is again the oldest arrival.
    #[test]
    fn fifo_pinned_key_keeps_its_age_through_a_victim_search() {
        let mut c = filled(PolicyKind::Fifo, &[1, 2, 3]);
        c.pin(1);
        assert_eq!(c.insert(4), vec![2]);
        c.unpin_all();
        assert_eq!(c.insert(5), vec![1]);
    }

    /// A removed key that returns is the newest arrival, not its old self.
    #[test]
    fn fifo_reinserted_key_is_the_newest_arrival() {
        let mut c = CacheLevel::new(PolicyKind::Fifo, 3);
        c.insert(1u32);
        c.insert(2);
        c.remove(&1);
        c.insert(3);
        c.insert(1);
        assert_eq!(c.insert(4), vec![2]);
    }
}
