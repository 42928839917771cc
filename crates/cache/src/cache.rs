//! A single cache level: bounded set of resident keys governed by a
//! replacement policy, with pin support for the paper's "only evict blocks
//! whose last use is older than the current step" rule.
//!
//! A pin of a resident key goes to the policy, which takes the key out of
//! its victim order (O(1)); only a key pinned *before* it is resident waits
//! here, in a small set, until [`CacheLevel::insert`] hands its pin to the
//! policy. So an insert at capacity costs one victim read, however many
//! resident keys the current view step has pinned.

use crate::order::KeySet;
use crate::policy::{PolicyKind, ReplacementPolicy};
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
pub struct CacheLevel<K: Copy + Eq + Hash> {
    policy: Box<dyn ReplacementPolicy<K>>,
    capacity: usize,
    /// Keys pinned while absent; pinned in the policy once inserted.
    pinned_absent: KeySet<K>,
}

impl<K: Copy + Eq + Hash + Send + 'static> CacheLevel<K> {
    /// Create with a built-in policy.
    pub fn new(kind: PolicyKind, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CacheLevel { policy: kind.build(), capacity, pinned_absent: KeySet::default() }
    }
}

impl<K: Copy + Eq + Hash> CacheLevel<K> {
    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.policy.len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.policy.is_empty()
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Residency check without touching recency state.
    pub fn contains(&self, key: &K) -> bool {
        self.policy.contains(key)
    }

    /// Record an access: returns [`Lookup::Hit`] and updates recency when
    /// resident, [`Lookup::Miss`] otherwise (no insertion).
    pub fn access(&mut self, key: K) -> Lookup {
        if self.policy.on_hit(key) {
            Lookup::Hit
        } else {
            Lookup::Miss
        }
    }

    /// Insert a key (after a miss was serviced), evicting as needed.
    /// Returns the evicted keys (0 or 1 under normal operation).
    ///
    /// When every resident entry is pinned the insertion is still honoured —
    /// the cache temporarily exceeds capacity rather than dropping data the
    /// caller is about to use (Algorithm 1 pins at most the current
    /// frame's working set, which the experiments keep below capacity).
    pub fn insert(&mut self, key: K) -> Vec<K> {
        if self.policy.on_hit(key) {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.policy.len() >= self.capacity {
            match self.policy.choose_victim() {
                Some(v) => evicted.push(v),
                None => break, // everything pinned: allow overflow
            }
        }
        self.policy.on_insert(key);
        if !self.pinned_absent.is_empty() && self.pinned_absent.remove(&key) {
            self.policy.pin(&key);
        }
        evicted
    }

    /// Remove a key outright (invalidation).
    pub fn remove(&mut self, key: &K) {
        self.policy.on_remove(key);
        self.pinned_absent.remove(key);
    }

    /// Protect a key from eviction until [`Self::unpin_all`] (or removal).
    /// An absent key is protected from the moment it is inserted.
    pub fn pin(&mut self, key: K) {
        if !self.policy.pin(&key) {
            self.pinned_absent.insert(key);
        }
    }

    /// Release every pin.
    pub fn unpin_all(&mut self) {
        self.policy.unpin_all();
        self.pinned_absent.clear();
    }

    /// Number of currently pinned keys, resident or not.
    pub fn pinned_len(&self) -> usize {
        self.policy.pinned_len() + self.pinned_absent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru(cap: usize) -> CacheLevel<u32> {
        CacheLevel::new(PolicyKind::Lru, cap)
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
    #[should_panic]
    fn zero_capacity_panics() {
        lru(0);
    }
}
