//! 2Q replacement (Johnson & Shasha, VLDB '94): a scan-resistant LRU
//! variant predating ARC. New keys enter a small FIFO probation queue
//! (`A1in`); keys re-referenced after leaving probation are promoted to the
//! protected LRU main queue (`Am`). A ghost queue (`A1out`) remembers
//! recently demoted keys to detect the re-reference.
//!
//! Not evaluated in the paper; another adaptive baseline for the ablation
//! benches alongside ARC.

use crate::policy::ReplacementPolicy;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;

/// Which resident queue a key lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    A1in,
    Am,
}

/// 2Q policy sized for a cache of `capacity` entries.
#[derive(Debug)]
pub struct TwoQPolicy<K> {
    /// Probationary FIFO (most recent at the back).
    a1in: VecDeque<K>,
    /// Protected LRU (most recent at the back).
    am: VecDeque<K>,
    /// Ghosts of keys demoted from A1in (bounded FIFO).
    a1out: VecDeque<K>,
    a1out_set: HashSet<K>,
    /// Residence of every live key.
    index: HashMap<K, Residence>,
    /// Target size of A1in (`Kin`, classically capacity/4).
    kin: usize,
    /// Bound on the ghost queue (`Kout`, classically capacity/2).
    kout: usize,
}

impl<K: Copy + Eq + Hash> TwoQPolicy<K> {
    /// Create with the classic parameterization: `Kin = capacity/4`,
    /// `Kout = capacity/2`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "2Q needs a positive capacity");
        TwoQPolicy {
            a1in: VecDeque::new(),
            am: VecDeque::new(),
            a1out: VecDeque::new(),
            a1out_set: HashSet::new(),
            index: HashMap::new(),
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
        }
    }

    fn ghost_push(&mut self, key: K) {
        self.a1out.push_back(key);
        self.a1out_set.insert(key);
        while self.a1out.len() > self.kout {
            if let Some(old) = self.a1out.pop_front() {
                self.a1out_set.remove(&old);
            }
        }
    }

    fn remove_from_queue(queue: &mut VecDeque<K>, key: &K) {
        if let Some(pos) = queue.iter().position(|k| k == key) {
            queue.remove(pos);
        }
    }

    /// Number of probationary entries (diagnostics).
    pub fn a1in_len(&self) -> usize {
        self.a1in.len()
    }

    /// Number of protected entries (diagnostics).
    pub fn am_len(&self) -> usize {
        self.am.len()
    }
}

impl<K: Copy + Eq + Hash + Send> ReplacementPolicy<K> for TwoQPolicy<K> {
    fn on_insert(&mut self, key: K) {
        debug_assert!(!self.index.contains_key(&key), "duplicate insert");
        if self.a1out_set.contains(&key) {
            // Re-reference of a recently demoted key: hot, goes protected.
            self.a1out_set.remove(&key);
            Self::remove_from_queue(&mut self.a1out, &key);
            self.am.push_back(key);
            self.index.insert(key, Residence::Am);
        } else {
            self.a1in.push_back(key);
            self.index.insert(key, Residence::A1in);
        }
    }

    fn on_hit(&mut self, key: K) {
        match self.index.get(&key) {
            Some(Residence::Am) => {
                // LRU refresh within the protected queue.
                Self::remove_from_queue(&mut self.am, &key);
                self.am.push_back(key);
            }
            // 2Q deliberately does NOT promote on A1in hits (correlated
            // references stay probationary).
            Some(Residence::A1in) | None => {}
        }
    }

    fn choose_victim(&mut self, is_evictable: &mut dyn FnMut(&K) -> bool) -> Option<K> {
        // Prefer demoting from A1in when it exceeds its target; otherwise
        // evict the protected LRU.
        let prefer_a1 = self.a1in.len() > self.kin || self.am.is_empty();
        let take = |queue: &mut VecDeque<K>,
                    index: &mut HashMap<K, Residence>,
                    f: &mut dyn FnMut(&K) -> bool|
         -> Option<K> {
            let pos = queue.iter().position(&mut *f)?;
            let key = queue.remove(pos).unwrap();
            index.remove(&key);
            Some(key)
        };
        if prefer_a1 {
            take(&mut self.a1in, &mut self.index, is_evictable)
                .map(|v| {
                    self.ghost_push(v);
                    v
                })
                .or_else(|| take(&mut self.am, &mut self.index, is_evictable))
        } else {
            take(&mut self.am, &mut self.index, is_evictable).or_else(|| {
                take(&mut self.a1in, &mut self.index, is_evictable).map(|v| {
                    self.ghost_push(v);
                    v
                })
            })
        }
    }

    fn on_remove(&mut self, key: &K) {
        match self.index.remove(key) {
            Some(Residence::A1in) => Self::remove_from_queue(&mut self.a1in, key),
            Some(Residence::Am) => Self::remove_from_queue(&mut self.am, key),
            None => {}
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    fn name(&self) -> &'static str {
        "2q"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::conformance;

    #[test]
    fn conformance_lifecycle() {
        conformance::basic_lifecycle(Box::new(TwoQPolicy::new(16)));
    }

    #[test]
    fn conformance_pinning() {
        conformance::respects_pinning(Box::new(TwoQPolicy::new(16)));
    }

    #[test]
    fn conformance_removal() {
        conformance::external_removal(Box::new(TwoQPolicy::new(16)));
    }

    #[test]
    fn new_keys_start_probationary() {
        let mut p = TwoQPolicy::new(8);
        p.on_insert(1u32);
        assert_eq!(p.a1in_len(), 1);
        assert_eq!(p.am_len(), 0);
    }

    #[test]
    fn ghost_reinsert_promotes_to_protected() {
        let mut p = TwoQPolicy::new(8);
        p.on_insert(1u32);
        // Demote 1 into the ghost queue.
        let v = p.choose_victim(&mut |_| true).unwrap();
        assert_eq!(v, 1);
        // Re-insert: should land protected.
        p.on_insert(1);
        assert_eq!(p.am_len(), 1);
        assert_eq!(p.a1in_len(), 0);
    }

    #[test]
    fn a1in_hits_do_not_promote() {
        let mut p = TwoQPolicy::new(8);
        p.on_insert(1u32);
        p.on_hit(1);
        p.on_hit(1);
        assert_eq!(p.a1in_len(), 1, "correlated refs stay probationary");
    }

    /// Promote `k` into the protected queue: insert, demote it (pinning
    /// everything else), then re-insert so the ghost hit lands in Am.
    fn promote(p: &mut TwoQPolicy<u32>, k: u32) {
        p.on_insert(k);
        let v = p.choose_victim(&mut |x| *x == k).unwrap();
        assert_eq!(v, k);
        p.on_insert(k);
    }

    #[test]
    fn scan_does_not_flush_protected_queue() {
        let mut p = TwoQPolicy::new(8);
        // Build a protected working set {1, 2}.
        for k in [1u32, 2] {
            promote(&mut p, k);
        }
        assert_eq!(p.am_len(), 2);
        // One-shot scan through many cold keys.
        for k in 100..200u32 {
            p.on_insert(k);
            if p.len() > 8 {
                p.choose_victim(&mut |_| true);
            }
        }
        assert!(p.contains(&1) && p.contains(&2), "scan evicted the hot set");
    }

    #[test]
    fn ghost_queue_is_bounded() {
        let mut p = TwoQPolicy::new(8); // kout = 4
        for k in 0..100u32 {
            p.on_insert(k);
            p.choose_victim(&mut |_| true);
        }
        assert!(p.a1out.len() <= 4);
        assert_eq!(p.a1out.len(), p.a1out_set.len());
    }

    #[test]
    fn protected_eviction_is_lru() {
        let mut p = TwoQPolicy::new(4); // kin = 1
                                        // Promote 1 and 2 into Am.
        for k in [1u32, 2] {
            promote(&mut p, k);
        }
        p.on_hit(1); // 2 becomes protected-LRU
                     // Fill A1in to its target so eviction turns to Am.
        p.on_insert(50);
        let v = p.choose_victim(&mut |_| true).unwrap();
        assert_eq!(v, 2, "protected LRU should go first, got {v}");
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        TwoQPolicy::<u32>::new(0);
    }
}
