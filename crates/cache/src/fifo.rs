//! First-In First-Out replacement (paper baseline).

use crate::policy::ReplacementPolicy;
use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

/// Evicts in arrival order, ignoring accesses entirely.
#[derive(Debug, Default)]
pub struct FifoPolicy<K> {
    queue: VecDeque<K>,
    resident: HashSet<K>,
}

impl<K: Copy + Eq + Hash> FifoPolicy<K> {
    /// Create an empty FIFO policy.
    pub fn new() -> Self {
        FifoPolicy { queue: VecDeque::new(), resident: HashSet::new() }
    }
}

impl<K: Copy + Eq + Hash + Send> ReplacementPolicy<K> for FifoPolicy<K> {
    fn on_insert(&mut self, key: K) {
        debug_assert!(!self.resident.contains(&key), "duplicate insert");
        self.queue.push_back(key);
        self.resident.insert(key);
    }

    fn on_hit(&mut self, _key: K) {
        // FIFO is access-oblivious.
    }

    fn choose_victim(&mut self, is_evictable: &mut dyn FnMut(&K) -> bool) -> Option<K> {
        // Scan from the oldest entry; skipped (pinned or stale) entries are
        // rotated to preserve relative order cheaply.
        let mut scanned = 0;
        let limit = self.queue.len();
        while scanned < limit {
            let k = *self.queue.front()?;
            if !self.resident.contains(&k) {
                // Stale entry from an external removal.
                self.queue.pop_front();
                continue;
            }
            if is_evictable(&k) {
                self.queue.pop_front();
                self.resident.remove(&k);
                return Some(k);
            }
            // Pinned: rotate to the back, remember we have seen it.
            self.queue.rotate_left(1);
            scanned += 1;
        }
        None
    }

    fn on_remove(&mut self, key: &K) {
        // Lazy removal: drop from the resident set; the queue entry is
        // skipped when it surfaces.
        self.resident.remove(key);
    }

    fn len(&self) -> usize {
        self.resident.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.resident.contains(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::conformance;

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
        assert_eq!(p.choose_victim(&mut |_| true), Some(5));
        assert_eq!(p.choose_victim(&mut |_| true), Some(1));
    }

    #[test]
    fn hits_do_not_change_order() {
        let mut p = FifoPolicy::new();
        p.on_insert(1u32);
        p.on_insert(2);
        p.on_hit(1);
        p.on_hit(1);
        assert_eq!(p.choose_victim(&mut |_| true), Some(1));
    }

    #[test]
    fn pinned_front_falls_back_to_second() {
        let mut p = FifoPolicy::new();
        p.on_insert(1u32);
        p.on_insert(2);
        assert_eq!(p.choose_victim(&mut |k| *k != 1), Some(2));
        assert!(p.contains(&1));
    }

    #[test]
    fn stale_entries_are_skipped_after_removal() {
        let mut p = FifoPolicy::new();
        p.on_insert(1u32);
        p.on_insert(2);
        p.on_remove(&1);
        assert_eq!(p.choose_victim(&mut |_| true), Some(2));
        assert_eq!(p.choose_victim(&mut |_| true), None);
    }
}
