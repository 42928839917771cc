//! Least-Recently-Used replacement (paper baseline, and the in-frame
//! eviction rule inside the paper's Algorithm 1).
//!
//! Implemented as an intrusive doubly-linked list over a slab of nodes:
//! O(1) insert / hit / unlink, O(k) victim search where k is the number of
//! pinned entries skipped (k = 0 for plain LRU use).

use crate::policy::ReplacementPolicy;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// Classic LRU list: most-recent at the head, victims taken from the tail.
#[derive(Debug)]
pub struct LruPolicy<K> {
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    index: HashMap<K, usize>,
    head: usize,
    tail: usize,
}

impl<K: Copy + Eq + Hash> LruPolicy<K> {
    /// Create an empty LRU policy.
    pub fn new() -> Self {
        LruPolicy {
            nodes: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[i].prev = NIL;
        self.nodes[i].next = NIL;
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn alloc(&mut self, key: K) -> usize {
        if let Some(i) = self.free.pop() {
            self.nodes[i] = Node { key, prev: NIL, next: NIL };
            i
        } else {
            self.nodes.push(Node { key, prev: NIL, next: NIL });
            self.nodes.len() - 1
        }
    }

    /// Keys from least- to most-recently used (tail to head). Test helper
    /// and debugging aid.
    pub fn lru_order(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.index.len());
        let mut i = self.tail;
        while i != NIL {
            out.push(self.nodes[i].key);
            i = self.nodes[i].prev;
        }
        out
    }
}

impl<K: Copy + Eq + Hash> Default for LruPolicy<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash + Send> ReplacementPolicy<K> for LruPolicy<K> {
    fn on_insert(&mut self, key: K) {
        debug_assert!(!self.index.contains_key(&key), "duplicate insert");
        let i = self.alloc(key);
        self.push_front(i);
        self.index.insert(key, i);
    }

    fn on_hit(&mut self, key: K) {
        if let Some(&i) = self.index.get(&key) {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn choose_victim(&mut self, is_evictable: &mut dyn FnMut(&K) -> bool) -> Option<K> {
        let mut i = self.tail;
        while i != NIL {
            let key = self.nodes[i].key;
            if is_evictable(&key) {
                self.unlink(i);
                self.index.remove(&key);
                self.free.push(i);
                return Some(key);
            }
            i = self.nodes[i].prev;
        }
        None
    }

    fn on_remove(&mut self, key: &K) {
        if let Some(i) = self.index.remove(key) {
            self.unlink(i);
            self.free.push(i);
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
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
        assert_eq!(p.choose_victim(&mut |_| true), Some(2));
        assert_eq!(p.choose_victim(&mut |_| true), Some(3));
        assert_eq!(p.choose_victim(&mut |_| true), Some(1));
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
        assert_eq!(p.choose_victim(&mut |k| *k != 1), Some(2));
        assert_eq!(p.lru_order(), vec![1, 3]);
    }

    #[test]
    fn slab_reuses_freed_nodes() {
        let mut p = LruPolicy::new();
        for round in 0..5 {
            for k in 0..100u32 {
                p.on_insert(k + round * 100);
            }
            while p.choose_victim(&mut |_| true).is_some() {}
        }
        // 5 rounds × 100 inserts but the slab never exceeds 100 nodes.
        assert!(p.nodes.len() <= 100);
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
        assert_eq!(p.choose_victim(&mut |_| true), Some(2));
        assert!(p.is_empty());
    }
}
