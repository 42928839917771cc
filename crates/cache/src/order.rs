//! The replacement order of one [`CacheLevel`](crate::CacheLevel):
//! resident keys in one order, with pins.
//!
//! A slab of nodes carries two intrusive doubly-linked lists: the *order*
//! list of every resident key (newest at the head), and the *unpinned*
//! list of the resident keys not pinned, in the same relative order. The
//! victim is the unpinned list's tail, so it is found in O(1) however
//! many keys are pinned. A pin unlinks the node from the unpinned list;
//! [`KeyOrder::unpin_all`] relinks every pinned node in one head-to-tail
//! walk of the order list that stops at the last pinned node.
//!
//! Under LRU the level moves a node to the head of both lists on a hit
//! ([`KeyOrder::touch`]); under FIFO it never does, so the order is
//! arrival order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplicative hasher for the cache's key maps. Cache keys are small
/// integers (dense block ids), which SipHash's flooding resistance buys
/// nothing for: one rotate, xor and multiply per written word spreads
/// consecutive ids over the buckets, since the low bits of `x * K` for
/// odd `K` are a bijection of the low bits of `x`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHasher(u64);

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `HashMap` keyed through [`MulHasher`]: what the cache's own maps use,
/// and what a caller keyed by block ids can use beside a `CacheLevel`.
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;
/// `HashSet` keyed through [`MulHasher`].
pub(crate) type KeySet<K> = HashSet<K, BuildHasherDefault<MulHasher>>;

const NIL: usize = usize::MAX;
/// Every resident key, newest at the head.
const ORDER: usize = 0;
/// The unpinned resident keys, in the order list's relative order.
const UNPINNED: usize = 1;

#[derive(Debug, Clone, Copy)]
struct Link {
    prev: usize,
    next: usize,
}

const UNLINKED: Link = Link { prev: NIL, next: NIL };

#[derive(Debug)]
struct Node<K> {
    key: K,
    links: [Link; 2],
    pinned: bool,
}

/// Resident keys in one order, with pins; see the module docs.
#[derive(Debug)]
pub(crate) struct KeyOrder<K> {
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    index: KeyMap<K, usize>,
    /// Per list: `prev` is its tail, `next` its head.
    ends: [Link; 2],
    pinned: usize,
}

impl<K: Copy + Eq + Hash> KeyOrder<K> {
    pub(crate) fn new() -> Self {
        KeyOrder {
            nodes: Vec::new(),
            free: Vec::new(),
            index: KeyMap::default(),
            ends: [UNLINKED; 2],
            pinned: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    pub(crate) fn pinned_len(&self) -> usize {
        self.pinned
    }

    /// Link node `i` into list `l` right after `after` (`NIL`: at the head).
    fn link_after(&mut self, l: usize, after: usize, i: usize) {
        let next = if after == NIL { self.ends[l].next } else { self.nodes[after].links[l].next };
        self.nodes[i].links[l] = Link { prev: after, next };
        if after == NIL {
            self.ends[l].next = i;
        } else {
            self.nodes[after].links[l].next = i;
        }
        if next == NIL {
            self.ends[l].prev = i;
        } else {
            self.nodes[next].links[l].prev = i;
        }
    }

    fn unlink(&mut self, l: usize, i: usize) {
        let Link { prev, next } = self.nodes[i].links[l];
        if prev == NIL {
            self.ends[l].next = next;
        } else {
            self.nodes[prev].links[l].next = next;
        }
        if next == NIL {
            self.ends[l].prev = prev;
        } else {
            self.nodes[next].links[l].prev = prev;
        }
        self.nodes[i].links[l] = UNLINKED;
    }

    /// Unlink node `i` from both lists and return its slot to the slab.
    fn release(&mut self, i: usize) {
        self.unlink(ORDER, i);
        if self.nodes[i].pinned {
            self.pinned -= 1;
        } else {
            self.unlink(UNPINNED, i);
        }
        self.free.push(i);
    }

    /// Add an absent key, unpinned, at the head.
    pub(crate) fn insert(&mut self, key: K) {
        debug_assert!(!self.index.contains_key(&key), "duplicate insert");
        let node = Node { key, links: [UNLINKED; 2], pinned: false };
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.link_after(ORDER, NIL, i);
        self.link_after(UNPINNED, NIL, i);
        self.index.insert(key, i);
    }

    /// Move a resident key to the head of each list it is on. Returns
    /// whether the key is resident.
    pub(crate) fn touch(&mut self, key: &K) -> bool {
        let Some(&i) = self.index.get(key) else { return false };
        self.unlink(ORDER, i);
        self.link_after(ORDER, NIL, i);
        if !self.nodes[i].pinned {
            self.unlink(UNPINNED, i);
            self.link_after(UNPINNED, NIL, i);
        }
        true
    }

    /// Remove and return the oldest unpinned key; `None` when every
    /// resident key is pinned.
    pub(crate) fn pop_victim(&mut self) -> Option<K> {
        let i = self.ends[UNPINNED].prev;
        if i == NIL {
            return None;
        }
        let key = self.nodes[i].key;
        self.index.remove(&key);
        self.release(i);
        Some(key)
    }

    pub(crate) fn remove(&mut self, key: &K) {
        if let Some(i) = self.index.remove(key) {
            self.release(i);
        }
    }

    /// Pin a resident key. Returns `false`, changing nothing, when the key
    /// is absent.
    pub(crate) fn pin(&mut self, key: &K) -> bool {
        let Some(&i) = self.index.get(key) else { return false };
        if !self.nodes[i].pinned {
            self.nodes[i].pinned = true;
            self.unlink(UNPINNED, i);
            self.pinned += 1;
        }
        true
    }

    /// Relink every pinned node into the unpinned list at its place in
    /// the order list: one walk from the head, which stops after the last
    /// pinned node.
    pub(crate) fn unpin_all(&mut self) {
        // The nearest node before the walk's position that is on the
        // unpinned list: a relinked node goes right after it.
        let mut after = NIL;
        let mut i = self.ends[ORDER].next;
        while self.pinned > 0 {
            if self.nodes[i].pinned {
                self.nodes[i].pinned = false;
                self.link_after(UNPINNED, after, i);
                self.pinned -= 1;
            }
            after = i;
            i = self.nodes[i].links[ORDER].next;
        }
    }

    /// Keys from the order list's tail (oldest) to its head.
    #[cfg(test)]
    pub(crate) fn oldest_first(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.index.len());
        let mut i = self.ends[ORDER].prev;
        while i != NIL {
            out.push(self.nodes[i].key);
            i = self.nodes[i].links[ORDER].prev;
        }
        out
    }

    /// Slab slots allocated (live plus free).
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unpinned keys from the unpinned list's tail to its head.
    fn unpinned_oldest_first(o: &KeyOrder<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        let mut i = o.ends[UNPINNED].prev;
        while i != NIL {
            out.push(o.nodes[i].key);
            i = o.nodes[i].links[UNPINNED].prev;
        }
        out
    }

    #[test]
    fn unpin_all_restores_the_order_among_all_keys() {
        let mut o = KeyOrder::new();
        for k in 1..=6u32 {
            o.insert(k);
        }
        for k in [1, 4, 6] {
            assert!(o.pin(&k));
        }
        assert!(!o.pin(&9), "absent key pinned");
        assert_eq!(unpinned_oldest_first(&o), vec![2, 3, 5]);
        o.touch(&1); // pinned: moves in the order list only
        o.touch(&2);
        assert_eq!(o.oldest_first(), vec![3, 4, 5, 6, 1, 2]);
        assert_eq!(unpinned_oldest_first(&o), vec![3, 5, 2]);
        o.unpin_all();
        assert_eq!(o.pinned_len(), 0);
        assert_eq!(unpinned_oldest_first(&o), o.oldest_first());
    }

    #[test]
    fn pinned_removal_and_victims_keep_both_lists_consistent() {
        let mut o = KeyOrder::new();
        for k in 1..=4u32 {
            o.insert(k);
        }
        o.pin(&1);
        o.pin(&2);
        o.remove(&1);
        assert_eq!(o.pinned_len(), 1);
        assert_eq!(o.pop_victim(), Some(3));
        assert_eq!(o.pop_victim(), Some(4));
        assert_eq!(o.pop_victim(), None, "only the pinned key is left");
        o.unpin_all();
        assert_eq!(o.pop_victim(), Some(2));
        assert_eq!(o.len(), 0);
        assert_eq!(o.slots(), 4);
    }

    #[test]
    fn mul_hasher_separates_dense_ids() {
        let hash = |k: u32| {
            let mut h = MulHasher::default();
            k.hash(&mut h);
            h.finish()
        };
        // The low bits index the buckets: 1024 consecutive ids fill 1024
        // distinct low-10-bit slots.
        let mut low: Vec<u64> = (0..1024).map(|k| hash(k) & 1023).collect();
        low.sort_unstable();
        low.dedup();
        assert_eq!(low.len(), 1024);
    }
}
