//! The resident-block pool: the server's memory of fixed size.
//!
//! Algorithm 1 (PAPER.md §IV-D) fetches into a memory of fixed size, and
//! the pool is that memory behind the viewers' client tiers. It has the
//! client tier's shape: one payload map and one `viz_cache::CacheLevel`
//! under LRU, behind one poison-tolerant `Mutex`. The cap is a block count
//! ([`BlockPool::DEFAULT_CAPACITY`] unless built with
//! [`BlockPool::with_capacity`]); an insert of an absent key into a full
//! pool evicts the least recently used key inside the same lock, so
//! [`BlockPool::len`] never passes the cap. [`BlockPool::get`] touches its
//! key; [`BlockPool::contains`] and [`BlockPool::crc_of`] do not.
//!
//! The pool takes no pins. A reply holds its payload by `Arc`, so a key
//! evicted between its ticket resolving and its reply being built costs
//! only the cached checksum below, which the pool then refuses to lend.
//!
//! Beside each payload the pool keeps the CRC-32 of its little-endian
//! bytes ([`viz_volume::checksum::crc32_f32s`], 4 bytes a block), computed
//! once when the [`PoolEntry`] is made — before any lock is taken — so the
//! wire encoder can checksum a reply of resident blocks without reading
//! their bytes again ([`BlockPool::crc_of`]).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use viz_cache::{CacheLevel, KeyMap, PolicyKind};
use viz_volume::checksum::crc32_f32s;
use viz_volume::BlockKey;

/// A payload and the CRC-32 of its little-endian bytes. Only
/// [`PoolEntry::new`] makes one, so the two always agree; build it before
/// taking a lock, the checksum is a pass over the payload.
#[derive(Debug, Clone)]
pub(crate) struct PoolEntry {
    data: Arc<Vec<f32>>,
    crc: u32,
}

impl PoolEntry {
    /// Checksum `data` and pair the result with it.
    pub(crate) fn new(data: Arc<Vec<f32>>) -> Self {
        let crc = crc32_f32s(&data);
        PoolEntry { data, crc }
    }

    /// The payload.
    pub(crate) fn data(&self) -> &Arc<Vec<f32>> {
        &self.data
    }

    /// Payload bytes (the `f32`s only).
    fn bytes(&self) -> usize {
        self.data.len() * 4
    }
}

/// Everything the pool's lock guards.
#[derive(Debug)]
struct Resident {
    /// Keyed through the cache's multiplicative hasher, not SipHash: the
    /// engine stores a key only after its source read succeeds, so a
    /// client cannot fill the map with keys chosen to collide.
    entries: KeyMap<BlockKey, PoolEntry>,
    /// The resident keys, least recently used first.
    order: CacheLevel<BlockKey>,
    bytes: usize,
    hits: u64,
    misses: u64,
}

/// Shared pool of resident block payloads, at most its capacity of them,
/// replaced least recently used first (see the module docs).
#[derive(Debug)]
pub struct BlockPool {
    resident: Mutex<Resident>,
}

impl Default for BlockPool {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl BlockPool {
    /// Blocks a pool holds by default: 65,536, about 1 GiB of 16 KB
    /// blocks.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// An empty pool of [`Self::DEFAULT_CAPACITY`] blocks.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool of `blocks` blocks (at least one).
    pub fn with_capacity(blocks: usize) -> Self {
        let order = CacheLevel::new(PolicyKind::Lru, blocks.max(1));
        let resident = Resident { entries: KeyMap::default(), order, bytes: 0, hits: 0, misses: 0 };
        BlockPool { resident: Mutex::new(resident) }
    }

    /// Poison-tolerant: a panicking fetch worker must never make the
    /// resident set unreadable for the renderer. No update below can
    /// panic midway, so a poisoned guard still holds a consistent map and
    /// order.
    fn lock(&self) -> MutexGuard<'_, Resident> {
        self.resident.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a resident block, touching it and counting hit/miss
    /// statistics.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Vec<f32>>> {
        let mut r = self.lock();
        let got = r.entries.get(&key).map(|e| e.data.clone());
        if got.is_some() {
            r.order.access(key);
            r.hits += 1;
        } else {
            r.misses += 1;
        }
        got
    }

    /// Residency check without touching the key or the statistics.
    pub fn contains(&self, key: BlockKey) -> bool {
        self.lock().entries.contains_key(&key)
    }

    /// Insert a payload.
    pub fn insert(&self, key: BlockKey, data: Vec<f32>) {
        self.insert_entry(key, PoolEntry::new(Arc::new(data)));
    }

    /// Insert a payload whose checksum is already taken (the fetch engine
    /// makes the entry before it takes its state lock, and hands coalesced
    /// waiters the same `Arc` it parks here). A resident key is replaced
    /// and touched; an absent one first evicts the least recently used key
    /// if the pool is full.
    pub(crate) fn insert_entry(&self, key: BlockKey, entry: PoolEntry) {
        let mut r = self.lock();
        let Resident { entries, order, bytes, .. } = &mut *r;
        order.insert(key, |victim| {
            if let Some(old) = entries.remove(&victim) {
                *bytes -= old.bytes();
            }
        });
        *bytes += entry.bytes();
        if let Some(old) = entries.insert(key, entry) {
            *bytes -= old.bytes();
        }
    }

    /// The cached CRC-32 of `data`'s little-endian bytes — `Some` only if
    /// `data` is the very allocation the pool holds for `key` now, so a
    /// replaced or evicted entry never lends its checksum to other bytes.
    pub fn crc_of(&self, key: BlockKey, data: &Arc<Vec<f32>>) -> Option<u32> {
        self.lock().entries.get(&key).filter(|e| Arc::ptr_eq(&e.data, data)).map(|e| e.crc)
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// Resident payload bytes (f32 payloads only, not map overhead).
    pub fn bytes_resident(&self) -> usize {
        self.lock().bytes
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        let r = self.lock();
        (r.hits, r.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_volume::BlockId;

    fn key(i: u32) -> BlockKey {
        BlockKey::scalar(BlockId(i))
    }

    /// A key leaves the pool only by eviction: a one-block pool removes
    /// its key when another is inserted.
    #[test]
    fn get_insert_remove_and_stats() {
        let pool = BlockPool::with_capacity(1);
        assert!(pool.get(key(1)).is_none());
        pool.insert(key(1), vec![1.0, 2.0]);
        assert_eq!(pool.get(key(1)).unwrap().as_slice(), &[1.0, 2.0]);
        pool.insert(key(2), vec![3.0]);
        assert!(pool.get(key(1)).is_none());
        assert_eq!(pool.stats(), (1, 2));
    }

    #[test]
    fn byte_accounting_tracks_insert_replace_and_evict() {
        let pool = BlockPool::with_capacity(2);
        assert_eq!(pool.bytes_resident(), 0);
        pool.insert(key(0), vec![0.0; 10]); // 40 bytes
        pool.insert(key(1), vec![0.0; 5]); // 20 bytes
        assert_eq!(pool.bytes_resident(), 60);
        pool.insert(key(0), vec![0.0; 2]); // replace: 40 -> 8
        assert_eq!(pool.bytes_resident(), 28);
        pool.insert(key(2), vec![0.0; 3]); // evicts key 1: 20 -> 12
        assert_eq!(pool.bytes_resident(), 20);
        assert_eq!(pool.len(), 2);
        assert!(!pool.contains(key(1)));
    }

    #[test]
    fn get_touches_and_contains_does_not() {
        let pool = BlockPool::with_capacity(2);
        pool.insert(key(0), vec![0.0]);
        pool.insert(key(1), vec![1.0]);
        // `contains` leaves key 0 the least recently used: it goes first.
        assert!(pool.contains(key(0)));
        pool.insert(key(2), vec![2.0]);
        assert!(!pool.contains(key(0)) && pool.contains(key(1)));
        // `get` makes key 1 the most recent: key 2 goes instead.
        assert!(pool.get(key(1)).is_some());
        pool.insert(key(3), vec![3.0]);
        assert!(pool.contains(key(1)) && !pool.contains(key(2)));
    }

    #[test]
    fn crc_of_answers_only_for_the_allocation_the_pool_holds() {
        let pool = BlockPool::with_capacity(2);
        let payload = vec![1.5, -0.0, f32::NAN, 7.0, 9.25];
        pool.insert(key(1), payload.clone());
        let held = pool.get(key(1)).unwrap();
        assert_eq!(pool.crc_of(key(1), &held), Some(crc32_f32s(&payload)));
        // Equal contents in another allocation, or the right one under
        // another key, get nothing.
        assert_eq!(pool.crc_of(key(1), &Arc::new(payload.clone())), None);
        assert_eq!(pool.crc_of(key(2), &held), None);

        // Re-inserting the key retires the old allocation's checksum.
        pool.insert(key(1), vec![2.0; 5]);
        let newer = pool.get(key(1)).unwrap();
        assert_eq!(pool.crc_of(key(1), &held), None);
        assert_eq!(pool.crc_of(key(1), &newer), Some(crc32_f32s(&newer)));

        // So does evicting it.
        pool.insert(key(2), vec![]);
        pool.insert(key(3), vec![]);
        assert_eq!(pool.crc_of(key(1), &newer), None);
    }

    #[test]
    fn concurrent_readers_and_writers_smoke() {
        let pool = Arc::new(BlockPool::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..250u32 {
                        let k = key(t * 1000 + i);
                        pool.insert(k, vec![i as f32; 4]);
                        assert!(pool.contains(k));
                    }
                });
            }
        });
        assert_eq!(pool.len(), 1000);
        assert_eq!(pool.bytes_resident(), 1000 * 16);
    }
}
