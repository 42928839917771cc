//! Sharded resident-block pool.
//!
//! The renderer reads blocks out of the pool while fetch workers insert
//! into it; a single `RwLock<HashMap>` would serialize both sides. The
//! pool therefore splits the key space over N lock shards by key hash
//! (N is a power of two, default 16).
//!
//! Eviction *policy* stays in `viz-cache`; the pool only stores what it is
//! given. It does, however, account resident payload bytes so callers can
//! enforce a byte cap (see [`BlockPool::bytes_resident`]).
//!
//! Beside each payload the pool keeps the CRC-32 of its little-endian
//! bytes ([`viz_volume::checksum::crc32_f32s`], 4 bytes a block), computed
//! once when the [`PoolEntry`] is made — before any lock is taken — so the
//! wire encoder can checksum a reply of resident blocks without reading
//! their bytes again ([`BlockPool::crc_of`]).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
}

type Map = HashMap<BlockKey, PoolEntry>;
type Shard = RwLock<Map>;

/// Poison-tolerant shard locks: a panicking fetch worker must never make
/// the resident set unreadable for the renderer.
fn rd(shard: &Shard) -> RwLockReadGuard<'_, Map> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

fn wr(shard: &Shard) -> RwLockWriteGuard<'_, Map> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

/// Shared pool of resident block payloads, sharded by key hash.
#[derive(Debug)]
pub struct BlockPool {
    shards: Box<[Shard]>,
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicUsize,
}

impl Default for BlockPool {
    fn default() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }
}

impl BlockPool {
    /// Default shard count: enough that a handful of render threads and
    /// fetch workers rarely collide, small enough to stay cache-friendly.
    pub(crate) const DEFAULT_SHARDS: usize = 16;

    /// Create an empty pool with 16 shards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty pool with `n` shards (rounded up to a power of two).
    pub(crate) fn with_shards(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        let shards: Vec<Shard> = (0..n).map(|_| RwLock::new(HashMap::new())).collect();
        BlockPool {
            shards: shards.into_boxed_slice(),
            mask: n - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicUsize::new(0),
        }
    }

    fn shard(&self, key: &BlockKey) -> &Shard {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Look up a resident block, counting hit/miss statistics.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Vec<f32>>> {
        let got = rd(self.shard(&key)).get(&key).map(|e| e.data.clone());
        match got {
            Some(b) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(b)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Residency check without statistics side effects.
    pub fn contains(&self, key: BlockKey) -> bool {
        rd(self.shard(&key)).contains_key(&key)
    }

    /// Insert a payload.
    pub fn insert(&self, key: BlockKey, data: Vec<f32>) {
        self.insert_arc(key, Arc::new(data));
    }

    /// Insert an already-shared payload, checksumming it first.
    pub(crate) fn insert_arc(&self, key: BlockKey, data: Arc<Vec<f32>>) {
        self.insert_entry(key, PoolEntry::new(data));
    }

    /// Insert a payload whose checksum is already taken (the fetch engine
    /// makes the entry before it takes its state lock, and hands coalesced
    /// waiters the same `Arc` it parks here).
    pub(crate) fn insert_entry(&self, key: BlockKey, entry: PoolEntry) {
        let added = entry.data.len() * 4;
        let old = wr(self.shard(&key)).insert(key, entry);
        if let Some(old) = old {
            self.bytes.fetch_sub(old.data.len() * 4, Ordering::Relaxed);
        }
        self.bytes.fetch_add(added, Ordering::Relaxed);
    }

    /// The cached CRC-32 of `data`'s little-endian bytes — `Some` only if
    /// `data` is the very allocation the pool holds for `key` now, so a
    /// replaced or removed entry never lends its checksum to other bytes.
    pub fn crc_of(&self, key: BlockKey, data: &Arc<Vec<f32>>) -> Option<u32> {
        rd(self.shard(&key)).get(&key).filter(|e| Arc::ptr_eq(&e.data, data)).map(|e| e.crc)
    }

    /// Drop a block (eviction decided by the cache layer).
    pub fn remove(&self, key: BlockKey) {
        if let Some(old) = wr(self.shard(&key)).remove(&key) {
            self.bytes.fetch_sub(old.data.len() * 4, Ordering::Relaxed);
        }
    }

    /// Drop every resident block (dataset/timestep switch).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut map = wr(shard);
            let freed: usize = map.values().map(|e| e.data.len() * 4).sum();
            map.clear();
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| rd(s).len()).sum()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| rd(s).is_empty())
    }

    /// Resident payload bytes (f32 payloads only, not map overhead). Lets
    /// callers enforce a capacity instead of growing without bound.
    pub fn bytes_resident(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of every resident key (for eviction scans). Taken shard by
    /// shard, so it is a consistent view per shard, not globally atomic.
    pub fn keys(&self) -> Vec<BlockKey> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            out.extend(rd(shard).keys().copied());
        }
        out
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Number of lock shards.
    #[cfg(test)]
    fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_volume::BlockId;

    fn key(i: u32) -> BlockKey {
        BlockKey::scalar(BlockId(i))
    }

    #[test]
    fn get_insert_remove_and_stats() {
        let pool = BlockPool::new();
        assert!(pool.get(key(1)).is_none());
        pool.insert(key(1), vec![1.0, 2.0]);
        assert_eq!(pool.get(key(1)).unwrap().as_slice(), &[1.0, 2.0]);
        pool.remove(key(1));
        assert!(pool.get(key(1)).is_none());
        assert_eq!(pool.stats(), (1, 2));
    }

    #[test]
    fn byte_accounting_tracks_insert_replace_remove_clear() {
        let pool = BlockPool::with_shards(4);
        assert_eq!(pool.bytes_resident(), 0);
        pool.insert(key(0), vec![0.0; 10]); // 40 bytes
        pool.insert(key(1), vec![0.0; 5]); // 20 bytes
        assert_eq!(pool.bytes_resident(), 60);
        pool.insert(key(0), vec![0.0; 2]); // replace: 40 -> 8
        assert_eq!(pool.bytes_resident(), 28);
        pool.remove(key(1));
        assert_eq!(pool.bytes_resident(), 8);
        pool.remove(key(1)); // double-remove is a no-op
        assert_eq!(pool.bytes_resident(), 8);
        pool.clear();
        assert_eq!(pool.bytes_resident(), 0);
        assert!(pool.is_empty());
    }

    #[test]
    fn crc_of_answers_only_for_the_allocation_the_pool_holds() {
        let pool = BlockPool::new();
        let payload = vec![1.5, -0.0, f32::NAN, 7.0, 9.25];
        pool.insert(key(1), payload.clone());
        let held = pool.get(key(1)).unwrap();
        assert_eq!(pool.crc_of(key(1), &held), Some(crc32_f32s(&payload)));
        // Equal contents in another allocation, or the right one under
        // another key, get nothing.
        assert_eq!(pool.crc_of(key(1), &Arc::new(payload.clone())), None);
        assert_eq!(pool.crc_of(key(2), &held), None);

        // Re-inserting the key retires the old allocation's checksum.
        let newer = Arc::new(vec![2.0; 5]);
        pool.insert_arc(key(1), newer.clone());
        assert_eq!(pool.crc_of(key(1), &held), None);
        assert_eq!(pool.crc_of(key(1), &newer), Some(crc32_f32s(&newer)));

        pool.remove(key(1));
        assert_eq!(pool.crc_of(key(1), &newer), None);
        pool.insert_arc(key(3), newer.clone());
        pool.clear();
        assert_eq!(pool.crc_of(key(3), &newer), None);
    }

    #[test]
    fn keys_and_len_span_all_shards() {
        let pool = BlockPool::with_shards(8);
        for i in 0..100 {
            pool.insert(key(i), vec![i as f32]);
        }
        assert_eq!(pool.len(), 100);
        let mut ks: Vec<u32> = pool.keys().iter().map(|k| k.block.0).collect();
        ks.sort_unstable();
        assert_eq!(ks, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(BlockPool::with_shards(0).num_shards(), 1);
        assert_eq!(BlockPool::with_shards(3).num_shards(), 4);
        assert_eq!(BlockPool::with_shards(16).num_shards(), 16);
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
