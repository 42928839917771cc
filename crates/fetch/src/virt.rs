//! Deterministic-mode instrumentation: virtual clock, per-tier latency
//! injection, and a concurrency-checking source wrapper.
//!
//! The engine's scheduling behavior (priority order, coalescing,
//! cancellation) must be testable without real time. [`VirtualClock`] is a
//! logical tick counter; [`VirtualClockSource`] wraps any [`BlockSource`]
//! and advances the clock by a per-tier latency on every read while
//! logging `(key, start, end)` records. [`InstrumentedSource`] adds real
//! (wall-clock) latency injection plus detection of concurrent duplicate
//! reads — the invariant request coalescing must uphold.

use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use viz_volume::{BlockKey, BlockSource};

/// Monotonic logical clock measured in abstract ticks.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// A clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    /// Advance by `ticks`; returns the clock value after advancing.
    pub fn advance(&self, ticks: u64) -> u64 {
        self.now.fetch_add(ticks, Ordering::SeqCst) + ticks
    }
}

/// Storage tier of a block, for latency modeling (paper §III: the data
/// flows HDD → SSD → DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Already in host memory.
    Dram,
    /// On solid-state staging storage.
    Ssd,
    /// On the archival disk.
    Hdd,
}

/// Per-tier read latency in virtual ticks.
#[derive(Debug, Clone, Copy)]
pub struct TierLatency {
    /// Ticks per DRAM read.
    pub dram: u64,
    /// Ticks per SSD read.
    pub ssd: u64,
    /// Ticks per HDD read.
    pub hdd: u64,
}

impl TierLatency {
    /// Ticks for one read from `tier`.
    pub fn of(&self, tier: Tier) -> u64 {
        match tier {
            Tier::Dram => self.dram,
            Tier::Ssd => self.ssd,
            Tier::Hdd => self.hdd,
        }
    }
}

/// One logged read: the key and the virtual `[start, end)` interval the
/// read occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRecord {
    /// Which block was read.
    pub key: BlockKey,
    /// Clock tick when the read began.
    pub start: u64,
    /// Clock tick when the read completed (`start + latency`).
    pub end: u64,
}

type LatencyFn = dyn Fn(BlockKey) -> u64 + Send + Sync;

/// A [`BlockSource`] wrapper that charges per-read latency to a
/// [`VirtualClock`] and logs every read, making engine schedules
/// reproducible and assertable.
pub struct VirtualClockSource {
    inner: Arc<dyn BlockSource>,
    clock: Arc<VirtualClock>,
    latency: Box<LatencyFn>,
    log: Mutex<Vec<ReadRecord>>,
}

impl VirtualClockSource {
    /// Every read costs the same `ticks`.
    pub fn uniform(inner: Arc<dyn BlockSource>, clock: Arc<VirtualClock>, ticks: u64) -> Self {
        Self::with_latency(inner, clock, move |_| ticks)
    }

    /// Latency decided per key (tier assignment is the caller's model).
    pub(crate) fn with_latency(
        inner: Arc<dyn BlockSource>,
        clock: Arc<VirtualClock>,
        latency: impl Fn(BlockKey) -> u64 + Send + Sync + 'static,
    ) -> Self {
        VirtualClockSource { inner, clock, latency: Box::new(latency), log: Mutex::new(Vec::new()) }
    }

    /// Tiered latency: `tier_of` assigns each key to a [`Tier`], `lat`
    /// prices it.
    pub fn tiered(
        inner: Arc<dyn BlockSource>,
        clock: Arc<VirtualClock>,
        lat: TierLatency,
        tier_of: impl Fn(BlockKey) -> Tier + Send + Sync + 'static,
    ) -> Self {
        Self::with_latency(inner, clock, move |k| lat.of(tier_of(k)))
    }

    /// Keys in service order.
    pub fn read_order(&self) -> Vec<BlockKey> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner).iter().map(|r| r.key).collect()
    }

    /// Full `(key, start, end)` log.
    pub fn records(&self) -> Vec<ReadRecord> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Total reads issued to the inner source.
    pub fn reads(&self) -> usize {
        self.log.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

impl BlockSource for VirtualClockSource {
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>> {
        let ticks = (self.latency)(key);
        let end = self.clock.advance(ticks);
        self.log.lock().unwrap_or_else(PoisonError::into_inner).push(ReadRecord {
            key,
            start: end - ticks,
            end,
        });
        self.inner.read_block(key)
    }

    fn block_bytes(&self, key: BlockKey) -> io::Result<usize> {
        self.inner.block_bytes(key)
    }
}

/// A [`BlockSource`] wrapper for stress tests and benches: optional real
/// sleep per read (latency injection) plus read accounting, including the
/// number of *concurrent duplicate* reads of one key — which must be zero
/// if request coalescing works.
pub struct InstrumentedSource {
    inner: Arc<dyn BlockSource>,
    /// Injected per-read sleep, in nanoseconds (0 = none). Atomic so
    /// chaos scripts can slow a node mid-run without a rebuild.
    delay_nanos: AtomicU64,
    active: Mutex<HashSet<BlockKey>>,
    reads: AtomicU64,
    concurrent_dups: AtomicU64,
    max_concurrency: AtomicU64,
}

impl InstrumentedSource {
    /// Wrap `inner`, sleeping `delay` inside every read (pass
    /// `Duration::ZERO` to only count).
    pub fn new(inner: Arc<dyn BlockSource>, delay: Duration) -> Self {
        InstrumentedSource {
            inner,
            delay_nanos: AtomicU64::new(delay.as_nanos() as u64),
            active: Mutex::new(HashSet::new()),
            reads: AtomicU64::new(0),
            concurrent_dups: AtomicU64::new(0),
            max_concurrency: AtomicU64::new(0),
        }
    }

    /// Change the injected per-read delay (slow-node fault scripts;
    /// `Duration::ZERO` restores full speed). Applies to reads that
    /// start after the call.
    pub fn set_delay(&self, delay: Duration) {
        self.delay_nanos.store(delay.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total reads issued to the inner source.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Times a key was read while another read of the *same* key was in
    /// flight. Coalescing makes this 0.
    pub fn concurrent_dup_reads(&self) -> u64 {
        self.concurrent_dups.load(Ordering::Relaxed)
    }

    /// Peak number of simultaneously in-flight reads (observed
    /// parallelism of the worker pool).
    pub fn max_concurrency(&self) -> u64 {
        self.max_concurrency.load(Ordering::Relaxed)
    }
}

impl BlockSource for InstrumentedSource {
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        {
            let mut active = self.active.lock().unwrap_or_else(PoisonError::into_inner);
            if !active.insert(key) {
                self.concurrent_dups.fetch_add(1, Ordering::Relaxed);
            }
            self.max_concurrency.fetch_max(active.len() as u64, Ordering::Relaxed);
        }
        let delay = self.delay_nanos.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(Duration::from_nanos(delay));
        }
        let res = self.inner.read_block(key);
        self.active.lock().unwrap_or_else(PoisonError::into_inner).remove(&key);
        res
    }

    fn block_bytes(&self, key: BlockKey) -> io::Result<usize> {
        self.inner.block_bytes(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_volume::{BlockId, MemBlockStore};

    fn key(i: u32) -> BlockKey {
        BlockKey::scalar(BlockId(i))
    }

    #[test]
    fn clock_advances_and_reports() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(5), 5);
        assert_eq!(c.advance(3), 8);
        assert_eq!(c.now(), 8);
    }

    #[test]
    fn virtual_source_logs_reads_with_tier_latency() {
        let store = MemBlockStore::new();
        store.insert(key(0), vec![0.0]);
        store.insert(key(1), vec![1.0]);
        let clock = Arc::new(VirtualClock::new());
        let src = VirtualClockSource::tiered(
            Arc::new(store),
            clock.clone(),
            TierLatency { dram: 1, ssd: 20, hdd: 400 },
            |k| if k.block.0 == 0 { Tier::Hdd } else { Tier::Ssd },
        );
        src.read_block(key(0)).unwrap();
        src.read_block(key(1)).unwrap();
        assert_eq!(clock.now(), 420);
        let recs = src.records();
        assert_eq!(recs[0], ReadRecord { key: key(0), start: 0, end: 400 });
        assert_eq!(recs[1], ReadRecord { key: key(1), start: 400, end: 420 });
        assert_eq!(src.read_order(), vec![key(0), key(1)]);
    }

    #[test]
    fn instrumented_source_counts_reads_and_passthrough_errors() {
        let store = MemBlockStore::new();
        store.insert(key(0), vec![7.0]);
        let src = InstrumentedSource::new(Arc::new(store), Duration::ZERO);
        assert_eq!(src.read_block(key(0)).unwrap(), vec![7.0]);
        assert!(src.read_block(key(9)).is_err());
        assert_eq!(src.reads(), 2);
        assert_eq!(src.concurrent_dup_reads(), 0);
        assert_eq!(src.block_bytes(key(0)).unwrap(), 4);
    }
}
