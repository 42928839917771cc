//! The replacement-policy abstraction.
//!
//! A policy tracks the set of resident keys of one cache level, which of
//! them are pinned, and answers "who should go?" when space is needed. The
//! paper compares its application-aware scheme against FIFO and LRU (§V),
//! and those are the two policies here; the offline Belady bound lives in
//! [`crate::belady`]. Pins live in the policy, not in a predicate the
//! caller passes, so a victim is one list-tail read however many resident
//! keys are pinned (see [`crate::lru`]).

use std::hash::Hash;

/// Replacement bookkeeping for one cache level.
///
/// The cache core calls `on_insert` / `on_hit` to report residency changes
/// and `choose_victim` to pick an eviction candidate. A pinned key is never
/// chosen: the paper's Algorithm 1 pins the blocks the current view step
/// uses, so it only evicts blocks whose last-use time is strictly older.
pub trait ReplacementPolicy<K: Copy + Eq + Hash>: Send {
    /// A new key became resident, unpinned. The key is guaranteed absent
    /// beforehand.
    fn on_insert(&mut self, key: K);

    /// Report an access of `key`, refreshing its place in the policy's
    /// order when resident. Returns whether `key` is resident.
    fn on_hit(&mut self, key: K) -> bool;

    /// Remove the policy's victim among the unpinned resident keys from
    /// its bookkeeping and return it. Returns `None` when every resident
    /// key is pinned.
    fn choose_victim(&mut self) -> Option<K>;

    /// A key was removed externally (invalidation); drop bookkeeping,
    /// including its pin.
    fn on_remove(&mut self, key: &K);

    /// Protect a resident key from `choose_victim` until `unpin_all` or
    /// its removal. Returns `false`, changing nothing, when `key` is not
    /// resident.
    fn pin(&mut self, key: &K) -> bool;

    /// Release every pin.
    fn unpin_all(&mut self);

    /// Number of pinned resident keys.
    fn pinned_len(&self) -> usize;

    /// Number of resident keys tracked.
    fn len(&self) -> usize;

    /// `true` when no keys are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the key is tracked as resident.
    fn contains(&self, key: &K) -> bool;
}

/// Which built-in policy a cache level should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First-In First-Out (paper baseline).
    Fifo,
    /// Least Recently Used (paper baseline).
    Lru,
}

impl PolicyKind {
    /// Instantiate the policy for keys of type `K`.
    pub fn build<K: Copy + Eq + Hash + Send + 'static>(self) -> Box<dyn ReplacementPolicy<K>> {
        match self {
            PolicyKind::Fifo => Box::new(crate::fifo::FifoPolicy::new()),
            PolicyKind::Lru => Box::new(crate::lru::LruPolicy::new()),
        }
    }

    /// Stable small numeric code, used for telemetry eviction attribution
    /// (the `arg` of `cache_evict` events). Codes 2-8 belonged to policies
    /// that were removed and are retired: never reuse or renumber.
    pub fn code(&self) -> u8 {
        match self {
            PolicyKind::Fifo => 0,
            PolicyKind::Lru => 1,
        }
    }

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Lru => "LRU",
        }
    }
}

#[cfg(test)]
mod kind_tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        // Locked-in values: telemetry traces persist across versions.
        assert_eq!(PolicyKind::Fifo.code(), 0);
        assert_eq!(PolicyKind::Lru.code(), 1);
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared behavioural checks every policy implementation must pass.
    use super::*;

    /// Insert `n` keys, verify tracking, evict them all.
    pub(crate) fn basic_lifecycle(mut p: Box<dyn ReplacementPolicy<u32>>) {
        assert!(p.is_empty());
        for k in 0..10u32 {
            p.on_insert(k);
        }
        assert_eq!(p.len(), 10);
        assert!(p.contains(&3));
        assert!(!p.contains(&99));

        let mut evicted = Vec::new();
        while let Some(v) = p.choose_victim() {
            assert!(!p.contains(&v), "victim must be removed from policy");
            evicted.push(v);
        }
        assert_eq!(evicted.len(), 10);
        assert!(p.is_empty());
        // No duplicates among victims.
        let mut sorted = evicted.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    /// choose_victim must skip pinned keys until they are unpinned.
    pub(crate) fn respects_pinning(mut p: Box<dyn ReplacementPolicy<u32>>) {
        for k in 0..5u32 {
            p.on_insert(k);
        }
        assert!(!p.pin(&9), "absent key pinned");
        // Only key 3 may be evicted.
        for k in [0, 1, 2, 4] {
            assert!(p.pin(&k));
        }
        assert_eq!(p.pinned_len(), 4);
        assert_eq!(p.choose_victim(), Some(3));
        // Nothing evictable -> None, and nothing is removed.
        assert_eq!(p.choose_victim(), None);
        assert_eq!(p.len(), 4);
        p.unpin_all();
        assert_eq!(p.pinned_len(), 0);
        assert_eq!(p.choose_victim(), Some(0));
    }

    /// on_remove drops bookkeeping so the key is never chosen later.
    pub(crate) fn external_removal(mut p: Box<dyn ReplacementPolicy<u32>>) {
        for k in 0..4u32 {
            p.on_insert(k);
        }
        p.on_remove(&2);
        assert_eq!(p.len(), 3);
        let mut victims = Vec::new();
        while let Some(v) = p.choose_victim() {
            victims.push(v);
        }
        assert!(!victims.contains(&2));
    }
}
