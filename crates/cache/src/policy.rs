//! The replacement policies a [`CacheLevel`](crate::CacheLevel) can run.
//!
//! The paper compares its application-aware scheme against FIFO and LRU
//! (§V), and those are the two policies here; the offline Belady bound
//! lives in [`crate::belady`]. Both keep one order of the resident keys,
//! with pins, in [`crate::order`]; they differ only in whether a hit moves
//! the key to the head of that order (LRU) or not (FIFO).

/// Which built-in policy a cache level should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First-In First-Out (paper baseline).
    Fifo,
    /// Least Recently Used (paper baseline).
    Lru,
}

impl PolicyKind {
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
