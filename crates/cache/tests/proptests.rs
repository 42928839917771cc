//! Property-based tests for the cache substrate: a cache level under
//! every policy must evict exactly as a walk-past-pins model does under
//! arbitrary operation sequences, and the hierarchy must respect capacity
//! and inclusion.
//! 256 seeded cases per property (the differential test runs more); a
//! failure names the seed and case that replay it.

use std::collections::HashSet;
use viz_cache::{
    simulate_belady, AccessClass, CacheLevel, Hierarchy, Lookup, PolicyKind, TierCost,
};
use viz_geom::rng::{for_cases, SplitMix64};

const CASES: usize = 256;

fn all_policies() -> Vec<PolicyKind> {
    vec![PolicyKind::Fifo, PolicyKind::Lru]
}

/// Cache level never exceeds capacity (absent pinning) and never loses
/// the most recently inserted key.
#[test]
fn cache_level_respects_capacity() {
    for_cases(0xca02, CASES, |rng, _| {
        let keys = (0..rng.index(1..400)).map(|_| rng.index(0..64) as u32).collect::<Vec<_>>();
        let cap = rng.index(1..32);
        for kind in all_policies() {
            let mut c: CacheLevel<u32> = CacheLevel::new(kind, cap);
            for &k in &keys {
                if c.access(k) == Lookup::Miss {
                    c.insert(k, |_| {});
                }
                assert!(c.len() <= cap, "{} over capacity", kind.label());
                assert!(c.contains(&k), "{} dropped fresh insert", kind.label());
            }
        }
    });
}

/// Belady's MIN is a true lower bound for every online policy.
#[test]
fn belady_is_a_lower_bound() {
    for_cases(0xca03, CASES, |rng, _| {
        let trace = (0..rng.index(10..400)).map(|_| rng.index(0..32) as u32).collect::<Vec<_>>();
        let cap = rng.index(1..16);
        let opt = simulate_belady(&trace, cap);
        for kind in all_policies() {
            let mut c: CacheLevel<u32> = CacheLevel::new(kind, cap);
            let mut misses = 0usize;
            for &k in &trace {
                if c.access(k) == Lookup::Miss {
                    misses += 1;
                    c.insert(k, |_| {});
                }
            }
            assert!(opt.misses <= misses, "MIN {} > {} {}", opt.misses, kind.label(), misses);
        }
    });
}

/// Belady accounting is self-consistent.
#[test]
fn belady_accounting() {
    for_cases(0xca04, CASES, |rng, _| {
        let trace = (0..rng.index(0..300)).map(|_| rng.index(0..40) as u32).collect::<Vec<_>>();
        let cap = rng.index(1..20);
        let r = simulate_belady(&trace, cap);
        assert_eq!(r.hits + r.misses, r.accesses);
        assert_eq!(r.accesses, trace.len());
        // Compulsory misses: at least one per distinct key.
        let distinct = trace.iter().collect::<HashSet<_>>().len();
        assert!(r.misses >= distinct.min(trace.len()));
    });
}

/// Hierarchy: after any demand fetch the key is in the fastest tier,
/// and tiers never exceed their capacities.
#[test]
fn hierarchy_fetch_invariants() {
    for_cases(0xca05, CASES, |rng, _| {
        let keys = (0..rng.index(1..300)).map(|_| rng.index(0..128) as u32).collect::<Vec<_>>();
        let ratio_pct = rng.index(20..80) as u32;
        let ratio = ratio_pct as f64 / 100.0;
        let costs = [TierCost::dram(), TierCost::ssd(), TierCost::hdd()];
        let mut h: Hierarchy<u32> = Hierarchy::two_level(128, ratio, PolicyKind::Lru, 4096, costs);
        let cap0 = h.tier_capacity(0);
        for &k in &keys {
            h.fetch(k, AccessClass::Demand);
            assert!(h.in_fastest(&k));
            assert!(h.fastest_len() <= cap0);
        }
        let s = h.stats();
        assert_eq!(s.demand_accesses as usize, keys.len());
        assert!(s.miss_rate() <= 1.0);
    });
}

/// Prefetching then demanding the same key yields a demand hit and the
/// demand miss counter stays untouched by prefetch traffic.
#[test]
fn prefetch_isolation() {
    for_cases(0xca06, CASES, |rng, _| {
        let keys = (0..rng.index(1..60)).map(|_| rng.index(0..32) as u32).collect::<Vec<_>>();
        let costs = [TierCost::dram(), TierCost::ssd(), TierCost::hdd()];
        let mut h: Hierarchy<u32> = Hierarchy::two_level(256, 0.5, PolicyKind::Lru, 1024, costs);
        for &k in &keys {
            h.fetch(k, AccessClass::Prefetch);
        }
        assert_eq!(h.stats().demand_accesses, 0);
        for &k in &keys {
            let o = h.fetch(k, AccessClass::Demand);
            assert!(o.fast_hit, "prefetched key {k} missed");
        }
        assert_eq!(h.stats().demand_fast_misses, 0);
    });
}

/// Reference model of a pinned cache level: resident keys in a `Vec`,
/// oldest first, and pins in a set. The victim is found by walking from
/// the oldest end past pinned keys: the O(resident) search the policies'
/// unpinned list replaces. `recency` moves an accessed key to the newest
/// end (LRU); without it the order is plain arrival order (FIFO).
struct WalkModel {
    order: Vec<u32>,
    pinned: HashSet<u32>,
    capacity: usize,
    recency: bool,
}

impl WalkModel {
    fn touch(&mut self, key: u32) -> bool {
        let Some(at) = self.order.iter().position(|&k| k == key) else { return false };
        if self.recency {
            self.order.remove(at);
            self.order.push(key);
        }
        true
    }

    fn insert(&mut self, key: u32) -> Vec<u32> {
        if self.touch(key) {
            return Vec::new();
        }
        // Every resident key pinned: overflow.
        let evicted = self.evict_to(self.capacity - 1);
        self.order.push(key);
        evicted
    }

    /// Refresh or insert `key`, and pin it; never evicts.
    fn insert_pinned(&mut self, key: u32) -> bool {
        let absent = !self.touch(key);
        if absent {
            self.order.push(key);
        }
        self.pinned.insert(key);
        absent
    }

    /// Walk past pins from the oldest end, evicting, down to `len`.
    fn evict_to(&mut self, len: usize) -> Vec<u32> {
        let mut evicted = Vec::new();
        while self.order.len() > len {
            match self.order.iter().position(|k| !self.pinned.contains(k)) {
                Some(at) => evicted.push(self.order.remove(at)),
                None => break,
            }
        }
        evicted
    }

    fn remove(&mut self, key: u32) {
        self.order.retain(|&k| k != key);
        self.pinned.remove(&key);
    }
}

/// Run `op` with an eviction sink that checks each key it is handed
/// against the model's victims `want`, in order, as it arrives, and then
/// that none was left out.
fn victims(
    want: Vec<u32>,
    label: &str,
    step: usize,
    what: &str,
    op: impl FnOnce(&mut dyn FnMut(u32)),
) {
    let mut want = want.into_iter();
    let mut n = 0;
    op(&mut |k| {
        assert_eq!(Some(k), want.next(), "{label} step {step}: {what} victim {n}");
        n += 1;
    });
    assert_eq!(want.next(), None, "{label} step {step}: {what} evicted only {n}");
}

/// Seeded differential test of the pin-aware policies against
/// [`WalkModel`]: random insert, access, pin of a resident key, pin of an
/// absent key, `insert_pinned`, `evict_to`, `unpin_all` and remove, at
/// capacities 1-8, must evict the same keys in the same order (each
/// checked as the level's sink receives it) and leave the same contents
/// and pins.
/// Pins routinely outnumber the capacity, so the overflow path (every
/// resident key pinned, the insert honoured past capacity) is exercised
/// and counted. Debug builds run every 16th case; release runs all.
#[test]
fn pinned_cache_level_matches_the_walk_model() {
    const FULL_CASES: usize = 16_384;
    let stride = if cfg!(debug_assertions) { 16 } else { 1 };
    let mut overflowed = 0usize;
    for_cases(0xca07, FULL_CASES / stride, |rng, _| {
        let capacity = rng.index(1..9);
        let key_space = (3 * capacity + 2) as u32;
        let steps = rng.index(1..400);
        for (kind, recency) in [(PolicyKind::Lru, true), (PolicyKind::Fifo, false)] {
            let mut rng = SplitMix64::new(rng.next_u64());
            let mut c: CacheLevel<u32> = CacheLevel::new(kind, capacity);
            let mut m = WalkModel { order: Vec::new(), pinned: HashSet::new(), capacity, recency };
            let label = kind.label();
            for step in 0..steps {
                let key = rng.below(u64::from(key_space)) as u32;
                match rng.below(12) {
                    0..=2 => {
                        let want = m.insert(key);
                        victims(want, label, step, "insert", |sink| c.insert(key, sink));
                    }
                    3 | 4 => {
                        let hit = c.access(key) == Lookup::Hit;
                        assert_eq!(hit, m.touch(key), "{label} step {step}: access {key}");
                    }
                    5 | 6 => {
                        // A resident key when there is one.
                        let key = if m.order.is_empty() {
                            key
                        } else {
                            m.order[rng.index(0..m.order.len())]
                        };
                        c.pin(key);
                        m.pinned.insert(key);
                    }
                    7 => {
                        // An absent key when there is one.
                        let key = (key..key + key_space)
                            .map(|k| k % key_space)
                            .find(|k| !m.order.contains(k))
                            .unwrap_or(key);
                        c.pin(key);
                        m.pinned.insert(key);
                    }
                    8 => {
                        c.unpin_all();
                        m.pinned.clear();
                    }
                    9 => assert_eq!(
                        c.insert_pinned(key),
                        m.insert_pinned(key),
                        "{label} step {step}: insert_pinned {key}"
                    ),
                    10 => {
                        let len = rng.index(0..capacity + 1);
                        let want = m.evict_to(len);
                        victims(want, label, step, "evict_to", |sink| c.evict_to(len, sink));
                    }
                    _ => {
                        c.remove(&key);
                        m.remove(key);
                    }
                }
                assert_eq!(c.len(), m.order.len(), "{label} step {step}: len");
                assert_eq!(c.pinned_len(), m.pinned.len(), "{label} step {step}: pins");
                for k in 0..key_space {
                    assert_eq!(
                        c.contains(&k),
                        m.order.contains(&k),
                        "{label} step {step}: residency of {k}"
                    );
                }
                overflowed += usize::from(c.len() > capacity);
            }
        }
    });
    assert!(overflowed > 0, "no case filled the cache with pinned keys");
}
