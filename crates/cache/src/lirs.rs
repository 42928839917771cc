//! LIRS replacement (Jiang & Zhang, SIGMETRICS '02): Low Inter-reference
//! Recency Set. Distinguishes blocks by their *inter-reference recency*
//! (IRR — distinct blocks seen between consecutive accesses): low-IRR
//! blocks ("LIR") keep the bulk of the cache, high-IRR blocks ("HIR") pass
//! through a small probationary partition. Outperforms LRU on loops and
//! scans while matching it on recency-friendly workloads.
//!
//! Implementation follows the paper's two-structure design:
//!
//! - stack **S**: recency stack of LIR blocks + recently seen HIR blocks
//!   (resident or ghost), pruned so its bottom is always LIR;
//! - queue **Q**: FIFO of resident HIR blocks (the eviction source).

use crate::policy::ReplacementPolicy;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Low inter-reference recency: protected resident block.
    Lir,
    /// High IRR, resident (in Q).
    HirResident,
    /// High IRR, non-resident ghost (metadata only, in S).
    HirGhost,
}

/// LIRS policy sized for `capacity` resident entries.
#[derive(Debug)]
pub struct LirsPolicy<K> {
    /// Recency stack, most recent at the back. May contain ghosts.
    stack: VecDeque<K>,
    /// Resident HIR queue, eviction candidates at the front.
    queue: VecDeque<K>,
    /// State of every known key (resident or ghost).
    state: HashMap<K, State>,
    /// Target number of LIR blocks (`capacity - hir_target`).
    lir_target: usize,
    /// Cap on ghost metadata.
    ghost_cap: usize,
    /// Current LIR count.
    lir_count: usize,
}

impl<K: Copy + Eq + Hash> LirsPolicy<K> {
    /// Create with the classic split: 99% LIR / 1% HIR, at least one HIR
    /// slot; ghost metadata capped at `capacity`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LIRS needs a positive capacity");
        let hir_target = (capacity / 100).max(1).min(capacity);
        LirsPolicy {
            stack: VecDeque::new(),
            queue: VecDeque::new(),
            state: HashMap::new(),
            lir_target: capacity - hir_target,
            ghost_cap: capacity,
            lir_count: 0,
        }
    }

    fn stack_remove(&mut self, key: &K) {
        if let Some(pos) = self.stack.iter().rposition(|k| k == key) {
            self.stack.remove(pos);
        }
    }

    fn queue_remove(&mut self, key: &K) {
        if let Some(pos) = self.queue.iter().position(|k| k == key) {
            self.queue.remove(pos);
        }
    }

    /// Prune stack bottom until it is a LIR block (paper's stack pruning).
    fn prune(&mut self) {
        while let Some(bottom) = self.stack.front() {
            match self.state.get(bottom) {
                Some(State::Lir) => break,
                Some(State::HirResident) => {
                    let k = *bottom;
                    self.stack.pop_front();
                    // Stays resident in Q; loses stack presence.
                    let _ = k;
                }
                Some(State::HirGhost) => {
                    let k = *bottom;
                    self.stack.pop_front();
                    self.state.remove(&k);
                }
                None => {
                    self.stack.pop_front();
                }
            }
        }
    }

    /// Demote the LIR block at the stack bottom to resident-HIR.
    fn demote_bottom_lir(&mut self) {
        self.prune();
        if let Some(&bottom) = self.stack.front() {
            if self.state.get(&bottom) == Some(&State::Lir) {
                self.stack.pop_front();
                self.state.insert(bottom, State::HirResident);
                self.queue.push_back(bottom);
                self.lir_count -= 1;
                self.prune();
            }
        }
    }

    /// Bound ghost metadata by dropping the oldest ghosts from the stack.
    fn trim_ghosts(&mut self) {
        let mut ghosts = self.state.values().filter(|s| **s == State::HirGhost).count();
        if ghosts <= self.ghost_cap {
            return;
        }
        let mut i = 0;
        while ghosts > self.ghost_cap && i < self.stack.len() {
            let k = self.stack[i];
            if self.state.get(&k) == Some(&State::HirGhost) {
                self.stack.remove(i);
                self.state.remove(&k);
                ghosts -= 1;
            } else {
                i += 1;
            }
        }
        self.prune();
    }

    /// Resident count (diagnostic).
    pub fn lir_len(&self) -> usize {
        self.lir_count
    }

    /// Resident HIR count (diagnostic).
    pub fn hir_len(&self) -> usize {
        self.queue.len()
    }
}

impl<K: Copy + Eq + Hash + Send> ReplacementPolicy<K> for LirsPolicy<K> {
    fn on_insert(&mut self, key: K) {
        debug_assert!(
            !matches!(self.state.get(&key), Some(State::Lir | State::HirResident)),
            "duplicate insert"
        );
        let was_ghost = self.state.get(&key) == Some(&State::HirGhost);
        if was_ghost {
            // Ghost hit: IRR is low — promote to LIR, demote a bottom LIR.
            self.stack_remove(&key);
            self.state.insert(key, State::Lir);
            self.stack.push_back(key);
            self.lir_count += 1;
            if self.lir_count > self.lir_target {
                self.demote_bottom_lir();
            }
        } else if self.lir_count < self.lir_target {
            // Warm-up: fill the LIR partition first.
            self.state.insert(key, State::Lir);
            self.stack.push_back(key);
            self.lir_count += 1;
        } else {
            self.state.insert(key, State::HirResident);
            self.stack.push_back(key);
            self.queue.push_back(key);
        }
        self.trim_ghosts();
    }

    fn on_hit(&mut self, key: K) {
        match self.state.get(&key).copied() {
            Some(State::Lir) => {
                let was_bottom = self.stack.front() == Some(&key);
                self.stack_remove(&key);
                self.stack.push_back(key);
                if was_bottom {
                    self.prune();
                }
            }
            Some(State::HirResident) => {
                let in_stack = self.stack.iter().any(|k| *k == key);
                self.stack_remove(&key);
                self.stack.push_back(key);
                if in_stack {
                    // IRR low: promote to LIR.
                    self.queue_remove(&key);
                    self.state.insert(key, State::Lir);
                    self.lir_count += 1;
                    if self.lir_count > self.lir_target {
                        self.demote_bottom_lir();
                    }
                } else {
                    // Not in stack: stays HIR, refresh queue position.
                    self.queue_remove(&key);
                    self.queue.push_back(key);
                }
            }
            _ => {}
        }
    }

    fn choose_victim(&mut self, is_evictable: &mut dyn FnMut(&K) -> bool) -> Option<K> {
        // Evict from the HIR queue front; leave a ghost in the stack if the
        // block is still on it.
        if let Some(pos) = self.queue.iter().position(&mut *is_evictable) {
            let key = self.queue.remove(pos).unwrap();
            if self.stack.iter().any(|k| *k == key) {
                self.state.insert(key, State::HirGhost);
            } else {
                self.state.remove(&key);
            }
            self.trim_ghosts();
            return Some(key);
        }
        // Queue exhausted (or all pinned): demote+evict from LIR bottom up.
        let candidates: Vec<K> =
            self.stack.iter().filter(|k| self.state.get(k) == Some(&State::Lir)).copied().collect();
        for key in candidates {
            if is_evictable(&key) {
                self.stack_remove(&key);
                self.state.remove(&key);
                self.lir_count -= 1;
                self.prune();
                return Some(key);
            }
        }
        None
    }

    fn on_remove(&mut self, key: &K) {
        match self.state.get(key).copied() {
            Some(State::Lir) => {
                self.stack_remove(key);
                self.state.remove(key);
                self.lir_count -= 1;
                self.prune();
            }
            Some(State::HirResident) => {
                self.stack_remove(key);
                self.queue_remove(key);
                self.state.remove(key);
            }
            _ => {}
        }
    }

    fn len(&self) -> usize {
        self.lir_count + self.queue.len()
    }

    fn contains(&self, key: &K) -> bool {
        matches!(self.state.get(key), Some(State::Lir | State::HirResident))
    }

    fn name(&self) -> &'static str {
        "lirs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheLevel, Lookup};
    use crate::policy::conformance;

    #[test]
    fn conformance_lifecycle() {
        conformance::basic_lifecycle(Box::new(LirsPolicy::new(16)));
    }

    #[test]
    fn conformance_pinning() {
        conformance::respects_pinning(Box::new(LirsPolicy::new(16)));
    }

    #[test]
    fn conformance_removal() {
        conformance::external_removal(Box::new(LirsPolicy::new(16)));
    }

    #[test]
    fn warmup_fills_lir_partition_first() {
        let mut p = LirsPolicy::new(100); // lir_target = 99
        for k in 0..50u32 {
            p.on_insert(k);
        }
        assert_eq!(p.lir_len(), 50);
        assert_eq!(p.hir_len(), 0);
    }

    #[test]
    fn overflow_goes_to_hir_queue() {
        let mut p = LirsPolicy::new(100);
        for k in 0..100u32 {
            p.on_insert(k);
        }
        assert_eq!(p.lir_len(), 99);
        assert_eq!(p.hir_len(), 1);
    }

    #[test]
    fn victims_come_from_hir_first() {
        let mut p = LirsPolicy::new(100);
        for k in 0..100u32 {
            p.on_insert(k);
        }
        let v = p.choose_victim(&mut |_| true).unwrap();
        assert_eq!(v, 99, "the HIR newcomer goes first, not the LIR set");
        assert!(p.contains(&0), "old LIR block survives");
    }

    #[test]
    fn ghost_reinsert_promotes_to_lir() {
        let mut p = LirsPolicy::new(100);
        for k in 0..100u32 {
            p.on_insert(k);
        }
        let v = p.choose_victim(&mut |_| true).unwrap(); // 99 → ghost
        assert!(!p.contains(&v));
        let lir_before = p.lir_len();
        p.on_insert(v); // ghost hit
        assert!(p.contains(&v));
        // v is LIR now; a bottom LIR was demoted to keep the target.
        assert_eq!(p.lir_len(), lir_before.min(99));
    }

    #[test]
    fn loop_workload_beats_lru() {
        // Cyclic scan over capacity+1 distinct keys: LRU thrashes to 100%
        // miss; LIRS keeps its LIR set resident and hits on it.
        let cap = 64;
        let keys: Vec<u32> = (0..(cap as u32 + 8)).collect();
        let run = |policy: Box<dyn ReplacementPolicy<u32>>| -> usize {
            let mut c = CacheLevel::with_policy(policy, cap);
            let mut misses = 0;
            for _ in 0..15 {
                for &k in &keys {
                    if c.access(k) == Lookup::Miss {
                        misses += 1;
                        c.insert(k);
                    }
                }
            }
            misses
        };
        let lru = run(Box::<crate::lru::LruPolicy<_>>::default());
        let lirs = run(Box::new(LirsPolicy::new(cap)));
        assert_eq!(lru, 15 * keys.len(), "LRU must thrash on the loop");
        assert!(lirs < lru / 2, "LIRS should retain its LIR set: {lirs} vs {lru}");
    }

    #[test]
    fn ghost_metadata_is_bounded() {
        let mut p = LirsPolicy::new(32);
        for k in 0..10_000u32 {
            p.on_insert(k);
            if p.len() > 32 {
                p.choose_victim(&mut |_| true);
            }
        }
        let ghosts = p.state.values().filter(|s| **s == State::HirGhost).count();
        assert!(ghosts <= 32, "ghosts unbounded: {ghosts}");
        assert!(p.stack.len() <= 3 * 32, "stack unbounded: {}", p.stack.len());
    }

    #[test]
    fn len_matches_resident_states() {
        let mut p = LirsPolicy::new(16);
        for k in 0..40u32 {
            p.on_insert(k);
            while p.len() > 16 {
                p.choose_victim(&mut |_| true);
            }
            p.on_hit(k / 2);
        }
        let resident =
            p.state.values().filter(|s| matches!(s, State::Lir | State::HirResident)).count();
        assert_eq!(p.len(), resident);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        LirsPolicy::<u32>::new(0);
    }
}
