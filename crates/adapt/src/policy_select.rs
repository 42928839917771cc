//! Per-cache policy selection by shadow scoring.
//!
//! The replacement zoo exists because no single policy wins every
//! interaction pattern: LRU collapses on loops one block larger than the
//! cache, LFU fossilizes after a phase change, MRU is the loop antidote
//! and nothing else. [`PolicySelector`] runs the candidates as shadow
//! caches over the live key trace ([`ShadowSet`]), closes a scoring
//! window every `window` accesses, and switches the real cache only when
//! one challenger beats the incumbent by a real margin, `patience`
//! windows in a row ([`Hysteresis`]) — a noisy window must never flush
//! residency state that took thousands of misses to build. The actuation
//! itself (e.g. [`viz_cache::Hierarchy::set_tier_policy`]) is left to the
//! caller, which knows which cache it is tuning.

use std::hash::Hash;
use viz_cache::{PolicyKind, ShadowSet};
use viz_core::Hysteresis;

/// Knobs for [`PolicySelector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySelectorConfig {
    /// Accesses per scoring window.
    pub window: u64,
    /// Windows a challenger must win consecutively before a switch.
    pub patience: u32,
    /// Minimum absolute hit-rate margin over the incumbent to count as a
    /// win (filters noise ties).
    pub min_gain: f64,
}

impl Default for PolicySelectorConfig {
    fn default() -> Self {
        PolicySelectorConfig { window: 512, patience: 3, min_gain: 0.02 }
    }
}

/// Shadow-scored, hysteresis-debounced policy chooser (see module docs).
pub struct PolicySelector<K: Copy + Eq + Hash> {
    shadows: ShadowSet<K>,
    kinds: Vec<PolicyKind>,
    hyst: Hysteresis,
    current: PolicyKind,
    cfg: PolicySelectorConfig,
    switches: u64,
}

impl<K: Copy + Eq + Hash + Ord + Send + 'static> PolicySelector<K> {
    /// Score `candidates` (must include `current`) at `capacity` entries.
    pub fn new(
        current: PolicyKind,
        candidates: &[PolicyKind],
        capacity: usize,
        cfg: PolicySelectorConfig,
    ) -> Self {
        assert!(cfg.window > 0, "scoring window must be positive");
        assert!(candidates.contains(&current), "the incumbent policy must be among the candidates");
        PolicySelector {
            shadows: ShadowSet::new(candidates, capacity),
            kinds: candidates.to_vec(),
            hyst: Hysteresis::new(cfg.patience),
            current,
            cfg,
            switches: 0,
        }
    }
}

impl<K: Copy + Eq + Hash> PolicySelector<K> {
    /// The policy currently selected.
    pub fn current(&self) -> PolicyKind {
        self.current
    }

    /// Switches taken so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Feed one access from the live trace. Returns `Some(kind)` exactly
    /// when the caller should switch the real cache to `kind` (the
    /// selector has already adopted it as the new incumbent).
    pub fn observe_access(&mut self, key: K) -> Option<PolicyKind> {
        self.shadows.observe(key);
        if self.shadows.window_accesses() < self.cfg.window {
            return None;
        }
        let scores = self.shadows.end_window();
        let incumbent =
            scores.iter().find(|s| s.kind == self.current).map(|s| s.hit_rate()).unwrap_or(0.0);
        // Best challenger strictly beating the incumbent by the margin.
        let winner = scores
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind != self.current)
            .filter(|(_, s)| s.hit_rate() >= incumbent + self.cfg.min_gain)
            .max_by(|(_, a), (_, b)| a.hit_rate().total_cmp(&b.hit_rate()))
            .map(|(i, _)| i);
        match self.hyst.observe(winner) {
            Some(arm) => {
                self.current = self.kinds[arm];
                self.switches += 1;
                Some(self.current)
            }
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selector(window: u64, patience: u32) -> PolicySelector<u32> {
        PolicySelector::new(
            PolicyKind::Lru,
            &[PolicyKind::Lru, PolicyKind::Mru, PolicyKind::Lirs],
            4,
            PolicySelectorConfig { window, patience, min_gain: 0.05 },
        )
    }

    /// Drive `n` laps of a 5-key loop over 4-entry caches: LRU hits 0%.
    fn drive_loop(sel: &mut PolicySelector<u32>, laps: usize) -> Vec<PolicyKind> {
        let mut switches = Vec::new();
        for _ in 0..laps {
            for k in 0..5u32 {
                if let Some(kind) = sel.observe_access(k) {
                    switches.push(kind);
                }
            }
        }
        switches
    }

    #[test]
    fn loop_pathology_switches_away_from_lru() {
        let mut sel = selector(50, 2);
        let switches = drive_loop(&mut sel, 100);
        assert!(!switches.is_empty(), "selector never escaped LRU on its worst case");
        assert_ne!(sel.current(), PolicyKind::Lru);
        // After the first decisive switch the incumbent should be stable:
        // no flapping back and forth.
        assert!(sel.switches() <= 2, "flapped {} times", sel.switches());
    }

    #[test]
    fn patience_delays_the_switch() {
        let mut impatient = selector(50, 1);
        let mut patient = selector(50, 4);
        // One lap short of what patience 4 needs (4 windows = 200 accesses
        // = 40 laps of 5).
        for _ in 0..30 {
            for k in 0..5u32 {
                impatient.observe_access(k);
                patient.observe_access(k);
            }
        }
        assert_ne!(impatient.current(), PolicyKind::Lru, "patience 1 switches fast");
        assert_eq!(patient.current(), PolicyKind::Lru, "patience 4 still watching");
    }

    #[test]
    fn friendly_workload_keeps_the_incumbent() {
        // Working set fits: every policy hits ~100%, no challenger can
        // clear the margin, so no switch ever fires.
        let mut sel = selector(40, 1);
        for _ in 0..100 {
            for k in 0..4u32 {
                assert_eq!(sel.observe_access(k), None);
            }
        }
        assert_eq!(sel.current(), PolicyKind::Lru);
        assert_eq!(sel.switches(), 0);
    }

    #[test]
    #[should_panic]
    fn incumbent_must_be_a_candidate() {
        let _ = PolicySelector::<u32>::new(
            PolicyKind::Arc,
            &[PolicyKind::Lru],
            4,
            PolicySelectorConfig::default(),
        );
    }
}
