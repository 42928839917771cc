//! The bounded block pool against a plain model: a list of at most `cap`
//! keys, least recently used first, where an insert or a hit moves a key
//! to the back and an insert into a full list drops the front. Nothing is
//! pinned. Every lookup, length, byte count and hit/miss count of the pool
//! must match the model after every step of a random walk.

use viz_fetch::BlockPool;
use viz_geom::rng::{for_cases, SplitMix64};
use viz_volume::{BlockId, BlockKey};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

/// The unpinned LRU model: `(key, payload)` pairs, least recently used
/// first.
struct LruModel {
    order: Vec<(u32, Vec<f32>)>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl LruModel {
    fn position(&self, k: u32) -> Option<usize> {
        self.order.iter().position(|(key, _)| *key == k)
    }

    fn insert(&mut self, k: u32, payload: Vec<f32>) {
        match self.position(k) {
            Some(i) => {
                self.order.remove(i);
            }
            None if self.order.len() == self.cap => {
                self.order.remove(0);
            }
            None => {}
        }
        self.order.push((k, payload));
    }

    fn get(&mut self, k: u32) -> Option<Vec<f32>> {
        match self.position(k) {
            Some(i) => {
                self.hits += 1;
                let entry = self.order.remove(i);
                self.order.push(entry.clone());
                Some(entry.1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn bytes(&self) -> usize {
        self.order.iter().map(|(_, p)| p.len() * 4).sum()
    }
}

#[test]
fn the_pool_matches_an_unpinned_lru_model() {
    const FULL_CASES: usize = 4096;
    let stride = if cfg!(debug_assertions) { 16 } else { 1 };
    let mut evicting = 0usize;
    for_cases(0x9001_7e57, FULL_CASES / stride, |rng: &mut SplitMix64, _| {
        let cap = rng.index(1..12);
        let universe = 2 * cap as u32 + 2;
        let pool = BlockPool::with_capacity(cap);
        let mut m = LruModel { order: Vec::new(), cap, hits: 0, misses: 0 };
        let mut evicted = false;
        for step in 0..rng.index(0..160) {
            let k = rng.below(u64::from(universe)) as u32;
            match rng.below(3) {
                0 => {
                    let payload = vec![step as f32; rng.index(0..5)];
                    evicted |= m.position(k).is_none() && m.order.len() == cap;
                    pool.insert(key(k), payload.clone());
                    m.insert(k, payload);
                }
                1 => {
                    let got = pool.get(key(k)).map(|p| p.as_ref().clone());
                    assert_eq!(got, m.get(k), "step {step}: get({k})");
                }
                _ => {
                    assert_eq!(pool.contains(key(k)), m.position(k).is_some(), "step {step}");
                }
            }
            assert_eq!(pool.len(), m.order.len(), "step {step}: len");
            assert!(pool.len() <= cap, "step {step}: over the cap");
            assert_eq!(pool.bytes_resident(), m.bytes(), "step {step}: bytes");
            assert_eq!(pool.stats(), (m.hits, m.misses), "step {step}: stats");
        }
        // The walk ends with the model's resident set.
        for k in 0..universe {
            assert_eq!(pool.contains(key(k)), m.position(k).is_some(), "final contains({k})");
        }
        evicting += usize::from(evicted);
    });
    assert!(evicting > FULL_CASES / stride / 2, "most walks must evict: {evicting}");
}
