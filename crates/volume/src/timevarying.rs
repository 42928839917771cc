//! Time-varying dataset access with a bounded materialization cache.
//!
//! The climate dataset is time-varying (Table I); playback touches one or
//! two timesteps at a time while the rest stay procedural. `FieldCache`
//! memoizes materialized `(variable, timestep)` grids under an LRU bound so
//! examples and sessions can scrub through time without either re-running
//! the generator per frame or holding every timestep in memory.

use crate::datasets::DatasetSpec;
use crate::field::VolumeField;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Key of a materialized grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldKey {
    /// Variable index.
    pub var: usize,
    /// Timestep index.
    pub time: usize,
}

/// Bounded cache of materialized fields for one dataset.
pub struct FieldCache {
    spec: DatasetSpec,
    capacity: usize,
    inner: Mutex<Inner>,
}

struct Inner {
    fields: HashMap<FieldKey, (Arc<VolumeField>, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl FieldCache {
    /// Cache up to `capacity` materialized `(var, time)` grids of `spec`.
    pub fn new(spec: DatasetSpec, capacity: usize) -> Self {
        assert!(capacity > 0, "field cache needs a positive capacity");
        FieldCache {
            spec,
            capacity,
            inner: Mutex::new(Inner { fields: HashMap::new(), clock: 0, hits: 0, misses: 0 }),
        }
    }

    /// The dataset this cache materializes.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Fetch (materializing on miss) the grid of `var` at timestep `time`.
    /// `time` is mapped to the generator's normalized `t` by the dataset's
    /// timestep count.
    pub fn get(&self, var: usize, time: usize) -> Arc<VolumeField> {
        let key = FieldKey { var, time };
        let steps = self.spec.kind.num_timesteps();
        assert!(time < steps, "timestep {time} out of range (dataset has {steps})");

        // Fast path under the lock.
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.clock += 1;
            let clock = inner.clock;
            if let Some((field, stamp)) = inner.fields.get_mut(&key) {
                *stamp = clock;
                let out = Arc::clone(field);
                inner.hits += 1;
                return out;
            }
            inner.misses += 1;
        }

        // Materialize outside the lock (seconds of work).
        let t = if steps <= 1 { 0.0 } else { time as f64 / (steps - 1) as f64 };
        let field = Arc::new(self.spec.materialize(var, t));

        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.clock += 1;
        let clock = inner.clock;
        // Another thread may have raced us; keep whichever is present.
        let entry = inner.fields.entry(key).or_insert_with(|| (Arc::clone(&field), clock));
        let out = Arc::clone(&entry.0);
        // Evict LRU entries beyond capacity.
        while inner.fields.len() > self.capacity {
            if let Some((&victim, _)) = inner.fields.iter().min_by_key(|(_, (_, stamp))| *stamp) {
                inner.fields.remove(&victim);
            } else {
                break;
            }
        }
        out
    }

    /// Number of resident grids.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).fields.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        (inner.hits, inner.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;

    fn cache(cap: usize) -> FieldCache {
        // Tiny climate instance: multivariate and time-varying.
        FieldCache::new(DatasetSpec::new(DatasetKind::Climate, 16, 3), cap)
    }

    #[test]
    fn repeated_get_hits_cache() {
        let c = cache(4);
        let a = c.get(0, 0);
        let b = c.get(0, 0);
        assert!(Arc::ptr_eq(&a, &b), "second get must reuse the grid");
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn different_keys_materialize_separately() {
        let c = cache(4);
        let a = c.get(0, 0);
        let b = c.get(1, 0);
        let d = c.get(0, 1);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let c = cache(2);
        c.get(0, 0);
        c.get(1, 0);
        c.get(0, 0); // refresh (0,0)
        c.get(2, 0); // evicts (1,0)
        assert_eq!(c.len(), 2);
        let (h0, m0) = c.stats();
        c.get(0, 0); // still resident → hit
        let (h1, _) = c.stats();
        assert_eq!(h1, h0 + 1);
        c.get(1, 0); // evicted → miss
        let (_, m1) = c.stats();
        assert_eq!(m1, m0 + 1);
    }

    #[test]
    fn timesteps_map_to_distinct_data() {
        let c = cache(8);
        let t0 = c.get(1, 0); // wind at t=0
        let t1 = c.get(1, 7); // wind at the final timestep
        assert_ne!(t0.as_ref(), t1.as_ref(), "typhoon must move between timesteps");
    }

    #[test]
    fn concurrent_access_is_safe_and_coherent() {
        let c = Arc::new(cache(4));
        let mut handles = Vec::new();
        for i in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for j in 0..5 {
                    let f = c.get((i + j) % 3, 0);
                    assert!(f.dims.count() > 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 4);
    }

    #[test]
    #[should_panic]
    fn out_of_range_timestep_panics() {
        cache(2).get(0, 99);
    }
}
