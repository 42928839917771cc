//! Sample source over a *partially resident* bricked volume: the renderer
//! used by the out-of-core examples, where only cached blocks have data.
//!
//! Production out-of-core renderers pad each brick with a one-voxel ghost
//! layer so trilinear filtering never crosses into a non-resident brick;
//! here we keep bricks unpadded and clamp boundary lookups into the brick
//! that owns the sample, which introduces a seam at most one voxel wide —
//! irrelevant to cache behaviour, which is what the examples demonstrate.

use crate::raycast::SampleSource;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use viz_volume::{BlockId, BrickLayout};

/// Resolve a block id to its (resident) payload, or `None` when the block
/// is not loaded. Implemented by whatever cache the example drives.
pub trait BlockLookup: Sync {
    /// The payload of `id` in block-local x-fastest order, if resident.
    fn lookup(&self, id: BlockId) -> Option<Arc<Vec<f32>>>;
}

impl<F> BlockLookup for F
where
    F: Fn(BlockId) -> Option<Arc<Vec<f32>>> + Sync,
{
    fn lookup(&self, id: BlockId) -> Option<Arc<Vec<f32>>> {
        self(id)
    }
}

/// A [`BlockLookup`] decorator counting lookups and misses, so a renderer
/// can tell after the fact whether a frame was *degraded* — drawn while
/// some of its blocks were not resident (e.g. their demand reads missed
/// the frame deadline).
pub struct CountingLookup<L> {
    inner: L,
    lookups: AtomicU64,
    misses: AtomicU64,
}

impl<L: BlockLookup> CountingLookup<L> {
    /// Wrap a lookup.
    pub fn new(inner: L) -> Self {
        CountingLookup { inner, lookups: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }

    /// `(lookups, misses)` since construction or the last [`Self::reset`].
    pub fn counts(&self) -> (u64, u64) {
        (self.lookups.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// `true` when any lookup since the last reset failed — the rendered
    /// output is missing data.
    pub fn degraded(&self) -> bool {
        self.misses.load(Ordering::Relaxed) > 0
    }

    /// Zero the counters (call between frames).
    pub fn reset(&self) {
        self.lookups.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// The wrapped lookup.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: BlockLookup> BlockLookup for CountingLookup<L> {
    fn lookup(&self, id: BlockId) -> Option<Arc<Vec<f32>>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let got = self.inner.lookup(id);
        if got.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }
}

/// A [`SampleSource`] reading through a [`BlockLookup`].
pub struct BrickedSource<'a, L: BlockLookup> {
    layout: &'a BrickLayout,
    blocks: &'a L,
}

impl<'a, L: BlockLookup> BrickedSource<'a, L> {
    /// Create over a layout and a block resolver.
    pub fn new(layout: &'a BrickLayout, blocks: &'a L) -> Self {
        BrickedSource { layout, blocks }
    }

    /// Raw voxel fetch clamped into block `home` when `(x, y, z)` falls in a
    /// non-resident neighbour.
    fn voxel(&self, home: BlockId, home_data: &[f32], x: usize, y: usize, z: usize) -> f32 {
        let owner = self.layout.block_of_voxel(x, y, z);
        let (s, _e) = self.layout.voxel_range(owner);
        if owner == home {
            let dims = self.layout.block_dims(home);
            let (lx, ly, lz) = (x - s.nx, y - s.ny, z - s.nz);
            return home_data[dims.index(lx, ly, lz)];
        }
        if let Some(data) = self.blocks.lookup(owner) {
            let dims = self.layout.block_dims(owner);
            let (lx, ly, lz) = (x - s.nx, y - s.ny, z - s.nz);
            return data[dims.index(lx, ly, lz)];
        }
        // Neighbour not resident: clamp into the home block (seam ≤ 1 voxel).
        let (hs, he) = self.layout.voxel_range(home);
        let cx = x.clamp(hs.nx, he.nx - 1);
        let cy = y.clamp(hs.ny, he.ny - 1);
        let cz = z.clamp(hs.nz, he.nz - 1);
        let dims = self.layout.block_dims(home);
        home_data[dims.index(cx - hs.nx, cy - hs.ny, cz - hs.nz)]
    }
}

impl<L: BlockLookup> SampleSource for BrickedSource<'_, L> {
    fn sample(&self, x: f64, y: f64, z: f64) -> Option<f32> {
        let dims = self.layout.volume;
        let cx = (x - 0.5).clamp(0.0, (dims.nx - 1) as f64);
        let cy = (y - 0.5).clamp(0.0, (dims.ny - 1) as f64);
        let cz = (z - 0.5).clamp(0.0, (dims.nz - 1) as f64);
        let (x0, y0, z0) = (cx.floor() as usize, cy.floor() as usize, cz.floor() as usize);

        // The block owning the base corner decides residency for the whole
        // sample.
        let home = self.layout.block_of_voxel(x0, y0, z0);
        let home_data = self.blocks.lookup(home)?;

        let x1 = (x0 + 1).min(dims.nx - 1);
        let y1 = (y0 + 1).min(dims.ny - 1);
        let z1 = (z0 + 1).min(dims.nz - 1);
        let (fx, fy, fz) = (cx - x0 as f64, cy - y0 as f64, cz - z0 as f64);
        let g = |x: usize, y: usize, z: usize| self.voxel(home, &home_data, x, y, z) as f64;
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let c00 = lerp(g(x0, y0, z0), g(x1, y0, z0), fx);
        let c10 = lerp(g(x0, y1, z0), g(x1, y1, z0), fx);
        let c01 = lerp(g(x0, y0, z1), g(x1, y0, z1), fx);
        let c11 = lerp(g(x0, y1, z1), g(x1, y1, z1), fx);
        Some(lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz) as f32)
    }

    fn layout(&self) -> &BrickLayout {
        self.layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::RwLock;
    use viz_volume::{Dims3, VolumeField};

    struct MapLookup(RwLock<HashMap<BlockId, Arc<Vec<f32>>>>);

    impl BlockLookup for MapLookup {
        fn lookup(&self, id: BlockId) -> Option<Arc<Vec<f32>>> {
            self.0.read().unwrap().get(&id).cloned()
        }
    }

    fn setup() -> (VolumeField, BrickLayout, MapLookup) {
        let dims = Dims3::cube(16);
        let field = VolumeField::from_function(
            dims,
            &|x: f64, y: f64, z: f64, _t: f64| (x + 2.0 * y + 4.0 * z) as f32,
            0.0,
        );
        let layout = BrickLayout::new(dims, Dims3::cube(8));
        let map = MapLookup(RwLock::new(HashMap::new()));
        (field, layout, map)
    }

    fn load_all(field: &VolumeField, layout: &BrickLayout, map: &MapLookup) {
        for id in layout.block_ids() {
            map.0.write().unwrap().insert(id, Arc::new(field.extract_block(layout, id)));
        }
    }

    #[test]
    fn fully_resident_matches_field_sampling() {
        let (field, layout, map) = setup();
        load_all(&field, &layout, &map);
        let src = BrickedSource::new(&layout, &map);
        for &(x, y, z) in &[(1.0, 2.0, 3.0), (7.9, 8.2, 0.6), (15.4, 15.4, 15.4), (8.0, 8.0, 8.0)] {
            let a = src.sample(x, y, z).unwrap();
            let b = field.sample_trilinear(x, y, z);
            assert!((a - b).abs() < 1e-5, "mismatch at ({x},{y},{z}): {a} vs {b}");
        }
    }

    #[test]
    fn missing_home_block_returns_none() {
        let (_, layout, map) = setup();
        let src = BrickedSource::new(&layout, &map);
        assert!(src.sample(4.0, 4.0, 4.0).is_none());
    }

    #[test]
    fn partially_resident_volume_samples_loaded_half() {
        let (field, layout, map) = setup();
        // Load only blocks with bx == 0 (x < 8).
        for id in layout.block_ids() {
            let (bx, _, _) = layout.block_coords(id);
            if bx == 0 {
                map.0.write().unwrap().insert(id, Arc::new(field.extract_block(&layout, id)));
            }
        }
        let src = BrickedSource::new(&layout, &map);
        assert!(src.sample(3.0, 3.0, 3.0).is_some());
        assert!(src.sample(12.0, 3.0, 3.0).is_none());
    }

    #[test]
    fn boundary_clamp_is_finite_near_missing_neighbour() {
        let (field, layout, map) = setup();
        for id in layout.block_ids() {
            let (bx, _, _) = layout.block_coords(id);
            if bx == 0 {
                map.0.write().unwrap().insert(id, Arc::new(field.extract_block(&layout, id)));
            }
        }
        let src = BrickedSource::new(&layout, &map);
        // Sample right at the brick boundary: base corner in the loaded
        // block, +x corner in the missing one.
        let v = src.sample(7.9, 4.0, 4.0).unwrap();
        assert!(v.is_finite());
        // Clamped value must lie within the loaded block's value range.
        let id = layout.block_at(0, 0, 0);
        let data = field.extract_block(&layout, id);
        let lo = data.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = data.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // One voxel of seam tolerance.
        assert!(v >= lo - 1.0 && v <= hi + 1.0);
    }

    #[test]
    fn counting_lookup_flags_degraded_frames() {
        let (field, layout, map) = setup();
        // Load only half the volume (bx == 0).
        for id in layout.block_ids() {
            let (bx, _, _) = layout.block_coords(id);
            if bx == 0 {
                map.0.write().unwrap().insert(id, Arc::new(field.extract_block(&layout, id)));
            }
        }
        let counting = CountingLookup::new(map);
        let src = BrickedSource::new(&layout, &counting);

        // A sample entirely inside the resident half: no degradation.
        assert!(src.sample(3.0, 3.0, 3.0).is_some());
        assert!(!counting.degraded());
        let (lookups, misses) = counting.counts();
        assert!(lookups > 0);
        assert_eq!(misses, 0);

        // A sample in the missing half fails its home lookup.
        counting.reset();
        assert!(src.sample(12.0, 3.0, 3.0).is_none());
        assert!(counting.degraded());
        let (_, misses) = counting.counts();
        assert!(misses >= 1);

        // Reset clears the verdict between frames.
        counting.reset();
        assert_eq!(counting.counts(), (0, 0));
        assert!(!counting.degraded());
    }

    #[test]
    fn closure_lookup_works() {
        let (field, layout, _) = setup();
        let all: HashMap<BlockId, Arc<Vec<f32>>> =
            layout.block_ids().map(|id| (id, Arc::new(field.extract_block(&layout, id)))).collect();
        let f = move |id: BlockId| all.get(&id).cloned();
        let src = BrickedSource::new(&layout, &f);
        assert!(src.sample(5.0, 5.0, 5.0).is_some());
    }
}
