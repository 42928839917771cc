//! Sample source over a *partially resident* bricked volume: the renderer
//! used by the out-of-core examples, where only cached blocks have data.
//!
//! Production out-of-core renderers pad each brick with a one-voxel ghost
//! layer so trilinear filtering never crosses into a non-resident brick;
//! here we keep bricks unpadded and clamp boundary lookups into the brick
//! that owns the sample, which introduces a seam at most one voxel wide —
//! irrelevant to cache behaviour, which is what the examples demonstrate.
//!
//! # What is paid when
//!
//! A [`BrickedSource`] is *one frame's view* of the pool: build one per
//! frame (construction allocates one empty 16-byte slot per brick of the
//! layout, 16 KB at 1014 bricks).
//!
//! - **Per frame, per brick a ray touches:** one [`BlockLookup::lookup`].
//!   The first sample that needs brick *i* fills slot *i*; every later
//!   sample of the frame borrows the payload from the slot. So a frame sees
//!   each brick in one state — resident or absent — even while prefetch
//!   workers insert into the pool underneath it, and a [`CountingLookup`]
//!   counts *bricks*, not samples: `lookups` is the number of distinct
//!   bricks the frame's rays touched, `misses` how many of those were
//!   absent. Bricks no ray touches are never looked up.
//! - **Per brick entry along a ray:** the three divisions that find the
//!   brick of a voxel and its voxel range, kept in the ray's
//!   [`BrickCursor`] until the ray's base corner leaves that range.
//! - **Per sample:** six compares against the cursor's range; then eight
//!   reads from one base index and three strides when the 2×2×2 cell lies
//!   inside the brick (≈ 83 % of samples at 16×16×17 bricks), or eight
//!   division-free owner decisions against the range's upper corner when
//!   the cell straddles a brick face.

use crate::raycast::SampleSource;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use viz_volume::{BlockId, BrickLayout, Dims3};

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
/// the frame deadline). Behind a [`BrickedSource`] each brick is looked up
/// at most once a frame, so the counts are in bricks.
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

/// A [`SampleSource`] reading through a [`BlockLookup`]: one frame's view
/// of a partially resident volume (see the module docs).
pub struct BrickedSource<'a, L: BlockLookup> {
    layout: &'a BrickLayout,
    blocks: &'a L,
    /// Slot `i` holds what `blocks` answered for brick `i` the first time
    /// this frame needed it.
    frame: Vec<OnceLock<Option<Arc<Vec<f32>>>>>,
}

/// The brick a ray is marching through: [`BrickedSource`]'s per-ray state.
#[derive(Debug, Clone, Copy)]
pub struct BrickCursor {
    /// Index of the brick owning the last sample's base corner.
    home: usize,
    /// Voxel range `[lo, hi)` of `home`.
    lo: Dims3,
    hi: Dims3,
}

impl Default for BrickCursor {
    /// The empty range: no voxel lies in it, so a ray's first sample homes.
    fn default() -> Self {
        BrickCursor { home: 0, lo: Dims3::cube(0), hi: Dims3::cube(0) }
    }
}

impl<'a, L: BlockLookup> BrickedSource<'a, L> {
    /// Create over a layout and a block resolver.
    pub fn new(layout: &'a BrickLayout, blocks: &'a L) -> Self {
        let frame = (0..layout.num_blocks()).map(|_| OnceLock::new()).collect();
        BrickedSource { layout, blocks, frame }
    }

    /// Payload of brick `index` as this frame sees it.
    #[inline]
    fn brick(&self, index: usize) -> Option<&[f32]> {
        self.frame[index]
            .get_or_init(|| self.blocks.lookup(BlockId(index as u32)))
            .as_ref()
            .map(|data| data.as_slice())
    }

    /// Voxel `(x, y, z)` of a cell whose base corner is in `cur.home` and
    /// which may reach one voxel past `cur.hi`. A voxel past `hi` belongs
    /// to the next brick along each crossed axis; when that brick is absent
    /// the lookup is clamped into `home` (seam ≤ 1 voxel).
    fn border_voxel(&self, cur: &BrickCursor, home: &[f32], x: usize, y: usize, z: usize) -> f32 {
        let (lo, hi) = (cur.lo, cur.hi);
        let (nx, ny) = (hi.nx - lo.nx, hi.ny - lo.ny);
        let (over_x, over_y, over_z) = (x >= hi.nx, y >= hi.ny, z >= hi.nz);
        if over_x || over_y || over_z {
            let (grid, block, volume) = (self.layout.grid, self.layout.block, self.layout.volume);
            let owner = cur.home
                + usize::from(over_x)
                + if over_y { grid.nx } else { 0 }
                + if over_z { grid.nx * grid.ny } else { 0 };
            if let Some(data) = self.brick(owner) {
                // The owner starts at `hi` on a crossed axis (local
                // coordinate 0, extent clipped to the volume) and shares
                // the home's range on the others.
                let (lx, onx) = if over_x {
                    (0, (hi.nx + block.nx).min(volume.nx) - hi.nx)
                } else {
                    (x - lo.nx, nx)
                };
                let (ly, ony) = if over_y {
                    (0, (hi.ny + block.ny).min(volume.ny) - hi.ny)
                } else {
                    (y - lo.ny, ny)
                };
                let lz = if over_z { 0 } else { z - lo.nz };
                return data[(lz * ony + ly) * onx + lx];
            }
        }
        let (cx, cy, cz) = (x.min(hi.nx - 1), y.min(hi.ny - 1), z.min(hi.nz - 1));
        home[((cz - lo.nz) * ny + (cy - lo.ny)) * nx + (cx - lo.nx)]
    }
}

impl<L: BlockLookup> SampleSource for BrickedSource<'_, L> {
    type Cursor = BrickCursor;

    fn sample(&self, cur: &mut BrickCursor, x: f64, y: f64, z: f64) -> Option<f32> {
        let dims = self.layout.volume;
        let cx = (x - 0.5).clamp(0.0, (dims.nx - 1) as f64);
        let cy = (y - 0.5).clamp(0.0, (dims.ny - 1) as f64);
        let cz = (z - 0.5).clamp(0.0, (dims.nz - 1) as f64);
        // Truncation is `floor` on the clamped, non-negative coordinates
        // (and maps NaN to 0 as `floor` does), without a libm call.
        let (x0, y0, z0) = (cx as usize, cy as usize, cz as usize);

        // The block owning the base corner decides residency for the whole
        // sample; it changes only when the base corner leaves `[lo, hi)`.
        let inside = (cur.lo.nx <= x0 && x0 < cur.hi.nx)
            && (cur.lo.ny <= y0 && y0 < cur.hi.ny)
            && (cur.lo.nz <= z0 && z0 < cur.hi.nz);
        if !inside {
            let home = self.layout.block_of_voxel(x0, y0, z0);
            let (lo, hi) = self.layout.voxel_range(home);
            *cur = BrickCursor { home: home.index(), lo, hi };
        }
        let home = self.brick(cur.home)?;
        let (lo, hi) = (cur.lo, cur.hi);

        // Corners in x-fastest order: (x0,y0,z0), (x1,y0,z0), (x0,y1,z0), …
        let v: [f32; 8] = if x0 + 1 < hi.nx && y0 + 1 < hi.ny && z0 + 1 < hi.nz {
            let sy = hi.nx - lo.nx;
            let sz = sy * (hi.ny - lo.ny);
            let b = (z0 - lo.nz) * sz + (y0 - lo.ny) * sy + (x0 - lo.nx);
            let cell = &home[b..=b + sz + sy + 1];
            [
                cell[0],
                cell[1],
                cell[sy],
                cell[sy + 1],
                cell[sz],
                cell[sz + 1],
                cell[sz + sy],
                cell[sz + sy + 1],
            ]
        } else {
            let x1 = (x0 + 1).min(dims.nx - 1);
            let y1 = (y0 + 1).min(dims.ny - 1);
            let z1 = (z0 + 1).min(dims.nz - 1);
            let g = |x: usize, y: usize, z: usize| self.border_voxel(cur, home, x, y, z);
            [
                g(x0, y0, z0),
                g(x1, y0, z0),
                g(x0, y1, z0),
                g(x1, y1, z0),
                g(x0, y0, z1),
                g(x1, y0, z1),
                g(x0, y1, z1),
                g(x1, y1, z1),
            ]
        };

        let v = v.map(f64::from);
        let (fx, fy, fz) = (cx - x0 as f64, cy - y0 as f64, cz - z0 as f64);
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let c00 = lerp(v[0], v[1], fx);
        let c10 = lerp(v[2], v[3], fx);
        let c01 = lerp(v[4], v[5], fx);
        let c11 = lerp(v[6], v[7], fx);
        Some(lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz) as f32)
    }

    fn layout(&self) -> &BrickLayout {
        self.layout
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::raycast::{orbit_pose, render, RenderConfig};
    use crate::tf::TransferFunction;
    use std::collections::{BTreeSet, HashMap};
    use std::sync::{Mutex, RwLock};
    use viz_geom::angle::deg_to_rad;
    use viz_geom::rng::{for_cases, SplitMix64};
    use viz_volume::{DatasetKind, DatasetSpec, VolumeField};

    /// The per-sample sampler this module shipped before the cursor, kept
    /// verbatim as the reference the brick-coherent path must match bit for
    /// bit: it resolves the home brick at every sample and the owner of
    /// every corner through the `BlockLookup` itself, never the frame table.
    impl<L: BlockLookup> BrickedSource<'_, L> {
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

        fn reference_sample(&self, x: f64, y: f64, z: f64) -> Option<f32> {
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
    }

    /// Renders through [`BrickedSource::reference_sample`].
    struct Reference<'a, L: BlockLookup>(BrickedSource<'a, L>);

    impl<L: BlockLookup> SampleSource for Reference<'_, L> {
        type Cursor = ();

        fn sample(&self, _cursor: &mut (), x: f64, y: f64, z: f64) -> Option<f32> {
            self.0.reference_sample(x, y, z)
        }

        fn layout(&self) -> &BrickLayout {
            self.0.layout
        }
    }

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

    /// One sample on a ray of its own.
    fn sample_at<L: BlockLookup>(src: &BrickedSource<L>, x: f64, y: f64, z: f64) -> Option<f32> {
        src.sample(&mut BrickCursor::default(), x, y, z)
    }

    #[test]
    fn fully_resident_matches_field_sampling() {
        let (field, layout, map) = setup();
        load_all(&field, &layout, &map);
        let src = BrickedSource::new(&layout, &map);
        for &(x, y, z) in &[(1.0, 2.0, 3.0), (7.9, 8.2, 0.6), (15.4, 15.4, 15.4), (8.0, 8.0, 8.0)] {
            let a = sample_at(&src, x, y, z).unwrap();
            let b = field.sample_trilinear(x, y, z);
            assert!((a - b).abs() < 1e-5, "mismatch at ({x},{y},{z}): {a} vs {b}");
        }
    }

    #[test]
    fn missing_home_block_returns_none() {
        let (_, layout, map) = setup();
        let src = BrickedSource::new(&layout, &map);
        assert!(sample_at(&src, 4.0, 4.0, 4.0).is_none());
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
        assert!(sample_at(&src, 3.0, 3.0, 3.0).is_some());
        assert!(sample_at(&src, 12.0, 3.0, 3.0).is_none());
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
        let v = sample_at(&src, 7.9, 4.0, 4.0).unwrap();
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

        // A sample entirely inside the resident half: no degradation, and
        // sampling the same brick again asks the lookup nothing.
        let src = BrickedSource::new(&layout, &counting);
        assert!(sample_at(&src, 3.0, 3.0, 3.0).is_some());
        assert!(sample_at(&src, 4.0, 2.0, 5.0).is_some());
        assert!(!counting.degraded());
        assert_eq!(counting.counts(), (1, 0));

        // A sample in the missing half fails its home lookup, once.
        counting.reset();
        let src = BrickedSource::new(&layout, &counting);
        assert!(sample_at(&src, 12.0, 3.0, 3.0).is_none());
        assert!(sample_at(&src, 13.0, 3.0, 3.0).is_none());
        assert!(counting.degraded());
        assert_eq!(counting.counts(), (1, 1));

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
        assert!(sample_at(&src, 5.0, 5.0, 5.0).is_some());
    }

    /// A field, its layout and every brick's payload by block id.
    pub(crate) type Scene = (VolumeField, BrickLayout, Vec<Arc<Vec<f32>>>);

    /// A 20×18×10 volume in 8×8×4 bricks: a 3×3×3 grid whose last bricks
    /// are clipped to 4, 2 and 2 voxels, with voxel values that tell any
    /// two neighbouring voxels apart.
    fn clipped() -> Scene {
        let dims = Dims3::new(20, 18, 10);
        let voxels = (0..dims.count()).map(|i| (i.wrapping_mul(2_654_435_761) % 251) as f32);
        let field = VolumeField::from_vec(dims, voxels.collect());
        let layout = BrickLayout::new(dims, Dims3::new(8, 8, 4));
        assert_eq!(layout.grid, Dims3::cube(3));
        let bricks =
            layout.block_ids().map(|id| Arc::new(field.extract_block(&layout, id))).collect();
        (field, layout, bricks)
    }

    /// Resolver over `bricks` with the ids in `absent` not resident.
    fn without<'a>(
        bricks: &'a [Arc<Vec<f32>>],
        absent: &'a [BlockId],
    ) -> impl Fn(BlockId) -> Option<Arc<Vec<f32>>> + Sync + 'a {
        move |id: BlockId| (!absent.contains(&id)).then(|| bricks[id.index()].clone())
    }

    /// Half-voxel lattice over the whole volume, including the clamped
    /// half voxel outside each face.
    fn lattice(dims: Dims3) -> impl Iterator<Item = (f64, f64, f64)> {
        let axis = |n: usize| (0..=2 * n + 2).map(|i| i as f64 * 0.5 - 0.5);
        axis(dims.nz).flat_map(move |z| {
            axis(dims.ny).flat_map(move |y| axis(dims.nx).map(move |x| (x, y, z)))
        })
    }

    #[test]
    fn base_corner_on_the_last_voxel_reads_it_alone() {
        let (field, layout, bricks) = clipped();
        let lookup = without(&bricks, &[]);
        let src = BrickedSource::new(&layout, &lookup);
        let d = layout.volume;
        // x1 == x0 on every axis: all eight corners are the last voxel.
        let got = sample_at(&src, d.nx as f64, d.ny as f64, d.nz as f64 + 3.0);
        assert_eq!(got, Some(field.get(d.nx - 1, d.ny - 1, d.nz - 1)));
        assert_eq!(got, src.reference_sample(d.nx as f64, d.ny as f64, d.nz as f64 + 3.0));
        // Last voxel along x only: the cell still spans two bricks in y and z.
        let got = sample_at(&src, d.nx as f64, 8.2, 4.3);
        assert_eq!(got, src.reference_sample(d.nx as f64, 8.2, 4.3));
    }

    #[test]
    fn each_absent_neighbour_clamps_like_the_reference() {
        let (_, layout, bricks) = clipped();
        // A cell whose base corner is the last voxel of brick (1,1,1) on all
        // three axes: its eight corners lie in eight different bricks, the
        // +x and +y ones clipped.
        let (x, y, z) = (16.3, 16.4, 8.2);
        let home = layout.block_at(1, 1, 1);
        let all = without(&bricks, &[]);
        let full = sample_at(&BrickedSource::new(&layout, &all), x, y, z).unwrap();
        for (dx, dy, dz) in
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        {
            let absent = [layout.block_at(1 + dx, 1 + dy, 1 + dz)];
            let lookup = without(&bricks, &absent);
            let src = BrickedSource::new(&layout, &lookup);
            let got = sample_at(&src, x, y, z);
            assert_eq!(got, src.reference_sample(x, y, z), "neighbour +({dx},{dy},{dz}) absent");
            assert_ne!(got, Some(full), "the clamp of +({dx},{dy},{dz}) must show");
        }
        // All seven absent: every corner clamps to the base corner's voxel.
        let absent: Vec<BlockId> = layout.block_ids().filter(|&id| id != home).collect();
        let lookup = without(&bricks, &absent);
        let src = BrickedSource::new(&layout, &lookup);
        assert_eq!(sample_at(&src, x, y, z), Some(bricks[home.index()][8 * 8 * 4 - 1]));
    }

    #[test]
    fn cursor_that_leaves_a_brick_and_comes_back_samples_the_same() {
        let (_, layout, bricks) = clipped();
        let absent = [layout.block_at(1, 0, 0), layout.block_at(2, 2, 1)];
        let lookup = without(&bricks, &absent);
        let src = BrickedSource::new(&layout, &lookup);
        // Zig-zag across the x = 8 face, through a resident and an absent
        // brick, and back: one cursor carried along, one fresh per sample.
        let mut cursor = BrickCursor::default();
        for i in 0..40 {
            let x = if i % 3 == 0 { 9.1 } else { 6.4 + 0.05 * i as f64 };
            let (y, z) = (3.0 + 0.3 * i as f64, 1.0 + 0.2 * i as f64);
            let carried = src.sample(&mut cursor, x, y, z);
            assert_eq!(carried, sample_at(&src, x, y, z), "sample {i}");
            assert_eq!(carried, src.reference_sample(x, y, z), "sample {i}");
        }
    }

    /// Every lattice position, with one cursor carried through the raster
    /// scan (so it leaves and re-enters every brick many times), at full
    /// residency and at seeded random residencies.
    #[test]
    fn every_lattice_sample_matches_the_reference() {
        let (_, layout, bricks) = clipped();
        let check = |absent: &[BlockId]| {
            let lookup = without(&bricks, absent);
            let src = BrickedSource::new(&layout, &lookup);
            let mut cursor = BrickCursor::default();
            for (x, y, z) in lattice(layout.volume) {
                let got = src.sample(&mut cursor, x + 0.13, y + 0.29, z + 0.41);
                let want = src.reference_sample(x + 0.13, y + 0.29, z + 0.41);
                assert_eq!(got, want, "at ({x},{y},{z}) with {absent:?} absent");
            }
        };
        check(&[]);
        for_cases(0xB41C, 6, |rng, _| {
            let absent: Vec<BlockId> =
                layout.block_ids().filter(|_| rng.next_f64() < 0.4).collect();
            check(&absent);
        });
    }

    /// `lifted_rr` at a quarter of Table I's resolution in ~1024 bricks: a
    /// 13×13×6 grid of 16×16×17 bricks whose last bricks are clipped
    /// (13·16 > 200) — the benchmark's scene, built once for every test
    /// of the crate that renders it.
    pub(crate) fn lifted() -> &'static Scene {
        static LIFTED: OnceLock<Scene> = OnceLock::new();
        LIFTED.get_or_init(|| {
            let field = DatasetSpec::new(DatasetKind::LiftedRr, 4, 7).materialize(0, 0.0);
            let layout = BrickLayout::with_target_blocks(field.dims, 1024);
            assert_eq!(layout.grid, Dims3::new(13, 13, 6));
            let bricks =
                layout.block_ids().map(|id| Arc::new(field.extract_block(&layout, id))).collect();
            (field, layout, bricks)
        })
    }

    pub(crate) fn random_pose(rng: &mut SplitMix64) -> viz_geom::CameraPose {
        // Distance 1.2–3.2 puts some cameras inside the volume.
        orbit_pose(
            rng.range(5.0, 175.0),
            rng.range(0.0, 360.0),
            rng.range(1.2, 3.2),
            deg_to_rad(rng.range(8.0, 38.0)),
        )
    }

    /// Whole images, bit for bit, against the per-sample reference: both
    /// render modes, full and ~70 % random residency.
    #[test]
    fn images_equal_the_per_sample_reference() {
        let (field, layout, bricks) = lifted();
        let tf = TransferFunction::heat(field.min_max());
        let cfg = RenderConfig { step: 0.02, ..RenderConfig::preview(24, 24) };
        let mut lit = 0;
        for_cases(0x5A3E_B175, 12, |rng, case| {
            let pose = random_pose(rng);
            let absent: Vec<BlockId> =
                layout.block_ids().filter(|_| rng.next_f64() < 0.3).collect();
            for absent in [&[][..], &absent[..]] {
                let lookup = without(bricks, absent);
                for cfg in [cfg, cfg.mip()] {
                    let got = render(&BrickedSource::new(layout, &lookup), &pose, &tf, &cfg);
                    let reference = Reference(BrickedSource::new(layout, &lookup));
                    let want = render(&reference, &pose, &tf, &cfg);
                    assert_eq!(got, want, "case {case}, {} absent, {:?}", absent.len(), cfg.mode);
                    lit += usize::from(got.mean_luminance() > 0.0);
                }
            }
        });
        assert!(lit >= 40, "only {lit} of 48 frames drew anything");
    }

    /// Records which bricks were asked for.
    struct Recording<'a, L> {
        inner: &'a L,
        seen: Mutex<BTreeSet<BlockId>>,
    }

    impl<L: BlockLookup> BlockLookup for Recording<'_, L> {
        fn lookup(&self, id: BlockId) -> Option<Arc<Vec<f32>>> {
            self.seen.lock().unwrap().insert(id);
            self.inner.lookup(id)
        }
    }

    /// After one frame a `CountingLookup` has counted bricks: as many
    /// lookups as distinct bricks the (reference) sampler touches, as many
    /// misses as distinct absent bricks among them.
    #[test]
    fn counting_lookup_counts_distinct_bricks_touched() {
        let (field, layout, bricks) = lifted();
        let tf = TransferFunction::heat(field.min_max());
        let cfg = RenderConfig { step: 0.02, ..RenderConfig::preview(24, 24) };
        for_cases(0xC0_0217, 3, |rng, case| {
            let pose = random_pose(rng);
            // Case 0 renders fully resident: not degraded.
            let absent: Vec<BlockId> =
                layout.block_ids().filter(|_| case > 0 && rng.next_f64() < 0.3).collect();
            let lookup = without(bricks, &absent);

            let recording = Recording { inner: &lookup, seen: Mutex::new(BTreeSet::new()) };
            render(&Reference(BrickedSource::new(layout, &recording)), &pose, &tf, &cfg);
            let touched = recording.seen.into_inner().unwrap();
            let touched_absent = touched.iter().filter(|id| absent.contains(id)).count();

            let counting = CountingLookup::new(&lookup);
            render(&BrickedSource::new(layout, &counting), &pose, &tf, &cfg);
            let (lookups, misses) = counting.counts();
            assert!(lookups as usize <= layout.num_blocks());
            assert_eq!(lookups as usize, touched.len(), "case {case}: lookups");
            assert_eq!(misses as usize, touched_absent, "case {case}: misses");
            assert_eq!(counting.degraded(), touched_absent > 0);
            assert!(!touched.is_empty(), "case {case} touched nothing");
        });
    }
}
