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
//!   brick of a voxel and its voxel range, and the brick's payload from
//!   the frame's slot, kept in the ray's lane of the packet's
//!   [`BrickCursor`] until the ray's base corner leaves that range.
//! - **Per neighbour a ray's cells reach into, per brick entry:** the
//!   payload of the +x, +y, +z, … neighbour from the frame's slot, cached
//!   in the cursor the first time a cell of the brick straddles that face
//!   (so exactly the bricks the samples read are looked up).
//! - **Per step of a packet of four rays:** for all four lanes at once,
//!   the base corners' coordinates in their bricks, the test that they are
//!   still inside, and the test that the 2×2×2 cells lie inside the brick
//!   (≈ 83 % of cells at 16×16×17 bricks); then, per lane, eight reads as
//!   four pairs from one base index and two strides, or, for a cell that
//!   straddles a brick face, eight reads picked with selects from the
//!   brick and the cached neighbours, in one out-of-line call that makes
//!   no call and no lookup per corner (inlined, it measured slower).
//!   The eight corners are widened and interpolated for the four lanes
//!   together.

use crate::lanes::{any, floor, map, trilinear, zip, F32s, F64s, Mask, LANES};
use crate::raycast::SampleSource;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
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

/// The bricks the four rays of a packet are marching through, one per
/// lane, and the payloads each lane has needed there: [`BrickedSource`]'s
/// per-packet state. Each field holds one value per lane, so the march
/// tests every lane's cell against its brick at once.
#[derive(Debug, Clone, Copy)]
pub struct BrickCursor<'a> {
    /// Index of the brick owning the lane's last base corner.
    home: [usize; LANES],
    /// Voxel range `[lo, lo + ext)` of the lane's home along x, y and z.
    lo: [[u32; LANES]; 3],
    ext: [[u32; LANES]; 3],
    /// The home's payload as the frame sees it (`None`: absent).
    data: [Option<&'a [f32]>; LANES],
    /// Bit `m` set: `near[lane][m]` holds the payload of the neighbour
    /// reached by crossing the home's upper faces in `m` (bit 0 +x, 1 +y,
    /// 2 +z). `near[lane][0]` stays `None`.
    resolved: [u8; LANES],
    near: [[Option<&'a [f32]>; 8]; LANES],
}

impl Default for BrickCursor<'_> {
    /// Empty ranges: no voxel lies in them, so every lane's first sample
    /// homes.
    fn default() -> Self {
        BrickCursor {
            home: [0; LANES],
            lo: [[0; LANES]; 3],
            ext: [[0; LANES]; 3],
            data: [None; LANES],
            resolved: [0; LANES],
            near: [[None; 8]; LANES],
        }
    }
}

/// Where each lane's cell lies in its home: the base corner's coordinates
/// `local` (per axis), its index `base` in the payload and the payload's
/// strides `sy` and `sz`, and whether the cell is `interior`: its +1
/// corners stay in the home on every axis.
struct Packet {
    base: [usize; LANES],
    sy: [usize; LANES],
    sz: [usize; LANES],
    local: [[u32; LANES]; 3],
    interior: Mask,
}

/// Voxels `at` and `at + 1` of a payload: the two corners of a cell's row.
#[inline(always)]
fn pair(data: &[f32], at: usize) -> [f32; 2] {
    let &[a, b] = &data[at..at + 2] else { unreachable!("a range of two voxels") };
    [a, b]
}

/// The neighbour sets a cell that crosses the faces in `o` reads from: bit
/// `m` of `NEEDED[o]` is set for every non-empty `m ⊆ o`.
const NEEDED: [u8; 8] = {
    let mut needed = [0u8; 8];
    let mut o = 0;
    while o < 8 {
        let mut m = 1;
        while m < 8 {
            if m & !o == 0 {
                needed[o] |= 1 << m;
            }
            m += 1;
        }
        o += 1;
    }
    needed
};

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

    /// Point lane `i` of `cur` at the brick owning voxel `v`: the brick
    /// [`BrickLayout::block_of_voxel`] names and the range
    /// [`BrickLayout::voxel_range`] gives it, worked out here from the
    /// brick's coordinates without a second division.
    fn rehome<'s>(&'s self, cur: &mut BrickCursor<'s>, i: usize, v: [u32; 3]) {
        let (block, grid, volume) = (self.layout.block, self.layout.grid, self.layout.volume);
        let (b, n) = ([block.nx, block.ny, block.nz], [volume.nx, volume.ny, volume.nz]);
        let mut k = [0usize; 3];
        for axis in 0..3 {
            k[axis] = v[axis] as usize / b[axis];
            let lo = k[axis] * b[axis];
            // Every coordinate of a volume fits a `u32`.
            cur.lo[axis][i] = lo as u32;
            cur.ext[axis][i] = ((lo + b[axis]).min(n[axis]) - lo) as u32;
        }
        let home = (k[2] * grid.ny + k[1]) * grid.nx + k[0];
        cur.home[i] = home;
        cur.data[i] = self.brick(home);
        cur.resolved[i] = 0;
    }

    /// The eight corners of lane `i`'s cell, in x-fastest order, and
    /// whether the lane has a sample: not when it is not `live` or its home
    /// is absent (the home decides residency for the whole sample), and
    /// then the corners are zeros.
    #[inline(always)]
    fn packet_cell<'s>(
        &'s self,
        cur: &mut BrickCursor<'s>,
        i: usize,
        live: bool,
        p: &Packet,
        pos: [[u32; LANES]; 3],
    ) -> ([f32; 8], bool) {
        let Some(home) = cur.data[i].filter(|_| live) else { return ([0.0; 8], false) };
        if !p.interior[i] {
            let local = [p.local[0][i], p.local[1][i], p.local[2][i]];
            return (
                self.border_cell(cur, i, home, [pos[0][i], pos[1][i], pos[2][i]], local),
                true,
            );
        }
        let (b, sy, sz) = (p.base[i], p.sy[i], p.sz[i]);
        let [c0, c1] = pair(home, b);
        let [c2, c3] = pair(home, b + sy);
        let [c4, c5] = pair(home, b + sz);
        let [c6, c7] = pair(home, b + sz + sy);
        ([c0, c1, c2, c3, c4, c5, c6, c7], true)
    }

    /// The eight corners, in x-fastest order, of lane `i`'s cell whose base
    /// corner is `v` and lies `local` into the home (of payload `home`), for
    /// a cell that reaches past the home's range or the volume's last voxel
    /// on some axis. A corner past the range belongs to the next brick along
    /// each axis it crosses; when that brick is absent the corner is clamped
    /// into the home (seam ≤ 1 voxel), and past the volume's last voxel it
    /// is that voxel. Each corner is picked with selects from the home and
    /// the neighbours the cell crosses into, which the cursor looks up the
    /// first time a cell of its home needs them.
    fn border_cell<'s>(
        &'s self,
        cur: &mut BrickCursor<'s>,
        i: usize,
        home: &'s [f32],
        v: [u32; 3],
        local: [u32; 3],
    ) -> [f32; 8] {
        let (grid, block, volume) = (self.layout.grid, self.layout.block, self.layout.volume);
        let (b, n) = ([block.nx, block.ny, block.nz], [volume.nx, volume.ny, volume.nz]);
        // Per axis: whether the +1 corner crosses into the next brick; the
        // base and +1 corners' coordinates in the home, the +1 one clamped
        // to the range (so equal to the base's where it crosses, or where
        // the base is the volume's last voxel); and the home's and the next
        // brick's extents.
        let mut over = [false; 3];
        let (mut l0, mut l1, mut ext, mut next) =
            ([0usize; 3], [0usize; 3], [0usize; 3], [0usize; 3]);
        for axis in 0..3 {
            let (a0, e) = (v[axis] as usize, cur.ext[axis][i] as usize);
            let hi = cur.lo[axis][i] as usize + e;
            over[axis] = a0 + 1 == hi && hi < n[axis];
            l0[axis] = local[axis] as usize;
            l1[axis] = (l0[axis] + 1).min(e - 1);
            ext[axis] = e;
            next[axis] = (hi + b[axis]).min(n[axis]) - hi;
        }
        let o = usize::from(over[0]) | usize::from(over[1]) << 1 | usize::from(over[2]) << 2;
        if cur.resolved[i] & NEEDED[o] != NEEDED[o] {
            for m in (1..8).filter(|m| NEEDED[o] & (1 << m) != 0) {
                let owner = cur.home[i]
                    + (m & 1)
                    + if m & 2 != 0 { grid.nx } else { 0 }
                    + if m & 4 != 0 { grid.nx * grid.ny } else { 0 };
                cur.near[i][m] = self.brick(owner);
            }
            cur.resolved[i] |= NEEDED[o];
        }
        let near = &cur.near[i];
        let corner = |k: usize| {
            let (lx, ly, lz) = (
                if k & 1 != 0 { l1[0] } else { l0[0] },
                if k & 2 != 0 { l1[1] } else { l0[1] },
                if k & 4 != 0 { l1[2] } else { l0[2] },
            );
            // The faces this corner crosses; `near[0]` is `None`.
            let m = k & o;
            match near[m] {
                // The owner starts past the home on a crossed axis (local
                // coordinate 0, extent clipped to the volume) and shares
                // the home's range on the others.
                Some(data) => {
                    let (lx, onx) = if m & 1 != 0 { (0, next[0]) } else { (lx, ext[0]) };
                    let (ly, ony) = if m & 2 != 0 { (0, next[1]) } else { (ly, ext[1]) };
                    let lz = if m & 4 != 0 { 0 } else { lz };
                    data[(lz * ony + ly) * onx + lx]
                }
                None => home[(lz * ext[1] + ly) * ext[0] + lx],
            }
        };
        [corner(0), corner(1), corner(2), corner(3), corner(4), corner(5), corner(6), corner(7)]
    }
}

impl<L: BlockLookup> SampleSource for BrickedSource<'_, L> {
    type Cursor<'s>
        = BrickCursor<'s>
    where
        Self: 's;

    #[inline(always)]
    fn sample_lanes<'s>(
        &'s self,
        cur: &mut BrickCursor<'s>,
        x: F64s,
        y: F64s,
        z: F64s,
        live: Mask,
    ) -> (F32s, Mask) {
        let dims = self.layout.volume;
        let clamp = |v: F64s, n: usize| map(v, |v| (v - 0.5).clamp(0.0, (n - 1) as f64));
        let (cx, cy, cz) = (clamp(x, dims.nx), clamp(y, dims.ny), clamp(z, dims.nz));
        // The base corner: `floor` of the clamped, non-negative coordinates,
        // NaN to 0, as `c as usize` truncates them.
        let ((fx0, x0), (fy0, y0), (fz0, z0)) = (floor(cx), floor(cy), floor(cz));

        // The base corner's coordinates in each lane's home; one that lies
        // before the range wraps past its extent. A lane's home changes only
        // when its base corner leaves the range.
        let local = |cur: &BrickCursor| {
            let l = |v: [u32; LANES], lo: [u32; LANES]| zip(v, lo, u32::wrapping_sub);
            [l(x0, cur.lo[0]), l(y0, cur.lo[1]), l(z0, cur.lo[2])]
        };
        let within = |l: [[u32; LANES]; 3], ext: [[u32; LANES]; 3], d: u64| {
            let axis = |a: usize| zip(l[a], ext[a], |l, e| u64::from(l) + d < u64::from(e));
            zip(zip(axis(0), axis(1), |a, b| a & b), axis(2), |a, b| a & b)
        };
        let mut l = local(cur);
        let leave = zip(live, within(l, cur.ext, 0), |live, inside| live & !inside);
        if any(leave) {
            for i in (0..LANES).filter(|&i| leave[i]) {
                self.rehome(cur, i, [x0[i], y0[i], z0[i]]);
            }
            l = local(cur);
        }
        // An interior cell reads its eight corners as four pairs: at the
        // base index, then one and two strides on.
        let interior = within(l, cur.ext, 1);
        let sy = map(cur.ext[0], |e| e as usize);
        let sz = zip(sy, cur.ext[1], |sy, e| sy * e as usize);
        let base = zip(
            zip(
                zip(l[2], sz, |lz, sz| lz as usize * sz),
                zip(l[1], sy, |ly, sy| ly as usize * sy),
                |a, b| a + b,
            ),
            l[0],
            |a, lx| a + lx as usize,
        );
        let (base, pos) = (Packet { base, sy, sz, local: l, interior }, [x0, y0, z0]);
        let cells = [
            self.packet_cell(cur, 0, live[0], &base, pos),
            self.packet_cell(cur, 1, live[1], &base, pos),
            self.packet_cell(cur, 2, live[2], &base, pos),
            self.packet_cell(cur, 3, live[3], &base, pos),
        ];
        let got = map(cells, |(_, got)| got);
        // Corner `k` of every lane; a lane without a sample reads zeros.
        let v =
            |k: usize| map([cells[0].0[k], cells[1].0[k], cells[2].0[k], cells[3].0[k]], f64::from);

        let frac = |c: F64s, c0: F64s| zip(c, c0, |c, c0| c - c0);
        let f = [frac(cx, fx0), frac(cy, fy0), frac(cz, fz0)];
        let v = [v(0), v(1), v(2), v(3), v(4), v(5), v(6), v(7)];
        (map(trilinear(v, f), |v| v as f32), got)
    }

    fn layout(&self) -> &BrickLayout {
        self.layout
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::raycast::tests::sample_one;
    use crate::raycast::{orbit_pose, render, RenderConfig};
    use crate::tf::TransferFunction;
    use std::collections::{BTreeSet, HashMap};
    use std::sync::{Mutex, RwLock};
    use viz_geom::angle::deg_to_rad;
    use viz_geom::rng::{for_cases, SplitMix64};
    use viz_volume::Dims3;
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
        type Cursor<'s>
            = ()
        where
            Self: 's;

        fn sample_lanes(
            &self,
            _cursor: &mut (),
            x: F64s,
            y: F64s,
            z: F64s,
            live: Mask,
        ) -> (F32s, Mask) {
            let s =
                map([0, 1, 2, 3], |i| live[i].then(|| self.0.reference_sample(x[i], y[i], z[i])));
            (map(s, |s| s.flatten().unwrap_or(0.0)), map(s, |s| s.flatten().is_some()))
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

    /// One sample on a ray of its own, in lane 0.
    fn sample_at<L: BlockLookup>(src: &BrickedSource<L>, x: f64, y: f64, z: f64) -> Option<f32> {
        sample_one(src, &mut BrickCursor::default(), 0, x, y, z)
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
        // brick, and back: one cursor carried along in each lane (the lanes
        // take turns), one fresh per sample.
        let mut cursor = BrickCursor::default();
        for i in 0..40 {
            let x = if i % 3 == 0 { 9.1 } else { 6.4 + 0.05 * i as f64 };
            let (y, z) = (3.0 + 0.3 * i as f64, 1.0 + 0.2 * i as f64);
            let carried = sample_one(&src, &mut cursor, i % LANES, x, y, z);
            assert_eq!(carried, sample_at(&src, x, y, z), "sample {i}");
            assert_eq!(carried, src.reference_sample(x, y, z), "sample {i}");
        }
    }

    /// Every lattice position, four consecutive ones a packet, with one
    /// cursor a lane carried through the raster scan (so it leaves and
    /// re-enters every brick many times), at full residency and at seeded
    /// random residencies.
    #[test]
    fn every_lattice_sample_matches_the_reference() {
        let (_, layout, bricks) = clipped();
        let check = |absent: &[BlockId]| {
            let lookup = without(&bricks, absent);
            let src = BrickedSource::new(&layout, &lookup);
            let mut cursor = BrickCursor::default();
            let points: Vec<_> = lattice(layout.volume).collect();
            for packet in points.chunks(LANES) {
                let at = |i: usize| packet[i.min(packet.len() - 1)];
                let lanes = |c: fn((f64, f64, f64)) -> f64| map([0, 1, 2, 3], |i| c(at(i)));
                let (x, y, z) =
                    (lanes(|p| p.0 + 0.13), lanes(|p| p.1 + 0.29), lanes(|p| p.2 + 0.41));
                let live = map([0, 1, 2, 3], |i| i < packet.len());
                let (s, got) = src.sample_lanes(&mut cursor, x, y, z, live);
                for (i, &(px, py, pz)) in packet.iter().enumerate() {
                    let want = src.reference_sample(x[i], y[i], z[i]);
                    let at = format!("({px},{py},{pz}) in lane {i} with {absent:?} absent");
                    assert_eq!(got[i].then_some(s[i]), want, "at {at}");
                }
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

        // Packets at their edges (see `edge_poses`), in a 23 × 19 image
        // whose rows end in a ragged packet.
        let cfg = RenderConfig { step: 0.02, ..RenderConfig::preview(23, 19) };
        let absent: Vec<BlockId> = layout.block_ids().filter(|id| id.index() % 3 == 1).collect();
        for (what, pose) in edge_poses(layout, &cfg) {
            for absent in [&[][..], &absent[..]] {
                let lookup = without(bricks, absent);
                for cfg in [cfg, cfg.mip()] {
                    let got = render(&BrickedSource::new(layout, &lookup), &pose, &tf, &cfg);
                    let reference = Reference(BrickedSource::new(layout, &lookup));
                    let want = render(&reference, &pose, &tf, &cfg);
                    assert_eq!(got, want, "{what}, {} absent, {:?}", absent.len(), cfg.mode);
                }
            }
        }
    }

    /// Poses that put a packet's lanes in different situations: `silhouette`
    /// sees the whole volume with background around it, so some packet of
    /// a `cfg` image has lanes whose rays miss beside lanes whose rays hit;
    /// `inside` puts the camera inside the volume.
    pub(crate) fn edge_poses(
        layout: &BrickLayout,
        cfg: &RenderConfig,
    ) -> [(&'static str, viz_geom::CameraPose); 2] {
        let silhouette = orbit_pose(65.0, 25.0, 2.4, deg_to_rad(70.0));
        let inside = orbit_pose(80.0, 30.0, 0.4, deg_to_rad(30.0));
        let (gen, bounds) = (
            viz_geom::RayGenerator::new(&silhouette, cfg.width, cfg.height),
            layout.world_bounds(),
        );
        let mixed = (0..cfg.height).any(|py| {
            let hits: Vec<bool> = (0..cfg.width)
                .map(|px| gen.ray(px, py).intersect_aabb(&bounds).is_some())
                .collect();
            hits.chunks(LANES).any(|p| p.contains(&true) && p.contains(&false))
        });
        assert!(mixed, "no packet straddles the silhouette");
        assert!(bounds.contains(inside.position), "the camera is outside the volume");
        [("silhouette", silhouette), ("inside", inside)]
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
