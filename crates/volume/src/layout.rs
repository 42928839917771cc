//! Brick layout: the uniform block partition of a volume (§IV, "a volume
//! data is divided into a set of uniform-size blocks") and its mapping into
//! the paper's normalized world coordinates (volume edge = 2, centered at
//! the origin; see Fig. 10).

use crate::bvh::BlockBvh;
use crate::dims::Dims3;
use std::sync::OnceLock;
use viz_geom::{Aabb, Vec3};

/// Identifier of a block within a layout (dense, `0..layout.num_blocks()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(/** Dense index within the layout. */ pub u32);

impl BlockId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// The uniform partition of a voxel grid into blocks, plus the voxel→world
/// transform. World coordinates normalize the *longest* volume edge to 2
/// (so coordinates span `[-1, 1]` on that axis), exactly the normalization
/// the paper's radius model assumes.
#[derive(Debug, Clone)]
pub struct BrickLayout {
    /// Voxel dimensions of the whole volume.
    pub volume: Dims3,
    /// Nominal voxel dimensions of one block (edge blocks may be smaller).
    pub block: Dims3,
    /// Number of blocks along each axis.
    pub grid: Dims3,
    /// Lazily-built spatial index over the block AABBs (see
    /// [`Self::block_bvh`]); derived data, excluded from comparison.
    bvh: OnceLock<BlockBvh>,
}

impl PartialEq for BrickLayout {
    fn eq(&self, other: &Self) -> bool {
        self.volume == other.volume && self.block == other.block && self.grid == other.grid
    }
}

impl Eq for BrickLayout {}

impl BrickLayout {
    /// Partition `volume` into blocks of nominal size `block`.
    pub fn new(volume: Dims3, block: Dims3) -> Self {
        assert!(block.nx > 0 && block.ny > 0 && block.nz > 0, "block dims must be positive");
        assert!(volume.nx > 0 && volume.ny > 0 && volume.nz > 0, "volume dims must be positive");
        let grid = volume.blocks_for(block);
        BrickLayout { volume, block, grid, bvh: OnceLock::new() }
    }

    /// Partition targeting approximately `target_blocks` equal cubes.
    ///
    /// The paper reports block *counts* (1024, 2048, 4096); this helper maps
    /// a count to per-axis splits proportional to the volume's aspect ratio.
    pub fn with_target_blocks(volume: Dims3, target_blocks: usize) -> Self {
        assert!(target_blocks > 0);
        // Choose per-axis split counts s_x*s_y*s_z ≈ target, with splits
        // proportional to edge lengths (cube-ish blocks).
        let (vx, vy, vz) = (volume.nx as f64, volume.ny as f64, volume.nz as f64);
        let geo = (vx * vy * vz).powf(1.0 / 3.0);
        let k = (target_blocks as f64).powf(1.0 / 3.0);
        let sx = ((vx / geo * k).round() as usize).max(1).min(volume.nx);
        let sy = ((vy / geo * k).round() as usize).max(1).min(volume.ny);
        let sz = ((vz / geo * k).round() as usize).max(1).min(volume.nz);
        let block =
            Dims3::new(volume.nx.div_ceil(sx), volume.ny.div_ceil(sy), volume.nz.div_ceil(sz));
        BrickLayout::new(volume, block)
    }

    /// Total number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.grid.count()
    }

    /// Iterate over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.num_blocks() as u32).map(BlockId)
    }

    /// Block grid coordinates of `id`.
    #[inline]
    pub fn block_coords(&self, id: BlockId) -> (usize, usize, usize) {
        self.grid.coords(id.index())
    }

    /// Block id at block-grid coordinates.
    #[inline]
    pub fn block_at(&self, bx: usize, by: usize, bz: usize) -> BlockId {
        debug_assert!(self.grid.contains(bx, by, bz));
        BlockId(self.grid.index(bx, by, bz) as u32)
    }

    /// Block containing voxel `(x, y, z)`.
    #[inline]
    pub fn block_of_voxel(&self, x: usize, y: usize, z: usize) -> BlockId {
        debug_assert!(self.volume.contains(x, y, z));
        self.block_at(x / self.block.nx, y / self.block.ny, z / self.block.nz)
    }

    /// Voxel extent of `id`: inclusive start, exclusive end per axis.
    /// Edge blocks are clipped to the volume.
    pub fn voxel_range(&self, id: BlockId) -> (Dims3, Dims3) {
        let (bx, by, bz) = self.block_coords(id);
        let start = Dims3::new(bx * self.block.nx, by * self.block.ny, bz * self.block.nz);
        let end = Dims3::new(
            (start.nx + self.block.nx).min(self.volume.nx),
            (start.ny + self.block.ny).min(self.volume.ny),
            (start.nz + self.block.nz).min(self.volume.nz),
        );
        (start, end)
    }

    /// Actual voxel dimensions of `id` (clipped at volume edges).
    pub fn block_dims(&self, id: BlockId) -> Dims3 {
        let (s, e) = self.voxel_range(id);
        Dims3::new(e.nx - s.nx, e.ny - s.ny, e.nz - s.nz)
    }

    /// Size in bytes of one nominal (full) block of `f32` voxels.
    pub fn nominal_block_bytes(&self) -> usize {
        self.block.bytes_f32()
    }

    /// World-space scale: voxels → normalized coordinates where the longest
    /// edge spans `[-1, 1]`.
    fn world_scale(&self) -> f64 {
        2.0 / self.volume.max_edge() as f64
    }

    /// Map a voxel-space point to world space.
    pub fn voxel_to_world(&self, p: Vec3) -> Vec3 {
        let s = self.world_scale();
        let half = Vec3::new(
            self.volume.nx as f64 * 0.5,
            self.volume.ny as f64 * 0.5,
            self.volume.nz as f64 * 0.5,
        );
        (p - half) * s
    }

    /// Map a world-space point back to (fractional) voxel coordinates.
    pub fn world_to_voxel(&self, p: Vec3) -> Vec3 {
        let s = self.world_scale();
        let half = Vec3::new(
            self.volume.nx as f64 * 0.5,
            self.volume.ny as f64 * 0.5,
            self.volume.nz as f64 * 0.5,
        );
        p / s + half
    }

    /// World-space bounding box of the whole volume.
    pub fn world_bounds(&self) -> Aabb {
        Aabb::new(
            self.voxel_to_world(Vec3::ZERO),
            self.voxel_to_world(Vec3::new(
                self.volume.nx as f64,
                self.volume.ny as f64,
                self.volume.nz as f64,
            )),
        )
    }

    /// World-space bounding box of one block (its corners are the `b_i` of
    /// the paper's Eq. 1).
    pub fn block_bounds(&self, id: BlockId) -> Aabb {
        let (s, e) = self.voxel_range(id);
        Aabb::new(
            self.voxel_to_world(Vec3::new(s.nx as f64, s.ny as f64, s.nz as f64)),
            self.voxel_to_world(Vec3::new(e.nx as f64, e.ny as f64, e.nz as f64)),
        )
    }

    /// World-space bounds of every block, indexed by `BlockId`.
    pub fn all_block_bounds(&self) -> Vec<Aabb> {
        self.block_ids().map(|id| self.block_bounds(id)).collect()
    }

    /// The spatial index over this layout's block AABBs, built on first use
    /// and cached for the layout's lifetime (thread-safe). Accelerated
    /// queries through it return exactly the brute-force Eq. 1 visible set.
    pub fn block_bvh(&self) -> &BlockBvh {
        self.bvh.get_or_init(|| BlockBvh::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_partition_counts() {
        let l = BrickLayout::new(Dims3::cube(128), Dims3::cube(32));
        assert_eq!(l.grid, Dims3::cube(4));
        assert_eq!(l.num_blocks(), 64);
    }

    #[test]
    fn partial_edge_blocks_are_clipped() {
        let l = BrickLayout::new(Dims3::new(100, 64, 64), Dims3::cube(32));
        assert_eq!(l.grid, Dims3::new(4, 2, 2));
        // Last x-block covers voxels 96..100 → width 4.
        let id = l.block_at(3, 0, 0);
        assert_eq!(l.block_dims(id), Dims3::new(4, 32, 32));
    }

    #[test]
    fn block_of_voxel_matches_ranges() {
        let l = BrickLayout::new(Dims3::new(70, 50, 30), Dims3::new(16, 16, 16));
        for &(x, y, z) in &[(0, 0, 0), (69, 49, 29), (16, 16, 16), (15, 31, 17)] {
            let id = l.block_of_voxel(x, y, z);
            let (s, e) = l.voxel_range(id);
            assert!(x >= s.nx && x < e.nx);
            assert!(y >= s.ny && y < e.ny);
            assert!(z >= s.nz && z < e.nz);
        }
    }

    #[test]
    fn voxel_ranges_tile_the_volume_exactly() {
        let l = BrickLayout::new(Dims3::new(33, 17, 9), Dims3::new(8, 8, 8));
        let mut covered = vec![false; l.volume.count()];
        for id in l.block_ids() {
            let (s, e) = l.voxel_range(id);
            for z in s.nz..e.nz {
                for y in s.ny..e.ny {
                    for x in s.nx..e.nx {
                        let idx = l.volume.index(x, y, z);
                        assert!(!covered[idx], "voxel covered twice");
                        covered[idx] = true;
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "some voxel uncovered");
    }

    #[test]
    fn world_bounds_longest_edge_is_two() {
        let l = BrickLayout::new(Dims3::new(800, 686, 215), Dims3::cube(64));
        let wb = l.world_bounds();
        let e = wb.extent();
        assert!((e.x - 2.0).abs() < 1e-12); // longest axis normalized
        assert!(e.y < 2.0 && e.z < 2.0);
        assert!(wb.center().norm() < 1e-12); // centered at origin
    }

    #[test]
    fn voxel_world_roundtrip() {
        let l = BrickLayout::new(Dims3::new(100, 50, 25), Dims3::cube(16));
        let p = Vec3::new(12.5, 40.0, 3.0);
        let back = l.world_to_voxel(l.voxel_to_world(p));
        assert!(p.distance(back) < 1e-9);
    }

    #[test]
    fn block_bounds_tile_world_bounds() {
        let l = BrickLayout::new(Dims3::cube(64), Dims3::cube(16));
        let wb = l.world_bounds();
        let mut total = 0.0;
        for id in l.block_ids() {
            let bb = l.block_bounds(id);
            total += bb.volume();
            // Every block inside world bounds (with tolerance).
            assert!(wb.contains(bb.center()));
        }
        assert!((total - wb.volume()).abs() < 1e-9);
    }

    #[test]
    fn target_blocks_is_approximate_for_cubes() {
        for target in [64usize, 512, 1024, 2048, 4096] {
            let l = BrickLayout::with_target_blocks(Dims3::cube(256), target);
            let n = l.num_blocks();
            // Within a factor of 2 of the request.
            assert!(n >= target / 2 && n <= target * 2, "target {target} produced {n} blocks");
        }
    }

    #[test]
    fn target_blocks_respects_aspect_ratio() {
        // An elongated volume should be split more along its long axis.
        let l = BrickLayout::with_target_blocks(Dims3::new(400, 100, 100), 64);
        assert!(l.grid.nx > l.grid.ny);
        assert!(l.grid.nx > l.grid.nz);
    }

    #[test]
    fn paper_block_example_lifted_rr() {
        // §V-B2: lifted_rr 800×800×400 partitioned into 1024 blocks with
        // block size 50×100×50 → grid 16×8×8.
        let l = BrickLayout::new(Dims3::new(800, 800, 400), Dims3::new(50, 100, 50));
        assert_eq!(l.num_blocks(), 1024);
    }

    #[test]
    #[should_panic]
    fn zero_block_dim_panics() {
        BrickLayout::new(Dims3::cube(8), Dims3::new(0, 1, 1));
    }
}
