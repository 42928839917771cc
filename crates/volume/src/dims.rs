//! Grid dimensions and voxel index arithmetic.

/// Dimensions of a 3D voxel grid (x fastest-varying in memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dims3 {
    /// Voxels along x (fastest-varying).
    pub nx: usize,
    /// Voxels along y.
    pub ny: usize,
    /// Voxels along z (slowest-varying).
    pub nz: usize,
}

impl Dims3 {
    /// Construct from per-axis voxel counts.
    pub const fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Dims3 { nx, ny, nz }
    }

    /// Cubic grid `n × n × n`.
    pub const fn cube(n: usize) -> Self {
        Dims3 { nx: n, ny: n, nz: n }
    }

    /// Total voxel count.
    #[inline]
    pub const fn count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Total voxel count, or `None` if it overflows `usize` (dims read
    /// from untrusted bytes).
    pub(crate) fn checked_count(&self) -> Option<usize> {
        self.nx.checked_mul(self.ny)?.checked_mul(self.nz)
    }

    /// Linear index of voxel `(x, y, z)`; x fastest.
    #[inline]
    pub const fn index(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.ny + y) * self.nx + x
    }

    /// Inverse of [`Self::index`].
    #[inline]
    pub const fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let x = idx % self.nx;
        let y = (idx / self.nx) % self.ny;
        let z = idx / (self.nx * self.ny);
        (x, y, z)
    }

    /// `true` when `(x, y, z)` addresses a voxel of this grid.
    #[inline]
    pub const fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        x < self.nx && y < self.ny && z < self.nz
    }

    /// Number of blocks per axis when tiling with `block` (last block may be
    /// partial): ceil-division per axis.
    pub(crate) const fn blocks_for(&self, block: Dims3) -> Dims3 {
        Dims3 {
            nx: self.nx.div_ceil(block.nx),
            ny: self.ny.div_ceil(block.ny),
            nz: self.nz.div_ceil(block.nz),
        }
    }

    /// Longest edge, used to normalize world coordinates.
    #[inline]
    pub(crate) fn max_edge(&self) -> usize {
        self.nx.max(self.ny).max(self.nz)
    }

    /// Size in bytes of an `f32` grid with these dimensions.
    pub const fn bytes_f32(&self) -> usize {
        self.count() * 4
    }
}

impl std::fmt::Display for Dims3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_bytes() {
        let d = Dims3::new(4, 5, 6);
        assert_eq!(d.count(), 120);
        assert_eq!(d.bytes_f32(), 480);
        assert_eq!(d.checked_count(), Some(120));
        assert_eq!(Dims3::cube(u32::MAX as usize).checked_count(), None);
    }

    #[test]
    fn index_coords_roundtrip() {
        let d = Dims3::new(7, 5, 3);
        for idx in 0..d.count() {
            let (x, y, z) = d.coords(idx);
            assert!(d.contains(x, y, z));
            assert_eq!(d.index(x, y, z), idx);
        }
    }

    #[test]
    fn x_is_fastest_varying() {
        let d = Dims3::new(10, 10, 10);
        assert_eq!(d.index(1, 0, 0), 1);
        assert_eq!(d.index(0, 1, 0), 10);
        assert_eq!(d.index(0, 0, 1), 100);
    }

    #[test]
    fn blocks_for_exact_and_partial() {
        let d = Dims3::new(64, 64, 64);
        assert_eq!(d.blocks_for(Dims3::cube(32)), Dims3::cube(2));
        let e = Dims3::new(65, 64, 63);
        assert_eq!(e.blocks_for(Dims3::cube(32)), Dims3::new(3, 2, 2));
    }

    #[test]
    fn contains_boundaries() {
        let d = Dims3::new(2, 3, 4);
        assert!(d.contains(1, 2, 3));
        assert!(!d.contains(2, 2, 3));
        assert!(!d.contains(1, 3, 3));
        assert!(!d.contains(1, 2, 4));
    }

    #[test]
    fn display_format() {
        assert_eq!(Dims3::new(800, 686, 215).to_string(), "800x686x215");
    }
}
