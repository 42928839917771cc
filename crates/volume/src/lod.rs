//! Level-of-detail (multi-resolution) pyramid.
//!
//! §III-B discusses the conventional *view-dependent* alternative to the
//! paper's approach: keep a multi-resolution representation and load
//! coarser levels for distant regions. The paper argues this defeats
//! data-dependent analysis (statistics need full resolution). This module
//! builds the pyramid; `tests/render_pipeline.rs` renders from its levels
//! to show image quality falling with each coarser one.

use crate::dims::Dims3;
use crate::field::VolumeField;

/// A mip-style pyramid: level 0 is the native field, each further level
/// halves every axis (rounding up) by box-filter averaging.
#[derive(Debug, Clone, PartialEq)]
pub struct LodPyramid {
    levels: Vec<VolumeField>,
}

/// Identifier of a pyramid level (0 = full resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LodLevel(pub u8);

impl LodPyramid {
    /// Build a pyramid with at most `max_levels` levels (at least 1);
    /// construction stops early when every axis reaches 1 voxel.
    pub fn build(base: VolumeField, max_levels: usize) -> Self {
        assert!(max_levels >= 1, "need at least the base level");
        let mut levels = vec![base];
        while levels.len() < max_levels {
            let prev = levels.last().unwrap();
            if prev.dims.nx <= 1 && prev.dims.ny <= 1 && prev.dims.nz <= 1 {
                break;
            }
            levels.push(downsample(prev));
        }
        LodPyramid { levels }
    }

    /// Number of levels actually built.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Access a level (0 = native resolution).
    pub fn level(&self, l: LodLevel) -> &VolumeField {
        &self.levels[l.0 as usize]
    }

    /// The coarsest available level.
    #[cfg(test)]
    fn coarsest(&self) -> LodLevel {
        LodLevel((self.levels.len() - 1) as u8)
    }

    /// Bytes of one voxel payload at level `l` relative to level 0:
    /// approximately `8^-l` (each level halves three axes).
    #[cfg(test)]
    fn relative_bytes(&self, l: LodLevel) -> f64 {
        let base = self.levels[0].dims.count() as f64;
        self.levels[l.0 as usize].dims.count() as f64 / base
    }

    /// Clamp a requested level to what exists.
    pub fn clamp(&self, l: LodLevel) -> LodLevel {
        LodLevel(l.0.min((self.levels.len() - 1) as u8))
    }
}

/// Box-filter 2× downsample (each output voxel averages its ≤ 8 parents).
fn downsample(src: &VolumeField) -> VolumeField {
    let d = src.dims;
    let nd = Dims3::new(d.nx.div_ceil(2).max(1), d.ny.div_ceil(2).max(1), d.nz.div_ceil(2).max(1));
    let mut out = vec![0.0f32; nd.count()];
    for z in 0..nd.nz {
        for y in 0..nd.ny {
            for x in 0..nd.nx {
                let (mut sum, mut n) = (0.0f64, 0u32);
                for dz in 0..2 {
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let (sx, sy, sz) = (2 * x + dx, 2 * y + dy, 2 * z + dz);
                            if d.contains(sx, sy, sz) {
                                sum += src.get(sx, sy, sz) as f64;
                                n += 1;
                            }
                        }
                    }
                }
                out[nd.index(x, y, z)] = (sum / n.max(1) as f64) as f32;
            }
        }
    }
    VolumeField::from_vec(nd, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> VolumeField {
        let dims = Dims3::cube(n);
        let data: Vec<f32> = (0..dims.count()).map(|i| i as f32).collect();
        VolumeField::from_vec(dims, data)
    }

    #[test]
    fn pyramid_halves_dimensions() {
        let p = LodPyramid::build(ramp(16), 4);
        assert_eq!(p.num_levels(), 4);
        assert_eq!(p.level(LodLevel(0)).dims, Dims3::cube(16));
        assert_eq!(p.level(LodLevel(1)).dims, Dims3::cube(8));
        assert_eq!(p.level(LodLevel(2)).dims, Dims3::cube(4));
        assert_eq!(p.level(LodLevel(3)).dims, Dims3::cube(2));
    }

    #[test]
    fn build_stops_at_single_voxel() {
        let p = LodPyramid::build(ramp(4), 10);
        assert!(p.num_levels() <= 4);
        let c = p.level(p.coarsest());
        assert!(c.dims.nx >= 1);
    }

    #[test]
    fn odd_dimensions_round_up() {
        let dims = Dims3::new(5, 3, 1);
        let f = VolumeField::from_vec(dims, vec![1.0; dims.count()]);
        let p = LodPyramid::build(f, 2);
        assert_eq!(p.level(LodLevel(1)).dims, Dims3::new(3, 2, 1));
    }

    #[test]
    fn downsampling_preserves_constant_fields() {
        let dims = Dims3::cube(8);
        let f = VolumeField::from_vec(dims, vec![3.25; dims.count()]);
        let p = LodPyramid::build(f, 3);
        for l in 0..p.num_levels() {
            for &v in p.level(LodLevel(l as u8)).data() {
                assert_eq!(v, 3.25);
            }
        }
    }

    #[test]
    fn downsampling_preserves_mean() {
        let f = ramp(8);
        let mean0: f64 = f.data().iter().map(|&v| v as f64).sum::<f64>() / f.data().len() as f64;
        let p = LodPyramid::build(f, 2);
        let l1 = p.level(LodLevel(1));
        let mean1: f64 = l1.data().iter().map(|&v| v as f64).sum::<f64>() / l1.data().len() as f64;
        assert!((mean0 - mean1).abs() < 1e-3, "{mean0} vs {mean1}");
    }

    #[test]
    fn downsampling_smooths_entropy() {
        // Coarser levels lose information: histogram entropy must not grow.
        use crate::stats::Histogram;
        let dims = Dims3::cube(16);
        let data: Vec<f32> = (0..dims.count()).map(|i| ((i * 2654435761) % 997) as f32).collect();
        let p = LodPyramid::build(VolumeField::from_vec(dims, data), 3);
        let h0 = Histogram::from_data(p.level(LodLevel(0)).data(), 64).entropy();
        let h2 = Histogram::from_data(p.level(LodLevel(2)).data(), 64).entropy();
        assert!(h2 <= h0 + 1e-9, "coarse level gained entropy: {h2} > {h0}");
    }

    #[test]
    fn relative_bytes_shrink_roughly_8x() {
        let p = LodPyramid::build(ramp(32), 3);
        let r1 = p.relative_bytes(LodLevel(1));
        assert!((r1 - 0.125).abs() < 0.01, "level 1 ratio {r1}");
        assert_eq!(p.relative_bytes(LodLevel(0)), 1.0);
    }

    #[test]
    fn clamp_caps_at_coarsest() {
        let p = LodPyramid::build(ramp(8), 2);
        assert_eq!(p.clamp(LodLevel(9)), LodLevel(1));
        assert_eq!(p.clamp(LodLevel(0)), LodLevel(0));
    }
}
