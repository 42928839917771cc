//! Materialized scalar fields and the generator interface.

use crate::dims::Dims3;
use crate::layout::{BlockId, BrickLayout};
use viz_geom::par;

/// A procedural scalar field evaluated in normalized coordinates:
/// `x, y, z` in `[0, 1]` over the volume, `t` in `[0, 1]` over the dataset's
/// time span (generators for static datasets ignore `t`).
pub trait ScalarFunction: Sync {
    /// Evaluate the field.
    fn eval(&self, x: f64, y: f64, z: f64, t: f64) -> f32;
}

impl<F> ScalarFunction for F
where
    F: Fn(f64, f64, f64, f64) -> f32 + Sync,
{
    fn eval(&self, x: f64, y: f64, z: f64, t: f64) -> f32 {
        self(x, y, z, t)
    }
}

/// A fully materialized voxel grid of `f32` samples (one variable at one
/// timestep), the in-memory form the renderer and entropy pass consume.
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeField {
    /// Grid dimensions.
    pub dims: Dims3,
    data: Vec<f32>,
}

impl VolumeField {
    /// Wrap an existing grid. `data.len()` must equal `dims.count()`.
    pub fn from_vec(dims: Dims3, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), dims.count(), "grid size mismatch");
        VolumeField { dims, data }
    }

    /// Evaluate `f` at every voxel center, in parallel over z-slabs.
    pub fn from_function<F: ScalarFunction + ?Sized>(dims: Dims3, f: &F, t: f64) -> Self {
        let (nx, ny, nz) = (dims.nx, dims.ny, dims.nz);
        let inv = (1.0 / nx.max(1) as f64, 1.0 / ny.max(1) as f64, 1.0 / nz.max(1) as f64);
        let mut data = vec![0.0f32; dims.count()];
        let slab = nx * ny;
        par::for_each(data.chunks_mut(slab).enumerate(), |(z, chunk)| {
            let zc = (z as f64 + 0.5) * inv.2;
            for y in 0..ny {
                let yc = (y as f64 + 0.5) * inv.1;
                let row = &mut chunk[y * nx..(y + 1) * nx];
                for (x, out) in row.iter_mut().enumerate() {
                    let xc = (x as f64 + 0.5) * inv.0;
                    *out = f.eval(xc, yc, zc, t);
                }
            }
        });
        VolumeField { dims, data }
    }

    /// Raw sample at voxel `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        debug_assert!(self.dims.contains(x, y, z));
        self.data[self.dims.index(x, y, z)]
    }

    /// The underlying grid, x fastest.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Trilinear interpolation at fractional voxel coordinates; clamps to
    /// the grid edge (samples live at voxel centers).
    pub fn sample_trilinear(&self, x: f64, y: f64, z: f64) -> f32 {
        let cx = (x - 0.5).clamp(0.0, (self.dims.nx - 1) as f64);
        let cy = (y - 0.5).clamp(0.0, (self.dims.ny - 1) as f64);
        let cz = (z - 0.5).clamp(0.0, (self.dims.nz - 1) as f64);
        let (x0, y0, z0) = (cx.floor() as usize, cy.floor() as usize, cz.floor() as usize);
        let x1 = (x0 + 1).min(self.dims.nx - 1);
        let y1 = (y0 + 1).min(self.dims.ny - 1);
        let z1 = (z0 + 1).min(self.dims.nz - 1);
        let (fx, fy, fz) = (cx - x0 as f64, cy - y0 as f64, cz - z0 as f64);
        let g = |x: usize, y: usize, z: usize| self.get(x, y, z) as f64;
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let c00 = lerp(g(x0, y0, z0), g(x1, y0, z0), fx);
        let c10 = lerp(g(x0, y1, z0), g(x1, y1, z0), fx);
        let c01 = lerp(g(x0, y0, z1), g(x1, y0, z1), fx);
        let c11 = lerp(g(x0, y1, z1), g(x1, y1, z1), fx);
        lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz) as f32
    }

    /// Copy out the voxels of one block of `layout` (which must describe
    /// this field's dims), in block-local x-fastest order.
    pub fn extract_block(&self, layout: &BrickLayout, id: BlockId) -> Vec<f32> {
        assert_eq!(layout.volume, self.dims, "layout does not match field");
        let (s, e) = layout.voxel_range(id);
        let mut out = Vec::with_capacity((e.nx - s.nx) * (e.ny - s.ny) * (e.nz - s.nz));
        for z in s.nz..e.nz {
            for y in s.ny..e.ny {
                let base = self.dims.index(s.nx, y, z);
                out.extend_from_slice(&self.data[base..base + (e.nx - s.nx)]);
            }
        }
        out
    }

    /// Global minimum and maximum (NaN-free fields assumed; NaNs are
    /// propagated into the result deterministically as "ignored").
    pub fn min_max(&self) -> (f32, f32) {
        let fold = |(lo, hi): (f32, f32), v: &f32| (lo.min(*v), hi.max(*v));
        let unit = (f32::INFINITY, f32::NEG_INFINITY);
        par::map_ranges(self.data.len(), |range| self.data[range].iter().fold(unit, fold))
            .into_iter()
            .fold(unit, |a, b| (a.0.min(b.0), a.1.max(b.1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> VolumeField {
        // f = x index, so values 0..nx-1 repeated.
        let dims = Dims3::new(8, 4, 2);
        let mut data = vec![0.0; dims.count()];
        for z in 0..2 {
            for y in 0..4 {
                for x in 0..8 {
                    data[dims.index(x, y, z)] = x as f32;
                }
            }
        }
        VolumeField::from_vec(dims, data)
    }

    #[test]
    #[should_panic]
    fn from_vec_size_mismatch_panics() {
        VolumeField::from_vec(Dims3::cube(4), vec![0.0; 3]);
    }

    #[test]
    fn from_function_evaluates_at_voxel_centers() {
        let f = |x: f64, _y: f64, _z: f64, _t: f64| x as f32;
        let vf = VolumeField::from_function(Dims3::new(4, 1, 1), &f, 0.0);
        // Centers at 0.125, 0.375, 0.625, 0.875.
        assert!((vf.get(0, 0, 0) - 0.125).abs() < 1e-6);
        assert!((vf.get(3, 0, 0) - 0.875).abs() < 1e-6);
    }

    #[test]
    fn from_function_passes_time() {
        let f = |_x: f64, _y: f64, _z: f64, t: f64| t as f32;
        let vf = VolumeField::from_function(Dims3::cube(2), &f, 0.75);
        assert_eq!(vf.get(1, 1, 1), 0.75);
    }

    #[test]
    fn trilinear_matches_exact_on_linear_field() {
        let vf = ramp();
        // At fractional voxel coordinate x the linear ramp interpolates to
        // x - 0.5 (samples at centers).
        let v = vf.sample_trilinear(3.0, 2.0, 1.0);
        assert!((v - 2.5).abs() < 1e-6);
    }

    #[test]
    fn trilinear_clamps_at_edges() {
        let vf = ramp();
        assert_eq!(vf.sample_trilinear(-5.0, 0.0, 0.0), 0.0);
        assert_eq!(vf.sample_trilinear(100.0, 3.0, 1.0), 7.0);
    }

    #[test]
    fn extract_block_matches_get() {
        let vf = ramp();
        let layout = BrickLayout::new(vf.dims, Dims3::new(4, 2, 2));
        for id in layout.block_ids() {
            let blk = vf.extract_block(&layout, id);
            let (s, e) = layout.voxel_range(id);
            let mut i = 0;
            for z in s.nz..e.nz {
                for y in s.ny..e.ny {
                    for x in s.nx..e.nx {
                        assert_eq!(blk[i], vf.get(x, y, z));
                        i += 1;
                    }
                }
            }
            assert_eq!(i, blk.len());
        }
    }

    #[test]
    fn extract_partial_edge_block() {
        let dims = Dims3::new(5, 3, 2);
        let data: Vec<f32> = (0..dims.count()).map(|i| i as f32).collect();
        let vf = VolumeField::from_vec(dims, data);
        let layout = BrickLayout::new(dims, Dims3::new(4, 4, 4));
        // Second x-block is 1 voxel wide.
        let id = layout.block_at(1, 0, 0);
        let blk = vf.extract_block(&layout, id);
        assert_eq!(blk.len(), 3 * 2);
        assert_eq!(blk[0], vf.get(4, 0, 0));
    }

    #[test]
    fn min_max_of_ramp() {
        let (lo, hi) = ramp().min_max();
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 7.0);
    }
}
