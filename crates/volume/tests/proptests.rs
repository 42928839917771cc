//! Property-based tests for the volume substrate: 256 seeded cases per
//! property; a failure names the seed and case that replay it.

use viz_geom::rng::{for_cases, SplitMix64};
use viz_volume::store::{decode_block, encode_block};
use viz_volume::{BlockStats, BrickLayout, Dims3, Histogram, VolumeField};

const CASES: usize = 256;

fn dims_strategy(rng: &mut SplitMix64, max: usize) -> Dims3 {
    Dims3::new(rng.index(1..max + 1), rng.index(1..max + 1), rng.index(1..max + 1))
}

#[test]
fn dims_index_roundtrip() {
    for_cases(0x7601, CASES, |rng, _| {
        let d = dims_strategy(rng, 12);
        let idx_seed = rng.index(0..10_000);
        let idx = idx_seed % d.count();
        let (x, y, z) = d.coords(idx);
        assert!(d.contains(x, y, z));
        assert_eq!(d.index(x, y, z), idx);
    });
}

#[test]
fn layout_tiles_exactly() {
    for_cases(0x7602, CASES, |rng, _| {
        let volume = dims_strategy(rng, 24);
        let block = dims_strategy(rng, 9);
        let layout = BrickLayout::new(volume, block);
        // Sum of block voxel counts equals the volume voxel count.
        let total: usize = layout.block_ids().map(|id| layout.block_dims(id).count()).sum();
        assert_eq!(total, volume.count());
        // block_of_voxel agrees with voxel_range.
        let probe = [(0, 0, 0), (volume.nx - 1, volume.ny - 1, volume.nz - 1)];
        for (x, y, z) in probe {
            let id = layout.block_of_voxel(x, y, z);
            let (s, e) = layout.voxel_range(id);
            assert!(x >= s.nx && x < e.nx && y >= s.ny && y < e.ny && z >= s.nz && z < e.nz);
        }
    });
}

#[test]
fn world_roundtrip() {
    for_cases(0x7603, CASES, |rng, _| {
        let volume = dims_strategy(rng, 32);
        let px = rng.range(0.0, 32.0);
        let py = rng.range(0.0, 32.0);
        let pz = rng.range(0.0, 32.0);
        let layout = BrickLayout::new(volume, Dims3::cube(4));
        let p = viz_geom::Vec3::new(px, py, pz);
        let back = layout.world_to_voxel(layout.voxel_to_world(p));
        assert!(p.distance(back) < 1e-9 * (1.0 + p.norm()));
    });
}

#[test]
fn world_bounds_longest_edge_normalized() {
    for_cases(0x7604, CASES, |rng, _| {
        let volume = dims_strategy(rng, 64);
        let layout = BrickLayout::new(volume, Dims3::cube(8));
        let e = layout.world_bounds().extent();
        let longest = e.x.max(e.y).max(e.z);
        assert!((longest - 2.0).abs() < 1e-9);
    });
}

#[test]
fn entropy_is_bounded() {
    for_cases(0x7605, CASES, |rng, _| {
        let values =
            (0..rng.index(1..500)).map(|_| rng.range(-100.0, 100.0) as f32).collect::<Vec<_>>();
        let bins = rng.index(1..128);
        let h = Histogram::from_data(&values, bins);
        let e = h.entropy();
        assert!(e >= 0.0);
        assert!(e <= (bins as f64).log2() + 1e-9);
    });
}

#[test]
fn entropy_invariant_under_permutation() {
    for_cases(0x7606, CASES, |rng, _| {
        let mut values =
            (0..rng.index(2..200)).map(|_| rng.range(0.0, 1.0) as f32).collect::<Vec<_>>();
        let a = Histogram::from_data(&values, 32).entropy();
        values.reverse();
        let b = Histogram::from_data(&values, 32).entropy();
        assert!((a - b).abs() < 1e-12);
    });
}

#[test]
fn histogram_total_counts_non_nan() {
    for_cases(0x7607, CASES, |rng, _| {
        let values = (0..rng.index(0..200))
            .map(|_| f32::from_bits(rng.next_u64() as u32))
            .collect::<Vec<_>>();
        let mut h = Histogram::new(-1e30, 1e30, 16);
        h.add_all(&values);
        let non_nan = values.iter().filter(|v| !v.is_nan()).count() as u64;
        assert_eq!(h.total, non_nan);
        assert_eq!(h.counts.iter().sum::<u64>(), non_nan);
    });
}

#[test]
fn block_stats_min_max_bracket_mean() {
    for_cases(0x7608, CASES, |rng, _| {
        let values =
            (0..rng.index(1..300)).map(|_| rng.range(-1000.0, 1000.0) as f32).collect::<Vec<_>>();
        let s = BlockStats::compute(&values, -1000.0, 1000.0, 32);
        assert!(s.min <= s.max);
        assert!(s.mean >= s.min - 1e-3 && s.mean <= s.max + 1e-3);
    });
}

#[test]
fn encode_decode_roundtrip() {
    for_cases(0x7609, CASES, |rng, _| {
        let dims = dims_strategy(rng, 6);
        let seed = rng.index(0..1000) as u64;
        let n = dims.count();
        let data: Vec<f32> = (0..n)
            .map(|i| ((seed.wrapping_add(i as u64).wrapping_mul(2654435761)) % 1000) as f32 / 7.0)
            .collect();
        let buf = encode_block(dims, &data);
        let (d2, v2) = decode_block(&buf).unwrap();
        assert_eq!(d2, dims);
        assert_eq!(v2, data);
    });
}

#[test]
fn truncated_frames_never_decode() {
    for_cases(0x760a, CASES, |rng, _| {
        let dims = dims_strategy(rng, 4);
        let cut = rng.index(1..8);
        let data = vec![1.0f32; dims.count()];
        let buf = encode_block(dims, &data);
        let end = buf.len().saturating_sub(cut);
        assert!(decode_block(&buf[..end]).is_err());
    });
}

/// Raw frames roundtrip arbitrary bit patterns exactly (including NaN
/// payloads and infinities), through the full frame path.
#[test]
fn raw_frames_roundtrip_bitexact() {
    for_cases(0x760b, CASES, |rng, _| {
        let dims = dims_strategy(rng, 5);
        let seed = rng.index(0..5000) as u64;
        let n = dims.count();
        let data: Vec<f32> = (0..n)
            .map(|i| {
                f32::from_bits(
                    ((seed).wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32) as u32,
                )
            })
            .collect();
        let (d2, v2) = decode_block(&encode_block(dims, &data)).unwrap();
        assert_eq!(d2, dims);
        assert_eq!(v2.len(), data.len());
        for (a, b) in data.iter().zip(&v2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    });
}

#[test]
fn extract_block_lengths_match() {
    for_cases(0x760d, CASES, |rng, _| {
        let volume = dims_strategy(rng, 16);
        let block = dims_strategy(rng, 6);
        let layout = BrickLayout::new(volume, block);
        let field = VolumeField::from_function(
            volume,
            &|x: f64, y: f64, z: f64, _t: f64| (x * 31.0 + y * 7.0 + z) as f32,
            0.0,
        );
        for id in layout.block_ids() {
            let data = field.extract_block(&layout, id);
            assert_eq!(data.len(), layout.block_dims(id).count());
        }
    });
}

#[test]
fn trilinear_within_data_range() {
    for_cases(0x760e, CASES, |rng, _| {
        let x = rng.range(-5.0, 20.0);
        let y = rng.range(-5.0, 20.0);
        let z = rng.range(-5.0, 20.0);
        let dims = Dims3::cube(8);
        let field = VolumeField::from_function(
            dims,
            &|x: f64, y: f64, z: f64, _t: f64| (x + y + z) as f32,
            0.0,
        );
        let (lo, hi) = field.min_max();
        let v = field.sample_trilinear(x, y, z);
        assert!(v >= lo - 1e-6 && v <= hi + 1e-6, "interpolation escaped range");
    });
}
