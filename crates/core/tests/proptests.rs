//! Property-based tests for the application-aware policy core: 256 seeded
//! cases per property; a failure names the seed and case that replay it.

use viz_core::persist::{decode_visible_table, encode_visible_table};
use viz_core::{
    visible_blocks, visible_blocks_brute_force, ImportanceTable, RadiusModel, RadiusRule,
    SamplingConfig, VisibleTable,
};
use viz_geom::angle::deg_to_rad;
use viz_geom::rng::for_cases;
use viz_geom::CameraPose;
use viz_volume::{BlockId, BrickLayout, Dims3};

const CASES: usize = 256;

/// Eq. 6 solves the cache-fill condition whenever it is interior.
#[test]
fn radius_model_fill_condition() {
    for_cases(0xc001, CASES, |rng, _| {
        let ratio = rng.range(0.05, 0.9);
        let angle_deg = rng.range(5.0, 60.0);
        let d = rng.range(1.5, 5.0);
        let m = RadiusModel::new(ratio, deg_to_rad(angle_deg));
        let r = m.optimal_radius(d);
        assert!(r >= m.min_radius);
        if r > m.min_radius {
            let frac = m.predicted_fraction(d, r);
            assert!((frac - ratio).abs() < 1e-6, "fill {frac} vs ratio {ratio} (r = {r}, d = {d})");
        }
    });
}

/// The optimal radius is monotone: farther cameras need smaller vicinal
/// spheres; larger caches allow bigger ones.
#[test]
fn radius_monotonicity() {
    for_cases(0xc002, CASES, |rng, _| {
        let ratio = rng.range(0.1, 0.6);
        let angle_deg = rng.range(10.0, 40.0);
        let d = rng.range(1.5, 4.0);
        let dd = rng.range(0.01, 1.0);
        let dr = rng.range(0.01, 0.3);
        let m = RadiusModel::new(ratio, deg_to_rad(angle_deg));
        assert!(m.optimal_radius(d + dd) <= m.optimal_radius(d) + 1e-12);
        let m2 = RadiusModel::new((ratio + dr).min(1.0), deg_to_rad(angle_deg));
        assert!(m2.optimal_radius(d) >= m.optimal_radius(d) - 1e-12);
    });
}

/// Importance table ordering is a permutation sorted by entropy.
#[test]
fn importance_ranking_is_sorted_permutation() {
    for_cases(0xc003, CASES, |rng, _| {
        let entropies = (0..rng.index(1..200)).map(|_| rng.range(0.0, 8.0)).collect::<Vec<_>>();
        let t = ImportanceTable::from_entropies(entropies.clone(), 64);
        let ranked = t.ranked();
        assert_eq!(ranked.len(), entropies.len());
        for w in ranked.windows(2) {
            assert!(w[0].entropy >= w[1].entropy);
        }
        // Permutation check: every block appears exactly once.
        let mut seen = vec![false; entropies.len()];
        for e in ranked {
            assert!(!seen[e.block.index()]);
            seen[e.block.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    });
}

/// `above_threshold` and `sigma_for_fraction` are consistent.
#[test]
fn sigma_threshold_consistency() {
    for_cases(0xc004, CASES, |rng, _| {
        let entropies = (0..rng.index(2..100)).map(|_| rng.range(0.0, 8.0)).collect::<Vec<_>>();
        let frac_pct = rng.index(0..100) as u32;
        let t = ImportanceTable::from_entropies(entropies, 64);
        let frac = frac_pct as f64 / 100.0;
        let sigma = t.sigma_for_fraction(frac);
        let above = t.above_threshold(sigma).count();
        // Never more than requested (strict inequality may select fewer
        // under ties).
        let want = ((t.len() as f64) * frac).floor() as usize;
        assert!(above <= want.max(1) + 1, "above {above} want {want}");
    });
}

/// filter_top returns a subset of the input, of bounded size, in
/// non-increasing entropy order.
#[test]
fn filter_top_properties() {
    for_cases(0xc005, CASES, |rng, _| {
        let entropies = (0..rng.index(4..64)).map(|_| rng.range(0.0, 8.0)).collect::<Vec<_>>();
        let max = rng.index(1..16);
        let n = entropies.len();
        let t = ImportanceTable::from_entropies(entropies, 64);
        let set: Vec<viz_volume::BlockId> =
            (0..n as u32).step_by(2).map(viz_volume::BlockId).collect();
        let kept = t.filter_top(&set, max);
        assert!(kept.len() <= max.min(set.len()));
        for k in &kept {
            assert!(set.contains(k));
        }
        for w in kept.windows(2) {
            assert!(t.entropy(w[0]) >= t.entropy(w[1]));
        }
    });
}

/// Nearest-sample prediction always returns a valid table entry, for
/// any camera pose (even outside the sampled shell).
#[test]
fn prediction_total_over_pose_space() {
    for_cases(0xc006, CASES, |rng, _| {
        let theta = rng.range(0.0, 180.0);
        let phi = rng.range(0.0, 360.0);
        let d = rng.range(0.1, 10.0);
        let layout = BrickLayout::new(Dims3::cube(16), Dims3::cube(8));
        let cfg = SamplingConfig {
            n_theta: 4,
            n_phi: 8,
            n_dist: 2,
            d_min: 2.0,
            d_max: 3.0,
            vicinal_points: 2,
            view_angle: deg_to_rad(20.0),
            seed: 5,
        };
        let tv = VisibleTable::build(cfg, &layout, RadiusRule::Fixed(0.1), None);
        let pose = CameraPose::orbit(theta, phi, d, 20.0);
        let predicted = tv.predict(&pose);
        for b in predicted {
            assert!(b.index() < layout.num_blocks());
        }
    });
}

/// BVH-accelerated ground truth is identical to the brute-force linear
/// Eq. 1 scan for randomized layouts, poses and view angles.
#[test]
fn bvh_visibility_matches_brute_force() {
    for_cases(0xc007, CASES, |rng, _| {
        let vol_exp = rng.index(4..7) as u32; // 16³..64³ volumes
        let blk_exp = rng.index(2..5) as u32; // 4³..16³ blocks
        let theta = rng.range(0.0, 180.0);
        let phi = rng.range(0.0, 360.0);
        let d = rng.range(1.2, 6.0);
        let angle_deg = rng.range(2.0, 100.0);
        let layout =
            BrickLayout::new(Dims3::cube(1 << vol_exp), Dims3::cube(1 << blk_exp.min(vol_exp)));
        let pose = CameraPose::orbit(theta, phi, d, angle_deg);
        assert_eq!(visible_blocks(&pose, &layout), visible_blocks_brute_force(&pose, &layout));
    });
}

/// The accelerated table build equals the brute-force build entry for
/// entry (same CSR arrays), for randomized small lattices.
#[test]
fn table_build_matches_brute_force() {
    for_cases(0xc008, CASES, |rng, _| {
        let n_theta = rng.index(2..5);
        let n_phi = rng.index(2..6);
        let vicinal = rng.index(1..4);
        let seed = rng.index(0..1000) as u64;
        let radius = rng.range(0.01, 0.4);
        let layout = BrickLayout::new(Dims3::cube(32), Dims3::cube(8));
        let cfg = SamplingConfig {
            n_theta,
            n_phi,
            n_dist: 2,
            d_min: 1.8,
            d_max: 3.0,
            vicinal_points: vicinal,
            view_angle: deg_to_rad(25.0),
            seed,
        };
        let fast = VisibleTable::build(cfg, &layout, RadiusRule::Fixed(radius), None);
        let slow = VisibleTable::build_brute_force(cfg, &layout, RadiusRule::Fixed(radius), None);
        assert_eq!(fast.csr_offsets(), slow.csr_offsets());
        assert_eq!(fast.csr_ids(), slow.csr_ids());
    });
}

/// A table assembled from arbitrary per-entry id sets survives the CSR
/// flatten and the binary encode/decode unchanged.
#[test]
fn csr_table_roundtrips_persist() {
    for_cases(0xc009, CASES, |rng, _| {
        // 16 sets: must match the 2×4×2 lattice below.
        let raw_sets = (0..16)
            .map(|_| (0..rng.index(0..20)).map(|_| rng.index(0..10_000) as u32).collect::<Vec<_>>())
            .collect::<Vec<_>>();
        let cfg = SamplingConfig {
            n_theta: 2,
            n_phi: 4,
            n_dist: 2,
            d_min: 2.0,
            d_max: 3.0,
            vicinal_points: 1,
            view_angle: deg_to_rad(20.0),
            seed: 1,
        };
        let sets: Vec<Vec<BlockId>> =
            raw_sets.into_iter().map(|s| s.into_iter().map(BlockId).collect()).collect();
        let t = VisibleTable::from_parts(cfg, RadiusRule::Fixed(0.1), sets.clone()).unwrap();
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(t.entry(i), s.as_slice());
        }
        let back = decode_visible_table(&encode_visible_table(&t).unwrap()).unwrap();
        assert_eq!(back.csr_offsets(), t.csr_offsets());
        assert_eq!(back.csr_ids(), t.csr_ids());
    });
}
