//! The served viewer runs the paper's replacement rule exactly: a
//! `ClientTier` as large as the simulator's fast tier, asked for each
//! step's Eq. 1 visible set and then merged with it, misses on every step
//! exactly the blocks Algorithm 1's "pins only" session misses (app-aware,
//! preload and prefetch off: LRU among the blocks outside the current
//! view, PAPER.md §IV-D).
//!
//! The scene is the benchmark's: `lifted_rr` at scale 4, 1,014 bricks.

use std::collections::HashSet;
use std::sync::Arc;
use viz_appaware::cache::{Hierarchy, PolicyKind};
use viz_appaware::core::{
    compute_visibility, run_session_precomputed, AppAwareConfig, ImportanceTable, RadiusRule,
    SamplingConfig, SessionConfig, Strategy, VisibleTable,
};
use viz_appaware::geom::angle::deg_to_rad;
use viz_appaware::geom::rng::SplitMix64;
use viz_appaware::geom::{CameraPath, ExplorationDomain, SphericalPath, Vec3};
use viz_appaware::serve::{BlockReply, ClientTier};
use viz_appaware::volume::{BlockKey, BrickLayout, DatasetKind, DatasetSpec};

#[test]
fn the_viewer_tier_misses_what_the_pins_only_simulator_misses() {
    // Debug builds walk a quarter of each path.
    let steps = if cfg!(debug_assertions) { 100 } else { 400 };
    let dims = DatasetSpec::new(DatasetKind::LiftedRr, 4, 7).resolution();
    let layout = BrickLayout::with_target_blocks(dims, 1024);
    assert_eq!(layout.num_blocks(), 1014);
    let angle = deg_to_rad(15.0);
    let domain = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
    // Preload and prefetch are off, so the session reads neither table;
    // it only requires both.
    let sampling = SamplingConfig::paper_default(2.0, 3.2, angle).with_target_samples(8);
    let t_visible = VisibleTable::build(sampling, &layout, RadiusRule::Fixed(0.05), None);
    let importance = ImportanceTable::from_entropies(vec![0.0; layout.num_blocks()], 64);
    let pins_only = Strategy::AppAware(AppAwareConfig {
        preload: false,
        prefetch: false,
        ..AppAwareConfig::paper(0.0)
    });
    let payload = Arc::new(vec![0.0f32; 4]);

    let mut rng = SplitMix64::new(20170529);
    for step_deg in [5.0, 30.0] {
        // A seeded orbit: its distance and the tilt that spirals it over
        // the sphere.
        let distance = rng.range(2.4, 3.0);
        let precession = rng.range(0.0, 3.0);
        let poses = SphericalPath::new(domain, distance, step_deg, angle)
            .with_precession(precession)
            .generate(steps);
        let visible = compute_visibility(&layout, &poses);
        for ratio in [0.5, 0.7] {
            let cfg = SessionConfig::paper(ratio, layout.nominal_block_bytes());
            let report = run_session_precomputed(
                &cfg,
                &layout,
                &pins_only,
                &poses,
                &visible,
                Some((&t_visible, &importance)),
            );
            let fast = Hierarchy::<u32>::two_level(
                layout.num_blocks(),
                ratio,
                PolicyKind::Lru,
                cfg.block_bytes,
                cfg.tier_costs,
            )
            .tier_capacity(0);

            let mut tier = ClientTier::with_capacity(fast);
            let (mut misses, mut seen) = (0usize, HashSet::new());
            for (step, (set, simulated)) in visible.iter().zip(&report.per_step).enumerate() {
                let keys: Vec<BlockKey> = set.iter().map(|&b| BlockKey::scalar(b)).collect();
                let missed = keys.iter().filter(|&&k| tier.get(k).is_none()).count();
                assert_eq!(
                    missed, simulated.misses,
                    "{step_deg} deg a step, ratio {ratio}, step {step}: viewer vs simulator"
                );
                let frame: Vec<BlockReply> = keys
                    .iter()
                    .map(|&key| BlockReply { key, result: Ok(payload.clone()), crc: None })
                    .collect();
                tier.merge(&frame);
                misses += missed;
                seen.extend(keys);
            }
            assert!(
                misses > seen.len(),
                "{step_deg} deg a step, ratio {ratio}: no block was missed twice, so \
                 nothing was evicted and the rule was not exercised"
            );
        }
    }
}
