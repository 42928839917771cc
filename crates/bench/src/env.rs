//! Shared experiment environment: dataset + layout + tables + paths,
//! configured the way the paper's §V-A describes.

use viz_core::{
    ImportanceTable, RadiusModel, RadiusRule, SamplingConfig, SessionConfig, VisibleTable,
};
use viz_geom::angle::deg_to_rad;
use viz_geom::{CameraPath, CameraPose, ExplorationDomain, RandomWalkPath, SphericalPath, Vec3};
use viz_volume::{BrickLayout, DatasetKind, DatasetSpec, Dims3};

/// Frustum view angle used throughout the experiments (degrees).
pub const VIEW_ANGLE_DEG: f64 = 15.0;

/// Camera distance range of the exploration domain Ω (normalized units;
/// the volume's bounding radius is √3 ≈ 1.73).
pub const D_MIN: f64 = 2.0;
/// Upper end of the camera distance range.
pub const D_MAX: f64 = 3.2;

/// A prepared experiment environment for one dataset/partition.
pub struct Env {
    /// Dataset descriptor.
    pub spec: DatasetSpec,
    /// The block partition under test.
    pub layout: BrickLayout,
    /// `T_important` for variable 0 at t = 0.
    pub importance: ImportanceTable,
    /// Bytes of one nominal block (drives the I/O cost model).
    pub block_bytes: usize,
}

impl Env {
    /// Build an environment for `kind` at `scale`, partitioned into
    /// approximately `target_blocks` blocks.
    pub fn new(kind: DatasetKind, scale: usize, target_blocks: usize, seed: u64) -> Self {
        let spec = DatasetSpec::new(kind, scale, seed);
        let layout = BrickLayout::with_target_blocks(spec.resolution(), target_blocks);
        Self::with_layout(spec, layout)
    }

    /// Build with an explicit block size (for the Fig. 9 block-size sweep).
    pub fn with_block_dims(kind: DatasetKind, scale: usize, block: Dims3, seed: u64) -> Self {
        let spec = DatasetSpec::new(kind, scale, seed);
        let layout = BrickLayout::new(spec.resolution(), block);
        Self::with_layout(spec, layout)
    }

    fn with_layout(spec: DatasetSpec, layout: BrickLayout) -> Self {
        let field = spec.materialize(0, 0.0);
        let importance = ImportanceTable::from_field(&layout, &field, 64);
        let block_bytes = layout.nominal_block_bytes();
        Env { spec, layout, importance, block_bytes }
    }

    /// The exploration domain Ω used by every experiment.
    pub fn domain() -> ExplorationDomain {
        ExplorationDomain::new(Vec3::ZERO, D_MIN, D_MAX)
    }

    /// Frustum view angle in radians.
    pub fn view_angle() -> f64 {
        deg_to_rad(VIEW_ANGLE_DEG)
    }

    /// Session configuration at a cache ratio.
    pub fn session_config(&self, cache_ratio: f64) -> SessionConfig {
        SessionConfig::paper(cache_ratio, self.block_bytes)
    }

    /// A spherical path with `step_deg` view change per position.
    pub fn spherical_path(&self, step_deg: f64, steps: usize) -> Vec<CameraPose> {
        SphericalPath::new(Self::domain(), 2.5, step_deg, Self::view_angle())
            .with_precession(step_deg * 0.2)
            .generate(steps)
    }

    /// A random path with per-step view change in `[lo, hi]` degrees and
    /// varying distance (the paper's random paths have "randomly different
    /// d and l values").
    pub fn random_path(&self, lo: f64, hi: f64, steps: usize, seed: u64) -> Vec<CameraPose> {
        RandomWalkPath::new(Self::domain(), 2.5, lo, hi, Self::view_angle(), seed)
            .with_distance_jitter(0.05)
            .generate(steps)
    }

    /// A random path with per-step view change in `[lo, hi]` degrees and a
    /// strong zoom component: the distance jitter sweeps the whole shell
    /// (used where adaptive-radius behaviour matters, e.g. Fig. 11).
    pub fn zooming_random_path(
        &self,
        lo: f64,
        hi: f64,
        steps: usize,
        seed: u64,
    ) -> Vec<CameraPose> {
        RandomWalkPath::new(Self::domain(), 2.5, lo, hi, Self::view_angle(), seed)
            .with_distance_jitter(0.4)
            .generate(steps)
    }

    /// Build `T_visible` with roughly `target_samples` positions using the
    /// optimal-radius rule at `cache_ratio`.
    pub fn visible_table(&self, target_samples: usize, cache_ratio: f64) -> VisibleTable {
        let model = RadiusModel::new(cache_ratio, Self::view_angle());
        self.visible_table_with_rule(target_samples, RadiusRule::Optimal(model))
    }

    /// Build `T_visible` with an explicit radius rule (Fig. 11's fixed-r
    /// baselines).
    pub fn visible_table_with_rule(&self, target_samples: usize, rule: RadiusRule) -> VisibleTable {
        let cfg = SamplingConfig::paper_default(D_MIN, D_MAX, Self::view_angle())
            .with_target_samples(target_samples);
        // Cap entries at the DRAM capacity for a 0.25-of-dataset cache so a
        // single prediction can never flush the whole fast tier (the §IV-C
        // over-prediction guard).
        let cap = (self.layout.num_blocks() / 4).max(1);
        VisibleTable::build(cfg, &self.layout, rule, Some((&self.importance, cap)))
    }

    /// A sensible entropy threshold σ: the median block entropy, above
    /// which at most half the blocks lie (the paper does not publish its σ;
    /// half the blocks being "important" matches its combustion/climate
    /// narratives). Ties at the median put fewer than half strictly above
    /// it; see [`ImportanceTable::sigma_for_fraction`].
    pub fn sigma(&self) -> f64 {
        self.importance.sigma_for_fraction(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_builds_for_every_dataset() {
        for kind in DatasetKind::ALL {
            let env = Env::new(kind, 16, 64, 1);
            assert!(env.layout.num_blocks() >= 32, "{kind:?}");
            assert_eq!(env.importance.len(), env.layout.num_blocks());
            assert!(env.block_bytes > 0);
        }
    }

    #[test]
    fn paths_have_requested_length() {
        let env = Env::new(DatasetKind::Ball3d, 16, 64, 1);
        assert_eq!(env.spherical_path(5.0, 50).len(), 50);
        assert_eq!(env.random_path(10.0, 15.0, 50, 2).len(), 50);
    }

    #[test]
    fn visible_table_has_capped_entries() {
        let env = Env::new(DatasetKind::Ball3d, 16, 64, 1);
        let tv = env.visible_table(720, 0.5);
        let cap = env.layout.num_blocks() / 4;
        for i in 0..tv.len() {
            assert!(tv.entry(i).len() <= cap);
        }
    }

    #[test]
    fn sigma_splits_blocks_in_half() {
        let env = Env::new(DatasetKind::LiftedRr, 16, 64, 1);
        let sigma = env.sigma();
        let above = env.importance.above_threshold(sigma).count();
        let n = env.layout.num_blocks();
        assert!(above >= n / 4 && above <= 3 * n / 4, "{above}/{n}");
    }
}
