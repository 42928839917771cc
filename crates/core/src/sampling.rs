//! Camera-position sampling and the `T_visible` look-up table (§IV-B).
//!
//! Camera positions are sampled over the exploration domain Ω on a
//! (polar ring × azimuth × distance shell) lattice. For each sample `v`,
//! several points `v'` are drawn inside the vicinal sphere φ of radius
//! `r(d)` (the radius model of §V-B2); the union of the blocks visible from
//! every `v'` (Eq. 1 cone test) becomes the entry `S_v`. At visualization
//! time the nearest sample to the current camera is found in O(1) via the
//! lattice structure and its `S_v` drives prefetching.

use crate::importance::ImportanceTable;
use crate::radius::RadiusModel;
use std::f64::consts::{PI, TAU};
use std::ops::Range;
use viz_geom::sphere::sample_in_ball;
use viz_geom::{par, Aabb, CameraPose, ConeFrustum, SphericalCoord, SplitMix64, Vec3};
use viz_volume::{BlockId, BrickLayout};

/// Lattice configuration for camera-position sampling.
///
/// Total sample count = `n_theta × n_phi × n_dist`; the paper sweeps this
/// between 3,240 and 108,000 (Fig. 7) and settles on 25,920.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Polar rings (view-direction latitude).
    pub n_theta: usize,
    /// Azimuthal sectors (view-direction longitude).
    pub n_phi: usize,
    /// Distance shells between `d_min` and `d_max`.
    pub n_dist: usize,
    /// Nearest camera distance sampled.
    pub d_min: f64,
    /// Farthest camera distance sampled.
    pub d_max: f64,
    /// Points `v'` drawn inside each vicinal sphere φ.
    pub vicinal_points: usize,
    /// Full frustum view angle θ (radians).
    pub view_angle: f64,
    /// RNG seed for vicinal sampling.
    pub seed: u64,
}

impl SamplingConfig {
    /// The paper's preferred operating point: 25,920 samples
    /// (36 rings × 72 sectors × 10 shells), 8 vicinal points.
    pub fn paper_default(d_min: f64, d_max: f64, view_angle: f64) -> Self {
        SamplingConfig {
            n_theta: 36,
            n_phi: 72,
            n_dist: 10,
            d_min,
            d_max,
            vicinal_points: 8,
            view_angle,
            seed: 0x5EED,
        }
    }

    /// Scale the lattice to approximately `target` samples, preserving the
    /// paper's 1:2 ring:sector aspect and shell count.
    pub fn with_target_samples(mut self, target: usize) -> Self {
        assert!(target > 0);
        let shells = self.n_dist.max(1);
        let per_shell = (target as f64 / shells as f64).max(1.0);
        // n_theta : n_phi = 1 : 2 ⇒ n_theta = sqrt(per_shell / 2).
        let nt = (per_shell / 2.0).sqrt().round().max(1.0) as usize;
        self.n_theta = nt;
        self.n_phi = 2 * nt;
        self
    }

    /// Total number of sampled camera positions.
    pub(crate) fn total_samples(&self) -> usize {
        self.n_theta * self.n_phi * self.n_dist
    }

    fn validate(&self) {
        assert!(self.n_theta > 0 && self.n_phi > 0 && self.n_dist > 0, "empty lattice");
        assert!(self.d_min > 0.0 && self.d_max >= self.d_min, "bad distance range");
        assert!(self.vicinal_points > 0, "need at least one vicinal point");
        assert!(self.view_angle > 0.0 && self.view_angle < PI, "bad view angle");
    }

    /// Camera position of lattice node `(it, ip, id_)` (volume centered at
    /// the origin).
    fn position(&self, it: usize, ip: usize, id_: usize) -> Vec3 {
        let theta = PI * (it as f64 + 0.5) / self.n_theta as f64;
        let phi = TAU * ip as f64 / self.n_phi as f64;
        let d = self.shell_distance(id_);
        SphericalCoord { radius: d, theta, phi }.to_cartesian()
    }

    /// Distance of shell `id_`.
    fn shell_distance(&self, id_: usize) -> f64 {
        if self.n_dist == 1 {
            return (self.d_min + self.d_max) * 0.5;
        }
        self.d_min + (self.d_max - self.d_min) * id_ as f64 / (self.n_dist - 1) as f64
    }

    /// Index of the lattice node nearest to a camera pose, O(1).
    fn nearest_index(&self, pose: &CameraPose) -> usize {
        let sc = pose.spherical();
        let it = ((sc.theta / PI * self.n_theta as f64 - 0.5).round() as isize)
            .clamp(0, self.n_theta as isize - 1) as usize;
        let ip = ((sc.phi / TAU * self.n_phi as f64).round() as usize) % self.n_phi;
        let d = pose.distance();
        let id_ = if self.n_dist == 1 {
            0
        } else {
            let t = (d - self.d_min) / (self.d_max - self.d_min);
            ((t * (self.n_dist - 1) as f64).round() as isize).clamp(0, self.n_dist as isize - 1)
                as usize
        };
        (it * self.n_phi + ip) * self.n_dist + id_
    }
}

/// How the vicinal radius is chosen when building the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RadiusRule {
    /// The paper's Eq. 6 model, adapting to each shell's distance.
    Optimal(RadiusModel),
    /// A fixed radius (the Fig. 11 baselines: 0.1, 0.075, 0.05, 0.025).
    Fixed(f64),
}

impl RadiusRule {
    fn radius(&self, d: f64) -> f64 {
        match self {
            RadiusRule::Optimal(m) => m.optimal_radius(d),
            RadiusRule::Fixed(r) => *r,
        }
    }
}

/// The `T_visible` look-up table, stored as a flat CSR (compressed sparse
/// row) layout: one `offsets` array of `total_samples() + 1` entries and one
/// concatenated `ids` array. Entry `i` is `ids[offsets[i]..offsets[i + 1]]`.
/// Compared with the former `Vec<Vec<BlockId>>`, this is one allocation
/// instead of one per sample, contiguous in memory for `predict`, and
/// compact to persist.
#[derive(Debug, Clone)]
pub struct VisibleTable {
    /// Lattice this table was built on.
    pub config: SamplingConfig,
    /// Radius rule used.
    pub radius_rule: RadiusRule,
    /// CSR row offsets into [`Self::csr_ids`]; `offsets.len()` is
    /// `total_samples() + 1` and `offsets[0] == 0`.
    offsets: Vec<u32>,
    /// Concatenated per-sample block ids (each run sorted ascending).
    ids: Vec<BlockId>,
}

/// The Eq. 1 scan of one cone, marking what it sees in `visible`: a query
/// of the layout's cached BVH (warmed here, so parallel callers never race
/// to build it) or, for the brute-force reference, a linear pass over every
/// block's bounds. The `Vec<u32>` is scratch space the caller reuses.
fn eq1_scanner(
    layout: &BrickLayout,
    accelerated: bool,
) -> impl Fn(&ConeFrustum, &mut [bool], &mut Vec<u32>) + Sync + '_ {
    let bounds = (!accelerated).then(|| layout.all_block_bounds());
    let bvh = accelerated.then(|| layout.block_bvh());
    move |cone, visible, scratch| match (bvh, &bounds) {
        (Some(bvh), _) => {
            scratch.clear();
            bvh.visible_into(cone, scratch);
            for &b in scratch.iter() {
                visible[b as usize] = true;
            }
        }
        (None, Some(bounds)) => mark_visible_from(cone, bounds, visible),
        (None, None) => unreachable!("one scan path is always prepared"),
    }
}

impl VisibleTable {
    /// Build the table: the paper's one-time pre-processing step. Parallel
    /// over sampling positions, with the per-cone Eq. 1 scan accelerated by
    /// the layout's [`viz_volume::BlockBvh`] — results are identical to
    /// [`Self::build_brute_force`]. When `max_blocks_per_entry` is set, each
    /// `S_v` is truncated to its most important blocks using `importance`
    /// (the §IV-C over-prediction fallback).
    pub fn build(
        config: SamplingConfig,
        layout: &BrickLayout,
        radius_rule: RadiusRule,
        importance: Option<(&ImportanceTable, usize)>,
    ) -> Self {
        Self::build_inner(config, layout, radius_rule, importance, true)
    }

    /// The seed's brute-force build path (linear Eq. 1 scan over every block
    /// per vicinal point), retained as the reference for equivalence tests.
    pub fn build_brute_force(
        config: SamplingConfig,
        layout: &BrickLayout,
        radius_rule: RadiusRule,
        importance: Option<(&ImportanceTable, usize)>,
    ) -> Self {
        Self::build_inner(config, layout, radius_rule, importance, false)
    }

    fn build_inner(
        config: SamplingConfig,
        layout: &BrickLayout,
        radius_rule: RadiusRule,
        importance: Option<(&ImportanceTable, usize)>,
        accelerated: bool,
    ) -> Self {
        config.validate();
        let scan = eq1_scanner(layout, accelerated);
        let chunk = |samples: Range<usize>| {
            Self::csr_chunk(&config, radius_rule, importance, layout.num_blocks(), samples, &scan)
        };
        Self::from_chunks(config, radius_rule, par::map_ranges(config.total_samples(), chunk))
    }

    /// `S_v` for every sample of `samples`, as one CSR piece: each entry's
    /// end offset (relative to the piece) and the concatenated sorted ids.
    /// A sample's entry depends only on its index, so any partition of the
    /// lattice into ranges concatenates to the same table; one piece per
    /// worker keeps a build to a few large buffers.
    fn csr_chunk(
        config: &SamplingConfig,
        radius_rule: RadiusRule,
        importance: Option<(&ImportanceTable, usize)>,
        num_blocks: usize,
        samples: Range<usize>,
        scan: &impl Fn(&ConeFrustum, &mut [bool], &mut Vec<u32>),
    ) -> (Vec<u32>, Vec<BlockId>) {
        let n = samples.len();
        let mut ends = Vec::with_capacity(n);
        let mut ids: Vec<BlockId> = Vec::new();
        let mut visible = vec![false; num_blocks];
        let mut scratch: Vec<u32> = Vec::new();
        for i in samples {
            let id_ = i % config.n_dist;
            let ip = (i / config.n_dist) % config.n_phi;
            let it = i / (config.n_dist * config.n_phi);
            let v = config.position(it, ip, id_);
            let r = radius_rule.radius(config.shell_distance(id_));
            // Derive a per-sample seed so the build is order-independent.
            let mut rng =
                SplitMix64::new(config.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
            visible.fill(false);
            scan(&cone_at(v, config.view_angle), &mut visible, &mut scratch);
            for _ in 1..config.vicinal_points {
                let v_prime = sample_in_ball(&mut rng, v, r);
                scan(&cone_at(v_prime, config.view_angle), &mut visible, &mut scratch);
            }
            let start = ids.len();
            ids.extend(
                visible.iter().enumerate().filter_map(|(b, &vis)| vis.then_some(BlockId(b as u32))),
            );
            if let Some((imp, max)) = importance {
                if ids.len() - start > max {
                    let mut top = imp.filter_top(&ids[start..], max);
                    top.sort_unstable();
                    ids.truncate(start);
                    ids.extend_from_slice(&top);
                }
            }
            ends.push(ids.len() as u32);
            // One pass over the shells is a fair sample of entry sizes: size
            // the buffer once from it, instead of doubling all the way up
            // and leaving a trail of outgrown copies in this thread's heap.
            if ends.len() == config.n_dist {
                let mean_entry = ids.len() / config.n_dist;
                ids.reserve(mean_entry * (n - config.n_dist) * 9 / 8);
            }
        }
        (ends, ids)
    }

    /// Concatenate CSR pieces (in lattice order) into one table.
    fn from_chunks(
        config: SamplingConfig,
        radius_rule: RadiusRule,
        chunks: Vec<(Vec<u32>, Vec<BlockId>)>,
    ) -> Self {
        let mut offsets = Vec::with_capacity(config.total_samples() + 1);
        let mut ids = Vec::with_capacity(chunks.iter().map(|(_, ids)| ids.len()).sum());
        offsets.push(0u32);
        for (ends, chunk_ids) in chunks {
            let base = ids.len() as u32;
            offsets.extend(ends.iter().map(|end| base + end));
            ids.extend_from_slice(&chunk_ids);
        }
        VisibleTable { config, radius_rule, offsets, ids }
    }

    /// Assemble a table from per-entry sets. Fails when the entry count
    /// does not match the config's lattice size.
    pub fn from_parts(
        config: SamplingConfig,
        radius_rule: RadiusRule,
        sets: Vec<Vec<BlockId>>,
    ) -> Result<Self, String> {
        if sets.len() != config.total_samples() {
            return Err(format!(
                "entry count {} does not match lattice size {}",
                sets.len(),
                config.total_samples()
            ));
        }
        let chunks = sets.into_iter().map(|set| (vec![set.len() as u32], set)).collect();
        Ok(Self::from_chunks(config, radius_rule, chunks))
    }

    /// Reassemble a table directly from its CSR arrays (the compact binary
    /// persist path). Validates the offsets invariants.
    pub(crate) fn from_csr(
        config: SamplingConfig,
        radius_rule: RadiusRule,
        offsets: Vec<u32>,
        ids: Vec<BlockId>,
    ) -> Result<Self, String> {
        if offsets.len() != config.total_samples() + 1 {
            return Err(format!(
                "offset count {} does not match lattice size {} + 1",
                offsets.len(),
                config.total_samples()
            ));
        }
        if offsets.first() != Some(&0) {
            return Err("CSR offsets must start at 0".to_string());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("CSR offsets must be non-decreasing".to_string());
        }
        if *offsets.last().unwrap() as usize != ids.len() {
            return Err(format!(
                "last offset {} does not match id count {}",
                offsets.last().unwrap(),
                ids.len()
            ));
        }
        Ok(VisibleTable { config, radius_rule, offsets, ids })
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Predicted visible set for the sample nearest to `pose` — the
    /// Algorithm 1 prefetch candidates for the *next* camera position.
    pub fn predict(&self, pose: &CameraPose) -> &[BlockId] {
        self.entry(self.config.nearest_index(pose))
    }

    /// Entry by raw sample index (diagnostics).
    pub fn entry(&self, i: usize) -> &[BlockId] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The raw CSR row offsets (persist/diagnostics).
    pub fn csr_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw concatenated block ids (persist/diagnostics).
    pub fn csr_ids(&self) -> &[BlockId] {
        &self.ids
    }

    /// Mean `S_v` size across the table (over-prediction diagnostic).
    pub fn mean_set_size(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.ids.len() as f64 / self.len() as f64
    }

    /// Approximate in-memory footprint in bytes (the Fig. 7 look-up
    /// overhead grows with this). Two flat arrays — compare with the former
    /// `Vec<Vec<_>>` layout at `ids * 4 + entries * 24`.
    pub fn approx_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.ids.len() * 4
    }
}

/// Cone of the paper's Eq. 1 for a camera at `v` looking at the centroid.
fn cone_at(v: Vec3, view_angle: f64) -> ConeFrustum {
    ConeFrustum::from_pose(&CameraPose::new(v, Vec3::ZERO, view_angle))
}

/// Mark every block visible per the paper's Eq. 1 cone test (linear scan).
fn mark_visible_from(cone: &ConeFrustum, bounds: &[Aabb], visible: &mut [bool]) {
    for (i, b) in bounds.iter().enumerate() {
        if !visible[i] && cone.intersects_block_corners(b) {
            visible[i] = true;
        }
    }
}

/// Ground-truth visible set for a pose (the same Eq. 1 test the table is
/// built from, applied to the exact camera position), answered through the
/// layout's cached BVH. Identical to [`visible_blocks_brute_force`].
pub fn visible_blocks(pose: &CameraPose, layout: &BrickLayout) -> Vec<BlockId> {
    layout.block_bvh().visible_blocks(&ConeFrustum::from_pose(pose))
}

/// The seed's linear-scan ground truth, kept as the reference implementation
/// for equivalence tests and benches.
pub fn visible_blocks_brute_force(pose: &CameraPose, layout: &BrickLayout) -> Vec<BlockId> {
    let cone = ConeFrustum::from_pose(pose);
    layout
        .block_ids()
        .filter(|&id| cone.intersects_block_corners(&layout.block_bounds(id)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_geom::angle::deg_to_rad;
    use viz_volume::Dims3;

    fn small_config() -> SamplingConfig {
        SamplingConfig {
            n_theta: 6,
            n_phi: 12,
            n_dist: 3,
            d_min: 2.0,
            d_max: 4.0,
            vicinal_points: 4,
            view_angle: deg_to_rad(30.0),
            seed: 42,
        }
    }

    fn layout() -> BrickLayout {
        BrickLayout::new(Dims3::cube(64), Dims3::cube(16)) // 64 blocks
    }

    #[test]
    fn total_samples_is_product() {
        assert_eq!(small_config().total_samples(), 6 * 12 * 3);
    }

    #[test]
    fn with_target_samples_is_close() {
        for target in [3_240usize, 8_640, 25_920, 72_000, 108_000] {
            let c = SamplingConfig::paper_default(2.0, 4.0, 0.5).with_target_samples(target);
            let got = c.total_samples();
            assert!((got as f64 / target as f64 - 1.0).abs() < 0.35, "target {target} → {got}");
        }
    }

    #[test]
    fn paper_default_is_25920() {
        let c = SamplingConfig::paper_default(2.0, 4.0, 0.5);
        assert_eq!(c.total_samples(), 25_920);
    }

    #[test]
    fn build_produces_nonempty_sets() {
        let t = VisibleTable::build(small_config(), &layout(), RadiusRule::Fixed(0.1), None);
        assert_eq!(t.len(), small_config().total_samples());
        assert!(t.mean_set_size() > 0.0, "no sample sees any block");
    }

    #[test]
    fn build_is_deterministic() {
        let a = VisibleTable::build(small_config(), &layout(), RadiusRule::Fixed(0.1), None);
        let b = VisibleTable::build(small_config(), &layout(), RadiusRule::Fixed(0.1), None);
        for i in 0..a.len() {
            assert_eq!(a.entry(i), b.entry(i), "entry {i} differs");
        }
    }

    #[test]
    fn bigger_radius_predicts_more_blocks() {
        let l = layout();
        let small = VisibleTable::build(small_config(), &l, RadiusRule::Fixed(0.02), None);
        let big = VisibleTable::build(small_config(), &l, RadiusRule::Fixed(0.5), None);
        assert!(
            big.mean_set_size() > small.mean_set_size(),
            "big {} <= small {}",
            big.mean_set_size(),
            small.mean_set_size()
        );
    }

    #[test]
    fn nearest_index_recovers_lattice_nodes() {
        let c = small_config();
        for it in 0..c.n_theta {
            for ip in 0..c.n_phi {
                for id_ in 0..c.n_dist {
                    let v = c.position(it, ip, id_);
                    let pose = CameraPose::new(v, Vec3::ZERO, c.view_angle);
                    let want = (it * c.n_phi + ip) * c.n_dist + id_;
                    assert_eq!(c.nearest_index(&pose), want, "node ({it},{ip},{id_})");
                }
            }
        }
    }

    #[test]
    fn nearest_index_clamps_outside_distance_range() {
        let c = small_config();
        let near = CameraPose::new(Vec3::new(0.1, 0.0, 0.0), Vec3::ZERO, c.view_angle);
        let far = CameraPose::new(Vec3::new(100.0, 0.0, 0.0), Vec3::ZERO, c.view_angle);
        // Must not panic and must produce valid indices.
        assert!(c.nearest_index(&near) < c.total_samples());
        assert!(c.nearest_index(&far) < c.total_samples());
    }

    #[test]
    fn prediction_covers_true_visible_set_nearby() {
        // For a pose close to a lattice node with a reasonable radius, the
        // predicted set should cover most of the true visible set.
        let l = layout();
        let c = small_config();
        let t = VisibleTable::build(c, &l, RadiusRule::Fixed(0.3), None);
        let pose = CameraPose::new(c.position(2, 5, 1) * 1.01, Vec3::ZERO, c.view_angle);
        let truth = visible_blocks(&pose, &l);
        let predicted = t.predict(&pose);
        let covered = truth.iter().filter(|b| predicted.contains(b)).count();
        assert!(
            covered as f64 >= 0.7 * truth.len() as f64,
            "prediction covered {covered}/{} blocks",
            truth.len()
        );
    }

    #[test]
    fn importance_truncation_caps_entry_size() {
        let l = layout();
        let imp =
            ImportanceTable::from_entropies((0..l.num_blocks()).map(|i| i as f64).collect(), 64);
        let t = VisibleTable::build(small_config(), &l, RadiusRule::Fixed(0.5), Some((&imp, 5)));
        for i in 0..t.len() {
            assert!(t.entry(i).len() <= 5, "entry {i} has {} blocks", t.entry(i).len());
        }
    }

    #[test]
    fn truncation_keeps_highest_entropy_blocks() {
        let l = layout();
        // Entropy = block id: highest ids are most important.
        let imp =
            ImportanceTable::from_entropies((0..l.num_blocks()).map(|i| i as f64).collect(), 64);
        let full = VisibleTable::build(small_config(), &l, RadiusRule::Fixed(0.5), None);
        let cut = VisibleTable::build(small_config(), &l, RadiusRule::Fixed(0.5), Some((&imp, 3)));
        for i in 0..full.len() {
            let f = full.entry(i);
            if f.len() > 3 {
                let best: Vec<BlockId> = imp.filter_top(f, 3);
                let mut best_sorted = best.clone();
                best_sorted.sort_unstable();
                assert_eq!(cut.entry(i), best_sorted.as_slice(), "entry {i}");
            }
        }
    }

    #[test]
    fn visible_blocks_ground_truth_sane() {
        let l = layout();
        // Camera far away on +X looking at the center sees roughly the
        // whole volume with a wide angle…
        let pose = CameraPose::new(Vec3::new(4.0, 0.0, 0.0), Vec3::ZERO, deg_to_rad(60.0));
        let vis = visible_blocks(&pose, &l);
        assert!(vis.len() > l.num_blocks() / 2);
        // …and a very narrow angle sees only a sliver.
        let pose = CameraPose::new(Vec3::new(4.0, 0.0, 0.0), Vec3::ZERO, deg_to_rad(4.0));
        let vis = visible_blocks(&pose, &l);
        assert!(vis.len() < l.num_blocks() / 2);
        assert!(!vis.is_empty());
    }

    #[test]
    fn accelerated_build_matches_brute_force() {
        let l = layout();
        let fast = VisibleTable::build(small_config(), &l, RadiusRule::Fixed(0.2), None);
        let slow =
            VisibleTable::build_brute_force(small_config(), &l, RadiusRule::Fixed(0.2), None);
        assert_eq!(fast.csr_offsets(), slow.csr_offsets());
        assert_eq!(fast.csr_ids(), slow.csr_ids());
    }

    #[test]
    fn visible_blocks_matches_brute_force() {
        let l = layout();
        for (theta, phi, d, ang) in
            [(10.0, 0.0, 2.5, 15.0), (85.0, 140.0, 3.0, 45.0), (170.0, 301.0, 2.1, 70.0)]
        {
            let pose = CameraPose::orbit(theta, phi, d, ang);
            assert_eq!(
                visible_blocks(&pose, &l),
                visible_blocks_brute_force(&pose, &l),
                "{theta},{phi},{d},{ang}"
            );
        }
    }

    #[test]
    fn csr_invariants_hold() {
        let t = VisibleTable::build(small_config(), &layout(), RadiusRule::Fixed(0.1), None);
        let offs = t.csr_offsets();
        assert_eq!(offs.len(), t.len() + 1);
        assert_eq!(offs[0], 0);
        assert!(offs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*offs.last().unwrap() as usize, t.csr_ids().len());
        // entry() slices line up with the raw arrays.
        let flat: Vec<BlockId> = (0..t.len()).flat_map(|i| t.entry(i).to_vec()).collect();
        assert_eq!(flat.as_slice(), t.csr_ids());
    }

    #[test]
    fn from_csr_validates_offsets() {
        let c = small_config();
        let n = c.total_samples();
        let rule = RadiusRule::Fixed(0.1);
        // Valid: all-empty entries.
        let ok = VisibleTable::from_csr(c, rule, vec![0; n + 1], Vec::new());
        assert!(ok.is_ok());
        // Wrong offset count.
        assert!(VisibleTable::from_csr(c, rule, vec![0; n], Vec::new()).is_err());
        // First offset nonzero.
        let mut offs = vec![1u32; n + 1];
        offs[n] = 1;
        assert!(VisibleTable::from_csr(c, rule, offs, vec![BlockId(0)]).is_err());
        // Decreasing offsets.
        let mut offs = vec![0u32; n + 1];
        offs[1] = 2;
        offs[2] = 1;
        *offs.last_mut().unwrap() = 2;
        assert!(VisibleTable::from_csr(c, rule, offs, vec![BlockId(0); 2]).is_err());
        // Last offset disagrees with id count.
        let mut offs = vec![0u32; n + 1];
        *offs.last_mut().unwrap() = 3;
        assert!(VisibleTable::from_csr(c, rule, offs, vec![BlockId(0); 2]).is_err());
    }

    /// One CSR piece (the 1-worker path), uneven pieces (any N-worker
    /// split) and `build` on this machine's workers are the same table, bit
    /// for bit, with and without the importance cap.
    #[test]
    fn build_is_identical_for_any_partition_of_the_lattice() {
        let (cfg, layout, rule) = (small_config(), layout(), RadiusRule::Fixed(0.2));
        let imp = ImportanceTable::from_entropies(
            (0..layout.num_blocks()).map(|i| (i * 7 % 13) as f64).collect(),
            32,
        );
        let n = cfg.total_samples();
        for importance in [None, Some((&imp, 5))] {
            let scan = eq1_scanner(&layout, true);
            let piece = |samples| {
                VisibleTable::csr_chunk(&cfg, rule, importance, layout.num_blocks(), samples, &scan)
            };
            let one = VisibleTable::from_chunks(cfg, rule, vec![piece(0..n)]);
            let uneven = VisibleTable::from_chunks(
                cfg,
                rule,
                vec![piece(0..1), piece(1..n / 3), piece(n / 3..n - 2), piece(n - 2..n)],
            );
            let built = VisibleTable::build(cfg, &layout, rule, importance);
            for other in [&uneven, &built] {
                assert_eq!(other.csr_offsets(), one.csr_offsets());
                assert_eq!(other.csr_ids(), one.csr_ids());
            }
            assert!(one.csr_ids().len() > n, "fixture sees more than one block per sample");
        }
    }

    #[test]
    fn from_parts_roundtrips_entries() {
        let t = VisibleTable::build(small_config(), &layout(), RadiusRule::Fixed(0.2), None);
        let sets: Vec<Vec<BlockId>> = (0..t.len()).map(|i| t.entry(i).to_vec()).collect();
        let back = VisibleTable::from_parts(t.config, t.radius_rule, sets).unwrap();
        assert_eq!(back.csr_offsets(), t.csr_offsets());
        assert_eq!(back.csr_ids(), t.csr_ids());
    }

    #[test]
    fn binary_roundtrip() {
        let t = VisibleTable::build(small_config(), &layout(), RadiusRule::Fixed(0.1), None);
        let buf = crate::persist::encode_visible_table(&t).unwrap();
        let back = crate::persist::decode_visible_table(&buf).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.entry(7), t.entry(7));
        assert_eq!(back.config, t.config);
        assert_eq!(back.radius_rule, t.radius_rule);
    }
}
