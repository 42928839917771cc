//! Multi-seed evaluation: mean/deviation summaries across repeated runs.
//!
//! The paper reports single-run numbers; random paths make those noisy.
//! This module aggregates any per-run metric across seeds so the bench
//! harness can report `mean ± std` and shape checks can bound variance.

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        RunningStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample (n−1) standard deviation; 0 with fewer than 2 observations.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// `mean ± std` rendered for reports.
    pub fn display(&self) -> String {
        format!("{:.4} ± {:.4}", self.mean(), self.std_dev())
    }
}

/// Run a closure once per seed and summarize a metric across the runs.
pub fn across_seeds<F: FnMut(u64) -> f64>(seeds: &[u64], mut run: F) -> RunningStats {
    let mut stats = RunningStats::new();
    for &s in seeds {
        stats.push(run(s));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_mean_and_std() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample std dev of that classic set is ~2.138.
        assert!((s.std_dev() - 2.138).abs() < 0.01);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_and_single() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        let mut s = RunningStats::new();
        s.push(3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 100) as f64 * 0.1).collect();
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn across_seeds_runs_every_seed() {
        let mut seen = Vec::new();
        let stats = across_seeds(&[1, 2, 3, 4], |s| {
            seen.push(s);
            s as f64
        });
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(stats.mean(), 2.5);
    }

    #[test]
    fn display_format() {
        let mut s = RunningStats::new();
        s.push(1.0);
        s.push(3.0);
        assert_eq!(s.display(), "2.0000 ± 1.4142");
    }

    #[test]
    fn session_miss_rate_is_stable_across_seeds() {
        // The headline claim should not be a seed artifact: OPT's miss rate
        // varies little across random paths.
        use crate::importance::ImportanceTable;
        use crate::sampling::{RadiusRule, SamplingConfig, VisibleTable};
        use crate::session::{run_session, AppAwareConfig, SessionConfig, Strategy};
        use viz_geom::angle::deg_to_rad;
        use viz_geom::{CameraPath, ExplorationDomain, RandomWalkPath, Vec3};
        use viz_volume::{BrickLayout, Dims3};

        let layout = BrickLayout::new(Dims3::cube(48), Dims3::cube(8));
        let imp = ImportanceTable::from_entropies(vec![2.0; layout.num_blocks()], 32);
        let cfg_s = SamplingConfig {
            n_theta: 6,
            n_phi: 12,
            n_dist: 2,
            d_min: 2.0,
            d_max: 3.2,
            vicinal_points: 4,
            view_angle: deg_to_rad(15.0),
            seed: 9,
        };
        let tv = VisibleTable::build(cfg_s, &layout, RadiusRule::Fixed(0.2), None);
        let cfg = SessionConfig::paper(0.5, layout.nominal_block_bytes());
        let dom = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
        let stats = across_seeds(&[11, 22, 33, 44, 55], |seed| {
            let path =
                RandomWalkPath::new(dom, 2.5, 5.0, 10.0, deg_to_rad(15.0), seed).generate(60);
            run_session(
                &cfg,
                &layout,
                &Strategy::AppAware(AppAwareConfig::paper(0.0)),
                &path,
                Some((&tv, &imp)),
            )
            .miss_rate
        });
        assert!(stats.std_dev() < stats.mean().max(0.02), "unstable: {}", stats.display());
    }
}
