//! The vicinal radius `r` as a control variable.
//!
//! Eq. 6 computes the radius that makes the aggregated vicinal frustum
//! exactly fill fast memory — *assuming* the configured cache ratio
//! reflects what the workload can actually keep resident. Under
//! contention (other sessions, hostile traffic) the effective share is
//! smaller; after a phase change it may be larger. [`RadiusTuner`] keeps
//! the paper's model but makes its cache-ratio input the integrator
//! state: demand misses above target mean prediction is too narrow —
//! inflate the effective ratio and the radius grows with it (Eq. 6 is
//! monotone in ρ); misses below target with wasted speculation mean the
//! sphere can shrink and return the I/O budget.

use viz_core::{ControllerConfig, IntegralController, RadiusModel};

/// Knobs for [`RadiusTuner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiusTunerConfig {
    /// Demand fast-miss rate to hold (e.g. 0.05 = 5% of demand misses
    /// fast memory).
    pub target_miss_rate: f64,
    /// Integral gain on the log-ratio error, in cache-ratio units.
    pub gain: f64,
    /// Lower clamp on the effective cache ratio.
    pub min_ratio: f64,
    /// Upper clamp on the effective cache ratio.
    pub max_ratio: f64,
}

impl RadiusTunerConfig {
    /// Defaults: hold a 5% demand miss rate, ratio confined to
    /// `[ρ/4, min(4ρ, 1)]` around the configured `rho`.
    pub fn around(rho: f64, target_miss_rate: f64) -> Self {
        RadiusTunerConfig {
            target_miss_rate,
            gain: 0.1,
            min_ratio: (rho * 0.25).max(1e-3),
            max_ratio: (rho * 4.0).min(1.0),
        }
    }
}

/// Eq. 6 with a feedback-driven effective cache ratio (see module docs).
#[derive(Debug, Clone)]
pub struct RadiusTuner {
    model: RadiusModel,
    cfg: RadiusTunerConfig,
    ctl: IntegralController,
}

impl RadiusTuner {
    /// Tune around `model` (its `cache_ratio` is the starting point).
    pub fn new(model: RadiusModel, cfg: RadiusTunerConfig) -> Self {
        assert!(cfg.target_miss_rate > 0.0 && cfg.target_miss_rate < 1.0);
        let ctl = IntegralController::new(
            ControllerConfig::new(cfg.gain, cfg.min_ratio, cfg.max_ratio),
            model.cache_ratio,
        );
        RadiusTuner { model, cfg, ctl }
    }

    /// The effective cache ratio the radius is currently computed from.
    pub fn cache_ratio(&self) -> f64 {
        self.ctl.output()
    }

    /// The model at the current effective ratio.
    pub fn model(&self) -> RadiusModel {
        RadiusModel { cache_ratio: self.ctl.output(), ..self.model }
    }

    /// Eq. 6 at view distance `d`, using the tuned ratio.
    pub fn radius_at(&self, d: f64) -> f64 {
        self.model().optimal_radius(d)
    }

    /// Feed one control period's measured demand fast-miss rate; returns
    /// the updated effective cache ratio. A zero miss rate reads as
    /// "prediction over-covers" and shrinks the sphere (floored so the
    /// log-ratio stays finite).
    pub fn observe_miss_rate(&mut self, miss_rate: f64) -> f64 {
        let actual = miss_rate.clamp(1e-4, 1.0);
        self.ctl.observe(actual, self.cfg.target_miss_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuner() -> RadiusTuner {
        let model = RadiusModel::new(0.25, 0.5);
        RadiusTuner::new(model, RadiusTunerConfig::around(0.25, 0.05))
    }

    #[test]
    fn misses_grow_the_sphere() {
        let mut t = tuner();
        let r0 = t.radius_at(2.2);
        for _ in 0..10 {
            t.observe_miss_rate(0.4); // way over the 5% target
        }
        assert!(t.cache_ratio() > 0.25);
        assert!(t.radius_at(2.2) > r0, "radius must grow with the effective ratio");
    }

    #[test]
    fn over_coverage_shrinks_it() {
        let mut t = tuner();
        let r0 = t.radius_at(2.2);
        for _ in 0..10 {
            t.observe_miss_rate(0.0); // no misses at all: speculation is over-wide
        }
        assert!(t.cache_ratio() < 0.25);
        assert!(t.radius_at(2.2) <= r0);
    }

    #[test]
    fn ratio_stays_clamped_with_no_windup() {
        let mut t = tuner();
        for _ in 0..500 {
            t.observe_miss_rate(1.0);
        }
        assert!((t.cache_ratio() - 1.0).abs() < 1e-9, "max_ratio = min(4ρ,1) = 1");
        // One over-coverage period reverses immediately (clamped
        // integrator holds no backlog).
        let before = t.cache_ratio();
        t.observe_miss_rate(0.001);
        assert!(t.cache_ratio() < before);
    }

    #[test]
    fn on_target_is_a_fixed_point() {
        let mut t = tuner();
        let before = t.cache_ratio();
        t.observe_miss_rate(0.05);
        assert!((t.cache_ratio() - before).abs() < 1e-12);
    }
}
