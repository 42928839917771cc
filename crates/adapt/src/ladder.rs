//! Shed-ladder autotuning against a demand-p99 SLO.
//!
//! The serve layer's ladder watermarks decide how much *speculation* the
//! server carries. Too generous and prefetch crowds the engine, inflating
//! demand latency; too stingy and the cache never warms, inflating demand
//! latency from the other side. [`LadderTuner`] holds one scalar — a
//! scale factor over the configured base ladder — and integrates it
//! against the measured demand p99: over the SLO, the scale shrinks
//! (speculation yields); comfortably under, it recovers toward (and past,
//! up to `max_scale`) the base.
//!
//! Safety: the tuner only ever resizes *prefetch* watermarks and quotas.
//! Demand admission is unconditional in the serve layer by construction —
//! no ladder value, including a scale of `min_scale`, can shed demand.

use viz_core::{ControllerConfig, IntegralController};
use viz_serve::LadderConfig;

/// Knobs for [`LadderTuner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderTunerConfig {
    /// The demand-p99 target, in nanoseconds.
    pub slo_p99_ns: u64,
    /// Integral gain on the log-ratio error, in scale units.
    pub gain: f64,
    /// Lower clamp on the scale (floor keeps a trickle of prefetch so the
    /// controller can observe recovery; watermarks also floor at 1).
    pub min_scale: f64,
    /// Upper clamp on the scale (how far past the base the ladder may
    /// open when latency is cheap).
    pub max_scale: f64,
}

impl LadderTunerConfig {
    /// Conservative defaults around a p99 SLO: gain 0.25, scale confined
    /// to `[1/16, 4]`.
    pub fn for_slo(slo_p99_ns: u64) -> Self {
        LadderTunerConfig { slo_p99_ns, gain: 0.25, min_scale: 1.0 / 16.0, max_scale: 4.0 }
    }
}

/// One-knob ladder controller (see module docs).
#[derive(Debug, Clone)]
pub struct LadderTuner {
    base: LadderConfig,
    cfg: LadderTunerConfig,
    ctl: IntegralController,
}

fn scaled(v: usize, scale: f64) -> usize {
    ((v as f64 * scale).round() as usize).max(1)
}

impl LadderTuner {
    /// Tune around `base` (typically the ladder the server started with).
    pub fn new(base: LadderConfig, cfg: LadderTunerConfig) -> Self {
        assert!(cfg.slo_p99_ns > 0, "SLO must be positive");
        let ctl = IntegralController::new(
            ControllerConfig::new(cfg.gain, cfg.min_scale, cfg.max_scale),
            1.0,
        );
        LadderTuner { base, cfg, ctl }
    }

    /// The current scale factor.
    pub fn scale(&self) -> f64 {
        self.ctl.output()
    }

    /// The SLO this tuner chases.
    pub fn slo_p99_ns(&self) -> u64 {
        self.cfg.slo_p99_ns
    }

    /// The ladder at the current scale.
    pub fn ladder(&self) -> LadderConfig {
        let s = self.ctl.output();
        LadderConfig {
            per_client_queue: scaled(self.base.per_client_queue, s),
            per_client_bytes: scaled(self.base.per_client_bytes, s),
            engine_queue_target: scaled(self.base.engine_queue_target, s),
            shed_queue_depth: scaled(self.base.shed_queue_depth, s),
            downgrade_queue_depth: scaled(self.base.downgrade_queue_depth, s),
            shed_resident_bytes: scaled(self.base.shed_resident_bytes, s),
        }
    }

    /// Feed one control period's measured demand p99; returns the ladder
    /// to install. A period with no demand samples (`p99_ns == 0`) leaves
    /// the scale untouched — silence is not evidence of health.
    pub fn observe_p99(&mut self, p99_ns: u64) -> LadderConfig {
        if p99_ns > 0 {
            // Latency above target must *shrink* the ladder: inverse sense.
            self.ctl.observe_inverse(p99_ns as f64, self.cfg.slo_p99_ns as f64);
        }
        self.ladder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> LadderConfig {
        LadderConfig {
            per_client_queue: 256,
            per_client_bytes: 64 << 20,
            engine_queue_target: 1024,
            shed_queue_depth: 4096,
            downgrade_queue_depth: 2048,
            shed_resident_bytes: 1 << 30,
        }
    }

    #[test]
    fn over_slo_tightens_under_slo_reopens() {
        let mut t = LadderTuner::new(base(), LadderTunerConfig::for_slo(1_000_000));
        let l = t.observe_p99(4_000_000); // 4x over
        assert!(t.scale() < 1.0);
        assert!(l.per_client_queue < 256);
        assert!(l.shed_queue_depth < 4096);
        // Sustained recovery brings the ladder back.
        for _ in 0..50 {
            t.observe_p99(250_000);
        }
        assert!(t.scale() > 1.0, "cheap latency should reopen past base");
        assert!(t.ladder().per_client_queue > 256);
    }

    #[test]
    fn silence_is_a_noop() {
        let mut t = LadderTuner::new(base(), LadderTunerConfig::for_slo(1_000_000));
        t.observe_p99(4_000_000);
        let s = t.scale();
        t.observe_p99(0);
        assert_eq!(t.scale(), s);
    }

    #[test]
    fn scale_clamps_and_watermarks_floor_at_one() {
        let mut t = LadderTuner::new(base(), LadderTunerConfig::for_slo(1_000));
        for _ in 0..200 {
            t.observe_p99(1_000_000_000); // catastrophic latency
        }
        assert!((t.scale() - 1.0 / 16.0).abs() < 1e-12, "pinned at min_scale");
        let l = t.ladder();
        assert!(l.per_client_queue >= 1);
        assert!(l.downgrade_queue_depth >= 1);
        // Anti-windup: one healthy period moves the scale immediately.
        let before = t.scale();
        t.observe_p99(500);
        assert!(t.scale() > before);
    }

    #[test]
    fn converges_on_a_monotone_plant() {
        // Toy plant: p99 grows linearly with how open the ladder is.
        let slo = 1_000_000u64;
        let plant = |scale: f64| (1_500_000.0 * scale) as u64;
        let mut t = LadderTuner::new(base(), LadderTunerConfig::for_slo(slo));
        for _ in 0..300 {
            let p99 = plant(t.scale());
            t.observe_p99(p99);
        }
        let settled = plant(t.scale());
        let ratio = settled as f64 / slo as f64;
        assert!((0.9..=1.1).contains(&ratio), "settled at {ratio}x the SLO");
    }
}
