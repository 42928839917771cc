//! Closed-loop controllers: the integral-controller abstraction and the
//! adaptive-σ policy built on it.
//!
//! The paper leaves the entropy threshold σ as a free parameter. Tuning
//! it has a simple operational shape: a scalar output bounded to a safe
//! range, chasing a measurable target ("prefetch time ≈ render time"),
//! where over- and under-shoot by equal *factors* deserve equal
//! corrections. [`IntegralController`] is
//! that shape, extracted once: a log-ratio integral controller whose
//! integrator *is* the clamped output — the standard conditional
//! anti-windup, so a controller that sat pinned at a bound for an hour
//! responds to the first reversal at full gain instead of unwinding an
//! accumulated error backlog.
//!
//! [`SigmaController`] (the original in-process session tuner, and since
//! the serve wiring also the server-side flight tuner) is a thin facade
//! over it.

/// Configuration of a bounded log-ratio integral controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Integral gain, in output units per unit of log-ratio error.
    pub gain: f64,
    /// Lower output clamp.
    pub min: f64,
    /// Upper output clamp.
    pub max: f64,
}

impl ControllerConfig {
    /// A controller confined to `[min, max]` with `gain`.
    pub fn new(gain: f64, min: f64, max: f64) -> Self {
        assert!(gain >= 0.0, "gain must be non-negative");
        assert!(min <= max, "controller bounds inverted");
        ControllerConfig { gain, min, max }
    }
}

/// A bounded integral controller on log-ratio error (see module docs).
///
/// `observe(actual, target)` nudges the output by
/// `gain · ln(actual/target)` and clamps it into `[min, max]`. Because
/// the clamped output is the *only* integrator state, saturation cannot
/// wind up: at a bound the controller simply stays there, and the first
/// error reversal moves it immediately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegralController {
    cfg: ControllerConfig,
    output: f64,
}

impl IntegralController {
    /// Start from `initial` (clamped into bounds).
    pub fn new(cfg: ControllerConfig, initial: f64) -> Self {
        assert!(cfg.gain >= 0.0, "gain must be non-negative");
        assert!(cfg.min <= cfg.max, "controller bounds inverted");
        IntegralController { cfg, output: initial.clamp(cfg.min, cfg.max) }
    }

    /// The current output.
    pub fn output(&self) -> f64 {
        self.output
    }

    /// The configuration in force.
    pub fn config(&self) -> ControllerConfig {
        self.cfg
    }

    /// `true` when the output sits at its lower bound.
    pub fn at_min(&self) -> bool {
        self.output <= self.cfg.min
    }

    /// `true` when the output sits at its upper bound.
    pub fn at_max(&self) -> bool {
        self.output >= self.cfg.max
    }

    /// Feed one measurement of `actual` against `target`; returns the
    /// updated output. Raises the output when `actual > target`, lowers
    /// it when under; non-positive or non-finite inputs carry no signal
    /// and leave the output unchanged.
    pub fn observe(&mut self, actual: f64, target: f64) -> f64 {
        if !(actual.is_finite() && target.is_finite()) || actual <= 0.0 || target <= 0.0 {
            return self.output;
        }
        let error = (actual / target).ln();
        self.output = (self.output + self.cfg.gain * error).clamp(self.cfg.min, self.cfg.max);
        self.output
    }
}

/// Configuration of the σ controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSigma {
    /// Integral gain, in entropy bits per unit of (log) budget error.
    pub gain: f64,
    /// Lower σ clamp (bits).
    pub min_sigma: f64,
    /// Upper σ clamp (bits).
    pub max_sigma: f64,
    /// Target prefetch/render ratio (1.0 = exactly fill the window; use
    /// slightly below 1 to leave headroom).
    pub target_ratio: f64,
}

impl AdaptiveSigma {
    /// Reasonable defaults for 64-bin entropies: gain 0.25 bits, σ within
    /// `[0, 6]`, aim to fill 90% of the render window.
    pub fn default_for_bins(bins: usize) -> Self {
        AdaptiveSigma {
            gain: 0.25,
            min_sigma: 0.0,
            max_sigma: (bins as f64).log2(),
            target_ratio: 0.9,
        }
    }
}

/// The σ controller: prefetch is free exactly while it hides under
/// rendering (§IV-D), so the ideal σ admits just enough blocks that
/// per-step prefetch time ≈ render time. A facade over
/// [`IntegralController`] — σ rises (prefetch less) when prefetch spills
/// past the render window, falls (use the idle I/O) when under-used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmaController {
    cfg: AdaptiveSigma,
    inner: IntegralController,
}

impl SigmaController {
    /// Start from an initial σ.
    pub fn new(cfg: AdaptiveSigma, initial_sigma: f64) -> Self {
        assert!(cfg.target_ratio > 0.0, "target ratio must be positive");
        let inner = IntegralController::new(
            ControllerConfig::new(cfg.gain, cfg.min_sigma, cfg.max_sigma),
            initial_sigma,
        );
        SigmaController { cfg, inner }
    }

    /// Current threshold.
    pub fn sigma(&self) -> f64 {
        self.inner.output()
    }

    /// The configuration in force.
    pub fn config(&self) -> AdaptiveSigma {
        self.cfg
    }

    /// Feed one step's measured prefetch and render durations; returns the
    /// updated σ. Uses the log of the fill ratio so over- and under-shoot
    /// of equal *factors* produce equal corrections.
    pub fn observe(&mut self, prefetch_s: f64, render_s: f64) -> f64 {
        if render_s <= 0.0 {
            return self.sigma();
        }
        let target = self.cfg.target_ratio * render_s;
        // Steps with zero prefetch (everything already resident) carry no
        // signal about σ being too high — treat as a mild "lower σ" nudge
        // by flooring the reading at half the target, which bounds the
        // per-step correction to `gain * ln(1/2)` instead of letting a
        // single empty step slam σ to its minimum clamp.
        let actual = prefetch_s.max(0.5 * target);
        self.inner.observe(actual, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(initial: f64) -> SigmaController {
        SigmaController::new(AdaptiveSigma::default_for_bins(64), initial)
    }

    #[test]
    fn overshoot_raises_sigma() {
        let mut c = controller(2.0);
        let before = c.sigma();
        c.observe(0.2, 0.05); // prefetch 4x the render window
        assert!(c.sigma() > before);
    }

    #[test]
    fn undershoot_lowers_sigma() {
        let mut c = controller(2.0);
        let before = c.sigma();
        c.observe(0.001, 0.05);
        assert!(c.sigma() < before);
    }

    #[test]
    fn balanced_step_is_near_fixed_point() {
        let mut c = controller(2.0);
        let before = c.sigma();
        c.observe(0.9 * 0.05, 0.05); // exactly the target ratio
        assert!((c.sigma() - before).abs() < 1e-9);
    }

    #[test]
    fn sigma_stays_clamped() {
        let mut c = controller(5.9);
        for _ in 0..100 {
            c.observe(10.0, 0.01); // massive overshoot
        }
        assert!(c.sigma() <= 6.0 + 1e-12);
        let mut c = controller(0.1);
        for _ in 0..100 {
            c.observe(0.0, 0.01);
        }
        assert!(c.sigma() >= 0.0);
    }

    #[test]
    fn zero_render_time_is_a_noop() {
        let mut c = controller(2.0);
        let before = c.sigma();
        c.observe(0.5, 0.0);
        assert_eq!(c.sigma(), before);
    }

    #[test]
    fn converges_on_a_monotone_plant() {
        // Toy plant: prefetch time decreases as sigma rises. The controller
        // must settle near the sigma where prefetch = 0.9 * render.
        let render = 0.05;
        let plant = |sigma: f64| (6.0 - sigma).max(0.0) * 0.02; // s
        let mut c = controller(0.5);
        for _ in 0..200 {
            let p = plant(c.sigma());
            c.observe(p, render);
        }
        let settled = plant(c.sigma());
        assert!(
            (settled - 0.9 * render).abs() < 0.01,
            "settled prefetch {settled} vs target {}",
            0.9 * render
        );
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        SigmaController::new(
            AdaptiveSigma { gain: 0.1, min_sigma: 5.0, max_sigma: 1.0, target_ratio: 0.9 },
            2.0,
        );
    }

    // ---- anti-windup: the satellite's bound-recovery contract --------

    /// How far one reversal step of the given factor must move σ: the
    /// full `gain · ln(factor)` correction, because a clamped integrator
    /// holds no hidden backlog to unwind first.
    fn one_step_correction(gain: f64, factor: f64) -> f64 {
        gain * factor.ln()
    }

    #[test]
    fn no_windup_at_upper_sigma_bound() {
        let cfg = AdaptiveSigma::default_for_bins(64);
        let mut c = SigmaController::new(cfg, 3.0);
        // Saturate hard at max for a long time: prefetch 100x the window.
        for _ in 0..1_000 {
            c.observe(5.0, 0.05);
        }
        assert!((c.sigma() - cfg.max_sigma).abs() < 1e-12, "pinned at max");
        // One reversal (prefetch at half target — the floor of the
        // under-target reading) must immediately move σ down by the full
        // single-step correction — no accumulated error.
        let before = c.sigma();
        c.observe(0.5 * cfg.target_ratio * 0.05, 0.05);
        let moved = before - c.sigma();
        let expect = one_step_correction(cfg.gain, 2.0);
        assert!((moved - expect).abs() < 1e-9, "windup detected: moved {moved} expected {expect}");
        // Readings below half target are floored there, so even a zero
        // reading applies the same bounded nudge — an empty step can
        // never slam σ across its range.
        let before = c.sigma();
        c.observe(0.0, 0.05);
        let moved = before - c.sigma();
        assert!(
            (moved - expect).abs() < 1e-9,
            "empty-step nudge unbounded: moved {moved} expected {expect}"
        );
    }

    #[test]
    fn no_windup_at_lower_sigma_bound() {
        let cfg = AdaptiveSigma::default_for_bins(64);
        let mut c = SigmaController::new(cfg, 2.0);
        // Saturate at min: prefetch far under target for a long time.
        for _ in 0..1_000 {
            c.observe(1e-9, 0.05);
        }
        assert!((c.sigma() - cfg.min_sigma).abs() < 1e-12, "pinned at min");
        // One overshoot by 4x must raise σ by the full correction.
        let before = c.sigma();
        c.observe(4.0 * cfg.target_ratio * 0.05, 0.05);
        let moved = c.sigma() - before;
        let expect = one_step_correction(cfg.gain, 4.0);
        assert!((moved - expect).abs() < 1e-9, "windup detected: moved {moved} expected {expect}");
    }

    // ---- the generic controller ------------------------------------

    #[test]
    fn integral_controller_tracks_and_clamps() {
        let mut c = IntegralController::new(ControllerConfig::new(0.5, 0.0, 10.0), 5.0);
        assert_eq!(c.output(), 5.0);
        c.observe(2.0, 1.0); // over target: raise
        assert!(c.output() > 5.0);
        c.observe(1.0, 2.0); // under target: back down
        assert!((c.output() - 5.0).abs() < 1e-12);
        for _ in 0..200 {
            c.observe(100.0, 1.0);
        }
        assert!(c.at_max());
        for _ in 0..200 {
            c.observe(1.0, 100.0);
        }
        assert!(c.at_min());
    }

    #[test]
    fn degenerate_inputs_are_noops() {
        let mut c = IntegralController::new(ControllerConfig::new(0.5, 0.0, 10.0), 5.0);
        c.observe(0.0, 1.0);
        c.observe(1.0, 0.0);
        c.observe(f64::NAN, 1.0);
        c.observe(1.0, f64::NAN);
        c.observe(0.0, 0.0);
        assert_eq!(c.output(), 5.0);
    }

    #[test]
    fn initial_output_is_clamped() {
        let c = IntegralController::new(ControllerConfig::new(0.1, 1.0, 2.0), 99.0);
        assert_eq!(c.output(), 2.0);
    }
}
