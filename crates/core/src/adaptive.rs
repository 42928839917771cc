//! The adaptive-σ controller.
//!
//! The paper leaves the entropy threshold σ as a free parameter. Tuning
//! it has a simple operational shape: a scalar output bounded to a safe
//! range, chasing a measurable target ("prefetch time ≈ render time"),
//! where over- and under-shoot by equal *factors* deserve equal
//! corrections. [`SigmaController`] is that shape: a log-ratio integral
//! controller whose integrator *is* the clamped σ — the standard
//! conditional anti-windup, so a controller that sat pinned at a bound
//! for an hour responds to the first reversal at full gain instead of
//! unwinding an accumulated error backlog. It tunes σ for the simulator's
//! sessions ([`crate::AppAwareConfig::adaptive`]).

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
/// per-step prefetch time ≈ render time. σ rises (prefetch less) when
/// prefetch spills past the render window, falls (use the idle I/O) when
/// under-used, each step by `gain · ln(actual/target)`, clamped into
/// `[min_sigma, max_sigma]`. Because the clamped σ is the *only*
/// integrator state, saturation cannot wind up: at a bound the controller
/// simply stays there, and the first error reversal moves it immediately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SigmaController {
    cfg: AdaptiveSigma,
    sigma: f64,
}

impl SigmaController {
    /// Start from an initial σ (clamped into bounds).
    pub(crate) fn new(cfg: AdaptiveSigma, initial_sigma: f64) -> Self {
        assert!(cfg.target_ratio > 0.0, "target ratio must be positive");
        assert!(cfg.gain >= 0.0, "gain must be non-negative");
        assert!(cfg.min_sigma <= cfg.max_sigma, "controller bounds inverted");
        SigmaController { cfg, sigma: initial_sigma.clamp(cfg.min_sigma, cfg.max_sigma) }
    }

    /// Current threshold.
    pub(crate) fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Feed one step's measured prefetch and render durations; returns the
    /// updated σ. Uses the log of the fill ratio so over- and under-shoot
    /// of equal *factors* produce equal corrections. A non-positive or
    /// non-finite render time carries no signal and leaves σ unchanged.
    pub(crate) fn observe(&mut self, prefetch_s: f64, render_s: f64) -> f64 {
        if render_s <= 0.0 {
            return self.sigma;
        }
        let target = self.cfg.target_ratio * render_s;
        // Steps with zero prefetch (everything already resident) carry no
        // signal about σ being too high — treat as a mild "lower σ" nudge
        // by flooring the reading at half the target, which bounds the
        // per-step correction to `gain * ln(1/2)` instead of letting a
        // single empty step slam σ to its minimum clamp.
        let actual = prefetch_s.max(0.5 * target);
        if !(actual.is_finite() && target.is_finite()) || actual <= 0.0 || target <= 0.0 {
            return self.sigma;
        }
        let error = (actual / target).ln();
        self.sigma =
            (self.sigma + self.cfg.gain * error).clamp(self.cfg.min_sigma, self.cfg.max_sigma);
        self.sigma
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
        // Over by 2x then under by 2x: equal factors, equal and opposite
        // corrections, back where it started.
        c.observe(2.0 * 0.9 * 0.05, 0.05);
        assert!(c.sigma() > before);
        c.observe(0.5 * 0.9 * 0.05, 0.05);
        assert!((c.sigma() - before).abs() < 1e-12);
    }

    #[test]
    fn sigma_stays_clamped() {
        // An out-of-range initial σ starts at the nearer bound.
        assert_eq!(controller(99.0).sigma(), 6.0);
        assert_eq!(controller(-1.0).sigma(), 0.0);
        let mut c = controller(5.9);
        for _ in 0..100 {
            c.observe(10.0, 0.01); // massive overshoot
        }
        assert_eq!(c.sigma(), 6.0);
        let mut c = controller(0.1);
        for _ in 0..100 {
            c.observe(0.0, 0.01);
        }
        assert_eq!(c.sigma(), 0.0);
    }

    #[test]
    fn zero_render_time_is_a_noop() {
        let mut c = controller(2.0);
        let before = c.sigma();
        c.observe(0.5, 0.0);
        assert_eq!(c.sigma(), before);
        // Negative or non-finite render times carry no signal either.
        for render in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            c.observe(0.5, render);
            c.observe(f64::NAN, render);
            c.observe(f64::INFINITY, render);
        }
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
}
