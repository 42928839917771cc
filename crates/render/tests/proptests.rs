//! Property-based tests for the renderer and analytics: 256 seeded cases
//! per property; a failure names the seed and case that replay it.

use viz_geom::rng::{for_cases, SplitMix64};
use viz_render::{CorrelationAccumulator, Rgba, TransferFunction};

const CASES: usize = 256;

/// Any normal `f32`: neither zero, subnormal, infinite nor NaN.
fn normal_f32(rng: &mut SplitMix64) -> f32 {
    loop {
        let v = f32::from_bits(rng.next_u64() as u32);
        if v.is_normal() {
            return v;
        }
    }
}

/// Transfer-function output is always a valid clamped color.
#[test]
fn tf_output_is_clamped() {
    for_cases(0x4e01, CASES, |rng, _| {
        let v = normal_f32(rng);
        let tf = TransferFunction::heat((-10.0, 10.0));
        let c = tf.sample(v);
        for comp in [c.r, c.g, c.b, c.a] {
            assert!((0.0..=1.0).contains(&comp));
        }
    });
}

/// Piecewise-linear interpolation is bounded by its control points.
#[test]
fn tf_opacity_within_control_range() {
    for_cases(0x4e02, CASES, |rng, _| {
        let v = rng.range(0.0, 1.0) as f32;
        let tf = TransferFunction::grayscale((0.0, 1.0));
        let a = tf.sample(v).a;
        assert!((0.0..=0.8 + 1e-6).contains(&a));
    });
}

/// Correlations are in [-1, 1], symmetric, with unit diagonal.
#[test]
fn correlation_matrix_is_valid() {
    for_cases(0x4e03, CASES, |rng, _| {
        let samples = (0..rng.index(2..200))
            .map(|_| {
                (
                    rng.range(0.0, 10.0) as f32,
                    rng.range(0.0, 10.0) as f32,
                    rng.range(0.0, 10.0) as f32,
                )
            })
            .collect::<Vec<_>>();
        let mut acc = CorrelationAccumulator::new(3);
        for (a, b, c) in &samples {
            acc.add(&[*a, *b, *c]);
        }
        let m = acc.matrix();
        for i in 0..3 {
            assert!((m[i * 3 + i] - 1.0).abs() < 1e-9);
            for j in 0..3 {
                assert!(m[i * 3 + j] >= -1.0 - 1e-9 && m[i * 3 + j] <= 1.0 + 1e-9);
                assert!((m[i * 3 + j] - m[j * 3 + i]).abs() < 1e-9);
            }
        }
    });
}

/// Correlation is invariant under positive affine transforms of a
/// variable.
#[test]
fn correlation_affine_invariance() {
    for_cases(0x4e04, CASES, |rng, _| {
        let samples = (0..rng.index(8..100))
            .map(|_| (rng.range(0.0, 10.0) as f32, rng.range(0.0, 10.0) as f32))
            .collect::<Vec<_>>();
        let scale = rng.range(0.1, 10.0) as f32;
        let shift = rng.range(-10.0, 10.0) as f32;
        let mut plain = CorrelationAccumulator::new(2);
        let mut scaled = CorrelationAccumulator::new(2);
        for (a, b) in &samples {
            plain.add(&[*a, *b]);
            scaled.add(&[*a * scale + shift, *b]);
        }
        let (mp, ms) = (plain.matrix(), scaled.matrix());
        // Degenerate (constant) inputs can flip to the 0 convention; only
        // compare when the variable actually varies.
        if mp[1].abs() > 1e-3 {
            assert!((mp[1] - ms[1]).abs() < 1e-2, "{} vs {}", mp[1], ms[1]);
        }
    });
}

/// Rgba lerp endpoints are exact.
#[test]
fn rgba_lerp_endpoints() {
    for_cases(0x4e05, CASES, |rng, _| {
        let r = rng.range(0.0, 1.0) as f32;
        let g = rng.range(0.0, 1.0) as f32;
        let b = rng.range(0.0, 1.0) as f32;
        let a = rng.range(0.0, 1.0) as f32;
        let x = Rgba::new(r, g, b, a);
        let y = Rgba::new(1.0 - r, 1.0 - g, 1.0 - b, 1.0 - a);
        assert_eq!(x.lerp(y, 0.0), x);
        assert_eq!(x.lerp(y, 1.0), y);
    });
}
