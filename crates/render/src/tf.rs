//! Transfer functions: the *data-dependent* interaction of §III-A.
//!
//! A transfer function maps scalar values to color and opacity; tuning it
//! is the canonical data-dependent operation that changes which blocks
//! matter without moving the camera.
//!
//! # Cost of a sample
//!
//! The packet ray march samples four values at once through
//! `sample_lanes`, where a branch would have to go one way for all four:
//! it counts the segment and picks the end points with selects, and takes
//! each segment's constants from a table built with the function. Its two
//! divisions (normalizing the value into the range, then into its segment)
//! and the four products of the lerp go through the crate's exact helpers
//! (`exact.rs`): a subnormal value — most of the benchmark's `lifted_rr`
//! voxels — would otherwise cost a ~60 ns x86 microcode assist per
//! `divss`/`mulss`. The helpers compute in `f64` and round once, with no
//! branch on the operands, and return the native operator's bits for every
//! input, so every colour is what plain `f32` arithmetic gives.
//! The MIP colour of a packet's four pixels takes the lanes too.
//! [`TransferFunction::sample`] is lane 0 of the same lookup: its callers
//! (block culling, mean opacity) run at most once per block or value, so
//! one lookup serves both, and the reference tests check the one the march
//! runs.
//!
//! A NaN value samples as [`Rgba::TRANSPARENT`]: the wire accepts every bit
//! pattern, and a NaN voxel must not panic the renderer.

use crate::exact::{div_lanes, mul, mul_lanes};
use crate::lanes::{map, select, zip, F32s, LANES};

/// Linear RGBA color, components in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rgba {
    /// Red component.
    pub r: f32,
    /// Green component.
    pub g: f32,
    /// Blue component.
    pub b: f32,
    /// Opacity (1 = opaque).
    pub a: f32,
}

impl Rgba {
    /// Construct; components are clamped to `[0, 1]`.
    pub fn new(r: f32, g: f32, b: f32, a: f32) -> Self {
        Rgba {
            r: r.clamp(0.0, 1.0),
            g: g.clamp(0.0, 1.0),
            b: b.clamp(0.0, 1.0),
            a: a.clamp(0.0, 1.0),
        }
    }

    /// Component `k` of `[r, g, b, a]`.
    #[inline(always)]
    fn get(&self, k: usize) -> f32 {
        [self.r, self.g, self.b, self.a][k]
    }

    /// Fully transparent black.
    pub const TRANSPARENT: Rgba = Rgba { r: 0.0, g: 0.0, b: 0.0, a: 0.0 };

    /// Component-wise linear interpolation.
    #[inline]
    pub fn lerp(self, other: Rgba, t: f32) -> Rgba {
        let l = |a: f32, b: f32| a + mul(b - a, t);
        Rgba {
            r: l(self.r, other.r),
            g: l(self.g, other.g),
            b: l(self.b, other.b),
            a: l(self.a, other.a),
        }
    }
}

/// A control point: scalar position (normalized to `[0, 1]`) plus color.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlPoint {
    /// Normalized scalar position in `[0, 1]`.
    pub x: f32,
    /// Color/opacity at that position.
    pub color: Rgba,
}

/// Piecewise-linear transfer function over the normalized scalar range.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFunction {
    points: Vec<ControlPoint>,
    /// `segments[i]` spans `points[i]` to `points[i + 1]` (one segment at
    /// `points[0]` when there is no other point).
    segments: Vec<Segment>,
    /// Scalar range mapped onto `[0, 1]` before lookup.
    pub range: (f32, f32),
}

/// The constants of the segment between two control points, computed once:
/// a value's place in the segment is `t = (x − x₀) / span`, and each colour
/// component is `base + delta·t`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    x: f32,
    span: f32,
    base: [f32; 4],
    delta: [f32; 4],
}

impl Segment {
    fn new(a: &ControlPoint, b: &ControlPoint) -> Self {
        let (p, q) = (a.color, b.color);
        Segment {
            x: a.x,
            span: (b.x - a.x).max(1e-12),
            base: [p.r, p.g, p.b, p.a],
            delta: [q.r - p.r, q.g - p.g, q.b - p.b, q.a - p.a],
        }
    }
}

impl TransferFunction {
    /// Build from control points (sorted by `x` internally). Needs ≥ 1,
    /// each with a finite `x`.
    pub fn new(mut points: Vec<ControlPoint>, range: (f32, f32)) -> Self {
        assert!(!points.is_empty(), "transfer function needs control points");
        assert!(range.0 <= range.1, "invalid scalar range");
        for (i, p) in points.iter().enumerate() {
            assert!(p.x.is_finite(), "control point {i} has a non-finite x: {p:?}");
        }
        points.sort_by(|a, b| a.x.total_cmp(&b.x));
        let segments = match points.len() {
            1 => vec![Segment::new(&points[0], &points[0])],
            _ => points.windows(2).map(|w| Segment::new(&w[0], &w[1])).collect(),
        };
        TransferFunction { points, segments, range }
    }

    /// The control points, sorted by `x`.
    #[cfg(test)]
    pub(crate) fn points(&self) -> &[ControlPoint] {
        &self.points
    }

    /// Grayscale ramp with linearly increasing opacity.
    pub fn grayscale(range: (f32, f32)) -> Self {
        TransferFunction::new(
            vec![
                ControlPoint { x: 0.0, color: Rgba::new(0.0, 0.0, 0.0, 0.0) },
                ControlPoint { x: 1.0, color: Rgba::new(1.0, 1.0, 1.0, 0.8) },
            ],
            range,
        )
    }

    /// Black-body "heat" ramp (transparent → red → yellow → white), the
    /// look of the paper's combustion renderings.
    pub fn heat(range: (f32, f32)) -> Self {
        TransferFunction::new(
            vec![
                ControlPoint { x: 0.0, color: Rgba::new(0.0, 0.0, 0.0, 0.0) },
                ControlPoint { x: 0.25, color: Rgba::new(0.5, 0.0, 0.0, 0.05) },
                ControlPoint { x: 0.5, color: Rgba::new(1.0, 0.2, 0.0, 0.25) },
                ControlPoint { x: 0.75, color: Rgba::new(1.0, 0.8, 0.0, 0.55) },
                ControlPoint { x: 1.0, color: Rgba::new(1.0, 1.0, 1.0, 0.9) },
            ],
            range,
        )
    }

    /// A narrow opacity peak around `center` (normalized), emulating an
    /// isosurface-style rendering; everything else transparent.
    pub fn iso_peak(center: f32, width: f32, color: Rgba, range: (f32, f32)) -> Self {
        let c = center.clamp(0.0, 1.0);
        let w = width.max(1e-4);
        TransferFunction::new(
            vec![
                ControlPoint { x: 0.0, color: Rgba::TRANSPARENT },
                ControlPoint { x: (c - w).max(0.0), color: Rgba::TRANSPARENT },
                ControlPoint { x: c, color },
                ControlPoint { x: (c + w).min(1.0), color: Rgba::TRANSPARENT },
                ControlPoint { x: 1.0, color: Rgba::TRANSPARENT },
            ],
            range,
        )
    }

    /// Perceptually ordered blue→green→yellow ramp (viridis-like control
    /// points) with linear opacity — the standard scientific colormap.
    pub fn viridis(range: (f32, f32)) -> Self {
        let pts = [
            (0.0, 0.267, 0.005, 0.329),
            (0.25, 0.229, 0.322, 0.546),
            (0.5, 0.128, 0.567, 0.551),
            (0.75, 0.369, 0.789, 0.383),
            (1.0, 0.993, 0.906, 0.144),
        ];
        TransferFunction::new(
            pts.iter()
                .map(|&(x, r, g, b)| ControlPoint { x, color: Rgba::new(r, g, b, 0.85 * x) })
                .collect(),
            range,
        )
    }

    /// Blue→white→red diverging map centered at the range midpoint, for
    /// signed anomaly fields; opacity grows away from the (transparent)
    /// center.
    pub fn diverging(range: (f32, f32)) -> Self {
        TransferFunction::new(
            vec![
                ControlPoint { x: 0.0, color: Rgba::new(0.02, 0.19, 0.38, 0.8) },
                ControlPoint { x: 0.25, color: Rgba::new(0.26, 0.58, 0.76, 0.4) },
                ControlPoint { x: 0.5, color: Rgba::new(1.0, 1.0, 1.0, 0.0) },
                ControlPoint { x: 0.75, color: Rgba::new(0.94, 0.54, 0.38, 0.4) },
                ControlPoint { x: 1.0, color: Rgba::new(0.40, 0.0, 0.12, 0.8) },
            ],
            range,
        )
    }

    /// Look up the color for a raw scalar value; NaN is transparent.
    #[inline]
    pub fn sample(&self, value: f32) -> Rgba {
        let [r, g, b, a] = self.sample_lanes([value; LANES]);
        Rgba { r: r[0], g: g[0], b: b[0], a: a[0] }
    }

    /// The colours of four values, one per lane of the packet march, as
    /// `[r, g, b, a]`, each component one value per lane, without a branch
    /// on the values. A NaN value (checked apart for a degenerate range)
    /// or a value over an infinite range has no place on the ramp and is
    /// transparent; a value at or beyond an end point takes that point's
    /// colour; any other value lies in the segment that ends at the first
    /// point right of it, found by counting the interior points at or left
    /// of it. The segment's constants come from [`Segment`], and the exact
    /// quotients and products are done for all four lanes at once.
    #[inline(always)]
    pub(crate) fn sample_lanes(&self, value: F32s) -> [F32s; 4] {
        let (lo, hi) = self.range;
        let x = if hi > lo {
            let q = div_lanes(map(value, |v| v - lo), [hi - lo; LANES]);
            map(q, |q| q.clamp(0.0, 1.0))
        } else {
            [0.0; LANES]
        };
        let pts = &self.points;
        let (first, last) = (pts[0], pts[pts.len() - 1]);
        let mut seg = [0usize; LANES];
        for p in pts.get(1..pts.len() - 1).unwrap_or_default() {
            seg = zip(seg, x, |i, x| i + usize::from(p.x <= x));
        }
        let seg = map(seg, |i| self.segments[i]);
        let t = div_lanes(zip(x, seg, |x, s| x - s.x), map(seg, |s| s.span));
        let nan = zip(x, value, |x, v| x.is_nan() || v.is_nan());
        let (below, above) = (map(x, |x| x <= first.x), map(x, |x| x >= last.x));
        let component = |k: usize| {
            let ramp =
                zip(map(seg, |s| s.base[k]), mul_lanes(map(seg, |s| s.delta[k]), t), |b, d| b + d);
            let ends = select(
                below,
                [first.color.get(k); LANES],
                select(above, [last.color.get(k); LANES], ramp),
            );
            select(nan, [0.0; LANES], ends)
        };
        [component(0), component(1), component(2), component(3)]
    }

    /// Maximum opacity the function assigns to any value in `[lo, hi]`.
    ///
    /// Piecewise linearity means the maximum is attained at an interval
    /// endpoint or at a control point inside the interval — O(points), no
    /// sampling. Drives opacity-based block culling: a block whose
    /// value range maps to zero opacity cannot contribute to the image.
    pub fn max_opacity_in(&self, lo: f32, hi: f32) -> f32 {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let mut best = self.sample(lo).a.max(self.sample(hi).a);
        let (rlo, rhi) = self.range;
        let span = (rhi - rlo).max(f32::MIN_POSITIVE);
        for p in &self.points {
            let value = rlo + p.x * span;
            if value >= lo && value <= hi {
                best = best.max(p.color.a);
            }
        }
        best
    }

    /// Mean opacity this transfer function assigns to a set of samples —
    /// used by query-driven importance to re-weight blocks when the user
    /// retunes visibility (a data-dependent operation).
    pub fn mean_opacity(&self, values: &[f32]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        values.iter().map(|&v| self.sample(v).a as f64).sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl TransferFunction {
        /// [`TransferFunction::sample`] as it was before the exact helpers,
        /// kept verbatim (with [`Rgba::lerp`] inlined) as the reference the
        /// ray march must match bit for bit. Panics on NaN.
        pub(crate) fn reference_sample(&self, value: f32) -> Rgba {
            let (lo, hi) = self.range;
            let x = if hi > lo { ((value - lo) / (hi - lo)).clamp(0.0, 1.0) } else { 0.0 };
            let pts = &self.points;
            if x <= pts[0].x {
                return pts[0].color;
            }
            if x >= pts[pts.len() - 1].x {
                return pts[pts.len() - 1].color;
            }
            let i = pts.partition_point(|p| p.x <= x);
            let (a, b) = (&pts[i - 1], &pts[i]);
            let span = (b.x - a.x).max(1e-12);
            let t = (x - a.x) / span;
            let l = |a: f32, b: f32| a + (b - a) * t;
            let (p, q) = (a.color, b.color);
            Rgba { r: l(p.r, q.r), g: l(p.g, q.g), b: l(p.b, q.b), a: l(p.a, q.a) }
        }
    }

    /// The transfer functions the image tests cross: the five built-ins
    /// (`diverging` over a range that straddles 0) and one whose first
    /// control point is opaque, so a zero or subnormal sample is visible.
    pub(crate) fn tf_family((lo, hi): (f32, f32)) -> Vec<(&'static str, TransferFunction)> {
        let signed = (-hi.abs().max(lo.abs()), hi.abs().max(lo.abs()));
        vec![
            ("heat", TransferFunction::heat((lo, hi))),
            ("grayscale", TransferFunction::grayscale((lo, hi))),
            ("viridis", TransferFunction::viridis((lo, hi))),
            ("diverging", TransferFunction::diverging(signed)),
            (
                "iso_peak",
                TransferFunction::iso_peak(0.3, 0.1, Rgba::new(0.9, 0.6, 0.2, 0.6), (lo, hi)),
            ),
            (
                "opaque_first",
                TransferFunction::new(
                    vec![
                        ControlPoint { x: 0.0, color: Rgba::new(0.3, 0.7, 0.9, 0.9) },
                        ControlPoint { x: 0.4, color: Rgba::new(0.8, 0.1, 0.3, 0.2) },
                        ControlPoint { x: 1.0, color: Rgba::new(1.0, 1.0, 0.6, 0.7) },
                    ],
                    (lo, hi),
                ),
            ),
        ]
    }

    /// Every voxel value of the benchmark scene (every 97th in a debug
    /// build), their negations and the specials sample to the reference's
    /// bits under every transfer function of the family, over the field's
    /// range and over a degenerate one: through `sample`, and through
    /// `sample_lanes` four neighbouring values at a time, lane by lane.
    #[test]
    fn sample_equals_the_reference_on_every_voxel_value() {
        let (field, _, _) = crate::bricked::tests::lifted();
        let stride = if cfg!(debug_assertions) { 97 } else { 1 };
        let mut values: Vec<f32> =
            field.data().iter().step_by(stride).flat_map(|&v| [v, -v]).collect();
        values.extend([0.0, -0.0, f32::MIN_POSITIVE, 1e-45, f32::INFINITY, f32::NEG_INFINITY]);
        values.sort_by(f32::total_cmp);
        values.dedup_by(|a, b| a.to_bits() == b.to_bits());
        let bits = |c: Rgba| [c.r, c.g, c.b, c.a].map(f32::to_bits);
        let (lo, hi) = field.min_max();
        let tfs = tf_family((lo, hi)).into_iter().chain(tf_family((hi, hi)));
        for (name, tf) in tfs {
            let range = tf.range;
            for &v in &values {
                let (got, want) = (tf.sample(v), tf.reference_sample(v));
                assert_eq!(bits(got), bits(want), "{name} over {range:?} at {v:e}");
            }
            for four in values.chunks(LANES) {
                let v = map([0, 1, 2, 3], |i| four[i % four.len()]);
                let [r, g, b, a] = tf.sample_lanes(v);
                for i in 0..LANES {
                    let got = Rgba { r: r[i], g: g[i], b: b[i], a: a[i] };
                    let want = tf.reference_sample(v[i]);
                    assert_eq!(bits(got), bits(want), "{name} over {range:?}, lane {i} of {v:?}");
                }
            }
        }
    }

    #[test]
    fn nan_value_samples_transparent_instead_of_panicking() {
        let nans = [f32::NAN, -f32::NAN, f32::from_bits(0x7fc0_1234)];
        for (name, tf) in tf_family((0.0, 2.0)) {
            for v in nans {
                assert_eq!(tf.sample(v), Rgba::TRANSPARENT, "{name}");
            }
            assert_eq!(tf.mean_opacity(&[f32::NAN, f32::NAN]), 0.0, "{name}");
            assert_eq!(tf.mean_opacity(&[f32::NAN, 2.0]), f64::from(tf.sample(2.0).a) / 2.0);
        }
        // A degenerate or infinite range does not make NaN visible either.
        assert_eq!(TransferFunction::heat((1.0, 1.0)).sample(f32::NAN), Rgba::TRANSPARENT);
        let unbounded = TransferFunction::heat((f32::NEG_INFINITY, f32::INFINITY));
        assert_eq!(unbounded.sample(f32::NAN), Rgba::TRANSPARENT);
        assert_eq!(unbounded.sample(1.0), Rgba::TRANSPARENT);
        // In the lanes, a NaN lane is transparent beside lanes that are not.
        let ranges = [(0.0, 2.0), (1.0, 1.0), (f32::NEG_INFINITY, f32::INFINITY)];
        for (name, tf) in ranges.into_iter().flat_map(tf_family) {
            let [r, g, b, a] = tf.sample_lanes([1.0, f32::NAN, 2.0, -f32::NAN]);
            let lane = |i: usize| Rgba { r: r[i], g: g[i], b: b[i], a: a[i] };
            assert_eq!([lane(1), lane(3)], [Rgba::TRANSPARENT; 2], "{name} over {:?}", tf.range);
            assert_eq!([lane(0), lane(2)], [tf.sample(1.0), tf.sample(2.0)], "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "control point 1 has a non-finite x")]
    fn nan_control_point_panics_with_its_index() {
        TransferFunction::new(
            vec![
                ControlPoint { x: 0.0, color: Rgba::TRANSPARENT },
                ControlPoint { x: f32::NAN, color: Rgba::new(1.0, 0.0, 0.0, 1.0) },
            ],
            (0.0, 1.0),
        );
    }

    #[test]
    fn rgba_clamps() {
        let c = Rgba::new(2.0, -1.0, 0.5, 3.0);
        assert_eq!((c.r, c.g, c.b, c.a), (1.0, 0.0, 0.5, 1.0));
    }

    #[test]
    fn grayscale_endpoints() {
        let tf = TransferFunction::grayscale((0.0, 10.0));
        assert_eq!(tf.sample(0.0).a, 0.0);
        let top = tf.sample(10.0);
        assert_eq!(top.r, 1.0);
        assert!((top.a - 0.8).abs() < 1e-6);
    }

    #[test]
    fn midpoint_interpolates() {
        let tf = TransferFunction::grayscale((0.0, 1.0));
        let mid = tf.sample(0.5);
        assert!((mid.r - 0.5).abs() < 1e-6);
        assert!((mid.a - 0.4).abs() < 1e-6);
    }

    #[test]
    fn out_of_range_clamps_to_endpoints() {
        let tf = TransferFunction::grayscale((0.0, 1.0));
        assert_eq!(tf.sample(-5.0), tf.sample(0.0));
        assert_eq!(tf.sample(99.0), tf.sample(1.0));
    }

    #[test]
    fn iso_peak_is_localized() {
        let tf = TransferFunction::iso_peak(0.5, 0.05, Rgba::new(1.0, 0.0, 0.0, 1.0), (0.0, 1.0));
        assert_eq!(tf.sample(0.5).a, 1.0);
        assert_eq!(tf.sample(0.3).a, 0.0);
        assert_eq!(tf.sample(0.7).a, 0.0);
    }

    #[test]
    fn degenerate_range_is_safe() {
        let tf = TransferFunction::grayscale((2.0, 2.0));
        let c = tf.sample(2.0);
        assert!(c.r.is_finite());
    }

    #[test]
    fn heat_opacity_is_monotone() {
        let tf = TransferFunction::heat((0.0, 1.0));
        let mut prev = -1.0f32;
        for i in 0..=20 {
            let a = tf.sample(i as f32 / 20.0).a;
            assert!(a >= prev - 1e-6, "opacity dipped at {i}");
            prev = a;
        }
    }

    #[test]
    fn mean_opacity_reflects_visibility() {
        let tf = TransferFunction::iso_peak(0.8, 0.1, Rgba::new(1.0, 1.0, 1.0, 1.0), (0.0, 1.0));
        let visible = vec![0.8f32; 100];
        let hidden = vec![0.1f32; 100];
        assert!(tf.mean_opacity(&visible) > 0.9);
        assert_eq!(tf.mean_opacity(&hidden), 0.0);
        assert_eq!(tf.mean_opacity(&[]), 0.0);
    }

    #[test]
    fn unsorted_control_points_are_sorted() {
        let tf = TransferFunction::new(
            vec![
                ControlPoint { x: 1.0, color: Rgba::new(1.0, 0.0, 0.0, 1.0) },
                ControlPoint { x: 0.0, color: Rgba::TRANSPARENT },
            ],
            (0.0, 1.0),
        );
        assert_eq!(tf.sample(0.0).a, 0.0);
        assert_eq!(tf.sample(1.0).a, 1.0);
    }

    #[test]
    fn viridis_is_monotone_in_luminance_and_opacity() {
        let tf = TransferFunction::viridis((0.0, 1.0));
        let mut prev_a = -1.0f32;
        let mut prev_lum = -1.0f32;
        for i in 0..=10 {
            let c = tf.sample(i as f32 / 10.0);
            let lum = 0.2126 * c.r + 0.7152 * c.g + 0.0722 * c.b;
            assert!(c.a >= prev_a - 1e-6, "opacity dipped at {i}");
            assert!(lum >= prev_lum - 1e-3, "luminance dipped at {i}");
            prev_a = c.a;
            prev_lum = lum;
        }
    }

    #[test]
    fn diverging_center_is_transparent_ends_opaque() {
        let tf = TransferFunction::diverging((-1.0, 1.0));
        assert_eq!(tf.sample(0.0).a, 0.0);
        assert!((tf.sample(-1.0).a - 0.8).abs() < 1e-6);
        assert!((tf.sample(1.0).a - 0.8).abs() < 1e-6);
        // Symmetric opacity.
        assert!((tf.sample(-0.5).a - tf.sample(0.5).a).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn empty_points_panic() {
        TransferFunction::new(vec![], (0.0, 1.0));
    }
}
