//! `f32` multiply and divide that keep subnormal operands off x86's slow
//! path, bit for bit.
//!
//! On x86 every `mulss`/`divss` with a subnormal operand or result takes a
//! microcode assist of ~50–70 ns, against ~1 ns for normal operands;
//! `addss`, `subss`, `maxss` and the `f32`↔`f64` conversions do not. The
//! benchmark's `lifted_rr` field is more than half subnormal voxels, so the
//! transfer function's divisions and lerp and the compositing products of
//! the ray march ([`crate::tf`], [`crate::raycast`]) go through [`mul`] and
//! [`div`]:
//!
//! - both operands normal: the native instruction (a normal pair whose
//!   product or quotient underflows still takes the assist; testing for
//!   it would cost every common-case operation more compares);
//! - otherwise: the exact operation in `f64`, rounded once to `f32`. An
//!   `f32 × f32` product is exact in `f64`, and an `f64` quotient of two
//!   `f32`s rounded to `f32` is the `f32` quotient because 53 ≥ 2·24 + 2,
//!   so the result is the native one — including signed zeros, infinities
//!   and subnormal results. Flushing subnormals (FTZ/DAZ, or to zero by
//!   hand) or a transfer function run end to end in `f64` would each
//!   change image bits.
//!
//! A subnormal operand is widened from its bits (significand × 2⁻¹⁴⁹):
//! LLVM narrows `((a as f64) * (b as f64)) as f32` straight back to
//! `mulss`, so a plain `as f64` would bring the assist back.

/// `a * b`, bit for bit, without a subnormal operand reaching `mulss`.
#[inline]
pub(crate) fn mul(a: f32, b: f32) -> f32 {
    if a.is_normal() && b.is_normal() {
        a * b
    } else {
        (widen(a) * widen(b)) as f32
    }
}

/// `a / b`, bit for bit, without a subnormal operand reaching `divss`.
#[inline]
pub(crate) fn div(a: f32, b: f32) -> f32 {
    if a.is_normal() && b.is_normal() {
        a / b
    } else {
        (widen(a) / widen(b)) as f32
    }
}

/// `f64::from(v)`, formed from the bits when `v` is subnormal.
#[inline]
fn widen(v: f32) -> f64 {
    if v.is_subnormal() {
        // 2⁻¹⁴⁹, the weight of a subnormal's significand.
        let ulp = f64::from_bits(0x36a0_0000_0000_0000);
        let m = f64::from(v.to_bits() & 0x007f_ffff) * ulp;
        if v.is_sign_negative() {
            -m
        } else {
            m
        }
    } else {
        f64::from(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tf::{Rgba, TransferFunction};
    use viz_geom::par;

    #[test]
    fn widen_is_the_exact_conversion() {
        for bits in [0, 1, 2, 0x0040_0000, 0x007f_ffff, 0x0080_0000, 0x3f80_0000, 0x7f80_0000] {
            for v in [f32::from_bits(bits), -f32::from_bits(bits)] {
                assert_eq!(widen(v).to_bits(), f64::from(v).to_bits(), "{v:e}");
            }
        }
    }

    /// Normal, subnormal and special values every helper is swept against.
    const EDGES: [f32; 11] = [
        0.0,
        1.0,
        3.0,
        1e-30,
        1e30,
        f32::MIN_POSITIVE,
        f32::MAX,
        -f32::EPSILON,
        -1.4e-45,
        6.5e-39,
        f32::INFINITY,
    ];

    /// What the ray march multiplies a subnormal by: the built-in transfer
    /// functions' colour deltas, the compositing's `1 − α` at
    /// α ∈ {0, 2⁻²⁴, 0.5, 0.97}, and 0.05 (`heat`'s first opacity).
    /// What it divides one by: their segment spans.
    fn co_operands() -> (Vec<f32>, Vec<f32>) {
        let tfs = [
            TransferFunction::heat((0.0, 1.0)),
            TransferFunction::grayscale((0.0, 1.0)),
            TransferFunction::viridis((0.0, 1.0)),
            TransferFunction::diverging((0.0, 1.0)),
            TransferFunction::iso_peak(0.6, 0.05, Rgba::new(0.9, 0.4, 0.1, 0.7), (0.0, 1.0)),
        ];
        let (mut factors, mut divisors) = (Vec::new(), Vec::new());
        for seg in tfs.iter().flat_map(|tf| tf.points().windows(2)) {
            let (p, q) = (seg[0].color, seg[1].color);
            factors.extend([q.r - p.r, q.g - p.g, q.b - p.b, q.a - p.a]);
            divisors.push(seg[1].x - seg[0].x);
        }
        factors.extend([0.0f32, 2f32.powi(-24), 0.5, 0.97].map(|alpha| 1.0 - alpha));
        factors.push(0.05);
        for ops in [&mut factors, &mut divisors] {
            ops.extend(EDGES);
            ops.sort_by(f32::total_cmp);
            ops.dedup_by(|a, b| a.to_bits() == b.to_bits());
        }
        (factors, divisors)
    }

    /// Every subnormal significand of both signs (every 4099th in a debug
    /// build; the release test run sweeps them all) times each factor,
    /// divided by each divisor and divided into each edge value, against
    /// the native operator.
    #[test]
    fn helpers_match_native_on_every_subnormal() {
        let stride = if cfg!(debug_assertions) { 4099 } else { 1 };
        let (factors, divisors) = co_operands();
        assert!(factors.len() > 50 && divisors.len() > 12, "{factors:?} {divisors:?}");
        let significands = 0x007f_ffff_usize.div_ceil(stride);
        let checked: Vec<usize> = par::map_ranges(significands, |range| {
            let mut n = 0;
            for i in range {
                let bits = (1 + i * stride) as u32;
                for s in [f32::from_bits(bits), -f32::from_bits(bits)] {
                    let same = |got: f32, want: f32, what: &str, c: f32| {
                        assert_eq!(got.to_bits(), want.to_bits(), "{s:e} {what} {c:e}");
                    };
                    for &c in &factors {
                        same(mul(s, c), s * c, "*", c);
                    }
                    for &c in &divisors {
                        same(div(s, c), s / c, "/", c);
                    }
                    for c in EDGES {
                        same(div(c, s), c / s, "into", c);
                    }
                    n += 1;
                }
            }
            n
        });
        assert_eq!(checked.iter().sum::<usize>(), 2 * significands);
    }

    #[test]
    fn helpers_match_native_on_normal_operands() {
        let vals = [1.0f32, -0.37, 0.25, 3.5e-20, 7.1e-30, 1.2e30, f32::MIN_POSITIVE, f32::MAX];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(mul(a, b).to_bits(), (a * b).to_bits(), "{a:e} * {b:e}");
                assert_eq!(div(a, b).to_bits(), (a / b).to_bits(), "{a:e} / {b:e}");
            }
        }
    }
}
