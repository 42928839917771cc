//! `f32` multiply and divide that keep subnormal operands off x86's slow
//! path, bit for bit.
//!
//! On x86 every `mulss`/`divss` with a subnormal operand or result takes a
//! microcode assist of ~50–70 ns, against ~1 ns for normal operands;
//! `addss`, `subss`, `maxss` and the `f32`↔`f64` conversions do not. The
//! benchmark's `lifted_rr` field is more than half subnormal voxels, so the
//! transfer function's divisions and lerp and the compositing products of
//! the ray march ([`crate::tf`], [`crate::raycast`]) go through [`mul`] and
//! [`div`].
//!
//! Each forms the exact operation in `f64` and rounds once to `f32`. An
//! `f32 × f32` product is exact in `f64`, and an `f64` quotient of two
//! `f32`s rounded to `f32` is the `f32` quotient because 53 ≥ 2·24 + 2, so
//! the result is the native one for every input — including signed zeros,
//! infinities and subnormal results. No `f32` is subnormal as an `f64`, and
//! no product or quotient of two `f32`s underflows in `f64`, so no operand
//! or result reaches the assist. There is no branch on the operands: in a
//! frame whose subnormal samples are interleaved along every ray, a test
//! for normal operands mispredicts, and every miss costs more than the
//! `f64` operation saves. Flushing subnormals (FTZ/DAZ, or to zero by hand)
//! or a transfer function run end to end in `f64` would each change image
//! bits.
//!
//! One operand passes through [`opaque`], an optimisation barrier that
//! emits no instruction: LLVM narrows `((a as f64) * (b as f64)) as f32`
//! straight back to `mulss` (and `/` to `divss`), since the result has the
//! same bits, which would bring the assist back. `std::hint::black_box`
//! blocks the narrowing too, but spills its operand to the stack.

/// `a * b`, bit for bit, without reaching `mulss`.
#[inline]
pub(crate) fn mul(a: f32, b: f32) -> f32 {
    (opaque(f64::from(a)) * f64::from(b)) as f32
}

/// `a / b`, bit for bit, without reaching `divss`.
#[inline]
pub(crate) fn div(a: f32, b: f32) -> f32 {
    (opaque(f64::from(a)) / f64::from(b)) as f32
}

/// `x`, unknown to the optimiser: an empty `asm!` template that claims to
/// rewrite the register holding `x`, so LLVM cannot see that it is a
/// widened `f32` and narrow the operation it feeds.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn opaque(mut x: f64) -> f64 {
    // SAFETY: the template is a comment, so no instruction is emitted; it
    // reads and writes no memory, stack or flags (as the options declare),
    // and leaves `x` in its register unchanged.
    unsafe {
        std::arch::asm!("/* {0} */", inout(xmm_reg) x, options(pure, nomem, nostack, preserves_flags));
    }
    x
}

/// `x`. Elsewhere the compiler may narrow the `f64` operation to the native
/// `f32` one, which has the same bits, and there is no assist to avoid.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn opaque(x: f64) -> f64 {
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tf::{Rgba, TransferFunction};
    use viz_geom::par;

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

    /// Whether `v` is what an underflowing operation returns: subnormal or ±0.
    fn underflowed(v: f32) -> bool {
        v.is_subnormal() || v == 0.0
    }

    /// Normal operands whose product or quotient underflows, which the
    /// native operator also sends to the assist, against the native
    /// operator: every 1021st significand (every 13273rd in a debug build)
    /// of the bottom 30 binades of both signs through the same operations
    /// as the subnormal sweep, and every pair of tiny normals multiplied,
    /// and divided by the large normal mirroring the second.
    #[test]
    fn helpers_match_native_when_normal_operands_underflow() {
        let stride = if cfg!(debug_assertions) { 13_273 } else { 1021 };
        let (factors, divisors) = co_operands();
        let per_binade = 0x0080_0000_usize.div_ceil(stride);
        let counts: Vec<(usize, usize)> = par::map_ranges(30 * per_binade, |range| {
            let (mut n, mut under) = (0, 0);
            for i in range {
                let bits = (((1 + i / per_binade) << 23) | (i % per_binade * stride)) as u32;
                for a in [f32::from_bits(bits), -f32::from_bits(bits)] {
                    let mut same = |got: f32, want: f32, what: &str, c: f32| {
                        assert_eq!(got.to_bits(), want.to_bits(), "{a:e} {what} {c:e}");
                        under += usize::from(c.is_normal() && underflowed(want));
                    };
                    for &c in &factors {
                        same(mul(a, c), a * c, "*", c);
                    }
                    for &c in &divisors {
                        same(div(a, c), a / c, "/", c);
                    }
                    for c in EDGES {
                        same(div(a, c), a / c, "/", c);
                        same(div(c, a), c / a, "into", c);
                    }
                    n += 1;
                }
            }
            (n, under)
        });
        let n: usize = counts.iter().map(|c| c.0).sum();
        assert_eq!(n, 2 * 30 * per_binade);
        assert!(counts.iter().map(|c| c.1).sum::<usize>() > n, "too few underflows: {counts:?}");

        // Biased exponents 1..=104 (2⁻¹²⁶ up to 2⁻²³), and their mirrors
        // 2¹²⁷ down to 2²⁴: products and quotients from normal down to ±0,
        // across the rounding boundary at half the least subnormal.
        let normals = |exponents: &[u32]| -> Vec<f32> {
            let significands = [0, 1, 0x2a_aaab, 0x40_0000, 0x7f_ffff];
            let bits = exponents.iter().flat_map(|e| significands.map(|m| (e << 23) | m));
            bits.flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)]).collect()
        };
        let tiny = normals(&(1..=104).collect::<Vec<_>>());
        let huge = normals(&(1..=104).map(|e| 255 - e).collect::<Vec<_>>());
        let mut under = 0;
        for &a in &tiny {
            for (&b, &h) in tiny.iter().zip(&huge) {
                assert!(a.is_normal() && b.is_normal() && h.is_normal());
                assert_eq!(mul(a, b).to_bits(), (a * b).to_bits(), "{a:e} * {b:e}");
                assert_eq!(div(a, h).to_bits(), (a / h).to_bits(), "{a:e} / {h:e}");
                under += usize::from(underflowed(a * b)) + usize::from(underflowed(a / h));
            }
        }
        assert!(under * 2 > tiny.len() * tiny.len(), "only {under} underflows");
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
