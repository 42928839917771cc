//! `f32` multiply and divide that keep subnormal operands off x86's slow
//! path, bit for bit.
//!
//! On x86 every `mulss`/`divss` with a subnormal operand or result takes a
//! microcode assist of ~50–70 ns, against ~1 ns for normal operands;
//! `addss`, `subss`, `maxss` and the `f32`↔`f64` conversions do not. The
//! benchmark's `lifted_rr` field is more than half subnormal voxels, so the
//! transfer function's divisions and lerp and the compositing products of
//! the packet ray march ([`crate::tf`], [`crate::raycast`]) go through
//! [`mul_lanes`] and [`div_lanes`], which do the operation in each of the
//! four lanes ([`crate::lanes`]); [`mul`] is the product of one pair, for
//! `Rgba::lerp`.
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
//! One operand passes through an optimisation barrier that emits no
//! instruction: LLVM narrows `((a as f64) * (b as f64)) as f32` straight
//! back to `mulss` (and `/` to `divss`), and the four-lane form to
//! `mulps`/`divps`, since the result has the same bits, which would bring
//! the assist back. [`opaque`] hides one widened operand; [`opaque_lanes`]
//! hides all four at once, in the two `xmm` registers that hold them, so the
//! packed `f64` operation stays packed. `std::hint::black_box` blocks the
//! narrowing too, but spills its operand to the stack.

use crate::lanes::{map, zip, F32s, F64s};

/// `a * b`, bit for bit, without reaching `mulss`.
#[inline]
pub(crate) fn mul(a: f32, b: f32) -> f32 {
    (opaque(f64::from(a)) * f64::from(b)) as f32
}

/// `a * b` in every lane, bit for bit, without reaching `mulps`.
#[inline(always)]
pub(crate) fn mul_lanes(a: F32s, b: F32s) -> F32s {
    zip(opaque_lanes(map(a, f64::from)), b, |a, b| (a * f64::from(b)) as f32)
}

/// `a / b` in every lane, bit for bit, without reaching `divps`.
#[inline(always)]
pub(crate) fn div_lanes(a: F32s, b: F32s) -> F32s {
    zip(opaque_lanes(map(a, f64::from)), b, |a, b| (a / f64::from(b)) as f32)
}

/// `x`, unknown to the optimiser: [`opaque`] for four lanes, passed through
/// one empty `asm!` template as two packed pairs.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn opaque_lanes(x: F64s) -> F64s {
    use std::arch::x86_64::__m128d;
    // SAFETY: `[f64; 4]` and `[__m128d; 2]` are both 32 bytes of `f64`s in
    // lane order with no padding, and every bit pattern is valid for both.
    let [mut lo, mut hi] = unsafe { std::mem::transmute::<F64s, [__m128d; 2]>(x) };
    // SAFETY: as in `opaque`: the template is a comment, so no instruction
    // is emitted, and it touches no memory, stack or flags.
    unsafe {
        std::arch::asm!(
            "/* {0} {1} */",
            inout(xmm_reg) lo,
            inout(xmm_reg) hi,
            options(pure, nomem, nostack, preserves_flags)
        );
    }
    // SAFETY: the same layout argument, back.
    unsafe { std::mem::transmute::<[__m128d; 2], F64s>([lo, hi]) }
}

/// `x`, as [`opaque`] is elsewhere.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn opaque_lanes(x: F64s) -> F64s {
    x
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
    use crate::lanes::LANES;
    use crate::tf::{Rgba, TransferFunction};
    use viz_geom::par;

    /// `a / b` through [`div_lanes`], the one division the march makes,
    /// with `a` and `b` in every lane; the lanes must agree.
    fn div(a: f32, b: f32) -> f32 {
        let q = div_lanes([a; LANES], [b; LANES]);
        assert_eq!(map(q, f32::to_bits), [q[0].to_bits(); LANES], "{a:e} / {b:e}");
        q[0]
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

    /// Every lane of [`mul_lanes`] and [`div_lanes`] returns the native
    /// operator's bits, on the subnormal and special edge values.
    #[test]
    fn lane_helpers_match_native() {
        let (factors, divisors) = co_operands();
        let mut values: Vec<f32> = EDGES.to_vec();
        values.extend((0..40).map(|i| f32::from_bits(1 + i * 209_715)));
        for a in values.chunks_exact(LANES) {
            let a = [a[0], a[1], a[2], a[3]];
            for &c in &factors {
                let want = map(a, |a| (a * c).to_bits());
                assert_eq!(map(mul_lanes(a, [c; LANES]), f32::to_bits), want, "{a:?} * {c:e}");
            }
            for &c in &divisors {
                let want = map(a, |a| (a / c).to_bits());
                assert_eq!(map(div_lanes(a, [c; LANES]), f32::to_bits), want, "{a:?} / {c:e}");
            }
        }
    }

    /// In an optimised build the lane helpers stay on the `f64` path: had
    /// the compiler narrowed them to `mulps`/`divps`, the same bits would
    /// come back, but a subnormal operand would take x86's microcode assist
    /// and run tens of times slower than a normal one. So this times both
    /// and bounds the ratio (a CPU without the assist passes either way).
    /// The two alternate, each pass ~1 ms long, so that load from other
    /// processes falls on both alike, and each side keeps its fastest pass.
    /// An unoptimised build narrows nothing, so it runs in release only.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing: only an optimised build narrows")]
    fn lane_helpers_take_no_subnormal_assist() {
        use std::hint::black_box;
        use std::time::Instant;

        let pass = |a: F32s| {
            let start = Instant::now();
            let mut acc = [0.0f32; LANES];
            for _ in 0..200_000 {
                let a = black_box(a);
                let (p, q) = (mul_lanes(a, [0.7; LANES]), div_lanes(a, [1.3; LANES]));
                acc = black_box(zip(zip(acc, p, |s, p| s + p), q, |s, q| s + q));
            }
            start.elapsed().as_secs_f64()
        };
        let (mut subnormal, mut normal) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..11 {
            subnormal = subnormal.min(pass([1e-40, -3e-41, 7e-39, 2e-45]));
            normal = normal.min(pass([1.5, -2.0, 0.3, 9.0]));
        }
        assert!(subnormal < 4.0 * normal, "subnormal lanes {subnormal:e} s, normal {normal:e} s");
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
