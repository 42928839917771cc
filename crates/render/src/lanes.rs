//! Four lanes of arithmetic for the packet ray march.
//!
//! The march ([`crate::raycast`]) advances four rays of a row in lock-step.
//! A value per ray is a plain array with one element per lane, and every
//! operation here applies the scalar operator to each lane on its own, so a
//! lane computes exactly the bits its ray computes alone: separate `*` and
//! `+` (Rust never contracts them into a fused multiply-add), no flushing of
//! subnormals, and the same comparisons, in the same order, behind each
//! select. The compiler turns the element-wise bodies into packed SSE2
//! instructions, two `f64` or four `f32` lanes to an instruction. It does
//! so only while the lanes stay in registers: `[T; N]::map` in the march
//! compiled to an out-of-line call that spilled every lane, hence [`map`]
//! and [`zip`].
//!
//! A [`Mask`] says which lanes take part in a step; a lane outside it keeps
//! its state through [`select`].

/// Rays marched together.
pub(crate) const LANES: usize = 4;

/// One `f64` per lane.
pub(crate) type F64s = [f64; LANES];
/// One `f32` per lane.
pub(crate) type F32s = [f32; LANES];
/// One flag per lane.
pub(crate) type Mask = [bool; LANES];

/// `f` of every lane.
#[inline(always)]
pub(crate) fn map<T: Copy, U>(a: [T; LANES], f: impl Fn(T) -> U) -> [U; LANES] {
    [f(a[0]), f(a[1]), f(a[2]), f(a[3])]
}

/// `f` of every lane of `a` and `b`.
#[inline(always)]
pub(crate) fn zip<T: Copy, U: Copy, V>(
    a: [T; LANES],
    b: [U; LANES],
    f: impl Fn(T, U) -> V,
) -> [V; LANES] {
    [f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])]
}

/// `a` where `m` is set, `b` elsewhere.
#[inline(always)]
pub(crate) fn select<T: Copy>(m: Mask, a: [T; LANES], b: [T; LANES]) -> [T; LANES] {
    [
        if m[0] { a[0] } else { b[0] },
        if m[1] { a[1] } else { b[1] },
        if m[2] { a[2] } else { b[2] },
        if m[3] { a[3] } else { b[3] },
    ]
}

/// Whether any lane of `m` is set.
#[inline(always)]
pub(crate) fn any(m: Mask) -> bool {
    m[0] | m[1] | m[2] | m[3]
}

/// `a + (b − a)·t` in every lane: trilinear reconstruction's lerp.
#[inline(always)]
fn lerp(a: F64s, b: F64s, t: F64s) -> F64s {
    zip(a, zip(zip(b, a, |b, a| b - a), t, |d, t| d * t), |a, d| a + d)
}

/// Trilinear reconstruction in every lane from the cell's eight corners
/// `v` (x-fastest) and the fractions `f` along x, y and z: four lerps along
/// x, two along y, one along z.
#[inline(always)]
pub(crate) fn trilinear(v: [F64s; 8], [fx, fy, fz]: [F64s; 3]) -> F64s {
    let c00 = lerp(v[0], v[1], fx);
    let c10 = lerp(v[2], v[3], fx);
    let c01 = lerp(v[4], v[5], fx);
    let c11 = lerp(v[6], v[7], fx);
    lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz)
}

/// `⌊c⌋` of every lane, as an `f64` and as an index, for `c` in
/// `[0, 2³¹)` or NaN, which floors to 0: what `c as usize` truncates `c`
/// to, without the saturating float-to-integer conversion, which the
/// compiler does one lane at a time. Adding 2⁵² rounds `c` to the nearest
/// integer `r` (exactly, below 2⁵²); the floor is `r`, or `r − 1` where
/// that rounded up; and the floor's low 32 bits in `⌊c⌋ + 2⁵²` are the
/// integer.
#[inline(always)]
pub(crate) fn floor(c: F64s) -> (F64s, [u32; LANES]) {
    const M: f64 = 4_503_599_627_370_496.0; // 2⁵²
    let r = map(c, |c| (c + M) - M);
    let f = zip(r, c, |r, c| if r > c { r - 1.0 } else { r });
    let f = zip(f, c, |f, c| if c.is_nan() { 0.0 } else { f });
    (f, map(f, |f| (f + M).to_bits() as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_geom::rng::for_cases;

    /// The scalar sampler's trilinear reconstruction, as the reference
    /// sampler (`bricked.rs`) spells it.
    fn scalar_trilinear(v: [f64; 8], fx: f64, fy: f64, fz: f64) -> f64 {
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let c00 = lerp(v[0], v[1], fx);
        let c10 = lerp(v[2], v[3], fx);
        let c01 = lerp(v[4], v[5], fx);
        let c11 = lerp(v[6], v[7], fx);
        lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz)
    }

    /// Every lane of [`trilinear`] is the scalar chain of separate
    /// multiplies and adds, to the bit, in `f64`, where a fused
    /// multiply-add in any of the seven lerps shows in most cases (the `f32`
    /// a sample rounds to hides it in almost all).
    #[test]
    fn trilinear_is_the_scalar_chain_bit_for_bit() {
        for_cases(0x7A1E, 64, |rng, _| {
            let mut v = [[0.0; LANES]; 8];
            for c in v.iter_mut().flatten() {
                *c = f64::from(rng.range(-3.0, 3.0) as f32);
            }
            let mut f = [[0.0; LANES]; 3];
            for t in f.iter_mut().flatten() {
                *t = rng.next_f64();
            }
            let got = trilinear(v, f);
            for i in 0..LANES {
                let want = scalar_trilinear(v.map(|c| c[i]), f[0][i], f[1][i], f[2][i]);
                assert_eq!(got[i].to_bits(), want.to_bits(), "lane {i}: {v:?} {f:?}");
            }
        });
    }

    /// [`floor`] is `c as usize` and its value, NaN to 0, over the clamped
    /// coordinates a sampler passes it: integers, the values just below and
    /// above them, halves, and `-0.0`.
    #[test]
    fn floor_is_truncation() {
        let mut values = vec![-0.0, 0.0, f64::NAN, 0.5, 1.5, 2.5, 0.999_999_999_999_999_9];
        // The neighbours of a positive `f64` by one unit in the last place.
        let (down, up) =
            (|v: f64| f64::from_bits(v.to_bits() - 1), |v: f64| f64::from_bits(v.to_bits() + 1));
        for n in [1.0f64, 2.0, 3.0, 15.0, 16.0, 17.0, 199.0, 4_000_000.0] {
            values.extend([n, down(n), up(n), n + 0.5, down(n + 0.5)]);
        }
        for c in values.chunks(LANES) {
            let c = map([0, 1, 2, 3], |i| c[i % c.len()]);
            let (f, i) = floor(c);
            for k in 0..LANES {
                let want = c[k] as usize;
                assert_eq!(i[k] as usize, want, "{:e}", c[k]);
                assert_eq!(f[k].to_bits(), (want as f64).to_bits(), "{:e}", c[k]);
            }
        }
    }
}
