//! Offline stand-in for `rand` 0.8: a SplitMix64 `StdRng` behind the
//! trait shape the workspace uses (`Rng::gen`, `Rng::gen_range`,
//! `SeedableRng::seed_from_u64`). Streams differ from the real crate's;
//! the benchmark's own inputs never come from here.
use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    #[derive(Debug, Clone)]
    pub struct StdRng(pub(crate) u64);
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng(seed)
    }
}

impl RngCore for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Types `Rng::gen` can produce (real rand: `Standard: Distribution<T>`).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// One trait per sampleable type plus ONE blanket `SampleRange` impl per
/// range kind, as in real rand: per-type range impls break `{float}`
/// literal inference at the call sites.
pub trait SampleUniform: Sized {
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

macro_rules! uniform_float {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn sample_between<R: RngCore + ?Sized>(lo: $ty, hi: $ty, _inclusive: bool, rng: &mut R) -> $ty {
                lo + (hi - lo) * <$ty as Standard>::sample(rng)
            }
        }
    )*};
}
uniform_float!(f32, f64);

macro_rules! uniform_int {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn sample_between<R: RngCore + ?Sized>(lo: $ty, hi: $ty, inclusive: bool, rng: &mut R) -> $ty {
                let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                assert!(span > 0, "cannot sample an empty range");
                (lo as i128 + (u128::from(rng.next_u64()) % span) as i128) as $ty
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i32, i64);

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(lo, hi, true, rng)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        <f64 as Standard>::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
