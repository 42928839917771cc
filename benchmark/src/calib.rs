//! Speed calibration. The container's CPUs run in regimes a quarter apart
//! in speed that last tens of seconds (a busy neighbour, frequency steps),
//! so two runs of the same binary can differ by more than any change one
//! hopes to resolve. Between frames the driver therefore times a fixed
//! kernel on the measuring thread; the ratio of that time to the kernel's
//! time at reference speed is the speed factor of that moment, and the
//! end-to-end timings are divided by it. A factor of 1.25 says: everything
//! on this CPU took a quarter longer just then, the kernel included.
//! Per-layer timings stay as measured; `bench.speed_factor_p50` goes with
//! them.

use crate::stats::median;
use std::time::Instant;

/// The kernel's duration on the reference container in its fast regime.
/// The normalised metrics read "ms at reference speed"; on other hardware
/// they estimate the reference container's time, not the local one.
const REFERENCE_KERNEL_NS: f64 = 28_500.0;
/// Steps of the kernel's dependent xorshift chain. It lives in registers:
/// a kernel that touched memory would time the cache misses the frame
/// before it left behind, not the clock.
const KERNEL_STEPS: u32 = 20_000;

/// Run the kernel once; its duration in ns.
pub fn kernel_ns() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..KERNEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64
}

/// Speed factor at each sample: the median kernel time of the samples
/// around it (an interrupt can triple a single one) over the reference.
pub fn speed_factors(kernel_ns: &[f64]) -> Vec<f64> {
    const HALF_WINDOW: usize = 7;
    (0..kernel_ns.len())
        .map(|i| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(kernel_ns.len());
            median(kernel_ns[lo..hi].to_vec()) / REFERENCE_KERNEL_NS
        })
        .collect()
}

/// `times` with each moment's speed factor divided out.
pub fn at_reference_speed(times: &[f64], factors: &[f64]) -> Vec<f64> {
    times.iter().zip(factors).map(|(t, k)| t / k).collect()
}
