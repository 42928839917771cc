//! Log-bucketed HDR-style histogram: fixed 252 buckets covering the full
//! `u64` range with 2 significant bits of resolution (≤ ~25% relative
//! error per bucket), zero allocation after construction, mergeable.
//!
//! Values 0–3 get exact buckets; above that each power-of-two octave is
//! split into 4 sub-buckets. Percentiles are answered from the bucket
//! upper bounds, clamped to the recorded max so `percentile(1.0) == max`.

/// Number of buckets: 4 exact + 60 octaves × 4 sub-buckets.
pub(crate) const BUCKETS: usize = 252;

/// Fixed-size log-bucketed histogram over `u64` values (nanoseconds,
/// bytes, counts — unit-agnostic).
#[derive(Clone)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Bucket index for `v`: exact below 4, then `(msb - 1) * 4 + 2-bit
/// mantissa`.
fn bucket_of(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (msb - 2)) & 3) as usize;
    (msb - 1) * 4 + sub
}

/// Inclusive upper bound of bucket `i` (the value reported for
/// percentiles landing in it).
fn bucket_bound(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    if i >= BUCKETS - 1 {
        return u64::MAX;
    }
    let msb = i / 4 + 1;
    let sub = (i % 4) as u64;
    let base = 1u64 << msb;
    let step = 1u64 << (msb - 2);
    base + step * (sub + 1) - 1
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram { counts: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `p` in `[0, 1]`: the upper bound of the bucket
    /// holding the rank-`⌈p·count⌉` value, clamped to the recorded max.
    /// Within ~25% of the true value by construction; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending —
    /// the exposition format Prometheus-style exporters consume.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (bucket_bound(i), c))
    }

    /// Non-empty buckets as `(bucket index, count)` pairs plus the scalar
    /// summary — the wire form `TelemetryGet` ships (sparse: a latency
    /// histogram rarely touches more than a few dozen of the 252
    /// buckets).
    pub fn sparse(&self) -> (Vec<(u16, u64)>, u64, u64, u64, u64) {
        let pairs = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u16, c))
            .collect();
        (pairs, self.count, self.sum, self.min(), self.max)
    }

    /// Rebuild a histogram from its [`LogHistogram::sparse`] form.
    /// Out-of-range bucket indices are ignored.
    pub fn from_sparse(pairs: &[(u16, u64)], count: u64, sum: u64, min: u64, max: u64) -> Self {
        let mut h = LogHistogram::new();
        for &(i, c) in pairs {
            if let Some(slot) = h.counts.get_mut(i as usize) {
                *slot += c;
            }
        }
        h.count = count;
        h.sum = sum;
        h.min = if count == 0 { u64::MAX } else { min };
        h.max = max;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..4u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_bound(v as usize), v);
        }
    }

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0;
        for i in 1..BUCKETS {
            let b = bucket_bound(i);
            assert!(b > prev, "bucket {i} bound {b} <= {prev}");
            prev = b;
        }
        assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
        // Every value maps into a bucket whose bound is >= the value and
        // within 25% relative error.
        for &v in &[4u64, 5, 7, 8, 9, 100, 1_000, 1 << 20, (1 << 40) + 3, u64::MAX] {
            let i = bucket_of(v);
            assert!(i < BUCKETS);
            let bound = bucket_bound(i);
            assert!(bound >= v, "bound {bound} < value {v}");
            assert!(
                (bound - v) as f64 <= 0.25 * v as f64 + 1.0,
                "bucket error too large for {v}: bound {bound}"
            );
        }
    }

    #[test]
    fn percentiles_track_a_known_distribution() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        assert!((450..=650).contains(&p50), "p50 = {p50}");
        assert!((950..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.percentile(1.0), 1000, "p100 clamps to max");
        assert_eq!(h.percentile(0.0), h.percentile(0.001));
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [3u64, 17, 500, 123_456, 9] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 1_000_000, 42] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for p in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.percentile(p), both.percentile(p));
        }
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile(0.9), u64::MAX);
    }

    #[test]
    fn sparse_roundtrip_preserves_everything() {
        let mut h = LogHistogram::new();
        for v in [0u64, 3, 17, 500, 123_456, 9, 1 << 40] {
            h.record(v);
        }
        let (pairs, count, sum, min, max) = h.sparse();
        let back = LogHistogram::from_sparse(&pairs, count, sum, min, max);
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        assert_eq!(back.min(), h.min());
        assert_eq!(back.max(), h.max());
        for p in [0.1, 0.5, 0.9, 1.0] {
            assert_eq!(back.percentile(p), h.percentile(p));
        }
        let (ep, ec, es, emin, emax) = LogHistogram::new().sparse();
        assert!(ep.is_empty());
        let empty = LogHistogram::from_sparse(&ep, ec, es, emin, emax);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.min(), 0);
    }

    #[test]
    fn bucket_iter_counts_match_total() {
        let mut h = LogHistogram::new();
        for v in 0..10_000u64 {
            h.record(v * 7);
        }
        let total: u64 = h.buckets().map(|(_, c)| c).sum();
        assert_eq!(total, h.count());
        let bounds: Vec<u64> = h.buckets().map(|(b, _)| b).collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "ascending bounds");
    }
}
