//! Per-block statistics: histograms and the Shannon-entropy importance
//! measure of the paper's §IV-C (Eq. 2).

/// A fixed-bin histogram over a value range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower edge of the first bin.
    pub lo: f32,
    /// Inclusive upper edge of the last bin.
    pub hi: f32,
    /// Bin counts.
    pub counts: Vec<u64>,
    /// Total number of samples accumulated (excludes NaNs).
    pub total: u64,
}

impl Histogram {
    /// An empty histogram with `bins` bins over `[lo, hi]`. When
    /// `lo == hi` (constant data) everything lands in bin 0.
    pub fn new(lo: f32, hi: f32, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo <= hi, "invalid histogram range");
        Histogram { lo, hi, counts: vec![0; bins], total: 0 }
    }

    /// Bin index for a value (clamped into range; NaN → None).
    #[inline]
    pub(crate) fn bin_of(&self, v: f32) -> Option<usize> {
        if v.is_nan() {
            return None;
        }
        let n = self.counts.len();
        if self.hi <= self.lo {
            return Some(0);
        }
        let t = ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        Some(((t * n as f32) as usize).min(n - 1))
    }

    /// Accumulate one sample.
    #[inline]
    pub fn add(&mut self, v: f32) {
        if let Some(b) = self.bin_of(v) {
            self.counts[b] += 1;
            self.total += 1;
        }
    }

    /// Accumulate a slice of samples.
    pub fn add_all(&mut self, vs: &[f32]) {
        for &v in vs {
            self.add(v);
        }
    }

    /// Build directly from data with the range taken from the data itself.
    pub fn from_data(vs: &[f32], bins: usize) -> Self {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in vs {
            if !v.is_nan() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if !lo.is_finite() || !hi.is_finite() {
            // All-NaN or empty input: degenerate empty histogram.
            return Histogram::new(0.0, 0.0, bins);
        }
        let mut h = Histogram::new(lo, hi, bins);
        h.add_all(vs);
        h
    }

    /// Shannon entropy `H = -Σ p(x) log2 p(x)` (Eq. 2), in bits.
    ///
    /// `0 log 0 = 0` by convention: empty bins contribute nothing. The
    /// entropy of constant data is exactly 0; the maximum is `log2(bins)`.
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        let h: f64 = self
            .counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total;
                -p * p.log2()
            })
            .sum();
        // A single occupied bin sums to exactly -1·log2(1) = -0.0; clamp so
        // constant blocks report a clean 0 rather than negative zero.
        h.max(0.0)
    }

    /// Merge another histogram with identical binning into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        assert!(
            (self.lo - other.lo).abs() < 1e-12 && (self.hi - other.hi).abs() < 1e-12,
            "range mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Summary statistics of one data block, used to build `T_important`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockStats {
    /// Minimum value in the block.
    pub min: f32,
    /// Maximum value in the block.
    pub max: f32,
    /// Mean value in the block.
    pub mean: f32,
    /// Shannon entropy (bits) of the block's value histogram — the paper's
    /// importance measure.
    pub entropy: f64,
}

impl BlockStats {
    /// Compute stats over a block's voxels with `bins` histogram bins
    /// spanning `[range_lo, range_hi]` (use the *global* variable range so
    /// entropies are comparable across blocks).
    pub fn compute(values: &[f32], range_lo: f32, range_hi: f32, bins: usize) -> Self {
        let mut h = Histogram::new(range_lo, range_hi, bins);
        let (mut lo, mut hi, mut sum, mut n) = (f32::INFINITY, f32::NEG_INFINITY, 0.0f64, 0u64);
        for &v in values {
            if v.is_nan() {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
            sum += v as f64;
            n += 1;
            h.add(v);
        }
        if n == 0 {
            return BlockStats { min: 0.0, max: 0.0, mean: 0.0, entropy: 0.0 };
        }
        BlockStats { min: lo, max: hi, mean: (sum / n as f64) as f32, entropy: h.entropy() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_data_has_zero_entropy() {
        let h = Histogram::from_data(&[3.5; 100], 64);
        assert_eq!(h.entropy(), 0.0);
    }

    #[test]
    fn uniform_data_has_max_entropy() {
        // One sample per bin → H = log2(bins).
        let bins = 16;
        let mut h = Histogram::new(0.0, 1.0, bins);
        for i in 0..bins {
            h.add((i as f32 + 0.5) / bins as f32);
        }
        assert!((h.entropy() - (bins as f64).log2()).abs() < 1e-12);
    }

    #[test]
    fn entropy_is_between_zero_and_log_bins() {
        let data: Vec<f32> = (0..1000).map(|i| ((i * i) % 97) as f32).collect();
        let h = Histogram::from_data(&data, 32);
        let e = h.entropy();
        assert!(e >= 0.0 && e <= 32f64.log2() + 1e-12);
    }

    #[test]
    fn two_value_data_entropy_is_one_bit() {
        let mut data = vec![0.0f32; 500];
        data.extend(vec![1.0f32; 500]);
        let h = Histogram::from_data(&data, 8);
        assert!((h.entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_distribution_has_lower_entropy_than_uniform() {
        let mut skewed = vec![0.1f32; 900];
        skewed.extend((0..100).map(|i| i as f32 / 100.0));
        let uniform: Vec<f32> = (0..1000).map(|i| i as f32 / 1000.0).collect();
        let hs = Histogram::from_data(&skewed, 32);
        let hu = Histogram::from_data(&uniform, 32);
        assert!(hs.entropy() < hu.entropy());
    }

    #[test]
    fn nan_samples_are_ignored() {
        let data = [1.0f32, f32::NAN, 2.0, f32::NAN];
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.add_all(&data);
        assert_eq!(h.total, 2);
    }

    #[test]
    fn all_nan_data_is_degenerate_but_finite() {
        let h = Histogram::from_data(&[f32::NAN; 10], 8);
        assert_eq!(h.total, 0);
        assert_eq!(h.entropy(), 0.0);
    }

    #[test]
    fn bin_of_clamps_out_of_range() {
        let h = Histogram::new(0.0, 1.0, 10);
        assert_eq!(h.bin_of(-5.0), Some(0));
        assert_eq!(h.bin_of(5.0), Some(9));
        assert_eq!(h.bin_of(f32::NAN), None);
    }

    #[test]
    fn top_edge_value_lands_in_last_bin() {
        let h = Histogram::new(0.0, 1.0, 10);
        assert_eq!(h.bin_of(1.0), Some(9));
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.add_all(&[0.1, 0.9]);
        let mut b = Histogram::new(0.0, 1.0, 4);
        b.add_all(&[0.1, 0.5]);
        a.merge(&b);
        assert_eq!(a.total, 4);
        assert_eq!(a.counts[0], 2);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_bins() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.merge(&Histogram::new(0.0, 1.0, 8));
    }

    #[test]
    fn block_stats_basic() {
        let s = BlockStats::compute(&[1.0, 2.0, 3.0, 4.0], 0.0, 4.0, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-6);
        assert!(s.entropy > 0.0);
    }

    #[test]
    fn block_stats_empty_is_zeroed() {
        let s = BlockStats::compute(&[], 0.0, 1.0, 4);
        assert_eq!(s.entropy, 0.0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn ambient_block_less_important_than_feature_block() {
        // The paper's Observation 2: ambient (near-constant) regions get low
        // entropy, feature-rich regions high entropy.
        let ambient = vec![0.001f32; 4096];
        let feature: Vec<f32> = (0..4096).map(|i| ((i * 31) % 256) as f32 / 255.0).collect();
        let sa = BlockStats::compute(&ambient, 0.0, 1.0, 64);
        let sf = BlockStats::compute(&feature, 0.0, 1.0, 64);
        assert!(sf.entropy > sa.entropy + 1.0);
    }
}
