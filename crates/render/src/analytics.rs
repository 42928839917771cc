//! Data-dependent analytics of §III-A / Fig. 3: per-view histograms and a
//! variable correlation matrix computed over the blocks a view touches.
//!
//! These are the operations that force the *full-resolution* data of every
//! visible block into memory (no multi-resolution shortcut), which is the
//! paper's argument for an application-aware placement policy.

use viz_geom::par;
use viz_volume::Histogram;

/// Streaming accumulator for pairwise Pearson correlation of `n` variables.
///
/// Feed co-located samples (one value per variable per voxel); the final
/// matrix is symmetric with a unit diagonal — the Fig. 3 "correlation
/// matrix of 151 primary variables" computed per view.
#[derive(Debug, Clone)]
pub struct CorrelationAccumulator {
    n_vars: usize,
    count: u64,
    sum: Vec<f64>,
    /// Upper-triangular (including diagonal) co-moment sums, row-major.
    cross: Vec<f64>,
}

impl CorrelationAccumulator {
    /// Accumulator for `n_vars` variables.
    pub fn new(n_vars: usize) -> Self {
        assert!(n_vars > 0, "need at least one variable");
        CorrelationAccumulator {
            n_vars,
            count: 0,
            sum: vec![0.0; n_vars],
            cross: vec![0.0; n_vars * (n_vars + 1) / 2],
        }
    }

    /// Add one co-located sample vector (`values.len() == n_vars`).
    pub fn add(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.n_vars, "sample arity mismatch");
        self.count += 1;
        for (i, &v) in values.iter().enumerate() {
            self.sum[i] += v as f64;
        }
        let mut k = 0;
        for (i, &vi) in values.iter().enumerate() {
            let vi = vi as f64;
            for &vj in &values[i..] {
                self.cross[k] += vi * vj as f64;
                k += 1;
            }
        }
    }

    /// Number of samples accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Merge another accumulator over the same variables.
    pub fn merge(&mut self, other: &CorrelationAccumulator) {
        assert_eq!(self.n_vars, other.n_vars, "variable count mismatch");
        self.count += other.count;
        for (a, b) in self.sum.iter_mut().zip(&other.sum) {
            *a += b;
        }
        for (a, b) in self.cross.iter_mut().zip(&other.cross) {
            *a += b;
        }
    }

    /// The Pearson correlation matrix (row-major `n_vars × n_vars`).
    /// Degenerate (zero-variance) variables correlate as 0 off-diagonal.
    pub fn matrix(&self) -> Vec<f64> {
        let n = self.n_vars;
        let cnt = self.count as f64;
        let mut out = vec![0.0; n * n];
        if self.count == 0 {
            for i in 0..n {
                out[i * n + i] = 1.0;
            }
            return out;
        }
        let mean: Vec<f64> = self.sum.iter().map(|s| s / cnt).collect();
        // Variances from the packed diagonal entries.
        let mut var = vec![0.0; n];
        let mut k = 0;
        let mut cov = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let c = self.cross[k] / cnt - mean[i] * mean[j];
                cov[i * n + j] = c;
                cov[j * n + i] = c;
                if i == j {
                    var[i] = c.max(0.0);
                }
                k += 1;
            }
        }
        for i in 0..n {
            for j in 0..n {
                out[i * n + j] = if i == j {
                    1.0
                } else {
                    let d = (var[i] * var[j]).sqrt();
                    if d > 1e-300 {
                        (cov[i * n + j] / d).clamp(-1.0, 1.0)
                    } else {
                        0.0
                    }
                };
            }
        }
        out
    }
}

/// Histogram of one variable over a set of resident block payloads
/// (the per-view distribution panels of Fig. 3). Parallel over blocks.
pub fn region_histogram(blocks: &[&[f32]], range: (f32, f32), bins: usize) -> Histogram {
    let empty = || Histogram::new(range.0, range.1, bins);
    let partial = |r: std::ops::Range<usize>| {
        let mut h = empty();
        blocks[r].iter().for_each(|b| h.add_all(b));
        h
    };
    let mut total = empty();
    par::map_ranges(blocks.len(), partial).iter().for_each(|h| total.merge(h));
    total
}

/// Count voxels satisfying a query predicate over resident blocks —
/// query-based visualization (§III-A: "combination of numerous queries").
pub fn query_count<F: Fn(f32) -> bool + Sync>(blocks: &[&[f32]], pred: F) -> u64 {
    let count = |blocks: &[&[f32]]| -> u64 {
        blocks.iter().map(|b| b.iter().filter(|&&v| pred(v)).count() as u64).sum()
    };
    par::map_ranges(blocks.len(), |r| count(&blocks[r])).into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_correlated_variables() {
        let mut acc = CorrelationAccumulator::new(2);
        for i in 0..100 {
            let x = i as f32;
            acc.add(&[x, 2.0 * x + 1.0]);
        }
        let m = acc.matrix();
        assert!((m[0] - 1.0).abs() < 1e-9);
        assert!((m[1] - 1.0).abs() < 1e-6, "corr = {}", m[1]);
        assert!((m[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn anticorrelated_variables() {
        let mut acc = CorrelationAccumulator::new(2);
        for i in 0..100 {
            let x = i as f32;
            acc.add(&[x, -x]);
        }
        assert!((acc.matrix()[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn independent_variables_near_zero() {
        let mut acc = CorrelationAccumulator::new(2);
        // Deterministic decorrelated pair.
        for i in 0..1000 {
            let a = ((i * 31 + 7) % 101) as f32;
            let b = ((i * 57 + 13) % 89) as f32;
            acc.add(&[a, b]);
        }
        assert!(acc.matrix()[1].abs() < 0.1);
    }

    #[test]
    fn constant_variable_correlates_zero() {
        let mut acc = CorrelationAccumulator::new(2);
        for i in 0..50 {
            acc.add(&[5.0, i as f32]);
        }
        let m = acc.matrix();
        assert_eq!(m[1], 0.0);
        assert_eq!(m[0], 1.0);
    }

    #[test]
    fn empty_accumulator_is_identity() {
        let acc = CorrelationAccumulator::new(3);
        let m = acc.matrix();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[i * 3 + j], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let mut acc = CorrelationAccumulator::new(3);
        for i in 0..200 {
            let x = (i % 17) as f32;
            acc.add(&[x, x * x, 10.0 - x]);
        }
        let m = acc.matrix();
        for i in 0..3 {
            for j in 0..3 {
                assert!((m[i * 3 + j] - m[j * 3 + i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn merge_equals_single_pass() {
        let samples: Vec<[f32; 2]> = (0..100).map(|i| [i as f32, (i * i % 37) as f32]).collect();
        let mut whole = CorrelationAccumulator::new(2);
        for s in &samples {
            whole.add(s);
        }
        let mut a = CorrelationAccumulator::new(2);
        let mut b = CorrelationAccumulator::new(2);
        for s in &samples[..50] {
            a.add(s);
        }
        for s in &samples[50..] {
            b.add(s);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        let (ma, mw) = (a.matrix(), whole.matrix());
        for k in 0..4 {
            assert!((ma[k] - mw[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn region_histogram_merges_blocks() {
        let b1 = vec![0.1f32; 10];
        let b2 = vec![0.9f32; 30];
        let h = region_histogram(&[&b1, &b2], (0.0, 1.0), 10);
        assert_eq!(h.total, 40);
        assert_eq!(h.counts.iter().sum::<u64>(), 40);
        // 0.1 lands in bin 1, 0.9 in bin 9 (10 bins over [0, 1]).
        assert_eq!(h.counts[1], 10);
        assert_eq!(h.counts[9], 30);
    }

    #[test]
    fn query_count_counts_matching_voxels() {
        let b1 = vec![0.1f32, 0.6, 0.7];
        let b2 = vec![0.8f32, 0.2];
        assert_eq!(query_count(&[&b1, &b2], |v| v > 0.5), 3);
        assert_eq!(query_count(&[], |_| true), 0);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        CorrelationAccumulator::new(2).add(&[1.0]);
    }
}
