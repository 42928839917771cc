//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) gives them, so spreads printed here are the ones
/// the acceptance rule computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
