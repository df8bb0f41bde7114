//! Order statistics and means over measured samples.

/// Nearest-rank percentile (`q` in `0..=1`) of `samples`, which are
/// reordered. The q-quantile is the smallest sample with at least
/// `q * n` samples at or below it. Empty input reads 0.
pub fn percentile_u32(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = (q * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1 as f64
}

/// Median of `values` (mean of the middle two for an even count).
/// Empty input reads 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean; every value must be positive. Empty input reads 0.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// How far repetitions of one run disagree, outliers aside: the
/// distance between the lower and the upper quartile (by rank: the 2nd
/// and 4th of five values) as a share of the median. One slow repetition
/// in five moves the run's median little, and this no more.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let skip = v.len() / 4;
    (v[v.len() - 1 - skip] - v[skip]) / med
}
