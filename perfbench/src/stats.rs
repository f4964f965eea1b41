//! Order statistics over measured samples.

/// The `p`-th quantile (`0 ≤ p ≤ 1`) of ascending `sorted`, interpolating linearly
/// between the two nearest ranks. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` ascending (NaNs last) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// The median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Sample count, median and quartiles of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values.to_vec());
        Self {
            n: s.len(),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
        }
    }
}

/// The percentiles a tail metric may use, highest first, in tenths of a percent.
pub const TAIL_LADDER: [u64; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// The highest percentile of [`TAIL_LADDER`] with at least `min_beyond` of `n`
/// samples above it, and how many samples lie beyond it.
pub fn tail_percentile(n: usize, min_beyond: usize) -> (f64, usize) {
    let n = n as u64;
    for p in TAIL_LADDER {
        let beyond = n * (1000 - p) / 1000;
        if beyond >= min_beyond as u64 {
            return (p as f64 / 10.0, beyond as usize);
        }
    }
    (50.0, (n / 2) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn the_tail_keeps_at_least_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(318, 10), (95.0, 15));
        assert_eq!(tail_percentile(10_000, 10), (99.9, 10));
        assert_eq!(tail_percentile(1_000, 10), (99.0, 10));
    }
}
