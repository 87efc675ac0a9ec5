//! Sample summaries: medians, and the highest percentile the sample
//! count supports.

pub use asynciter_numerics::stats::{median, percentile};

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the figure is set by a handful of outliers and
/// does not repeat between runs.
pub const SAMPLES_BEYOND: usize = 10;

/// Whether `n` samples leave at least [`SAMPLES_BEYOND`] of them above
/// the `q`-th percentile (`0 ≤ q ≤ 100`).
pub fn percentile_supported(n: usize, q: f64) -> bool {
    let beyond = (n as f64 * (100.0 - q) / 100.0).floor() as usize;
    beyond >= SAMPLES_BEYOND
}

/// Median of a non-empty sample.
///
/// # Panics
/// Panics on an empty sample: every caller times at least one operation.
pub fn median_of(xs: &[f64]) -> f64 {
    median(xs).expect("median of an empty sample")
}

/// `q`-th percentile when the sample supports it, else `0` — the value
/// an unsupported per-layer percentile is reported with.
pub fn percentile_or_zero(xs: &[f64], q: f64) -> f64 {
    if percentile_supported(xs.len(), q) {
        percentile(xs, q).unwrap_or(0.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(91.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // The median of 20 samples has ten above it; of 19 it has nine.
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        // p90 needs 100 samples, p99 needs 1000.
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(99, 90.0));
        assert!(percentile_supported(1000, 99.0));
        assert!(!percentile_supported(999, 99.0));
    }

    #[test]
    fn unsupported_percentiles_read_zero() {
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(percentile_or_zero(&xs, 90.0), 0.0);
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(percentile_or_zero(&xs, 90.0) > 170.0);
    }
}
