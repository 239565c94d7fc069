//! Sample moments and order statistics.
//!
//! The statistical characterization error metrics of the paper (Eqs. 16–19) compare the
//! mean and standard deviation of delay / slew distributions produced by each method
//! against the Monte-Carlo baseline; this module provides those estimators plus the higher
//! moments used to demonstrate non-Gaussianity at low supply voltage (Fig. 9).

use serde::{Deserialize, Serialize};

/// Arithmetic mean of `samples`; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Unbiased (n−1) sample variance; `0.0` when fewer than two samples are given.
pub fn variance(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (samples.len() - 1) as f64
}

/// Sample standard deviation (square root of the unbiased variance).
pub fn std_dev(samples: &[f64]) -> f64 {
    variance(samples).sqrt()
}

/// Fisher skewness of the sample; `0.0` when it is not defined (fewer than three samples
/// or zero variance).
pub fn skewness(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 3 {
        return 0.0;
    }
    let m = mean(samples);
    let s = std_dev(samples);
    if s == 0.0 {
        return 0.0;
    }
    let m3 = samples.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n as f64;
    m3 / s.powi(3)
}

/// Excess kurtosis of the sample; `0.0` when not defined.
pub fn excess_kurtosis(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 4 {
        return 0.0;
    }
    let m = mean(samples);
    let s2 = variance(samples);
    if s2 == 0.0 {
        return 0.0;
    }
    let m4 = samples.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n as f64;
    m4 / (s2 * s2) - 3.0
}

/// Linear-interpolated quantile of `samples` at probability `p ∈ [0, 1]`.
///
/// Uses the common "type 7" (Excel / NumPy default) definition.  Samples are ordered by
/// [`f64::total_cmp`], so a NaN sorts past every number instead of panicking.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or `samples` is empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "quantile probability must be in [0, 1]"
    );
    assert!(!samples.is_empty(), "quantile of empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A compact summary of a univariate sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub std_dev: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
    /// Median (50 % quantile).
    pub median: f64,
    /// Fisher skewness.
    pub skewness: f64,
    /// Excess kurtosis.
    pub excess_kurtosis: f64,
}

impl Summary {
    /// Computes the summary of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of empty sample");
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Self {
            count: samples.len(),
            mean: mean(samples),
            std_dev: std_dev(samples),
            min,
            max,
            median: quantile(samples, 0.5),
            skewness: skewness(samples),
            excess_kurtosis: excess_kurtosis(samples),
        }
    }

    /// Coefficient of variation `σ/µ`; `0.0` when the mean is zero.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }

    /// Returns `true` when the sample looks markedly non-Gaussian (|skewness| > 0.5 or
    /// |excess kurtosis| > 1.0) — the criterion used when reporting the Fig. 9 low-`Vdd`
    /// delay distribution.
    pub fn is_clearly_non_gaussian(&self) -> bool {
        self.skewness.abs() > 0.5 || self.excess_kurtosis.abs() > 1.0
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_variance_of_known_sample() {
        let s = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&s) - 5.0).abs() < 1e-12);
        assert!((variance(&s) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&s) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(skewness(&[1.0, 2.0]), 0.0);
        assert_eq!(excess_kurtosis(&[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(skewness(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn symmetric_sample_has_zero_skewness() {
        let s = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&s).abs() < 1e-12);
    }

    #[test]
    fn right_skewed_sample_is_positive() {
        let s = [1.0, 1.0, 1.0, 1.0, 10.0];
        assert!(skewness(&s) > 1.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!((quantile(&s, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&s, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile probability")]
    fn quantile_rejects_bad_probability() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = [1.0, 2.0, 3.0, 4.0, 100.0];
        let sum = Summary::from_samples(&s);
        assert_eq!(sum.count, 5);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 100.0);
        assert_eq!(sum.median, 3.0);
        assert!(sum.is_clearly_non_gaussian());
        assert!(sum.coefficient_of_variation() > 0.0);
    }

    #[test]
    fn gaussian_like_sample_is_not_flagged() {
        // A symmetric triangular sample: zero skew, light tails.
        let mut s: Vec<f64> = Vec::new();
        for i in 0..50 {
            for _ in 0..(50 - i) {
                s.push(i as f64);
                s.push(-(i as f64));
            }
        }
        let sum = Summary::from_samples(&s);
        assert!(sum.skewness.abs() < 0.5);
        assert!(!sum.is_clearly_non_gaussian() || sum.excess_kurtosis.abs() <= 1.0);
    }

    proptest! {
        #[test]
        fn prop_mean_within_range(samples in proptest::collection::vec(-1e6f64..1e6, 1..64)) {
            let m = mean(&samples);
            let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }

        #[test]
        fn prop_variance_nonnegative_and_shift_invariant(
            samples in proptest::collection::vec(-1e3f64..1e3, 2..64),
            shift in -1e3f64..1e3,
        ) {
            let v = variance(&samples);
            prop_assert!(v >= 0.0);
            let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
            prop_assert!((variance(&shifted) - v).abs() < 1e-6 * (1.0 + v));
        }

        #[test]
        fn prop_quantile_monotone(samples in proptest::collection::vec(-1e3f64..1e3, 1..64),
                                  p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(quantile(&samples, lo) <= quantile(&samples, hi) + 1e-12);
        }
    }
}
