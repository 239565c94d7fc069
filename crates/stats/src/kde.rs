//! Gaussian kernel density estimation.
//!
//! Used to render the smooth delay probability densities of Fig. 9: the baseline Monte
//! Carlo sample, the proposed-method sample and the LUT-interpolated sample are each turned
//! into a density curve over a common grid and compared.

use crate::moments;
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// A Gaussian kernel density estimate over a univariate sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDensity {
    samples: Vec<f64>,
    bandwidth: f64,
}

impl KernelDensity {
    /// Builds a KDE with Silverman's rule-of-thumb bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn from_samples(samples: &[f64]) -> Self {
        let bandwidth = silverman_bandwidth(samples);
        Self::with_bandwidth(samples, bandwidth)
    }

    /// Builds a KDE with an explicit bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, contains non-finite values, or `bandwidth <= 0`.
    pub fn with_bandwidth(samples: &[f64], bandwidth: f64) -> Self {
        assert!(!samples.is_empty(), "KDE of empty sample");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "KDE samples must be finite"
        );
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "KDE bandwidth must be positive and finite (got {bandwidth})"
        );
        Self {
            samples: samples.to_vec(),
            bandwidth,
        }
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of samples backing the estimate.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if the KDE has no samples (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Density estimate at `x`.
    pub fn density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / (self.samples.len() as f64 * h * (2.0 * PI).sqrt());
        self.samples
            .iter()
            .map(|&xi| {
                let z = (x - xi) / h;
                (-0.5 * z * z).exp()
            })
            .sum::<f64>()
            * norm
    }

    /// Evaluates the density on `n` equally spaced points spanning the sample range plus
    /// three bandwidths of padding on each side.
    ///
    /// Returns `(x, density)` pairs.
    pub fn evaluate_grid(&self, n: usize) -> Vec<(f64, f64)> {
        if n == 0 {
            return Vec::new();
        }
        let lo = self.samples.iter().cloned().fold(f64::INFINITY, f64::min) - 3.0 * self.bandwidth;
        let hi = self
            .samples
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            + 3.0 * self.bandwidth;
        slic_units::range::linspace(lo, hi, n)
            .into_iter()
            .map(|x| (x, self.density(x)))
            .collect()
    }
}

/// Silverman's rule-of-thumb bandwidth `0.9 · min(σ, IQR/1.34) · n^(−1/5)`.
///
/// Falls back to a small fraction of the mean magnitude (or an absolute floor) for
/// degenerate samples so the result is always positive.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn silverman_bandwidth(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "bandwidth of empty sample");
    let sd = moments::std_dev(samples);
    let iqr = moments::quantile(samples, 0.75) - moments::quantile(samples, 0.25);
    let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
    let n = samples.len() as f64;
    let h = 0.9 * spread * n.powf(-0.2);
    if h > 0.0 && h.is_finite() {
        h
    } else {
        (moments::mean(samples).abs() * 1e-3).max(1e-12)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rand_distr::{Distribution, StandardNormal};

    #[test]
    fn density_is_positive_and_integrates_to_about_one() {
        let samples: Vec<f64> = (0..200).map(|i| (i as f64) / 20.0).collect();
        let kde = KernelDensity::from_samples(&samples);
        let grid = kde.evaluate_grid(400);
        assert!(grid.iter().all(|&(_, d)| d >= 0.0));
        let dx = grid[1].0 - grid[0].0;
        let integral: f64 = grid.iter().map(|&(_, d)| d * dx).sum();
        assert!((integral - 1.0).abs() < 0.02, "integral = {integral}");
    }

    #[test]
    fn density_peaks_near_data() {
        let samples = [0.0, 0.1, -0.1, 0.05, -0.05];
        let kde = KernelDensity::from_samples(&samples);
        assert!(kde.density(0.0) > kde.density(2.0));
    }

    #[test]
    fn gaussian_sample_density_matches_true_pdf_at_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..5_000)
            .map(|_| StandardNormal.sample(&mut rng))
            .collect();
        let kde = KernelDensity::from_samples(&samples);
        // The standard normal pdf at its mean.
        let true_peak = 1.0 / (2.0 * PI).sqrt();
        let est = kde.density(0.0);
        assert!(
            (est - true_peak).abs() / true_peak < 0.15,
            "est = {est}, true = {true_peak}"
        );
    }

    #[test]
    fn explicit_bandwidth_is_respected() {
        let samples = [0.0, 1.0, 2.0];
        let kde = KernelDensity::with_bandwidth(&samples, 0.5);
        assert_eq!(kde.bandwidth(), 0.5);
        assert_eq!(kde.len(), 3);
        assert!(!kde.is_empty());
    }

    #[test]
    fn degenerate_sample_gets_fallback_bandwidth() {
        let h = silverman_bandwidth(&[3.0, 3.0, 3.0]);
        assert!(h > 0.0);
        let kde = KernelDensity::from_samples(&[3.0, 3.0, 3.0]);
        assert!(kde.density(3.0) > 0.0);
    }

    #[test]
    fn empty_grid_request_returns_empty() {
        let kde = KernelDensity::from_samples(&[1.0, 2.0]);
        assert!(kde.evaluate_grid(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_samples_rejected() {
        let _ = KernelDensity::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn nonpositive_bandwidth_rejected() {
        let _ = KernelDensity::with_bandwidth(&[1.0], 0.0);
    }

    proptest! {
        #[test]
        fn prop_density_nonnegative(samples in proptest::collection::vec(-1e2f64..1e2, 1..64),
                                    x in -2e2f64..2e2) {
            let kde = KernelDensity::from_samples(&samples);
            prop_assert!(kde.density(x) >= 0.0);
        }

        #[test]
        fn prop_bandwidth_positive(samples in proptest::collection::vec(-1e3f64..1e3, 1..64)) {
            prop_assert!(silverman_bandwidth(&samples) > 0.0);
        }
    }
}
