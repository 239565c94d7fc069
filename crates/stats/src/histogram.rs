//! Uniform-bin histograms for empirical densities.
//!
//! Fig. 9 of the paper compares the delay probability density obtained from baseline Monte
//! Carlo, the proposed method, and LUT interpolation.  The histogram (and the kernel density
//! estimate built on top of it in [`crate::kde`]) is how those densities are rendered.

use serde::{Deserialize, Serialize};

/// A histogram with uniformly spaced bins over `[lo, hi]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    total: usize,
}

impl Histogram {
    /// Creates an empty histogram with `bins` bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, if the bounds are not finite, or if `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "histogram bounds must be finite with lo < hi (got {lo}, {hi})"
        );
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Builds a histogram spanning the sample range with `bins` bins and fills it.
    ///
    /// The range is padded by half a bin on each side so that the extreme samples do not
    /// land exactly on the boundary.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, contains non-finite values, or `bins == 0`.
    pub fn from_samples(samples: &[f64], bins: usize) -> Self {
        assert!(!samples.is_empty(), "histogram of empty sample");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "histogram samples must be finite"
        );
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Degenerate (constant or near-constant) samples need an artificial span that is
        // large enough to survive floating-point addition against the sample magnitude.
        let span = (hi - lo).max(lo.abs().max(hi.abs()) * 1e-9).max(1e-12);
        let pad = 0.5 * span / bins as f64;
        let mut h = Self::new(lo - pad, hi + pad, bins);
        h.extend(samples.iter().copied());
        h
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Lower bound of the histogram range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the histogram range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins() as f64
    }

    /// Total number of samples recorded, including out-of-range ones.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Adds a single observation.  Out-of-range values are clamped into the edge bins so
    /// that `total()` always equals the number of `add` calls.
    pub fn add(&mut self, x: f64) {
        let idx = if x <= self.lo {
            0
        } else if x >= self.hi {
            self.bins() - 1
        } else {
            (((x - self.lo) / self.bin_width()) as usize).min(self.bins() - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Adds every observation from an iterator.
    pub fn extend(&mut self, samples: impl IntoIterator<Item = f64>) {
        for x in samples {
            self.add(x);
        }
    }

    /// Center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bins()`.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.bins(), "bin index out of range");
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Normalized density value of bin `i` (so the histogram integrates to one).
    ///
    /// Returns `0.0` if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bins()`.
    pub fn density(&self, i: usize) -> f64 {
        assert!(i < self.bins(), "bin index out of range");
        if self.total == 0 {
            return 0.0;
        }
        self.counts[i] as f64 / (self.total as f64 * self.bin_width())
    }

    /// Returns `(bin_center, density)` pairs for plotting.
    pub fn density_points(&self) -> Vec<(f64, f64)> {
        (0..self.bins())
            .map(|i| (self.bin_center(i), self.density(i)))
            .collect()
    }

    /// Empirical cumulative distribution evaluated at the right edge of each bin.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let mut acc = 0usize;
        (0..self.bins())
            .map(|i| {
                acc += self.counts[i];
                let x = self.lo + (i as f64 + 1.0) * self.bin_width();
                let p = if self.total == 0 {
                    0.0
                } else {
                    acc as f64 / self.total as f64
                };
                (x, p)
            })
            .collect()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_filling() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        assert_eq!(h.bins(), 10);
        assert_eq!(h.bin_width(), 1.0);
        h.extend([0.5, 1.5, 1.6, 9.9]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
    }

    #[test]
    fn out_of_range_values_clamp_to_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-5.0);
        h.add(5.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn density_integrates_to_one() {
        let samples: Vec<f64> = (0..1000).map(|i| (i as f64) / 100.0).collect();
        let h = Histogram::from_samples(&samples, 25);
        let integral: f64 = (0..h.bins()).map(|i| h.density(i) * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_samples_covers_range() {
        let samples = [1.0, 2.0, 3.0];
        let h = Histogram::from_samples(&samples, 3);
        assert!(h.lo() < 1.0 && h.hi() > 3.0);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn degenerate_sample_still_works() {
        let h = Histogram::from_samples(&[2.0, 2.0, 2.0], 5);
        assert_eq!(h.total(), 3);
        let nonzero: usize = h.counts().iter().sum();
        assert_eq!(nonzero, 3);
    }

    #[test]
    fn bin_centers_are_monotone() {
        let h = Histogram::new(-1.0, 1.0, 8);
        let centers: Vec<f64> = (0..8).map(|i| h.bin_center(i)).collect();
        assert!(centers.windows(2).all(|w| w[1] > w[0]));
        assert!((centers[0] - (-0.875)).abs() < 1e-12);
    }

    #[test]
    fn cdf_reaches_one() {
        let h = Histogram::from_samples(&[1.0, 2.0, 3.0, 4.0], 4);
        let cdf = h.cdf_points();
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[1].1 >= w[0].1));
    }

    #[test]
    fn empty_histogram_density_is_zero() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.density(0), 0.0);
        assert_eq!(h.cdf_points()[3].1, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn inverted_bounds_rejected() {
        let _ = Histogram::new(1.0, 0.0, 4);
    }

    proptest! {
        #[test]
        fn prop_total_matches_sample_count(samples in proptest::collection::vec(-1e3f64..1e3, 1..200),
                                           bins in 1usize..40) {
            let h = Histogram::from_samples(&samples, bins);
            prop_assert_eq!(h.total(), samples.len());
            prop_assert_eq!(h.counts().iter().sum::<usize>(), samples.len());
        }

        #[test]
        fn prop_density_normalized(samples in proptest::collection::vec(-1e3f64..1e3, 2..200),
                                   bins in 1usize..40) {
            let h = Histogram::from_samples(&samples, bins);
            let integral: f64 = (0..h.bins()).map(|i| h.density(i) * h.bin_width()).sum();
            prop_assert!((integral - 1.0).abs() < 1e-6);
        }
    }
}
