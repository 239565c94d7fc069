//! Univariate and multivariate normal distributions.
//!
//! The Bayesian characterization engine models the compact-timing-model parameters with a
//! conjugate Gaussian prior `µ_P ~ N(µ0, Σ0)` (Eq. 7 of the paper) and the per-condition
//! measurement likelihood with an independent Gaussian of precision `β(ξ)` (Eq. 8).  This
//! module provides both building blocks together with sampling, log-densities and the
//! standard-normal CDF/quantile needed elsewhere.

use rand::Rng;
use rand_distr::{Distribution, StandardNormal};
use serde::{Deserialize, Serialize};
use slic_linalg::{Cholesky, LinalgError, Matrix, Vector};
use std::f64::consts::PI;

/// Error function approximation (Abramowitz & Stegun 7.1.26), max absolute error ≈ 1.5e-7.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function.
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal quantile (inverse CDF), Acklam's rational approximation.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn standard_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0, 1)");
    // Coefficients of Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// A univariate normal distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gaussian {
    mean: f64,
    std_dev: f64,
}

impl Gaussian {
    /// Creates a normal distribution with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is not strictly positive and finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            std_dev > 0.0 && std_dev.is_finite(),
            "standard deviation must be positive and finite (got {std_dev})"
        );
        Self { mean, std_dev }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Fits a Gaussian to a sample by the method of moments.
    ///
    /// A floor of `1e-300` is applied to the standard deviation so that degenerate samples
    /// still produce a usable (if extremely narrow) distribution.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn fit(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot fit a Gaussian to no samples");
        let mean = crate::moments::mean(samples);
        let sd = crate::moments::std_dev(samples).max(1e-300);
        Self { mean, std_dev: sd }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the distribution.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Variance of the distribution.
    pub fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }

    /// Precision (inverse variance) — the `β` of the paper's likelihood (Eq. 8).
    pub fn precision(&self) -> f64 {
        1.0 / self.variance()
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        (-0.5 * z * z).exp() / (self.std_dev * (2.0 * PI).sqrt())
    }

    /// Natural log of the density at `x`.
    pub fn log_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        -0.5 * z * z - self.std_dev.ln() - 0.5 * (2.0 * PI).ln()
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        standard_normal_cdf((x - self.mean) / self.std_dev)
    }

    /// Quantile (inverse CDF) at probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not strictly inside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        self.mean + self.std_dev * standard_normal_quantile(p)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z: f64 = StandardNormal.sample(rng);
        self.mean + self.std_dev * z
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// A multivariate normal distribution parameterized by mean vector and covariance matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultivariateGaussian {
    mean: Vector,
    covariance: Matrix,
    cholesky: Cholesky,
}

impl MultivariateGaussian {
    /// Creates a multivariate normal from a mean vector and covariance matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`LinalgError`] if the covariance is not square, does not match the mean
    /// dimension, or is not positive definite.
    pub fn new(mean: Vector, covariance: Matrix) -> Result<Self, LinalgError> {
        if covariance.rows() != mean.len() || covariance.cols() != mean.len() {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "mean has {} entries but covariance is {}x{}",
                    mean.len(),
                    covariance.rows(),
                    covariance.cols()
                ),
            });
        }
        let cholesky = covariance.cholesky()?;
        Ok(Self {
            mean,
            covariance,
            cholesky,
        })
    }

    /// Fits a multivariate normal to rows of `samples` (each row is one observation).
    ///
    /// A diagonal jitter `regularization` is added to the sample covariance so that nearly
    /// collinear samples still yield a positive-definite matrix — this is how the prior
    /// covariance `Σ0` is built from only a handful of historical technologies.
    ///
    /// # Errors
    ///
    /// Returns a [`LinalgError`] if the regularized covariance is still not positive
    /// definite.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or rows have inconsistent lengths.
    pub fn fit(samples: &[Vector], regularization: f64) -> Result<Self, LinalgError> {
        assert!(!samples.is_empty(), "cannot fit an MVN to no samples");
        let dim = samples[0].len();
        for s in samples {
            assert_eq!(s.len(), dim, "all samples must have the same dimension");
        }
        let n = samples.len() as f64;
        let mean = Vector::from_fn(dim, |j| samples.iter().map(|s| s[j]).sum::<f64>() / n);
        let denominator = if samples.len() > 1 { n - 1.0 } else { 1.0 };
        let mut cov = Matrix::zeros(dim, dim);
        for s in samples {
            for i in 0..dim {
                for j in 0..dim {
                    cov[(i, j)] += (s[i] - mean[i]) * (s[j] - mean[j]) / denominator;
                }
            }
        }
        let cov = cov.add_diagonal(regularization);
        Self::new(mean, cov)
    }

    /// Dimension of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Mean vector.
    pub fn mean(&self) -> &Vector {
        &self.mean
    }

    /// Covariance matrix.
    pub fn covariance(&self) -> &Matrix {
        &self.covariance
    }

    /// Cholesky factor of the covariance.
    pub fn cholesky(&self) -> &Cholesky {
        &self.cholesky
    }

    /// Inverse covariance (precision) matrix.
    pub fn precision(&self) -> Matrix {
        self.cholesky.inverse()
    }

    /// Log density at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn log_pdf(&self, x: &Vector) -> f64 {
        let d2 = self.cholesky.mahalanobis_squared(x, &self.mean);
        -0.5 * (d2 + self.cholesky.log_determinant() + self.dim() as f64 * (2.0 * PI).ln())
    }

    /// Squared Mahalanobis distance of `x` from the mean.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn mahalanobis_squared(&self, x: &Vector) -> f64 {
        self.cholesky.mahalanobis_squared(x, &self.mean)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vector {
        let z = Vector::from_fn(self.dim(), |_| StandardNormal.sample(rng));
        &self.mean + &self.cholesky.apply_factor(&z)
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Vector> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Returns a copy with the covariance scaled by `factor` (>1 broadens the prior,
    /// <1 sharpens it).  Used for the bias–variance ablation on prior strength.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive (the scaled covariance would not be a
    /// valid covariance matrix).
    pub fn scaled_covariance(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "covariance scale factor must be positive");
        let cov = self.covariance.scale(factor);
        #[expect(
            clippy::expect_used,
            reason = "baselined: scaling by a positive factor preserves positive definiteness"
        )]
        Self::new(self.mean.clone(), cov).expect("scaling preserves positive definiteness")
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn cdf_and_quantile_are_inverse() {
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = standard_normal_quantile(p);
            assert!((standard_normal_cdf(x) - p).abs() < 1e-5, "p = {p}");
        }
    }

    #[test]
    fn gaussian_pdf_cdf_quantile() {
        let g = Gaussian::new(1.0, 2.0);
        assert!((g.pdf(1.0) - 1.0 / (2.0 * (2.0 * PI).sqrt())).abs() < 1e-12);
        assert!((g.cdf(1.0) - 0.5).abs() < 1e-9);
        assert!((g.quantile(0.5) - 1.0).abs() < 1e-6);
        assert!((g.log_pdf(3.0) - g.pdf(3.0).ln()).abs() < 1e-9);
        assert!((g.precision() - 0.25).abs() < 1e-12);
        assert_eq!(Gaussian::standard().mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn gaussian_rejects_bad_sigma() {
        let _ = Gaussian::new(0.0, 0.0);
    }

    #[test]
    fn gaussian_fit_recovers_moments() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        let g = Gaussian::fit(&samples);
        assert!((g.mean() - 3.0).abs() < 1e-12);
        assert!((g.variance() - 2.5).abs() < 1e-12);
        // Degenerate sample still yields a valid (very narrow) Gaussian.
        let g = Gaussian::fit(&[2.0, 2.0]);
        assert!(g.std_dev() > 0.0);
    }

    #[test]
    fn gaussian_sampling_moments_converge() {
        let g = Gaussian::new(-0.25, 0.5);
        let mut rng = StdRng::seed_from_u64(42);
        let samples = g.sample_n(&mut rng, 20_000);
        assert!((crate::moments::mean(&samples) - g.mean()).abs() < 0.02);
        assert!((crate::moments::std_dev(&samples) - g.std_dev()).abs() < 0.02);
    }

    fn example_mvn() -> MultivariateGaussian {
        let mean = Vector::from_slice(&[0.4, 1.2, -0.25, 0.1]);
        let cov = Matrix::from_rows(&[
            &[0.04, 0.01, 0.0, 0.0],
            &[0.01, 0.09, 0.02, 0.0],
            &[0.0, 0.02, 0.05, 0.01],
            &[0.0, 0.0, 0.01, 0.02],
        ]);
        MultivariateGaussian::new(mean, cov).unwrap()
    }

    #[test]
    fn mvn_construction_checks_dimensions() {
        let err = MultivariateGaussian::new(Vector::zeros(2), Matrix::identity(3)).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
        let err = MultivariateGaussian::new(Vector::zeros(2), Matrix::from_diagonal(&[1.0, -1.0]))
            .unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn mvn_log_pdf_peaks_at_mean() {
        let mvn = example_mvn();
        let at_mean = mvn.log_pdf(mvn.mean());
        let away = mvn.log_pdf(&Vector::from_slice(&[1.0, 2.0, 0.5, -0.5]));
        assert!(at_mean > away);
        assert_eq!(mvn.mahalanobis_squared(mvn.mean()), 0.0);
    }

    #[test]
    fn mvn_sampling_recovers_mean_and_covariance_scale() {
        let mvn = example_mvn();
        let mut rng = StdRng::seed_from_u64(7);
        let samples = mvn.sample_n(&mut rng, 8_000);
        for j in 0..mvn.dim() {
            let col: Vec<f64> = samples.iter().map(|s| s[j]).collect();
            assert!(
                (crate::moments::mean(&col) - mvn.mean()[j]).abs() < 0.02,
                "component {j}"
            );
            let sd_expected = mvn.covariance()[(j, j)].sqrt();
            assert!(
                (crate::moments::std_dev(&col) - sd_expected).abs() < 0.02,
                "component {j}"
            );
        }
    }

    #[test]
    fn mvn_fit_round_trips_samples() {
        let mvn = example_mvn();
        let mut rng = StdRng::seed_from_u64(11);
        let samples = mvn.sample_n(&mut rng, 5_000);
        let fitted = MultivariateGaussian::fit(&samples, 1e-9).unwrap();
        for j in 0..mvn.dim() {
            assert!((fitted.mean()[j] - mvn.mean()[j]).abs() < 0.03);
        }
        // Covariance entries match to sampling accuracy.
        for i in 0..mvn.dim() {
            for j in 0..mvn.dim() {
                assert!((fitted.covariance()[(i, j)] - mvn.covariance()[(i, j)]).abs() < 0.02);
            }
        }
    }

    #[test]
    fn mvn_fit_handles_few_samples_with_regularization() {
        // Two samples of dimension 4: the raw covariance is rank deficient, the jitter
        // makes it usable — exactly the historical-technology prior situation.
        let samples = vec![
            Vector::from_slice(&[0.39, 0.95, -0.27, 0.09]),
            Vector::from_slice(&[0.41, 1.05, -0.29, 0.10]),
        ];
        let mvn = MultivariateGaussian::fit(&samples, 1e-4).unwrap();
        assert_eq!(mvn.dim(), 4);
        assert!(mvn.covariance()[(0, 0)] > 0.0);
    }

    #[test]
    fn scaled_covariance_changes_spread() {
        let mvn = example_mvn();
        let broad = mvn.scaled_covariance(4.0);
        assert!((broad.covariance()[(0, 0)] - 4.0 * mvn.covariance()[(0, 0)]).abs() < 1e-12);
        assert_eq!(broad.mean(), mvn.mean());
    }

    proptest! {
        #[test]
        fn prop_gaussian_cdf_monotone(mean in -5f64..5.0, sd in 0.1f64..3.0,
                                      a in -10f64..10.0, b in -10f64..10.0) {
            let g = Gaussian::new(mean, sd);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(g.cdf(lo) <= g.cdf(hi) + 1e-12);
        }

        #[test]
        fn prop_gaussian_quantile_round_trip(mean in -5f64..5.0, sd in 0.1f64..3.0,
                                             p in 0.01f64..0.99) {
            let g = Gaussian::new(mean, sd);
            let x = g.quantile(p);
            prop_assert!((g.cdf(x) - p).abs() < 1e-4);
        }

        #[test]
        fn prop_mvn_mahalanobis_nonnegative(x in proptest::collection::vec(-3f64..3.0, 4)) {
            let mvn = example_mvn();
            prop_assert!(mvn.mahalanobis_squared(&Vector::from_slice(&x)) >= 0.0);
        }
    }
}
