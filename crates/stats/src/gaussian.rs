//! The multivariate normal distribution.
//!
//! The Bayesian characterization engine models the compact-timing-model parameters with a
//! conjugate Gaussian prior `µ_P ~ N(µ0, Σ0)` (Eq. 7 of the paper); this module provides
//! that distribution together with fitting, sampling and log-densities.

use rand::Rng;
use rand_distr::{Distribution, StandardNormal};
use serde::{Deserialize, Serialize};
use slic_linalg::{Cholesky, LinalgError, Matrix, Vector};
use std::f64::consts::PI;

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
        fn prop_mvn_mahalanobis_nonnegative(x in proptest::collection::vec(-3f64..3.0, 4)) {
            let mvn = example_mvn();
            prop_assert!(mvn.mahalanobis_squared(&Vector::from_slice(&x)) >= 0.0);
        }
    }
}
