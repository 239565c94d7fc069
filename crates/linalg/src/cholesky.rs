//! Cholesky decomposition of symmetric positive-definite matrices.
//!
//! The Bayesian engine relies on Cholesky factors for everything covariance-shaped:
//! Mahalanobis distances in the MAP objective (Eq. 15 of the paper), sampling from the
//! learned multivariate-normal priors, and log-determinants for model-evidence style
//! diagnostics.

use crate::{LinalgError, Matrix, Vector};
use serde::{Deserialize, Serialize};

/// Lower-triangular Cholesky factor `L` of a symmetric positive-definite matrix `A = L·Lᵀ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cholesky {
    lower: Matrix,
}

impl Cholesky {
    /// Factorizes `a` into `L·Lᵀ`.
    ///
    /// The input is symmetrized (`(A + Aᵀ)/2`) first so that covariance matrices assembled
    /// from sample moments, which can carry tiny asymmetries, do not spuriously fail.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly positive.
    pub fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: format!("cholesky of {}x{}", a.rows(), a.cols()),
            });
        }
        let a = a.symmetrized();
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Self { lower: l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lower.rows()
    }

    /// Returns the lower-triangular factor `L`.
    pub fn lower(&self) -> &Matrix {
        &self.lower
    }

    /// Solves `A x = b` using forward and backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Vector {
        let y = self.forward_substitute(b);
        self.backward_substitute(&y)
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn forward_substitute(&self, b: &Vector) -> Vector {
        let n = self.dim();
        assert_eq!(b.len(), n, "forward_substitute dimension mismatch");
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.lower[(i, k)] * y[k];
            }
            y[i] = sum / self.lower[(i, i)];
        }
        y
    }

    /// Solves `Lᵀ x = y` (backward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != dim()`.
    pub fn backward_substitute(&self, y: &Vector) -> Vector {
        let n = self.dim();
        assert_eq!(y.len(), n, "backward_substitute dimension mismatch");
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.lower[(k, i)] * x[k];
            }
            x[i] = sum / self.lower[(i, i)];
        }
        x
    }

    /// Computes the inverse of the factored matrix.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = Vector::zeros(n);
            e[j] = 1.0;
            let col = self.solve(&e);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        inv
    }

    /// Log-determinant of the factored matrix: `2 · Σ ln L_ii`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim())
            .map(|i| self.lower[(i, i)].ln())
            .sum::<f64>()
            * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spd3() -> Matrix {
        // A = B^T B + I for a fixed B, guaranteed SPD.
        let b = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -1.0], &[0.3, 0.0, 2.0]]);
        b.gram().add_diagonal(1.0)
    }

    #[test]
    fn factor_round_trips() {
        let a = spd3();
        let chol = Cholesky::decompose(&a).unwrap();
        let l = chol.lower();
        let reconstructed = l.mat_mul(&l.transpose());
        assert!((&reconstructed - &a).norm_frobenius() < 1e-10);
    }

    #[test]
    fn solve_matches_direct_residual() {
        let a = spd3();
        let chol = a.cholesky().unwrap();
        let b = Vector::from_slice(&[1.0, -2.0, 3.0]);
        let x = chol.solve(&b);
        assert!((&a.mat_vec(&x) - &b).norm() < 1e-10);
    }

    #[test]
    fn inverse_matches_lu_inverse() {
        let a = spd3();
        let inv_chol = a.cholesky().unwrap().inverse();
        let inv_lu = a.inverse().unwrap();
        assert!((&inv_chol - &inv_lu).norm_frobenius() < 1e-8);
    }

    #[test]
    fn log_determinant_of_diagonal() {
        let a = Matrix::from_diagonal(&[2.0, 3.0, 4.0]);
        let chol = a.cholesky().unwrap();
        assert!((chol.log_determinant() - (24.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // indefinite
        let err = Cholesky::decompose(&a).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        let err = Cholesky::decompose(&a).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn tolerates_tiny_asymmetry() {
        let mut a = spd3();
        a[(0, 1)] += 1e-12;
        assert!(Cholesky::decompose(&a).is_ok());
    }

    proptest! {
        #[test]
        fn prop_random_spd_round_trip(values in proptest::collection::vec(-2f64..2.0, 16),
                                      jitter in 0.1f64..5.0) {
            let b = Matrix::from_fn(4, 4, |i, j| values[i * 4 + j]);
            let a = b.gram().add_diagonal(jitter);
            let chol = Cholesky::decompose(&a).unwrap();
            let l = chol.lower();
            let back = l.mat_mul(&l.transpose());
            prop_assert!((&back - &a).norm_frobenius() < 1e-8 * (1.0 + a.norm_frobenius()));
        }

        #[test]
        fn prop_solve_residual_small(values in proptest::collection::vec(-2f64..2.0, 9),
                                     rhs in proptest::collection::vec(-10f64..10.0, 3),
                                     jitter in 0.5f64..5.0) {
            let b = Matrix::from_fn(3, 3, |i, j| values[i * 3 + j]);
            let a = b.gram().add_diagonal(jitter);
            let chol = Cholesky::decompose(&a).unwrap();
            let rhs = Vector::from_slice(&rhs);
            let x = chol.solve(&rhs);
            prop_assert!((&a.mat_vec(&x) - &rhs).norm() < 1e-7 * (1.0 + rhs.norm()));
        }
    }
}
