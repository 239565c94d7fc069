//! LU decomposition with partial pivoting for general square systems.
//!
//! The damped Gauss–Newton steps in the least-squares and MAP extractors solve small normal
//! equations that are symmetric positive definite *in exact arithmetic* but can lose that
//! property when the damping is tiny and the Jacobian is poorly scaled.  LU with partial
//! pivoting is the robust fallback used by [`crate::Matrix::solve`].

use crate::{LinalgError, Matrix, Vector};
use serde::{Deserialize, Serialize};

/// LU decomposition `P·A = L·U` with partial pivoting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lu {
    /// Combined L (unit lower, below diagonal) and U (upper, including diagonal) factors.
    factors: Matrix,
    /// Row permutation applied to the input: row `i` of the factored system came from
    /// original row `permutation[i]`.
    permutation: Vec<usize>,
}

impl Lu {
    /// Relative pivot threshold below which the matrix is declared singular.
    const SINGULARITY_THRESHOLD: f64 = 1e-300;

    /// Factorizes the square matrix `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::Singular`] if no usable pivot is found in some column.
    pub fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: format!("lu of {}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut f = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Find the largest pivot in this column at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = f[(col, col)].abs();
            for row in (col + 1)..n {
                let candidate = f[(row, col)].abs();
                if candidate > pivot_val {
                    pivot_val = candidate;
                    pivot_row = row;
                }
            }
            if !pivot_val.is_finite() || pivot_val < Self::SINGULARITY_THRESHOLD {
                return Err(LinalgError::Singular { pivot: col });
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = f[(col, j)];
                    f[(col, j)] = f[(pivot_row, j)];
                    f[(pivot_row, j)] = tmp;
                }
                perm.swap(col, pivot_row);
            }
            // Eliminate below the pivot.
            let pivot = f[(col, col)];
            for row in (col + 1)..n {
                let factor = f[(row, col)] / pivot;
                f[(row, col)] = factor;
                for j in (col + 1)..n {
                    f[(row, j)] -= factor * f[(col, j)];
                }
            }
        }
        Ok(Self {
            factors: f,
            permutation: perm,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Vector {
        let n = self.dim();
        assert_eq!(b.len(), n, "lu solve dimension mismatch");
        // Apply the permutation, then forward substitution (unit lower factor).
        let mut y = Vector::from_fn(n, |i| b[self.permutation[i]]);
        for i in 0..n {
            for k in 0..i {
                let delta = self.factors[(i, k)] * y[k];
                y[i] -= delta;
            }
        }
        // Backward substitution with the upper factor.
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.factors[(i, k)] * x[k];
            }
            x[i] = sum / self.factors[(i, i)];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let b = Vector::from_slice(&[8.0, -11.0, -3.0]);
        let x = Lu::decompose(&a).unwrap().solve(&b);
        // Known solution x = (2, 3, -1).
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_needed_when_leading_pivot_is_zero() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::decompose(&a).unwrap();
        let b = Vector::from_slice(&[3.0, 5.0]);
        let x = lu.solve(&b);
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            Lu::decompose(&a).unwrap_err(),
            LinalgError::Singular { .. }
        ));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::decompose(&a).unwrap_err(),
            LinalgError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn random_well_conditioned_systems() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 5, 8] {
            let a = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    5.0 + rng.gen::<f64>()
                } else {
                    rng.gen::<f64>() - 0.5
                }
            });
            let b = Vector::from_fn(n, |_| rng.gen::<f64>() * 10.0 - 5.0);
            let x = Lu::decompose(&a).unwrap().solve(&b);
            assert!((&a.mat_vec(&x) - &b).norm() < 1e-9, "n = {n}");
        }
    }

    proptest! {
        #[test]
        fn prop_diagonally_dominant_systems_solve(values in proptest::collection::vec(-1f64..1.0, 16),
                                                  rhs in proptest::collection::vec(-10f64..10.0, 4)) {
            // Diagonally dominant => nonsingular.
            let a = Matrix::from_fn(4, 4, |i, j| {
                if i == j { 5.0 } else { values[i * 4 + j] }
            });
            let b = Vector::from_slice(&rhs);
            let x = Lu::decompose(&a).unwrap().solve(&b);
            prop_assert!((&a.mat_vec(&x) - &b).norm() < 1e-8 * (1.0 + b.norm()));
        }
    }
}
