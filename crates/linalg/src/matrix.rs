//! Owned dense row-major matrices.

use crate::{Cholesky, LinalgError, Lu, Vector};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// An owned, dense, row-major matrix of `f64`.
///
/// Sized for the workspace's needs: parameter covariances (4×4), Gauss–Newton Jacobians
/// (tens of rows × 4 columns) and design matrices for the LUT baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, d) in diag.iter().enumerate() {
            m[(i, i)] = *d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns row `i` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> Vector {
        assert!(i < self.rows, "row index out of bounds");
        Vector::from_slice(&self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `A · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mat_vec(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.cols, "mat_vec dimension mismatch");
        Vector::from_fn(self.rows, |i| {
            (0..self.cols).map(|j| self[(i, j)] * x[j]).sum()
        })
    }

    /// Matrix–matrix product `A · B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn mat_mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "mat_mul dimension mismatch");
        Matrix::from_fn(self.rows, other.cols, |i, j| {
            (0..self.cols).map(|k| self[(i, k)] * other[(k, j)]).sum()
        })
    }

    /// Gram matrix `Aᵀ · A` (always symmetric positive semi-definite).
    pub fn gram(&self) -> Matrix {
        self.transpose().mat_mul(self)
    }

    /// Element-wise scaling by a constant.
    pub fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Returns `self + factor · I`.
    ///
    /// Used for Levenberg–Marquardt damping and covariance regularization.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&self, factor: f64) -> Matrix {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        let mut m = self.clone();
        for i in 0..self.rows {
            m[(i, i)] += factor;
        }
        m
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute asymmetry `max |A_ij - A_ji|`; zero for non-square matrices is not
    /// defined, so this panics instead.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn asymmetry(&self) -> f64 {
        assert!(self.is_square(), "asymmetry requires a square matrix");
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Returns a symmetrized copy `(A + Aᵀ)/2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrized(&self) -> Matrix {
        assert!(self.is_square(), "symmetrized requires a square matrix");
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            0.5 * (self[(i, j)] + self[(j, i)])
        })
    }

    /// Returns `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Computes the Cholesky decomposition of this (symmetric positive-definite) matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if a non-positive pivot is encountered,
    /// and [`LinalgError::DimensionMismatch`] if the matrix is not square.
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::decompose(self)
    }

    /// Computes the LU decomposition (partial pivoting) of this square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] for numerically singular matrices and
    /// [`LinalgError::DimensionMismatch`] if the matrix is not square.
    pub fn lu(&self) -> Result<Lu, LinalgError> {
        Lu::decompose(self)
    }

    /// Solves `A x = b` via LU decomposition.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Matrix::lu`], plus [`LinalgError::DimensionMismatch`] when
    /// `b.len() != rows`.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: format!("solve: {}x{} vs rhs {}", self.rows, self.cols, b.len()),
            });
        }
        Ok(self.lu()?.solve(b))
    }

    /// Computes the matrix inverse via LU decomposition.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Matrix::lu`].
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let lu = self.lu()?;
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = Vector::zeros(n);
            e[j] = 1.0;
            let col = lu.solve(&e);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix addition dimension mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix subtraction dimension mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<&Vector> for &Matrix {
    type Output = Vector;
    fn mul(self, rhs: &Vector) -> Vector {
        self.mat_vec(rhs)
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.mat_mul(rhs)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spd2() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])
    }

    #[test]
    fn constructors() {
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let d = Matrix::from_diagonal(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        let f = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(f[(1, 2)], 5.0);
        assert_eq!(f.rows(), 2);
        assert_eq!(f.cols(), 3);
        assert!(!f.is_square());
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn rows_columns_diagonal() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(0).as_slice(), &[1.0, 2.0]);
        assert_eq!(m.transpose().row(1).as_slice(), &[2.0, 4.0], "a column");
        let d = Matrix::from_diagonal(&[1.0, 4.0]);
        assert_eq!(d.row(1).as_slice(), &[0.0, 4.0], "a diagonal matrix");
    }

    #[test]
    fn transpose_and_products() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let at = a.transpose();
        assert_eq!(at.rows(), 3);
        assert_eq!(at[(2, 1)], 6.0);
        let x = Vector::from_slice(&[1.0, 0.0, -1.0]);
        assert_eq!(a.mat_vec(&x).as_slice(), &[-2.0, -2.0]);
        let prod = a.mat_mul(&at);
        assert_eq!(prod.rows(), 2);
        assert_eq!(prod[(0, 0)], 14.0);
        let g = a.gram();
        assert!(g.is_square());
        assert!(g.asymmetry() < 1e-12);
        // Operator sugar matches the named methods.
        assert_eq!((&a * &x).as_slice(), a.mat_vec(&x).as_slice());
        assert_eq!((&a * &at)[(0, 0)], 14.0);
    }

    #[test]
    fn add_sub_scale_diagonal() {
        let a = spd2();
        let b = Matrix::identity(2);
        assert_eq!((&a + &b)[(0, 0)], 5.0);
        assert_eq!((&a - &b)[(1, 1)], 2.0);
        assert_eq!(a.scale(2.0)[(0, 1)], 2.0);
        assert_eq!(a.add_diagonal(1.0)[(0, 0)], 5.0);
        assert!(a.norm_frobenius() > 0.0);
    }

    #[test]
    fn symmetrization() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        assert!(m.asymmetry() > 1.0);
        let s = m.symmetrized();
        assert!(s.asymmetry() < 1e-15);
        assert_eq!(s[(0, 1)], 1.0);
    }

    #[test]
    fn solve_and_inverse() {
        let a = spd2();
        let b = Vector::from_slice(&[1.0, 2.0]);
        let x = a.solve(&b).unwrap();
        let r = &a.mat_vec(&x) - &b;
        assert!(r.norm() < 1e-12);
        let inv = a.inverse().unwrap();
        let ident = a.mat_mul(&inv);
        assert!((&ident - &Matrix::identity(2)).norm_frobenius() < 1e-12);
    }

    #[test]
    fn solve_rejects_bad_rhs() {
        let a = spd2();
        let err = a.solve(&Vector::zeros(3)).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn finiteness_and_display() {
        let a = spd2();
        assert!(a.is_finite());
        let mut b = a.clone();
        b[(0, 0)] = f64::NAN;
        assert!(!b.is_finite());
        let text = format!("{a}");
        assert_eq!(text.lines().count(), 2);
    }

    proptest! {
        #[test]
        fn prop_transpose_involution(values in proptest::collection::vec(-1e3f64..1e3, 12)) {
            let m = Matrix::from_fn(3, 4, |i, j| values[i * 4 + j]);
            let back = m.transpose().transpose();
            prop_assert_eq!(m, back);
        }

        #[test]
        fn prop_matvec_linearity(values in proptest::collection::vec(-10f64..10.0, 9),
                                 x in proptest::collection::vec(-10f64..10.0, 3),
                                 y in proptest::collection::vec(-10f64..10.0, 3),
                                 s in -5f64..5.0) {
            let a = Matrix::from_fn(3, 3, |i, j| values[i * 3 + j]);
            let vx = Vector::from_slice(&x);
            let vy = Vector::from_slice(&y);
            let lhs = a.mat_vec(&vx.axpy(s, &vy));
            let rhs = a.mat_vec(&vx).axpy(s, &a.mat_vec(&vy));
            for i in 0..3 {
                prop_assert!((lhs[i] - rhs[i]).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_gram_is_symmetric_psd(values in proptest::collection::vec(-10f64..10.0, 12)) {
            let a = Matrix::from_fn(4, 3, |i, j| values[i * 3 + j]);
            let g = a.gram();
            prop_assert!(g.asymmetry() < 1e-9);
            // x^T G x = |A x|^2 >= 0 for a few probe vectors.
            for probe in [[1.0, 0.0, 0.0], [0.3, -0.7, 0.2], [1.0, 1.0, 1.0]] {
                let x = Vector::from_slice(&probe);
                let q = x.dot(&g.mat_vec(&x));
                prop_assert!(q >= -1e-9);
            }
        }
    }
}
