//! Small dense linear algebra for the `slic` workspace.
//!
//! The Bayesian characterization engine only ever manipulates tiny dense matrices — the
//! compact timing model has four parameters, so covariances are 4×4 and Gauss–Newton normal
//! equations are at most a handful of rows.  Pulling in a full linear-algebra crate for that
//! would be overkill (and the project deliberately implements its numerical substrate from
//! scratch), so this crate provides exactly what the rest of the workspace needs:
//!
//! * [`Vector`] — an owned dense vector with the usual arithmetic.
//! * [`Matrix`] — an owned dense row-major matrix with products, transposes and slicing.
//! * [`Cholesky`] — decomposition of symmetric positive-definite matrices, used for
//!   covariance inversion, Mahalanobis distances, multivariate normal sampling and
//!   log-determinants.
//! * [`Lu`] — LU decomposition with partial pivoting for general square systems
//!   (Gauss–Newton steps with damping).
//!
//! # Examples
//!
//! ```
//! use slic_linalg::{Matrix, Vector};
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let chol = a.cholesky().expect("SPD");
//! let x = chol.solve(&b);
//! let residual = &a.mat_vec(&x) - &b;
//! assert!(residual.norm() < 1e-12);
//! ```

pub mod cholesky;
pub mod error;
pub mod lu;
pub mod matrix;
pub mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use vector::Vector;
