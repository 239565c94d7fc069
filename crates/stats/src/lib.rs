//! Statistics toolkit for the `slic` workspace.
//!
//! Statistical library characterization needs a fairly small but carefully chosen set of
//! statistical tools, all provided here:
//!
//! * [`moments`] — sample mean / variance / skewness / quantiles, the metrics compared in
//!   Eqs. (16)–(19) of the paper.
//! * [`gaussian`] — the multivariate normal distribution, the workhorse of the Bayesian
//!   engine: the parameter prior `µ_P ~ N(µ0, Σ0)` learned from historical technologies is
//!   represented with it.
//! * [`kde`] — kernel density estimates for the Fig. 9 delay-PDF comparison.
//! * [`sampling`] — uniform / Latin-hypercube / factorial sampling plans over the library
//!   input space `ξ = (Sin, Cload, Vdd)` and over process-variation space.
//! * [`distance`] — the relative-error metrics used to score how well a characterization
//!   method reproduces the baseline.
//!
//! # Examples
//!
//! ```
//! use slic_stats::moments::Summary;
//!
//! let samples = [1.0, 2.0, 3.0, 4.0];
//! let summary = Summary::from_samples(&samples);
//! assert!((summary.mean - 2.5).abs() < 1e-12);
//! ```

pub mod distance;
pub mod gaussian;
pub mod kde;
pub mod moments;
pub mod sampling;

pub use distance::relative_error;
pub use gaussian::MultivariateGaussian;
pub use kde::KernelDensity;
pub use moments::Summary;
pub use sampling::{full_factorial, latin_hypercube, uniform_box};
