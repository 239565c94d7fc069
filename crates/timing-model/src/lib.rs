//! The ultra-compact analytical gate timing model of the paper (Section III) and its
//! least-squares extraction.
//!
//! The model expresses both delay and output slew of a timing arc with the same four
//! universal parameters `P = {kd, Cpar, V', α}`:
//!
//! ```text
//! Td   = kd · ΔQ / Ieff
//! ΔQ   = (Vdd + V') · (Cload + Cpar + α · Sin)
//! ```
//!
//! where `Ieff` is the effective switching current of the arc's driving device (Eq. 4 of
//! the paper), available per input vector from the device model.  The same functional form
//! with its own parameter values models `Sout`.
//!
//! Modules:
//!
//! * [`model`] — parameter vector, model evaluation, residuals and analytic Jacobians;
//! * [`extended`] — the optional `Sin·Cload` cross-term variant discussed at the end of
//!   Section III (model-complexity ablation);
//! * [`fit`] — damped Gauss–Newton / Levenberg–Marquardt extraction, with an optional
//!   Gaussian prior term so the same solver serves both the plain least-squares baseline
//!   ("Proposed Model + LSE" in Figs. 6–8) and the MAP estimator of `slic-bayes`;
//! * [`invariance`] — the collapse diagnostics behind Figs. 2 and 3 (`Td·Ieff/(Vdd+V')`
//!   constant across `Vdd`, `Td/(Cload+Cpar+α·Sin)` constant across load/slew).
//!
//! # Examples
//!
//! ```
//! use slic_timing_model::{TimingParams, TimingSample};
//! use slic_spice::InputPoint;
//! use slic_units::{Amperes, Farads, Seconds, Volts};
//!
//! let params = TimingParams::new(0.39, 0.95, -0.27, 0.09);
//! let point = InputPoint::new(Seconds::from_picoseconds(5.0), Farads::from_femtofarads(2.0), Volts(0.8));
//! let predicted = params.evaluate(&point, Amperes(40e-6));
//! assert!(predicted.value() > 0.0);
//! let sample = TimingSample::new(point, Amperes(40e-6), predicted);
//! assert!(params.relative_error(&sample).abs() < 1e-12);
//! ```

pub mod extended;
pub mod fit;
pub mod invariance;
pub mod model;

pub use extended::ExtendedTimingParams;
pub use fit::{FitResult, GaussianPenalty, LeastSquaresFitter};
pub use invariance::{load_slew_collapse, vdd_collapse, CollapseSeries};
pub use model::{TimingParams, TimingSample, PARAM_COUNT};
