//! Belief propagation across technology nodes: priors, precisions and MAP extraction.
//!
//! This crate implements Section IV of the paper.  The idea is that the four compact-model
//! parameters of a cell change only moderately from one technology node to the next
//! (Table I), so characterizations of *old* libraries carry usable information — "belief" —
//! about a *new* one:
//!
//! 1. every historical technology's cells are fitted with the compact model and archived as
//!    [`HistoricalRecord`]s in a [`HistoricalDatabase`];
//! 2. a Gaussian **prior** `µ_P ~ N(µ0, Σ0)` over the parameters is learned from those
//!    records ([`ParameterPrior`], Eq. 7);
//! 3. the per-input-condition model **precision** `β(ξ)` — how much the compact model can be
//!    trusted at each corner of the input space — is learned from the historical relative
//!    residuals ([`PrecisionModel`], Eq. 9);
//! 4. the new technology's parameters are extracted from an ultra-small set of simulations
//!    by **maximum-a-posteriori** estimation ([`MapExtractor`], Eqs. 13–15), combining the
//!    prior, the precisions and the few fresh observations.
//!
//! The actual simulations that populate the database and provide the fresh observations are
//! orchestrated by `slic-core`; this crate is pure statistics on top of
//! [`slic_timing_model`].
//!
//! # Examples
//!
//! ```
//! use slic_bayes::{HistoricalDatabase, PriorBuilder, TimingMetric};
//! use slic_timing_model::TimingParams;
//!
//! let mut db = HistoricalDatabase::new();
//! for (tech, kd) in [("n45", 0.40), ("n28", 0.38), ("n14", 0.39)] {
//!     db.push(slic_bayes::HistoricalRecord::new(
//!         tech, 45, "INV_X1", "INV_X1/A0/FALL", TimingMetric::Delay,
//!         TimingParams::new(kd, 1.0, -0.25, 0.09), 1.5, Vec::new(),
//!     ));
//! }
//! let prior = PriorBuilder::new().build(&db, TimingMetric::Delay, None).unwrap();
//! assert_eq!(prior.distribution().dim(), 4);
//! ```

pub mod history;
pub mod map;
pub mod precision;
pub mod prior;

pub use history::{ConditionResidual, HistoricalDatabase, HistoricalRecord, TimingMetric};
pub use map::{MapExtractor, MapFit};
pub use precision::PrecisionModel;
pub use prior::{ParameterPrior, PriorBuilder, PriorError};
