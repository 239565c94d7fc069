//! Lookup-table (LUT) characterization baseline.
//!
//! The most widely used statistical library characterization method stores delay and output
//! slew (and their statistical moments) in a table indexed by input slew, load capacitance
//! and supply voltage, and interpolates between grid points at timing-analysis time.  This
//! crate implements that baseline so the proposed compact-model + Bayesian flow can be
//! compared against it on equal footing:
//!
//! * [`table`] — a three-dimensional table over `(Sin, Cload, Vdd)` with trilinear
//!   interpolation and edge clamping;
//! * [`builder`] — fills nominal and statistical tables by driving the
//!   [`slic_spice::CharacterizationEngine`], choosing grid shapes for a given simulation
//!   budget the way the Fig. 6–8 sweeps require, and accounting for every simulation spent.
//!
//! # Examples
//!
//! ```
//! use slic_lut::grid_levels_for_budget;
//!
//! // A budget of 12 simulations is spent as a 3 x 2 x 2 grid.
//! assert_eq!(grid_levels_for_budget(12), (3, 2, 2));
//! ```

pub mod builder;
pub mod table;

pub use builder::{grid_levels_for_budget, LutBuilder, NominalLut, StatisticalLut};
pub use table::Lut3d;
