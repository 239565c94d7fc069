//! Physical-quantity newtypes shared across the `slic` workspace.
//!
//! Standard-cell characterization juggles voltages, capacitances, times, currents and
//! charges whose magnitudes differ by fifteen orders of magnitude (volts vs. femtofarads
//! vs. picoseconds).  Raw `f64`s make it far too easy to pass a capacitance where a time
//! was expected or to drop a `1e-12` somewhere; the newtypes in this crate make those
//! mistakes type errors instead ([C-NEWTYPE]).
//!
//! The crate provides:
//!
//! * [`Volts`], [`Farads`], [`Seconds`], [`Amperes`], [`Coulombs`] — thin `f64` wrappers
//!   with the arithmetic that is physically meaningful between them (e.g.
//!   `Volts * Farads = Coulombs`, `Coulombs / Amperes = Seconds`).
//! * [`Celsius`] for simulation temperature.
//! * Engineering-notation formatting via [`format::engineering`] so that `1.67e-15 F`
//!   prints as `1.67 fF`.
//! * [`range::linspace`] for sweep grids such as the Liberty export axes.
//!
//! # Examples
//!
//! ```
//! use slic_units::{Volts, Farads, Seconds, Amperes};
//!
//! let vdd = Volts(0.8);
//! let cload = Farads(2.0e-15);
//! let ieff = Amperes(60e-6);
//! // Charge delivered to the load over a full swing, and the corresponding RC-style delay.
//! let q = vdd * cload;
//! let t: Seconds = q / ieff;
//! assert!(t.value() > 0.0);
//! ```

pub mod format;
pub mod quantity;
pub mod range;

pub use quantity::{Amperes, Celsius, Coulombs, Farads, Seconds, Volts};
