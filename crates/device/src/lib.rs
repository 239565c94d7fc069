//! Variation-aware compact MOSFET model and synthetic technology nodes.
//!
//! The paper characterizes production cell libraries through SPICE simulations driven by
//! proprietary BSIM design kits spanning six technology nodes (14 nm–45 nm, bulk and SOI,
//! FinFET and planar).  Those kits are not available, so this crate provides the
//! substitution described in `DESIGN.md`: a simplified **virtual-source compact model**
//! (in the spirit of the MVS model the paper itself cites for its `Ieff` definition) plus a
//! family of synthetic technology nodes whose nominal parameters and variability are tuned
//! to behave like successive real nodes.
//!
//! What matters for reproducing the paper is that the oracle
//! `(cell, Sin, Cload, Vdd, process seed) → (Td, Sout)` has transistor-like physics:
//!
//! * drain current that saturates with `Vds` and rises steeply but sub-quadratically with
//!   `Vgs` above threshold, with subthreshold conduction below it;
//! * delay that grows super-linearly as `Vdd` approaches the threshold voltage — this is
//!   what makes low-`Vdd` delay distributions non-Gaussian (Fig. 9);
//! * an effective drive current `Ieff` (Eq. 4 of the paper) computable from two DC points;
//! * node-to-node parameter shifts that are *moderate*, so that priors learned on older
//!   nodes carry useful information about a new one (Table I).
//!
//! # Examples
//!
//! ```
//! use slic_device::{Mosfet, TechnologyNode};
//! use slic_units::Volts;
//!
//! let tech = TechnologyNode::n14_finfet();
//! let nmos = Mosfet::nmos(tech.nmos().clone());
//! let id = nmos.drain_current(Volts(0.8), Volts(0.8));
//! assert!(id.value() > 0.0);
//! ```

pub mod compiled;
pub mod mosfet;
pub mod tech;
pub mod variation;
pub mod vmath;

pub use compiled::{
    drain_current4_batch, CompiledDevice, CompiledDeviceX4, CompiledInverter, CompiledInverterX4,
    SweepScratch,
};
pub use mosfet::{DeviceParams, Mosfet, Polarity};
pub use tech::{ProcessFlavor, TechnologyKind, TechnologyNode};
pub use variation::{ProcessSample, ProcessVariation};
