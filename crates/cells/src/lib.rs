//! Standard-cell library modeling.
//!
//! The characterization flows of this workspace operate on *cells* — small combinational
//! gates such as inverters, NANDs and NORs — and on their *timing arcs* (an input pin, an
//! output transition direction).  This crate provides:
//!
//! * [`CellKind`] / [`DriveStrength`] / [`Cell`] — the catalogue of supported cell types and
//!   their transistor-level topology descriptions (series/parallel stack structure,
//!   per-input device sizing);
//! * [`Transition`] and [`TimingArc`] — the arc enumeration used by the characterization
//!   grids ("NAND2, input A, output falling");
//! * [`EquivalentInverter`] — the reduction of Fig. 1(b) of the paper: for a given arc the
//!   pull-up network is collapsed into a single equivalent PMOS and the pull-down network
//!   into a single equivalent NMOS, with internal parasitics lumped at the output node.
//!   The transient simulator in `slic-spice` integrates this two-transistor circuit;
//! * [`Library`] — a named collection of cells, with the default library used throughout
//!   the experiments.
//!
//! # Examples
//!
//! ```
//! use slic_cells::{Cell, CellKind, DriveStrength, Library};
//!
//! let lib = Library::standard();
//! assert!(lib.cells().len() >= 6);
//! let nand2 = Cell::new(CellKind::Nand2, DriveStrength::X1);
//! assert_eq!(nand2.input_count(), 2);
//! ```

pub mod arc;
pub mod cell;
pub mod equivalent;
pub mod library;

pub use arc::{TimingArc, Transition};
pub use cell::{Cell, CellKind, DriveStrength};
pub use equivalent::EquivalentInverter;
pub use library::{glob_match, Library};
