//! SPICE-class transient simulation of standard-cell switching events.
//!
//! The paper uses HSPICE with industrial BSIM design kits as its ground-truth oracle: given
//! a cell, an input slew, a load capacitance, a supply voltage and a process corner, the
//! oracle returns the propagation delay `Td` and the output transition time `Sout`.  This
//! crate is the from-scratch substitute: it integrates the nonlinear ODE of the cell's
//! equivalent inverter driving its load, using the virtual-source device model from
//! [`slic_device`].
//!
//! The crate is organized as follows:
//!
//! * [`input`] — the library input space `ξ = (Sin, Cload, Vdd)`: the [`InputPoint`] type,
//!   the [`InputSpace`] box and its sampling plans (uniform, Latin hypercube, LUT grid);
//! * [`measure`] — waveform threshold definitions and the [`TimingMeasurement`] result;
//! * [`transient`] — the adaptive-step transient solver for a single switching event
//!   (embedded-error Bogacki–Shampine kernel, plus the seed RK4 kept as golden reference):
//!   [`simulate_switching`] and [`simulate_switching_rk4`] are the two one-shot entry
//!   points;
//! * [`simd`] — the opt-in SIMD quad worklist, four lanes per step attempt;
//! * [`backend`] — the [`SimulationBackend`] boundary and the one way to run a batch of
//!   transients: [`LocalBackend::solve_batch`] in-process (the scalar kernel lane by lane,
//!   each lane bitwise identical to [`simulate_switching`], or the SIMD quads); the
//!   `slic-farm` crate adds remote workers;
//! * [`engine`] — the "simulator front-end": a [`CharacterizationEngine`] bound to one
//!   technology that runs (and counts) simulations, sweeps and Monte Carlo ensembles, in
//!   the role of the paper's SPICE + `.ALTER` + Monte Carlo flow;
//! * [`cache`] and [`disk`] — the in-memory and the persistent simulation cache;
//! * [`codec`] — the compact text form of a simulation coordinate and its measurement,
//!   shared by the persistent cache's log and the `slic-farm` wire.
//!
//! Simulation counting matters: every speedup the paper reports is a ratio of *simulation
//! counts* needed to reach equal accuracy, so [`engine::SimulationCounter`] is threaded
//! through every experiment.
//!
//! # Examples
//!
//! ```
//! use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
//! use slic_device::TechnologyNode;
//! use slic_spice::{CharacterizationEngine, InputPoint};
//! use slic_units::{Farads, Seconds, Volts};
//!
//! let engine = CharacterizationEngine::new(TechnologyNode::n14_finfet());
//! let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
//! let arc = TimingArc::new(cell, 0, Transition::Fall);
//! let point = InputPoint::new(Seconds::from_picoseconds(5.0), Farads::from_femtofarads(2.0), Volts(0.8));
//! let m = engine.simulate_nominal(&arc, &point);
//! assert!(m.delay.value() > 0.0 && m.output_slew.value() > 0.0);
//! ```

pub mod backend;
pub mod cache;
pub mod codec;
pub mod disk;
pub mod engine;
pub mod input;
pub mod measure;
pub mod simd;
pub mod transient;

pub use backend::{KernelStatsSnapshot, LocalBackend, SimRequest, SimResult, SimulationBackend};
pub use cache::{CacheError, InMemorySimCache, SimKey, SimulationCache, KERNEL_VERSION};
pub use disk::{CompactionOptions, CompactionReport, DiskSimCache};
pub use engine::{
    CharacterizationEngine, ConfigError, DispatchSnapshot, MixedLane, SimulationCounter,
};
pub use input::{InputPoint, InputSpace};
pub use measure::TimingMeasurement;
pub use transient::{simulate_switching, simulate_switching_rk4, TransientConfig, TransientStats};
