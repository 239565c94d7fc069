//! `slic` — Statistical LIbrary Characterization using belief propagation across technology
//! nodes.
//!
//! This crate is the public facade of the workspace: it wires the substrate crates
//! (device model, transient simulator, LUT baseline, compact timing model, Bayesian engine)
//! into the end-to-end flows evaluated in the DATE 2015 paper
//! *"Statistical Library Characterization Using Belief Propagation across Multiple
//! Technology Nodes"* (Yu, Saxena, Hess, Elfadel, Antoniadis, Boning):
//!
//! * [`historical`] — characterize old technologies once and archive the compact-model fits
//!   ("historical learning" in Fig. 4 of the paper);
//! * [`nominal`] — the nominal characterization study of Fig. 6: proposed model + Bayesian
//!   inference vs. proposed model + least squares vs. the LUT baseline, as a function of the
//!   number of training simulations, scored by [`nominal::fit_and_validate`], the routine
//!   every nominal `slic-pipeline` work unit runs too;
//! * [`statistical`] — the statistical characterization study of Figs. 7–9: mean / σ of
//!   delay and slew across process variation, and the delay PDF at a low-supply corner;
//! * [`cost`] — the simulation-count cost model (`O(k·Nsample)` vs `O(NLUT·Nsample)`);
//! * [`liberty`] — a Liberty-flavoured text export of a characterized library;
//! * [`report`] — the Markdown table formatter shared by the examples and benches.
//!
//! The substrate crates are re-exported under [`prelude`] so downstream users can depend on
//! `slic` alone.
//!
//! # Quick start
//!
//! ```no_run
//! use slic::prelude::*;
//! use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
//! use slic::nominal::{NominalStudy, NominalStudyConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Learn priors from the six historical technology nodes.
//! let library = Library::paper_trio();
//! let learner = HistoricalLearner::new(HistoricalLearningConfig::default());
//! let learning = learner.learn(&TechnologyNode::historical_suite(), &library)?;
//!
//! // 2. Characterize a new 14-nm technology with a handful of simulations.  The study
//! //    fails on an invalid transient configuration (`new`) or a database without
//! //    records of the metric (`run`).
//! let study = NominalStudy::new(
//!     TechnologyNode::target_14nm(),
//!     &learning.database,
//!     NominalStudyConfig::default(),
//! )?;
//! let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
//! let arc = TimingArc::new(cell, 0, Transition::Fall);
//! let result = study.run(cell, &arc, TimingMetric::Delay)?;
//! println!("{}", result.to_markdown());
//! # Ok(())
//! # }
//! ```

pub mod cost;
pub mod historical;
pub mod liberty;
pub mod nominal;
pub mod report;
pub mod statistical;

/// One-stop re-exports of the workspace API.
pub mod prelude {
    pub use slic_bayes::{
        HistoricalDatabase, HistoricalRecord, MapExtractor, ParameterPrior, PrecisionConfig,
        PrecisionModel, PriorBuilder, TimingMetric,
    };
    pub use slic_cells::{
        Cell, CellKind, DriveStrength, EquivalentInverter, Library, TimingArc, Transition,
    };
    pub use slic_device::{
        DeviceParams, Mosfet, Polarity, ProcessSample, ProcessVariation, TechnologyNode,
    };
    pub use slic_lut::{grid_levels_for_budget, Lut3d, LutBuilder, NominalLut, StatisticalLut};
    pub use slic_spice::{
        CharacterizationEngine, InputPoint, InputSpace, TimingMeasurement, TransientConfig,
    };
    pub use slic_stats::{KernelDensity, MultivariateGaussian, Summary};
    pub use slic_timing_model::{
        ExtendedTimingParams, FitConfig, FitResult, GaussianPenalty, LeastSquaresFitter,
        TimingParams, TimingSample,
    };
    pub use slic_units::{Amperes, Celsius, Coulombs, Farads, Seconds, Volts};
}

pub use cost::CostModel;
pub use historical::{HistoricalLearner, HistoricalLearningConfig, HistoricalLearningResult};
pub use nominal::{MethodKind, NominalStudy, NominalStudyConfig, NominalStudyResult};
pub use statistical::{
    DelayPdfComparison, StatisticalStudy, StatisticalStudyConfig, StatisticalStudyResult,
};
