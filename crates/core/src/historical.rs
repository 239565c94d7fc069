//! Historical learning: characterize old technologies once, archive the compact-model fits.
//!
//! This is the left-hand loop of Fig. 4 in the paper: for every historical technology,
//! every cell and every primary timing arc, a reference grid of input conditions is
//! simulated, the compact model is extracted by least squares, and the extracted parameters
//! plus the per-condition relative residuals are archived in a [`HistoricalDatabase`].
//! The database is all the Bayesian flow ever needs from the old nodes — the expensive
//! simulations are never repeated.

use serde::{Deserialize, Serialize};
use slic_bayes::{ConditionResidual, HistoricalDatabase, HistoricalRecord, TimingMetric};
use slic_cells::Library;
use slic_device::{ProcessSample, TechnologyNode};
use slic_spice::{CharacterizationEngine, ConfigError, MixedLane, TransientConfig};
use slic_timing_model::{LeastSquaresFitter, TimingSample};

/// Configuration of the historical learning pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistoricalLearningConfig {
    /// Reference grid shape `(Sin levels, Cload levels, Vdd levels)` simulated per arc.
    pub grid_levels: (usize, usize, usize),
    /// Transient solver settings used for the historical simulations.
    pub transient: TransientConfig,
}

impl Default for HistoricalLearningConfig {
    fn default() -> Self {
        Self {
            grid_levels: (4, 4, 3),
            transient: TransientConfig::fast(),
        }
    }
}

/// The outcome of a historical learning pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoricalLearningResult {
    /// The archived fits, ready to feed prior and precision learning.
    pub database: HistoricalDatabase,
    /// Total number of transient simulations spent across all historical technologies
    /// (the `NTech · NLUT` term of the paper's cost model).
    pub simulation_cost: u64,
}

/// Runs the historical learning pass.
#[derive(Debug, Clone, Default)]
pub struct HistoricalLearner {
    config: HistoricalLearningConfig,
}

impl HistoricalLearner {
    /// Creates a learner with the given configuration.
    pub fn new(config: HistoricalLearningConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HistoricalLearningConfig {
        &self.config
    }

    /// Characterizes every (technology, cell, primary arc, metric) combination and archives
    /// the fits, on a fresh engine with this learner's transient settings.
    ///
    /// # Errors
    ///
    /// Returns the engine's [`ConfigError`] when the configured transient settings are
    /// invalid.
    ///
    /// # Panics
    ///
    /// Panics if the library is empty.
    pub fn learn(
        &self,
        technologies: &[TechnologyNode],
        library: &Library,
    ) -> Result<HistoricalLearningResult, ConfigError> {
        let Some(first) = technologies.first() else {
            assert!(!library.is_empty(), "cannot learn from an empty library");
            return Ok(HistoricalLearningResult {
                database: HistoricalDatabase::new(),
                simulation_cost: 0,
            });
        };
        let engine = CharacterizationEngine::with_config(first.clone(), self.config.transient)?;
        Ok(self.learn_with_engine(&engine, technologies, library))
    }

    /// As [`learn`](Self::learn), but through `engine` rebound to each historical node in
    /// turn: every solve goes through its counter, cache, backend, dispatch counters and
    /// observability, so a pipeline's learning stage is paid, cached, distributed and
    /// traced exactly like its characterization stage.  The engine's transient settings
    /// apply; this learner's own only configure the fresh engine of [`learn`](Self::learn).
    ///
    /// # Panics
    ///
    /// Panics if the library is empty.
    pub fn learn_with_engine(
        &self,
        engine: &CharacterizationEngine,
        technologies: &[TechnologyNode],
        library: &Library,
    ) -> HistoricalLearningResult {
        assert!(!library.is_empty(), "cannot learn from an empty library");
        let mut database = HistoricalDatabase::new();
        let mut simulation_cost = 0u64;
        for tech in technologies {
            let engine = engine.clone().with_technology(tech.clone());
            let counter = engine.counter();
            let cost_before = counter.count();
            let grid = engine.input_space().lut_grid(
                self.config.grid_levels.0,
                self.config.grid_levels.1,
                self.config.grid_levels.2,
            );
            // One mega-batch of every (arc, grid point) lane at the nominal corner:
            // training a whole node costs one mixed worklist instead of one sweep per
            // arc, so backend calls stay full across arcs.
            let nominal = ProcessSample::nominal();
            let arcs = library.primary_arcs();
            let lanes: Vec<MixedLane> = arcs
                .iter()
                .flat_map(|&arc| grid.iter().map(move |p| (arc, *p, nominal)))
                .collect();
            // One transient run per grid point yields both delay and slew.
            let flat = engine.simulate_mixed(&lanes);
            for (arc, measurements) in arcs.iter().zip(flat.chunks(grid.len().max(1))) {
                let ieffs: Vec<_> = grid.iter().map(|p| engine.ieff(arc, p, &nominal)).collect();
                for metric in TimingMetric::BOTH {
                    let samples: Vec<TimingSample> = grid
                        .iter()
                        .zip(measurements)
                        .zip(&ieffs)
                        .map(|((point, m), ieff)| TimingSample::new(*point, *ieff, metric.of(m)))
                        .collect();
                    let fit = LeastSquaresFitter::new().fit(&samples);
                    let residuals: Vec<ConditionResidual> = samples
                        .iter()
                        .map(|s| ConditionResidual {
                            point: s.point,
                            relative_residual: fit.params.relative_error(s),
                        })
                        .collect();
                    database.push(HistoricalRecord::new(
                        tech.name(),
                        tech.node_nm(),
                        arc.cell().name(),
                        arc.id(),
                        metric,
                        fit.params,
                        fit.params.mean_relative_error_percent(&samples),
                        residuals,
                    ));
                }
            }
            simulation_cost += counter.count() - cost_before;
        }
        HistoricalLearningResult {
            database,
            simulation_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slic_bayes::PriorBuilder;
    use slic_cells::{Cell, CellKind, DriveStrength};

    fn tiny_config() -> HistoricalLearningConfig {
        HistoricalLearningConfig {
            grid_levels: (3, 3, 2),
            transient: TransientConfig::fast(),
        }
    }

    fn two_node_suite() -> Vec<TechnologyNode> {
        vec![TechnologyNode::n28_bulk(), TechnologyNode::n14_finfet()]
    }

    #[test]
    fn learning_produces_records_for_every_combination() {
        let library = Library::new(
            "mini",
            [
                Cell::new(CellKind::Inv, DriveStrength::X1),
                Cell::new(CellKind::Nand2, DriveStrength::X1),
            ],
        );
        let result = HistoricalLearner::new(tiny_config())
            .learn(&two_node_suite(), &library)
            .expect("valid transient settings");
        // 2 techs x 2 cells x 2 arcs x 2 metrics = 16 records.
        assert_eq!(result.database.len(), 16);
        // 2 techs x 2 cells x 2 arcs x 18 grid points = 144 simulations.
        assert_eq!(result.simulation_cost, 144);
        assert_eq!(result.database.technology_names().len(), 2);
    }

    #[test]
    fn historical_fits_are_accurate_and_physical() {
        let library = Library::new("inv-only", [Cell::new(CellKind::Inv, DriveStrength::X1)]);
        let result = HistoricalLearner::new(tiny_config())
            .learn(&two_node_suite(), &library)
            .expect("valid transient settings");
        for record in result.database.records() {
            assert!(
                record.fit_error_percent < 6.0,
                "{} {} {}: {}%",
                record.tech_name,
                record.arc_id,
                record.metric,
                record.fit_error_percent
            );
            assert!(record.params.kd > 0.0);
            assert!(record.params.cpar > -1.0);
            assert!(record.residuals.len() == 18);
        }
    }

    #[test]
    fn learned_database_supports_prior_building() {
        let library = Library::paper_trio();
        let result = HistoricalLearner::new(tiny_config())
            .learn(&two_node_suite(), &library)
            .expect("valid transient settings");
        let prior = PriorBuilder::new()
            .build(&result.database, TimingMetric::Delay, Some("NOR2"))
            .unwrap();
        let mean = prior.mean_params();
        // Delay parameters land in the physically expected region (Table I ballpark).
        assert!(mean.kd > 0.05 && mean.kd < 2.0, "kd = {}", mean.kd);
        assert!(
            mean.v_prime > -0.6 && mean.v_prime < 0.3,
            "v' = {}",
            mean.v_prime
        );
    }

    #[test]
    #[should_panic(expected = "empty library")]
    fn empty_library_rejected() {
        let _ = HistoricalLearner::new(tiny_config())
            .learn(&two_node_suite(), &Library::new("empty", []));
    }
}
