//! The statistical characterization study (Figs. 7, 8 and 9 of the paper).
//!
//! Statistical characterization asks for the *distribution* of delay and output slew at
//! every input condition under process variation.  The baseline answer simulates every
//! condition under every Monte Carlo seed; the proposed flow simulates only `k` conditions
//! per seed, extracts the compact-model parameters `P_T^{(j)}, P_S^{(j)}` per seed by MAP,
//! and reconstructs the distribution at *any* condition by evaluating the model over the
//! per-seed parameter sets — `O(k·Nsample)` instead of `O(NLUT·Nsample)` simulations.
//!
//! ```no_run
//! use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
//! use slic::nominal::MethodKind;
//! use slic::prelude::*;
//! use slic::statistical::{StatisticalStudy, StatisticalStudyConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let learning = HistoricalLearner::new(HistoricalLearningConfig::default())
//!     .learn(&TechnologyNode::historical_suite(), &Library::paper_trio())?;
//! let study = StatisticalStudy::new(
//!     TechnologyNode::target_28nm(),
//!     &learning.database,
//!     StatisticalStudyConfig::quick(),
//! )?;
//! let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
//! let arc = TimingArc::new(cell, 0, Transition::Fall);
//! let result = study.run(cell, &arc)?;
//! let bayes = result.curves_for(MethodKind::ProposedBayesian).ok_or("no Bayesian curves")?;
//! println!("E(mu_Td) at k = 3: {:.2} %", bayes.mean_delay_error[0]);
//! # Ok(())
//! # }
//! ```

use crate::nominal::{MethodCurve, MethodKind};
use crate::report::markdown_table;
use serde::{Deserialize, Serialize};
use slic_bayes::{HistoricalDatabase, MapExtractor, PriorError, TimingMetric};
use slic_cells::{Cell, TimingArc};
use slic_device::{ProcessSample, TechnologyNode};
use slic_lut::LutBuilder;
use slic_spice::{CharacterizationEngine, ConfigError, InputPoint, TransientConfig};
use slic_stats::distance::mean_relative_error_percent;
use slic_stats::moments;
use slic_timing_model::{LeastSquaresFitter, TimingParams, TimingSample};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the statistical study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatisticalStudyConfig {
    /// Number of random validation input conditions (1000 in the paper).
    pub validation_points: usize,
    /// Number of Monte Carlo process seeds (1000 in the paper).
    pub process_seeds: usize,
    /// Training condition counts to sweep.
    pub training_counts: Vec<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Transient solver settings.
    pub transient: TransientConfig,
}

impl Default for StatisticalStudyConfig {
    fn default() -> Self {
        Self {
            validation_points: 200,
            process_seeds: 300,
            training_counts: vec![1, 2, 3, 5, 10, 20, 50],
            seed: 20150313,
            transient: TransientConfig::fast(),
        }
    }
}

impl StatisticalStudyConfig {
    /// A heavily reduced configuration for unit tests.
    pub fn quick() -> Self {
        Self {
            validation_points: 20,
            process_seeds: 30,
            training_counts: vec![3, 8],
            ..Self::default()
        }
    }
}

/// Error curves of one method for the four statistical metrics of Eqs. (16)–(19).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatMethodCurves {
    /// The method.
    pub method: MethodKind,
    /// Training condition counts.
    pub training_counts: Vec<usize>,
    /// Error of the delay mean, percent.
    pub mean_delay_error: Vec<f64>,
    /// Error of the delay standard deviation, percent.
    pub std_delay_error: Vec<f64>,
    /// Error of the slew mean, percent.
    pub mean_slew_error: Vec<f64>,
    /// Error of the slew standard deviation, percent.
    pub std_slew_error: Vec<f64>,
    /// Transient simulations spent per training count.
    pub simulations: Vec<u64>,
}

impl StatMethodCurves {
    /// Appends one training count's four errors (Eqs. 16–19, in [`StatMetric::ALL`] order)
    /// and its simulation cost.
    fn push(&mut self, errors: (f64, f64, f64, f64), simulations: u64) {
        self.mean_delay_error.push(errors.0);
        self.std_delay_error.push(errors.1);
        self.mean_slew_error.push(errors.2);
        self.std_slew_error.push(errors.3);
        self.simulations.push(simulations);
    }

    /// Extracts one of the four statistical error curves as a plain [`MethodCurve`] so the
    /// nominal study's [`Reduction`](crate::nominal::Reduction) can read it.
    pub fn as_method_curve(&self, which: StatMetric) -> MethodCurve {
        let errors = match which {
            StatMetric::MeanDelay => &self.mean_delay_error,
            StatMetric::StdDelay => &self.std_delay_error,
            StatMetric::MeanSlew => &self.mean_slew_error,
            StatMetric::StdSlew => &self.std_slew_error,
        };
        MethodCurve {
            method: self.method,
            training_counts: self.training_counts.clone(),
            errors_percent: errors.clone(),
            simulations: self.simulations.clone(),
        }
    }
}

/// Which of the four statistical error metrics (Eqs. 16–19) to look at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StatMetric {
    /// `E(µ_Td)`.
    MeanDelay,
    /// `E(σ_Td)`.
    StdDelay,
    /// `E(µ_Sout)`.
    MeanSlew,
    /// `E(σ_Sout)`.
    StdSlew,
}

impl StatMetric {
    /// All four metrics in the order the paper plots them.
    pub const ALL: [StatMetric; 4] = [
        StatMetric::MeanDelay,
        StatMetric::StdDelay,
        StatMetric::MeanSlew,
        StatMetric::StdSlew,
    ];
}

/// Result of the statistical study for one arc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatisticalStudyResult {
    /// Per-method error curves.
    pub curves: Vec<StatMethodCurves>,
    /// Simulations spent on the Monte Carlo baseline.
    pub baseline_simulations: u64,
    /// Number of process seeds used.
    pub process_seeds: usize,
}

impl StatisticalStudyResult {
    /// The curves of one method (`None` if the method was not part of the study; a study
    /// run always has all three).
    pub fn curves_for(&self, method: MethodKind) -> Option<&StatMethodCurves> {
        self.curves.iter().find(|c| c.method == method)
    }

    /// Renders one statistical metric's error table as Markdown.
    pub fn to_markdown(&self, metric: StatMetric) -> String {
        let counts = &self.curves[0].training_counts;
        let mut headers = vec!["training samples".to_string()];
        headers.extend(self.curves.iter().map(|c| format!("{} (%)", c.method)));
        let rows: Vec<Vec<String>> = counts
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let mut row = vec![k.to_string()];
                row.extend(
                    self.curves
                        .iter()
                        .map(|c| format!("{:.2}", c.as_method_curve(metric).errors_percent[i])),
                );
                row
            })
            .collect();
        markdown_table(&headers, &rows)
    }
}

/// The Fig. 9 comparison: delay samples across process seeds at one input condition, as
/// produced by the baseline, the proposed method and a per-seed LUT interpolation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayPdfComparison {
    /// The input condition the densities are evaluated at.
    pub point: InputPoint,
    /// Baseline Monte Carlo delays, one per seed (seconds).
    pub baseline: Vec<f64>,
    /// Proposed-method delays reconstructed from the per-seed MAP parameters (seconds).
    pub proposed: Vec<f64>,
    /// LUT-interpolated delays, one per seed (seconds).
    pub lut: Vec<f64>,
    /// Number of training conditions the proposed method used.
    pub proposed_training_conditions: usize,
    /// Number of grid conditions the LUT used.
    pub lut_training_conditions: usize,
}

impl DelayPdfComparison {
    /// Mean absolute relative error of the proposed method's delay samples against the
    /// baseline (seed-by-seed), in percent.
    pub fn proposed_error_percent(&self) -> f64 {
        mean_relative_error_percent(&self.proposed, &self.baseline)
    }

    /// Mean absolute relative error of the LUT delay samples against the baseline, percent.
    pub fn lut_error_percent(&self) -> f64 {
        mean_relative_error_percent(&self.lut, &self.baseline)
    }

    /// Skewness of the baseline delay distribution (the Fig. 9 non-Gaussianity indicator).
    pub fn baseline_skewness(&self) -> f64 {
        moments::skewness(&self.baseline)
    }
}

/// The statistical characterization study runner.
#[derive(Debug, Clone)]
pub struct StatisticalStudy<'a> {
    engine: CharacterizationEngine,
    database: &'a HistoricalDatabase,
    config: StatisticalStudyConfig,
}

impl<'a> StatisticalStudy<'a> {
    /// Creates a study of `target` using the archived historical fits.
    ///
    /// # Errors
    ///
    /// Returns the engine's [`ConfigError`] when `config.transient` fails validation.
    pub fn new(
        target: TechnologyNode,
        database: &'a HistoricalDatabase,
        config: StatisticalStudyConfig,
    ) -> Result<Self, ConfigError> {
        Ok(Self {
            engine: CharacterizationEngine::with_config(target, config.transient)?,
            database,
            config,
        })
    }

    /// The engine bound to the target technology.
    pub fn engine(&self) -> &CharacterizationEngine {
        &self.engine
    }

    /// The configuration in use.
    pub fn config(&self) -> &StatisticalStudyConfig {
        &self.config
    }

    /// The delay and output-slew MAP extractors for `cell`'s kind.
    fn learn_extractors(&self, cell: Cell) -> Result<[MapExtractor; 2], PriorError> {
        let space = self.engine.input_space();
        let learn = |metric| MapExtractor::learn(self.database, metric, cell.kind().name(), &space);
        Ok([
            learn(TimingMetric::Delay)?,
            learn(TimingMetric::OutputSlew)?,
        ])
    }

    /// Per-seed parameter extraction for both metrics at the given training conditions.
    ///
    /// Returns `(delay params, slew params, simulations spent)`.  With the (delay, slew)
    /// `extractors` every seed is fitted by MAP; with `None` by plain least squares, the
    /// "Proposed Model + LSE" variant.
    fn extract_per_seed(
        &self,
        cell: Cell,
        arc: &TimingArc,
        training_points: &[InputPoint],
        seeds: &[ProcessSample],
        extractors: Option<&[MapExtractor; 2]>,
    ) -> (Vec<TimingParams>, Vec<TimingParams>, u64) {
        let fitter = LeastSquaresFitter::new();
        let before = self.engine.simulation_count();
        let mut params = [
            Vec::with_capacity(seeds.len()),
            Vec::with_capacity(seeds.len()),
        ];
        // One cross-seed mega-batch instead of one sweep per seed: every
        // (training point, seed) lane enters the kernel as a single worklist, so the
        // SIMD dispatcher sees full quads even when the training grid is tiny.
        let by_point = self
            .engine
            .monte_carlo_sweep(cell, arc, training_points, seeds);
        for (s, seed) in seeds.iter().enumerate() {
            let ieffs: Vec<_> = training_points
                .iter()
                .map(|p| self.engine.ieff(arc, p, seed))
                .collect();
            for (i, metric) in TimingMetric::BOTH.into_iter().enumerate() {
                let samples: Vec<TimingSample> = training_points
                    .iter()
                    .zip(&by_point)
                    .zip(&ieffs)
                    .map(|((p, row), ieff)| TimingSample::new(*p, *ieff, metric.of(&row[s])))
                    .collect();
                params[i].push(match extractors {
                    Some(extractors) => extractors[i].extract(&samples).params,
                    None => fitter.fit(&samples).params,
                });
            }
        }
        let cost = self.engine.simulation_count() - before;
        let [delay_params, slew_params] = params;
        (delay_params, slew_params, cost)
    }

    /// Runs the full statistical study for one arc, comparing the proposed Bayesian flow,
    /// the proposed-LSE variant and the statistical LUT.
    ///
    /// # Errors
    ///
    /// Returns the [`PriorError`] of [`MapExtractor::learn`] when the database holds no
    /// records of delay or output slew; nothing is simulated then.
    pub fn run(&self, cell: Cell, arc: &TimingArc) -> Result<StatisticalStudyResult, PriorError> {
        let extractors = self.learn_extractors(cell)?;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let space = self.engine.input_space();
        let seeds = self
            .engine
            .tech()
            .variation()
            .sample_n(&mut rng, self.config.process_seeds);
        let validation = space.sample_uniform(&mut rng, self.config.validation_points);

        // Monte Carlo baseline: every validation point under every seed.
        let before = self.engine.simulation_count();
        let baseline_grid = self
            .engine
            .monte_carlo_sweep(cell, arc, &validation, &seeds);
        let baseline_simulations = self.engine.simulation_count() - before;
        let baseline_mean_delay: Vec<f64> = baseline_grid
            .iter()
            .map(|row| moments::mean(&row.iter().map(|m| m.delay.value()).collect::<Vec<_>>()))
            .collect();
        let baseline_std_delay: Vec<f64> = baseline_grid
            .iter()
            .map(|row| moments::std_dev(&row.iter().map(|m| m.delay.value()).collect::<Vec<_>>()))
            .collect();
        let baseline_mean_slew: Vec<f64> = baseline_grid
            .iter()
            .map(|row| {
                moments::mean(
                    &row.iter()
                        .map(|m| m.output_slew.value())
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let baseline_std_slew: Vec<f64> = baseline_grid
            .iter()
            .map(|row| {
                moments::std_dev(
                    &row.iter()
                        .map(|m| m.output_slew.value())
                        .collect::<Vec<_>>(),
                )
            })
            .collect();

        // Per-seed effective currents at the validation points are needed to evaluate the
        // model; they are DC evaluations, not transient simulations.
        let validation_ieffs_per_seed: Vec<Vec<f64>> = seeds
            .iter()
            .map(|seed| {
                validation
                    .iter()
                    .map(|p| self.engine.ieff(arc, p, seed).value())
                    .collect()
            })
            .collect();

        let mut curves = MethodKind::ALL.map(|method| StatMethodCurves {
            method,
            training_counts: self.config.training_counts.clone(),
            mean_delay_error: Vec::new(),
            std_delay_error: Vec::new(),
            mean_slew_error: Vec::new(),
            std_slew_error: Vec::new(),
            simulations: Vec::new(),
        });

        let lut_builder = LutBuilder::new(&self.engine);

        for &k in &self.config.training_counts {
            let mut training_rng =
                StdRng::seed_from_u64(self.config.seed ^ (k as u64).wrapping_mul(0x9E37_79B9));
            let training_points = space.sample_latin_hypercube(&mut training_rng, k);
            let [bayes, lse, lut_curve] = &mut curves;

            for (curve, extractors) in [(bayes, Some(&extractors)), (lse, None)] {
                let (delay_params, slew_params, cost) =
                    self.extract_per_seed(cell, arc, &training_points, &seeds, extractors);
                let errors = self.model_moment_errors(
                    &validation,
                    &validation_ieffs_per_seed,
                    &delay_params,
                    &slew_params,
                    (
                        &baseline_mean_delay,
                        &baseline_std_delay,
                        &baseline_mean_slew,
                        &baseline_std_slew,
                    ),
                );
                curve.push(errors, cost);
            }

            // Statistical LUT with the same number of training conditions.
            let before = self.engine.simulation_count();
            let lut = lut_builder.build_statistical_with_budget(cell, arc, k, &seeds);
            let lut_cost = self.engine.simulation_count() - before;
            let mut pred = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for p in &validation {
                let (md, sd, ms, ss) = lut.predict(p);
                pred.0.push(md);
                pred.1.push(sd);
                pred.2.push(ms);
                pred.3.push(ss);
            }
            lut_curve.push(
                (
                    mean_relative_error_percent(&pred.0, &baseline_mean_delay),
                    mean_relative_error_percent(&pred.1, &baseline_std_delay),
                    mean_relative_error_percent(&pred.2, &baseline_mean_slew),
                    mean_relative_error_percent(&pred.3, &baseline_std_slew),
                ),
                lut_cost,
            );
        }

        Ok(StatisticalStudyResult {
            curves: curves.into(),
            baseline_simulations,
            process_seeds: seeds.len(),
        })
    }

    /// Computes Eqs. (16)–(19) (expressed as relative errors in percent) for a model-based
    /// method described by its per-seed parameters.
    fn model_moment_errors(
        &self,
        validation: &[InputPoint],
        ieffs_per_seed: &[Vec<f64>],
        delay_params: &[TimingParams],
        slew_params: &[TimingParams],
        baseline: (&[f64], &[f64], &[f64], &[f64]),
    ) -> (f64, f64, f64, f64) {
        let mut mean_delay = Vec::with_capacity(validation.len());
        let mut std_delay = Vec::with_capacity(validation.len());
        let mut mean_slew = Vec::with_capacity(validation.len());
        let mut std_slew = Vec::with_capacity(validation.len());
        for (i, point) in validation.iter().enumerate() {
            let delays: Vec<f64> = delay_params
                .iter()
                .enumerate()
                .map(|(j, p)| {
                    p.evaluate(point, slic_units::Amperes(ieffs_per_seed[j][i]))
                        .value()
                })
                .collect();
            let slews: Vec<f64> = slew_params
                .iter()
                .enumerate()
                .map(|(j, p)| {
                    p.evaluate(point, slic_units::Amperes(ieffs_per_seed[j][i]))
                        .value()
                })
                .collect();
            mean_delay.push(moments::mean(&delays));
            std_delay.push(moments::std_dev(&delays));
            mean_slew.push(moments::mean(&slews));
            std_slew.push(moments::std_dev(&slews));
        }
        (
            mean_relative_error_percent(&mean_delay, baseline.0),
            mean_relative_error_percent(&std_delay, baseline.1),
            mean_relative_error_percent(&mean_slew, baseline.2),
            mean_relative_error_percent(&std_slew, baseline.3),
        )
    }

    /// Reproduces Fig. 9: the delay distribution at one input condition as seen by the
    /// baseline, the proposed method (with `proposed_k` training conditions) and a per-seed
    /// LUT interpolation (with `lut_budget` grid conditions).
    ///
    /// # Errors
    ///
    /// Returns the [`PriorError`] of [`MapExtractor::learn`] when the database holds no
    /// records of delay or output slew; nothing is simulated then.
    pub fn delay_pdf(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: InputPoint,
        proposed_k: usize,
        lut_budget: usize,
    ) -> Result<DelayPdfComparison, PriorError> {
        let extractors = self.learn_extractors(cell)?;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(9));
        let seeds = self
            .engine
            .tech()
            .variation()
            .sample_n(&mut rng, self.config.process_seeds);
        let space = self.engine.input_space();

        // Baseline Monte Carlo at the probe point.
        let baseline: Vec<f64> = self
            .engine
            .monte_carlo(cell, arc, &point, &seeds)
            .iter()
            .map(|m| m.delay.value())
            .collect();

        // Proposed: per-seed MAP extraction from `proposed_k` conditions.
        let training_points = space.sample_latin_hypercube(&mut rng, proposed_k);
        let (delay_params, _slew_params, _) =
            self.extract_per_seed(cell, arc, &training_points, &seeds, Some(&extractors));
        let proposed: Vec<f64> = delay_params
            .iter()
            .zip(&seeds)
            .map(|(p, seed)| {
                p.evaluate(&point, self.engine.ieff(arc, &point, seed))
                    .value()
            })
            .collect();

        // LUT: a per-seed nominal grid of `lut_budget` conditions, interpolated at the probe.
        let levels = slic_lut::grid_levels_for_budget(lut_budget);
        let lut: Vec<f64> = seeds
            .iter()
            .map(|seed| {
                let grid = space.lut_grid(levels.0, levels.1, levels.2);
                let measurements = self.engine.sweep(cell, arc, &grid, seed);
                let delays: Vec<f64> = measurements.iter().map(|m| m.delay.value()).collect();
                let table = slic_lut::Lut3d::from_values(
                    grid.iter()
                        .map(|p| p.sin.value())
                        .collect::<Vec<_>>()
                        .into_iter()
                        .fold(Vec::new(), dedup_push),
                    grid.iter()
                        .map(|p| p.cload.value())
                        .collect::<Vec<_>>()
                        .into_iter()
                        .fold(Vec::new(), dedup_push),
                    grid.iter()
                        .map(|p| p.vdd.value())
                        .collect::<Vec<_>>()
                        .into_iter()
                        .fold(Vec::new(), dedup_push),
                    delays,
                );
                table.interpolate(&point)
            })
            .collect();

        Ok(DelayPdfComparison {
            point,
            baseline,
            proposed,
            lut,
            proposed_training_conditions: proposed_k,
            lut_training_conditions: levels.0 * levels.1 * levels.2,
        })
    }
}

/// Accumulates sorted unique axis values (the LUT grid enumerates the axes in row-major
/// order, so duplicates are adjacent after sorting).
fn dedup_push(mut acc: Vec<f64>, value: f64) -> Vec<f64> {
    if !acc.iter().any(|v| (*v - value).abs() < 1e-18) {
        acc.push(value);
        acc.sort_by(f64::total_cmp);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::historical::{HistoricalLearner, HistoricalLearningConfig};
    use slic_cells::{CellKind, DriveStrength, Library, Transition};
    use slic_units::{Farads, Seconds, Volts};

    fn learned_database() -> HistoricalDatabase {
        let config = HistoricalLearningConfig {
            grid_levels: (3, 3, 2),
            transient: TransientConfig::fast(),
        };
        HistoricalLearner::new(config)
            .learn(
                &[TechnologyNode::n28_bulk(), TechnologyNode::n20_bulk()],
                &Library::paper_trio(),
            )
            .expect("valid transient settings")
            .database
    }

    #[test]
    fn statistical_study_produces_consistent_curves() {
        let db = learned_database();
        let study = StatisticalStudy::new(
            TechnologyNode::target_28nm(),
            &db,
            StatisticalStudyConfig::quick(),
        )
        .expect("valid config");
        let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let result = study.run(cell, &arc).expect("prior");

        assert_eq!(result.curves.len(), 3);
        assert_eq!(result.process_seeds, 30);
        assert_eq!(result.baseline_simulations, 20 * 30);
        for curve in &result.curves {
            assert_eq!(curve.mean_delay_error.len(), 2);
            for metric in StatMetric::ALL {
                let mc = curve.as_method_curve(metric);
                assert!(mc.errors_percent.iter().all(|e| e.is_finite() && *e >= 0.0));
            }
        }
        // Mean-delay reconstruction by the Bayesian method must be accurate even at k = 3.
        let bayes = result.curves_for(MethodKind::ProposedBayesian).unwrap();
        assert!(
            bayes.mean_delay_error[0] < 12.0,
            "mean-delay error = {}",
            bayes.mean_delay_error[0]
        );
        // And it must beat the 3-condition statistical LUT on mean delay.
        let lut = result.curves_for(MethodKind::Lut).unwrap();
        assert!(bayes.mean_delay_error[0] < lut.mean_delay_error[0]);
        let table = result.to_markdown(StatMetric::MeanDelay);
        assert!(table.contains("Lookup Table"));
    }

    #[test]
    fn delay_pdf_reproduces_baseline_distribution() {
        let db = learned_database();
        let mut config = StatisticalStudyConfig::quick();
        config.process_seeds = 40;
        let study = StatisticalStudy::new(TechnologyNode::target_28nm(), &db, config)
            .expect("valid config");
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let point = InputPoint::new(
            Seconds::from_picoseconds(5.09),
            Farads::from_femtofarads(1.67),
            Volts(0.734),
        );
        let pdf = study.delay_pdf(cell, &arc, point, 7, 12).expect("prior");
        assert_eq!(pdf.baseline.len(), 40);
        assert_eq!(pdf.proposed.len(), 40);
        assert_eq!(pdf.lut.len(), 40);
        assert_eq!(pdf.proposed_training_conditions, 7);
        assert!(pdf.lut_training_conditions <= 12);
        // The proposed reconstruction tracks the baseline seed by seed.
        assert!(
            pdf.proposed_error_percent() < 15.0,
            "proposed error = {}",
            pdf.proposed_error_percent()
        );
        // Both reconstructions are positive delays of comparable magnitude.
        let base_mean = moments::mean(&pdf.baseline);
        let prop_mean = moments::mean(&pdf.proposed);
        assert!((prop_mean - base_mean).abs() / base_mean < 0.15);
        assert!(pdf.lut.iter().all(|d| *d > 0.0));
    }

    #[test]
    fn a_metric_without_records_is_an_error_before_any_simulation() {
        // Delay records only: the output-slew prior cannot be learned.
        let mut db = HistoricalDatabase::new();
        db.push(slic_bayes::HistoricalRecord::new(
            "n28",
            28,
            "NAND2_X1",
            "NAND2_X1/A0/FALL",
            TimingMetric::Delay,
            TimingParams::new(0.37, 1.33, -0.27, 0.03),
            1.0,
            Vec::new(),
        ));
        let study = StatisticalStudy::new(
            TechnologyNode::target_28nm(),
            &db,
            StatisticalStudyConfig::quick(),
        )
        .expect("valid config");
        let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let err = study.run(cell, &arc).expect_err("no slew records");
        assert!(matches!(
            err,
            PriorError::NoMatchingRecords {
                metric: TimingMetric::OutputSlew,
                ..
            }
        ));
        let point = InputPoint::new(
            Seconds::from_picoseconds(5.09),
            Farads::from_femtofarads(1.67),
            Volts(0.734),
        );
        assert!(matches!(
            study.delay_pdf(cell, &arc, point, 7, 12),
            Err(PriorError::NoMatchingRecords { .. })
        ));
        assert_eq!(study.engine().simulation_count(), 0);
    }
}
