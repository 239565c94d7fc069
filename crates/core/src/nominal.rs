//! The nominal characterization study (Fig. 6 of the paper).
//!
//! For a cell arc in the *target* technology, three methods are compared as a function of
//! the number of training simulations `k`:
//!
//! * **Proposed model + Bayesian inference** — `k` Latin-hypercube conditions are simulated,
//!   the compact model is extracted by MAP with the historically learned prior and
//!   precisions, and timing everywhere else is predicted by the model;
//! * **Proposed model + LSE** — the same `k` conditions, plain least squares, no prior;
//! * **Lookup table** — the `k` simulations are spent on a characterization grid and timing
//!   elsewhere is interpolated.
//!
//! Accuracy is measured against a dense random-validation baseline (the paper uses 1000
//! points).  From the resulting error-vs-`k` curves, [`Reduction`] reads the paper's
//! reduction against the lookup table off each curve's best-so-far error: how many times
//! fewer simulations a method needs than the LUT to reach a given accuracy.
//!
//! [`fit_and_validate`] is the one fit-and-score step: the study calls it per method and
//! training count, and every nominal `slic characterize` work unit calls it once, so the
//! curves measure the code the pipeline runs.
//!
//! ```no_run
//! use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
//! use slic::nominal::{MethodKind, NominalStudy, NominalStudyConfig};
//! use slic::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let learning = HistoricalLearner::new(HistoricalLearningConfig::default())
//!     .learn(&TechnologyNode::historical_suite(), &Library::paper_trio())?;
//! let study = NominalStudy::new(
//!     TechnologyNode::target_14nm(),
//!     &learning.database,
//!     NominalStudyConfig::quick(),
//! )?;
//! let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
//! let arc = TimingArc::new(cell, 0, Transition::Fall);
//! let result = study.run(&arc, TimingMetric::Delay)?;
//! let bayes = result.curve(MethodKind::ProposedBayesian).ok_or("no Bayesian curve")?;
//! println!("k = 2 error: {:.2} %", bayes.errors_percent[0]);
//! # Ok(())
//! # }
//! ```

use crate::report::markdown_table;
use serde::{Deserialize, Serialize};
use slic_bayes::{HistoricalDatabase, MapExtractor, PriorError, TimingMetric};
use slic_cells::TimingArc;
use slic_device::{ProcessSample, TechnologyNode};
use slic_lut::LutBuilder;
use slic_spice::{CharacterizationEngine, ConfigError, InputPoint, TransientConfig};
use slic_stats::distance::mean_relative_error_percent;
use slic_timing_model::{LeastSquaresFitter, TimingParams, TimingSample};
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The characterization method a result row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MethodKind {
    /// Compact model extracted by MAP with the historical prior ("Proposed Model + Bayesian
    /// Inference").
    ProposedBayesian,
    /// Compact model extracted by plain least squares ("Proposed Model + LSE").
    ProposedLse,
    /// Lookup-table characterization with interpolation.
    Lut,
}

impl MethodKind {
    /// All methods in presentation order.
    pub const ALL: [MethodKind; 3] = [
        MethodKind::ProposedBayesian,
        MethodKind::ProposedLse,
        MethodKind::Lut,
    ];
}

impl fmt::Display for MethodKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodKind::ProposedBayesian => f.write_str("Proposed Model + Bayesian Inference"),
            MethodKind::ProposedLse => f.write_str("Proposed Model + LSE"),
            MethodKind::Lut => f.write_str("Lookup Table"),
        }
    }
}

/// An error-vs-training-samples curve for one method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodCurve {
    /// The method this curve belongs to.
    pub method: MethodKind,
    /// Training sample counts (the x axis of Fig. 6).
    pub training_counts: Vec<usize>,
    /// Mean relative prediction error against the baseline, in percent, per count.
    pub errors_percent: Vec<f64>,
    /// Transient simulations spent per count.  In a nominal study that is the count itself
    /// for every method, since a LUT's grid for a budget of `k` always has exactly `k`
    /// points; a statistical curve spends it once per process seed.
    pub simulations: Vec<u64>,
}

impl MethodCurve {
    /// The lowest error at any training count (`None` for an empty curve).
    pub fn best_error(&self) -> Option<f64> {
        self.errors_percent.iter().copied().reduce(f64::min)
    }

    /// The training count at which the curve's best-so-far error (the running minimum
    /// over increasing `k`) first reaches `target_percent`, interpolated linearly in
    /// `log k` between the two grid points that bracket the target.  `None` if the curve
    /// never reaches it.
    pub fn reach(&self, target_percent: f64) -> Option<Reach> {
        let mut best = f64::INFINITY;
        // `(ln k, best-so-far error)` of the previous grid point, still above the target.
        let mut above: Option<(f64, f64)> = None;
        for (&k, &error) in self.training_counts.iter().zip(&self.errors_percent) {
            best = best.min(error);
            let ln_k = (k as f64).ln();
            if best <= target_percent {
                let conditions = match above {
                    None => k as f64,
                    Some((ln_before, before)) => {
                        let t = (before - target_percent) / (before - best);
                        (ln_before + t * (ln_k - ln_before)).exp()
                    }
                };
                return Some(Reach {
                    conditions,
                    at_first_point: above.is_none(),
                });
            }
            above = Some((ln_k, best));
        }
        None
    }
}

/// The accuracy the paper quotes for Fig. 6: about 4.3 % delay error from a prior plus two
/// fitting points.  The nominal reductions are read at this target.
pub const FIG6_TARGET_PERCENT: f64 = 4.3;

/// Where a curve reaches a target accuracy (see [`MethodCurve::reach`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reach {
    /// Training conditions `k` needed, interpolated between grid points.
    pub conditions: f64,
    /// The curve is already at or below the target at its smallest `k`, so it may need
    /// fewer conditions than `conditions`.
    pub at_first_point: bool,
}

/// A method's reduction in simulations against the lookup table at one target accuracy,
/// as the paper reports it: the conditions the LUT needs divided by the conditions the
/// method needs.  Both pay the same simulations per condition (one, or one per process
/// seed), so the ratio of conditions is the ratio of simulations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reduction {
    /// Where the method reaches the target (`None`: never within its grid).
    pub method: Option<Reach>,
    /// Where the lookup table reaches the target (`None`: never within its grid).
    pub lut: Option<Reach>,
}

impl Reduction {
    /// Compares `method` with `lut` at `target_percent`.
    pub fn at(target_percent: f64, method: &MethodCurve, lut: &MethodCurve) -> Self {
        Self {
            method: method.reach(target_percent),
            lut: lut.reach(target_percent),
        }
    }

    /// The LUT's conditions divided by the method's (`None` when either never reaches
    /// the target).
    pub fn factor(&self) -> Option<f64> {
        Some(self.lut?.conditions / self.method?.conditions)
    }

    /// The method reaches the target at its smallest `k`, so the factor is a lower bound.
    pub fn is_lower_bound(&self) -> bool {
        self.method.is_some_and(|m| m.at_first_point)
    }
}

/// Configuration of the nominal study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NominalStudyConfig {
    /// Number of random validation points that define the baseline (1000 in the paper).
    pub validation_points: usize,
    /// Training sample counts to sweep (the paper uses 1, 2, 3, 5, 10, 20, 50, 100).
    pub training_counts: Vec<usize>,
    /// RNG seed for validation and training-point sampling.
    pub seed: u64,
    /// Transient solver settings for both baseline and training simulations.
    pub transient: TransientConfig,
}

impl Default for NominalStudyConfig {
    fn default() -> Self {
        Self {
            validation_points: 1000,
            training_counts: vec![1, 2, 3, 5, 10, 20, 50, 100],
            seed: 20150313,
            transient: TransientConfig::fast(),
        }
    }
}

impl NominalStudyConfig {
    /// A reduced configuration for unit tests and quick demos.
    pub fn quick() -> Self {
        Self {
            validation_points: 60,
            training_counts: vec![2, 5, 20],
            ..Self::default()
        }
    }
}

/// The outcome of a nominal study for one (cell, arc, metric).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NominalStudyResult {
    /// The metric that was characterized.
    pub metric: TimingMetric,
    /// The error curves, one per method.
    pub curves: Vec<MethodCurve>,
    /// Simulations spent establishing the validation baseline.
    pub baseline_simulations: u64,
}

impl NominalStudyResult {
    /// The curve of one method (`None` if the method was not part of the study; a study
    /// run always has all three).
    pub fn curve(&self, method: MethodKind) -> Option<&MethodCurve> {
        self.curves.iter().find(|c| c.method == method)
    }

    /// Renders the error table as Markdown (rows = training counts, columns = methods).
    pub fn to_markdown(&self) -> String {
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
                        .map(|c| format!("{:.2}", c.errors_percent[i])),
                );
                row
            })
            .collect();
        markdown_table(&headers, &rows)
    }
}

/// How [`fit_and_validate`] builds a model of one arc and metric.
#[derive(Debug, Clone, Copy)]
pub enum Fit<'a> {
    /// MAP extraction with a learned prior and precisions from already-simulated training
    /// samples ("Proposed Model + Bayesian Inference").
    Map(&'a MapExtractor, &'a [TimingSample]),
    /// Plain least squares on already-simulated training samples ("Proposed Model + LSE").
    Lse(&'a [TimingSample]),
    /// A lookup table on a grid of this many conditions, simulated by the call.
    Lut(usize),
}

/// What [`fit_and_validate`] fitted and how well it predicts the validation samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidatedFit {
    /// The fitted compact-model parameters (`None` for a LUT, which has none).
    pub params: Option<TimingParams>,
    /// Mean relative prediction error against the validation samples, in percent.
    pub error_percent: f64,
}

/// Simulates `points` of `arc` at the nominal process corner and pairs each with its
/// effective current and its `metric` value: the samples a fit trains on or is scored
/// against.  The simulations go through `engine`'s counter and cache.
pub fn simulate_samples(
    engine: &CharacterizationEngine,
    arc: &TimingArc,
    metric: TimingMetric,
    points: &[InputPoint],
) -> Vec<TimingSample> {
    let nominal = ProcessSample::nominal();
    points
        .iter()
        .zip(engine.sweep_nominal(arc, points))
        .map(|(p, m)| TimingSample::new(*p, engine.ieff(arc, p, &nominal), metric.of(&m)))
        .collect()
}

/// Fits `fit` to one arc and metric and scores its predictions at the `validation`
/// samples.  Only a [`Fit::Lut`] simulates; the model fits take samples simulated by the
/// caller, so one training sweep can serve several fits.
pub fn fit_and_validate(
    engine: &CharacterizationEngine,
    arc: &TimingArc,
    metric: TimingMetric,
    fit: Fit<'_>,
    validation: &[TimingSample],
) -> ValidatedFit {
    let model = |params: TimingParams| {
        let predictions: Vec<f64> = validation
            .iter()
            .map(|s| params.evaluate(&s.point, s.ieff).value())
            .collect();
        (Some(params), predictions)
    };
    let (params, predictions) = match fit {
        Fit::Map(extractor, training) => model(extractor.extract(training).params),
        Fit::Lse(training) => model(LeastSquaresFitter::new().fit(training).params),
        Fit::Lut(budget) => {
            let lut = LutBuilder::new(engine).build_nominal_with_budget(arc, budget);
            let predictions = validation
                .iter()
                .map(|s| metric.of(&lut.predict(&s.point)).value())
                .collect();
            (None, predictions)
        }
    };
    let reference: Vec<f64> = validation.iter().map(|s| s.observed.value()).collect();
    ValidatedFit {
        params,
        error_percent: mean_relative_error_percent(&predictions, &reference),
    }
}

/// The nominal characterization study runner.
#[derive(Debug, Clone)]
pub struct NominalStudy<'a> {
    engine: CharacterizationEngine,
    database: &'a HistoricalDatabase,
    config: NominalStudyConfig,
}

impl<'a> NominalStudy<'a> {
    /// Creates a study of `target` using the archived `database` of historical fits.
    ///
    /// # Errors
    ///
    /// Returns the engine's [`ConfigError`] when `config.transient` fails validation.
    pub fn new(
        target: TechnologyNode,
        database: &'a HistoricalDatabase,
        config: NominalStudyConfig,
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
    pub fn config(&self) -> &NominalStudyConfig {
        &self.config
    }

    /// Runs the full study for one arc and metric: one validation sweep, then per training
    /// count `k` one shared training sweep for the MAP and LSE fits and a `k`-point LUT.
    ///
    /// # Errors
    ///
    /// Returns the [`PriorError`] of [`MapExtractor::learn`] when the database holds no
    /// records of `metric`; nothing is simulated then.
    pub fn run(
        &self,
        arc: &TimingArc,
        metric: TimingMetric,
    ) -> Result<NominalStudyResult, PriorError> {
        let space = self.engine.input_space();
        let extractor =
            MapExtractor::learn(self.database, metric, arc.cell().kind().name(), &space)?;
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Baseline: dense random validation set simulated directly.
        let validation_points = space.sample_uniform(&mut rng, self.config.validation_points);
        let before = self.engine.simulation_count();
        let validation = simulate_samples(&self.engine, arc, metric, &validation_points);
        let baseline_simulations = self.engine.simulation_count() - before;

        let mut curves: Vec<MethodCurve> = MethodKind::ALL
            .iter()
            .map(|&method| MethodCurve {
                method,
                training_counts: self.config.training_counts.clone(),
                errors_percent: Vec::new(),
                simulations: Vec::new(),
            })
            .collect();

        for &k in &self.config.training_counts {
            // Shared training conditions for both model-based methods.
            let mut training_rng =
                StdRng::seed_from_u64(self.config.seed ^ (k as u64).wrapping_mul(0x9E37_79B9));
            let training_points = space.sample_latin_hypercube(&mut training_rng, k);
            let before = self.engine.simulation_count();
            let training = simulate_samples(&self.engine, arc, metric, &training_points);
            let training_simulations = self.engine.simulation_count() - before;

            // In `MethodKind::ALL` order, each with the simulations it spent before the call.
            let fits = [
                (Fit::Map(&extractor, &training), training_simulations),
                (Fit::Lse(&training), training_simulations),
                (Fit::Lut(k), 0),
            ];
            for (curve, (fit, spent)) in curves.iter_mut().zip(fits) {
                let before = self.engine.simulation_count();
                let fitted = fit_and_validate(&self.engine, arc, metric, fit, &validation);
                curve.errors_percent.push(fitted.error_percent);
                curve
                    .simulations
                    .push(spent + self.engine.simulation_count() - before);
            }
        }

        Ok(NominalStudyResult {
            metric,
            curves,
            baseline_simulations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::historical::{HistoricalLearner, HistoricalLearningConfig};
    use slic_cells::{Cell, CellKind, DriveStrength, Library, Transition};

    fn learned_database() -> HistoricalDatabase {
        let config = HistoricalLearningConfig {
            grid_levels: (3, 3, 2),
            transient: TransientConfig::fast(),
        };
        HistoricalLearner::new(config)
            .learn(
                &[TechnologyNode::n16_finfet(), TechnologyNode::n14_finfet()],
                &Library::paper_trio(),
            )
            .expect("valid transient settings")
            .database
    }

    #[test]
    fn study_produces_three_monotone_ish_curves() {
        let db = learned_database();
        let study = NominalStudy::new(
            TechnologyNode::target_14nm(),
            &db,
            NominalStudyConfig::quick(),
        )
        .expect("valid config");
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let result = study.run(&arc, TimingMetric::Delay).expect("prior");

        assert_eq!(result.curves.len(), 3);
        assert_eq!(result.baseline_simulations, 60);
        for curve in &result.curves {
            assert_eq!(curve.errors_percent.len(), 3);
            assert!(curve
                .errors_percent
                .iter()
                .all(|e| e.is_finite() && *e >= 0.0));
            // Errors at the largest budget are better than (or close to) the smallest.
            assert!(
                *curve.errors_percent.last().unwrap() <= curve.errors_percent[0] + 2.0,
                "{}",
                curve.method
            );
        }
        // The Bayesian curve at k = 2 must already be decent thanks to the prior.
        let bayes = result.curve(MethodKind::ProposedBayesian).unwrap();
        assert!(
            bayes.errors_percent[0] < 15.0,
            "k=2 error = {}",
            bayes.errors_percent[0]
        );
        // And it must beat the LUT at the same tiny budget.
        let lut = result.curve(MethodKind::Lut).unwrap();
        assert!(bayes.errors_percent[0] < lut.errors_percent[0]);
        let text = result.to_markdown();
        assert!(text.contains("Lookup Table"));
    }

    fn curve(method: MethodKind, errors_percent: &[f64]) -> MethodCurve {
        let training_counts = vec![1, 2, 3, 5, 10, 20];
        MethodCurve {
            method,
            simulations: training_counts.iter().map(|&k| 80 * k as u64).collect(),
            training_counts,
            errors_percent: errors_percent.to_vec(),
        }
    }

    #[test]
    fn reductions_read_the_best_so_far_error_on_log_k() {
        // Shaped like Fig. 7's E(sigma_Td) LUT curve: best at k = 10, worse again at 20.
        let lut = curve(MethodKind::Lut, &[27.66, 27.75, 27.75, 27.75, 17.42, 20.29]);
        assert_eq!(lut.best_error(), Some(17.42));
        let at_best = lut.reach(17.42).unwrap();
        assert!((at_best.conditions - 10.0).abs() < 1e-9, "{at_best:?}");
        assert!(!at_best.at_first_point);
        // 19 % lies between k = 5 and k = 10 on the best-so-far curve, which is 27.66 up
        // to k = 5; the worse k = 20 point neither brackets it nor pushes the cost to 20.
        let t = (27.66 - 19.0) / (27.66 - 17.42);
        let expected = (5f64.ln() + t * (10f64.ln() - 5f64.ln())).exp();
        assert!((lut.reach(19.0).unwrap().conditions - expected).abs() < 1e-9);

        // A method already below the target at its first k: cost 1, a lower bound.
        let bayes = curve(
            MethodKind::ProposedBayesian,
            &[4.80, 3.99, 3.12, 3.27, 3.03, 2.97],
        );
        let reduction = Reduction::at(17.42, &bayes, &lut);
        assert_eq!(
            reduction.method,
            Some(Reach {
                conditions: 1.0,
                at_first_point: true
            })
        );
        assert!(reduction.is_lower_bound());
        assert!((reduction.factor().unwrap() - 10.0).abs() < 1e-9);

        // A method that never reaches the target has no reduction.
        let lse = curve(
            MethodKind::ProposedLse,
            &[34.0, 31.0, 29.0, 28.0, 27.9, 27.8],
        );
        let never = Reduction::at(17.42, &lse, &lut);
        assert_eq!(never.method, None);
        assert_eq!(never.factor(), None);
        assert!(!never.is_lower_bound());
    }

    #[test]
    fn quick_study_curves_are_pinned() {
        // Every curve of two quick studies, errors rounded to 4 decimals, with the
        // simulations each point paid.  Any drift in sampling, fitting or scoring moves
        // at least one of these.
        let db = learned_database();
        let study = NominalStudy::new(
            TechnologyNode::target_14nm(),
            &db,
            NominalStudyConfig::quick(),
        )
        .expect("valid config");
        let pinned = [
            (
                CellKind::Inv,
                Transition::Fall,
                TimingMetric::Delay,
                [
                    ["0.8184", "0.3139", "0.3343"],
                    ["1.8596", "0.3166", "0.3326"],
                    ["32.9428", "32.9391", "4.3603"],
                ],
            ),
            (
                CellKind::Nand2,
                Transition::Rise,
                TimingMetric::OutputSlew,
                [
                    ["0.5380", "0.3329", "0.4746"],
                    ["15.1304", "0.3039", "0.4820"],
                    ["37.5190", "37.5190", "6.0036"],
                ],
            ),
        ];
        for (kind, transition, metric, errors) in pinned {
            let cell = Cell::new(kind, DriveStrength::X1);
            let arc = TimingArc::new(cell, 0, transition);
            let result = study.run(&arc, metric).expect("prior");
            assert_eq!(result.baseline_simulations, 60);
            let methods: Vec<MethodKind> = result.curves.iter().map(|c| c.method).collect();
            assert_eq!(methods, MethodKind::ALL);
            for (curve, expected) in result.curves.iter().zip(errors) {
                let rounded: Vec<String> = curve
                    .errors_percent
                    .iter()
                    .map(|e| format!("{e:.4}"))
                    .collect();
                assert_eq!(rounded, expected, "{} {metric} {}", arc.id(), curve.method);
                assert_eq!(
                    curve.simulations,
                    [2, 5, 20],
                    "{} {}",
                    arc.id(),
                    curve.method
                );
            }
        }
    }

    #[test]
    fn a_metric_without_records_is_an_error_before_any_simulation() {
        let mut db = HistoricalDatabase::new();
        db.push(slic_bayes::HistoricalRecord::new(
            "n16",
            16,
            "INV_X1",
            "INV_X1/A0/FALL",
            TimingMetric::Delay,
            TimingParams::new(0.39, 0.95, -0.27, 0.09),
            1.0,
            Vec::new(),
        ));
        let study = NominalStudy::new(
            TechnologyNode::target_14nm(),
            &db,
            NominalStudyConfig::quick(),
        )
        .expect("valid config");
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let err = study
            .run(&arc, TimingMetric::OutputSlew)
            .expect_err("no slew records");
        assert!(matches!(
            err,
            PriorError::NoMatchingRecords {
                metric: TimingMetric::OutputSlew,
                ..
            }
        ));
        assert_eq!(study.engine().simulation_count(), 0);
    }

    #[test]
    fn an_invalid_transient_configuration_is_an_error() {
        let db = HistoricalDatabase::new();
        let mut config = NominalStudyConfig::quick();
        config.transient.min_steps_per_ramp = 0;
        assert!(NominalStudy::new(TechnologyNode::target_14nm(), &db, config).is_err());
    }
}
