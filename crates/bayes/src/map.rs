//! Maximum-a-posteriori extraction of the compact-model parameters (Eqs. 13–15).
//!
//! The MAP estimator combines three ingredients:
//!
//! * the Gaussian prior `N(µ0, Σ0)` learned from historical technologies,
//! * the per-condition precisions `β(ξ)` learned from historical residuals, and
//! * the `k` fresh observations from the target technology,
//!
//! and minimizes Eq. (15):
//!
//! ```text
//! ½ (µ − µ0)ᵀ Σ0⁻¹ (µ − µ0)  +  ½ Σᵢ β(ξᵢ) · rᵢ(µ)²
//! ```
//!
//! where `rᵢ` is the relative misfit of observation `i`.  The optimization is delegated to
//! the damped Gauss–Newton solver of `slic-timing-model`, which this module wraps together
//! with a Laplace-approximation posterior covariance.

use crate::history::{HistoricalDatabase, TimingMetric};
use crate::precision::PrecisionModel;
use crate::prior::{ParameterPrior, PriorBuilder, PriorError};
use serde::{Deserialize, Serialize};
use slic_linalg::{Matrix, Vector};
use slic_spice::InputSpace;
use slic_timing_model::{LeastSquaresFitter, TimingParams, TimingSample, PARAM_COUNT};

/// Result of a MAP extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapFit {
    /// The MAP parameter estimate.
    pub params: TimingParams,
    /// Laplace-approximation posterior covariance of the parameters.
    pub posterior_covariance: Matrix,
    /// Number of Gauss–Newton iterations spent.
    pub iterations: usize,
    /// Whether the optimizer met its convergence criterion.
    pub converged: bool,
    /// Final objective value (Eq. 15).
    pub cost: f64,
    /// The per-sample precisions `β(ξᵢ)` that were used.
    pub weights: Vec<f64>,
}

impl MapFit {
    /// The marginal posterior standard deviation of each parameter.
    pub fn posterior_std_devs(&self) -> Vector {
        Vector::from_fn(PARAM_COUNT, |i| self.posterior_covariance[(i, i)].sqrt())
    }
}

/// The MAP extractor: a prior and a precision field.
#[derive(Debug, Clone)]
pub struct MapExtractor {
    prior: ParameterPrior,
    precision: PrecisionModel,
}

impl MapExtractor {
    /// Creates an extractor from a learned prior and precision field.
    pub fn new(prior: ParameterPrior, precision: PrecisionModel) -> Self {
        Self { prior, precision }
    }

    /// Learns the extractor for one cell kind (e.g. `"NAND2"`) and metric from `db`: the
    /// prior of that kind's records, or the prior pooled over every cell when the kind has
    /// none (a brand-new cell type), and the precisions learned with `space`'s scales.
    ///
    /// # Errors
    ///
    /// Returns the pooled prior's [`PriorError`] when neither prior can be built —
    /// [`PriorError::NoMatchingRecords`] when `db` holds no record of `metric`.
    pub fn learn(
        db: &HistoricalDatabase,
        metric: TimingMetric,
        cell_kind: &str,
        space: &InputSpace,
    ) -> Result<Self, PriorError> {
        let builder = PriorBuilder::new();
        let prior = builder
            .build(db, metric, Some(cell_kind))
            .or_else(|_| builder.build(db, metric, None))?;
        let precision = PrecisionModel::learn(db, metric, space);
        Ok(Self::new(prior, precision))
    }

    /// The prior in use.
    pub fn prior(&self) -> &ParameterPrior {
        &self.prior
    }

    /// The precision field in use.
    pub fn precision(&self) -> &PrecisionModel {
        &self.precision
    }

    /// Runs the MAP extraction of Eq. (15) on `k` fresh observations.
    ///
    /// Passing an empty slice returns the prior-only estimate with the prior covariance as
    /// posterior — the `k = 0` point of the Fig. 6 sweep.
    pub fn extract(&self, samples: &[TimingSample]) -> MapFit {
        let penalty = self.prior.to_penalty();
        if samples.is_empty() {
            return MapFit {
                params: self.prior.mean_params(),
                posterior_covariance: self.prior.distribution().covariance().clone(),
                iterations: 0,
                converged: true,
                cost: 0.0,
                weights: Vec::new(),
            };
        }
        let weights: Vec<f64> = samples
            .iter()
            .map(|s| self.precision.beta(&s.point))
            .collect();
        let result = LeastSquaresFitter::new().fit_weighted(
            samples,
            &weights,
            Some(&penalty),
            self.prior.mean_params(),
        );
        let posterior_covariance = self.laplace_covariance(&result.params, samples, &weights);
        MapFit {
            params: result.params,
            posterior_covariance,
            iterations: result.iterations,
            converged: result.converged,
            cost: result.cost,
            weights,
        }
    }

    /// Laplace approximation of the posterior covariance:
    /// `(Σ0⁻¹ + Σᵢ βᵢ · gᵢ gᵢᵀ / Tᵢ²)⁻¹`, where `gᵢ` is the model gradient at sample `i`.
    fn laplace_covariance(
        &self,
        params: &TimingParams,
        samples: &[TimingSample],
        weights: &[f64],
    ) -> Matrix {
        let prior_precision = self.prior.distribution().precision();
        let mut hessian = prior_precision;
        for (s, w) in samples.iter().zip(weights) {
            let g = params.gradient(&s.point, s.ieff);
            let scale = w / (s.observed.value() * s.observed.value());
            for i in 0..PARAM_COUNT {
                for j in 0..PARAM_COUNT {
                    hessian[(i, j)] += scale * g[i] * g[j];
                }
            }
        }
        // Regularize lightly before inverting so extreme precisions cannot produce a
        // numerically indefinite matrix.
        hessian
            .add_diagonal(1e-9)
            .cholesky()
            .map(|c| c.inverse())
            .unwrap_or_else(|_| self.prior.distribution().covariance().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoricalRecord;
    use slic_spice::InputPoint;
    use slic_units::{Amperes, Farads, Seconds, Volts};

    fn truth() -> TimingParams {
        TimingParams::new(0.41, 1.15, -0.24, 0.10)
    }

    fn historical_db() -> HistoricalDatabase {
        // Historical parameters scattered around values close to (but not equal to) the
        // target truth, the way Table I scatters.
        let mut db = HistoricalDatabase::new();
        for (i, tech) in ["n45", "n32", "n28", "n20", "n16", "n14"]
            .iter()
            .enumerate()
        {
            let d = (i as f64 - 2.5) * 0.008;
            db.push(HistoricalRecord::new(
                *tech,
                45,
                "INV_X1",
                "INV_X1/A0/FALL",
                TimingMetric::Delay,
                TimingParams::new(0.39 + d, 1.05 + 4.0 * d, -0.26 + d, 0.09 + 0.3 * d),
                1.2,
                Vec::new(),
            ));
        }
        db
    }

    fn extractor() -> MapExtractor {
        let prior = PriorBuilder::new()
            .build(&historical_db(), TimingMetric::Delay, None)
            .unwrap();
        let precision = PrecisionModel::flat(TimingMetric::Delay, 2500.0);
        MapExtractor::new(prior, precision)
    }

    fn sample_at(sin_ps: f64, cload_ff: f64, vdd: f64) -> TimingSample {
        let point = InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(vdd),
        );
        let ieff = Amperes(20e-6 + 60e-6 * (vdd - 0.5).powi(2) / 0.25);
        TimingSample::new(point, ieff, truth().evaluate(&point, ieff))
    }

    fn validation_error(params: &TimingParams) -> f64 {
        let samples: Vec<TimingSample> = (0..40)
            .map(|i| {
                sample_at(
                    1.0 + 14.0 * (i as f64 / 40.0),
                    0.4 + 5.0 * ((i * 7 % 40) as f64 / 40.0),
                    0.66 + 0.33 * ((i * 3 % 40) as f64 / 40.0),
                )
            })
            .collect();
        params.mean_relative_error_percent(&samples)
    }

    #[test]
    fn zero_samples_returns_the_prior() {
        let ex = extractor();
        let fit = ex.extract(&[]);
        assert_eq!(fit.params, ex.prior().mean_params());
        assert_eq!(fit.iterations, 0);
        assert!(fit.converged);
        assert!(fit.weights.is_empty());
    }

    #[test]
    fn accuracy_improves_with_more_samples() {
        let ex = extractor();
        let err0 = validation_error(&ex.extract(&[]).params);
        let err2 = validation_error(
            &ex.extract(&[sample_at(3.0, 1.0, 0.9), sample_at(12.0, 5.0, 0.7)])
                .params,
        );
        let err5 = validation_error(
            &ex.extract(&[
                sample_at(3.0, 1.0, 0.9),
                sample_at(12.0, 5.0, 0.7),
                sample_at(7.0, 2.5, 0.8),
                sample_at(1.5, 4.0, 0.95),
                sample_at(14.0, 0.6, 0.68),
            ])
            .params,
        );
        assert!(
            err2 < err0,
            "two samples must improve on the prior ({err2} vs {err0})"
        );
        assert!(
            err5 <= err2 + 0.2,
            "five samples must not be worse ({err5} vs {err2})"
        );
        assert!(
            err5 < 1.0,
            "five clean samples should nail the parameters ({err5}%)"
        );
    }

    #[test]
    fn posterior_tightens_with_data() {
        let ex = extractor();
        let prior_fit = ex.extract(&[]);
        let data_fit = ex.extract(&[
            sample_at(3.0, 1.0, 0.9),
            sample_at(12.0, 5.0, 0.7),
            sample_at(7.0, 2.5, 0.8),
        ]);
        let prior_sd = prior_fit.posterior_std_devs();
        let post_sd = data_fit.posterior_std_devs();
        for i in 0..PARAM_COUNT {
            assert!(
                post_sd[i] <= prior_sd[i] + 1e-12,
                "component {i}: posterior sd {} must not exceed prior sd {}",
                post_sd[i],
                prior_sd[i]
            );
        }
        // At least one direction must tighten substantially.
        assert!(post_sd[0] < 0.7 * prior_sd[0] || post_sd[2] < 0.7 * prior_sd[2]);
    }

    #[test]
    fn higher_precision_conditions_dominate_the_fit() {
        // Build a precision field that trusts high-Vdd conditions far more, then feed one
        // corrupted low-Vdd observation: the fit should stay close to the high-Vdd data.
        let prior = PriorBuilder::new()
            .build(&historical_db(), TimingMetric::Delay, None)
            .unwrap();
        let mut db = HistoricalDatabase::new();
        let hi = InputPoint::new(
            Seconds::from_picoseconds(5.0),
            Farads::from_femtofarads(2.0),
            Volts(0.95),
        );
        let lo = InputPoint::new(
            Seconds::from_picoseconds(5.0),
            Farads::from_femtofarads(2.0),
            Volts(0.66),
        );
        for (tech, sign) in [("a", 1.0), ("b", -1.0), ("c", 0.5), ("d", -0.5)] {
            db.push(HistoricalRecord::new(
                tech,
                28,
                "INV_X1",
                "INV_X1/A0/FALL",
                TimingMetric::Delay,
                TimingParams::new(0.39, 1.0, -0.26, 0.09),
                1.0,
                vec![
                    crate::history::ConditionResidual {
                        point: hi,
                        relative_residual: sign * 0.01,
                    },
                    crate::history::ConditionResidual {
                        point: lo,
                        relative_residual: sign * 0.12,
                    },
                ],
            ));
        }
        let space = slic_spice::InputSpace::paper_space((Volts(0.65), Volts(1.0)));
        let precision = PrecisionModel::learn(&db, TimingMetric::Delay, &space);
        let ex = MapExtractor::new(prior, precision);

        let good = sample_at(5.0, 2.0, 0.95);
        let ieff_lo = Amperes(25e-6);
        let corrupted = TimingSample::new(
            lo,
            ieff_lo,
            Seconds(truth().evaluate(&lo, ieff_lo).value() * 1.6),
        );
        let fit = ex.extract(&[good, corrupted]);
        assert!(fit.weights[0] > 10.0 * fit.weights[1]);
        // Prediction at a clean high-Vdd condition stays accurate despite the corrupted
        // low-Vdd observation.
        let probe = sample_at(4.0, 1.5, 0.92);
        assert!(fit.params.relative_error(&probe).abs() < 0.05);
    }

    #[test]
    fn prior_strength_ablation_changes_behaviour() {
        let ex = extractor();
        let sharp = MapExtractor::new(
            ex.prior().with_covariance_scaled(0.05),
            PrecisionModel::flat(TimingMetric::Delay, 2500.0),
        );
        // With a very sharp prior, two samples barely move the estimate away from the prior
        // mean; with the normal prior they move it further toward the truth.
        let samples = [sample_at(3.0, 1.0, 0.9), sample_at(12.0, 5.0, 0.7)];
        let normal_fit = ex.extract(&samples);
        let sharp_fit = sharp.extract(&samples);
        let prior_mean = ex.prior().mean_params().to_vector();
        let d_normal = (&normal_fit.params.to_vector() - &prior_mean).norm();
        let d_sharp = (&sharp_fit.params.to_vector() - &prior_mean).norm();
        assert!(d_sharp < d_normal);
    }

    #[test]
    fn learn_matches_the_cell_kind_and_falls_back_to_the_pooled_prior() {
        let mut db = historical_db();
        for tech in ["n20", "n16"] {
            db.push(HistoricalRecord::new(
                tech,
                20,
                "NAND2_X1",
                "NAND2_X1/A0/FALL",
                TimingMetric::Delay,
                TimingParams::new(0.37, 1.33, -0.25, 0.03),
                1.4,
                Vec::new(),
            ));
        }
        let space = InputSpace::paper_space((Volts(0.65), Volts(1.0)));

        let nand = MapExtractor::learn(&db, TimingMetric::Delay, "NAND2", &space).unwrap();
        assert_eq!(nand.prior().cell_kind(), Some("NAND2"));
        assert_eq!(nand.prior().source_record_count(), 2);
        assert_eq!(nand.precision().metric(), TimingMetric::Delay);

        // No NOR2 records: the prior pools every delay record.
        let nor = MapExtractor::learn(&db, TimingMetric::Delay, "NOR2", &space).unwrap();
        assert_eq!(nor.prior().cell_kind(), None);
        assert_eq!(
            nor.prior().source_record_count(),
            db.select(TimingMetric::Delay, None).len()
        );

        let err = MapExtractor::learn(
            &HistoricalDatabase::new(),
            TimingMetric::Delay,
            "INV",
            &space,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PriorError::NoMatchingRecords {
                metric: TimingMetric::Delay,
                ..
            }
        ));
        // A metric with no records is an error even when the kind has records of another.
        assert!(MapExtractor::learn(&db, TimingMetric::OutputSlew, "INV", &space).is_err());
    }
}
