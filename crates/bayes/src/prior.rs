//! Learning the Gaussian parameter prior from historical characterizations (Eq. 7).

use crate::history::{HistoricalDatabase, TimingMetric};
use serde::{Deserialize, Serialize};
use slic_linalg::{LinalgError, Vector};
use slic_stats::MultivariateGaussian;
use slic_timing_model::{GaussianPenalty, TimingParams, PARAM_COUNT};
use std::error::Error;
use std::fmt;

/// Errors produced while learning a prior.
#[derive(Debug)]
#[non_exhaustive]
pub enum PriorError {
    /// The database holds no records matching the requested metric / cell-kind filter.
    NoMatchingRecords {
        /// The metric requested.
        metric: TimingMetric,
        /// The cell-kind filter requested, if any.
        cell_kind: Option<String>,
    },
    /// The sample covariance could not be made positive definite.
    Linalg(LinalgError),
}

impl fmt::Display for PriorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorError::NoMatchingRecords { metric, cell_kind } => write!(
                f,
                "no historical records for metric {metric} (cell kind filter: {cell_kind:?})"
            ),
            PriorError::Linalg(e) => write!(f, "prior covariance is degenerate: {e}"),
        }
    }
}

impl Error for PriorError {}

impl From<LinalgError> for PriorError {
    fn from(e: LinalgError) -> Self {
        PriorError::Linalg(e)
    }
}

/// A learned parameter prior `µ_P ~ N(µ0, Σ0)` for one timing metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParameterPrior {
    metric: TimingMetric,
    cell_kind: Option<String>,
    distribution: MultivariateGaussian,
    source_record_count: usize,
}

impl ParameterPrior {
    /// The metric this prior applies to.
    pub fn metric(&self) -> TimingMetric {
        self.metric
    }

    /// The cell-kind filter used when learning, if any.
    pub fn cell_kind(&self) -> Option<&str> {
        self.cell_kind.as_deref()
    }

    /// The learned multivariate normal over `[kd, Cpar, V', α]`.
    pub fn distribution(&self) -> &MultivariateGaussian {
        &self.distribution
    }

    /// Number of historical records the prior was learned from.
    pub fn source_record_count(&self) -> usize {
        self.source_record_count
    }

    /// The prior mean as compact-model parameters — the best guess before any new-technology
    /// simulation is run.
    pub fn mean_params(&self) -> TimingParams {
        TimingParams::from_vector(self.distribution.mean())
    }

    /// Converts the prior into the penalty term consumed by the MAP solver.
    ///
    /// # Panics
    ///
    /// Panics only if the stored covariance lost positive definiteness, which construction
    /// prevents.
    pub fn to_penalty(&self) -> GaussianPenalty {
        #[expect(
            clippy::expect_used,
            reason = "baselined: construction keeps the prior covariance positive definite"
        )]
        GaussianPenalty::from_covariance(
            self.distribution.mean().clone(),
            self.distribution.covariance(),
        )
        .expect("prior covariance is positive definite by construction")
    }

    /// Returns a copy with the covariance inflated (>1) or sharpened (<1) by `factor` —
    /// the knob used in the prior-strength ablation.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn with_covariance_scaled(&self, factor: f64) -> Self {
        Self {
            distribution: self.distribution.scaled_covariance(factor),
            cell_kind: self.cell_kind.clone(),
            ..*self
        }
    }
}

/// Builder that turns historical records into a [`ParameterPrior`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorBuilder {
    /// Diagonal jitter added to the sample covariance (keeps few-record priors usable).
    pub regularization: f64,
    /// Extra multiplicative inflation applied to the covariance.  A value slightly above 1
    /// guards against the historical spread under-representing the new node (the
    /// bias–variance trade-off of Section IV).
    pub covariance_inflation: f64,
    /// Minimum per-parameter standard deviation, in model units, enforced on the diagonal.
    pub min_std_dev: f64,
}

impl PriorBuilder {
    /// Creates a builder with the default settings used throughout the experiments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learns a prior for `metric` from `db`, optionally restricted to one cell kind
    /// (e.g. `Some("NAND2")`).  Passing `None` pools every cell — the paper's observation is
    /// that parameters are similar across *both* cells and technologies, and the pooled
    /// prior is what makes brand-new cell types characterizable.
    ///
    /// # Errors
    ///
    /// Returns [`PriorError::NoMatchingRecords`] if the filter selects nothing, or a
    /// [`PriorError::Linalg`] if the covariance cannot be regularized into positive
    /// definiteness.
    pub fn build(
        &self,
        db: &HistoricalDatabase,
        metric: TimingMetric,
        cell_kind: Option<&str>,
    ) -> Result<ParameterPrior, PriorError> {
        let records = db.select(metric, cell_kind);
        if records.is_empty() {
            return Err(PriorError::NoMatchingRecords {
                metric,
                cell_kind: cell_kind.map(str::to_string),
            });
        }
        let samples: Vec<Vector> = records.iter().map(|r| r.params.to_vector()).collect();

        // Sample mean and covariance with jitter.
        let base = MultivariateGaussian::fit(&samples, self.regularization)?;
        // Enforce the minimum spread and the inflation factor on the covariance.
        let mut cov = base.covariance().scale(self.covariance_inflation);
        for i in 0..PARAM_COUNT {
            let floor = self.min_std_dev * self.min_std_dev;
            if cov[(i, i)] < floor {
                cov[(i, i)] = floor;
            }
        }
        let distribution = MultivariateGaussian::new(base.mean().clone(), cov)?;
        Ok(ParameterPrior {
            metric,
            cell_kind: cell_kind.map(str::to_string),
            distribution,
            source_record_count: records.len(),
        })
    }
}

impl Default for PriorBuilder {
    fn default() -> Self {
        Self {
            regularization: 1e-6,
            covariance_inflation: 1.5,
            min_std_dev: 0.01,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoricalRecord;
    use proptest::prelude::*;

    fn db_with_spread() -> HistoricalDatabase {
        // Six historical technologies, INV/NAND2/NOR2 each, Table I-like values.
        let techs = ["n45", "n32", "n28", "n20", "n16", "n14"];
        let mut db = HistoricalDatabase::new();
        for (i, tech) in techs.iter().enumerate() {
            let drift = i as f64 * 0.004;
            for (cell, kd, cpar, alpha) in [
                ("INV_X1", 0.389, 0.951, 0.092),
                ("NAND2_X1", 0.372, 1.328, 0.034),
                ("NOR2_X1", 0.356, 1.186, 0.102),
            ] {
                db.push(HistoricalRecord::new(
                    *tech,
                    45 - 5 * i as u32,
                    cell,
                    format!("{cell}/A0/FALL"),
                    TimingMetric::Delay,
                    TimingParams::new(kd + drift, cpar + 10.0 * drift, -0.266 + drift, alpha),
                    1.5,
                    Vec::new(),
                ));
                db.push(HistoricalRecord::new(
                    *tech,
                    45 - 5 * i as u32,
                    cell,
                    format!("{cell}/A0/RISE"),
                    TimingMetric::OutputSlew,
                    TimingParams::new(1.0 + drift, 1.5 + 10.0 * drift, -0.15, 0.25),
                    2.0,
                    Vec::new(),
                ));
            }
        }
        db
    }

    #[test]
    fn pooled_prior_mean_is_near_the_record_average() {
        let db = db_with_spread();
        let prior = PriorBuilder::new()
            .build(&db, TimingMetric::Delay, None)
            .unwrap();
        let mean = prior.mean_params();
        assert!((mean.kd - 0.38).abs() < 0.03, "kd mean = {}", mean.kd);
        assert!((mean.v_prime + 0.26).abs() < 0.03);
        assert_eq!(prior.source_record_count(), 18);
        assert_eq!(prior.metric(), TimingMetric::Delay);
        assert!(prior.cell_kind().is_none());
    }

    #[test]
    fn cell_filtered_prior_is_tighter_than_pooled() {
        let db = db_with_spread();
        let builder = PriorBuilder::new();
        let pooled = builder.build(&db, TimingMetric::Delay, None).unwrap();
        let filtered = builder
            .build(&db, TimingMetric::Delay, Some("NAND2"))
            .unwrap();
        // Cpar differs a lot between cells, so restricting to one kind shrinks its variance.
        let pooled_var = pooled.distribution().covariance()[(1, 1)];
        let filtered_var = filtered.distribution().covariance()[(1, 1)];
        assert!(filtered_var < pooled_var);
        assert_eq!(filtered.cell_kind(), Some("NAND2"));
    }

    #[test]
    fn slew_prior_differs_from_delay_prior() {
        let db = db_with_spread();
        let builder = PriorBuilder::new();
        let delay = builder.build(&db, TimingMetric::Delay, None).unwrap();
        let slew = builder.build(&db, TimingMetric::OutputSlew, None).unwrap();
        assert!(slew.mean_params().kd > 2.0 * delay.mean_params().kd);
    }

    #[test]
    fn missing_records_are_an_error() {
        let db = HistoricalDatabase::new();
        let err = PriorBuilder::new()
            .build(&db, TimingMetric::Delay, None)
            .unwrap_err();
        assert!(matches!(err, PriorError::NoMatchingRecords { .. }));
        assert!(err.to_string().contains("no historical records"));
        let db = db_with_spread();
        let err = PriorBuilder::new()
            .build(&db, TimingMetric::Delay, Some("XOR2"))
            .unwrap_err();
        assert!(matches!(err, PriorError::NoMatchingRecords { .. }));
    }

    #[test]
    fn single_record_prior_is_usable() {
        let mut db = HistoricalDatabase::new();
        db.push(HistoricalRecord::new(
            "only",
            14,
            "INV_X1",
            "INV_X1/A0/FALL",
            TimingMetric::Delay,
            TimingParams::new(0.39, 0.95, -0.27, 0.09),
            1.0,
            Vec::new(),
        ));
        let prior = PriorBuilder::new()
            .build(&db, TimingMetric::Delay, None)
            .unwrap();
        // The covariance collapses to the regularization + floor, but stays valid.
        assert!(prior.distribution().covariance()[(0, 0)] > 0.0);
        let penalty = prior.to_penalty();
        assert_eq!(penalty.dim(), PARAM_COUNT);
    }

    #[test]
    fn covariance_scaling_ablation_knob() {
        let db = db_with_spread();
        let prior = PriorBuilder::new()
            .build(&db, TimingMetric::Delay, None)
            .unwrap();
        let broad = prior.with_covariance_scaled(4.0);
        assert!(
            broad.distribution().covariance()[(0, 0)]
                > 3.9 * prior.distribution().covariance()[(0, 0)]
        );
        assert_eq!(broad.mean_params(), prior.mean_params());
    }

    #[test]
    fn min_std_dev_floor_is_enforced() {
        let db = db_with_spread();
        let builder = PriorBuilder {
            min_std_dev: 0.2,
            ..PriorBuilder::new()
        };
        let prior = builder.build(&db, TimingMetric::Delay, None).unwrap();
        for i in 0..PARAM_COUNT {
            assert!(prior.distribution().covariance()[(i, i)] >= 0.2 * 0.2 - 1e-12);
        }
    }

    proptest! {
        #[test]
        fn prop_penalty_is_zero_at_prior_mean(inflation in 0.5f64..4.0) {
            let db = db_with_spread();
            let builder = PriorBuilder { covariance_inflation: inflation, ..PriorBuilder::new() };
            let prior = builder.build(&db, TimingMetric::Delay, None).unwrap();
            let penalty = prior.to_penalty();
            prop_assert!(penalty.cost(prior.distribution().mean()) < 1e-15);
        }
    }
}
