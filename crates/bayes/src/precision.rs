//! Learning the per-input-condition model precision `β(ξ)` from historical residuals (Eq. 9).
//!
//! The compact model is not equally trustworthy everywhere: near the supply floor the delay
//! becomes strongly nonlinear in `Vdd` and the four-parameter form absorbs it less well than
//! at nominal supply.  The paper captures this as a *precision* (inverse variance of the
//! relative model residual across historical technologies) per input condition; high-β
//! conditions get weighted more strongly in the MAP objective.

use crate::history::{HistoricalDatabase, TimingMetric};
use serde::{Deserialize, Serialize};
use slic_spice::{InputPoint, InputSpace};
use slic_stats::moments;

/// Lower clamp on learned precisions: no condition is weighted as if the model were more
/// than 10 % off (`1/√β`).
const BETA_MIN: f64 = 1e2;
/// Upper clamp on learned precisions: guards against a condition where every technology
/// happened to agree, which would otherwise produce a near-infinite β, so the model is
/// never trusted better than 0.1 %.
const BETA_MAX: f64 = 1e6;
/// Precision assumed when no historical residuals are available at all (equivalent to a
/// ~5 % relative model uncertainty).
const BETA_DEFAULT: f64 = 400.0;

/// One learned precision anchor: a reference input condition and the β learned there.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PrecisionAnchor {
    point: InputPoint,
    beta: f64,
}

/// The learned precision field `β(ξ)`.
///
/// Lookup interpolates between the reference conditions with inverse-distance weighting in
/// the normalized input space; queries far from every anchor fall back to the nearest one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrecisionModel {
    metric: TimingMetric,
    anchors: Vec<PrecisionAnchor>,
    /// The precision of every condition when there are no anchors.
    fallback: f64,
    /// Normalization scales for (sin, cload, vdd) distances.
    scales: [f64; 3],
}

impl PrecisionModel {
    /// Learns the precision field for `metric` from the residuals stored in `db`.
    ///
    /// Residuals are grouped by input condition across technologies; Eq. (9) — the inverse
    /// variance of the absolute relative residual — is evaluated per group.  Conditions seen
    /// in fewer than two technologies cannot define a variance and are skipped.
    ///
    /// `space` provides the normalization scales used by the lookup distance metric.
    pub fn learn(db: &HistoricalDatabase, metric: TimingMetric, space: &InputSpace) -> Self {
        // Group residuals by (quantized) input condition.
        let mut groups: Vec<(InputPoint, Vec<f64>)> = Vec::new();
        for record in db.select(metric, None) {
            for residual in &record.residuals {
                let entry = groups
                    .iter_mut()
                    .find(|(p, _)| same_condition(p, &residual.point));
                match entry {
                    Some((_, values)) => values.push(residual.relative_residual),
                    None => groups.push((residual.point, vec![residual.relative_residual])),
                }
            }
        }

        let anchors: Vec<PrecisionAnchor> = groups
            .into_iter()
            .filter(|(_, residuals)| residuals.len() >= 2)
            .map(|(point, residuals)| {
                let beta = eq9_precision(&residuals).clamp(BETA_MIN, BETA_MAX);
                PrecisionAnchor { point, beta }
            })
            .collect();

        let (sin_lo, sin_hi) = space.sin_range();
        let (cl_lo, cl_hi) = space.cload_range();
        let (vdd_lo, vdd_hi) = space.vdd_range();
        let scales = [
            (sin_hi.value() - sin_lo.value()).max(1e-30),
            (cl_hi.value() - cl_lo.value()).max(1e-30),
            (vdd_hi.value() - vdd_lo.value()).max(1e-30),
        ];
        Self {
            metric,
            anchors,
            fallback: BETA_DEFAULT,
            scales,
        }
    }

    /// Builds a flat (condition-independent) precision field — the fallback when no
    /// historical residuals are available, and a useful ablation reference.
    pub fn flat(metric: TimingMetric, beta: f64) -> Self {
        Self {
            metric,
            anchors: Vec::new(),
            fallback: beta.clamp(BETA_MIN, BETA_MAX),
            scales: [1.0, 1.0, 1.0],
        }
    }

    /// The metric this field applies to.
    pub fn metric(&self) -> TimingMetric {
        self.metric
    }

    /// The learned precision at an arbitrary input condition.
    pub fn beta(&self, point: &InputPoint) -> f64 {
        if self.anchors.is_empty() {
            return self.fallback;
        }
        // Inverse-distance-squared weighting over the anchors (exact at anchor positions).
        let mut weight_sum = 0.0;
        let mut weighted_beta = 0.0;
        for anchor in &self.anchors {
            let d2 = self.normalized_distance_squared(point, &anchor.point);
            if d2 < 1e-16 {
                return anchor.beta;
            }
            let w = 1.0 / d2;
            weight_sum += w;
            weighted_beta += w * anchor.beta;
        }
        (weighted_beta / weight_sum).clamp(BETA_MIN, BETA_MAX)
    }

    fn normalized_distance_squared(&self, a: &InputPoint, b: &InputPoint) -> f64 {
        let ds = (a.sin.value() - b.sin.value()) / self.scales[0];
        let dc = (a.cload.value() - b.cload.value()) / self.scales[1];
        let dv = (a.vdd.value() - b.vdd.value()) / self.scales[2];
        ds * ds + dc * dc + dv * dv
    }
}

/// Eq. (9): `β = 1 / ( mean(r²) − mean(|r|)² )`, the inverse variance of the absolute
/// relative residual across technologies.  Returns `f64::INFINITY` for degenerate inputs
/// (caller clamps).
fn eq9_precision(relative_residuals: &[f64]) -> f64 {
    let abs: Vec<f64> = relative_residuals.iter().map(|r| r.abs()).collect();
    let mean_sq = moments::mean(&relative_residuals.iter().map(|r| r * r).collect::<Vec<_>>());
    let mean_abs = moments::mean(&abs);
    let variance = mean_sq - mean_abs * mean_abs;
    if variance <= 0.0 {
        f64::INFINITY
    } else {
        1.0 / variance
    }
}

/// Two input points describe the same reference condition if they agree to within one part
/// in a thousand on every axis.
fn same_condition(a: &InputPoint, b: &InputPoint) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-3 * x.abs().max(y.abs()).max(1e-30);
    close(a.sin.value(), b.sin.value())
        && close(a.cload.value(), b.cload.value())
        && close(a.vdd.value(), b.vdd.value())
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use crate::history::{ConditionResidual, HistoricalRecord};
    use slic_timing_model::TimingParams;
    use slic_units::{Farads, Seconds, Volts};

    fn point(sin_ps: f64, cload_ff: f64, vdd: f64) -> InputPoint {
        InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(vdd),
        )
    }

    fn space() -> InputSpace {
        InputSpace::paper_space((Volts(0.65), Volts(1.0)))
    }

    /// Database where the model error is small (±1 %) at high Vdd and large (±8 %) at low
    /// Vdd, consistently across technologies.
    fn db_with_vdd_trend() -> HistoricalDatabase {
        let mut db = HistoricalDatabase::new();
        let conditions = [point(5.0, 2.0, 0.95), point(5.0, 2.0, 0.68)];
        for (i, tech) in ["n45", "n32", "n28", "n20"].iter().enumerate() {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let residuals = vec![
                ConditionResidual {
                    point: conditions[0],
                    relative_residual: sign * 0.01 * (1.0 + 0.3 * i as f64),
                },
                ConditionResidual {
                    point: conditions[1],
                    relative_residual: sign * 0.08 * (1.0 + 0.3 * i as f64),
                },
            ];
            db.push(HistoricalRecord::new(
                *tech,
                45,
                "INV_X1",
                "INV_X1/A0/FALL",
                TimingMetric::Delay,
                TimingParams::new(0.39, 1.0, -0.26, 0.09),
                1.0,
                residuals,
            ));
        }
        db
    }

    #[test]
    fn eq9_matches_hand_computation() {
        // residuals ±0.02: |r| = 0.02 everywhere -> variance of |r| = 0 -> infinite precision.
        assert!(eq9_precision(&[0.02, -0.02, 0.02]).is_infinite());
        // Two distinct magnitudes.
        let beta = eq9_precision(&[0.01, 0.03]);
        // mean(r^2) = (1e-4 + 9e-4)/2 = 5e-4, mean(|r|)^2 = (0.02)^2 = 4e-4, var = 1e-4.
        assert!((beta - 1.0 / 1e-4).abs() / beta < 1e-9);
    }

    #[test]
    fn high_vdd_conditions_get_higher_precision() {
        let model = PrecisionModel::learn(&db_with_vdd_trend(), TimingMetric::Delay, &space());
        assert_eq!(model.anchors.len(), 2);
        let beta_high = model.beta(&point(5.0, 2.0, 0.95));
        let beta_low = model.beta(&point(5.0, 2.0, 0.68));
        assert!(
            beta_high > 5.0 * beta_low,
            "high-Vdd beta {beta_high} should far exceed low-Vdd beta {beta_low}"
        );
    }

    #[test]
    fn interpolation_between_anchors_is_monotone_in_vdd() {
        let model = PrecisionModel::learn(&db_with_vdd_trend(), TimingMetric::Delay, &space());
        let beta_mid = model.beta(&point(5.0, 2.0, 0.8));
        let beta_low = model.beta(&point(5.0, 2.0, 0.68));
        let beta_high = model.beta(&point(5.0, 2.0, 0.95));
        assert!(beta_mid > beta_low && beta_mid < beta_high);
    }

    #[test]
    fn precisions_are_clamped() {
        let mut db = HistoricalDatabase::new();
        // Residuals identical across technologies -> infinite raw precision -> clamped to max.
        db.push(HistoricalRecord::new(
            "a",
            28,
            "INV_X1",
            "INV_X1/A0/FALL",
            TimingMetric::Delay,
            TimingParams::new(0.39, 1.0, -0.26, 0.09),
            1.0,
            vec![ConditionResidual {
                point: point(5.0, 2.0, 0.9),
                relative_residual: 0.02,
            }],
        ));
        db.push(HistoricalRecord::new(
            "b",
            28,
            "INV_X1",
            "INV_X1/A0/FALL",
            TimingMetric::Delay,
            TimingParams::new(0.40, 1.0, -0.26, 0.09),
            1.0,
            vec![ConditionResidual {
                point: point(5.0, 2.0, 0.9),
                relative_residual: -0.02,
            }],
        ));
        let model = PrecisionModel::learn(&db, TimingMetric::Delay, &space());
        assert_eq!(model.anchors.len(), 1);
        assert!((model.beta(&point(5.0, 2.0, 0.9)) - BETA_MAX).abs() < 1e-9);
    }

    #[test]
    fn no_residuals_falls_back_to_default() {
        let db = HistoricalDatabase::new();
        let model = PrecisionModel::learn(&db, TimingMetric::Delay, &space());
        assert_eq!(model.anchors.len(), 0);
        assert_eq!(model.beta(&point(5.0, 2.0, 0.8)), BETA_DEFAULT);
    }

    #[test]
    fn single_technology_residuals_are_skipped() {
        let mut db = HistoricalDatabase::new();
        db.push(HistoricalRecord::new(
            "only",
            28,
            "INV_X1",
            "INV_X1/A0/FALL",
            TimingMetric::Delay,
            TimingParams::new(0.39, 1.0, -0.26, 0.09),
            1.0,
            vec![ConditionResidual {
                point: point(5.0, 2.0, 0.9),
                relative_residual: 0.02,
            }],
        ));
        let model = PrecisionModel::learn(&db, TimingMetric::Delay, &space());
        assert_eq!(
            model.anchors.len(),
            0,
            "cannot estimate a variance from one sample"
        );
    }

    #[test]
    fn flat_model_reports_constant_beta() {
        let model = PrecisionModel::flat(TimingMetric::OutputSlew, 900.0);
        assert_eq!(model.metric(), TimingMetric::OutputSlew);
        assert_eq!(model.beta(&point(1.0, 0.5, 0.7)), 900.0);
        assert_eq!(model.beta(&point(14.0, 5.5, 1.0)), 900.0);
        assert_eq!(model.beta(&point(5.0, 2.0, 0.8)), 900.0);
    }
}
