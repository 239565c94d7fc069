//! The four-parameter compact timing model: parameters, evaluation, residuals, Jacobians.

use serde::{Deserialize, Serialize};
use slic_linalg::Vector;
use slic_spice::InputPoint;
use slic_units::{Amperes, Farads, Seconds};
use std::fmt;

/// Number of parameters in the compact model.
pub const PARAM_COUNT: usize = 4;

/// Conversion factor from the model's `α` unit (fF/ps) to SI (F/s).
const ALPHA_TO_SI: f64 = 1.0e-3;

/// Conversion factor from the model's `Cpar` unit (fF) to SI (F).
const CPAR_TO_SI: f64 = 1.0e-15;

/// The compact-model parameter vector `{kd, Cpar, V', α}`.
///
/// Parameters are stored in the units used throughout the paper's Table I — `kd`
/// dimensionless, `Cpar` in femtofarads, `V'` in volts, `α` in fF/ps — which conveniently
/// puts all four on a comparable numeric scale (≈0.03–1.5), keeping every downstream
/// covariance and normal-equation matrix well conditioned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Dimensionless delay scaling factor.
    pub kd: f64,
    /// Parasitic output capacitance, in femtofarads.
    pub cpar: f64,
    /// Supply-voltage correction term, in volts (typically negative).
    pub v_prime: f64,
    /// Input-slew sensitivity coefficient, in fF/ps.
    pub alpha: f64,
}

impl TimingParams {
    /// Creates a parameter vector.
    pub fn new(kd: f64, cpar: f64, v_prime: f64, alpha: f64) -> Self {
        Self {
            kd,
            cpar,
            v_prime,
            alpha,
        }
    }

    /// A physically sensible starting point for extraction (close to the Table I values).
    pub fn initial_guess() -> Self {
        Self::new(0.4, 1.0, -0.25, 0.08)
    }

    /// Converts to a dense vector `[kd, cpar, v_prime, alpha]`.
    pub fn to_vector(self) -> Vector {
        Vector::from_slice(&[self.kd, self.cpar, self.v_prime, self.alpha])
    }

    /// Builds parameters from a dense vector `[kd, cpar, v_prime, alpha]`.
    ///
    /// # Panics
    ///
    /// Panics if the vector does not have exactly [`PARAM_COUNT`] entries.
    pub fn from_vector(v: &Vector) -> Self {
        assert_eq!(v.len(), PARAM_COUNT, "parameter vector must have 4 entries");
        Self::new(v[0], v[1], v[2], v[3])
    }

    /// The charge-like factor `Cload + Cpar + α·Sin` in farads.
    pub fn effective_capacitance(&self, point: &InputPoint) -> Farads {
        Farads(
            point.cload.value()
                + self.cpar * CPAR_TO_SI
                + self.alpha * ALPHA_TO_SI * point.sin.value(),
        )
    }

    /// The switched charge `ΔQ = (Vdd + V')·(Cload + Cpar + α·Sin)` in coulombs.
    pub fn delta_q(&self, point: &InputPoint) -> f64 {
        (point.vdd.value() + self.v_prime) * self.effective_capacitance(point).value()
    }

    /// Evaluates the model: `T = kd · ΔQ / Ieff`.
    ///
    /// The result can be a delay or an output slew depending on which quantity the
    /// parameters were extracted for.
    pub fn evaluate(&self, point: &InputPoint, ieff: Amperes) -> Seconds {
        Seconds(self.kd * self.delta_q(point) / ieff.value())
    }

    /// Residual `observed − predicted` for one sample, in seconds.
    pub fn residual(&self, sample: &TimingSample) -> f64 {
        sample.observed.value() - self.evaluate(&sample.point, sample.ieff).value()
    }

    /// Relative residual `(observed − predicted)/observed` for one sample.
    pub fn relative_error(&self, sample: &TimingSample) -> f64 {
        self.residual(sample) / sample.observed.value()
    }

    /// Mean absolute relative fitting error over a sample set, in percent (the "% error"
    /// column of Table I).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn mean_relative_error_percent(&self, samples: &[TimingSample]) -> f64 {
        assert!(!samples.is_empty(), "fit error over empty sample set");
        100.0
            * samples
                .iter()
                .map(|s| self.relative_error(s).abs())
                .sum::<f64>()
            / samples.len() as f64
    }

    /// Gradient of the model prediction with respect to the parameters
    /// `[∂f/∂kd, ∂f/∂Cpar, ∂f/∂V', ∂f/∂α]`, in seconds per parameter unit.
    pub fn gradient(&self, point: &InputPoint, ieff: Amperes) -> Vector {
        let i = ieff.value();
        let v_term = point.vdd.value() + self.v_prime;
        let c_term = self.effective_capacitance(point).value();
        Vector::from_slice(&[
            v_term * c_term / i,
            self.kd * v_term * CPAR_TO_SI / i,
            self.kd * c_term / i,
            self.kd * v_term * ALPHA_TO_SI * point.sin.value() / i,
        ])
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::initial_guess()
    }
}

impl fmt::Display for TimingParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kd = {:.3}, Cpar = {:.3} fF, V' = {:.3} V, alpha = {:.3} fF/ps",
            self.kd, self.cpar, self.v_prime, self.alpha
        )
    }
}

/// One observation used for extraction: an input condition, the corresponding effective
/// current, and the observed delay or slew.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingSample {
    /// The input condition `ξ`.
    pub point: InputPoint,
    /// Effective switching current of the arc's driving device at this condition.
    pub ieff: Amperes,
    /// Observed delay or output slew.
    pub observed: Seconds,
}

impl TimingSample {
    /// Creates a sample.
    ///
    /// # Panics
    ///
    /// Panics if the current or the observation is not positive and finite.
    pub fn new(point: InputPoint, ieff: Amperes, observed: Seconds) -> Self {
        assert!(
            ieff.value() > 0.0 && ieff.is_finite(),
            "effective current must be positive and finite"
        );
        assert!(
            observed.value() > 0.0 && observed.is_finite(),
            "observed timing value must be positive and finite"
        );
        Self {
            point,
            ieff,
            observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slic_units::Volts;

    fn point(sin_ps: f64, cload_ff: f64, vdd: f64) -> InputPoint {
        InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(vdd),
        )
    }

    fn table1_like_params() -> TimingParams {
        TimingParams::new(0.389, 0.951, -0.266, 0.092)
    }

    #[test]
    fn evaluation_matches_hand_computation() {
        let p = TimingParams::new(0.4, 1.0, -0.25, 0.1);
        let pt = point(5.0, 2.0, 0.8);
        let ieff = Amperes(40e-6);
        // ceff = 2 fF + 1 fF + 0.1 fF/ps * 5 ps = 3.5 fF; dq = 0.55 V * 3.5 fF = 1.925 fC;
        // t = 0.4 * 1.925 fC / 40 uA = 19.25 ps.
        let expected_ps = 0.4 * 0.55 * 3.5e-15 / 40e-6 * 1e12;
        let got = p.evaluate(&pt, ieff).picoseconds();
        assert!(
            (got - expected_ps).abs() < 1e-9,
            "got {got}, expected {expected_ps}"
        );
        assert!((p.effective_capacitance(&pt).femtofarads() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn vector_round_trip() {
        let p = table1_like_params();
        let v = p.to_vector();
        assert_eq!(v.len(), PARAM_COUNT);
        let back = TimingParams::from_vector(&v);
        assert_eq!(p, back);
    }

    #[test]
    #[should_panic(expected = "4 entries")]
    fn wrong_vector_length_rejected() {
        let _ = TimingParams::from_vector(&Vector::zeros(3));
    }

    #[test]
    fn residuals_and_errors() {
        let p = table1_like_params();
        let pt = point(3.0, 1.5, 0.9);
        let ieff = Amperes(55e-6);
        let truth = p.evaluate(&pt, ieff);
        let sample = TimingSample::new(pt, ieff, truth);
        assert!(p.residual(&sample).abs() < 1e-25);
        assert!(p.relative_error(&sample).abs() < 1e-12);
        // A 10 % larger observation gives a 10 %-ish relative error.
        let inflated = TimingSample::new(pt, ieff, Seconds(truth.value() * 1.1));
        assert!((p.relative_error(&inflated) - 0.1 / 1.1).abs() < 1e-9);
        assert!(
            (p.mean_relative_error_percent(&[sample, inflated]) - 100.0 * (0.1 / 1.1) / 2.0).abs()
                < 1e-6
        );
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let p = table1_like_params();
        let pt = point(7.0, 2.5, 0.75);
        let ieff = Amperes(35e-6);
        let analytic = p.gradient(&pt, ieff);
        let h = [1e-6, 1e-6, 1e-7, 1e-6];
        let base_vec = p.to_vector();
        for j in 0..PARAM_COUNT {
            let mut plus = base_vec.clone();
            plus[j] += h[j];
            let mut minus = base_vec.clone();
            minus[j] -= h[j];
            let fd = (TimingParams::from_vector(&plus).evaluate(&pt, ieff).value()
                - TimingParams::from_vector(&minus)
                    .evaluate(&pt, ieff)
                    .value())
                / (2.0 * h[j]);
            let denom = analytic[j].abs().max(1e-30);
            assert!(
                (analytic[j] - fd).abs() / denom < 1e-5,
                "component {j}: analytic {}, fd {}",
                analytic[j],
                fd
            );
        }
    }

    #[test]
    fn display_shows_all_parameters() {
        let text = format!("{}", table1_like_params());
        for token in ["kd", "Cpar", "V'", "alpha"] {
            assert!(text.contains(token), "missing {token} in {text}");
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn sample_rejects_nonpositive_observation() {
        let _ = TimingSample::new(point(5.0, 2.0, 0.8), Amperes(40e-6), Seconds(0.0));
    }

    proptest! {
        #[test]
        fn prop_delay_increases_with_load(cload1 in 0.3f64..6.0, cload2 in 0.3f64..6.0,
                                          sin in 1.0f64..15.0, vdd in 0.65f64..1.0) {
            let p = table1_like_params();
            let ieff = Amperes(40e-6);
            let (lo, hi) = if cload1 <= cload2 { (cload1, cload2) } else { (cload2, cload1) };
            let t_lo = p.evaluate(&point(sin, lo, vdd), ieff).value();
            let t_hi = p.evaluate(&point(sin, hi, vdd), ieff).value();
            prop_assert!(t_hi >= t_lo);
        }

        #[test]
        fn prop_delay_scales_inversely_with_current(scale in 0.5f64..4.0,
                                                    sin in 1.0f64..15.0,
                                                    cload in 0.3f64..6.0,
                                                    vdd in 0.65f64..1.0) {
            let p = table1_like_params();
            let pt = point(sin, cload, vdd);
            let base = p.evaluate(&pt, Amperes(40e-6)).value();
            let scaled = p.evaluate(&pt, Amperes(40e-6 * scale)).value();
            prop_assert!((scaled * scale - base).abs() < 1e-9 * base.abs().max(1e-30) * scale.max(1.0) * 10.0);
        }

        #[test]
        fn prop_gradient_kd_component_is_prediction_over_kd(sin in 1.0f64..15.0,
                                                            cload in 0.3f64..6.0,
                                                            vdd in 0.65f64..1.0) {
            let p = table1_like_params();
            let pt = point(sin, cload, vdd);
            let ieff = Amperes(40e-6);
            let g = p.gradient(&pt, ieff);
            let f = p.evaluate(&pt, ieff).value();
            prop_assert!((g[0] - f / p.kd).abs() < 1e-9 * (f / p.kd).abs());
        }
    }
}
