//! Damped Gauss–Newton / Levenberg–Marquardt extraction of the compact-model parameters.
//!
//! Both extraction flavors of the paper are built on the same solver:
//!
//! * **"Proposed Model + LSE"** — plain weighted least squares on the relative residuals
//!   `(T_obs − f(ξ, P))/T_obs`;
//! * **"Proposed Model + Bayesian Inference"** — the MAP problem of Eq. (15), which simply
//!   adds a Gaussian penalty `½(P − µ0)ᵀ Σ0⁻¹ (P − µ0)` and per-sample precisions `β(ξ)` to
//!   the same objective.  `slic-bayes` learns `µ0`, `Σ0` and `β` and calls
//!   [`LeastSquaresFitter::fit_weighted`] with a [`GaussianPenalty`].
//!
//! The model is mildly nonlinear in its parameters (products of `kd`, `V'` and `α`), so the
//! normal equations are re-linearized every iteration; with the paper's near-linear
//! parameterization the solver converges in a handful of steps.

use crate::model::{TimingParams, TimingSample, PARAM_COUNT};
use serde::{Deserialize, Serialize};
use slic_linalg::{Cholesky, LinalgError, Matrix, Vector};

/// Gaussian prior penalty `½ (p − mean)ᵀ Σ⁻¹ (p − mean)` added to the fit objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianPenalty {
    mean: Vector,
    /// Whitening matrix `W = L⁻¹` where `Σ = L·Lᵀ`; the penalty residual is `W·(p − mean)`.
    whitening: Matrix,
}

impl GaussianPenalty {
    /// Builds a penalty from a mean vector and covariance matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`LinalgError`] if the covariance is not symmetric positive definite or its
    /// dimension does not match the mean.
    pub fn from_covariance(mean: Vector, covariance: &Matrix) -> Result<Self, LinalgError> {
        if covariance.rows() != mean.len() || covariance.cols() != mean.len() {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "penalty mean has {} entries but covariance is {}x{}",
                    mean.len(),
                    covariance.rows(),
                    covariance.cols()
                ),
            });
        }
        let chol = Cholesky::decompose(covariance)?;
        // W = L^{-1}: solve L X = I column by column.
        let n = mean.len();
        let mut whitening = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = Vector::zeros(n);
            e[j] = 1.0;
            let col = chol.forward_substitute(&e);
            for i in 0..n {
                whitening[(i, j)] = col[i];
            }
        }
        Ok(Self { mean, whitening })
    }

    /// The prior mean.
    pub fn mean(&self) -> &Vector {
        &self.mean
    }

    /// Dimension of the penalized parameter vector.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Whitened residual `W·(p − mean)`.
    pub fn residual(&self, params: &Vector) -> Vector {
        self.whitening.mat_vec(&(params - &self.mean))
    }

    /// The whitening matrix (also the Jacobian of the penalty residual).
    pub fn jacobian(&self) -> &Matrix {
        &self.whitening
    }

    /// The penalty value `½‖W(p − mean)‖²`.
    pub fn cost(&self, params: &Vector) -> f64 {
        let r = self.residual(params);
        0.5 * r.dot(&r)
    }
}

/// Maximum number of Levenberg–Marquardt outer iterations.
const MAX_ITERATIONS: usize = 60;
/// Convergence threshold on the infinity norm of the parameter step.
const STEP_TOLERANCE: f64 = 1e-9;
/// Initial damping factor λ.
const INITIAL_LAMBDA: f64 = 1e-3;
/// Multiplier applied to λ after a rejected step.
const LAMBDA_UP: f64 = 8.0;
/// Multiplier applied to λ after an accepted step.
const LAMBDA_DOWN: f64 = 0.35;

/// Result of a parameter extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitResult {
    /// Extracted compact-model parameters.
    pub params: TimingParams,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Whether the step-size convergence criterion was met before hitting the iteration cap.
    pub converged: bool,
    /// Final value of the objective (half the weighted sum of squared residuals, including
    /// any prior penalty).
    pub cost: f64,
}

/// Parameter box keeping the optimizer inside the physically meaningful region.
///
/// Bounds are expressed in model units (`kd`, fF, V, fF/ps).  `V'` is bounded above −0.64 V
/// so that `Vdd + V'` stays positive over every supported supply range.
const PARAM_BOUNDS: [(f64, f64); PARAM_COUNT] =
    [(1e-3, 10.0), (-2.0, 50.0), (-0.6, 0.6), (-1.0, 5.0)];

/// Levenberg–Marquardt extractor for the four-parameter compact model.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastSquaresFitter;

impl LeastSquaresFitter {
    /// Creates a fitter.
    pub fn new() -> Self {
        Self
    }

    /// Plain relative least-squares extraction ("Proposed Model + LSE").
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn fit(&self, samples: &[TimingSample]) -> FitResult {
        let weights = vec![1.0; samples.len()];
        self.fit_weighted(samples, &weights, None, TimingParams::initial_guess())
    }

    /// Weighted extraction with an optional Gaussian prior (the MAP problem of Eq. 15).
    ///
    /// `weights[i]` multiplies the squared relative residual of sample `i`; for the MAP
    /// estimator it is the learned precision `β(ξ_i)`.  `start` is the initial iterate (the
    /// prior mean is the natural choice when a prior is supplied).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, if `weights` has a different length than `samples`, if
    /// any weight is negative or non-finite, or if a supplied prior does not have
    /// [`PARAM_COUNT`] dimensions.
    pub fn fit_weighted(
        &self,
        samples: &[TimingSample],
        weights: &[f64],
        prior: Option<&GaussianPenalty>,
        start: TimingParams,
    ) -> FitResult {
        assert!(!samples.is_empty(), "cannot fit to an empty sample set");
        assert_eq!(
            samples.len(),
            weights.len(),
            "one weight per sample required"
        );
        assert!(
            weights.iter().all(|w| *w >= 0.0 && w.is_finite()),
            "weights must be non-negative and finite"
        );
        if let Some(p) = prior {
            assert_eq!(p.dim(), PARAM_COUNT, "prior dimension must match the model");
        }

        let residual_fn = |p: &Vector| -> Vector {
            let params = TimingParams::from_vector(p);
            let mut rows: Vec<f64> = samples
                .iter()
                .zip(weights)
                .map(|(s, w)| w.sqrt() * params.relative_error(s))
                .collect();
            if let Some(pen) = prior {
                rows.extend(pen.residual(p).into_vec());
            }
            Vector::from(rows)
        };
        let jacobian_fn = |p: &Vector| -> Matrix {
            let params = TimingParams::from_vector(p);
            let n_rows = samples.len() + prior.map_or(0, |pen| pen.dim());
            let mut jac = Matrix::zeros(n_rows, PARAM_COUNT);
            for (i, (s, w)) in samples.iter().zip(weights).enumerate() {
                // r_i = sqrt(w) (obs - pred)/obs  =>  dr_i/dp = -sqrt(w)/obs * df/dp.
                let g = params.gradient(&s.point, s.ieff);
                let scale = -w.sqrt() / s.observed.value();
                for j in 0..PARAM_COUNT {
                    jac[(i, j)] = scale * g[j];
                }
            }
            if let Some(pen) = prior {
                let w = pen.jacobian();
                for i in 0..pen.dim() {
                    for j in 0..PARAM_COUNT {
                        jac[(samples.len() + i, j)] = w[(i, j)];
                    }
                }
            }
            jac
        };

        let (solution, iterations, converged, cost) =
            levenberg_marquardt(start.to_vector(), &PARAM_BOUNDS, residual_fn, jacobian_fn);
        FitResult {
            params: TimingParams::from_vector(&solution),
            iterations,
            converged,
            cost,
        }
    }
}

/// Bounded Levenberg–Marquardt driver.
///
/// Returns `(solution, iterations, converged, final_cost)`.
fn levenberg_marquardt(
    start: Vector,
    bounds: &[(f64, f64)],
    residual_fn: impl Fn(&Vector) -> Vector,
    jacobian_fn: impl Fn(&Vector) -> Matrix,
) -> (Vector, usize, bool, f64) {
    let clamp = |v: &Vector| -> Vector {
        Vector::from_fn(v.len(), |i| v[i].clamp(bounds[i].0, bounds[i].1))
    };
    let cost_of = |r: &Vector| 0.5 * r.dot(r);

    let mut p = clamp(&start);
    let mut r = residual_fn(&p);
    let mut cost = cost_of(&r);
    let mut lambda = INITIAL_LAMBDA;
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..MAX_ITERATIONS {
        iterations = iter + 1;
        let jac = jacobian_fn(&p);
        let jtj = jac.gram();
        let jtr = jac.transpose().mat_vec(&r);

        // Try steps with increasing damping until one reduces the cost.
        let mut accepted = false;
        for _ in 0..12 {
            // Marquardt scaling: λ·(diag(JᵀJ) + ε) keeps the step well-defined even when a
            // column of J is zero (e.g. fewer samples than parameters).
            let mut damped = jtj.clone();
            for i in 0..damped.rows() {
                damped[(i, i)] += lambda * (jtj[(i, i)] + 1e-12);
            }
            let step = match damped.solve(&(-&jtr)) {
                Ok(s) => s,
                Err(_) => {
                    lambda = (lambda * LAMBDA_UP).max(1e-9);
                    continue;
                }
            };
            let candidate = clamp(&p.axpy(1.0, &step));
            let r_new = residual_fn(&candidate);
            let cost_new = cost_of(&r_new);
            if cost_new.is_finite() && cost_new <= cost {
                let step_size = (&candidate - &p).norm_inf();
                p = candidate;
                r = r_new;
                cost = cost_new;
                lambda = (lambda * LAMBDA_DOWN).max(1e-12);
                accepted = true;
                if step_size < STEP_TOLERANCE {
                    converged = true;
                }
                break;
            }
            lambda = (lambda * LAMBDA_UP).max(1e-9);
        }
        if !accepted {
            // No productive step found at any damping level: declare convergence at the
            // current iterate.
            converged = true;
        }
        if converged {
            break;
        }
    }
    (p, iterations, converged, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TimingSample;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use slic_spice::InputPoint;
    use slic_units::{Amperes, Farads, Seconds, Volts};

    /// Generates synthetic samples from known parameters over a small grid, with optional
    /// multiplicative noise.
    fn synthetic_samples(
        truth: &TimingParams,
        noise: f64,
        seed: u64,
        n: usize,
    ) -> Vec<TimingSample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let sin = 1.0 + 14.0 * (i as f64 / n.max(2) as f64);
                let cload = 0.4 + 5.0 * ((i * 7 % n) as f64 / n as f64);
                let vdd = 0.65 + 0.35 * ((i * 3 % n) as f64 / n as f64);
                let point = InputPoint::new(
                    Seconds::from_picoseconds(sin),
                    Farads::from_femtofarads(cload),
                    Volts(vdd),
                );
                // Ieff varies with Vdd the way a real device's would (roughly quadratically).
                let ieff = Amperes(20e-6 + 60e-6 * (vdd - 0.5).powi(2) / 0.25);
                let clean = truth.evaluate(&point, ieff).value();
                let noisy = clean * (1.0 + noise * (rng.gen::<f64>() - 0.5) * 2.0);
                TimingSample::new(point, ieff, Seconds(noisy))
            })
            .collect()
    }

    fn truth() -> TimingParams {
        TimingParams::new(0.39, 0.95, -0.27, 0.09)
    }

    #[test]
    fn recovers_exact_parameters_from_clean_data() {
        let samples = synthetic_samples(&truth(), 0.0, 1, 30);
        let result = LeastSquaresFitter::new().fit(&samples);
        assert!(result.converged);
        assert!(result.params.mean_relative_error_percent(&samples) < 0.01);
        assert!((result.params.kd - truth().kd).abs() < 0.01);
        assert!((result.params.v_prime - truth().v_prime).abs() < 0.02);
    }

    #[test]
    fn fits_noisy_data_to_noise_floor() {
        let samples = synthetic_samples(&truth(), 0.03, 2, 60);
        let result = LeastSquaresFitter::new().fit(&samples);
        let err = result.params.mean_relative_error_percent(&samples);
        assert!(err < 3.0, "error {err}% should be at the noise floor");
    }

    #[test]
    fn underdetermined_fit_is_poor_but_finite() {
        // Two samples, four parameters: the LSE solution exists but generalizes badly —
        // exactly the regime where the Bayesian prior pays off (Fig. 6).
        let train = synthetic_samples(&truth(), 0.0, 3, 2);
        let test = synthetic_samples(&truth(), 0.0, 4, 50);
        let result = LeastSquaresFitter::new().fit(&train);
        assert!(result.cost.is_finite());
        let train_err = result.params.mean_relative_error_percent(&train);
        let test_err = result.params.mean_relative_error_percent(&test);
        assert!(
            train_err < 1.0,
            "training error should be tiny ({train_err}%)"
        );
        assert!(test_err.is_finite());
    }

    #[test]
    fn prior_pulls_underdetermined_fit_toward_truth() {
        // Use slew-like truth parameters that sit far from the generic initial guess: the
        // value of the historical prior is precisely that it knows which region of parameter
        // space this arc lives in, while the LSE baseline does not.
        let truth = TimingParams::new(1.05, 1.8, -0.12, 0.28);
        let train = synthetic_samples(&truth, 0.0, 5, 2);
        let test = synthetic_samples(&truth, 0.0, 6, 50);
        let fitter = LeastSquaresFitter::new();

        let lse = fitter.fit(&train);
        let lse_err = lse.params.mean_relative_error_percent(&test);

        // Prior centred near (but not exactly at) the truth, with a Table I-like spread.
        let prior_mean = Vector::from_slice(&[1.0, 1.7, -0.13, 0.26]);
        let prior_cov = Matrix::from_diagonal(&[0.01, 0.05, 0.002, 0.002]);
        let penalty = GaussianPenalty::from_covariance(prior_mean.clone(), &prior_cov).unwrap();
        // Realistic likelihood precisions: the historical model uncertainty is ~2 % of the
        // observed value, so beta = 1/0.02^2 — this is what slic-bayes learns from Eq. (9).
        let weights = vec![2500.0; train.len()];
        let map = fitter.fit_weighted(
            &train,
            &weights,
            Some(&penalty),
            TimingParams::from_vector(&prior_mean),
        );
        let map_err = map.params.mean_relative_error_percent(&test);
        assert!(
            map_err < lse_err,
            "MAP ({map_err}%) should beat LSE ({lse_err}%) with 2 samples"
        );
        assert!(map_err < 5.0, "MAP error should be small ({map_err}%)");
    }

    #[test]
    fn weights_emphasize_high_precision_samples() {
        // Corrupt one sample badly; give it a tiny weight and the fit should ignore it.
        let mut samples = synthetic_samples(&truth(), 0.0, 7, 20);
        let corrupted = TimingSample::new(
            samples[0].point,
            samples[0].ieff,
            Seconds(samples[0].observed.value() * 3.0),
        );
        samples[0] = corrupted;
        let fitter = LeastSquaresFitter::new();
        let mut weights = vec![1.0; samples.len()];
        weights[0] = 1e-6;
        let weighted = fitter.fit_weighted(&samples, &weights, None, TimingParams::initial_guess());
        let uniform = fitter.fit(&samples);
        let clean_tail = &samples[1..];
        assert!(
            weighted.params.mean_relative_error_percent(clean_tail)
                < uniform.params.mean_relative_error_percent(clean_tail)
        );
    }

    #[test]
    fn penalty_cost_and_residual_are_consistent() {
        let mean = Vector::from_slice(&[0.4, 1.0, -0.25, 0.08]);
        let cov = Matrix::from_diagonal(&[0.01, 0.04, 0.01, 0.004]);
        let pen = GaussianPenalty::from_covariance(mean.clone(), &cov).unwrap();
        assert_eq!(pen.dim(), 4);
        assert_eq!(pen.mean(), &mean);
        // At the mean the penalty is zero.
        assert!(pen.cost(&mean) < 1e-20);
        // One σ away in the first coordinate costs 0.5.
        let mut off = mean.clone();
        off[0] += 0.1; // σ = sqrt(0.01) = 0.1
        assert!((pen.cost(&off) - 0.5).abs() < 1e-9);
        let r = pen.residual(&off);
        assert!((0.5 * r.dot(&r) - pen.cost(&off)).abs() < 1e-12);
    }

    #[test]
    fn penalty_rejects_bad_covariance() {
        let mean = Vector::from_slice(&[0.4, 1.0, -0.25, 0.08]);
        let bad = Matrix::from_diagonal(&[0.01, -0.04, 0.01, 0.004]);
        assert!(GaussianPenalty::from_covariance(mean.clone(), &bad).is_err());
        let wrong_dim = Matrix::identity(3);
        assert!(GaussianPenalty::from_covariance(mean, &wrong_dim).is_err());
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_samples_rejected() {
        let _ = LeastSquaresFitter::new().fit(&[]);
    }

    #[test]
    fn bounds_are_respected() {
        // Pathological data trying to push V' below its bound.
        let point = InputPoint::new(
            Seconds::from_picoseconds(5.0),
            Farads::from_femtofarads(2.0),
            Volts(0.65),
        );
        let samples = vec![TimingSample::new(point, Amperes(40e-6), Seconds(1e-15))];
        let result = LeastSquaresFitter::new().fit(&samples);
        assert!(result.params.v_prime >= PARAM_BOUNDS[2].0);
        assert!(result.params.kd >= PARAM_BOUNDS[0].0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_fit_error_decreases_with_more_samples(seed in 0u64..200) {
            let small = synthetic_samples(&truth(), 0.02, seed, 4);
            let large = synthetic_samples(&truth(), 0.02, seed, 40);
            let test = synthetic_samples(&truth(), 0.0, seed.wrapping_add(1), 30);
            let fitter = LeastSquaresFitter::new();
            let err_small = fitter.fit(&small).params.mean_relative_error_percent(&test);
            let err_large = fitter.fit(&large).params.mean_relative_error_percent(&test);
            // More training data never hurts by much (tolerate small fluctuations).
            prop_assert!(err_large <= err_small + 1.0,
                         "err_large = {err_large}, err_small = {err_small}");
        }

        #[test]
        fn prop_converges_on_clean_grids(kd in 0.3f64..0.5, cpar in 0.7f64..1.5,
                                         vprime in -0.3f64..-0.15, alpha in 0.02f64..0.12) {
            let truth = TimingParams::new(kd, cpar, vprime, alpha);
            let samples = synthetic_samples(&truth, 0.0, 11, 25);
            let result = LeastSquaresFitter::new().fit(&samples);
            prop_assert!(result.params.mean_relative_error_percent(&samples) < 0.5);
        }
    }
}
