//! Adaptive-step transient simulation of a single switching event.
//!
//! The circuit being integrated is the cell's equivalent inverter (Fig. 1(b) of the paper)
//! driving its output load:
//!
//! ```text
//!            Vdd
//!             |
//!          [ PMOS ]  vgs_p = Vdd − vin,  vds_p = Vdd − vout
//!             |
//!   vin ──────┼────────── vout ──┬─────────┐
//!             |                  |         |
//!          [ NMOS ]            Cload   Cpar (+ Miller Cm)
//!             |                  |         |
//!            GND                GND       GND
//! ```
//!
//! The single state variable is the output voltage; the input is an ideal voltage ramp with
//! the requested slew.  The ODE `C_tot · dVout/dt = I_pmos − I_nmos + Cm · dVin/dt` is
//! integrated with the **Bogacki–Shampine 3(2) embedded pair**: each step produces a
//! third-order solution plus a second-order error estimate from the same stages, a PI
//! controller adapts the step size to hold the local truncation error at a budget derived
//! from the configuration, and the FSAL (first-same-as-last) property reuses the final
//! stage of an accepted step as the first stage of the next — three derivative evaluations
//! per accepted step instead of the five the seed RK4 kernel paid.  The 20 % / 50 % / 80 %
//! crossing times are recovered by bisecting the cubic Hermite interpolant of each step
//! (the stage derivatives at both step ends are already available), which keeps the
//! measured delay and slew accurate even at the larger steps the error controller allows.
//!
//! All device physics is evaluated through [`CompiledInverter`]: the per-simulation model
//! constants are hoisted once per lane, and the inner loop runs on raw `f64` with no unit
//! wrappers and no `powf`.
//!
//! The seed's classical RK4 kernel is kept, bit-compatible, as
//! [`simulate_switching_rk4`]: it is the golden reference the parity suite and the bench
//! regression gate compare against.

use crate::input::InputPoint;
use crate::measure::{
    TimingMeasurement, DELAY_THRESHOLD, SLEW_HIGH_THRESHOLD, SLEW_LOW_THRESHOLD, SLEW_SCALE,
};
use serde::{Deserialize, Serialize};
use slic_cells::{EquivalentInverter, TimingArc, Transition};
use slic_device::CompiledInverter;
use slic_units::Seconds;
use std::error::Error;
use std::fmt;

/// Tuning knobs of the transient solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransientConfig {
    /// Maximum output-voltage change allowed per step, as a fraction of `Vdd`.  The
    /// embedded-pair integrator derives its local-truncation-error budget from this same
    /// knob, so one configuration keys both kernels (and the simulation cache).
    pub dv_max_fraction: f64,
    /// Stimulus-resolution knob: the RK4 reference kernel caps its ramp steps at
    /// `ramp_time / min_steps_per_ramp` (so it takes at least this many steps across the
    /// input ramp).  The embedded-pair kernel senses the stimulus through its error
    /// estimate and lands exactly on the ramp-end kink, so it derives a 16×-relaxed cap
    /// from the same knob and may resolve the ramp in as few as `min_steps_per_ramp / 16`
    /// steps.
    pub min_steps_per_ramp: usize,
    /// Simulation horizon as a multiple of the estimated switching time constant.
    pub max_time_factor: f64,
    /// Gate-to-drain (Miller) coupling capacitance as a fraction of the cell input
    /// capacitance.
    pub miller_fraction: f64,
}

impl TransientConfig {
    /// Accuracy-oriented settings used for baseline ("golden") characterization.
    pub fn accurate() -> Self {
        Self {
            dv_max_fraction: 1.0 / 400.0,
            min_steps_per_ramp: 200,
            max_time_factor: 80.0,
            miller_fraction: 0.25,
        }
    }

    /// Faster settings for large Monte Carlo sweeps; roughly 3× fewer device evaluations at
    /// a delay error well below 1 %.
    pub fn fast() -> Self {
        Self {
            dv_max_fraction: 1.0 / 150.0,
            min_steps_per_ramp: 80,
            max_time_factor: 80.0,
            miller_fraction: 0.25,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.dv_max_fraction > 0.0 && self.dv_max_fraction < 0.1) {
            return Err("dv_max_fraction must be in (0, 0.1)".to_string());
        }
        if self.min_steps_per_ramp < 10 {
            return Err("min_steps_per_ramp must be at least 10".to_string());
        }
        if self.max_time_factor < 5.0 {
            return Err("max_time_factor must be at least 5".to_string());
        }
        if !(0.0..1.0).contains(&self.miller_fraction) {
            return Err("miller_fraction must be in [0, 1)".to_string());
        }
        Ok(())
    }
}

impl Default for TransientConfig {
    fn default() -> Self {
        Self::accurate()
    }
}

/// Error returned when a switching simulation cannot produce a measurement.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TransientError {
    /// The output never completed its transition within the simulation horizon — typically
    /// a sign that the supply is far below threshold or the load is unrealistically large.
    IncompleteTransition {
        /// The horizon that was simulated, in seconds.
        horizon: f64,
        /// The last output voltage reached, in volts.
        last_output: f64,
    },
    /// The configuration failed validation.
    InvalidConfig(String),
}

impl fmt::Display for TransientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransientError::IncompleteTransition { horizon, last_output } => write!(
                f,
                "output transition incomplete after {horizon:.3e} s (last output {last_output:.3} V)"
            ),
            TransientError::InvalidConfig(msg) => write!(f, "invalid transient config: {msg}"),
        }
    }
}

impl Error for TransientError {}

/// Per-simulation instrumentation: how much work one transient integration performed.
///
/// `device_evals` counts individual transistor-model evaluations (each derivative
/// evaluation of the output node costs two — one PMOS, one NMOS); this is the quantity the
/// `BENCH_transient.json` artifact reports as `device_evals_per_sim`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransientStats {
    /// Accepted integration steps.
    pub steps: u64,
    /// Step attempts rejected by the embedded error estimate (always zero for the RK4
    /// reference kernel, which has no error control).
    pub rejected_steps: u64,
    /// Transistor-model evaluations.
    pub device_evals: u64,
}

impl TransientStats {
    pub(crate) fn add_derivative_evals(&mut self, n: u64) {
        self.device_evals += 2 * n;
    }

    /// Folds another simulation's counters into this aggregate.
    pub fn merge(&mut self, other: &TransientStats) {
        self.steps += other.steps;
        self.rejected_steps += other.rejected_steps;
        self.device_evals += other.device_evals;
    }
}

/// The outcome of one integrated lane: the measurement and its work counters, or the
/// lane's own integration failure.
pub type LaneResult = Result<(TimingMeasurement, TransientStats), TransientError>;

// Embedded-pair step-control constants.  ALPHA/BETA are the standard PI exponents for a
// third-order method; the LTE budget ties the controller to the same `dv_max_fraction`
// knob that sizes the RK4 reference steps, at a fraction small enough that the pair's
// dense-output measurements stay within 0.5 % of the reference across the parity grid.
const SAFETY: f64 = 0.9;
const PI_ALPHA: f64 = 0.7 / 3.0;
const PI_BETA: f64 = 0.4 / 3.0;
const MIN_SHRINK: f64 = 0.2;
const MAX_GROWTH: f64 = 5.0;
const LTE_BUDGET_FRACTION: f64 = 0.01;
/// The error-controlled integrator may take ramp steps this many times larger than the
/// RK4 stimulus-resolution cap: the embedded estimate senses the stimulus through the
/// derivative, and the ramp-end kink is stepped onto exactly, so the hard cap only guards
/// against skipping the ramp entirely.
const RAMP_CAP_RELAX: f64 = 16.0;
/// Bisection iterations when locating a threshold crossing on the cubic Hermite
/// interpolant of one step (resolves the crossing to `dt · 2⁻³²`).
const HERMITE_BISECTIONS: u32 = 32;

/// Everything about one `(equivalent inverter, arc, input point, config)` simulation that
/// is constant across integration steps, pre-computed once per lane.
#[derive(Debug, Clone)]
pub(crate) struct TransientProblem {
    pub(crate) vdd: f64,
    pub(crate) ramp_time: f64,
    pub(crate) inv_ramp_time: f64,
    /// Signed `dVin/dt` during the ramp.
    pub(crate) ramp_slope: f64,
    pub(crate) input_rising: bool,
    output_rising: bool,
    pub(crate) cm: f64,
    pub(crate) inv_c_total: f64,
    pub(crate) inv: CompiledInverter,
    horizon: f64,
    dv_max: f64,
    dt_min: f64,
    /// RK4 stimulus-resolution cap during the ramp.
    dt_ramp: f64,
    /// Error-controlled-integrator cap during the ramp.
    dt_ramp_relaxed: f64,
    /// Step cap after the ramp (both kernels).
    dt_tail_cap: f64,
    /// Local-truncation-error budget per step, in volts.
    err_tol: f64,
    thresholds: [f64; 3],
    v0: f64,
}

impl TransientProblem {
    pub(crate) fn new(
        eq: &EquivalentInverter,
        arc: &TimingArc,
        point: &InputPoint,
        config: &TransientConfig,
    ) -> Self {
        let vdd = point.vdd.value();
        let ramp_time = point.sin.value();
        let output_rising = arc.output_transition() == Transition::Rise;
        let input_rising = !output_rising;

        // Total capacitance on the output node.
        let cm = config.miller_fraction * eq.input_cap().value();
        let c_total = point.cload.value() + eq.output_parasitic_cap().value() + cm;

        // Time-step bounds: resolve the ramp, then adapt to the output slope.
        let drive = eq.driving_device(arc.output_transition());
        let i_drive = drive.idsat(point.vdd).value().max(1e-12);
        let tau = c_total * vdd / i_drive;
        let horizon = ramp_time + config.max_time_factor * tau;
        let dt_ramp = ramp_time / config.min_steps_per_ramp as f64;
        let dt_min = (tau / 2_000.0).min(dt_ramp);
        let dv_max = config.dv_max_fraction * vdd;

        // Threshold set, expressed as absolute voltages in crossing order.
        let thresholds = if output_rising {
            [
                SLEW_LOW_THRESHOLD * vdd,
                DELAY_THRESHOLD * vdd,
                SLEW_HIGH_THRESHOLD * vdd,
            ]
        } else {
            [
                SLEW_HIGH_THRESHOLD * vdd,
                DELAY_THRESHOLD * vdd,
                SLEW_LOW_THRESHOLD * vdd,
            ]
        };

        Self {
            vdd,
            ramp_time,
            inv_ramp_time: 1.0 / ramp_time,
            ramp_slope: if input_rising {
                vdd / ramp_time
            } else {
                -vdd / ramp_time
            },
            input_rising,
            output_rising,
            cm,
            inv_c_total: 1.0 / c_total,
            inv: CompiledInverter::new(eq.pmos(), eq.nmos()),
            horizon,
            dv_max,
            dt_min,
            dt_ramp,
            dt_ramp_relaxed: dt_ramp * RAMP_CAP_RELAX,
            dt_tail_cap: tau / 20.0,
            err_tol: LTE_BUDGET_FRACTION * dv_max,
            thresholds,
            v0: if output_rising { 0.0 } else { vdd },
        }
    }

    /// The output-voltage derivative `dVout/dt` at `(t, vout)`: two compiled-device
    /// evaluations plus the Miller feed-through of the input ramp.
    #[inline]
    fn f(&self, t: f64, vout: f64) -> f64 {
        let x = (t * self.inv_ramp_time).clamp(0.0, 1.0);
        let vin = if self.input_rising {
            self.vdd * x
        } else {
            self.vdd * (1.0 - x)
        };
        let dvin_dt = if t < 0.0 || t > self.ramp_time {
            0.0
        } else {
            self.ramp_slope
        };
        (self.inv.output_current(self.vdd, vin, vout) + self.cm * dvin_dt) * self.inv_c_total
    }

    /// Whether `threshold` is crossed when the output moves from `v` to `v_next`.
    #[inline]
    fn crossed(&self, threshold: f64, v: f64, v_next: f64) -> bool {
        if self.output_rising {
            v < threshold && v_next >= threshold
        } else {
            v > threshold && v_next <= threshold
        }
    }
}

/// The integration state of one simulation lane.
///
/// The one-lane integrator ([`integrate`]) drives a lane through [`step`](Self::step), and
/// the SIMD quad worklist through [`finish_attempt`](Self::finish_attempt), the tail of
/// every `step` attempt.
#[derive(Debug, Clone)]
pub(crate) struct LaneState {
    pub(crate) t: f64,
    pub(crate) v: f64,
    /// Proposed size of the next step.
    dt: f64,
    /// FSAL derivative: `f(t, v)`, carried over from the last accepted step.
    pub(crate) k1: f64,
    /// Error norm of the previous accepted step (PI controller memory).
    err_prev: f64,
    crossings: [Option<f64>; 3],
    finished: bool,
    stats: TransientStats,
}

impl LaneState {
    pub(crate) fn new(p: &TransientProblem) -> Self {
        let mut stats = TransientStats::default();
        let k1 = p.f(0.0, p.v0);
        stats.add_derivative_evals(1);
        let slope = k1.abs().max(1e-30);
        let dt = (p.dv_max / slope).clamp(p.dt_min, p.dt_ramp_relaxed.min(p.ramp_time));
        Self {
            t: 0.0,
            v: p.v0,
            dt,
            k1,
            err_prev: 1.0,
            crossings: [None; 3],
            finished: false,
            stats,
        }
    }

    pub(crate) fn finished(&self) -> bool {
        self.finished
    }

    /// Advances the lane by one *accepted* Bogacki–Shampine step (rejected attempts loop
    /// internally), records threshold crossings from the step's Hermite interpolant, and
    /// retires the lane once every crossing is found or the horizon is reached.
    pub(crate) fn step(&mut self, p: &TransientProblem) {
        debug_assert!(!self.finished, "stepping a retired lane");
        loop {
            let dt = self.propose_dt(p);

            // Bogacki–Shampine 3(2) stages; k1 is inherited (FSAL).
            let k1 = self.k1;
            let k2 = p.f(self.t + 0.5 * dt, self.v + 0.5 * dt * k1);
            let k3 = p.f(self.t + 0.75 * dt, self.v + 0.75 * dt * k2);
            let v_next = self.v + dt * ((2.0 / 9.0) * k1 + (1.0 / 3.0) * k2 + (4.0 / 9.0) * k3);
            let t_next = self.t + dt;
            let k4 = p.f(t_next, v_next);

            if self.finish_attempt(p, dt, k2, k3, k4, v_next, t_next) {
                return;
            }
        }
    }

    /// The step size the next attempt will actually take: the stored proposal clamped into
    /// the regime cap, then truncated to land exactly on the ramp-end derivative kink when
    /// the step would straddle it.
    pub(crate) fn propose_dt(&self, p: &TransientProblem) -> f64 {
        let dt_cap = if self.t < p.ramp_time {
            p.dt_ramp_relaxed
        } else {
            p.dt_tail_cap
        };
        let mut dt = self.dt.clamp(p.dt_min, dt_cap);
        if self.t < p.ramp_time && self.t + dt > p.ramp_time {
            dt = p.ramp_time - self.t;
        }
        dt
    }

    /// Completes one step attempt whose stages were already evaluated (by the scalar
    /// derivative or by the SIMD quad kernel): error estimate, accept/reject decision, PI
    /// controller update, crossing recording and retirement.  Returns `true` when the
    /// attempt was accepted.
    ///
    /// The scalar [`step`](Self::step) loop and the SIMD worklist share this method, so
    /// the two modes differ *only* in how the stage derivatives are computed.
    #[expect(
        clippy::too_many_arguments,
        reason = "the flat stage bundle is the point: no per-attempt struct allocation"
    )]
    pub(crate) fn finish_attempt(
        &mut self,
        p: &TransientProblem,
        dt: f64,
        k2: f64,
        k3: f64,
        k4: f64,
        v_next: f64,
        t_next: f64,
    ) -> bool {
        let k1 = self.k1;
        self.stats.add_derivative_evals(3);

        // Embedded second-order error estimate.
        let err = (dt
            * ((-5.0 / 72.0) * k1 + (1.0 / 12.0) * k2 + (1.0 / 9.0) * k3 - (1.0 / 8.0) * k4))
            .abs();
        let err_norm = err / p.err_tol;

        if err_norm <= 1.0 || dt <= p.dt_min {
            // Accept.  PI controller proposes the next step from this error and the
            // previous accepted one.
            self.stats.steps += 1;
            let growth = if err_norm > 0.0 {
                (SAFETY * err_norm.powf(-PI_ALPHA) * self.err_prev.powf(PI_BETA))
                    .clamp(MIN_SHRINK, MAX_GROWTH)
            } else {
                MAX_GROWTH
            };
            self.dt = dt * growth;
            self.err_prev = err_norm.max(1e-4);

            self.record_crossings(p, dt, v_next, k1, k4);
            self.t = t_next;
            self.v = v_next;
            self.k1 = k4;
            if self.crossings.iter().all(Option::is_some) || self.t >= p.horizon {
                self.finished = true;
            }
            return true;
        }
        // Reject: shrink and retry from the same state (k1 stays valid).
        self.stats.rejected_steps += 1;
        self.dt = dt * (SAFETY * err_norm.powf(-PI_ALPHA)).clamp(MIN_SHRINK, 1.0);
        false
    }

    /// Records any thresholds crossed inside the accepted step `[t, t + dt]` by bisecting
    /// the step's cubic Hermite interpolant.
    fn record_crossings(&mut self, p: &TransientProblem, dt: f64, v_next: f64, k1: f64, k4: f64) {
        for (idx, &threshold) in p.thresholds.iter().enumerate() {
            if self.crossings[idx].is_none() && p.crossed(threshold, self.v, v_next) {
                let s = hermite_crossing(self.v, v_next, dt * k1, dt * k4, threshold);
                self.crossings[idx] = Some(self.t + s * dt);
            }
        }
    }

    /// Consumes the retired lane into a measurement (or an incomplete-transition error).
    pub(crate) fn into_result(self, p: &TransientProblem) -> LaneResult {
        let (first, mid, last) = match self.crossings {
            [Some(a), Some(b), Some(c)] => (a, b, c),
            _ => {
                return Err(TransientError::IncompleteTransition {
                    horizon: p.horizon,
                    last_output: self.v,
                })
            }
        };
        // Delay: 50 % input to 50 % output.  The input crosses 50 % at half the ramp.
        // Extremely fast cells driven by very slow ramps can nominally cross before the
        // input midpoint; clamp to one femtosecond to keep the measurement physical.  The
        // slew window carries the same floor: the Hermite interpolant is not forced
        // monotone, so adjacent crossings could in principle coincide.
        let delay = (mid - 0.5 * p.ramp_time).max(1e-15);
        let slew = ((last - first) * SLEW_SCALE).max(1e-15);
        Ok((
            TimingMeasurement::new(Seconds(delay), Seconds(slew)),
            self.stats,
        ))
    }
}

/// Locates a threshold crossing on the cubic Hermite interpolant of one step.
///
/// `m0`/`m1` are the endpoint derivatives already scaled by the step size (`dt·k`).
/// Returns the crossing position `s ∈ [0, 1]`; the endpoints are known to bracket the
/// threshold, so plain bisection converges unconditionally and deterministically.
fn hermite_crossing(v0: f64, v1: f64, m0: f64, m1: f64, threshold: f64) -> f64 {
    let eval = |s: f64| -> f64 {
        let s2 = s * s;
        let s3 = s2 * s;
        let h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
        let h10 = s3 - 2.0 * s2 + s;
        let h01 = -2.0 * s3 + 3.0 * s2;
        let h11 = s3 - s2;
        h00 * v0 + h10 * m0 + h01 * v1 + h11 * m1 - threshold
    };
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    let sign_lo = eval(lo) <= 0.0;
    for _ in 0..HERMITE_BISECTIONS {
        let mid = 0.5 * (lo + hi);
        if (eval(mid) <= 0.0) == sign_lo {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Integrates one pre-built problem with the embedded-pair kernel.
pub(crate) fn integrate(p: &TransientProblem) -> LaneResult {
    let mut lane = LaneState::new(p);
    while !lane.finished() {
        lane.step(p);
    }
    lane.into_result(p)
}

/// Integrates one pre-built problem with the seed's classical RK4 kernel (the golden
/// reference).  The step-size probe of the seed is folded into the first stage: `k1` *is*
/// the slope the step size is derived from, which removes the duplicated derivative
/// evaluation the seed paid without changing the trajectory.
fn integrate_rk4(p: &TransientProblem) -> LaneResult {
    let mut stats = TransientStats::default();
    let mut crossings = [None::<f64>; 3];
    let mut t = 0.0_f64;
    let mut v = p.v0;

    while t < p.horizon {
        // Choose the step from the local slope, clamped into [dt_min, dt_ramp] during the
        // ramp and up to tau/20 afterwards.  The probe doubles as the first RK4 stage.
        let k1 = p.f(t, v);
        let slope = k1.abs().max(1e-30);
        let dt_cap = if t < p.ramp_time {
            p.dt_ramp
        } else {
            p.dt_tail_cap
        };
        let dt = (p.dv_max / slope).clamp(p.dt_min, dt_cap);

        let k2 = p.f(t + 0.5 * dt, v + 0.5 * dt * k1);
        let k3 = p.f(t + 0.5 * dt, v + 0.5 * dt * k2);
        let k4 = p.f(t + dt, v + dt * k3);
        stats.add_derivative_evals(4);
        stats.steps += 1;
        let v_next = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        let t_next = t + dt;

        // Record threshold crossings by linear interpolation inside the step.
        for (idx, &threshold) in p.thresholds.iter().enumerate() {
            if crossings[idx].is_none() && p.crossed(threshold, v, v_next) {
                let frac = (threshold - v) / (v_next - v);
                crossings[idx] = Some(t + frac * dt);
            }
        }

        v = v_next;
        t = t_next;

        if crossings.iter().all(Option::is_some) {
            break;
        }
    }

    let (first, mid, last) = match crossings {
        [Some(a), Some(b), Some(c)] => (a, b, c),
        _ => {
            return Err(TransientError::IncompleteTransition {
                horizon: p.horizon,
                last_output: v,
            })
        }
    };
    let delay = (mid - 0.5 * p.ramp_time).max(1e-15);
    let slew = (last - first) * SLEW_SCALE;
    Ok((TimingMeasurement::new(Seconds(delay), Seconds(slew)), stats))
}

/// Simulates one switching event and measures delay and output slew.
///
/// `arc` selects which output transition is simulated; the input stimulus direction is the
/// complement (the equivalent inverter is inverting by construction).
///
/// This is the one-shot scalar reference and validates `config` on every call; batches of
/// simulations run through [`LocalBackend`](crate::backend::LocalBackend), whose lanes are
/// bitwise identical to this function.
///
/// # Errors
///
/// Returns [`TransientError::IncompleteTransition`] if the output does not complete its
/// swing within the configured horizon, or [`TransientError::InvalidConfig`] if `config`
/// fails validation.
pub fn simulate_switching(
    eq: &EquivalentInverter,
    arc: &TimingArc,
    point: &InputPoint,
    config: &TransientConfig,
) -> Result<TimingMeasurement, TransientError> {
    config.validate().map_err(TransientError::InvalidConfig)?;
    integrate(&TransientProblem::new(eq, arc, point, config)).map(|(m, _)| m)
}

/// Simulates one switching event with the seed's classical RK4 kernel, returning the
/// measurement with its integration-work counters.
///
/// Kept as the golden reference: the parity test suite asserts the embedded-pair kernel
/// stays within 0.5 % of this trajectory's measurements, and `BENCH_transient.json`
/// reports speedups against its throughput.
///
/// # Errors
///
/// Same conditions as [`simulate_switching`].
pub fn simulate_switching_rk4(
    eq: &EquivalentInverter,
    arc: &TimingArc,
    point: &InputPoint,
    config: &TransientConfig,
) -> LaneResult {
    config.validate().map_err(TransientError::InvalidConfig)?;
    integrate_rk4(&TransientProblem::new(eq, arc, point, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slic_cells::{Cell, CellKind, DriveStrength};
    use slic_device::TechnologyNode;
    use slic_units::{Farads, Volts};

    fn setup(kind: CellKind) -> (TechnologyNode, EquivalentInverter, Cell) {
        let tech = TechnologyNode::n14_finfet();
        let cell = Cell::new(kind, DriveStrength::X1);
        let eq = EquivalentInverter::nominal(&tech, cell);
        (tech, eq, cell)
    }

    fn point(sin_ps: f64, cload_ff: f64, vdd: f64) -> InputPoint {
        InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(vdd),
        )
    }

    #[test]
    fn config_validation() {
        assert!(TransientConfig::accurate().validate().is_ok());
        assert!(TransientConfig::fast().validate().is_ok());
        let bad = TransientConfig {
            dv_max_fraction: 0.5,
            ..TransientConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = TransientConfig {
            min_steps_per_ramp: 2,
            ..TransientConfig::default()
        };
        let err = simulate_switching(
            &setup(CellKind::Inv).1,
            &TimingArc::new(
                Cell::new(CellKind::Inv, DriveStrength::X1),
                0,
                Transition::Fall,
            ),
            &point(5.0, 2.0, 0.8),
            &bad,
        )
        .unwrap_err();
        assert!(matches!(err, TransientError::InvalidConfig(_)));
        assert!(err.to_string().contains("min_steps_per_ramp"));
    }

    #[test]
    fn inverter_delays_are_picosecond_scale() {
        let (_, eq, cell) = setup(CellKind::Inv);
        for transition in Transition::BOTH {
            let arc = TimingArc::new(cell, 0, transition);
            let m = simulate_switching(
                &eq,
                &arc,
                &point(5.0, 2.0, 0.8),
                &TransientConfig::accurate(),
            )
            .unwrap();
            assert!(
                m.delay_ps() > 0.5 && m.delay_ps() < 200.0,
                "{transition}: delay = {} ps",
                m.delay_ps()
            );
            let slew_ps = m.output_slew.picoseconds();
            assert!(
                slew_ps > 0.5 && slew_ps < 400.0,
                "{transition}: slew = {slew_ps} ps"
            );
        }
    }

    #[test]
    fn delay_increases_with_load() {
        let (_, eq, cell) = setup(CellKind::Nand2);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let cfg = TransientConfig::accurate();
        let light = simulate_switching(&eq, &arc, &point(5.0, 0.5, 0.8), &cfg).unwrap();
        let heavy = simulate_switching(&eq, &arc, &point(5.0, 5.0, 0.8), &cfg).unwrap();
        assert!(heavy.delay > light.delay);
        assert!(heavy.output_slew > light.output_slew);
    }

    #[test]
    fn delay_increases_as_vdd_drops() {
        let (_, eq, cell) = setup(CellKind::Nor2);
        let arc = TimingArc::new(cell, 0, Transition::Rise);
        let cfg = TransientConfig::accurate();
        let nominal = simulate_switching(&eq, &arc, &point(5.0, 2.0, 1.0), &cfg).unwrap();
        let low = simulate_switching(&eq, &arc, &point(5.0, 2.0, 0.65), &cfg).unwrap();
        assert!(low.delay.value() > 1.3 * nominal.delay.value());
    }

    #[test]
    fn delay_increases_with_input_slew() {
        let (_, eq, cell) = setup(CellKind::Inv);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let cfg = TransientConfig::accurate();
        let fast_in = simulate_switching(&eq, &arc, &point(1.0, 2.0, 0.8), &cfg).unwrap();
        let slow_in = simulate_switching(&eq, &arc, &point(15.0, 2.0, 0.8), &cfg).unwrap();
        assert!(slow_in.delay > fast_in.delay);
    }

    #[test]
    fn weaker_pull_up_makes_rise_slower_than_fall_for_nor() {
        // NOR2 stacks its PMOS devices, so its rising output is slower than its falling one.
        let (_, eq, cell) = setup(CellKind::Nor2);
        let cfg = TransientConfig::accurate();
        let rise = simulate_switching(
            &eq,
            &TimingArc::new(cell, 0, Transition::Rise),
            &point(5.0, 2.0, 0.8),
            &cfg,
        )
        .unwrap();
        let fall = simulate_switching(
            &eq,
            &TimingArc::new(cell, 0, Transition::Fall),
            &point(5.0, 2.0, 0.8),
            &cfg,
        )
        .unwrap();
        assert!(rise.delay > fall.delay);
    }

    #[test]
    fn fast_config_tracks_accurate_config() {
        let (_, eq, cell) = setup(CellKind::Inv);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let p = point(5.0, 2.0, 0.8);
        let accurate = simulate_switching(&eq, &arc, &p, &TransientConfig::accurate()).unwrap();
        let fast = simulate_switching(&eq, &arc, &p, &TransientConfig::fast()).unwrap();
        let rel = (accurate.delay.value() - fast.delay.value()).abs() / accurate.delay.value();
        assert!(rel < 0.02, "fast vs accurate delay mismatch: {rel}");
    }

    #[test]
    fn incomplete_transition_is_reported() {
        let (_, eq, cell) = setup(CellKind::Inv);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        // Far sub-threshold supply: the NMOS barely out-drives the PMOS leakage, so the
        // output settles at an intermediate level and never crosses the 20 % threshold.
        let p = InputPoint::new(
            Seconds::from_picoseconds(5.0),
            Farads::from_femtofarads(2.0),
            Volts(0.02),
        );
        let cfg = TransientConfig::fast();
        for result in [
            simulate_switching(&eq, &arc, &p, &cfg),
            simulate_switching_rk4(&eq, &arc, &p, &cfg).map(|(m, _)| m),
        ] {
            match result {
                Err(TransientError::IncompleteTransition { .. }) => {}
                other => panic!("expected incomplete transition, got {other:?}"),
            }
        }
    }

    #[test]
    fn results_are_deterministic() {
        let (_, eq, cell) = setup(CellKind::Nand2);
        let arc = TimingArc::new(cell, 0, Transition::Rise);
        let p = point(7.0, 3.0, 0.9);
        let cfg = TransientConfig::accurate();
        let a = simulate_switching(&eq, &arc, &p, &cfg).unwrap();
        let b = simulate_switching(&eq, &arc, &p, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn embedded_pair_tracks_rk4_reference() {
        let (_, eq, cell) = setup(CellKind::Inv);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let p = point(5.0, 2.0, 0.8);
        for cfg in [TransientConfig::accurate(), TransientConfig::fast()] {
            let new = simulate_switching(&eq, &arc, &p, &cfg).unwrap();
            let (reference, _) = simulate_switching_rk4(&eq, &arc, &p, &cfg).unwrap();
            let delay_err =
                (new.delay.value() - reference.delay.value()).abs() / reference.delay.value();
            let slew_err = (new.output_slew.value() - reference.output_slew.value()).abs()
                / reference.output_slew.value();
            assert!(delay_err < 0.005, "delay parity: {delay_err}");
            assert!(slew_err < 0.005, "slew parity: {slew_err}");
        }
    }

    #[test]
    fn embedded_pair_does_less_work_than_rk4() {
        let (_, eq, cell) = setup(CellKind::Nand2);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let p = point(5.0, 2.0, 0.8);
        let cfg = TransientConfig::accurate();
        let (_, new) = integrate(&TransientProblem::new(&eq, &arc, &p, &cfg)).unwrap();
        let (_, rk4) = simulate_switching_rk4(&eq, &arc, &p, &cfg).unwrap();
        assert!(new.steps > 0 && rk4.steps > 0);
        assert!(
            2 * new.device_evals < rk4.device_evals,
            "embedded pair must at least halve device evaluations: {} vs {}",
            new.device_evals,
            rk4.device_evals
        );
    }

    #[test]
    fn stats_count_rk4_work_exactly() {
        let (_, eq, cell) = setup(CellKind::Inv);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let (_, stats) =
            simulate_switching_rk4(&eq, &arc, &point(5.0, 2.0, 0.8), &TransientConfig::fast())
                .unwrap();
        // Four derivative evaluations (eight transistor evaluations) per RK4 step, none
        // rejected.
        assert_eq!(stats.device_evals, 8 * stats.steps);
        assert_eq!(stats.rejected_steps, 0);
    }
}
