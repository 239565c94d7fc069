//! The simulation-backend boundary: where a transient solve actually executes.
//!
//! The [`CharacterizationEngine`](crate::engine::CharacterizationEngine) owns *policy* —
//! counting, caching, in-call deduplication, lane fan-out — while a
//! [`SimulationBackend`] owns *mechanism*: given a batch of fully-specified
//! [`SimRequest`]s, return one [`SimResult`] per lane.  Splitting the two turns "where do
//! simulations run" into a deployment choice:
//!
//! * [`LocalBackend`] — the in-process kernel and the one way to run a batch of
//!   transients: the default scalar backend loops the one-lane integrator (each lane
//!   bitwise equal to [`simulate_switching`](crate::transient::simulate_switching)) and is
//!   the reference every other backend must match bitwise;
//! * `FarmBackend` (in the `slic-farm` crate) — fans batches out to remote worker
//!   processes over a JSON-lines wire protocol, with failover back to a [`LocalBackend`].
//!
//! Because the engine keeps the counter and cache on its own side of the boundary,
//! swapping backends cannot change an artifact: every lane still counts as exactly one
//! paid simulation, repeated coordinates are still answered from the cache, and the
//! measurements themselves are bitwise identical as long as the backend runs the same
//! kernel (which the wire protocol's kernel-version handshake enforces).  A backend that
//! runs a kernel with other bits names it in [`SimulationBackend::kernel_id`], which the
//! engine puts in every cache key.

use crate::cache::{KERNEL_VERSION, SIMD_KERNEL_ID};
use crate::input::InputPoint;
use crate::measure::TimingMeasurement;
use crate::simd::integrate_batch_simd;
use crate::transient::{integrate, TransientConfig, TransientProblem};
use slic_cells::{Cell, EquivalentInverter, TimingArc};
use slic_device::{ProcessSample, TechnologyNode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One fully-specified transient simulation: everything a backend — in-process or on the
/// other end of a socket — needs to reproduce the solve bit-for-bit.
///
/// The technology is shared behind an [`Arc`]: requests are built once per lane on the
/// hot path, and the node (with its heap-allocated name and device parameters) must not
/// be deep-cloned per simulation.
///
/// The arc names the cell under test; `cell` repeats it.  The engine fills it from the
/// arc, and every backend answers a request whose `cell` is not `arc.cell()` with a lane
/// error instead of solving either cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// The technology node the cell is built in.
    pub tech: Arc<TechnologyNode>,
    /// The cell under test: must be `arc.cell()`.
    pub cell: Cell,
    /// The switching arc being exercised.
    pub arc: TimingArc,
    /// Input slew / output load / supply.
    pub point: InputPoint,
    /// Process-variation sample.
    pub seed: ProcessSample,
    /// Transient-solver settings.
    pub config: TransientConfig,
}

impl SimRequest {
    /// Checks that `cell` is the cell `arc` names.
    ///
    /// # Errors
    ///
    /// Returns the lane error every backend answers a mismatched request with.
    pub fn check_cell(&self) -> Result<(), String> {
        if self.cell == self.arc.cell() {
            Ok(())
        } else {
            Err(format!(
                "request cell {} is not the cell of arc {}",
                self.cell.name(),
                self.arc.id()
            ))
        }
    }
}

/// The outcome of one lane: a measurement, or a rendered error message.
///
/// Errors are carried as strings so they survive a wire round trip unchanged; the engine
/// turns them back into the same panic a local solve failure produces.
pub type SimResult = Result<TimingMeasurement, String>;

/// Anything that can execute a batch of transient simulations.
///
/// Implementations must be thread-safe: the engine dispatches the chunks of one call
/// from rayon worker threads.  `solve_batch` must return exactly one result per request,
/// in request order, and lane `i` must be bitwise identical to what [`LocalBackend`]
/// produces for the same request — the simulation cache and every artifact-equality
/// guarantee depend on it.
pub trait SimulationBackend: Send + Sync {
    /// A short name for logs and `Debug` output (e.g. `"local"`, `"farm"`).
    fn name(&self) -> &str;

    /// Solves every request, returning one result per lane in request order.
    fn solve_batch(&self, requests: &[SimRequest]) -> Vec<SimResult>;

    /// Aggregate kernel work counters across every batch this backend has solved, when
    /// the backend instruments its kernel ([`LocalBackend`] does; remote backends, which
    /// cannot see their workers' counters, report `None`).
    fn kernel_stats(&self) -> Option<KernelStatsSnapshot> {
        None
    }

    /// The kernel id this backend's results are cached under: [`KERNEL_VERSION`] for the
    /// scalar kernel, or another id for a kernel whose bits differ (the SIMD quad kernel's
    /// [`SIMD_KERNEL_ID`]), so its records never answer another kernel's lookups.
    /// Wrapping backends forward their inner backend's id.
    fn kernel_id(&self) -> u64 {
        KERNEL_VERSION
    }
}

/// Aggregate kernel work counters of a backend, for the post-run summary: how many
/// simulations the kernel integrated and how much work each cost on average.
///
/// Lanes that fail to complete their transition surface as lane errors before their
/// counters are folded in, so the aggregates cover completed simulations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStatsSnapshot {
    /// Whether the SIMD quad kernel produced these numbers.
    pub simd: bool,
    /// Completed simulations.
    pub sims: u64,
    /// Accepted integration steps.
    pub steps: u64,
    /// Step attempts rejected by the embedded error estimate.
    pub rejected_steps: u64,
    /// Transistor-model evaluations.
    pub device_evals: u64,
    /// SIMD quad step attempts (zero for the scalar kernel).
    pub quad_rounds: u64,
    /// Real lanes advanced by those quad attempts.
    pub active_lane_rounds: u64,
}

impl KernelStatsSnapshot {
    /// Accepted steps per completed simulation.
    pub fn steps_per_sim(&self) -> f64 {
        if self.sims == 0 {
            0.0
        } else {
            self.steps as f64 / self.sims as f64
        }
    }

    /// Transistor-model evaluations per completed simulation.
    pub fn device_evals_per_sim(&self) -> f64 {
        if self.sims == 0 {
            0.0
        } else {
            self.device_evals as f64 / self.sims as f64
        }
    }

    /// Fraction of SIMD quad slots occupied by real lanes, when the SIMD kernel ran.
    pub fn quad_occupancy(&self) -> Option<f64> {
        if self.quad_rounds == 0 {
            None
        } else {
            Some(self.active_lane_rounds as f64 / (4 * self.quad_rounds) as f64)
        }
    }
}

/// Thread-safe accumulator behind [`LocalBackend`]: one relaxed atomic add per counter
/// per batch, so instrumenting the kernel costs nothing on the per-lane hot path.
#[derive(Debug, Default)]
struct KernelStatsCell {
    sims: AtomicU64,
    steps: AtomicU64,
    rejected_steps: AtomicU64,
    device_evals: AtomicU64,
    quad_rounds: AtomicU64,
    active_lane_rounds: AtomicU64,
}

/// The in-process backend: the Bogacki–Shampine kernel, one lane after another, or — when
/// constructed with [`LocalBackend::with_simd`] — the SIMD quad worklist of
/// [`crate::simd`].
///
/// The equivalent inverter is rebuilt only when the `(tech, cell, seed)` triple changes
/// between consecutive lanes (sweeps share one seed across every lane), mirroring what the
/// engine did before the backend boundary existed — so measurements are bitwise identical
/// to every artifact produced since.  Clones share one kernel-stats accumulator, so
/// engines fanning batches out across threads still aggregate into one snapshot.
#[derive(Debug, Clone, Default)]
pub struct LocalBackend {
    simd: bool,
    stats: Arc<KernelStatsCell>,
}

impl LocalBackend {
    /// Creates the in-process backend running the scalar kernel (the bitwise reference
    /// every other backend must match).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the in-process backend with the SIMD quad kernel enabled or disabled.
    ///
    /// With `simd = true` the backend's measurements carry the SIMD accuracy contract
    /// (≤0.5 % of golden) instead of the scalar path's bitwise guarantee, and its
    /// [`kernel_id`](SimulationBackend::kernel_id) is [`SIMD_KERNEL_ID`]: the flag is
    /// deliberately *not* part of [`TransientConfig`], so scalar cache keys never move.
    pub fn with_simd(simd: bool) -> Self {
        Self {
            simd,
            stats: Arc::default(),
        }
    }
}

impl SimulationBackend for LocalBackend {
    fn name(&self) -> &str {
        if self.simd {
            "local-simd"
        } else {
            "local"
        }
    }

    fn kernel_id(&self) -> u64 {
        if self.simd {
            SIMD_KERNEL_ID
        } else {
            KERNEL_VERSION
        }
    }

    fn kernel_stats(&self) -> Option<KernelStatsSnapshot> {
        Some(KernelStatsSnapshot {
            simd: self.simd,
            sims: self.stats.sims.load(Ordering::Relaxed),
            steps: self.stats.steps.load(Ordering::Relaxed),
            rejected_steps: self.stats.rejected_steps.load(Ordering::Relaxed),
            device_evals: self.stats.device_evals.load(Ordering::Relaxed),
            quad_rounds: self.stats.quad_rounds.load(Ordering::Relaxed),
            active_lane_rounds: self.stats.active_lane_rounds.load(Ordering::Relaxed),
        })
    }

    fn solve_batch(&self, requests: &[SimRequest]) -> Vec<SimResult> {
        let mut results: Vec<Option<SimResult>> = vec![None; requests.len()];
        // Validate configs first (memoized on consecutive identical configs, the common
        // case) and each lane's cell against its arc: an invalid lane gets an error result
        // instead of poisoning the batch.
        let mut cfg_memo: Option<(TransientConfig, Result<(), String>)> = None;
        let mut problems = Vec::with_capacity(requests.len());
        let mut lanes = Vec::with_capacity(requests.len());
        let mut memo: Option<(Arc<TechnologyNode>, ProcessSample, Cell, EquivalentInverter)> = None;
        for (i, req) in requests.iter().enumerate() {
            if !matches!(&cfg_memo, Some((c, _)) if *c == req.config) {
                cfg_memo = Some((req.config, req.config.validate()));
            }
            if let Some((_, Err(msg))) = &cfg_memo {
                results[i] = Some(Err(format!("invalid transient configuration: {msg}")));
                continue;
            }
            if let Err(err) = req.check_cell() {
                results[i] = Some(Err(err));
                continue;
            }
            // Pointer equality first: lanes of one engine share one Arc, so the common
            // case never compares node contents.
            if !matches!(&memo, Some((t, s, c, _)) if (Arc::ptr_eq(t, &req.tech) || **t == *req.tech) && s == &req.seed && *c == req.cell)
            {
                let eq = EquivalentInverter::build(&req.tech, req.cell, &req.seed);
                memo = Some((req.tech.clone(), req.seed, req.cell, eq));
            }
            #[expect(
                clippy::expect_used,
                reason = "structural: the branch above fills the memo when it is None"
            )]
            let (_, _, _, eq) = memo.as_ref().expect("memo populated");
            problems.push(TransientProblem::new(eq, &req.arc, &req.point, &req.config));
            lanes.push(i);
        }
        let lane_results = if self.simd {
            let (lane_results, simd_stats) = integrate_batch_simd(&problems);
            self.stats
                .quad_rounds
                .fetch_add(simd_stats.quad_rounds, Ordering::Relaxed);
            self.stats
                .active_lane_rounds
                .fetch_add(simd_stats.active_lane_rounds, Ordering::Relaxed);
            lane_results
        } else {
            problems.iter().map(integrate).collect()
        };
        let mut batch_stats = crate::transient::TransientStats::default();
        let mut completed = 0u64;
        for (result, i) in lane_results.into_iter().zip(lanes) {
            results[i] = Some(match result {
                Ok((m, stats)) => {
                    batch_stats.merge(&stats);
                    completed += 1;
                    Ok(m)
                }
                Err(err) => Err(err.to_string()),
            });
        }
        self.stats.sims.fetch_add(completed, Ordering::Relaxed);
        self.stats
            .steps
            .fetch_add(batch_stats.steps, Ordering::Relaxed);
        self.stats
            .rejected_steps
            .fetch_add(batch_stats.rejected_steps, Ordering::Relaxed);
        self.stats
            .device_evals
            .fetch_add(batch_stats.device_evals, Ordering::Relaxed);
        #[expect(
            clippy::expect_used,
            reason = "structural: every lane index is pushed into `lanes` and filled from `lane_results` above"
        )]
        results
            .into_iter()
            .map(|r| r.expect("every lane resolved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::simulate_switching;
    use slic_cells::{CellKind, DriveStrength, Transition};
    use slic_units::{Farads, Seconds, Volts};

    fn request(sin_ps: f64, vdd: f64) -> SimRequest {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        SimRequest {
            tech: Arc::new(TechnologyNode::n14_finfet()),
            cell,
            arc: TimingArc::new(cell, 0, Transition::Fall),
            point: InputPoint::new(
                Seconds::from_picoseconds(sin_ps),
                Farads::from_femtofarads(2.0),
                Volts(vdd),
            ),
            seed: ProcessSample::nominal(),
            config: TransientConfig::fast(),
        }
    }

    #[test]
    fn local_backend_matches_the_scalar_solver_bitwise() {
        let backend = LocalBackend::new();
        let requests = vec![request(2.0, 0.8), request(5.0, 0.9), request(9.0, 0.7)];
        let results = backend.solve_batch(&requests);
        for (req, result) in requests.iter().zip(&results) {
            let eq = EquivalentInverter::build(&req.tech, req.cell, &req.seed);
            let scalar = simulate_switching(&eq, &req.arc, &req.point, &req.config)
                .expect("scalar solve succeeds");
            assert_eq!(result.as_ref().ok(), Some(&scalar));
        }
    }

    #[test]
    fn invalid_config_yields_a_lane_error_not_a_panic() {
        let backend = LocalBackend::new();
        let mut bad = request(5.0, 0.8);
        bad.config.dv_max_fraction = 0.5;
        let good = request(5.0, 0.8);
        let results = backend.solve_batch(&[bad, good.clone()]);
        assert!(results[0]
            .as_ref()
            .is_err_and(|e| e.contains("dv_max_fraction")));
        assert!(results[1].is_ok(), "a bad lane must not poison its batch");
    }

    #[test]
    fn per_lane_failures_do_not_poison_the_batch() {
        // A sub-threshold supply lane between two healthy lanes.
        let requests = [request(5.0, 0.8), request(5.0, 0.02), request(5.0, 0.9)];
        for backend in [LocalBackend::new(), LocalBackend::with_simd(true)] {
            let results = backend.solve_batch(&requests);
            assert!(results[0].is_ok(), "{}", backend.name());
            assert!(
                results[1]
                    .as_ref()
                    .is_err_and(|e| e.contains("output transition incomplete")),
                "{}: {:?}",
                backend.name(),
                results[1]
            );
            assert!(results[2].is_ok(), "{}", backend.name());
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        assert!(LocalBackend::new().solve_batch(&[]).is_empty());
        assert_eq!(LocalBackend::new().name(), "local");
    }
}
