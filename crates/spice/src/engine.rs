//! The characterization engine: the workspace's stand-in for "HSPICE plus a deck generator".
//!
//! A [`CharacterizationEngine`] is bound to one [`TechnologyNode`] and provides the three
//! operations every experiment in the paper is built from:
//!
//! 1. single switching-event simulations (`.TRAN` on one arc at one input condition),
//! 2. sweeps over many input conditions for a fixed process seed (the `.ALTER` loop), and
//! 3. Monte Carlo ensembles over process seeds at fixed input conditions.
//!
//! Every transient simulation increments a shared [`SimulationCounter`].  The paper's
//! reported speedups are ratios of simulation counts at equal accuracy, so the counter is
//! the basis of all cost accounting in `slic-core` and the benches.

use crate::backend::{LocalBackend, SimRequest, SimulationBackend};
use crate::cache::{SimKey, SimulationCache};
use crate::input::{InputPoint, InputSpace};
use crate::measure::TimingMeasurement;
use crate::transient::TransientConfig;
use rayon::prelude::*;
use slic_cells::{Cell, EquivalentInverter, TimingArc};
use slic_device::{ProcessSample, TechnologyNode};
use slic_obs::metrics::{LANE_BUCKETS, LATENCY_BUCKETS_NS};
use slic_obs::Observability;
use slic_units::Amperes;
use std::collections::BTreeSet;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One batched-simulation request: an input point under one process seed.
type Lane = (InputPoint, ProcessSample);

/// One fully-specified lane of a mixed worklist: cell, arc, input point and process seed.
///
/// Mixed lanes let callers batch across *everything* that varies — arcs, grid points and
/// seeds — into one kernel worklist, instead of issuing one batch per arc or per seed.
pub type MixedLane = (Cell, TimingArc, InputPoint, ProcessSample);

/// Lanes per batched-kernel call when a lane list is fanned out across worker threads:
/// small enough that chunk count keeps every core busy, large enough that the batched
/// worklist amortizes setup.
fn batch_width(lanes: usize) -> usize {
    let threads = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    lanes.div_ceil(4 * threads).clamp(1, 16)
}

/// An invalid [`TransientConfig`] was supplied to an engine constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: String) -> Self {
        Self { message }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid transient configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// A cloneable handle onto a shared count of transient simulations.
#[derive(Debug, Clone, Default)]
pub struct SimulationCounter {
    count: Arc<AtomicU64>,
}

impl SimulationCounter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Adds `n` simulations to the count.
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Resets the count to zero and returns the previous value.
    pub fn reset(&self) -> u64 {
        self.count.swap(0, Ordering::Relaxed)
    }
}

/// Shared dispatch counters of one engine (and its clones): how batched lanes were
/// resolved.  Every lane that enters batched dispatch lands in exactly one bucket, so
/// `dispatched == cached + claimed + deferred` at any quiescent point — the invariant the
/// post-run dispatch summary and the deferral regression tests check.
#[derive(Debug, Default)]
struct DispatchCounters {
    dispatched: AtomicU64,
    cached: AtomicU64,
    claimed: AtomicU64,
    deferred: AtomicU64,
}

/// A point-in-time copy of an engine's dispatch counters.
///
/// `lanes_deferred` counts lanes that arrived in a batch while another worker already
/// held their coordinate in flight: they fall back to the scalar single-flight path
/// (waiting on the owner, then reading the cache).  Before this counter existed those
/// lanes bypassed batch accounting entirely, making dispatch summaries under-report
/// contended cross-seed batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchSnapshot {
    /// Lanes submitted through batched dispatch.
    pub lanes_dispatched: u64,
    /// Lanes answered from the simulation cache without solving.
    pub lanes_cached: u64,
    /// Lanes this engine claimed and solved in a batched worklist.
    pub lanes_claimed: u64,
    /// Lanes deferred to the scalar path because their coordinate was in flight elsewhere.
    pub lanes_deferred: u64,
}

/// The set of cache coordinates currently being solved, shared by every clone of one
/// engine.  It implements single-flight deduplication: when two workers miss on the same
/// coordinate concurrently, exactly one runs the solver and the others wait for its
/// result, so a coordinate is never paid for twice within a process and the simulation
/// totals of a run are deterministic regardless of thread interleaving.
#[derive(Debug, Default)]
struct InFlight {
    keys: Mutex<BTreeSet<SimKey>>,
    done: Condvar,
}

/// Removes an in-flight claim when the owning solve finishes — including by panic, so
/// sibling workers waiting on the coordinate wake up and retry instead of hanging.
struct InFlightClaim<'a> {
    inflight: &'a InFlight,
    key: &'a SimKey,
}

impl Drop for InFlightClaim<'_> {
    fn drop(&mut self) {
        let mut keys = self
            .inflight
            .keys
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        keys.remove(self.key);
        self.inflight.done.notify_all();
    }
}

/// Removes a *set* of in-flight claims when a batched solve finishes — including by
/// panic, so workers waiting on any of the coordinates wake up and retry.
struct BatchClaims<'a> {
    inflight: &'a InFlight,
    keys: Vec<SimKey>,
}

impl Drop for BatchClaims<'_> {
    fn drop(&mut self) {
        let mut keys = self
            .inflight
            .keys
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for key in &self.keys {
            keys.remove(key);
        }
        self.inflight.done.notify_all();
    }
}

/// A simulator front-end bound to one technology node.
#[derive(Clone)]
pub struct CharacterizationEngine {
    tech: Arc<TechnologyNode>,
    config: TransientConfig,
    counter: SimulationCounter,
    cache: Option<Arc<dyn SimulationCache>>,
    backend: Arc<dyn SimulationBackend>,
    inflight: Arc<InFlight>,
    dispatch: Arc<DispatchCounters>,
    obs: Observability,
}

impl fmt::Debug for CharacterizationEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CharacterizationEngine")
            .field("tech", &self.tech)
            .field("config", &self.config)
            .field("counter", &self.counter)
            .field("cache", &self.cache.as_ref().map(|_| "..."))
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl CharacterizationEngine {
    /// Creates an engine with the accurate (baseline-grade) transient settings.
    pub fn new(tech: TechnologyNode) -> Self {
        Self::with_config(tech, TransientConfig::accurate())
            // slic-lint: allow(P1) -- the accurate preset is a compile-time constant that validates; a Result here would force every caller to handle an impossible error.
            .expect("the accurate preset always validates")
    }

    /// Creates an engine with an explicit transient configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first field that fails validation.
    pub fn with_config(tech: TechnologyNode, config: TransientConfig) -> Result<Self, ConfigError> {
        config.validate().map_err(ConfigError::new)?;
        Ok(Self {
            tech: Arc::new(tech),
            config,
            counter: SimulationCounter::new(),
            cache: None,
            backend: Arc::new(LocalBackend::new()),
            inflight: Arc::new(InFlight::default()),
            dispatch: Arc::new(DispatchCounters::default()),
            obs: Observability::default(),
        })
    }

    /// Replaces this engine's counter with a shared one, so simulation costs from several
    /// engines (one per technology, or one per pipeline stage) aggregate into one total.
    #[must_use]
    pub fn with_shared_counter(mut self, counter: SimulationCounter) -> Self {
        self.counter = counter;
        self
    }

    /// Attaches a simulation cache.  Subsequent [`simulate`](Self::simulate) calls answer
    /// repeated coordinates from the cache without running the solver and without
    /// incrementing the simulation counter.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<dyn SimulationCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached simulation cache, if any.
    pub fn cache(&self) -> Option<&Arc<dyn SimulationCache>> {
        self.cache.as_ref()
    }

    /// Replaces the backend that executes transient solves.  The counter, cache and
    /// single-flight layering stay on this engine's side of the boundary, so a backend
    /// swap cannot change what a run pays for — only where the solves execute.
    #[must_use]
    pub fn with_backend(mut self, backend: Arc<dyn SimulationBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The backend executing this engine's transient solves.
    pub fn backend(&self) -> &Arc<dyn SimulationBackend> {
        &self.backend
    }

    /// Attaches the display-only observability bundle (trace recorder + metrics
    /// registry).  Spans and counters are recorded *around* dispatch, never inside a
    /// result path, so attaching a recorder cannot change any artifact byte.
    #[must_use]
    pub fn with_observability(mut self, obs: Observability) -> Self {
        self.obs = obs;
        self
    }

    /// The observability bundle in use (disabled/no-op by default).
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Rebinds this engine to `tech`, keeping its counter, cache, backend, dispatch
    /// counters and observability — so work on another node (historical learning) is
    /// paid, cached, dispatched and traced alongside this engine's own.
    #[must_use]
    pub fn with_technology(mut self, tech: TechnologyNode) -> Self {
        self.tech = Arc::new(tech);
        self
    }

    /// The technology this engine simulates.
    pub fn tech(&self) -> &TechnologyNode {
        &self.tech
    }

    /// The transient solver configuration in use.
    pub fn config(&self) -> &TransientConfig {
        &self.config
    }

    /// Handle onto the shared simulation counter.
    pub fn counter(&self) -> &SimulationCounter {
        &self.counter
    }

    /// Total number of transient simulations run so far (across clones of this engine).
    pub fn simulation_count(&self) -> u64 {
        self.counter.count()
    }

    /// Snapshot of the batched-dispatch counters (shared across clones of this engine).
    pub fn dispatch_stats(&self) -> DispatchSnapshot {
        DispatchSnapshot {
            lanes_dispatched: self.dispatch.dispatched.load(Ordering::Relaxed),
            lanes_cached: self.dispatch.cached.load(Ordering::Relaxed),
            lanes_claimed: self.dispatch.claimed.load(Ordering::Relaxed),
            lanes_deferred: self.dispatch.deferred.load(Ordering::Relaxed),
        }
    }

    /// The default characterization input space of this technology (paper ranges for slew
    /// and load, the technology's own supply window).
    pub fn input_space(&self) -> InputSpace {
        InputSpace::paper_space(self.tech.vdd_range())
    }

    /// Builds the equivalent inverter of `cell` under `seed`.
    pub fn equivalent_inverter(&self, cell: Cell, seed: &ProcessSample) -> EquivalentInverter {
        EquivalentInverter::build(&self.tech, cell, seed)
    }

    /// Effective switching current (Eq. 4) of the arc's driving device at the given supply.
    ///
    /// This is a pair of DC operating-point evaluations, not a transient simulation, so it
    /// does not increment the simulation counter — matching the paper's assumption that
    /// `Ieff` per input vector is available from performance modelling.
    pub fn ieff(&self, arc: &TimingArc, point: &InputPoint, seed: &ProcessSample) -> Amperes {
        self.equivalent_inverter(arc.cell(), seed)
            .ieff(arc, point.vdd)
    }

    /// Runs one transient simulation of `arc` at `point` under process seed `seed`.
    ///
    /// With a cache attached, concurrent requests for one coordinate are single-flighted:
    /// the first requester solves while the others wait and are then answered from the
    /// cache, so each unique coordinate is simulated (and counted) exactly once per
    /// process and the run's cost totals are deterministic under any thread schedule.
    ///
    /// # Panics
    ///
    /// Panics if the transient solver cannot complete the transition — with the supported
    /// technologies and the paper input space this only happens for unphysical inputs, and
    /// failing loudly is preferable to silently corrupting a characterization campaign.
    pub fn simulate(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: &InputPoint,
        seed: &ProcessSample,
    ) -> TimingMeasurement {
        let Some(cache) = self.cache.as_ref() else {
            return self.solve(cell, arc, point, seed);
        };
        let key = SimKey::new(self.tech.name(), arc, point, seed, &self.config);
        if let Some(measurement) = cache.lookup(&key) {
            return measurement;
        }
        // Miss: claim the coordinate, or wait for whichever worker already owns it.
        {
            // A poisoned in-flight set only means a sibling solve panicked; its claim was
            // already released by InFlightClaim's Drop, so the set is consistent — recover
            // it instead of cascading the panic into every waiting worker.
            let mut keys = self
                .inflight
                .keys
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            loop {
                if let Some(measurement) = cache.lookup(&key) {
                    return measurement;
                }
                if !keys.contains(&key) {
                    keys.insert(key.clone());
                    break;
                }
                keys = self
                    .inflight
                    .done
                    .wait(keys)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
        let claim = InFlightClaim {
            inflight: &self.inflight,
            key: &key,
        };
        let measurement = self.solve(cell, arc, point, seed);
        cache.store(key.clone(), measurement);
        drop(claim);
        measurement
    }

    /// Assembles the backend request for one lane.
    fn request(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: &InputPoint,
        seed: &ProcessSample,
    ) -> SimRequest {
        SimRequest {
            tech: self.tech.clone(),
            cell,
            arc: *arc,
            point: *point,
            seed: *seed,
            config: self.config,
        }
    }

    /// Runs the solver unconditionally (through the configured backend) and counts the
    /// simulation.
    fn solve(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: &InputPoint,
        seed: &ProcessSample,
    ) -> TimingMeasurement {
        let request = self.request(cell, arc, point, seed);
        self.counter.add(1);
        self.backend
            .solve_batch(std::slice::from_ref(&request))
            .pop()
            // slic-lint: allow(P1) -- one-request-in/one-result-out is the SimulationBackend contract; a short reply is a broken backend, not a recoverable state.
            .expect("backend returns one result per request")
            .unwrap_or_else(|err| {
                // slic-lint: allow(P1) -- a failed transient means unphysical inputs or a diverged solver; archiving a partial table would poison every downstream artifact, so failing loudly is the contract.
                panic!(
                    "transient simulation failed for {} at {point}: {err}",
                    arc.id()
                )
            })
    }

    /// Solves one batch of mixed lanes through the batched kernel, preserving the scalar
    /// path's counter, cache and single-flight semantics: each lane counts and caches as
    /// one simulation, repeated coordinates are answered from the cache, and a coordinate
    /// being solved elsewhere is never paid for twice.  Every lane is recorded in the
    /// dispatch counters under exactly one of cached/claimed/deferred.
    ///
    /// Lanes whose coordinate is already in flight on another worker are *deferred*: the
    /// batch first solves the lanes it could claim (holding their claims), releases them,
    /// and only then waits on the stragglers through the scalar path — waiting while
    /// holding claims could deadlock two batches against each other.
    fn simulate_mixed_lane_batch(&self, lanes: &[MixedLane]) -> Vec<TimingMeasurement> {
        self.obs
            .metrics
            .observe("engine.batch.lanes", lanes.len() as u64, LANE_BUCKETS);
        let mut batch_span = self
            .obs
            .trace
            .span("solve_batch", &[("lanes", lanes.len().to_string())]);
        self.dispatch
            .dispatched
            .fetch_add(lanes.len() as u64, Ordering::Relaxed);
        let solve_batch = |subset: &[MixedLane]| -> Vec<TimingMeasurement> {
            let requests: Vec<SimRequest> = subset
                .iter()
                .map(|(cell, arc, point, seed)| self.request(*cell, arc, point, seed))
                .collect();
            self.counter.add(subset.len() as u64);
            self.dispatch
                .claimed
                .fetch_add(subset.len() as u64, Ordering::Relaxed);
            let backend_span = self
                .obs
                .trace
                .span("backend.solve", &[("lanes", subset.len().to_string())]);
            let solved = self.backend.solve_batch(&requests);
            if self.obs.trace.is_enabled() {
                self.obs.metrics.observe(
                    "backend.solve.latency_ns",
                    backend_span.elapsed_ns(),
                    LATENCY_BUCKETS_NS,
                );
            }
            drop(backend_span);
            solved
                .into_iter()
                .zip(subset)
                .map(|(result, (_, arc, point, _))| {
                    result.unwrap_or_else(|err| {
                        // slic-lint: allow(P1) -- same contract as the scalar path: a failed transient must never be archived as a measurement.
                        panic!(
                            "transient simulation failed for {} at {point}: {err}",
                            arc.id()
                        )
                    })
                })
                .collect()
        };

        let Some(cache) = self.cache.as_ref() else {
            return solve_batch(lanes);
        };

        let keys: Vec<SimKey> = lanes
            .iter()
            .map(|(_, arc, point, seed)| {
                SimKey::new(self.tech.name(), arc, point, seed, &self.config)
            })
            .collect();
        let mut results: Vec<Option<TimingMeasurement>> = vec![None; lanes.len()];
        let mut misses: Vec<usize> = Vec::new();
        {
            let mut lookup_span = self
                .obs
                .trace
                .span("cache.lookup", &[("lanes", lanes.len().to_string())]);
            for (i, key) in keys.iter().enumerate() {
                match cache.lookup(key) {
                    Some(m) => results[i] = Some(m),
                    None => misses.push(i),
                }
            }
            lookup_span.attr("hits", (lanes.len() - misses.len()).to_string());
        }

        // Claim what we can in one pass over the in-flight set; lanes owned by another
        // worker are deferred.
        let mut claimed: Vec<usize> = Vec::new();
        let mut deferred: Vec<usize> = Vec::new();
        if !misses.is_empty() {
            let mut inflight = self
                .inflight
                .keys
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            for i in misses {
                if let Some(m) = cache.lookup(&keys[i]) {
                    results[i] = Some(m);
                } else if inflight.contains(&keys[i]) {
                    deferred.push(i);
                } else {
                    inflight.insert(keys[i].clone());
                    claimed.push(i);
                }
            }
        }
        let cached = lanes.len() - claimed.len() - deferred.len();
        self.dispatch
            .cached
            .fetch_add(cached as u64, Ordering::Relaxed);
        self.dispatch
            .deferred
            .fetch_add(deferred.len() as u64, Ordering::Relaxed);
        batch_span.attr("cached", cached.to_string());
        batch_span.attr("claimed", claimed.len().to_string());
        batch_span.attr("deferred", deferred.len().to_string());
        self.obs
            .metrics
            .observe("cache.lookup.hit_lanes", cached as u64, LANE_BUCKETS);

        if !claimed.is_empty() {
            let claims = BatchClaims {
                inflight: &self.inflight,
                keys: claimed.iter().map(|&i| keys[i].clone()).collect(),
            };
            let subset: Vec<MixedLane> = claimed.iter().map(|&i| lanes[i]).collect();
            let solved = solve_batch(&subset);
            for (&i, m) in claimed.iter().zip(solved) {
                cache.store(keys[i].clone(), m);
                results[i] = Some(m);
            }
            drop(claims);
        }

        for i in deferred {
            let (cell, arc, point, seed) = &lanes[i];
            results[i] = Some(self.simulate(*cell, arc, point, seed));
        }

        results
            .into_iter()
            // slic-lint: allow(P1) -- structural: every index lands in exactly one of cached/claimed/deferred above, each of which fills its slot.
            .map(|m| m.expect("every lane resolved"))
            .collect()
    }

    /// Solves one batch of same-arc lanes as one worklist (see
    /// [`simulate_mixed_lane_batch`](Self::simulate_mixed_lane_batch)).
    fn simulate_lane_batch(
        &self,
        cell: Cell,
        arc: &TimingArc,
        lanes: &[Lane],
    ) -> Vec<TimingMeasurement> {
        let mixed: Vec<MixedLane> = lanes
            .iter()
            .map(|(point, seed)| (cell, *arc, *point, *seed))
            .collect();
        self.simulate_mixed_lane_batch(&mixed)
    }

    /// Fans a mixed lane list out across worker threads in batched chunks, preserving
    /// order.
    fn simulate_mixed_lanes(&self, lanes: &[MixedLane]) -> Vec<TimingMeasurement> {
        let chunks: Vec<&[MixedLane]> = lanes.chunks(batch_width(lanes.len())).collect();
        let per_chunk: Vec<Vec<TimingMeasurement>> = chunks
            .par_iter()
            .map(|chunk| self.simulate_mixed_lane_batch(chunk))
            .collect();
        per_chunk.into_iter().flatten().collect()
    }

    /// Fans a lane list out across worker threads in batched chunks, preserving order.
    fn simulate_lanes(
        &self,
        cell: Cell,
        arc: &TimingArc,
        lanes: &[Lane],
    ) -> Vec<TimingMeasurement> {
        let mixed: Vec<MixedLane> = lanes
            .iter()
            .map(|(point, seed)| (cell, *arc, *point, *seed))
            .collect();
        self.simulate_mixed_lanes(&mixed)
    }

    /// Simulates an arbitrary mixed worklist — lanes spanning cells, arcs, input points
    /// and process seeds — in parallel through the batched kernel.  Result `i`
    /// corresponds to `lanes[i]` and is bitwise identical to
    /// [`simulate`](Self::simulate) with the same coordinates: mega-batching across
    /// seeds or arcs changes only how the work is grouped, never what a run pays for or
    /// produces.
    pub fn simulate_mixed(&self, lanes: &[MixedLane]) -> Vec<TimingMeasurement> {
        self.simulate_mixed_lanes(lanes)
    }

    /// As [`simulate_mixed`](Self::simulate_mixed), but as **one** batched worklist on
    /// the calling thread — for callers that already parallelize at a coarser grain.
    pub fn simulate_mixed_batch(&self, lanes: &[MixedLane]) -> Vec<TimingMeasurement> {
        self.simulate_mixed_lane_batch(lanes)
    }

    /// Runs one transient simulation at the nominal process corner.
    pub fn simulate_nominal(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: &InputPoint,
    ) -> TimingMeasurement {
        self.simulate(cell, arc, point, &ProcessSample::nominal())
    }

    /// Simulates `arc` at every input point for a fixed process seed (the `.ALTER` sweep),
    /// in parallel through the batched kernel.  Result `i` corresponds to `points[i]` and
    /// is bitwise identical to [`simulate`](Self::simulate) at that point.
    pub fn sweep(
        &self,
        cell: Cell,
        arc: &TimingArc,
        points: &[InputPoint],
        seed: &ProcessSample,
    ) -> Vec<TimingMeasurement> {
        let lanes: Vec<Lane> = points.iter().map(|p| (*p, *seed)).collect();
        self.simulate_lanes(cell, arc, &lanes)
    }

    /// Simulates `arc` at every input point for a fixed process seed as **one** batched
    /// worklist on the calling thread — no thread fan-out.  This is the entry point for
    /// callers that already parallelize at a coarser grain (one worker per shard, per
    /// cell, or per seed) and want the batched kernel without nested parallelism.
    pub fn sweep_batch(
        &self,
        cell: Cell,
        arc: &TimingArc,
        points: &[InputPoint],
        seed: &ProcessSample,
    ) -> Vec<TimingMeasurement> {
        let lanes: Vec<Lane> = points.iter().map(|p| (*p, *seed)).collect();
        self.simulate_lane_batch(cell, arc, &lanes)
    }

    /// Simulates `arc` at every input point at the nominal corner, in parallel.
    pub fn sweep_nominal(
        &self,
        cell: Cell,
        arc: &TimingArc,
        points: &[InputPoint],
    ) -> Vec<TimingMeasurement> {
        self.sweep(cell, arc, points, &ProcessSample::nominal())
    }

    /// Monte Carlo ensemble: simulates `arc` at one input point under every process seed,
    /// in parallel through the batched kernel.  Element `i` of the result corresponds to
    /// `seeds[i]` and is bitwise identical to [`simulate`](Self::simulate) under that seed.
    pub fn monte_carlo(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: &InputPoint,
        seeds: &[ProcessSample],
    ) -> Vec<TimingMeasurement> {
        let lanes: Vec<Lane> = seeds.iter().map(|s| (*point, *s)).collect();
        self.simulate_lanes(cell, arc, &lanes)
    }

    /// Full statistical baseline: simulates every (input point, seed) pair through the
    /// batched kernel.
    ///
    /// The result is indexed `[point][seed]`.
    pub fn monte_carlo_sweep(
        &self,
        cell: Cell,
        arc: &TimingArc,
        points: &[InputPoint],
        seeds: &[ProcessSample],
    ) -> Vec<Vec<TimingMeasurement>> {
        let lanes: Vec<Lane> = points
            .iter()
            .flat_map(|p| seeds.iter().map(move |s| (*p, *s)))
            .collect();
        let flat = self.simulate_lanes(cell, arc, &lanes);
        let mut rows = Vec::with_capacity(points.len());
        let mut it = flat.into_iter();
        for _ in points {
            rows.push(it.by_ref().take(seeds.len()).collect());
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slic_cells::{CellKind, DriveStrength, Transition};
    use slic_units::{Farads, Seconds, Volts};

    fn engine() -> CharacterizationEngine {
        CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
            .expect("fast preset validates")
    }

    fn inv_fall() -> (Cell, TimingArc) {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        (cell, TimingArc::new(cell, 0, Transition::Fall))
    }

    fn pt(sin_ps: f64, cload_ff: f64, vdd: f64) -> InputPoint {
        InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(vdd),
        )
    }

    #[test]
    fn simulation_counter_counts_every_run() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        assert_eq!(eng.simulation_count(), 0);
        let _ = eng.simulate_nominal(cell, &arc, &pt(5.0, 2.0, 0.8));
        assert_eq!(eng.simulation_count(), 1);
        let points = vec![pt(2.0, 1.0, 0.8), pt(5.0, 2.0, 0.9), pt(9.0, 4.0, 0.7)];
        let _ = eng.sweep_nominal(cell, &arc, &points);
        assert_eq!(eng.simulation_count(), 4);
        assert_eq!(eng.counter().reset(), 4);
        assert_eq!(eng.simulation_count(), 0);
    }

    #[test]
    fn counter_is_shared_between_clones() {
        let eng = engine();
        let clone = eng.clone();
        let (cell, arc) = inv_fall();
        let _ = clone.simulate_nominal(cell, &arc, &pt(5.0, 2.0, 0.8));
        assert_eq!(eng.simulation_count(), 1);
    }

    #[test]
    fn ieff_does_not_count_as_a_simulation() {
        let eng = engine();
        let (_, arc) = inv_fall();
        let i = eng.ieff(&arc, &pt(5.0, 2.0, 0.8), &ProcessSample::nominal());
        assert!(i.value() > 0.0);
        assert_eq!(eng.simulation_count(), 0);
    }

    #[test]
    fn sweep_results_match_individual_runs() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let points = vec![pt(2.0, 1.0, 0.8), pt(8.0, 4.0, 0.7)];
        let swept = eng.sweep_nominal(cell, &arc, &points);
        for (p, m) in points.iter().zip(&swept) {
            let single = eng.simulate_nominal(cell, &arc, p);
            assert_eq!(*m, single, "sweep must be deterministic and ordered");
        }
    }

    #[test]
    fn monte_carlo_produces_spread() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let mut rng = StdRng::seed_from_u64(11);
        let seeds = eng.tech().variation().sample_n(&mut rng, 48);
        let ms = eng.monte_carlo(cell, &arc, &pt(5.0, 2.0, 0.8), &seeds);
        assert_eq!(ms.len(), 48);
        let delays: Vec<f64> = ms.iter().map(|m| m.delay.value()).collect();
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        let sd = (delays.iter().map(|d| (d - mean).powi(2)).sum::<f64>()
            / (delays.len() - 1) as f64)
            .sqrt();
        assert!(sd > 0.0, "process variation must spread the delays");
        assert!(
            sd / mean < 0.5,
            "spread should stay moderate (cv = {})",
            sd / mean
        );
    }

    #[test]
    fn monte_carlo_sweep_shape() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let mut rng = StdRng::seed_from_u64(3);
        let seeds = eng.tech().variation().sample_n(&mut rng, 5);
        let points = vec![pt(2.0, 1.0, 0.8), pt(8.0, 4.0, 0.7), pt(5.0, 2.0, 0.9)];
        let grid = eng.monte_carlo_sweep(cell, &arc, &points, &seeds);
        assert_eq!(grid.len(), 3);
        assert!(grid.iter().all(|row| row.len() == 5));
        assert_eq!(eng.simulation_count(), 15);
    }

    #[test]
    fn input_space_uses_tech_supply_window() {
        let eng = engine();
        let space = eng.input_space();
        let (lo, hi) = space.vdd_range();
        assert_eq!((lo, hi), eng.tech().vdd_range());
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let bad = TransientConfig {
            dv_max_fraction: 0.5,
            ..TransientConfig::fast()
        };
        let err = CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), bad)
            .expect_err("out-of-range dv_max_fraction must be rejected");
        assert!(err.to_string().contains("invalid transient configuration"));
        assert!(err.to_string().contains("dv_max_fraction"));
    }

    #[test]
    fn cache_short_circuits_repeat_simulations() {
        use crate::cache::InMemorySimCache;
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine().with_cache(cache.clone());
        let (cell, arc) = inv_fall();
        let point = pt(5.0, 2.0, 0.8);
        let first = eng.simulate_nominal(cell, &arc, &point);
        assert_eq!(eng.simulation_count(), 1);
        assert_eq!(cache.hits(), 0);
        let second = eng.simulate_nominal(cell, &arc, &point);
        assert_eq!(second, first, "cache must replay the archived measurement");
        assert_eq!(
            eng.simulation_count(),
            1,
            "cache hits must not count as simulations"
        );
        assert_eq!(cache.hits(), 1);
        // A different coordinate still simulates.
        let _ = eng.simulate_nominal(cell, &arc, &pt(6.0, 2.0, 0.8));
        assert_eq!(eng.simulation_count(), 2);
    }

    #[test]
    fn concurrent_identical_requests_solve_once() {
        use crate::cache::InMemorySimCache;
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine().with_cache(cache.clone());
        let (cell, arc) = inv_fall();
        // Sixteen workers racing on one coordinate: single-flight must collapse them to
        // one paid solve; the other fifteen are answered from the cache (counted hits).
        let points = vec![pt(5.0, 2.0, 0.8); 16];
        let measurements = eng.sweep_nominal(cell, &arc, &points);
        assert!(measurements.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(eng.simulation_count(), 1, "one coordinate, one solve");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 15);
    }

    #[test]
    fn monte_carlo_lanes_match_scalar_simulations_bitwise() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let mut rng = StdRng::seed_from_u64(7);
        let seeds = eng.tech().variation().sample_n(&mut rng, 9);
        let point = pt(5.0, 2.0, 0.8);
        let batched = eng.monte_carlo(cell, &arc, &point, &seeds);
        for (seed, m) in seeds.iter().zip(&batched) {
            let scalar = eng.simulate(cell, &arc, &point, seed);
            assert_eq!(
                *m, scalar,
                "batch lane must be bitwise equal to its scalar sim"
            );
        }
    }

    #[test]
    fn sweep_batch_matches_parallel_sweep() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let points = vec![pt(2.0, 1.0, 0.8), pt(5.0, 2.0, 0.9), pt(9.0, 4.0, 0.7)];
        let seed = ProcessSample::nominal();
        let single_thread = eng.sweep_batch(cell, &arc, &points, &seed);
        let fanned_out = eng.sweep(cell, &arc, &points, &seed);
        assert_eq!(single_thread, fanned_out);
        assert_eq!(eng.simulation_count(), 6, "both paths count every lane");
    }

    #[test]
    fn batched_monte_carlo_replays_from_cache() {
        use crate::cache::InMemorySimCache;
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine().with_cache(cache.clone());
        let (cell, arc) = inv_fall();
        let mut rng = StdRng::seed_from_u64(23);
        let seeds = eng.tech().variation().sample_n(&mut rng, 12);
        let point = pt(5.0, 2.0, 0.8);
        let first = eng.monte_carlo(cell, &arc, &point, &seeds);
        assert_eq!(eng.simulation_count(), 12);
        assert_eq!(cache.misses(), 12);
        let second = eng.monte_carlo(cell, &arc, &point, &seeds);
        assert_eq!(
            second, first,
            "warm batch must replay archived measurements"
        );
        assert_eq!(
            eng.simulation_count(),
            12,
            "warm batch pays zero simulations"
        );
        assert_eq!(cache.hits(), 12);
    }

    #[test]
    fn mixed_worklist_matches_scalar_simulations_bitwise() {
        let eng = engine();
        let inv = Cell::new(CellKind::Inv, DriveStrength::X1);
        let nand = Cell::new(CellKind::Nand2, DriveStrength::X2);
        let mut rng = StdRng::seed_from_u64(41);
        let seeds = eng.tech().variation().sample_n(&mut rng, 3);
        // Lanes spanning cells, arcs, input points and seeds in one worklist.
        let mut lanes: Vec<MixedLane> = Vec::new();
        for (cell, pin) in [(inv, 0), (nand, 1)] {
            for transition in [Transition::Fall, Transition::Rise] {
                let arc = TimingArc::new(cell, pin, transition);
                for (i, seed) in seeds.iter().enumerate() {
                    lanes.push((cell, arc, pt(2.0 + 3.0 * i as f64, 1.5, 0.8), *seed));
                }
            }
        }
        let batched = eng.simulate_mixed(&lanes);
        assert_eq!(eng.simulation_count(), lanes.len() as u64);
        let reference = engine();
        for ((cell, arc, point, seed), m) in lanes.iter().zip(&batched) {
            let scalar = reference.simulate(*cell, arc, point, seed);
            assert_eq!(
                *m, scalar,
                "mixed lane must be bitwise equal to its scalar sim"
            );
        }
    }

    #[test]
    fn dispatch_counters_cover_every_lane_exactly_once() {
        use crate::cache::InMemorySimCache;
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine().with_cache(cache.clone());
        let (cell, arc) = inv_fall();
        let nominal = ProcessSample::nominal();
        // A duplicated coordinate inside one batch exercises the deferral path
        // deterministically: the first copy claims the key, so by the time the second
        // copy is inspected under the in-flight lock it is "owned elsewhere" and must be
        // deferred to the scalar path.
        let lanes: Vec<MixedLane> = vec![
            (cell, arc, pt(5.0, 2.0, 0.8), nominal),
            (cell, arc, pt(9.0, 4.0, 0.7), nominal),
            (cell, arc, pt(5.0, 2.0, 0.8), nominal),
        ];
        let first = eng.simulate_mixed_batch(&lanes);
        assert_eq!(
            first[0], first[2],
            "deferred duplicate resolves to the same measurement"
        );
        let stats = eng.dispatch_stats();
        assert_eq!(stats.lanes_dispatched, 3);
        assert_eq!(stats.lanes_cached, 0);
        assert_eq!(stats.lanes_claimed, 2);
        assert_eq!(
            stats.lanes_deferred, 1,
            "the in-flight duplicate must be accounted as deferred"
        );
        assert_eq!(eng.simulation_count(), 2, "the duplicate is never re-paid");
        // A warm replay of the same batch resolves every lane from the cache.
        let second = eng.simulate_mixed_batch(&lanes);
        assert_eq!(second, first);
        let stats = eng.dispatch_stats();
        assert_eq!(stats.lanes_dispatched, 6);
        assert_eq!(stats.lanes_cached, 3);
        assert_eq!(stats.lanes_claimed, 2);
        assert_eq!(stats.lanes_deferred, 1);
        assert_eq!(
            stats.lanes_dispatched,
            stats.lanes_cached + stats.lanes_claimed + stats.lanes_deferred,
            "every dispatched lane lands in exactly one bucket"
        );
    }

    /// A backend that blocks every solve until the test opens a gate, so the test can
    /// pin one coordinate "in flight" while a batch on another thread dispatches it.
    #[derive(Debug)]
    struct GatedBackend {
        state: Mutex<(u64, bool)>,
        changed: Condvar,
        inner: LocalBackend,
    }

    impl GatedBackend {
        fn new() -> Self {
            Self {
                state: Mutex::new((0, false)),
                changed: Condvar::new(),
                inner: LocalBackend::new(),
            }
        }

        /// Blocks until `n` solve calls have entered the gate.
        fn wait_entered(&self, n: u64) {
            let mut state = self.state.lock().unwrap();
            while state.0 < n {
                state = self.changed.wait(state).unwrap();
            }
        }

        /// Opens the gate, releasing every blocked solve.
        fn release(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    impl SimulationBackend for GatedBackend {
        fn name(&self) -> &str {
            "gated"
        }

        fn solve_batch(&self, requests: &[SimRequest]) -> Vec<crate::backend::SimResult> {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            self.changed.notify_all();
            while !state.1 {
                state = self.changed.wait(state).unwrap();
            }
            drop(state);
            self.inner.solve_batch(requests)
        }
    }

    #[test]
    fn cross_thread_deferral_is_counted_and_bitwise_consistent() {
        use crate::cache::InMemorySimCache;
        let backend = Arc::new(GatedBackend::new());
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine()
            .with_cache(cache.clone())
            .with_backend(backend.clone());
        let (cell, arc) = inv_fall();
        let nominal = ProcessSample::nominal();
        let contended = pt(5.0, 2.0, 0.8);
        let fresh = pt(9.0, 4.0, 0.7);

        // Worker A claims the contended coordinate through the scalar path and blocks
        // inside the backend, holding its in-flight claim.
        let eng_a = eng.clone();
        let a = std::thread::spawn(move || eng_a.simulate(cell, &arc, &contended, &nominal));
        backend.wait_entered(1);

        // Worker B's cross-seed batch includes the contended coordinate: it must defer
        // that lane, claim and solve the fresh one, then wait for A's result.
        let eng_b = eng.clone();
        let b = std::thread::spawn(move || {
            eng_b.simulate_mixed_batch(&[
                (cell, arc, contended, nominal),
                (cell, arc, fresh, nominal),
            ])
        });
        backend.wait_entered(2);
        backend.release();

        let from_a = a.join().expect("worker A completes");
        let from_b = b.join().expect("worker B completes");
        assert_eq!(
            from_b[0], from_a,
            "the deferred lane resolves to the claim owner's measurement"
        );
        let stats = eng.dispatch_stats();
        assert_eq!(stats.lanes_dispatched, 2, "only the batch dispatches lanes");
        assert_eq!(stats.lanes_cached, 0);
        assert_eq!(stats.lanes_claimed, 1);
        assert_eq!(
            stats.lanes_deferred, 1,
            "the lane owned by worker A must be accounted as deferred"
        );
        assert_eq!(eng.simulation_count(), 2, "the contended lane is paid once");
    }

    /// A backend that counts the lanes it is asked to solve and delegates to the local
    /// kernel — proves the engine routes every paid solve (and only paid solves) through
    /// the backend boundary.
    #[derive(Debug, Default)]
    struct CountingBackend {
        lanes: AtomicU64,
        inner: LocalBackend,
    }

    impl SimulationBackend for CountingBackend {
        fn name(&self) -> &str {
            "counting"
        }

        fn solve_batch(&self, requests: &[SimRequest]) -> Vec<crate::backend::SimResult> {
            self.lanes
                .fetch_add(requests.len() as u64, Ordering::Relaxed);
            self.inner.solve_batch(requests)
        }
    }

    #[test]
    fn backend_sees_every_paid_solve_and_no_cache_hit() {
        use crate::cache::InMemorySimCache;
        let backend = Arc::new(CountingBackend::default());
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine()
            .with_cache(cache.clone())
            .with_backend(backend.clone());
        assert_eq!(eng.backend().name(), "counting");
        let (cell, arc) = inv_fall();
        let points = vec![pt(2.0, 1.0, 0.8), pt(5.0, 2.0, 0.9), pt(9.0, 4.0, 0.7)];
        let first = eng.sweep_nominal(cell, &arc, &points);
        assert_eq!(backend.lanes.load(Ordering::Relaxed), 3);
        assert_eq!(eng.simulation_count(), 3);
        // Warm replay: answered from the cache, so the backend must not be consulted.
        let second = eng.sweep_nominal(cell, &arc, &points);
        assert_eq!(second, first);
        assert_eq!(
            backend.lanes.load(Ordering::Relaxed),
            3,
            "cache hits bypass the backend"
        );
        // And a backend-routed lane is bitwise identical to the default local backend.
        let local = engine().sweep_nominal(cell, &arc, &points);
        assert_eq!(first, local);
    }

    #[test]
    fn shared_counter_aggregates_across_engines() {
        let counter = SimulationCounter::new();
        let a = engine().with_shared_counter(counter.clone());
        let b = CharacterizationEngine::with_config(
            TechnologyNode::n16_finfet(),
            TransientConfig::fast(),
        )
        .expect("fast preset validates")
        .with_shared_counter(counter.clone());
        let (cell, arc) = inv_fall();
        let _ = a.simulate_nominal(cell, &arc, &pt(5.0, 2.0, 0.8));
        let _ = b.simulate_nominal(cell, &arc, &pt(5.0, 2.0, 0.8));
        assert_eq!(counter.count(), 2);
    }
}
