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
//!
//! # Dispatch
//!
//! Every entry point is a thin wrapper over [`simulate_mixed`]: one call looks each
//! distinct coordinate up in the cache once, solves the misses in chunks spread across
//! threads (one backend call each), archives them, and answers repeats within the call
//! from the cache.  A coordinate is therefore paid once per call, and with a cache once
//! across a sequence of calls.  Concurrent calls that request one coordinate may each pay
//! for it: the cache stays thread-safe, but nothing holds a miss back until another
//! call's solve lands.  The pipeline runner never makes such calls — it runs each arc's
//! units on one thread, and the arc is part of every coordinate.
//!
//! [`simulate_mixed`]: CharacterizationEngine::simulate_mixed

use crate::backend::{LocalBackend, SimRequest, SimResult, SimulationBackend};
use crate::cache::{coordinate_bits, SimKey, SimulationCache};
use crate::input::{InputPoint, InputSpace};
use crate::measure::TimingMeasurement;
use crate::transient::TransientConfig;
use rayon::prelude::*;
use slic_cells::{Cell, EquivalentInverter, TimingArc};
use slic_device::{ProcessSample, TechnologyNode};
use slic_obs::metrics::{LANE_BUCKETS, LATENCY_BUCKETS_NS};
use slic_obs::Observability;
use slic_units::Amperes;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One fully-specified lane of a mixed worklist: arc, input point and process seed.  The
/// arc names its cell, so a lane cannot pair an arc with another cell's devices.
///
/// Mixed lanes let callers batch across *everything* that varies — cells, arcs, grid
/// points and seeds — into one kernel worklist, instead of issuing one batch per arc or
/// per seed.
pub type MixedLane = (TimingArc, InputPoint, ProcessSample);

/// Lanes per backend call when a lane list is fanned out across worker threads: a
/// quarter of a thread's share, so the chunk count keeps every core busy, capped at 64
/// lanes.  The cap is large enough that a call amortizes its fixed cost — a farm call to
/// two workers becomes four 16-lane jobs — and small enough to bound what one call holds.
/// On a 2-core host, a cap of 64 instead of 16 cut the farmed Monte Carlo campaign
/// (perfbench `mc-farm`) from 3,916 backend calls to 1,244 and its median campaign time
/// by 30 %, with the local workloads flat.  The scalar kernel integrates lane by lane, so
/// the width never changes its bits.
fn batch_width(lanes: usize) -> usize {
    lanes
        .div_ceil(4 * rayon::current_num_threads())
        .clamp(1, 64)
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

/// A cloneable handle onto a shared count of transient simulations: the lanes an engine
/// (and its clones) paid a backend to solve.  The engine is its only writer.
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
    pub(crate) fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }
}

/// Shared dispatch counters of one engine (and its clones): how requested lanes were
/// resolved.  Every lane lands in exactly one bucket — the claimed (solved) ones are the
/// [`SimulationCounter`] — so `dispatched == cached + claimed + deferred` at any quiescent
/// point, the invariant the post-run dispatch summary checks.
#[derive(Debug, Default)]
struct DispatchCounters {
    dispatched: AtomicU64,
    cached: AtomicU64,
    deferred: AtomicU64,
}

/// A point-in-time copy of an engine's dispatch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchSnapshot {
    /// Lanes requested from the engine.
    pub lanes_dispatched: u64,
    /// Lanes answered from the simulation cache without solving, including in-call
    /// repeats of a coordinate whose first copy was a hit.
    pub lanes_cached: u64,
    /// Lanes solved by the backend: the engine's [`SimulationCounter`].
    pub lanes_claimed: u64,
    /// In-call repeats: later copies of a coordinate whose first copy in the same call
    /// was solved, answered without a second solve.
    pub lanes_deferred: u64,
}

/// A simulator front-end bound to one technology node.
#[derive(Clone)]
pub struct CharacterizationEngine {
    tech: Arc<TechnologyNode>,
    /// `tech`'s name, which every cache key of this engine shares.
    tech_name: Arc<str>,
    config: TransientConfig,
    counter: SimulationCounter,
    cache: Option<Arc<dyn SimulationCache>>,
    backend: Arc<dyn SimulationBackend>,
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
        #[expect(
            clippy::expect_used,
            reason = "the accurate preset is a compile-time constant that validates; a Result here would force every caller to handle an impossible error"
        )]
        Self::with_config(tech, TransientConfig::accurate())
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
            tech_name: Arc::from(tech.name()),
            tech: Arc::new(tech),
            config,
            counter: SimulationCounter::new(),
            cache: None,
            backend: Arc::new(LocalBackend::new()),
            dispatch: Arc::new(DispatchCounters::default()),
            obs: Observability::default(),
        })
    }

    /// Attaches a simulation cache.  Subsequent calls answer repeated coordinates from
    /// the cache without running the solver and without incrementing the simulation
    /// counter.  Without a cache a coordinate is still solved once per call, but
    /// nothing is remembered between calls.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<dyn SimulationCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached simulation cache, if any.
    pub fn cache(&self) -> Option<&Arc<dyn SimulationCache>> {
        self.cache.as_ref()
    }

    /// Replaces the backend that executes transient solves.  The counter and cache stay
    /// on this engine's side of the boundary, so a backend swap cannot change what a run
    /// pays for — only where the solves execute.
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
        self.tech_name = Arc::from(tech.name());
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

    /// Snapshot of the dispatch counters (shared across clones of this engine).
    pub fn dispatch_stats(&self) -> DispatchSnapshot {
        DispatchSnapshot {
            lanes_dispatched: self.dispatch.dispatched.load(Ordering::Relaxed),
            lanes_cached: self.dispatch.cached.load(Ordering::Relaxed),
            lanes_claimed: self.counter.count(),
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
    /// # Panics
    ///
    /// Panics if the transient solver cannot complete the transition — with the supported
    /// technologies and the paper input space this only happens for unphysical inputs, and
    /// failing loudly is preferable to silently corrupting a characterization campaign.
    pub fn simulate(
        &self,
        arc: &TimingArc,
        point: &InputPoint,
        seed: &ProcessSample,
    ) -> TimingMeasurement {
        self.simulate_mixed(&[(*arc, *point, *seed)])[0]
    }

    /// Simulates an arbitrary mixed worklist — lanes spanning arcs (and with them cells),
    /// input points and process seeds — in parallel through the backend.  Result `i`
    /// corresponds to `lanes[i]` and is bitwise identical to
    /// [`simulate`](Self::simulate) with the same coordinates: batching changes only how
    /// the work is grouped, never what a run pays for or produces.
    ///
    /// This is the engine's one dispatch routine (see the [module docs](self)).  Every
    /// lane is one cache hit or one miss and lands in exactly one
    /// [`DispatchSnapshot`] bucket.
    ///
    /// # Panics
    ///
    /// As [`simulate`](Self::simulate), when any lane's transient fails.
    pub fn simulate_mixed(&self, lanes: &[MixedLane]) -> Vec<TimingMeasurement> {
        self.obs
            .metrics
            .observe("engine.batch.lanes", lanes.len() as u64, LANE_BUCKETS);
        let mut span = self
            .obs
            .trace
            .span("solve_batch", &[("lanes", lanes.len().to_string())]);
        let parent = span.id();
        let (firsts, slots) = first_copies(lanes);
        let chunks: Vec<&[usize]> = firsts.chunks(batch_width(firsts.len())).collect();
        let resolved: Vec<(TimingMeasurement, bool)> = chunks
            .par_iter()
            .map(|chunk| self.resolve_chunk(parent, lanes, chunk))
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        let hits = resolved.iter().filter(|(_, hit)| *hit).count();
        let (mut cached, mut deferred) = (hits, 0);
        let measurements = lanes
            .iter()
            .zip(slots)
            .enumerate()
            .map(|(i, (lane, slot))| {
                let (measurement, hit) = resolved[slot];
                if firsts[slot] == i {
                    return measurement;
                }
                if hit {
                    cached += 1;
                } else {
                    deferred += 1;
                }
                // A later copy reads what its first copy found or archived (one hit);
                // without a cache it shares the first copy's result.
                self.cache
                    .as_ref()
                    .and_then(|cache| cache.lookup(&self.key(lane)))
                    .unwrap_or(measurement)
            })
            .collect();
        let claimed = firsts.len() - hits;
        for (counter, n) in [
            (&self.dispatch.dispatched, lanes.len()),
            (&self.dispatch.cached, cached),
            (&self.dispatch.deferred, deferred),
        ] {
            counter.fetch_add(n as u64, Ordering::Relaxed);
        }
        span.attr("cached", cached.to_string());
        span.attr("claimed", claimed.to_string());
        span.attr("deferred", deferred.to_string());
        self.obs
            .metrics
            .observe("cache.lookup.hit_lanes", cached as u64, LANE_BUCKETS);
        measurements
    }

    /// Resolves one chunk of distinct lanes (indices into `lanes`): one cache lookup per
    /// lane, one backend call for the misses, each solve archived.  Returns every lane's
    /// measurement and whether the cache answered it.
    fn resolve_chunk(
        &self,
        parent: Option<u64>,
        lanes: &[MixedLane],
        chunk: &[usize],
    ) -> Vec<(TimingMeasurement, bool)> {
        let (keys, found): (Vec<SimKey>, Vec<Option<TimingMeasurement>>) = match &self.cache {
            Some(cache) => {
                let keys: Vec<SimKey> = chunk.iter().map(|&i| self.key(&lanes[i])).collect();
                let mut span = self.obs.trace.span_under(
                    parent,
                    "cache.lookup",
                    &[("lanes", chunk.len().to_string())],
                );
                let found: Vec<_> = keys.iter().map(|key| cache.lookup(key)).collect();
                span.attr("hits", found.iter().flatten().count().to_string());
                (keys, found)
            }
            None => (Vec::new(), vec![None; chunk.len()]),
        };
        let requests: Vec<SimRequest> = chunk
            .iter()
            .zip(&found)
            .filter(|(_, hit)| hit.is_none())
            .map(|(&i, _)| {
                let (arc, point, seed) = lanes[i];
                SimRequest {
                    tech: self.tech.clone(),
                    cell: arc.cell(),
                    arc,
                    point,
                    seed,
                    config: self.config,
                }
            })
            .collect();
        let mut solved = self.solve_misses(parent, &requests).into_iter();
        chunk
            .iter()
            .zip(found)
            .enumerate()
            .map(|(j, (&i, hit))| {
                if let Some(measurement) = hit {
                    return (measurement, true);
                }
                let (arc, point, _) = &lanes[i];
                #[expect(
                    clippy::panic,
                    reason = "a failed transient means unphysical inputs or a diverged solver; archiving a partial table would poison every downstream artifact, so failing loudly is the contract"
                )]
                let measurement = solved
                    .next()
                    .unwrap_or_else(|| Err("the backend returned no result".to_string()))
                    .unwrap_or_else(|err| {
                        panic!(
                            "transient simulation failed for {} at {point}: {err}",
                            arc.id()
                        )
                    });
                if let Some(cache) = &self.cache {
                    cache.store(keys[j].clone(), measurement);
                }
                (measurement, false)
            })
            .collect()
    }

    /// Solves `requests` in one backend call, counting each as a paid simulation.
    fn solve_misses(&self, parent: Option<u64>, requests: &[SimRequest]) -> Vec<SimResult> {
        if requests.is_empty() {
            return Vec::new();
        }
        self.counter.add(requests.len() as u64);
        let span = self.obs.trace.span_under(
            parent,
            "backend.solve",
            &[("lanes", requests.len().to_string())],
        );
        let solved = self.backend.solve_batch(requests);
        if self.obs.trace.is_enabled() {
            self.obs.metrics.observe(
                "backend.solve.latency_ns",
                span.elapsed_ns(),
                LATENCY_BUCKETS_NS,
            );
        }
        solved
    }

    /// The cache key of one lane on this engine's technology and configuration.
    fn key(&self, (arc, point, seed): &MixedLane) -> SimKey {
        SimKey::new(
            self.backend.kernel_id(),
            Arc::clone(&self.tech_name),
            arc,
            point,
            seed,
            &self.config,
        )
    }

    /// Runs one transient simulation at the nominal process corner.
    pub fn simulate_nominal(&self, arc: &TimingArc, point: &InputPoint) -> TimingMeasurement {
        self.simulate(arc, point, &ProcessSample::nominal())
    }

    /// Simulates `arc` at every input point for a fixed process seed (the `.ALTER` sweep),
    /// in parallel through the backend.  Result `i` corresponds to `points[i]` and
    /// is bitwise identical to [`simulate`](Self::simulate) at that point.
    pub fn sweep(
        &self,
        arc: &TimingArc,
        points: &[InputPoint],
        seed: &ProcessSample,
    ) -> Vec<TimingMeasurement> {
        self.simulate_mixed(&points.iter().map(|p| (*arc, *p, *seed)).collect::<Vec<_>>())
    }

    /// Simulates `arc` at every input point at the nominal corner, in parallel.
    pub fn sweep_nominal(&self, arc: &TimingArc, points: &[InputPoint]) -> Vec<TimingMeasurement> {
        self.sweep(arc, points, &ProcessSample::nominal())
    }

    /// Monte Carlo ensemble: simulates `arc` at one input point under every process seed,
    /// in parallel through the backend.  Element `i` of the result corresponds to
    /// `seeds[i]` and is bitwise identical to [`simulate`](Self::simulate) under that seed.
    pub fn monte_carlo(
        &self,
        arc: &TimingArc,
        point: &InputPoint,
        seeds: &[ProcessSample],
    ) -> Vec<TimingMeasurement> {
        self.simulate_mixed(&seeds.iter().map(|s| (*arc, *point, *s)).collect::<Vec<_>>())
    }

    /// Full statistical baseline: simulates every (input point, seed) pair through the
    /// backend.
    ///
    /// The result is indexed `[point][seed]`.
    pub fn monte_carlo_sweep(
        &self,
        arc: &TimingArc,
        points: &[InputPoint],
        seeds: &[ProcessSample],
    ) -> Vec<Vec<TimingMeasurement>> {
        let lanes: Vec<MixedLane> = points
            .iter()
            .flat_map(|p| seeds.iter().map(move |s| (*arc, *p, *s)))
            .collect();
        let mut flat = self.simulate_mixed(&lanes).into_iter();
        points
            .iter()
            .map(|_| flat.by_ref().take(seeds.len()).collect())
            .collect()
    }
}

/// Maps every lane onto the first lane with its coordinate: the first copies' lane
/// indices in call order, and for each lane the position of its first copy in that list.
/// Lanes are compared on their normalized coordinate bits — the arc, point and seed parts
/// of a [`SimKey`]; one engine's technology and configuration are fixed — so no key is
/// built before the chunks fan out.
fn first_copies(lanes: &[MixedLane]) -> (Vec<usize>, Vec<usize>) {
    let mut seen = BTreeMap::new();
    let mut firsts = Vec::new();
    let slots = lanes
        .iter()
        .enumerate()
        .map(|(i, (arc, point, seed))| {
            *seen
                .entry((*arc, coordinate_bits(point, seed)))
                .or_insert_with(|| {
                    firsts.push(i);
                    firsts.len() - 1
                })
        })
        .collect();
    (firsts, slots)
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

    fn inv_fall() -> TimingArc {
        TimingArc::new(
            Cell::new(CellKind::Inv, DriveStrength::X1),
            0,
            Transition::Fall,
        )
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
        let arc = inv_fall();
        assert_eq!(eng.simulation_count(), 0);
        let _ = eng.simulate_nominal(&arc, &pt(5.0, 2.0, 0.8));
        assert_eq!(eng.simulation_count(), 1);
        let points = vec![pt(2.0, 1.0, 0.8), pt(5.0, 2.0, 0.9), pt(9.0, 4.0, 0.7)];
        let _ = eng.sweep_nominal(&arc, &points);
        assert_eq!(eng.simulation_count(), 4);
    }

    #[test]
    fn counter_is_shared_between_clones() {
        let eng = engine();
        let clone = eng.clone();
        let arc = inv_fall();
        let _ = clone.simulate_nominal(&arc, &pt(5.0, 2.0, 0.8));
        assert_eq!(eng.simulation_count(), 1);
    }

    #[test]
    fn ieff_does_not_count_as_a_simulation() {
        let eng = engine();
        let arc = inv_fall();
        let i = eng.ieff(&arc, &pt(5.0, 2.0, 0.8), &ProcessSample::nominal());
        assert!(i.value() > 0.0);
        assert_eq!(eng.simulation_count(), 0);
    }

    #[test]
    fn sweep_results_match_individual_runs() {
        let eng = engine();
        let arc = inv_fall();
        let points = vec![pt(2.0, 1.0, 0.8), pt(8.0, 4.0, 0.7)];
        let swept = eng.sweep_nominal(&arc, &points);
        for (p, m) in points.iter().zip(&swept) {
            let single = eng.simulate_nominal(&arc, p);
            assert_eq!(*m, single, "sweep must be deterministic and ordered");
        }
    }

    #[test]
    fn monte_carlo_produces_spread() {
        let eng = engine();
        let arc = inv_fall();
        let mut rng = StdRng::seed_from_u64(11);
        let seeds = eng.tech().variation().sample_n(&mut rng, 48);
        let ms = eng.monte_carlo(&arc, &pt(5.0, 2.0, 0.8), &seeds);
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
        let arc = inv_fall();
        let mut rng = StdRng::seed_from_u64(3);
        let seeds = eng.tech().variation().sample_n(&mut rng, 5);
        let points = vec![pt(2.0, 1.0, 0.8), pt(8.0, 4.0, 0.7), pt(5.0, 2.0, 0.9)];
        let grid = eng.monte_carlo_sweep(&arc, &points, &seeds);
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
        let arc = inv_fall();
        let point = pt(5.0, 2.0, 0.8);
        let first = eng.simulate_nominal(&arc, &point);
        assert_eq!(eng.simulation_count(), 1);
        assert_eq!(cache.hits(), 0);
        let second = eng.simulate_nominal(&arc, &point);
        assert_eq!(second, first, "cache must replay the archived measurement");
        assert_eq!(
            eng.simulation_count(),
            1,
            "cache hits must not count as simulations"
        );
        assert_eq!(cache.hits(), 1);
        // A different coordinate still simulates.
        let _ = eng.simulate_nominal(&arc, &pt(6.0, 2.0, 0.8));
        assert_eq!(eng.simulation_count(), 2);
    }

    #[test]
    fn concurrent_identical_requests_solve_once() {
        use crate::cache::InMemorySimCache;
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine().with_cache(cache.clone());
        let arc = inv_fall();
        // Sixteen copies of one coordinate in one call: the first is paid, the other
        // fifteen are answered from the cache (counted hits).
        let points = vec![pt(5.0, 2.0, 0.8); 16];
        let measurements = eng.sweep_nominal(&arc, &points);
        assert!(measurements.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(eng.simulation_count(), 1, "one coordinate, one solve");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 15);
    }

    #[test]
    fn monte_carlo_lanes_match_scalar_simulations_bitwise() {
        let eng = engine();
        let arc = inv_fall();
        let mut rng = StdRng::seed_from_u64(7);
        let seeds = eng.tech().variation().sample_n(&mut rng, 9);
        let point = pt(5.0, 2.0, 0.8);
        let batched = eng.monte_carlo(&arc, &point, &seeds);
        for (seed, m) in seeds.iter().zip(&batched) {
            let scalar = eng.simulate(&arc, &point, seed);
            assert_eq!(
                *m, scalar,
                "batch lane must be bitwise equal to its scalar sim"
            );
        }
    }

    #[test]
    fn batched_monte_carlo_replays_from_cache() {
        use crate::cache::InMemorySimCache;
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine().with_cache(cache.clone());
        let arc = inv_fall();
        let mut rng = StdRng::seed_from_u64(23);
        let seeds = eng.tech().variation().sample_n(&mut rng, 12);
        let point = pt(5.0, 2.0, 0.8);
        let first = eng.monte_carlo(&arc, &point, &seeds);
        assert_eq!(eng.simulation_count(), 12);
        assert_eq!(cache.misses(), 12);
        let second = eng.monte_carlo(&arc, &point, &seeds);
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
                    lanes.push((arc, pt(2.0 + 3.0 * i as f64, 1.5, 0.8), *seed));
                }
            }
        }
        let batched = eng.simulate_mixed(&lanes);
        assert_eq!(eng.simulation_count(), lanes.len() as u64);
        let reference = engine();
        for ((arc, point, seed), m) in lanes.iter().zip(&batched) {
            let scalar = reference.simulate(arc, point, seed);
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
        let arc = inv_fall();
        let nominal = ProcessSample::nominal();
        // A duplicated coordinate inside one call: the first copy is solved, so the
        // second is an in-call repeat, answered from the cache and counted as deferred.
        let lanes: Vec<MixedLane> = vec![
            (arc, pt(5.0, 2.0, 0.8), nominal),
            (arc, pt(9.0, 4.0, 0.7), nominal),
            (arc, pt(5.0, 2.0, 0.8), nominal),
        ];
        let first = eng.simulate_mixed(&lanes);
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
            "the in-call repeat must be accounted as deferred"
        );
        assert_eq!(eng.simulation_count(), 2, "the duplicate is never re-paid");
        // A warm replay of the same batch resolves every lane from the cache.
        let second = eng.simulate_mixed(&lanes);
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

    /// A backend that records the lane count of every call and delegates to the local
    /// kernel — proves the engine routes every paid solve (and only paid solves) through
    /// the backend boundary, in calls of the width `batch_width` sets.
    #[derive(Debug, Default)]
    struct RecordingBackend {
        calls: std::sync::Mutex<Vec<usize>>,
        inner: LocalBackend,
    }

    impl RecordingBackend {
        /// Lane counts of the calls so far.
        fn calls(&self) -> Vec<usize> {
            self.calls.lock().expect("no test thread panicked").clone()
        }

        /// Lanes solved so far, over every call.
        fn lanes(&self) -> usize {
            self.calls().iter().sum()
        }
    }

    impl SimulationBackend for RecordingBackend {
        fn name(&self) -> &str {
            "recording"
        }

        fn solve_batch(&self, requests: &[SimRequest]) -> Vec<crate::backend::SimResult> {
            self.calls
                .lock()
                .expect("no test thread panicked")
                .push(requests.len());
            self.inner.solve_batch(requests)
        }

        fn kernel_id(&self) -> u64 {
            self.inner.kernel_id()
        }
    }

    #[test]
    fn backend_sees_every_paid_solve_and_no_cache_hit() {
        use crate::cache::InMemorySimCache;
        let backend = Arc::new(RecordingBackend::default());
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine()
            .with_cache(cache.clone())
            .with_backend(backend.clone());
        assert_eq!(eng.backend().name(), "recording");
        let arc = inv_fall();
        let points = vec![pt(2.0, 1.0, 0.8), pt(5.0, 2.0, 0.9), pt(9.0, 4.0, 0.7)];
        let first = eng.sweep_nominal(&arc, &points);
        assert_eq!(backend.lanes(), 3);
        assert_eq!(eng.simulation_count(), 3);
        // Warm replay: answered from the cache, so the backend must not be consulted.
        let second = eng.sweep_nominal(&arc, &points);
        assert_eq!(second, first);
        assert_eq!(backend.lanes(), 3, "cache hits bypass the backend");
        // And a backend-routed lane is bitwise identical to the default local backend.
        let local = engine().sweep_nominal(&arc, &points);
        assert_eq!(first, local);
    }

    #[test]
    fn a_monte_carlo_sweep_reaches_the_backend_in_calls_of_up_to_64_lanes() {
        let backend = Arc::new(RecordingBackend::default());
        let eng = engine().with_backend(backend.clone());
        let arc = inv_fall();
        let mut rng = StdRng::seed_from_u64(19);
        let seeds = eng.tech().variation().sample_n(&mut rng, 100);
        let points: Vec<InputPoint> = (0..25)
            .map(|i| pt(2.0 + 0.5 * i as f64, 1.0 + 0.2 * i as f64, 0.8))
            .collect();
        let grid = eng.monte_carlo_sweep(&arc, &points, &seeds);
        let calls = backend.calls();
        assert_eq!(
            calls.iter().sum::<usize>(),
            2_500,
            "every lane is paid once"
        );
        let cores = rayon::current_num_threads();
        assert_eq!(
            calls.iter().max(),
            Some(&2_500usize.div_ceil(4 * cores).min(64)),
            "the widest call is a quarter of a core's share, capped at 64 lanes"
        );
        assert!(calls.iter().all(|&lanes| lanes <= 64), "{calls:?}");
        let reference = engine();
        for (point, row) in points.iter().zip(&grid) {
            for (seed, measurement) in seeds.iter().zip(row) {
                assert_eq!(*measurement, reference.simulate(&arc, point, seed));
            }
        }
    }

    #[test]
    fn shared_counter_aggregates_across_engines() {
        // An engine rebound to another node (historical learning) pays into the same
        // counter, and the counter is the dispatch snapshot's claimed lanes.
        let a = engine();
        let b = a.clone().with_technology(TechnologyNode::n16_finfet());
        let arc = inv_fall();
        let _ = a.simulate_nominal(&arc, &pt(5.0, 2.0, 0.8));
        let _ = b.simulate_nominal(&arc, &pt(5.0, 2.0, 0.8));
        assert_eq!(a.counter().count(), 2);
        assert_eq!(b.dispatch_stats().lanes_claimed, 2);
    }

    #[test]
    fn scalar_and_simd_engines_sharing_a_cache_each_pay_their_own_sims() {
        use crate::cache::InMemorySimCache;
        let cache = Arc::new(InMemorySimCache::new());
        let scalar = engine().with_cache(cache.clone());
        let simd = engine()
            .with_cache(cache.clone())
            .with_backend(Arc::new(LocalBackend::with_simd(true)));
        let arc = inv_fall();
        let points = vec![pt(2.0, 1.0, 0.8), pt(5.0, 2.0, 0.9), pt(9.0, 4.0, 0.7)];
        let from_simd = simd.sweep_nominal(&arc, &points);
        let from_scalar = scalar.sweep_nominal(&arc, &points);
        assert_eq!(simd.simulation_count(), 3);
        assert_eq!(
            scalar.simulation_count(),
            3,
            "SIMD records must not answer scalar lookups"
        );
        assert_eq!(from_scalar, engine().sweep_nominal(&arc, &points));
        // Each flavour replays its own records.
        assert_eq!(simd.sweep_nominal(&arc, &points), from_simd);
        assert_eq!(scalar.sweep_nominal(&arc, &points), from_scalar);
        assert_eq!(simd.simulation_count() + scalar.simulation_count(), 6);
        assert_eq!(cache.len(), 6);
    }
}
