//! Tracing from the benchmark's side of each layer boundary: timing decorators around
//! the public `SimulationBackend` and `SimulationCache` traits, in-memory spans around
//! the other entry points, and a single-thread kernel calibration.

use rand::rngs::StdRng;
use rand::SeedableRng;
use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
use slic_pipeline::ResolvedConfig;
use slic_spice::{
    CacheError, InputSpace, KernelStatsSnapshot, LocalBackend, SimKey, SimRequest, SimResult,
    SimulationBackend, SimulationCache, TimingMeasurement,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// One timed call into a layer.  Every span of a campaign shares its campaign index;
/// `campaign` spans are the roots, every other span is their child.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Entry point, e.g. `runner.learn`.
    pub name: &'static str,
    /// Campaign index within the run.
    pub campaign: usize,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// One JSON line.
    pub fn to_json(&self) -> String {
        let parent = if self.name == "campaign" {
            "null"
        } else {
            "\"campaign\""
        };
        format!(
            "{{\"campaign\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            self.campaign, self.name, self.start_ns, self.end_ns
        )
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Calls into the backend, as the decorator saw them.
#[derive(Debug, Default)]
pub struct BackendStats {
    busy_ns: AtomicU64,
    lanes: Mutex<Vec<u64>>,
    threads: Mutex<HashSet<ThreadId>>,
}

impl BackendStats {
    /// `solve_batch` calls.
    pub fn calls(&self) -> u64 {
        self.lanes.lock().expect("lane log lock").len() as u64
    }

    /// Lanes of every call, in call order.
    pub fn lanes(&self) -> Vec<u64> {
        self.lanes.lock().expect("lane log lock").clone()
    }

    /// Seconds spent inside `solve_batch`, summed over threads.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Distinct OS threads that reached the backend.
    pub fn threads(&self) -> u64 {
        self.threads.lock().expect("thread set lock").len() as u64
    }
}

/// A [`SimulationBackend`] decorator that times and counts every batch.
pub struct TimedBackend {
    inner: Arc<dyn SimulationBackend>,
    stats: Arc<BackendStats>,
}

impl SimulationBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn solve_batch(&self, requests: &[SimRequest]) -> Vec<SimResult> {
        let start = Instant::now();
        let results = self.inner.solve_batch(requests);
        let busy = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.busy_ns.fetch_add(busy, Ordering::Relaxed);
        self.stats
            .lanes
            .lock()
            .expect("lane log lock")
            .push(requests.len() as u64);
        self.stats
            .threads
            .lock()
            .expect("thread set lock")
            .insert(std::thread::current().id());
        results
    }

    fn kernel_stats(&self) -> Option<KernelStatsSnapshot> {
        self.inner.kernel_stats()
    }
}

/// Calls into the cache, as the decorator saw them.
#[derive(Debug, Default)]
pub struct CacheStats {
    lookups: AtomicU64,
    lookup_ns: AtomicU64,
    store_ns: AtomicU64,
}

impl CacheStats {
    /// `lookup` calls, hits and misses alike.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Seconds spent inside `lookup`, summed over threads.
    pub fn lookup_s(&self) -> f64 {
        self.lookup_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Seconds spent inside `store`, summed over threads.
    pub fn store_s(&self) -> f64 {
        self.store_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// A [`SimulationCache`] decorator that times and counts lookups and stores.
pub struct TimedCache {
    inner: Arc<dyn SimulationCache>,
    stats: Arc<CacheStats>,
}

impl SimulationCache for TimedCache {
    fn lookup(&self, key: &SimKey) -> Option<TimingMeasurement> {
        let start = Instant::now();
        let found = self.inner.lookup(key);
        let took = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        self.stats.lookup_ns.fetch_add(took, Ordering::Relaxed);
        found
    }

    fn store(&self, key: SimKey, measurement: TimingMeasurement) {
        let start = Instant::now();
        self.inner.store(key, measurement);
        let took = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.store_ns.fetch_add(took, Ordering::Relaxed);
    }

    fn hits(&self) -> u64 {
        self.inner.hits()
    }

    fn misses(&self) -> u64 {
        self.inner.misses()
    }

    fn warm_hits(&self) -> u64 {
        self.inner.warm_hits()
    }

    fn persist(&self) -> Result<(), CacheError> {
        self.inner.persist()
    }
}

/// The trace of one campaign: its spans, decorator counters and the program's own
/// counters read at the end.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    campaign: usize,
    spans: Mutex<Vec<Span>>,
    /// What the backend decorator saw.
    pub backend: Arc<BackendStats>,
    /// What the cache decorator saw.
    pub cache: Arc<CacheStats>,
    notes: Mutex<Notes>,
}

/// Program counters read once per campaign.
#[derive(Debug, Default, Clone, Copy)]
pub struct Notes {
    /// Records a disk cache loaded on open.
    pub records: Option<usize>,
    /// Median lanes per engine batch, from the `engine.batch.lanes` histogram.
    pub batch_lanes_p50: u64,
    /// The campaign backend's kernel counters, when it instruments its kernel.
    pub kernel: Option<KernelStatsSnapshot>,
}

impl Probe {
    /// A probe for campaign `campaign`, stamping spans against `epoch`.
    pub fn new(epoch: Instant, campaign: usize) -> Self {
        Self {
            epoch,
            campaign,
            spans: Mutex::new(Vec::new()),
            backend: Arc::default(),
            cache: Arc::default(),
            notes: Mutex::default(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = nanos_since(self.epoch);
        let value = f();
        let end_ns = nanos_since(self.epoch);
        self.spans.lock().expect("span log lock").push(Span {
            name,
            campaign: self.campaign,
            start_ns,
            end_ns,
        });
        value
    }

    /// The recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Total seconds of the spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            // Not `sum()`: an empty f64 sum is -0.0, which would print as "-0.0".
            .fold(0.0, |total, s| total + s)
    }

    /// The program counters noted so far.
    pub fn notes(&self) -> Notes {
        *self.notes.lock().expect("notes lock")
    }

    pub(crate) fn note_records(&self, records: usize) {
        self.notes.lock().expect("notes lock").records = Some(records);
    }

    pub(crate) fn note_batch_lanes_p50(&self, lanes: u64) {
        self.notes.lock().expect("notes lock").batch_lanes_p50 = lanes;
    }

    pub(crate) fn note_kernel(&self, stats: KernelStatsSnapshot) {
        self.notes.lock().expect("notes lock").kernel = Some(stats);
    }

    /// `backend` behind this probe's timing decorator.
    pub fn wrap_backend(&self, backend: Arc<dyn SimulationBackend>) -> Arc<dyn SimulationBackend> {
        Arc::new(TimedBackend {
            inner: backend,
            stats: self.backend.clone(),
        })
    }

    /// `cache` behind this probe's timing decorator.
    pub fn wrap_cache(&self, cache: Arc<dyn SimulationCache>) -> Arc<dyn SimulationCache> {
        Arc::new(TimedCache {
            inner: cache,
            stats: self.cache.clone(),
        })
    }
}

/// Single-thread kernel throughput in simulations per second: a fresh [`LocalBackend`]
/// solving one fixed batch (NAND2_X1 falling, 4 input points × 16 process samples under
/// the workload's technology and transient settings) on the calling thread, repeated
/// for at least `min_seconds`.
pub fn calibrate_kernel(config: &ResolvedConfig, min_seconds: f64) -> f64 {
    let tech = Arc::new(config.technology.clone());
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let points = InputSpace::paper_space(tech.vdd_range()).sample_latin_hypercube(&mut rng, 4);
    let samples = tech.variation().sample_n(&mut rng, 16);
    let batch: Vec<SimRequest> = points
        .iter()
        .flat_map(|point| {
            samples.iter().map(|seed| SimRequest {
                tech: tech.clone(),
                cell,
                arc,
                point: *point,
                seed: *seed,
                config: config.transient,
            })
        })
        .collect();
    let backend = LocalBackend::new();
    let start = Instant::now();
    let mut sims = 0u64;
    while sims == 0 || start.elapsed().as_secs_f64() < min_seconds {
        let solved = backend.solve_batch(std::hint::black_box(&batch));
        sims += std::hint::black_box(solved).len() as u64;
    }
    sims as f64 / start.elapsed().as_secs_f64()
}
