//! One benchmark run: set up the workload's fixtures, run one untimed warm-up
//! campaign, then run campaigns back to back (a closed loop with one client) for the
//! requested time, checking each, and reduce them to the reported metrics.

use crate::campaign::{self, CacheSource, Campaign, Checker, Expected, Outcome, Workload};
use crate::fixture::{self, FarmCounters, Fleet, WarmLog, FLEET_WORKERS};
use crate::probe::{self, Probe, Span};
use crate::sys;
use slic_spice::{LocalBackend, SimulationBackend};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("campaign_s", "s"),
    ("coords_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("model_err_pct", "%"),
    ("cache_hit_pct", "%"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.  A layer that does
/// not run on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("disk.open_s", "s"),
    ("disk.open_mb_per_s", "MB/s"),
    ("disk.bytes_per_record", "B"),
    ("disk.store_s", "s"),
    ("disk.persist_s", "s"),
    ("cache.lookups", "count"),
    ("cache.lookup_s", "s"),
    ("cache.lookups_per_coord", "ratio"),
    ("cache.warm_hits", "count"),
    ("plan.build_s", "s"),
    ("runner.learn_s", "s"),
    ("runner.characterize_s", "s"),
    ("engine.batch_lanes_p50", "count"),
    ("engine.lanes_deferred", "count"),
    ("backend.calls", "count"),
    ("backend.lanes_p50", "count"),
    ("backend.lanes_p90", "count"),
    ("backend.busy_s", "s"),
    ("backend.threads", "count"),
    ("kernel.sims", "count"),
    ("kernel.steps_per_sim", "ratio"),
    ("kernel.device_evals_per_sim", "ratio"),
    ("kernel.rejected_per_sim", "ratio"),
    ("kernel.sims_per_core_s", "1/s"),
    ("pipeline.efficiency", "ratio"),
    ("farm.roundtrips", "count"),
    ("farm.lanes_per_roundtrip", "ratio"),
    ("farm.bytes_per_lane", "B"),
    ("farm.lanes_local", "count"),
    ("farm.failovers", "count"),
    ("farm.reconnects", "count"),
    ("farm.heartbeats_missed", "count"),
    ("farm.vs_local", "ratio"),
    ("artifact.to_json_s", "s"),
    ("artifact.bytes", "B"),
    ("liberty.export_s", "s"),
    ("liberty.bytes", "B"),
    ("trace.overhead_s", "s"),
];

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed: the run configuration's seed.
    pub seed: u64,
    /// How long the timed phase runs campaigns.
    pub seconds: f64,
    /// Traced run: alternate traced and untraced campaigns and report per-layer metrics.
    pub trace: bool,
    /// Directory for the run's files (removed afterwards) and the traced run's spans.
    pub work_dir: PathBuf,
    /// This benchmark's executable, re-run as the child that builds the `mc-warm` log.
    pub program: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every campaign passed its output check.
    pub correct: bool,
    /// Timed campaigns.
    pub attempted: u64,
    /// Timed campaigns that errored, panicked or failed the check.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// One human-readable line.
    pub summary: String,
    /// The traced campaigns' spans, in start order (empty untraced).
    pub spans: Vec<Span>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-tripping rendering of a finite number; non-finite values (a ratio
/// over an idle layer) render as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median (mean of the middle pair for an even count); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of integer samples; 0 for no samples.
fn quantile(values: &[u64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// `numerator / denominator`, or 0 over an idle layer.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Removes the run directory when the run ends, however it ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One timed campaign.
struct Sample {
    wall_s: f64,
    /// Peak resident memory during the campaign, in MiB.
    peak_rss_mb: f64,
    outcome: Option<Outcome>,
    probe: Option<Probe>,
    farm: Option<FarmCounters>,
}

/// Fixture state the metrics need.
struct Fixtures {
    warm_log: Option<WarmLog>,
    fleet: Option<Fleet>,
    /// Wall time of the local reference campaign a farm run checks against.
    local_reference_s: Option<f64>,
}

/// Runs one benchmark run.  `started` is the process start, from which `setup_s` is
/// measured.
///
/// # Errors
///
/// Returns a description when setup fails: a fixture cannot be built, or the warm-up
/// campaign errors or differs from its reference.  Timed campaigns never error the
/// run; they count as failed.
pub fn run(options: &Options, started: Instant) -> Result<Report, String> {
    let workload = options.workload;
    let seed = options.seed;
    let run_dir = options
        .work_dir
        .join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", run_dir.display()))?;
    let _cleanup = RemoveOnDrop(run_dir.clone());

    let mut fixtures = Fixtures {
        warm_log: None,
        fleet: None,
        local_reference_s: None,
    };
    let reference = match workload {
        Workload::Nominal | Workload::McCold => None,
        Workload::McWarm => {
            let log = fixture::build_warm_log(&options.program, &run_dir.join("warm.jsonl"), seed)?;
            let reference = (log.expected.clone(), log.cold_sims);
            fixtures.warm_log = Some(log);
            Some(reference)
        }
        Workload::McFarm => {
            fixtures.fleet = Some(Fleet::start(FLEET_WORKERS)?);
            let start = Instant::now();
            let local = fixture::local_reference(seed, &run_dir)?;
            fixtures.local_reference_s = Some(start.elapsed().as_secs_f64());
            Some((
                Expected::from_reference(&local, local.sims_paid),
                local.sims_paid,
            ))
        }
    };
    let campaign = || Campaign {
        config: workload.config(seed),
        cache: match &fixtures.warm_log {
            Some(log) => CacheSource::Disk(&log.path),
            None => CacheSource::Memory,
        },
        backend: match &fixtures.fleet {
            Some(fleet) => fleet.backend() as Arc<dyn SimulationBackend>,
            None => Arc::new(LocalBackend::new()),
        },
        out_dir: &run_dir,
    };

    let warmup = campaign::run(&campaign(), None).map_err(|e| format!("warm-up campaign: {e}"))?;
    let (expected, cold_sims) = reference.unwrap_or_else(|| {
        (
            Expected::from_reference(&warmup, warmup.sims_paid),
            warmup.sims_paid,
        )
    });
    expected.check_pinned(workload, seed, cold_sims)?;
    expected
        .verify(&warmup)
        .map_err(|e| format!("warm-up campaign differs from its reference: {e}"))?;
    let calibration = if options.trace {
        let config = workload.config(seed).resolve().map_err(|e| e.to_string())?;
        probe::calibrate_kernel(&config, 0.5)
    } else {
        0.0
    };
    let setup_s = started.elapsed().as_secs_f64();

    let mut checker = Checker::new(expected);
    let mut peak_reset = true;
    let cpu_start = sys::cpu_seconds()?;
    let epoch = Instant::now();
    let min_campaigns = if options.trace { 2 } else { 1 };
    let mut samples: Vec<Sample> = Vec::new();
    while samples.len() < min_campaigns || epoch.elapsed().as_secs_f64() < options.seconds {
        let index = samples.len();
        let probe = (options.trace && index % 2 == 1).then(|| Probe::new(epoch, index));
        let farm_before = fixtures.fleet.as_ref().map(Fleet::counters);
        peak_reset &= sys::reset_peak_rss();
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let run = || campaign::run(&campaign(), probe.as_ref());
            match &probe {
                Some(probe) => probe.span("campaign", run),
                None => run(),
            }
        }))
        .unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            Err(format!("campaign panicked: {message}"))
        });
        let wall_s = start.elapsed().as_secs_f64();
        let peak_rss_mb = sys::peak_rss_mb()?;
        let farm = fixtures
            .fleet
            .as_ref()
            .zip(farm_before)
            .map(|(fleet, before)| delta(fleet.counters(), before));
        checker.check(&result);
        samples.push(Sample {
            wall_s,
            peak_rss_mb,
            outcome: result.ok(),
            probe,
            farm,
        });
    }
    let timed_s = epoch.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds()? - cpu_start;
    drop(fixtures.fleet.take());
    if !peak_reset {
        eprintln!("perfbench: cannot reset the peak-memory mark; peak_rss_mb covers setup too");
    }

    let untraced: Vec<f64> = samples
        .iter()
        .filter(|s| s.probe.is_none())
        .map(|s| s.wall_s)
        .collect();
    let campaign_s = median(&untraced);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if options.trace {
        let layer = LayerInputs {
            samples: &samples,
            fixtures: &fixtures,
            campaign_s,
            calibration,
            sims_paid: warmup.sims_paid,
        };
        layer.fill(&mut values)?;
    } else {
        values.insert("campaign_s", campaign_s);
        // Every passing campaign resolves the same coordinates, so this is the median
        // campaign's throughput; a mean over the timed phase would let one stalled
        // campaign move it.
        values.insert("coords_per_s", warmup.coords() as f64 / campaign_s);
        values.insert("cpu_s", cpu_s / samples.len() as f64);
        let peaks: Vec<f64> = samples.iter().map(|s| s.peak_rss_mb).collect();
        values.insert("peak_rss_mb", median(&peaks));
        values.insert("setup_s", setup_s);
        values.insert("model_err_pct", warmup.model_err_pct);
        values.insert(
            "cache_hit_pct",
            100.0 * warmup.hits as f64 / warmup.coords() as f64,
        );
    }
    let catalogue = if options.trace { PER_LAYER } else { END_TO_END };
    let metrics = catalogue
        .iter()
        .map(|&(name, unit)| {
            values
                .get(name)
                .map(|&value| Metric { name, unit, value })
                .ok_or_else(|| format!("metric `{name}` was not computed"))
        })
        .collect::<Result<Vec<_>, String>>()?;

    let failed_pct = 100.0 * checker.failed as f64 / checker.attempted as f64;
    let walls: Vec<String> = samples.iter().map(|s| format!("{:.3}", s.wall_s)).collect();
    let summary = format!(
        "perfbench {} seed {seed}{}: {} campaigns in {timed_s:.2} s after {setup_s:.2} s setup \
         (walls {}); {failed_pct:.1} % failed{}; sims paid {}, coords {}, liberty digest {}",
        workload.name(),
        if options.trace { " (traced)" } else { "" },
        checker.attempted,
        walls.join(" "),
        checker
            .first_failure
            .as_ref()
            .map(|f| format!(" (first: {f})"))
            .unwrap_or_default(),
        warmup.sims_paid,
        warmup.coords(),
        warmup.digest,
    );
    Ok(Report {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        summary,
        spans: samples
            .iter()
            .filter_map(|s| s.probe.as_ref())
            .flat_map(Probe::spans)
            .collect(),
    })
}

/// `after - before`, counter by counter.
fn delta(after: FarmCounters, before: FarmCounters) -> FarmCounters {
    let (a, b) = (after.stats, before.stats);
    FarmCounters {
        stats: slic_farm::FarmStats {
            jobs_completed: a.jobs_completed - b.jobs_completed,
            failovers: a.failovers - b.failovers,
            reconnects: a.reconnects - b.reconnects,
            heartbeats_missed: a.heartbeats_missed - b.heartbeats_missed,
            degraded_jobs: a.degraded_jobs - b.degraded_jobs,
            lanes_remote: a.lanes_remote - b.lanes_remote,
            lanes_local: a.lanes_local - b.lanes_local,
        },
        wire_bytes: after.wire_bytes - before.wire_bytes,
    }
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    samples: &'a [Sample],
    fixtures: &'a Fixtures,
    /// Median untraced campaign wall time.
    campaign_s: f64,
    /// Single-thread kernel simulations per second.
    calibration: f64,
    sims_paid: u64,
}

impl LayerInputs<'_> {
    /// Median over traced campaigns of a per-campaign value.
    fn per_campaign(&self, f: impl Fn(&Probe, &Outcome, FarmCounters) -> f64) -> f64 {
        let values: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| Some((s.probe.as_ref()?, s.outcome.as_ref()?, s.farm)))
            .map(|(probe, outcome, farm)| f(probe, outcome, farm.unwrap_or_default()))
            .collect();
        median(&values)
    }

    fn fill(&self, values: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
        let log_bytes = match &self.fixtures.warm_log {
            Some(log) => log.bytes()? as f64,
            None => 0.0,
        };
        let (store_s, persist_s) = self
            .fixtures
            .warm_log
            .as_ref()
            .map_or((0.0, 0.0), |log| (log.store_s, log.persist_s));
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let traced: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.probe.is_some())
            .map(|s| s.wall_s)
            .collect();
        let open_s = self.per_campaign(|p, _, _| p.seconds("disk.open"));
        let kernel = |f: fn(&slic_spice::KernelStatsSnapshot) -> f64| {
            self.per_campaign(|p, _, _| p.notes().kernel.as_ref().map_or(0.0, f))
        };
        let entries: [(&'static str, f64); 38] = [
            ("disk.open_s", open_s),
            ("disk.open_mb_per_s", ratio(log_bytes / 1e6, open_s)),
            (
                "disk.bytes_per_record",
                self.per_campaign(|p, _, _| {
                    ratio(log_bytes, p.notes().records.unwrap_or(0) as f64)
                }),
            ),
            ("disk.store_s", store_s),
            ("disk.persist_s", persist_s),
            (
                "cache.lookups",
                self.per_campaign(|p, _, _| p.cache.lookups() as f64),
            ),
            (
                "cache.lookup_s",
                self.per_campaign(|p, _, _| p.cache.lookup_s()),
            ),
            (
                "cache.lookups_per_coord",
                self.per_campaign(|p, o, _| ratio(p.cache.lookups() as f64, o.coords() as f64)),
            ),
            (
                "cache.warm_hits",
                self.per_campaign(|_, o, _| o.warm_hits as f64),
            ),
            (
                "plan.build_s",
                self.per_campaign(|p, _, _| p.seconds("plan.build")),
            ),
            (
                "runner.learn_s",
                self.per_campaign(|p, _, _| p.seconds("runner.learn")),
            ),
            (
                "runner.characterize_s",
                self.per_campaign(|p, _, _| p.seconds("runner.characterize")),
            ),
            (
                "engine.batch_lanes_p50",
                self.per_campaign(|p, _, _| p.notes().batch_lanes_p50 as f64),
            ),
            (
                "engine.lanes_deferred",
                self.per_campaign(|_, o, _| o.dispatch.lanes_deferred as f64),
            ),
            (
                "backend.calls",
                self.per_campaign(|p, _, _| p.backend.calls() as f64),
            ),
            (
                "backend.lanes_p50",
                self.per_campaign(|p, _, _| quantile(&p.backend.lanes(), 0.5)),
            ),
            (
                "backend.lanes_p90",
                self.per_campaign(|p, _, _| quantile(&p.backend.lanes(), 0.9)),
            ),
            (
                "backend.busy_s",
                self.per_campaign(|p, _, _| p.backend.busy_s()),
            ),
            (
                "backend.threads",
                self.per_campaign(|p, _, _| p.backend.threads() as f64),
            ),
            ("kernel.sims", kernel(|k| k.sims as f64)),
            ("kernel.steps_per_sim", kernel(|k| k.steps_per_sim())),
            (
                "kernel.device_evals_per_sim",
                kernel(|k| k.device_evals_per_sim()),
            ),
            (
                "kernel.rejected_per_sim",
                kernel(|k| ratio(k.rejected_steps as f64, k.sims as f64)),
            ),
            ("kernel.sims_per_core_s", self.calibration),
            (
                "pipeline.efficiency",
                ratio(
                    ratio(self.sims_paid as f64, self.campaign_s),
                    self.calibration * nproc,
                ),
            ),
            (
                "farm.roundtrips",
                self.per_campaign(|_, _, f| f.stats.jobs_completed as f64),
            ),
            (
                "farm.lanes_per_roundtrip",
                self.per_campaign(|_, _, f| {
                    ratio(f.stats.lanes_remote as f64, f.stats.jobs_completed as f64)
                }),
            ),
            (
                "farm.bytes_per_lane",
                self.per_campaign(|_, _, f| {
                    ratio(f.wire_bytes as f64, f.stats.lanes_remote as f64)
                }),
            ),
            (
                "farm.lanes_local",
                self.per_campaign(|_, _, f| f.stats.lanes_local as f64),
            ),
            (
                "farm.failovers",
                self.per_campaign(|_, _, f| f.stats.failovers as f64),
            ),
            (
                "farm.reconnects",
                self.per_campaign(|_, _, f| f.stats.reconnects as f64),
            ),
            (
                "farm.heartbeats_missed",
                self.per_campaign(|_, _, f| f.stats.heartbeats_missed as f64),
            ),
            (
                "farm.vs_local",
                self.fixtures
                    .local_reference_s
                    .map_or(0.0, |local| ratio(self.campaign_s, local)),
            ),
            (
                "artifact.to_json_s",
                self.per_campaign(|p, _, _| p.seconds("artifact.to_json")),
            ),
            (
                "artifact.bytes",
                self.per_campaign(|_, o, _| o.artifact_bytes as f64),
            ),
            (
                "liberty.export_s",
                self.per_campaign(|p, _, _| p.seconds("liberty.export")),
            ),
            (
                "liberty.bytes",
                self.per_campaign(|_, o, _| o.liberty_bytes as f64),
            ),
            ("trace.overhead_s", median(&traced) - self.campaign_s),
        ];
        values.extend(entries);
        Ok(())
    }
}
