//! One characterization campaign through the public `slic-pipeline` API — the steps
//! `slic characterize --liberty` takes, done through the library — and the check every
//! campaign's output must pass.

use crate::probe::Probe;
use slic::nominal::MethodKind;
use slic_obs::Observability;
use slic_pipeline::{
    CharacterizationPlan, PipelineRunner, RunConfig, RunProfile, UnitKind, VariationKnobs,
};
use slic_spice::{
    DiskSimCache, DispatchSnapshot, InMemorySimCache, SimulationBackend, SimulationCache,
};
use std::path::Path;
use std::sync::Arc;

/// The repository's default run seed, and the benchmark's default workload seed.
pub const DEFAULT_SEED: u64 = 20150313;

/// Monte Carlo process seeds per variation unit on the `mc-*` workloads.
pub const PROCESS_SEEDS: usize = 100;

/// Liberty digests and simulation counts of the default seed, per plan: recorded from
/// a local cold campaign and required of every path (cold, warm replay, farm).
const PINNED: [(bool, &str, u64); 2] = [
    (false, "256b0d041bf56c7a", 4312),
    (true, "aa5d8a1b4aaa4027", 58872),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bayesian, LSE and LUT units at the nominal corner; in-memory cache.
    Nominal,
    /// Bayesian units plus Monte Carlo variation; in-memory cache.
    McCold,
    /// `mc-cold`'s plan replayed from a disk cache log built during setup.
    McWarm,
    /// `mc-cold`'s plan solved by a two-worker farm over loopback TCP.
    McFarm,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Nominal,
        Workload::McCold,
        Workload::McWarm,
        Workload::McFarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Nominal => "nominal",
            Workload::McCold => "mc-cold",
            Workload::McWarm => "mc-warm",
            Workload::McFarm => "mc-farm",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the plan carries Monte Carlo variation units.
    pub fn monte_carlo(self) -> bool {
        self != Workload::Nominal
    }

    /// The run configuration of one campaign: the `standard` library under the
    /// `accurate` profile.
    pub fn config(self, seed: u64) -> RunConfig {
        let mut config = RunConfig {
            library: Some("standard".to_string()),
            profile: Some(RunProfile::Accurate.name().to_string()),
            seed: Some(seed),
            ..RunConfig::default()
        };
        if self.monte_carlo() {
            config.variation = Some(VariationKnobs {
                process_seeds: Some(PROCESS_SEEDS),
                ..VariationKnobs::default()
            });
        } else {
            config.methods = Some(vec!["bayesian".into(), "lse".into(), "lut".into()]);
        }
        config
    }
}

/// Where a campaign's simulation cache lives.
#[derive(Debug, Clone, Copy)]
pub enum CacheSource<'a> {
    /// A fresh in-memory cache.
    Memory,
    /// A `DiskSimCache` log, opened (warm) at the start of the campaign.
    Disk(&'a Path),
}

/// Everything one campaign needs.
pub struct Campaign<'a> {
    /// The configuration, resolved at the start of the campaign.
    pub config: RunConfig,
    /// The cache the campaign opens.
    pub cache: CacheSource<'a>,
    /// The backend every solve goes through.
    pub backend: Arc<dyn SimulationBackend>,
    /// Directory the artifact and the Liberty file are written to.
    pub out_dir: &'a Path,
}

/// What one campaign produced and paid.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Content hash of the Liberty text (results only, unlike the artifact JSON).
    pub digest: String,
    /// Transient simulations paid (learn plus characterize).
    pub sims_paid: u64,
    /// Coordinates answered by the cache.
    pub hits: u64,
    /// Coordinates solved.
    pub misses: u64,
    /// Hits answered by records loaded from an earlier process.
    pub warm_hits: u64,
    /// Mean validation error of the Bayesian nominal units, in percent.
    pub model_err_pct: f64,
    /// The engine's batched-dispatch lane accounting.
    pub dispatch: DispatchSnapshot,
    /// Size of the serialized run artifact.
    pub artifact_bytes: usize,
    /// Size of the Liberty text.
    pub liberty_bytes: usize,
}

impl Outcome {
    /// Coordinates resolved: every lookup that ended as a hit or a paid solve.
    pub fn coords(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Runs `f` inside a span when the campaign is traced.
fn step<T>(probe: Option<&Probe>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match probe {
        Some(probe) => probe.span(name, f),
        None => f(),
    }
}

/// Runs one campaign: resolve, open the cache, plan, build the runner, learn,
/// characterize, persist, serialize, render Liberty, write both files.  With a probe,
/// the cache and backend go through its timing decorators and every step is a span.
///
/// # Errors
///
/// Returns the first pipeline, cache, export or file error, rendered.
pub fn run(campaign: &Campaign<'_>, probe: Option<&Probe>) -> Result<Outcome, String> {
    let config = campaign.config.resolve().map_err(|e| e.to_string())?;
    let cache: Arc<dyn SimulationCache> = match campaign.cache {
        CacheSource::Memory => Arc::new(InMemorySimCache::new()),
        CacheSource::Disk(path) => {
            let disk = step(probe, "disk.open", || DiskSimCache::open(path))
                .map_err(|e| format!("cannot open `{}`: {e}", path.display()))?;
            if let Some(probe) = probe {
                probe.note_records(disk.len());
            }
            Arc::new(disk)
        }
    };
    let (cache, backend) = match probe {
        Some(probe) => (
            probe.wrap_cache(cache),
            probe.wrap_backend(campaign.backend.clone()),
        ),
        None => (cache, campaign.backend.clone()),
    };
    let plan = step(probe, "plan.build", || {
        CharacterizationPlan::from_config(&config)
    })
    .map_err(|e| e.to_string())?;
    let export_grid = config.export_grid;
    let mut runner =
        PipelineRunner::with_parts(config, cache, Some(backend)).map_err(|e| e.to_string())?;
    if probe.is_some() {
        runner = runner.with_observability(Observability::default());
    }
    let learning = step(probe, "runner.learn", || runner.learn());
    let artifact = step(probe, "runner.characterize", || {
        runner.characterize(&plan, &learning.database)
    })
    .map_err(|e| e.to_string())?;
    step(probe, "cache.persist", || runner.cache().persist()).map_err(|e| e.to_string())?;
    let json = step(probe, "artifact.to_json", || artifact.to_json()).map_err(|e| e.to_string())?;
    let liberty = step(probe, "liberty.export", || match &artifact.variation {
        Some(variation) if !variation.tables.is_empty() => artifact
            .characterized
            .to_liberty_with_variation(runner.engine(), export_grid, variation),
        _ => artifact
            .characterized
            .to_liberty(runner.engine(), export_grid),
    })
    .map_err(|e| e.to_string())?;
    std::fs::write(campaign.out_dir.join("run.json"), &json).map_err(|e| e.to_string())?;
    std::fs::write(campaign.out_dir.join("library.lib"), &liberty).map_err(|e| e.to_string())?;

    let bayesian: Vec<f64> = artifact
        .units
        .iter()
        .filter(|u| u.kind == UnitKind::Nominal && u.method == MethodKind::ProposedBayesian)
        .map(|u| u.error_percent)
        .collect();
    if let Some(probe) = probe {
        if let Some((_, lanes)) = runner
            .observability()
            .metrics
            .snapshot()
            .histograms
            .into_iter()
            .find(|(name, _)| name == "engine.batch.lanes")
        {
            probe.note_batch_lanes_p50(lanes.quantile(0.5));
        }
        if let Some(stats) = runner.engine().backend().kernel_stats() {
            probe.note_kernel(stats);
        }
    }
    Ok(Outcome {
        digest: slic_obs::ledger::content_hash(liberty.as_bytes()),
        sims_paid: runner.counter().count(),
        hits: runner.cache().hits(),
        misses: runner.cache().misses(),
        warm_hits: runner.cache().warm_hits(),
        model_err_pct: bayesian.iter().sum::<f64>() / bayesian.len().max(1) as f64,
        dispatch: runner.engine().dispatch_stats(),
        artifact_bytes: json.len(),
        liberty_bytes: liberty.len(),
    })
}

/// What every campaign of a run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Liberty digest.
    pub digest: String,
    /// Simulations paid.
    pub sims_paid: u64,
    /// Coordinates resolved.
    pub coords: u64,
    /// Bayesian validation error, compared bit for bit.
    pub model_err_pct: f64,
}

impl Expected {
    /// The expectation a reference campaign sets, with the simulations a replay of it
    /// pays (zero from a warm cache, the same count otherwise).
    pub fn from_reference(reference: &Outcome, sims_paid: u64) -> Self {
        Self {
            digest: reference.digest.clone(),
            sims_paid,
            coords: reference.coords(),
            model_err_pct: reference.model_err_pct,
        }
    }

    /// Checks that `outcome` reproduces this expectation exactly.
    ///
    /// # Errors
    ///
    /// Describes the first difference.
    pub fn verify(&self, outcome: &Outcome) -> Result<(), String> {
        if outcome.digest != self.digest {
            Err(format!(
                "liberty digest {} != {}",
                outcome.digest, self.digest
            ))
        } else if outcome.sims_paid != self.sims_paid {
            Err(format!(
                "sims paid {} != {}",
                outcome.sims_paid, self.sims_paid
            ))
        } else if outcome.coords() != self.coords {
            Err(format!(
                "coordinates {} != {}",
                outcome.coords(),
                self.coords
            ))
        } else if outcome.model_err_pct.to_bits() != self.model_err_pct.to_bits() {
            Err(format!(
                "model error {} != {}",
                outcome.model_err_pct, self.model_err_pct
            ))
        } else {
            Ok(())
        }
    }

    /// Checks a reference campaign of the default seed against the pinned digest and
    /// simulation count of its plan.  Other seeds have no pin.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_pinned(
        &self,
        workload: Workload,
        seed: u64,
        cold_sims: u64,
    ) -> Result<(), String> {
        if seed != DEFAULT_SEED {
            return Ok(());
        }
        let (_, digest, sims) = PINNED
            .iter()
            .find(|(mc, _, _)| *mc == workload.monte_carlo())
            .expect("one pin per plan");
        if self.digest != *digest || cold_sims != *sims {
            return Err(format!(
                "default-seed reference gives digest {} with {cold_sims} sims; pinned {digest} \
                 with {sims}",
                self.digest
            ));
        }
        Ok(())
    }
}

/// Counts campaigns and the ones that failed: an error, a panic, or an output that
/// differs from the expectation.
#[derive(Debug)]
pub struct Checker {
    expected: Expected,
    /// Campaigns checked.
    pub attempted: u64,
    /// Campaigns that failed.
    pub failed: u64,
    /// The first failure, for the run summary.
    pub first_failure: Option<String>,
}

impl Checker {
    /// A checker holding every campaign to `expected`.
    pub fn new(expected: Expected) -> Self {
        Self {
            expected,
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// Counts one campaign; returns whether it passed.
    pub fn check(&mut self, outcome: &Result<Outcome, String>) -> bool {
        self.attempted += 1;
        let verdict = match outcome {
            Err(err) => Err(err.clone()),
            Ok(outcome) => self.expected.verify(outcome),
        };
        match verdict {
            Ok(()) => true,
            Err(reason) => {
                self.failed += 1;
                self.first_failure.get_or_insert(reason);
                false
            }
        }
    }
}
