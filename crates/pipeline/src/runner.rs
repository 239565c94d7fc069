//! The parallel pipeline runner: one shared engine, counter and cache; arcs executed in
//! parallel with rayon, each arc's work units in sequence; results streamed into a
//! [`RunArtifact`].

use crate::artifact::{
    CharacterizedLibrary, RunArtifact, UnitResult, VariationSection, SCHEMA_VERSION,
};
use crate::config::ResolvedConfig;
use crate::error::PipelineError;
use crate::plan::{CharacterizationPlan, UnitKind, WorkUnit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use slic::historical::{HistoricalLearner, HistoricalLearningConfig, HistoricalLearningResult};
use slic::nominal::{fit_and_validate, simulate_samples, Fit, MethodKind};
use slic_bayes::{HistoricalDatabase, MapExtractor, TimingMetric};
use slic_cells::CellKind;
use slic_obs::Observability;
use slic_spice::{
    CharacterizationEngine, DiskSimCache, InMemorySimCache, SimulationBackend, SimulationCache,
    SimulationCounter,
};
use slic_variation::{VariationExtractor, VariationTable};
// BTreeMap (not HashMap) everywhere a collection can feed an artifact: iteration order
// must be process-independent (lint rule D1).
use std::collections::BTreeMap;
use std::sync::Arc;

/// Executes characterization plans against one target technology.
///
/// All stages — historical learning, per-unit characterization, validation — run through a
/// single [`CharacterizationEngine`] clone family sharing one [`SimulationCounter`] and one
/// [`SimulationCache`].  Arcs run in parallel and each arc's units run in sequence on one
/// thread, so no two threads request one coordinate: repeated coordinates are simulated
/// once and [`counter`](Self::counter) holds the run's one true cost total.  The cost
/// stays here (and in the post-run metrics snapshot and ledger record the CLI builds from
/// it); the [`RunArtifact`] holds results only.
pub struct PipelineRunner {
    config: ResolvedConfig,
    engine: CharacterizationEngine,
    cache: Arc<dyn SimulationCache>,
    obs: Observability,
}

impl PipelineRunner {
    /// Creates a runner with a fresh counter and cache.
    ///
    /// With a `cache_path` in the configuration the cache is a [`DiskSimCache`] opened
    /// (warm) from that file and flushed when the runner is dropped; otherwise it is a
    /// fresh [`InMemorySimCache`].
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Engine`] when the profile's transient configuration is
    /// invalid, or a [`PipelineError::Cache`] when the configured cache file cannot be
    /// opened.
    pub fn new(config: ResolvedConfig) -> Result<Self, PipelineError> {
        let cache = Self::open_cache(&config)?;
        Self::with_parts(config, cache, None)
    }

    /// Creates a runner reusing an existing (possibly warm) simulation cache — the
    /// repeated-run and shard-worker entry point.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Engine`] when the profile's transient configuration is
    /// invalid.
    pub fn with_cache(
        config: ResolvedConfig,
        cache: Arc<dyn SimulationCache>,
    ) -> Result<Self, PipelineError> {
        Self::with_parts(config, cache, None)
    }

    /// Fully explicit construction: a (possibly warm) cache plus an optional backend
    /// (e.g. a `slic-farm` fleet) that every solve is routed through.  The counter and
    /// cache stay runner-side, so backends cannot change what a run pays for or
    /// produces — only where it executes.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Engine`] when the profile's transient configuration is
    /// invalid, or a [`PipelineError::Config`] when the configuration selects the farm
    /// backend but no backend instance is supplied — silently running a farm-configured
    /// plan in-process would be worse than failing (this crate cannot construct the
    /// fleet itself; build a `slic_farm::FarmBackend` and pass it, as the CLI does).
    pub fn with_parts(
        config: ResolvedConfig,
        cache: Arc<dyn SimulationCache>,
        backend: Option<Arc<dyn SimulationBackend>>,
    ) -> Result<Self, PipelineError> {
        if backend.is_none() && config.backend != crate::config::BackendChoice::Local {
            return Err(PipelineError::config(
                "the configuration selects the farm backend but no backend instance was \
                 supplied; construct the worker fleet (e.g. slic_farm::FarmBackend) and \
                 pass it via PipelineRunner::with_parts",
            ));
        }
        let mut engine =
            CharacterizationEngine::with_config(config.technology.clone(), config.transient)?
                .with_cache(cache.clone());
        if let Some(backend) = backend {
            engine = engine.with_backend(backend);
        } else if config.simd {
            // resolve() only sets `simd` with the local backend, so a backend instance
            // and the SIMD flag are mutually exclusive here.
            engine = engine.with_backend(Arc::new(slic_spice::LocalBackend::with_simd(true)));
        }
        Ok(Self {
            config,
            engine,
            cache,
            obs: Observability::default(),
        })
    }

    /// Attaches the display-only observability bundle, threading it through to the
    /// engine so batch/cache spans land in the same trace as the runner's stage spans.
    /// Tracing never feeds back into scheduling or results: a traced run's artifact is
    /// byte-identical to an untraced one (CI `cmp`-gates this).
    #[must_use]
    pub fn with_observability(mut self, obs: Observability) -> Self {
        self.engine = self.engine.with_observability(obs.clone());
        self.obs = obs;
        self
    }

    /// The observability bundle in use (disabled/no-op by default).
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Opens the configured disk cache, or a fresh in-memory one — the cache
    /// [`new`](Self::new) builds on, exposed so a caller can open (and time) it
    /// separately and hand it to [`with_parts`](Self::with_parts).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Cache`] when the configured cache file cannot be opened.
    pub fn open_cache(config: &ResolvedConfig) -> Result<Arc<dyn SimulationCache>, PipelineError> {
        Ok(match &config.cache_path {
            Some(path) => Arc::new(DiskSimCache::open(path)?),
            None => Arc::new(InMemorySimCache::new()),
        })
    }

    /// The resolved configuration.
    pub fn config(&self) -> &ResolvedConfig {
        &self.config
    }

    /// The shared engine (bound to the target technology).
    pub fn engine(&self) -> &CharacterizationEngine {
        &self.engine
    }

    /// The shared engine's simulation counter: the run's paid simulations.
    pub fn counter(&self) -> &SimulationCounter {
        self.engine.counter()
    }

    /// The shared simulation cache.
    pub fn cache(&self) -> &Arc<dyn SimulationCache> {
        &self.cache
    }

    /// Runs the historical learning stage over the configured historical nodes, through
    /// the shared engine rebound to each node: the same counter, cache, backend, dispatch
    /// counters and trace as characterization.
    pub fn learn(&self) -> HistoricalLearningResult {
        let _span = self.obs.trace.span(
            "learn",
            &[("nodes", self.config.historical.len().to_string())],
        );
        let learner = HistoricalLearner::new(HistoricalLearningConfig {
            grid_levels: self.config.profile.learning_grid(),
            transient: self.config.transient,
        });
        learner.learn_with_engine(&self.engine, &self.config.historical, &self.config.library)
    }

    /// Executes every unit of `plan` against `database`, arcs in parallel and each arc's
    /// units in plan order on one thread, and assembles the run artifact.  Units (and
    /// variation tables) are recorded in canonical identity order, so a merged shard set
    /// is bit-identical to the single-process artifact.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Config`] when a Bayesian unit is planned but the
    /// database lacks records for its metric, or when a Monte Carlo unit is planned but
    /// the configuration carries no variation section (a plan from a different config).
    pub fn characterize(
        &self,
        plan: &CharacterizationPlan,
        database: &HistoricalDatabase,
    ) -> Result<RunArtifact, PipelineError> {
        let root = self
            .obs
            .trace
            .span("characterize", &[("units", plan.units().len().to_string())]);
        let extractors = self.build_extractors(plan, database)?;
        if plan.units().iter().any(|u| u.kind == UnitKind::MonteCarlo)
            && self.config.variation.is_none()
        {
            return Err(PipelineError::config(
                "the plan contains Monte Carlo units but the runner's configuration has \
                 no variation section; enumerate the plan from the same resolved config \
                 the runner was built with",
            ));
        }
        // Arcs run in parallel and each arc's units in plan order on one thread.  Units
        // share coordinates only within an arc (the arc is part of every cache key, and
        // `WorkUnit::sampling_seed` gives an arc's units the same points), so no two
        // threads ever request one coordinate and each is paid once.
        let arcs: Vec<Vec<&WorkUnit>> = plan
            .arcs()
            .into_iter()
            .map(|arc| plan.units().iter().filter(|u| u.arc == arc).collect())
            .collect();
        // Unit spans run on rayon worker threads, where the root is not on the local
        // span stack — parent them explicitly so the profile tree stays connected.
        let root_id = root.id();
        self.obs.progress.begin(plan.units().len() as u64);
        let outcomes: Vec<Vec<_>> = arcs
            .par_iter()
            .map(|units| {
                units
                    .iter()
                    .map(|unit| {
                        let _span = self.obs.trace.span_under(
                            root_id,
                            "unit",
                            &[
                                ("cell", unit.arc.cell().name()),
                                ("arc", unit.arc.id()),
                                ("metric", unit.metric.to_string()),
                                ("method", format!("{:?}", unit.method)),
                            ],
                        );
                        let outcome = self.run_unit(unit, &extractors);
                        // Absolute totals, not deltas: the shared counters already
                        // aggregate across threads.
                        self.obs
                            .progress
                            .unit_done(self.counter().count(), self.cache.hits());
                        outcome
                    })
                    .collect()
            })
            .collect();
        self.obs.progress.finish();
        let mut outcomes = outcomes
            .into_iter()
            .flatten()
            .collect::<Result<Vec<_>, PipelineError>>()?;
        outcomes.sort_by_cached_key(|(unit, _)| unit.unit_id());
        let mut units = Vec::with_capacity(outcomes.len());
        let mut tables = Vec::new();
        for (unit, table) in outcomes {
            units.push(unit);
            tables.extend(table);
        }
        let variation = self.config.variation.as_ref().map(|vc| VariationSection {
            process_seeds: vc.process_seeds,
            sigma_corners: vc.sigma_corners.clone(),
            seed: vc.seed,
            tables,
        });
        let characterized = CharacterizedLibrary::from_units(
            &self.config.library_name,
            self.config.technology.name(),
            &units,
        );
        Ok(RunArtifact {
            schema_version: SCHEMA_VERSION,
            library: self.config.library_name.clone(),
            technology: self.config.technology.name().to_string(),
            profile: self.config.profile.name().to_string(),
            seed: self.config.seed,
            planned_units: plan.planned_units(),
            units,
            characterized,
            variation,
        })
    }

    /// The whole resumable flow in one call: learn, characterize, return both artifacts.
    ///
    /// # Errors
    ///
    /// Propagates plan and characterization errors.
    pub fn run(&self) -> Result<(HistoricalLearningResult, RunArtifact), PipelineError> {
        let plan = {
            let _span = self.obs.trace.span("plan.build", &[]);
            CharacterizationPlan::from_config(&self.config)?
        };
        let learning = self.learn();
        let artifact = self.characterize(&plan, &learning.database)?;
        Ok((learning, artifact))
    }

    /// Builds one MAP extractor per `(cell kind, metric)` pair the plan needs, so the
    /// prior/precision learning cost is paid once instead of per unit.
    fn build_extractors(
        &self,
        plan: &CharacterizationPlan,
        database: &HistoricalDatabase,
    ) -> Result<BTreeMap<(CellKind, TimingMetric), MapExtractor>, PipelineError> {
        let mut extractors = BTreeMap::new();
        for unit in plan.units() {
            if unit.method != MethodKind::ProposedBayesian {
                continue;
            }
            let key = (unit.arc.cell().kind(), unit.metric);
            if extractors.contains_key(&key) {
                continue;
            }
            let kind = key.0.name();
            let space = self.engine.input_space();
            let extractor =
                MapExtractor::learn(database, unit.metric, kind, &space).map_err(|err| {
                    PipelineError::config(format!(
                        "cannot build a prior for {kind} / {}: {err} (run the learn stage first?)",
                        unit.metric
                    ))
                })?;
            extractors.insert(key, extractor);
        }
        Ok(extractors)
    }

    /// Executes one work unit.  Nominal units sample, simulate (through the shared
    /// cache) and go through [`fit_and_validate`], the routine the Fig. 6 study runs;
    /// Monte Carlo units sweep the export grid under every process seed and reduce to a
    /// moment table.
    fn run_unit(
        &self,
        unit: &WorkUnit,
        extractors: &BTreeMap<(CellKind, TimingMetric), MapExtractor>,
    ) -> Result<(UnitResult, Option<VariationTable>), PipelineError> {
        if unit.kind == UnitKind::MonteCarlo {
            return self.run_variation_unit(unit);
        }
        let k = self.config.training_count;
        let v = self.config.validation_points;
        let (engine, arc, metric) = (&self.engine, &unit.arc, unit.metric);
        let cell = arc.cell();
        let space = engine.input_space();
        let mut rng = StdRng::seed_from_u64(unit.sampling_seed(self.config.seed));
        let training_points = space.sample_latin_hypercube(&mut rng, k);
        let validation_points = space.sample_uniform(&mut rng, v);

        let validation = simulate_samples(engine, arc, metric, &validation_points);
        // A LUT spends its budget on its own grid, never on the training points.
        let training = match unit.method {
            MethodKind::Lut => Vec::new(),
            _ => simulate_samples(engine, arc, metric, &training_points),
        };
        let fit = match unit.method {
            MethodKind::ProposedBayesian => Fit::Map(
                extractors.get(&(cell.kind(), metric)).ok_or_else(|| {
                    PipelineError::config(format!(
                        "no prebuilt extractor for {} / {metric}; the plan and the \
                         extractor table were built from different configs",
                        cell.kind().name(),
                    ))
                })?,
                &training,
            ),
            MethodKind::ProposedLse => Fit::Lse(&training),
            MethodKind::Lut => Fit::Lut(k),
        };
        let fitted = fit_and_validate(engine, arc, metric, fit, &validation);

        Ok((
            UnitResult {
                arc_id: unit.arc.id(),
                arc: unit.arc,
                metric: unit.metric,
                method: unit.method,
                kind: unit.kind,
                params: fitted.params,
                training_count: k,
                validation_points: v,
                error_percent: fitted.error_percent,
                requested_simulations: (k + v) as u64,
            },
            None,
        ))
    }

    /// Executes one Monte Carlo variation unit: every export-grid point under every
    /// process seed (through the shared backend/counter/cache, so farm fleets and disk
    /// caches apply per `(seed, point)` coordinate), reduced to a mean/sigma/skew
    /// [`VariationTable`] on the nominal tables' index grid.
    fn run_variation_unit(
        &self,
        unit: &WorkUnit,
    ) -> Result<(UnitResult, Option<VariationTable>), PipelineError> {
        let config = self.config.variation.clone().ok_or_else(|| {
            PipelineError::config(
                "Monte Carlo unit reached the runner without a variation config; \
                 characterize() should have rejected the plan",
            )
        })?;
        let (slew_axis, load_axis) =
            slic::liberty::export_axes(&self.engine, self.config.export_grid);
        let extractor = VariationExtractor::new(&self.engine, config)
            .map_err(|err| PipelineError::config(format!("invalid variation config: {err}")))?;
        let requested = extractor.requested_simulations(slew_axis.len(), load_axis.len());
        let table = extractor.extract(&unit.arc, unit.metric, &slew_axis, &load_axis);
        Ok((
            UnitResult {
                arc_id: unit.arc.id(),
                arc: unit.arc,
                metric: unit.metric,
                method: unit.method,
                kind: unit.kind,
                params: None,
                training_count: 0,
                validation_points: 0,
                error_percent: table.mean_cv_percent(),
                requested_simulations: requested,
            },
            Some(table),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackendChoice, RunConfig};

    #[test]
    fn a_farm_configuration_without_a_backend_instance_is_rejected() {
        let config = RunConfig {
            workers: Some(vec!["10.0.0.5:9200".to_string()]),
            ..Default::default()
        }
        .resolve()
        .expect("resolves");
        assert!(matches!(config.backend, BackendChoice::Farm { .. }));
        // Silently running a farm-configured plan in-process would defeat the point of
        // resolve() validating the choice; every backend-less constructor must refuse.
        let err = PipelineRunner::new(config.clone())
            .err()
            .expect("must not run locally");
        assert!(err.to_string().contains("no backend instance"), "{err}");
        let cache: Arc<dyn SimulationCache> = Arc::new(InMemorySimCache::new());
        let err = PipelineRunner::with_cache(config, cache)
            .err()
            .expect("with_cache must refuse too");
        assert!(err.to_string().contains("no backend instance"), "{err}");
    }

    #[test]
    fn an_explicit_backend_instance_satisfies_a_farm_configuration() {
        let config = RunConfig {
            spawn_workers: Some(2),
            ..Default::default()
        }
        .resolve()
        .expect("resolves");
        assert!(matches!(config.backend, BackendChoice::Farm { .. }));
        // Any SimulationBackend instance satisfies the requirement; the pipeline does
        // not (and cannot) verify it is really a fleet.
        let backend: Arc<dyn SimulationBackend> = Arc::new(slic_spice::LocalBackend::new());
        let cache = PipelineRunner::open_cache(&config).expect("opens");
        let runner = PipelineRunner::with_parts(config, cache, Some(backend)).expect("constructs");
        assert_eq!(runner.engine().backend().name(), "local");
    }

    #[test]
    fn learning_is_dispatched_and_observed_through_the_runner_engine() {
        let config = RunConfig::default().resolve().expect("resolves");
        let obs = Observability::default();
        let runner = PipelineRunner::new(config)
            .expect("constructs")
            .with_observability(obs.clone());
        let learning = runner.learn();
        assert!(learning.simulation_cost > 0);
        let dispatch = runner.engine().dispatch_stats();
        assert_eq!(
            dispatch.lanes_claimed, learning.simulation_cost,
            "every learn solve is a claimed batch lane of the runner's engine"
        );
        assert_eq!(
            dispatch.lanes_dispatched,
            dispatch.lanes_cached + dispatch.lanes_claimed + dispatch.lanes_deferred
        );
        assert_eq!(dispatch.lanes_deferred, 0, "learn lanes are unique");
        let snapshot = obs.metrics.snapshot();
        let batch_lanes = snapshot
            .histograms
            .iter()
            .find(|(name, _)| name == "engine.batch.lanes")
            .map(|(_, histogram)| histogram.sum);
        assert_eq!(batch_lanes, Some(learning.simulation_cost));
    }

    #[test]
    fn each_coordinate_is_paid_once_when_an_arcs_units_share_points() {
        // Bayesian, LSE and LUT units of one arc validate on the same points.  Spread over
        // threads they would request those coordinates concurrently and pay them twice;
        // one thread per arc pays each once, on any core count.
        let config = RunConfig {
            cell_pattern: Some("INV".to_string()),
            metrics: Some(vec!["delay".to_string()]),
            methods: Some(vec![
                "bayesian".to_string(),
                "lse".to_string(),
                "lut".to_string(),
            ]),
            ..Default::default()
        }
        .resolve()
        .expect("resolves");
        let cache = Arc::new(InMemorySimCache::new());
        let runner = PipelineRunner::with_cache(config, cache.clone()).expect("constructs");
        let plan = CharacterizationPlan::from_config(runner.config()).expect("plans");
        assert_eq!(
            (plan.len(), plan.arcs().len()),
            (6, 2),
            "one cell, two arcs"
        );
        let learning = runner.learn();
        runner
            .characterize(&plan, &learning.database)
            .expect("characterizes");
        assert_eq!(
            cache.len() as u64,
            cache.misses(),
            "no coordinate is stored twice"
        );
        assert_eq!(cache.misses(), runner.counter().count());
        assert_eq!(runner.engine().dispatch_stats().lanes_deferred, 0);
    }
}
