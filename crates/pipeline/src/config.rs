//! Run configuration: what to characterize, how hard, and with which filters.
//!
//! A [`RunConfig`] is the user-facing, mostly-optional description loaded from a JSON or
//! flat-TOML file (or built in code); [`RunConfig::resolve`] turns it into a fully
//! populated [`ResolvedConfig`] with every name looked up and every default applied, which
//! is what plans and runners consume.

use crate::error::PipelineError;
use crate::toml;
use serde::{Deserialize, Serialize};
use slic::liberty::ExportGrid;
use slic::nominal::MethodKind;
use slic_bayes::TimingMetric;
use slic_cells::{DriveStrength, Library};
use slic_device::TechnologyNode;
use slic_spice::TransientConfig;
use slic_variation::VariationConfig;
use std::path::Path;

/// Salt mixed into the run seed to derive the variation process-sample seed, so the
/// Monte Carlo draw never collides with the training/validation sampling streams.
const VARIATION_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt mixed into the run seed to derive the farm reconnect-backoff jitter seed, so the
/// re-dial schedule is deterministic per run yet uncorrelated with the sampling streams.
const FARM_SEED_SALT: u64 = 0x94d0_49bb_1331_11eb;

/// The accuracy/cost trade-off of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunProfile {
    /// Small budgets and the fast transient preset — seconds per library, for smoke tests
    /// and CI.
    Quick,
    /// Paper-grade budgets and the accurate transient preset.
    Accurate,
}

impl RunProfile {
    /// Parses a profile name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "quick" => Some(Self::Quick),
            "accurate" => Some(Self::Accurate),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Quick => "quick",
            Self::Accurate => "accurate",
        }
    }

    /// Training conditions simulated per work unit.
    pub fn training_count(self) -> usize {
        match self {
            Self::Quick => 6,
            Self::Accurate => 20,
        }
    }

    /// Validation conditions per work unit (the per-unit accuracy estimate).
    pub fn validation_points(self) -> usize {
        match self {
            Self::Quick => 12,
            Self::Accurate => 60,
        }
    }

    /// Reference-grid shape for the historical learning stage.
    pub fn learning_grid(self) -> (usize, usize, usize) {
        match self {
            Self::Quick => (3, 3, 2),
            Self::Accurate => (4, 4, 3),
        }
    }

    /// Transient solver settings.
    pub fn transient(self) -> TransientConfig {
        match self {
            Self::Quick => TransientConfig::fast(),
            Self::Accurate => TransientConfig::accurate(),
        }
    }

    /// Liberty table grid.
    pub fn export_grid(self) -> ExportGrid {
        match self {
            Self::Quick => ExportGrid {
                slew_levels: 3,
                load_levels: 3,
            },
            Self::Accurate => ExportGrid {
                slew_levels: 5,
                load_levels: 5,
            },
        }
    }

    /// Monte Carlo process seeds per variation work unit (when variation is enabled).
    pub fn process_seeds(self) -> usize {
        match self {
            Self::Quick => 12,
            Self::Accurate => 100,
        }
    }
}

/// A run configuration as written by the user.  Every field is optional; unset fields take
/// the defaults documented on [`RunConfig::resolve`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Built-in library name: `"paper-trio"` (default) or `"standard"`.
    pub library: Option<String>,
    /// Target technology name (see `TechnologyNode::by_name`); default `"target_14nm"`.
    pub technology: Option<String>,
    /// Historical technology names for the learning stage; default
    /// `["n16_finfet", "n14_finfet"]`.
    pub historical: Option<Vec<String>>,
    /// Profile name: `"quick"` (default) or `"accurate"`.
    pub profile: Option<String>,
    /// Cell-kind glob filter (`*`/`?`, case-insensitive), e.g. `"NAND*"`.
    pub cell_pattern: Option<String>,
    /// Drive-strength filter, e.g. `["X1"]`.
    pub drives: Option<Vec<String>>,
    /// Metrics to characterize: `"delay"` and/or `"slew"`; default both.
    pub metrics: Option<Vec<String>>,
    /// Extraction methods per unit: `"bayesian"` (default), `"lse"`, `"lut"`.
    pub methods: Option<Vec<String>>,
    /// Override of the profile's per-unit training-condition count.
    pub training_count: Option<usize>,
    /// Override of the profile's per-unit validation-point count.
    pub validation_points: Option<usize>,
    /// RNG seed for training/validation sampling; default `20150313`.
    pub seed: Option<u64>,
    /// Path of a persistent (append-log) simulation cache shared by shard workers and
    /// reruns; created on first use.  Unset = a fresh in-memory cache per run.
    pub cache: Option<String>,
    /// TCP addresses of running `slic worker --listen` processes.  Setting these or
    /// `spawn_workers` runs the simulations on the farm backend instead of in-process.
    pub workers: Option<Vec<String>>,
    /// Number of local subprocess workers the farm backend spawns (the zero-config
    /// multi-process mode: `slic characterize --spawn-workers N`).
    pub spawn_workers: Option<usize>,
    /// Monte Carlo variation knobs.  The presence of this section (or the `--variation`
    /// CLI flag) enables variation work units; unset fields take profile defaults.
    pub variation: Option<VariationKnobs>,
    /// Transient-kernel knobs.  In flat TOML these are the dotted `kernel.*` keys
    /// (`kernel.simd = true`).
    pub kernel: Option<KernelKnobs>,
    /// Farm resilience knobs.  In flat TOML these are the dotted `farm.*` keys
    /// (`farm.retry_budget = 3`).  Only meaningful with the farm backend.
    pub farm: Option<FarmKnobs>,
    /// Observability knobs.  In flat TOML these are the dotted `observability.*` keys
    /// (`observability.trace = "run.jsonl"`).  Display-only: tracing never changes an
    /// artifact byte.
    pub observability: Option<ObservabilityKnobs>,
}

/// User-facing Monte Carlo variation knobs, every field optional.  In flat TOML these are
/// the dotted `variation.*` keys (`variation.process_seeds = 100`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VariationKnobs {
    /// Monte Carlo process seeds per variation unit; default from the profile
    /// ([`RunProfile::process_seeds`]).
    pub process_seeds: Option<usize>,
    /// Sigma multipliers for corner reporting; default `[1.0, 3.0]`.
    pub sigma_corners: Option<Vec<f64>>,
}

/// User-facing transient-kernel knobs, every field optional.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelKnobs {
    /// Route batched lanes through the SIMD quad kernel (default `false`).  Off, runs
    /// are bitwise identical to the scalar kernel; on, delays may differ from the scalar
    /// path by up to the CI-gated 0.5% accuracy envelope in exchange for the benched
    /// speedup, and the results are cached under their own kernel id.
    pub simd: Option<bool>,
}

/// User-facing observability knobs, every field optional.  In flat TOML these are the
/// dotted `observability.*` keys (`observability.trace = "run.jsonl"`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObservabilityKnobs {
    /// Sidecar JSON-lines trace file the run writes span/event records to; unset = no
    /// tracing.  Equivalent to the `--trace` CLI flag (the flag wins when both are set).
    pub trace: Option<String>,
    /// Append-only cross-run ledger file (`runs.jsonl`) the run appends one
    /// `RunRecord` line to; unset = no ledger.  Equivalent to the `--ledger` CLI flag.
    pub ledger: Option<String>,
    /// Force the live stderr progress line even when stderr is not a TTY (the CLI
    /// enables it automatically on a TTY).  Equivalent to the `--progress` CLI switch.
    pub progress: Option<bool>,
}

/// User-facing farm knobs.  In flat TOML this is the dotted `farm.retry_budget` key.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FarmKnobs {
    /// Dispatch attempts per job before it degrades to the broker's local fallback;
    /// default = the fleet size (every worker gets one shot).  Must be at least 1.
    pub retry_budget: Option<usize>,
}

/// Where the run's transient simulations execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendChoice {
    /// The in-process kernel (the default).
    Local,
    /// The `slic-farm` worker fleet.
    Farm {
        /// TCP worker addresses to connect to.
        workers: Vec<String>,
        /// Subprocess workers to spawn in addition.
        spawn_workers: usize,
        /// Dispatch attempts per job; `None` = fleet size.
        retry_budget: Option<usize>,
        /// Jitter seed of the re-dial schedule (run seed ⊕ salt), so re-dial schedules
        /// replay per run without ever touching an artifact byte.
        backoff_seed: u64,
    },
}

/// Every key a run-config file may set.  Parsing rejects anything else: the derived
/// deserializer silently skips unknown fields, and a typo'd knob falling back to its
/// default is the worst kind of misconfiguration (the flags side has always had this
/// strictness via the CLI's flag allowlist).
const KNOWN_CONFIG_KEYS: &[&str] = &[
    "library",
    "technology",
    "historical",
    "profile",
    "cell_pattern",
    "drives",
    "metrics",
    "methods",
    "training_count",
    "validation_points",
    "seed",
    "cache",
    "workers",
    "spawn_workers",
    "variation",
    "kernel",
    "farm",
    "observability",
];

/// Every key of the nested `variation` section.
const KNOWN_VARIATION_KEYS: &[&str] = &["process_seeds", "sigma_corners"];

/// Every key of the nested `kernel` section.
const KNOWN_KERNEL_KEYS: &[&str] = &["simd"];

/// Every key of the nested `observability` section.
const KNOWN_OBSERVABILITY_KEYS: &[&str] = &["trace", "ledger", "progress"];

/// Every key of the nested `farm` section.
const KNOWN_FARM_KEYS: &[&str] = &["retry_budget"];

/// Rejects unknown top-level and section keys with a pointed error.
fn check_config_keys(value: &serde::Value) -> Result<(), PipelineError> {
    let Some(entries) = value.as_object() else {
        return Ok(()); // A non-object config fails shape-checking with its own error.
    };
    let listing = |keys: &[&str], prefix: &str| -> String {
        keys.iter()
            .map(|k| format!("{prefix}{k}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    for (key, sub) in entries {
        if !KNOWN_CONFIG_KEYS.contains(&key.as_str()) {
            return Err(PipelineError::config(format!(
                "unknown config key `{key}` (expected one of: {})",
                listing(KNOWN_CONFIG_KEYS, "")
            )));
        }
        let nested = match key.as_str() {
            "variation" => Some(("variation", KNOWN_VARIATION_KEYS)),
            "kernel" => Some(("kernel", KNOWN_KERNEL_KEYS)),
            "farm" => Some(("farm", KNOWN_FARM_KEYS)),
            "observability" => Some(("observability", KNOWN_OBSERVABILITY_KEYS)),
            _ => None,
        };
        if let Some((section, known)) = nested {
            if let Some(inner) = sub.as_object() {
                for (sub_key, _) in inner {
                    if !known.contains(&sub_key.as_str()) {
                        return Err(PipelineError::config(format!(
                            "unknown config key `{section}.{sub_key}` (expected one of: {})",
                            listing(known, &format!("{section}."))
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

impl RunConfig {
    /// Parses a configuration from JSON text.  Unknown keys — top-level or inside
    /// `variation` — are rejected rather than silently ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Serde`] on malformed JSON or mismatched shapes, and a
    /// [`PipelineError::Config`] naming any unknown key.
    pub fn from_json(text: &str) -> Result<Self, PipelineError> {
        let value: serde::Value = serde_json::from_str(text)?;
        check_config_keys(&value)?;
        Ok(<Self as Deserialize>::from_value(&value)?)
    }

    /// Parses a configuration from flat-TOML text (see [`crate::toml`]).  Unknown keys —
    /// top-level or dotted `variation.*` — are rejected rather than silently ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Config`] on TOML syntax errors or unknown keys and a
    /// [`PipelineError::Serde`] on mismatched shapes.
    pub fn from_toml(text: &str) -> Result<Self, PipelineError> {
        let value = toml::parse(text)?;
        check_config_keys(&value)?;
        Ok(<Self as Deserialize>::from_value(&value)?)
    }

    /// Loads a configuration file, dispatching on the `.json` / `.toml` extension.
    ///
    /// # Errors
    ///
    /// Returns an error for unreadable files, unknown extensions or malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PipelineError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json(&text),
            Some("toml") => Self::from_toml(&text),
            other => Err(PipelineError::config(format!(
                "cannot infer config format of `{}` (extension {:?}); use .json or .toml",
                path.display(),
                other
            ))),
        }
    }

    /// Applies defaults and resolves every name into concrete catalogue objects.
    ///
    /// Defaults: `paper-trio` library, `target_14nm` technology, the two FinFET
    /// historical nodes, the `quick` profile, both metrics, the Bayesian method, seed
    /// `20150313`, no cell/drive filters.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Config`] naming any unknown library, technology, metric,
    /// method, profile or drive strength, a filter selection that leaves no cells, or a
    /// budget below its minimum.
    pub fn resolve(&self) -> Result<ResolvedConfig, PipelineError> {
        let library_name = self.library.as_deref().unwrap_or("paper-trio");
        let mut library = Library::builtin(library_name).ok_or_else(|| {
            PipelineError::config(format!(
                "unknown library `{library_name}` (expected `paper-trio` or `standard`)"
            ))
        })?;
        if let Some(pattern) = &self.cell_pattern {
            library = library.filter_kinds(pattern);
        }
        if let Some(drives) = &self.drives {
            let parsed: Vec<DriveStrength> = drives
                .iter()
                .map(|d| {
                    DriveStrength::from_name(d).ok_or_else(|| {
                        PipelineError::config(format!("unknown drive strength `{d}`"))
                    })
                })
                .collect::<Result<_, _>>()?;
            library = library.filter_drives(&parsed);
        }
        if library.is_empty() {
            return Err(PipelineError::config(format!(
                "cell selection is empty: library `{library_name}`, pattern {:?}, drives {:?}",
                self.cell_pattern, self.drives
            )));
        }

        let technology_name = self.technology.as_deref().unwrap_or("target_14nm");
        let technology = TechnologyNode::by_name(technology_name).ok_or_else(|| {
            PipelineError::config(format!("unknown technology `{technology_name}`"))
        })?;

        let historical_names: Vec<String> = self
            .historical
            .clone()
            .unwrap_or_else(|| vec!["n16_finfet".to_string(), "n14_finfet".to_string()]);
        let historical: Vec<TechnologyNode> = historical_names
            .iter()
            .map(|name| {
                TechnologyNode::by_name(name).ok_or_else(|| {
                    PipelineError::config(format!("unknown historical technology `{name}`"))
                })
            })
            .collect::<Result<_, _>>()?;
        if historical.is_empty() {
            return Err(PipelineError::config("historical technology list is empty"));
        }

        let profile_name = self.profile.as_deref().unwrap_or("quick");
        let profile = RunProfile::from_name(profile_name).ok_or_else(|| {
            PipelineError::config(format!(
                "unknown profile `{profile_name}` (expected `quick` or `accurate`)"
            ))
        })?;

        let metrics = match &self.metrics {
            None => vec![TimingMetric::Delay, TimingMetric::OutputSlew],
            Some(names) => names
                .iter()
                .map(|name| match name.to_ascii_lowercase().as_str() {
                    "delay" => Ok(TimingMetric::Delay),
                    "slew" | "output-slew" | "output_slew" => Ok(TimingMetric::OutputSlew),
                    other => Err(PipelineError::config(format!("unknown metric `{other}`"))),
                })
                .collect::<Result<_, _>>()?,
        };
        if metrics.is_empty() {
            return Err(PipelineError::config("metric list is empty"));
        }

        let methods = match &self.methods {
            None => vec![MethodKind::ProposedBayesian],
            Some(names) => names
                .iter()
                .map(|name| match name.to_ascii_lowercase().as_str() {
                    "bayesian" | "map" => Ok(MethodKind::ProposedBayesian),
                    "lse" | "least-squares" | "least_squares" => Ok(MethodKind::ProposedLse),
                    "lut" | "table" => Ok(MethodKind::Lut),
                    other => Err(PipelineError::config(format!("unknown method `{other}`"))),
                })
                .collect::<Result<_, _>>()?,
        };
        if methods.is_empty() {
            return Err(PipelineError::config("method list is empty"));
        }

        let seed = self.seed.unwrap_or(20150313);
        let retry_budget = self.farm.as_ref().and_then(|knobs| knobs.retry_budget);
        if retry_budget == Some(0) {
            return Err(PipelineError::config(
                "`farm.retry_budget` must be at least 1 (every job needs one dispatch \
                 attempt before it can degrade to the local fallback)",
            ));
        }
        let workers = self.workers.clone().unwrap_or_default();
        let spawn_workers = self.spawn_workers.unwrap_or(0);
        let backend = if workers.is_empty() && spawn_workers == 0 {
            if self.farm.is_some() {
                return Err(PipelineError::config(
                    "`farm.*` knobs apply to the farm backend only; configure `workers` / \
                     `spawn_workers` or drop the farm section",
                ));
            }
            BackendChoice::Local
        } else {
            BackendChoice::Farm {
                workers,
                spawn_workers,
                retry_budget,
                backoff_seed: seed ^ FARM_SEED_SALT,
            }
        };

        let simd = self.kernel.as_ref().and_then(|k| k.simd).unwrap_or(false);
        if simd && !matches!(backend, BackendChoice::Local) {
            return Err(PipelineError::config(
                "`kernel.simd` applies to the local backend only; farm workers run \
                 their own kernels — drop `kernel.simd` or the farm configuration",
            ));
        }

        let variation = match &self.variation {
            None => None,
            Some(knobs) => {
                let resolved = VariationConfig {
                    process_seeds: knobs
                        .process_seeds
                        .unwrap_or_else(|| profile.process_seeds()),
                    sigma_corners: knobs
                        .sigma_corners
                        .clone()
                        .unwrap_or_else(|| vec![1.0, 3.0]),
                    seed: seed ^ VARIATION_SEED_SALT,
                };
                resolved
                    .validate()
                    .map_err(|err| PipelineError::config(err.to_string()))?;
                Some(resolved)
            }
        };

        let training_count = self
            .training_count
            .unwrap_or_else(|| profile.training_count());
        if training_count == 0 {
            return Err(PipelineError::config(
                "`training_count` must be at least 1, got 0",
            ));
        }
        let validation_points = self
            .validation_points
            .unwrap_or_else(|| profile.validation_points());
        if validation_points < 2 {
            return Err(PipelineError::config(format!(
                "`validation_points` must be at least 2, got {validation_points}"
            )));
        }

        Ok(ResolvedConfig {
            library_name: library_name.to_string(),
            library,
            technology,
            historical,
            profile,
            metrics,
            methods,
            training_count,
            validation_points,
            transient: profile.transient(),
            export_grid: profile.export_grid(),
            seed,
            cache_path: self.cache.clone().map(std::path::PathBuf::from),
            backend,
            variation,
            simd,
            trace_path: self
                .observability
                .as_ref()
                .and_then(|knobs| knobs.trace.clone())
                .map(std::path::PathBuf::from),
            ledger_path: self
                .observability
                .as_ref()
                .and_then(|knobs| knobs.ledger.clone())
                .map(std::path::PathBuf::from),
            progress: self
                .observability
                .as_ref()
                .and_then(|knobs| knobs.progress)
                .unwrap_or(false),
        })
    }
}

/// A fully resolved run description: every name looked up, every default applied.
#[derive(Debug, Clone)]
pub struct ResolvedConfig {
    /// The configured library name (before filtering).
    pub library_name: String,
    /// The filtered cell selection.
    pub library: Library,
    /// The characterization target.
    pub technology: TechnologyNode,
    /// Historical nodes for the learning stage.
    pub historical: Vec<TechnologyNode>,
    /// The accuracy/cost profile.
    pub profile: RunProfile,
    /// Metrics each arc is characterized for.
    pub metrics: Vec<TimingMetric>,
    /// Extraction methods each (arc, metric) runs.
    pub methods: Vec<MethodKind>,
    /// Training conditions per work unit.
    pub training_count: usize,
    /// Validation conditions per work unit.
    pub validation_points: usize,
    /// Transient solver settings for every stage.
    pub transient: TransientConfig,
    /// Liberty table grid.
    pub export_grid: ExportGrid,
    /// RNG seed.
    pub seed: u64,
    /// Persistent simulation-cache file, when configured.
    pub cache_path: Option<std::path::PathBuf>,
    /// Where transient simulations execute.
    pub backend: BackendChoice,
    /// Monte Carlo variation workload, when enabled.  The seed set and sigma corners are
    /// part of this configuration, so equal resolved configs on any shard draw identical
    /// process samples.
    pub variation: Option<VariationConfig>,
    /// Whether the local backend routes batched lanes through the SIMD quad kernel.
    /// Deliberately *not* part of [`TransientConfig`]: it changes how lanes execute, not
    /// what a simulation means, so cache keys and farm wire hashes must not move with it.
    pub simd: bool,
    /// Sidecar JSON-lines trace file, when tracing is enabled.  Display-only: whether a
    /// run is traced never changes an artifact byte (CI `cmp`-gates this).
    pub trace_path: Option<std::path::PathBuf>,
    /// Append-only cross-run ledger file, when enabled.  Display-only, same contract
    /// as tracing.
    pub ledger_path: Option<std::path::PathBuf>,
    /// Whether the stderr progress line is forced on (the CLI also turns it on when
    /// stderr is a TTY).
    pub progress: bool,
}

impl ResolvedConfig {
    /// The run's configuration identity: a 16-hex-digit hash over everything that
    /// determines *what* is computed — cells, technology nodes, profile, metrics,
    /// methods, budgets, seed, variation workload, kernel routing — plus the artifact
    /// [`SCHEMA_VERSION`](crate::artifact::SCHEMA_VERSION), so ledger records of two
    /// artifact layouts never pair up in a diff.
    ///
    /// Execution placement is deliberately excluded (backend, worker lists, cache /
    /// trace / ledger paths, farm tuning): artifacts are byte-identical across
    /// backends, so a local run and a farmed run of one config share a fingerprint —
    /// which is exactly what lets `slic history` diff them against each other.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut identity = String::with_capacity(256);
        let _ = write!(
            identity,
            "schema={};library={};",
            crate::artifact::SCHEMA_VERSION,
            self.library_name
        );
        for cell in self.library.cells() {
            let _ = write!(identity, "cell={};", cell.name());
        }
        let _ = write!(identity, "technology={};", self.technology.name());
        for node in &self.historical {
            let _ = write!(identity, "historical={};", node.name());
        }
        let _ = write!(
            identity,
            "profile={};metrics={:?};methods={:?};training={};validation={};seed={};simd={};",
            self.profile.name(),
            self.metrics,
            self.methods,
            self.training_count,
            self.validation_points,
            self.seed,
            self.simd,
        );
        if let Some(variation) = &self.variation {
            let _ = write!(
                identity,
                "variation.seeds={};variation.seed={};",
                variation.process_seeds, variation.seed
            );
            for corner in &variation.sigma_corners {
                // Bit-exact: two configs differing in any corner hash apart.
                let _ = write!(identity, "corner={:016x};", corner.to_bits());
            }
        }
        slic_obs::ledger::content_hash(identity.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve_to_the_paper_setup() {
        let resolved = RunConfig::default().resolve().unwrap();
        assert_eq!(resolved.library.len(), 3);
        assert_eq!(resolved.technology.name(), "target-14nm-finfet");
        assert_eq!(resolved.historical.len(), 2);
        assert_eq!(resolved.profile, RunProfile::Quick);
        assert_eq!(resolved.metrics.len(), 2);
        assert_eq!(resolved.methods, vec![MethodKind::ProposedBayesian]);
        assert_eq!(resolved.seed, 20150313);
        assert!(resolved.training_count >= 1);
    }

    #[test]
    fn json_and_toml_configs_agree() {
        let json = r#"{
            "library": "standard",
            "profile": "quick",
            "cell_pattern": "NAND*",
            "drives": ["X1"],
            "metrics": ["delay"],
            "methods": ["bayesian", "lse"],
            "seed": 7
        }"#;
        let toml_text = r#"
            library = "standard"
            profile = "quick"
            cell_pattern = "NAND*"
            drives = ["X1"]
            metrics = ["delay"]
            methods = ["bayesian", "lse"]
            seed = 7
        "#;
        let a = RunConfig::from_json(json).unwrap();
        let b = RunConfig::from_toml(toml_text).unwrap();
        assert_eq!(a, b);
        let resolved = a.resolve().unwrap();
        assert_eq!(resolved.library.len(), 2, "NAND2_X1 and NAND3_X1");
        assert_eq!(resolved.metrics, vec![TimingMetric::Delay]);
        assert_eq!(resolved.methods.len(), 2);
        assert_eq!(resolved.seed, 7);
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = RunConfig {
            library: Some("standard".into()),
            cell_pattern: Some("NOR*".into()),
            seed: Some(11),
            ..RunConfig::default()
        };
        let text = serde_json::to_string_pretty(&config).unwrap();
        let back = RunConfig::from_json(&text).unwrap();
        assert_eq!(config, back);
    }

    #[test]
    fn unknown_names_are_rejected_with_context() {
        let bad = |cfg: RunConfig| cfg.resolve().unwrap_err().to_string();
        assert!(bad(RunConfig {
            library: Some("nope".into()),
            ..Default::default()
        })
        .contains("unknown library"));
        assert!(bad(RunConfig {
            technology: Some("n3".into()),
            ..Default::default()
        })
        .contains("unknown technology"));
        assert!(bad(RunConfig {
            profile: Some("turbo".into()),
            ..Default::default()
        })
        .contains("unknown profile"));
        assert!(bad(RunConfig {
            metrics: Some(vec!["power".into()]),
            ..Default::default()
        })
        .contains("unknown metric"));
        assert!(bad(RunConfig {
            methods: Some(vec!["oracle".into()]),
            ..Default::default()
        })
        .contains("unknown method"));
        assert!(bad(RunConfig {
            drives: Some(vec!["X8".into()]),
            ..Default::default()
        })
        .contains("unknown drive"));
        assert!(bad(RunConfig {
            cell_pattern: Some("XYZ*".into()),
            ..Default::default()
        })
        .contains("selection is empty"));
    }

    #[test]
    fn backend_resolution_covers_local_farm_and_inference() {
        assert_eq!(
            RunConfig::default().resolve().unwrap().backend,
            BackendChoice::Local
        );
        // Worker addresses or a spawn count select the farm.
        let farm = RunConfig {
            workers: Some(vec!["10.0.0.5:9200".into()]),
            spawn_workers: Some(2),
            ..Default::default()
        };
        assert_eq!(
            farm.resolve().unwrap().backend,
            BackendChoice::Farm {
                workers: vec!["10.0.0.5:9200".into()],
                spawn_workers: 2,
                retry_budget: None,
                backoff_seed: 20150313 ^ FARM_SEED_SALT,
            }
        );
        let spawned = RunConfig {
            spawn_workers: Some(3),
            ..Default::default()
        };
        assert_eq!(
            spawned.resolve().unwrap().backend,
            BackendChoice::Farm {
                workers: vec![],
                spawn_workers: 3,
                retry_budget: None,
                backoff_seed: 20150313 ^ FARM_SEED_SALT,
            }
        );
        // An empty worker list and a zero spawn count leave the run local.
        let empty = RunConfig {
            workers: Some(vec![]),
            spawn_workers: Some(0),
            ..Default::default()
        };
        assert_eq!(empty.resolve().unwrap().backend, BackendChoice::Local);
    }

    #[test]
    fn farm_config_round_trips_through_json_and_toml() {
        let json = r#"{"workers": ["a:1", "b:2"], "spawn_workers": 2}"#;
        let toml_text = "
            workers = [\"a:1\", \"b:2\"]
            spawn_workers = 2
        ";
        let a = RunConfig::from_json(json).unwrap();
        let b = RunConfig::from_toml(toml_text).unwrap();
        assert_eq!(a, b);
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(RunConfig::from_json(&text).unwrap(), a);
    }

    #[test]
    fn variation_resolution_applies_profile_defaults_and_validates() {
        assert!(RunConfig::default().resolve().unwrap().variation.is_none());
        let enabled = RunConfig {
            variation: Some(VariationKnobs::default()),
            ..Default::default()
        }
        .resolve()
        .unwrap();
        let variation = enabled.variation.expect("variation resolved");
        assert_eq!(variation.process_seeds, RunProfile::Quick.process_seeds());
        assert_eq!(variation.sigma_corners, vec![1.0, 3.0]);
        assert_ne!(
            variation.seed, enabled.seed,
            "the Monte Carlo draw must not reuse the sampling seed stream"
        );
        let custom = RunConfig {
            variation: Some(VariationKnobs {
                process_seeds: Some(40),
                sigma_corners: Some(vec![2.0]),
            }),
            ..Default::default()
        }
        .resolve()
        .unwrap()
        .variation
        .unwrap();
        assert_eq!(custom.process_seeds, 40);
        assert_eq!(custom.sigma_corners, vec![2.0]);
        let bad = RunConfig {
            variation: Some(VariationKnobs {
                process_seeds: Some(2),
                sigma_corners: None,
            }),
            ..Default::default()
        };
        assert!(bad
            .resolve()
            .unwrap_err()
            .to_string()
            .contains("at least 3"));
    }

    #[test]
    fn variation_config_parses_from_json_and_dotted_toml() {
        let json = r#"{"variation": {"process_seeds": 30, "sigma_corners": [1.0, 3.0]}}"#;
        let toml_text = "
            variation.process_seeds = 30
            variation.sigma_corners = [1.0, 3.0]
        ";
        let a = RunConfig::from_json(json).unwrap();
        let b = RunConfig::from_toml(toml_text).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.variation,
            Some(VariationKnobs {
                process_seeds: Some(30),
                sigma_corners: Some(vec![1.0, 3.0]),
            })
        );
        // And the full config round-trips through JSON.
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(RunConfig::from_json(&text).unwrap(), a);
    }

    #[test]
    fn unknown_config_keys_are_rejected_not_ignored() {
        // The classic typo the strictness exists for: `variation.seeds` instead of
        // `variation.process_seeds` must fail loudly, not run with the default count.
        let err = RunConfig::from_toml("variation.seeds = 30").unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown config key `variation.seeds`"),
            "{err}"
        );
        assert!(err.to_string().contains("variation.process_seeds"), "{err}");
        let err = RunConfig::from_json(r#"{"variation": {"sigma": [3.0]}}"#).unwrap_err();
        assert!(err.to_string().contains("`variation.sigma`"), "{err}");
        // Top-level typos get the same treatment in both formats.
        let err = RunConfig::from_toml("cach = \"warm.jsonl\"").unwrap_err();
        assert!(
            err.to_string().contains("unknown config key `cach`"),
            "{err}"
        );
        let err = RunConfig::from_json(r#"{"librray": "standard"}"#).unwrap_err();
        assert!(err.to_string().contains("`librray`"), "{err}");
    }

    #[test]
    fn kernel_config_parses_from_json_and_dotted_toml() {
        let json = r#"{"kernel": {"simd": true}}"#;
        let toml_text = "kernel.simd = true";
        let a = RunConfig::from_json(json).unwrap();
        let b = RunConfig::from_toml(toml_text).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.kernel, Some(KernelKnobs { simd: Some(true) }));
        assert!(a.resolve().unwrap().simd);
        // Absent section (or absent flag) resolves to the scalar default.
        assert!(!RunConfig::default().resolve().unwrap().simd);
        let off = RunConfig::from_toml("kernel.simd = false").unwrap();
        assert!(!off.resolve().unwrap().simd);
        // And the section round-trips through JSON.
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(RunConfig::from_json(&text).unwrap(), a);
    }

    #[test]
    fn unknown_kernel_keys_are_rejected_not_ignored() {
        let err = RunConfig::from_toml("kernel.simds = true").unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown config key `kernel.simds`"),
            "{err}"
        );
        assert!(err.to_string().contains("kernel.simd"), "{err}");
        let err = RunConfig::from_json(r#"{"kernel": {"vectorize": true}}"#).unwrap_err();
        assert!(err.to_string().contains("`kernel.vectorize`"), "{err}");
    }

    #[test]
    fn simd_with_the_farm_backend_is_rejected() {
        let bad = RunConfig {
            kernel: Some(KernelKnobs { simd: Some(true) }),
            spawn_workers: Some(2),
            ..Default::default()
        };
        let err = bad.resolve().unwrap_err().to_string();
        assert!(err.contains("local backend only"), "{err}");
        // simd = false alongside the farm is fine: nothing was requested.
        let ok = RunConfig {
            kernel: Some(KernelKnobs { simd: Some(false) }),
            spawn_workers: Some(2),
            ..Default::default()
        };
        assert!(!ok.resolve().unwrap().simd);
    }

    #[test]
    fn farm_knobs_parse_from_json_and_dotted_toml_and_resolve() {
        let json = r#"{"spawn_workers": 2, "farm": {"retry_budget": 3}}"#;
        let toml_text = "
            spawn_workers = 2
            farm.retry_budget = 3
        ";
        let a = RunConfig::from_json(json).unwrap();
        let b = RunConfig::from_toml(toml_text).unwrap();
        assert_eq!(a, b);
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(RunConfig::from_json(&text).unwrap(), a);
        let BackendChoice::Farm { retry_budget, .. } = a.resolve().unwrap().backend else {
            panic!("spawn_workers implies the farm backend");
        };
        assert_eq!(retry_budget, Some(3));
    }

    #[test]
    fn farm_backoff_seed_is_derived_from_the_run_seed() {
        let with_seed = |seed: u64| {
            let config = RunConfig {
                spawn_workers: Some(1),
                seed: Some(seed),
                ..Default::default()
            };
            let BackendChoice::Farm { backoff_seed, .. } = config.resolve().unwrap().backend else {
                panic!("farm backend expected");
            };
            backoff_seed
        };
        assert_eq!(with_seed(7), with_seed(7), "deterministic per run seed");
        assert_ne!(with_seed(7), with_seed(8), "different runs re-jitter");
        assert_ne!(with_seed(7), 7, "the raw seed is never reused verbatim");
    }

    #[test]
    fn farm_knobs_outside_the_farm_backend_are_rejected() {
        let bad = |cfg: RunConfig| cfg.resolve().unwrap_err().to_string();
        let err = bad(RunConfig {
            farm: Some(FarmKnobs {
                retry_budget: Some(3),
            }),
            ..Default::default()
        });
        assert!(err.contains("farm backend only"), "{err}");
        let err = bad(RunConfig {
            spawn_workers: Some(2),
            farm: Some(FarmKnobs {
                retry_budget: Some(0),
            }),
            ..Default::default()
        });
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn unknown_farm_keys_are_rejected_not_ignored() {
        let err = RunConfig::from_toml("farm.retries = 3").unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown config key `farm.retries`"),
            "{err}"
        );
        assert!(err.to_string().contains("farm.retry_budget"), "{err}");
        let err = RunConfig::from_json(r#"{"farm": {"backoff": 50}}"#).unwrap_err();
        assert!(err.to_string().contains("`farm.backoff`"), "{err}");
    }

    #[test]
    fn observability_config_parses_from_json_and_dotted_toml() {
        let json = r#"{"observability": {
            "trace": "run.jsonl",
            "ledger": "runs.jsonl",
            "progress": true
        }}"#;
        let toml_text = "observability.trace = \"run.jsonl\"\n\
                         observability.ledger = \"runs.jsonl\"\n\
                         observability.progress = true";
        let a = RunConfig::from_json(json).unwrap();
        let b = RunConfig::from_toml(toml_text).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.observability,
            Some(ObservabilityKnobs {
                trace: Some("run.jsonl".to_string()),
                ledger: Some("runs.jsonl".to_string()),
                progress: Some(true),
            })
        );
        let resolved = a.resolve().unwrap();
        assert_eq!(
            resolved.trace_path,
            Some(std::path::PathBuf::from("run.jsonl"))
        );
        assert_eq!(
            resolved.ledger_path,
            Some(std::path::PathBuf::from("runs.jsonl"))
        );
        assert!(resolved.progress);
        // Absent section resolves to everything off.
        let bare = RunConfig::default().resolve().unwrap();
        assert!(bare.trace_path.is_none());
        assert!(bare.ledger_path.is_none());
        assert!(!bare.progress);
        // And the section round-trips through JSON.
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(RunConfig::from_json(&text).unwrap(), a);
    }

    #[test]
    fn unknown_observability_keys_are_rejected_not_ignored() {
        let err = RunConfig::from_toml("observability.traec = \"run.jsonl\"").unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown config key `observability.traec`"),
            "{err}"
        );
        assert!(err.to_string().contains("observability.trace"), "{err}");
        let err = RunConfig::from_json(r#"{"observability": {"metrics": true}}"#).unwrap_err();
        assert!(err.to_string().contains("`observability.metrics`"), "{err}");
        // The regression-gate thresholds are constants, not config.
        let err = RunConfig::from_toml("observability.diff.wall_pct = 10.0").unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown config key `observability.diff`"),
            "{err}"
        );
    }

    #[test]
    fn budgets_below_their_minimum_are_rejected_not_clamped() {
        let err = RunConfig::from_toml("training_count = 0")
            .unwrap()
            .resolve()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("`training_count` must be at least 1"),
            "{err}"
        );
        let err = RunConfig::from_toml("validation_points = 1")
            .unwrap()
            .resolve()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("`validation_points` must be at least 2"),
            "{err}"
        );
        let smallest = RunConfig::from_toml("training_count = 1\nvalidation_points = 2")
            .unwrap()
            .resolve()
            .unwrap();
        assert_eq!(
            (smallest.training_count, smallest.validation_points),
            (1, 2)
        );
    }

    #[test]
    fn out_of_range_integers_are_rejected_not_saturated() {
        // 2^64: one past `usize::MAX`, and the value `usize::MAX as f64` rounds up to.
        let err = RunConfig::from_toml("training_count = 18446744073709551616").unwrap_err();
        assert!(err.to_string().contains("out of range for usize"), "{err}");
        let err = RunConfig::from_json(r#"{"seed": 18446744073709551616}"#).unwrap_err();
        assert!(err.to_string().contains("out of range for u64"), "{err}");
    }

    #[test]
    fn every_commented_example_in_quick_toml_parses_and_resolves() {
        // Uncomment each `# key = value` example line of the shipped config, so the
        // documented examples cannot drift from the keys the parser accepts.
        let shipped = include_str!("../../../configs/quick.toml");
        let mut examples = 0;
        let uncommented: Vec<&str> = shipped
            .lines()
            .map(|line| {
                let Some(body) = line.strip_prefix("# ") else {
                    return line;
                };
                let is_example = body.split_once(" = ").is_some_and(|(key, _)| {
                    key.chars()
                        .all(|c| c.is_ascii_lowercase() || c == '_' || c == '.')
                });
                if is_example {
                    examples += 1;
                    body
                } else {
                    line
                }
            })
            .collect();
        assert!(examples >= 10, "only {examples} example lines found");
        let resolved = RunConfig::from_toml(&uncommented.join("\n"))
            .unwrap()
            .resolve()
            .unwrap();
        assert!(resolved.variation.is_some());
        assert!(resolved.cache_path.is_some());
        assert!(resolved.trace_path.is_some());
    }

    #[test]
    fn fingerprint_tracks_workload_identity_not_placement() {
        let base = || RunConfig {
            seed: Some(7),
            ..RunConfig::default()
        };
        let fingerprint = |config: RunConfig| config.resolve().unwrap().fingerprint();
        let reference = fingerprint(base());
        assert_eq!(reference.len(), 16);
        assert_eq!(reference, fingerprint(base()), "deterministic");

        // What is computed moves the fingerprint...
        assert_ne!(
            reference,
            fingerprint(RunConfig {
                seed: Some(8),
                ..base()
            })
        );
        assert_ne!(
            reference,
            fingerprint(RunConfig {
                cell_pattern: Some("NAND*".into()),
                ..base()
            })
        );
        assert_ne!(
            reference,
            fingerprint(RunConfig {
                variation: Some(VariationKnobs {
                    process_seeds: Some(8),
                    sigma_corners: None,
                }),
                ..base()
            })
        );

        // ...but where it executes does not: a farmed run of the same workload keeps
        // the local fingerprint, so `slic history` can diff across backends.
        assert_eq!(
            reference,
            fingerprint(RunConfig {
                spawn_workers: Some(2),
                ..base()
            })
        );
        assert_eq!(
            reference,
            fingerprint(RunConfig {
                cache: Some("cache.jsonl".into()),
                observability: Some(ObservabilityKnobs {
                    trace: Some("run.jsonl".into()),
                    ledger: Some("runs.jsonl".into()),
                    ..ObservabilityKnobs::default()
                }),
                ..base()
            })
        );
    }

    #[test]
    fn fingerprints_of_schema_1_ledger_records_never_pair_with_current_ones() {
        // Ledger records of the default config written while artifacts still carried
        // their run's cost (schema 1) hold the first fingerprint.  Diffing a current
        // record against one of them would report the changed artifact layout as a
        // determinism break, so the schema version is part of the identity.
        let fingerprint = RunConfig::default().resolve().unwrap().fingerprint();
        assert_ne!(fingerprint, "097d3420a6026230");
        assert_eq!(fingerprint, "c3f615cef77ed8bd");
    }

    #[test]
    fn profile_budgets_are_ordered() {
        assert!(RunProfile::Quick.training_count() < RunProfile::Accurate.training_count());
        assert!(RunProfile::Quick.validation_points() < RunProfile::Accurate.validation_points());
        assert_eq!(RunProfile::from_name("QUICK"), Some(RunProfile::Quick));
        assert_eq!(
            RunProfile::from_name("accurate").unwrap().name(),
            "accurate"
        );
        assert!(RunProfile::from_name("warp").is_none());
    }
}
