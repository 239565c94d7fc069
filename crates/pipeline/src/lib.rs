//! `slic-pipeline` — the library-scale characterization pipeline.
//!
//! This crate characterizes a whole library.  Each nominal work unit samples its arc's
//! points and runs [`slic::nominal::fit_and_validate`], the fit-and-score routine the
//! per-arc Fig. 6 study in `slic` measures, so the study's accuracy curves describe the code
//! this pipeline runs.  The flow mirrors the batch flows of production characterization
//! tools:
//!
//! 1. **Configure** — a [`RunConfig`] (JSON or flat TOML, every field optional) selects the
//!    library, target and historical technologies, `quick`/`accurate` profile, cell-kind
//!    glob and drive-strength filters, metrics and extraction methods;
//! 2. **Plan** — a [`CharacterizationPlan`] enumerates the work units
//!    `cells × primary arcs × metrics × methods`, and [`CharacterizationPlan::split`]
//!    partitions them into disjoint shards (stable by `(arc, metric, method)`) for
//!    distributed execution;
//! 3. **Learn** — [`PipelineRunner::learn`] archives compact-model fits of the historical
//!    nodes (reusing `slic::historical` with the run's shared counter and cache);
//! 4. **Characterize** — [`PipelineRunner::characterize`] executes the units in parallel
//!    (rayon) against one shared engine: every transient goes through one
//!    [`SimulationCounter`](slic_spice::SimulationCounter) and one
//!    [`SimulationCache`](slic_spice::SimulationCache) — in-memory by default, or a
//!    [`DiskSimCache`](slic_spice::DiskSimCache) (`cache` config key) whose warm state
//!    survives process restarts — so delay/slew unit pairs, repeated runs and shard
//!    workers pay for each coordinate once;
//! 5. **Persist / export / merge** — the [`RunArtifact`] (per-unit results, fitted
//!    [`CharacterizedLibrary`], variation tables) saves and reloads as JSON, renders
//!    Liberty text through [`slic::liberty::export_fitted_library`] at zero additional
//!    simulation cost, and [`RunArtifact::merge`] joins shard artifacts back into the
//!    artifact of the whole run.  The artifact holds results only; what a run cost is
//!    read from [`PipelineRunner::counter`] and [`PipelineRunner::cache`].
//!
//! The `slic` CLI (`crates/cli`) wraps these stages as the `learn`, `characterize`
//! (`--shard i/n`, `--cache file`), `merge`, `export` and `report` subcommands.
//!
//! # Example
//!
//! ```no_run
//! use slic_pipeline::{CharacterizationPlan, PipelineRunner, RunConfig};
//!
//! let config = RunConfig::default().resolve().expect("default config resolves");
//! let runner = PipelineRunner::new(config).expect("quick profile is valid");
//! let (learning, artifact) = runner.run().expect("pipeline runs");
//! println!("{}", artifact.summary_markdown());
//! let liberty = artifact
//!     .characterized
//!     .to_liberty(runner.engine(), runner.config().export_grid)
//!     .expect("fitted arcs exist");
//! std::fs::write("library.lib", liberty).expect("write .lib");
//! let _ = learning.database.to_json();
//! let _ = CharacterizationPlan::from_config(runner.config());
//! ```

pub mod artifact;
pub mod config;
pub mod error;
pub mod plan;
pub mod runner;
pub mod toml;

pub use artifact::{
    CharacterizedArc, CharacterizedLibrary, RunArtifact, UnitResult, VariationSection,
};
pub use config::{
    BackendChoice, FarmKnobs, ObservabilityKnobs, ResolvedConfig, RunConfig, RunProfile,
    VariationKnobs,
};
pub use error::PipelineError;
pub use plan::{CharacterizationPlan, UnitKind, WorkUnit};
pub use runner::PipelineRunner;
