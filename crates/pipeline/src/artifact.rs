//! Run artifacts: the persistent, reloadable record of a characterization run.

use crate::error::PipelineError;
use crate::plan::{unit_identity, UnitKind};
use serde::{Deserialize, Serialize};
use slic::liberty::{export_fitted_library_with_variation, ArcVariation, ExportGrid, FittedArc};
use slic::nominal::MethodKind;
use slic::report::markdown_table;
use slic_bayes::TimingMetric;
use slic_cells::{TimingArc, Transition};
use slic_spice::CharacterizationEngine;
use slic_timing_model::TimingParams;
use slic_variation::VariationTable;
use std::path::Path;

/// The outcome of one executed [`WorkUnit`](crate::plan::WorkUnit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitResult {
    /// Arc identifier, e.g. `"NAND2_X1/A0/FALL"`.
    pub arc_id: String,
    /// The arc itself (reconstructable for export).
    pub arc: TimingArc,
    /// The characterized metric.
    pub metric: TimingMetric,
    /// The extraction method (a placeholder for Monte Carlo units).
    pub method: MethodKind,
    /// Nominal extraction or Monte Carlo variation (absent in pre-variation artifacts,
    /// which were nominal-only).
    pub kind: UnitKind,
    /// The extracted compact-model parameters (absent for the LUT method and for Monte
    /// Carlo units, whose output is a [`VariationTable`] in the artifact's variation
    /// section).
    pub params: Option<TimingParams>,
    /// Training conditions requested (zero for Monte Carlo units).
    pub training_count: usize,
    /// Validation conditions requested (zero for Monte Carlo units).
    pub validation_points: usize,
    /// For nominal units: mean absolute relative error against direct simulation at the
    /// validation conditions, in percent.  For Monte Carlo units: the mean coefficient of
    /// variation `σ/µ` over the grid, in percent (a spread, not an error).
    pub error_percent: f64,
    /// Transient simulations this unit *requested* (training + validation, or
    /// grid × seeds for Monte Carlo units) — a property of the plan, not of one
    /// execution.  The shared engine may have answered some from the cache; what a run
    /// actually paid is the runner's counter total, recorded in its ledger record.
    pub requested_simulations: u64,
}

impl UnitResult {
    /// The stable identity of the work unit this result came from — the merge key used to
    /// detect overlapping shards and to order merged artifacts deterministically.
    pub fn unit_id(&self) -> String {
        unit_identity(&self.arc_id, self.metric, self.method, self.kind)
    }
}

/// The per-arc fitted models distilled from the unit results — the consumable "library"
/// output of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizedArc {
    /// The timing arc.
    pub arc: TimingArc,
    /// Delay compact-model parameters.
    pub delay: TimingParams,
    /// Output-slew compact-model parameters.
    pub slew: TimingParams,
    /// Validation error of the delay fit, percent.
    pub delay_error_percent: f64,
    /// Validation error of the slew fit, percent.
    pub slew_error_percent: f64,
}

/// A characterized library: every arc that obtained both metric fits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizedLibrary {
    /// Library name.
    pub library: String,
    /// Target technology name.
    pub technology: String,
    /// The fitted arcs.
    pub arcs: Vec<CharacterizedArc>,
}

impl CharacterizedLibrary {
    /// Assembles the library from unit results, pairing each arc's delay and slew fits.
    ///
    /// When several methods produced parameters for the same (arc, metric), the Bayesian
    /// fit wins; an arc missing either metric is skipped (it cannot fill a Liberty timing
    /// group).
    pub fn from_units(library: &str, technology: &str, units: &[UnitResult]) -> Self {
        let pick = |arc: &TimingArc, metric: TimingMetric| -> Option<(TimingParams, f64)> {
            #[expect(
                clippy::expect_used,
                reason = "structural: the iterator is filtered on params.is_some() before the pick"
            )]
            units
                .iter()
                .filter(|u| u.arc == *arc && u.metric == metric && u.params.is_some())
                .min_by_key(|u| match u.method {
                    MethodKind::ProposedBayesian => 0,
                    MethodKind::ProposedLse => 1,
                    MethodKind::Lut => 2,
                })
                .map(|u| (u.params.expect("filtered on is_some"), u.error_percent))
        };
        let mut arcs = Vec::new();
        let mut seen = Vec::new();
        for unit in units {
            if seen.contains(&unit.arc) {
                continue;
            }
            seen.push(unit.arc);
            let (Some((delay, delay_err)), Some((slew, slew_err))) = (
                pick(&unit.arc, TimingMetric::Delay),
                pick(&unit.arc, TimingMetric::OutputSlew),
            ) else {
                continue;
            };
            arcs.push(CharacterizedArc {
                arc: unit.arc,
                delay,
                slew,
                delay_error_percent: delay_err,
                slew_error_percent: slew_err,
            });
        }
        Self {
            library: library.to_string(),
            technology: technology.to_string(),
            arcs,
        }
    }

    /// The arcs as liberty-export inputs.
    pub fn fitted_arcs(&self) -> Vec<FittedArc> {
        self.arcs
            .iter()
            .map(|a| FittedArc {
                arc: a.arc,
                delay: a.delay,
                slew: a.slew,
            })
            .collect()
    }

    /// Renders the Liberty text of the characterized arcs (zero transient simulations;
    /// see [`slic::liberty::export_fitted_library`]).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Export`] when no arc was fully characterized or the
    /// grid is degenerate.
    pub fn to_liberty(
        &self,
        engine: &CharacterizationEngine,
        grid: ExportGrid,
    ) -> Result<String, PipelineError> {
        Ok(export_fitted_library_with_variation(
            engine,
            &self.library,
            &self.fitted_arcs(),
            &[],
            grid,
        )?)
    }

    /// [`to_liberty`](Self::to_liberty) with LVF-style `ocv_sigma_*`/`ocv_skewness_*`
    /// groups rendered from a run's [`VariationSection`] next to each nominal table.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Export`] when no arc was fully characterized, the grid
    /// is degenerate, or a variation table does not match the grid shape.
    pub fn to_liberty_with_variation(
        &self,
        engine: &CharacterizationEngine,
        grid: ExportGrid,
        variation: &VariationSection,
    ) -> Result<String, PipelineError> {
        Ok(export_fitted_library_with_variation(
            engine,
            &self.library,
            &self.fitted_arcs(),
            &variation.arc_variations(),
            grid,
        )?)
    }

    /// Returns `true` when an arc of the given cell name and transition is present.
    pub fn covers(&self, cell_name: &str, transition: Transition) -> bool {
        self.arcs
            .iter()
            .any(|a| a.arc.cell().name() == cell_name && a.arc.output_transition() == transition)
    }
}

/// The Monte Carlo variation record of a run: the configuration the seed set derives
/// from, plus one moment table per executed variation unit.
///
/// Shards of one variation run carry identical `(process_seeds, sigma_corners, seed)`
/// triples — that is the merge criterion; shards with mismatched seed configurations
/// describe different ensembles and must not merge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationSection {
    /// Monte Carlo process seeds per variation unit.
    pub process_seeds: usize,
    /// Sigma multipliers for corner reporting.
    pub sigma_corners: Vec<f64>,
    /// RNG seed of the process-sample draw.
    pub seed: u64,
    /// Per-unit moment tables, in canonical [`VariationTable::table_id`] order.
    pub tables: Vec<VariationTable>,
}

impl VariationSection {
    /// Builds an [`ArcVariation`] per arc that has **both** metric tables — the
    /// liberty-export input.  Arcs with only one metric characterized are skipped (an
    /// LVF timing group needs sigma/skew for delay and transition alike).
    pub fn arc_variations(&self) -> Vec<ArcVariation> {
        let mut out = Vec::new();
        let mut seen: Vec<TimingArc> = Vec::new();
        for table in &self.tables {
            if seen.contains(&table.arc) {
                continue;
            }
            seen.push(table.arc);
            let find = |metric: TimingMetric| {
                self.tables
                    .iter()
                    .find(|t| t.arc == table.arc && t.metric == metric)
            };
            let (Some(delay), Some(slew)) =
                (find(TimingMetric::Delay), find(TimingMetric::OutputSlew))
            else {
                continue;
            };
            out.push(ArcVariation {
                arc: table.arc,
                delay_sigma: delay.sigma.clone(),
                delay_skew: delay.skewness_time_rows(),
                slew_sigma: slew.sigma.clone(),
                slew_skew: slew.skewness_time_rows(),
            });
        }
        out
    }
}

/// The complete, persistent record of one characterization run: workload identity,
/// per-unit results, the fitted library and the variation tables.
///
/// The artifact holds results only.  What one execution cost — simulations paid, cache
/// hits and misses, kernel and farm counters — depends on cache warmth, backend and shard
/// scheduling rather than on the library, so it lives in the runner's
/// [`counter`](crate::PipelineRunner::counter) and [`cache`](crate::PipelineRunner::cache),
/// the post-run metrics snapshot and the run-ledger record.  Two runs of one
/// configuration therefore serialize byte-identically whether they ran cold or warm,
/// locally or on a farm, in one process or as merged shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunArtifact {
    /// Artifact format version (bumped on breaking layout changes).
    pub schema_version: u32,
    /// Library name.
    pub library: String,
    /// Target technology name.
    pub technology: String,
    /// Profile name the run used.
    pub profile: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Number of units the *full* run plans.  A shard artifact reports the whole plan's
    /// size (its own unit count is `units.len()`), so a merge can detect missing shards.
    pub planned_units: usize,
    /// Per-unit outcomes.
    pub units: Vec<UnitResult>,
    /// The distilled library.
    pub characterized: CharacterizedLibrary,
    /// Monte Carlo variation record, present exactly when the run was configured with
    /// variation (absent in nominal-only and pre-variation artifacts).
    pub variation: Option<VariationSection>,
}

/// Current artifact schema version.  Version 1 also serialized the run's cost
/// (`total_simulations`, `cache_hits`, `cache_misses` and, for SIMD runs, a `kernel`
/// section); version 2 holds results only.
pub const SCHEMA_VERSION: u32 = 2;

impl RunArtifact {
    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (non-finite numbers — not produced by a valid run).
    pub fn to_json(&self) -> Result<String, PipelineError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses an artifact from JSON, checking the schema version.
    ///
    /// Version-1 artifacts still load: the parser looks fields up by name, so their cost
    /// keys are never read, and the artifact comes back as the current version.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] on malformed JSON or an unsupported schema version.
    pub fn from_json(text: &str) -> Result<Self, PipelineError> {
        let mut artifact: Self = serde_json::from_str(text)?;
        if !(1..=SCHEMA_VERSION).contains(&artifact.schema_version) {
            return Err(PipelineError::config(format!(
                "run artifact schema version {} is not supported (expected 1 to \
                 {SCHEMA_VERSION})",
                artifact.schema_version
            )));
        }
        artifact.schema_version = SCHEMA_VERSION;
        Ok(artifact)
    }

    /// Writes the artifact as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PipelineError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Reloads an artifact from a JSON file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and parse errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PipelineError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Joins the artifacts of disjoint plan shards into the artifact of the whole run.
    ///
    /// Unit results (and variation tables) are concatenated and re-ordered by their
    /// stable identity, and the fitted [`CharacterizedLibrary`] is rebuilt from the full
    /// unit set, so the merged artifact is byte-identical to a single-process run of the
    /// unsharded plan — whatever the shard order, and whether the shards ran one after
    /// another or concurrently.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Config`] when no artifacts are given, when two shards
    /// disagree on library/technology/profile/seed/planned-unit-count
    /// (differently-configured shards cannot describe one run), when two shards contain
    /// the same work unit (overlap means the split was not disjoint), or when the merged
    /// units do not cover the full plan (a shard artifact is missing — silently exporting
    /// an incomplete library would be worse than failing).
    pub fn merge(shards: &[RunArtifact]) -> Result<RunArtifact, PipelineError> {
        let first = shards
            .first()
            .ok_or_else(|| PipelineError::config("cannot merge zero run artifacts"))?;
        for (index, shard) in shards.iter().enumerate().skip(1) {
            let mismatch = |field: &str, a: &str, b: &str| {
                PipelineError::config(format!(
                    "cannot merge differently-configured shards: artifact {index} has \
                     {field} `{b}` but artifact 0 has `{a}`"
                ))
            };
            if shard.library != first.library {
                return Err(mismatch("library", &first.library, &shard.library));
            }
            if shard.technology != first.technology {
                return Err(mismatch("technology", &first.technology, &shard.technology));
            }
            if shard.profile != first.profile {
                return Err(mismatch("profile", &first.profile, &shard.profile));
            }
            if shard.seed != first.seed {
                return Err(mismatch(
                    "seed",
                    &first.seed.to_string(),
                    &shard.seed.to_string(),
                ));
            }
            if shard.planned_units != first.planned_units {
                return Err(mismatch(
                    "planned-unit count",
                    &first.planned_units.to_string(),
                    &shard.planned_units.to_string(),
                ));
            }
        }
        let mut units: Vec<UnitResult> = shards.iter().flat_map(|s| s.units.clone()).collect();
        units.sort_by_cached_key(UnitResult::unit_id);
        let ids: Vec<String> = units.iter().map(UnitResult::unit_id).collect();
        if let Some(pair) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(PipelineError::config(format!(
                "cannot merge overlapping shards: unit `{}` appears more than once",
                pair[0]
            )));
        }
        if units.len() != first.planned_units {
            return Err(PipelineError::config(format!(
                "incomplete merge: the shards cover {} of {} planned units — a shard \
                 artifact is missing",
                units.len(),
                first.planned_units
            )));
        }
        let variation = Self::merge_variation(shards)?;
        let characterized =
            CharacterizedLibrary::from_units(&first.library, &first.technology, &units);
        Ok(RunArtifact {
            schema_version: SCHEMA_VERSION,
            library: first.library.clone(),
            technology: first.technology.clone(),
            profile: first.profile.clone(),
            seed: first.seed,
            planned_units: first.planned_units,
            units,
            characterized,
            variation,
        })
    }

    /// Joins the variation sections of the shards: every shard of a variation run must
    /// carry one, with the identical seed configuration — the tables of shards drawn from
    /// different process-sample sets would describe different ensembles and must never be
    /// mixed into one artifact.
    fn merge_variation(shards: &[RunArtifact]) -> Result<Option<VariationSection>, PipelineError> {
        let Some(reference) = &shards[0].variation else {
            if let Some(index) = shards.iter().position(|s| s.variation.is_some()) {
                return Err(PipelineError::config(format!(
                    "cannot merge mismatched variation sections: artifact {index} records \
                     a Monte Carlo variation run but artifact 0 does not; shards of one \
                     run share one variation configuration"
                )));
            }
            return Ok(None);
        };
        let mut tables: Vec<VariationTable> = Vec::new();
        for (index, shard) in shards.iter().enumerate() {
            let Some(section) = &shard.variation else {
                return Err(PipelineError::config(format!(
                    "cannot merge mismatched variation sections: artifact {index} has no \
                     variation section but artifact 0 does; shards of one run share one \
                     variation configuration"
                )));
            };
            let mismatch = |field: &str, a: String, b: String| {
                PipelineError::config(format!(
                    "cannot merge variation shards of different ensembles: artifact \
                     {index} has {field} {b} but artifact 0 has {a}"
                ))
            };
            if section.process_seeds != reference.process_seeds {
                return Err(mismatch(
                    "process-seed count",
                    reference.process_seeds.to_string(),
                    section.process_seeds.to_string(),
                ));
            }
            if section.sigma_corners != reference.sigma_corners {
                return Err(mismatch(
                    "sigma corners",
                    format!("{:?}", reference.sigma_corners),
                    format!("{:?}", section.sigma_corners),
                ));
            }
            if section.seed != reference.seed {
                return Err(mismatch(
                    "variation seed",
                    reference.seed.to_string(),
                    section.seed.to_string(),
                ));
            }
            tables.extend(section.tables.iter().cloned());
        }
        tables.sort_by_cached_key(VariationTable::table_id);
        if let Some(pair) = tables
            .windows(2)
            .find(|w| w[0].table_id() == w[1].table_id())
        {
            return Err(PipelineError::config(format!(
                "cannot merge overlapping shards: variation table `{}` appears more than \
                 once",
                pair[0].table_id()
            )));
        }
        Ok(Some(VariationSection {
            process_seeds: reference.process_seeds,
            sigma_corners: reference.sigma_corners.clone(),
            seed: reference.seed,
            tables,
        }))
    }

    /// Returns `true` when this artifact covers only part of its plan — i.e. it is one
    /// shard of a split run, not the whole run.  Partial artifacts must not be exported
    /// (their library would silently be incomplete); every consumer besides `merge`
    /// either refuses them or labels its output accordingly.
    pub fn is_partial(&self) -> bool {
        self.units.len() < self.planned_units
    }

    /// A Markdown summary table of the run (one row per unit); a statistical run
    /// additionally renders its sigma/skew tables.
    ///
    /// A shard artifact is labelled prominently as partial — the count covers nominal
    /// *and* variation units alike — so a report of one shard is never mistaken for the
    /// whole run.
    pub fn summary_markdown(&self) -> String {
        let headers = vec![
            "arc".to_string(),
            "metric".to_string(),
            "kind".to_string(),
            "method".to_string(),
            "error (%)".to_string(),
            "requested sims".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .units
            .iter()
            .map(|u| {
                vec![
                    u.arc_id.clone(),
                    u.metric.to_string(),
                    u.kind.to_string(),
                    match u.kind {
                        UnitKind::Nominal => u.method.to_string(),
                        UnitKind::MonteCarlo => "direct sampling".to_string(),
                    },
                    format!("{:.2}", u.error_percent),
                    u.requested_simulations.to_string(),
                ]
            })
            .collect();
        let mut out = format!(
            "# Characterization run: {} on {} ({} profile)\n\n",
            self.library, self.technology, self.profile
        );
        if self.is_partial() {
            out.push_str(&format!(
                "> **PARTIAL SHARD ARTIFACT** — covers {} of {} planned units. Join every \
                 shard with `slic merge` before exporting or quoting run-level results.\n\n",
                self.units.len(),
                self.planned_units,
            ));
        }
        out.push_str(&markdown_table(&headers, &rows));
        out.push_str(&format!(
            "\n{} units; {} arcs fully characterized.\n",
            self.units.len(),
            self.characterized.arcs.len(),
        ));
        if let Some(variation) = &self.variation {
            out.push_str(&self.variation_markdown(variation));
        }
        out
    }

    /// Renders the sigma/skew tables of a statistical run: a per-table corner summary,
    /// then the full per-grid-point moments.
    fn variation_markdown(&self, variation: &VariationSection) -> String {
        let mut out = format!(
            "\n## Process variation ({} seeds, draw seed {})\n\n",
            variation.process_seeds, variation.seed
        );
        if variation.tables.is_empty() {
            out.push_str(
                "No variation tables in this artifact (this shard owned no Monte Carlo \
                 units).\n",
            );
            return out;
        }
        // Corner summary: the worst mean + k·sigma view per table.
        let mut headers = vec![
            "arc".to_string(),
            "metric".to_string(),
            "max µ (ps)".to_string(),
            "max σ (ps)".to_string(),
        ];
        headers.extend(
            variation
                .sigma_corners
                .iter()
                .map(|k| format!("worst µ+{k}σ (ps)")),
        );
        let rows: Vec<Vec<String>> = variation
            .tables
            .iter()
            .map(|t| {
                let max_of = |rows: &[Vec<f64>]| {
                    rows.iter()
                        .flatten()
                        .fold(f64::NEG_INFINITY, |acc, v| acc.max(*v))
                };
                let mut row = vec![
                    t.arc_id.clone(),
                    t.metric.to_string(),
                    format!("{:.3}", max_of(&t.mean) * 1e12),
                    format!("{:.3}", max_of(&t.sigma) * 1e12),
                ];
                row.extend(
                    variation
                        .sigma_corners
                        .iter()
                        .map(|&k| format!("{:.3}", t.worst_corner(k) * 1e12)),
                );
                row
            })
            .collect();
        out.push_str(&markdown_table(&headers, &rows));
        // Full moment grids, one table per (arc, metric).
        for table in &variation.tables {
            out.push_str(&format!(
                "\n### {} {} — µ / σ / γ per slew × load point\n\n",
                table.arc_id, table.metric
            ));
            let mut headers = vec!["slew (ps) \\ load (fF)".to_string()];
            headers.extend(table.load_axis.iter().map(|c| format!("{:.3}", c * 1e15)));
            let rows: Vec<Vec<String>> = table
                .slew_axis
                .iter()
                .enumerate()
                .map(|(r, sin)| {
                    let mut row = vec![format!("{:.3}", sin * 1e12)];
                    row.extend((0..table.load_axis.len()).map(|c| {
                        format!(
                            "{:.3} / {:.3} / {:+.2}",
                            table.mean[r][c] * 1e12,
                            table.sigma[r][c] * 1e12,
                            table.skew[r][c],
                        )
                    }));
                    row
                })
                .collect();
            out.push_str(&markdown_table(&headers, &rows));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::plan::CharacterizationPlan;

    fn default_plan() -> CharacterizationPlan {
        let config = RunConfig::default()
            .resolve()
            .expect("default config resolves");
        CharacterizationPlan::from_config(&config).expect("non-empty plan")
    }

    /// An artifact of `plan` with one synthetic result per unit (nothing simulated),
    /// reporting the whole plan's size the way a shard does.
    fn synthetic_artifact(plan: &CharacterizationPlan) -> RunArtifact {
        let units: Vec<UnitResult> = plan
            .units()
            .iter()
            .map(|u| UnitResult {
                arc_id: u.arc.id(),
                arc: u.arc,
                metric: u.metric,
                method: u.method,
                kind: u.kind,
                params: Some(TimingParams::initial_guess()),
                training_count: 6,
                validation_points: 12,
                error_percent: 1.25,
                requested_simulations: 18,
            })
            .collect();
        RunArtifact {
            schema_version: SCHEMA_VERSION,
            library: plan.library_name().to_string(),
            technology: "target-14nm-finfet".to_string(),
            profile: "quick".to_string(),
            seed: 99,
            planned_units: plan.planned_units(),
            characterized: CharacterizedLibrary::from_units(
                plan.library_name(),
                "target-14nm-finfet",
                &units,
            ),
            units,
            variation: None,
        }
    }

    /// `artifact` in the version-1 layout: the same results plus the cost totals version 1
    /// serialized and, for a SIMD run, its `kernel` section.
    fn v1_json(artifact: &RunArtifact, simd: bool) -> String {
        let kernel = if simd {
            r#""kernel": {"simd": true, "sims": 100, "steps": 5000, "rejected_steps": 40,
                "device_evals": 60000, "quad_rounds": 1500, "active_lane_rounds": 5100,
                "lanes_dispatched": 100, "lanes_cached": 10, "lanes_claimed": 88,
                "lanes_deferred": 2},"#
        } else {
            ""
        };
        let v1 = format!(
            r#""schema_version": 1, "total_simulations": 324, "cache_hits": 108,
               "cache_misses": 324, {kernel}"#
        );
        let json = artifact.to_json().expect("serializes");
        let v1 = json.replacen(r#""schema_version": 2,"#, &v1, 1);
        assert_ne!(v1, json, "artifacts lead with their schema version");
        v1
    }

    /// Keys a version-1 artifact carried beyond its results: execution cost.
    const COST_KEYS: [&str; 4] = ["total_simulations", "cache_hits", "cache_misses", "kernel"];

    #[test]
    fn a_default_run_artifact_has_no_kernel_key_at_all() {
        // Artifacts hold results only: neither a kernel section nor the cost totals,
        // which depend on cache warmth and shard scheduling, reach the JSON.
        let artifact = synthetic_artifact(&default_plan());
        let json = artifact.to_json().expect("serializes");
        for key in COST_KEYS {
            assert!(
                !json.contains(key),
                "`{key}` must not be serialized:\n{json}"
            );
        }
        assert_eq!(RunArtifact::from_json(&json).expect("parses"), artifact);
    }

    #[test]
    fn a_v1_artifact_loads_merges_with_a_v2_shard_and_reserializes_as_v2() {
        let plan = default_plan();
        let parts = plan.split(2).expect("plan splits");
        let (first, second) = (synthetic_artifact(&parts[0]), synthetic_artifact(&parts[1]));
        let expected = RunArtifact::merge(&[first.clone(), second.clone()]).expect("merges");
        for simd in [false, true] {
            let old = RunArtifact::from_json(&v1_json(&first, simd)).expect("a v1 shard loads");
            assert_eq!(old, first, "the v1 cost keys are not read (simd = {simd})");
            let merged = RunArtifact::merge(&[old, second.clone()]).expect("v1 and v2 merge");
            assert_eq!(merged, expected);
            let json = merged.to_json().expect("serializes");
            assert!(json.contains("\"schema_version\": 2"), "{json}");
            for key in COST_KEYS {
                assert!(!json.contains(key), "`{key}` survived the merge:\n{json}");
            }
        }
        let future = first
            .to_json()
            .expect("serializes")
            .replace("\"schema_version\": 2", "\"schema_version\": 3");
        let err = RunArtifact::from_json(&future).expect_err("schema 3 is rejected");
        assert!(err.to_string().contains("schema version 3"), "{err}");
    }
}
