//! End-to-end test of the Monte Carlo variation subsystem: a statistical
//! characterization run produces sigma/skew tables next to the nominal fits, shard-split
//! plus merge reproduces the single-process artifact bit-for-bit, reruns replay from the
//! cache, the report renders the variation section, and the Liberty export grows
//! LVF-style `ocv_*` groups that parse back.

use slic::liberty::scan_liberty_tables;
use slic_pipeline::{
    CharacterizationPlan, PipelineRunner, RunArtifact, RunConfig, UnitKind, VariationKnobs,
};
use slic_spice::DiskSimCache;
use std::path::PathBuf;
use std::sync::Arc;

fn variation_config() -> RunConfig {
    RunConfig {
        seed: Some(99),
        variation: Some(VariationKnobs {
            process_seeds: Some(6),
            sigma_corners: Some(vec![1.0, 3.0]),
        }),
        ..RunConfig::default()
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("slic-variation-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn statistical_run_produces_moment_tables_and_lvf_export() {
    let resolved = variation_config().resolve().expect("config resolves");
    let runner = PipelineRunner::new(resolved).expect("runner builds");
    let plan = CharacterizationPlan::from_config(runner.config()).expect("non-empty plan");
    // 12 nominal units + 12 Monte Carlo units (3 cells x 2 arcs x 2 metrics).
    assert_eq!(plan.len(), 24);

    let database = runner.learn().database;
    let artifact = runner
        .characterize(&plan, &database)
        .expect("statistical run completes");
    assert_eq!(artifact.units.len(), 24);
    let variation = artifact.variation.as_ref().expect("variation section");
    assert_eq!(variation.process_seeds, 6);
    assert_eq!(variation.tables.len(), 12, "one table per arc and metric");
    let grid = runner.config().export_grid;
    for table in &variation.tables {
        assert_eq!(table.shape(), (grid.slew_levels, grid.load_levels));
        assert!(table.mean.iter().flatten().all(|m| *m > 0.0));
        assert!(
            table.sigma.iter().flatten().all(|s| *s > 0.0),
            "process variation must spread every grid point"
        );
    }
    // Monte Carlo units report a spread, request grid x seeds transients, and the
    // delay/slew pair of one arc shares its sweeps through the cache: the run pays at
    // most one sweep per arc (6 arcs x 9 points x 6 seeds unique coordinates).
    let mc_units: Vec<_> = artifact
        .units
        .iter()
        .filter(|u| u.kind == UnitKind::MonteCarlo)
        .collect();
    assert_eq!(mc_units.len(), 12);
    for unit in &mc_units {
        assert_eq!(
            unit.requested_simulations,
            (grid.slew_levels * grid.load_levels * 6) as u64
        );
        assert!(unit.error_percent > 0.0, "spread must be positive");
        assert!(unit.params.is_none());
    }
    assert!(
        runner.cache().hits() >= 6 * 9 * 6,
        "each arc's second-metric Monte Carlo unit must replay the first's transients \
         (hits = {})",
        runner.cache().hits()
    );

    // The report renders the variation tables instead of omitting them.
    let report = artifact.summary_markdown();
    assert!(report.contains("## Process variation (6 seeds"));
    assert!(report.contains("monte-carlo"));
    assert!(report.contains("worst µ+3σ (ps)"));
    assert!(report.contains("µ / σ / γ per slew × load point"));

    // Liberty with variation: ocv sigma/skew groups on the nominal grid, parsing back.
    let text = artifact
        .characterized
        .to_liberty_with_variation(runner.engine(), grid, variation)
        .expect("LVF export succeeds");
    let tables = scan_liberty_tables(&text).expect("export parses back");
    for group in [
        "ocv_sigma_cell_rise",
        "ocv_sigma_cell_fall",
        "ocv_skewness_cell_rise",
        "ocv_skewness_cell_fall",
        "ocv_sigma_rise_transition",
        "ocv_skewness_fall_transition",
    ] {
        let scanned = tables
            .iter()
            .find(|t| t.group == group)
            .unwrap_or_else(|| panic!("missing `{group}`"));
        assert_eq!(
            (scanned.rows, scanned.cols),
            (grid.slew_levels, grid.load_levels),
            "`{group}` must share the nominal index grid"
        );
    }
    // Every cell's timing group carries the full LVF complement: 2 nominal + 4 ocv
    // tables per transition.
    let ocv_count = tables
        .iter()
        .filter(|t| t.group.starts_with("ocv_"))
        .count();
    assert_eq!(ocv_count, 3 * 2 * 4);
}

#[test]
fn four_variation_shards_merged_are_bit_identical_to_the_single_process_run() {
    let resolved = variation_config().resolve().expect("config resolves");
    let learn_runner = PipelineRunner::new(resolved.clone()).expect("runner builds");
    let database = learn_runner.learn().database;

    // Single-process reference with a fresh runner (counter covers characterization
    // only), exactly like the sharded workers below.
    let single = PipelineRunner::new(resolved.clone()).expect("runner builds");
    let plan = CharacterizationPlan::from_config(single.config()).expect("non-empty plan");
    let reference = single
        .characterize(&plan, &database)
        .expect("reference run completes");
    assert_eq!(
        single.counter().count(),
        single.cache().misses(),
        "every unique (seed, point) coordinate is paid exactly once"
    );

    let dir = temp_dir("merge");
    let cache_path = dir.join("sim-cache.jsonl");
    let shards = plan.split(4).expect("plan splits");
    let mut artifacts = Vec::new();
    for shard in &shards {
        let cache = Arc::new(DiskSimCache::open(&cache_path).expect("cache opens"));
        let runner =
            PipelineRunner::with_cache(resolved.clone(), cache.clone()).expect("runner builds");
        let artifact = runner
            .characterize(shard, &database)
            .expect("shard run completes");
        // Every shard echoes the full ensemble configuration, so merge can verify the
        // shards describe one seed set.
        let section = artifact
            .variation
            .as_ref()
            .expect("every shard has a section");
        assert_eq!(section.process_seeds, 6);
        assert_eq!(
            section.tables.len(),
            shard
                .units()
                .iter()
                .filter(|u| u.kind == UnitKind::MonteCarlo)
                .count()
        );
        cache.flush().expect("cache flushes");
        artifacts.push(artifact);
    }

    let merged = RunArtifact::merge(&artifacts).expect("shards merge");
    // Bit-for-bit: the merged artifact serializes to exactly the single-process bytes —
    // fits and moment tables included.
    assert_eq!(
        merged.to_json().expect("serializes"),
        reference.to_json().expect("serializes"),
    );

    // A warm rerun of the full statistical plan replays entirely from the shard cache.
    let warm_cache = Arc::new(DiskSimCache::open(&cache_path).expect("cache reopens"));
    let warm = PipelineRunner::with_cache(resolved.clone(), warm_cache).expect("runner builds");
    let replay = warm
        .characterize(&plan, &database)
        .expect("warm rerun completes");
    assert_eq!(warm.counter().count(), 0, "zero transients on a warm cache");
    assert_eq!(warm.cache().misses(), 0);
    assert_eq!(
        replay.variation.as_ref().expect("section").tables,
        merged.variation.as_ref().expect("section").tables,
        "replayed moment tables are identical"
    );
    // The replay paid nothing, yet serializes exactly like the cold reference.
    assert_eq!(
        replay.to_json().expect("serializes"),
        reference.to_json().expect("serializes"),
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exported_liberty_file_from_env_parses_back() {
    // CI hook: the variation smoke job exports a .lib via the CLI and points this test at
    // it, so the on-disk artifact goes through the same round-trip helper as the
    // in-process exports.  A no-op when the variable is unset (normal test runs).
    let Ok(path) = std::env::var("SLIC_SCAN_LIB") else {
        return;
    };
    let text = std::fs::read_to_string(&path).expect("exported library readable");
    let tables = scan_liberty_tables(&text).expect("CLI export parses back");
    let nominal_shape = tables
        .iter()
        .find(|t| t.group == "cell_rise")
        .map(|t| (t.rows, t.cols))
        .expect("nominal tables present");
    for group in ["ocv_sigma_cell_rise", "ocv_skewness_cell_fall"] {
        let scanned = tables
            .iter()
            .find(|t| t.group == group)
            .unwrap_or_else(|| panic!("missing `{group}` in {path}"));
        assert_eq!((scanned.rows, scanned.cols), nominal_shape);
    }
}

#[test]
fn shard_artifacts_with_variation_units_are_labelled_partial() {
    let resolved = variation_config().resolve().expect("config resolves");
    let runner = PipelineRunner::new(resolved).expect("runner builds");
    let plan = CharacterizationPlan::from_config(runner.config()).expect("non-empty plan");
    let database = runner.learn().database;
    let shard = plan
        .split(4)
        .expect("plan splits")
        .into_iter()
        .find(|s| s.units().iter().any(|u| u.kind == UnitKind::MonteCarlo))
        .expect("some shard owns Monte Carlo units");
    let artifact = runner
        .characterize(&shard, &database)
        .expect("shard run completes");
    assert!(
        artifact.is_partial(),
        "a shard of a statistical plan is partial (variation units count too)"
    );
    let report = artifact.summary_markdown();
    assert!(report.contains("PARTIAL SHARD ARTIFACT"), "{report}");
    assert!(
        report.contains("## Process variation"),
        "a statistical shard report still renders its own tables"
    );
}
