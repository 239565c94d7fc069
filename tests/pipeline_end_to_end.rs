//! End-to-end integration test of the library-scale pipeline: learn → plan →
//! characterize (parallel, shared counter + cache) → persist → export.

use slic_pipeline::{CharacterizationPlan, PipelineRunner, RunArtifact, RunConfig};

fn quick_config() -> RunConfig {
    // The documented defaults are exactly the paper's quick setup; pin the seed so the
    // cache-replay assertions below are about determinism, not luck.
    RunConfig {
        seed: Some(99),
        ..RunConfig::default()
    }
}

#[test]
fn quick_profile_characterizes_the_paper_trio_end_to_end() {
    let resolved = quick_config()
        .resolve()
        .expect("default quick config resolves");
    let runner = PipelineRunner::new(resolved).expect("quick profile is valid");
    let plan = CharacterizationPlan::from_config(runner.config()).expect("non-empty plan");
    // paper trio: 3 cells x 2 primary arcs x 2 metrics x 1 method.
    assert_eq!(plan.len(), 12);

    // Stage 1: learn. All cost flows through the runner's shared counter.
    let learning = runner.learn();
    assert!(!learning.database.is_empty());
    assert_eq!(learning.simulation_cost, runner.counter().count());

    // The learning stage must survive a JSON round trip (the resumable `slic learn` path).
    let db_json = learning.database.to_json().expect("database serializes");
    let reloaded =
        slic::prelude::HistoricalDatabase::from_json(&db_json).expect("database reloads");
    assert_eq!(reloaded, learning.database);

    // Stage 2: characterize against the reloaded database.
    let artifact = runner
        .characterize(&plan, &reloaded)
        .expect("characterization runs");
    assert_eq!(artifact.planned_units, 12);
    assert_eq!(artifact.units.len(), 12);
    assert_eq!(
        artifact.characterized.arcs.len(),
        6,
        "every arc obtains both metric fits"
    );
    // The shared counter total covers learn + characterize.
    assert!(runner.counter().count() > learning.simulation_cost);
    // Delay/slew unit pairs share sampling points, so each transient serves two metrics:
    // the second metric of every arc is answered entirely from the cache.
    assert!(
        runner.cache().hits() > 0,
        "metric pairing must produce cache hits"
    );
    // Quick-profile Bayesian fits on the target node are accurate.
    for unit in &artifact.units {
        assert!(
            unit.error_percent.is_finite() && unit.error_percent < 10.0,
            "{} {}: {}%",
            unit.arc_id,
            unit.metric,
            unit.error_percent
        );
        assert!(unit.params.is_some(), "Bayesian units carry parameters");
    }

    // Stage 3: persist and reload the run artifact.
    let json = artifact.to_json().expect("artifact serializes");
    let back = RunArtifact::from_json(&json).expect("artifact reloads");
    assert_eq!(back, artifact);

    // Stage 4: Liberty export from the fitted parameters, at zero simulation cost.
    let sims_before = runner.counter().count();
    let liberty = artifact
        .characterized
        .to_liberty(runner.engine(), runner.config().export_grid)
        .expect("fitted arcs exist");
    assert_eq!(
        runner.counter().count(),
        sims_before,
        "fitted export must not simulate"
    );
    for cell in runner.config().library.cells() {
        assert!(
            liberty.contains(&format!("cell ({})", cell.name())),
            "liberty must contain {}",
            cell.name()
        );
    }
    assert!(liberty.contains("cell_rise"));
    assert!(liberty.contains("cell_fall"));
    assert!(liberty.contains("rise_transition"));
    assert!(liberty.contains("fall_transition"));
    assert_eq!(liberty.matches('{').count(), liberty.matches('}').count());
}

#[test]
fn repeated_run_on_a_warm_cache_pays_almost_nothing() {
    let resolved = quick_config().resolve().expect("config resolves");
    let first = PipelineRunner::new(resolved.clone()).expect("runner builds");
    let (_, first_artifact) = first.run().expect("first run completes");
    assert!(first.counter().count() > 0);
    let first_hits = first.cache().hits();

    // Second run, same configuration, sharing the first run's cache.
    let second =
        PipelineRunner::with_cache(resolved, first.cache().clone()).expect("runner builds");
    let (_, second_artifact) = second.run().expect("second run completes");

    assert!(
        second.cache().hits() > first_hits,
        "a repeated run must hit the warm cache"
    );
    assert_eq!(
        second.counter().count(),
        0,
        "an identical run replays entirely from the cache"
    );
    // And it reproduces the same artifact, byte for byte: the artifact holds results,
    // and what the warm run did not pay is no part of them.
    assert_eq!(
        second_artifact.to_json().expect("serializes"),
        first_artifact.to_json().expect("serializes"),
        "a warm replay must serialize exactly like the cold run"
    );
}

#[test]
fn artifact_files_round_trip_on_disk() {
    let resolved = quick_config().resolve().expect("config resolves");
    let runner = PipelineRunner::new(resolved).expect("runner builds");
    let (_, artifact) = runner.run().expect("pipeline runs");

    let dir = std::env::temp_dir().join(format!("slic-pipeline-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("run.json");
    artifact.save(&path).expect("artifact saves");
    let reloaded = RunArtifact::load(&path).expect("artifact loads");
    assert_eq!(reloaded, artifact);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_transient_configuration_is_surfaced_as_an_error() {
    use slic_spice::{CharacterizationEngine, TransientConfig};
    let bad = TransientConfig {
        dv_max_fraction: 0.5,
        ..TransientConfig::fast()
    };
    let err =
        CharacterizationEngine::with_config(slic::prelude::TechnologyNode::target_14nm(), bad)
            .expect_err("invalid config must be rejected");
    assert!(err.to_string().contains("dv_max_fraction"));
}
