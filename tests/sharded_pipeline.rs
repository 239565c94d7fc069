//! Distributed-run integration test: split a plan into shards, execute each shard in its
//! own "process" (a fresh runner reopening one shared disk-backed simulation cache),
//! merge the shard artifacts, and compare against the single-process run.

use slic_pipeline::{CharacterizationPlan, PipelineRunner, RunArtifact, RunConfig, UnitResult};
use slic_spice::{DiskSimCache, SimulationCache};
use std::path::PathBuf;
use std::sync::Arc;

fn quick_config() -> RunConfig {
    RunConfig {
        seed: Some(99),
        ..RunConfig::default()
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slic-shard-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn sorted_units(artifact: &RunArtifact) -> Vec<UnitResult> {
    let mut units = artifact.units.clone();
    units.sort_by_key(UnitResult::unit_id);
    units
}

#[test]
fn four_shards_merged_equal_the_single_process_run_and_reruns_are_free() {
    let resolved = quick_config().resolve().expect("config resolves");

    // Learn once; the reference run and every shard worker consume the same database —
    // exactly the `slic learn` + N x `slic characterize --shard` workflow.
    let learn_runner = PipelineRunner::new(resolved.clone()).expect("runner builds");
    let database = learn_runner.learn().database;

    // Single-process reference: a fresh runner, so its counter covers characterization
    // only.
    let single = PipelineRunner::new(resolved.clone()).expect("runner builds");
    let plan = CharacterizationPlan::from_config(single.config()).expect("non-empty plan");
    assert_eq!(plan.len(), 12);
    let reference = single
        .characterize(&plan, &database)
        .expect("reference run completes");
    assert!(single.counter().count() > 0);

    let dir = temp_dir("merge");
    let cache_path = dir.join("sim-cache.jsonl");
    let shards = plan.split(4).expect("plan splits");
    assert_eq!(shards.len(), 4);
    assert!(
        shards.iter().filter(|s| !s.is_empty()).count() >= 2,
        "the default plan must actually distribute"
    );

    // Run each shard as a separate "process": reopen the persistent cache from disk,
    // characterize the shard, flush. Later shards warm-start from earlier shards' work.
    let mut artifacts = Vec::new();
    let (mut shard_sims, mut shard_misses, mut shard_hits) = (0, 0, 0);
    for shard in &shards {
        let cache = Arc::new(DiskSimCache::open(&cache_path).expect("cache opens"));
        let runner =
            PipelineRunner::with_cache(resolved.clone(), cache.clone()).expect("runner builds");
        let artifact = runner
            .characterize(shard, &database)
            .expect("shard run completes");
        assert_eq!(artifact.units.len(), shard.len());
        assert_eq!(
            artifact.planned_units,
            plan.len(),
            "a shard artifact reports the full plan size"
        );
        assert_eq!(
            runner.counter().count(),
            cache.misses(),
            "every paid simulation is archived"
        );
        shard_sims += runner.counter().count();
        shard_misses += cache.misses();
        shard_hits += cache.hits();
        cache.flush().expect("cache flushes");
        artifacts.push(artifact);
    }

    // Dropping any shard must be caught, not silently merged into a partial library.
    let missing_one =
        RunArtifact::merge(&artifacts[..3]).expect_err("an incomplete shard set must be rejected");
    assert!(
        missing_one.to_string().contains("incomplete merge"),
        "{missing_one}"
    );

    let merged = RunArtifact::merge(&artifacts).expect("shards merge");

    // The merged artifact is the single-process artifact: same planned units, identical
    // per-unit fits, the same bytes.  And because the shards shared one persistent
    // cache, their runners together paid the single process's simulation total.
    assert_eq!(
        merged.to_json().expect("serializes"),
        reference.to_json().expect("serializes")
    );
    assert_eq!(merged.planned_units, reference.planned_units);
    assert_eq!(
        merged.units,
        sorted_units(&reference),
        "fits must be identical"
    );
    assert_eq!(shard_sims, single.counter().count());
    assert_eq!(shard_misses, single.cache().misses());
    assert_eq!(shard_hits, single.cache().hits());
    let mut reference_arcs = reference.characterized.arcs.clone();
    reference_arcs.sort_by_key(|a| a.arc.id());
    let mut merged_arcs = merged.characterized.arcs.clone();
    merged_arcs.sort_by_key(|a| a.arc.id());
    assert_eq!(merged_arcs, reference_arcs);
    assert_eq!(merged_arcs.len(), 6, "every arc obtains both metric fits");

    // The merged artifact persists like any other.
    let merged_path = dir.join("merged.json");
    merged.save(&merged_path).expect("merged artifact saves");
    assert_eq!(RunArtifact::load(&merged_path).expect("reloads"), merged);

    // Fresh process, warm disk cache: rerunning any shard — or the whole plan — pays
    // zero transient simulations.
    let rerun_cache = Arc::new(DiskSimCache::open(&cache_path).expect("cache reopens"));
    assert!(!rerun_cache.is_empty(), "the cache persisted warm state");
    let rerun =
        PipelineRunner::with_cache(resolved.clone(), rerun_cache.clone()).expect("runner builds");
    let largest = shards
        .iter()
        .max_by_key(|s| s.len())
        .expect("four shards exist");
    rerun
        .characterize(largest, &database)
        .expect("shard rerun completes");
    assert_eq!(
        rerun.counter().count(),
        0,
        "a rerun shard replays entirely from the persisted cache"
    );
    assert_eq!(rerun_cache.misses(), 0);

    let full_replay = rerun
        .characterize(&plan, &database)
        .expect("full rerun completes");
    assert_eq!(rerun_cache.misses(), 0, "no coordinate is missing");
    assert_eq!(
        rerun.counter().count(),
        0,
        "neither rerun paid a single transient"
    );
    assert_eq!(
        sorted_units(&full_replay),
        merged.units,
        "replayed fits match"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrently_run_shards_merge_byte_identically_to_the_single_process_run() {
    let resolved = quick_config().resolve().expect("config resolves");
    let database = PipelineRunner::new(resolved.clone())
        .expect("runner builds")
        .learn()
        .database;
    let single = PipelineRunner::new(resolved.clone()).expect("runner builds");
    let plan = CharacterizationPlan::from_config(single.config()).expect("non-empty plan");
    let reference = single
        .characterize(&plan, &database)
        .expect("reference run completes");

    // Two shard "processes" open one fresh cache file at once, so neither sees the
    // other's work and coordinates both shards need are paid twice: the schedule moves
    // what the run costs, never what it produces.
    let dir = temp_dir("concurrent");
    let cache_path = dir.join("sim-cache.jsonl");
    let shards = plan.split(2).expect("plan splits");
    let caches: Vec<Arc<DiskSimCache>> = shards
        .iter()
        .map(|_| Arc::new(DiskSimCache::open(&cache_path).expect("cache opens")))
        .collect();
    let outcomes: Vec<(RunArtifact, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = shards
            .iter()
            .zip(&caches)
            .map(|(shard, cache)| {
                let (config, database) = (resolved.clone(), &database);
                scope.spawn(move || {
                    let runner =
                        PipelineRunner::with_cache(config, cache.clone()).expect("runner builds");
                    let artifact = runner
                        .characterize(shard, database)
                        .expect("shard run completes");
                    cache.flush().expect("cache flushes");
                    (artifact, runner.counter().count())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("shard thread completes"))
            .collect()
    });
    let paid: u64 = outcomes.iter().map(|(_, sims)| sims).sum();
    assert!(paid >= single.counter().count());
    let artifacts: Vec<RunArtifact> = outcomes.into_iter().map(|(a, _)| a).collect();
    let merged = RunArtifact::merge(&artifacts).expect("shards merge");
    assert_eq!(
        merged.to_json().expect("serializes"),
        reference.to_json().expect("serializes"),
        "concurrent shards must merge to the single-process bytes"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_overlapping_and_differently_configured_shards() {
    let resolved = quick_config().resolve().expect("config resolves");
    let runner = PipelineRunner::new(resolved).expect("runner builds");
    let (_, artifact) = runner.run().expect("pipeline runs");

    let err = RunArtifact::merge(&[artifact.clone(), artifact.clone()])
        .expect_err("identical shards overlap");
    assert!(err.to_string().contains("overlapping"), "{err}");

    let mut reseeded = artifact.clone();
    reseeded.seed += 1;
    reseeded.units.clear();
    let err = RunArtifact::merge(&[artifact.clone(), reseeded])
        .expect_err("shards of different runs must not merge");
    assert!(err.to_string().contains("differently-configured"), "{err}");

    let err = RunArtifact::merge(&[]).expect_err("nothing to merge");
    assert!(err.to_string().contains("zero run artifacts"), "{err}");

    // Merging one complete artifact is the identity up to canonical unit order.
    let remerged = RunArtifact::merge(std::slice::from_ref(&artifact)).expect("merges");
    assert_eq!(remerged.planned_units, artifact.planned_units);
    assert_eq!(remerged.units.len(), artifact.units.len());
}
