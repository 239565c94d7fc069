//! Property tests for plan sharding and artifact merging: `split(n)` covers every work
//! unit exactly once for arbitrary plan shapes, merging shard artifacts equals merging
//! the unsharded artifact (variation sections included), and shards of differently
//! configured variation ensembles are rejected.

use proptest::prelude::*;
use slic::prelude::TimingParams;
use slic_pipeline::artifact::SCHEMA_VERSION;
use slic_pipeline::{
    CharacterizationPlan, RunArtifact, RunConfig, UnitKind, UnitResult, VariationKnobs,
    VariationSection, WorkUnit,
};
use slic_variation::VariationTable;

/// Builds an arbitrary-but-valid run configuration from a handful of generator draws.
fn arbitrary_plan(
    lib: usize,
    metric_sel: usize,
    method_mask: usize,
    variation: bool,
) -> CharacterizationPlan {
    let libraries = ["paper-trio", "standard"];
    let metric_options: [&[&str]; 3] = [&["delay"], &["slew"], &["delay", "slew"]];
    let all_methods = ["bayesian", "lse", "lut"];
    let methods: Vec<String> = all_methods
        .iter()
        .enumerate()
        .filter(|(i, _)| method_mask & (1 << i) != 0)
        .map(|(_, m)| m.to_string())
        .collect();
    let config = RunConfig {
        library: Some(libraries[lib].to_string()),
        metrics: Some(
            metric_options[metric_sel]
                .iter()
                .map(|m| m.to_string())
                .collect(),
        ),
        methods: Some(methods),
        variation: variation.then(VariationKnobs::default),
        ..RunConfig::default()
    };
    let resolved = config.resolve().expect("generated configs are valid");
    CharacterizationPlan::from_config(&resolved).expect("generated plans are non-empty")
}

/// A deterministic synthetic moment table for one Monte Carlo unit.
fn synthetic_table(unit: &WorkUnit, process_seeds: usize) -> VariationTable {
    VariationTable {
        arc_id: unit.arc.id(),
        arc: unit.arc,
        metric: unit.metric,
        vdd: 0.8,
        slew_axis: vec![1e-12, 2e-12],
        load_axis: vec![1e-15, 2e-15],
        process_seeds,
        mean: vec![vec![10e-12, 11e-12], vec![12e-12, 13e-12]],
        sigma: vec![vec![0.5e-12; 2]; 2],
        skew: vec![vec![0.1; 2]; 2],
    }
}

/// A synthetic artifact whose per-unit numbers are deterministic functions of the plan,
/// so shard sums always reproduce the unsharded totals.  Monte Carlo units contribute a
/// table to a variation section parameterized by `(process_seeds, sigma_corners)`.
fn synthetic_artifact_with_variation(
    plan: &CharacterizationPlan,
    planned: usize,
    variation: Option<(usize, Vec<f64>)>,
) -> RunArtifact {
    let units: Vec<UnitResult> = plan
        .units()
        .iter()
        .map(|u| UnitResult {
            arc_id: u.arc.id(),
            arc: u.arc,
            metric: u.metric,
            method: u.method,
            kind: u.kind,
            params: (u.kind == UnitKind::Nominal).then(TimingParams::initial_guess),
            training_count: 6,
            validation_points: 12,
            error_percent: 1.25,
            requested_simulations: 18,
        })
        .collect();
    let variation = variation.map(|(process_seeds, sigma_corners)| VariationSection {
        process_seeds,
        sigma_corners,
        seed: 7,
        tables: plan
            .units()
            .iter()
            .filter(|u| u.kind == UnitKind::MonteCarlo)
            .map(|u| synthetic_table(u, process_seeds))
            .collect(),
    });
    let characterized = slic_pipeline::CharacterizedLibrary::from_units(
        plan.library_name(),
        "target-14nm-finfet",
        &units,
    );
    RunArtifact {
        schema_version: SCHEMA_VERSION,
        library: plan.library_name().to_string(),
        technology: "target-14nm-finfet".to_string(),
        profile: "quick".to_string(),
        seed: 99,
        planned_units: planned,
        units,
        characterized,
        variation,
    }
}

fn synthetic_artifact(plan: &CharacterizationPlan, planned: usize) -> RunArtifact {
    synthetic_artifact_with_variation(plan, planned, None)
}

proptest! {
    #[test]
    fn split_covers_every_unit_exactly_once(
        shards in 1usize..9,
        lib in 0usize..2,
        metric_sel in 0usize..3,
        method_mask in 1usize..8,
        variation_sel in 0usize..2,
    ) {
        let plan = arbitrary_plan(lib, metric_sel, method_mask, variation_sel == 1);
        let parts = plan.split(shards).expect("split succeeds");
        prop_assert_eq!(parts.len(), shards);

        // Every unit appears in exactly one shard (multiset equality of unit ids).
        let mut sharded_ids: Vec<String> = parts
            .iter()
            .flat_map(|p| p.units().iter().map(WorkUnit::id))
            .collect();
        sharded_ids.sort();
        let mut expected_ids: Vec<String> = plan.units().iter().map(WorkUnit::id).collect();
        expected_ids.sort();
        prop_assert_eq!(sharded_ids, expected_ids);

        // Shard membership is the stable hash of the unit identity, nothing else.
        for (index, part) in parts.iter().enumerate() {
            prop_assert_eq!(part.library_name(), plan.library_name());
            for unit in part.units() {
                prop_assert_eq!(unit.shard_of(shards), index);
            }
        }
    }

    #[test]
    fn merging_shard_artifacts_equals_the_unsharded_artifact(
        shards in 1usize..9,
        lib in 0usize..2,
        metric_sel in 0usize..3,
        method_mask in 1usize..8,
    ) {
        let plan = arbitrary_plan(lib, metric_sel, method_mask, false);
        let full = synthetic_artifact(&plan, plan.planned_units());

        let shard_artifacts: Vec<RunArtifact> = plan
            .split(shards)
            .expect("split succeeds")
            .iter()
            .map(|part| synthetic_artifact(part, part.planned_units()))
            .collect();

        let merged = RunArtifact::merge(&shard_artifacts).expect("disjoint shards merge");
        // Merging the complete artifact alone canonicalizes its unit order, giving the
        // reference the merged artifact must reproduce exactly.
        let canonical = RunArtifact::merge(std::slice::from_ref(&full)).expect("merges");
        prop_assert_eq!(merged, canonical);
    }

    #[test]
    fn merging_variation_shards_equals_the_unsharded_statistical_artifact(
        shards in 1usize..9,
        lib in 0usize..2,
        metric_sel in 0usize..3,
        method_mask in 1usize..8,
        process_seeds in 3usize..200,
    ) {
        let plan = arbitrary_plan(lib, metric_sel, method_mask, true);
        let ensemble = (process_seeds, vec![1.0, 3.0]);
        let full =
            synthetic_artifact_with_variation(&plan, plan.planned_units(), Some(ensemble.clone()));

        // Every shard echoes the full ensemble configuration and carries the tables of
        // its own Monte Carlo units (possibly none).
        let shard_artifacts: Vec<RunArtifact> = plan
            .split(shards)
            .expect("split succeeds")
            .iter()
            .map(|part| {
                synthetic_artifact_with_variation(part, part.planned_units(), Some(ensemble.clone()))
            })
            .collect();

        let merged = RunArtifact::merge(&shard_artifacts).expect("disjoint shards merge");
        let canonical = RunArtifact::merge(std::slice::from_ref(&full)).expect("merges");
        prop_assert_eq!(&merged, &canonical);
        let section = merged.variation.as_ref().expect("variation section survives");
        prop_assert_eq!(section.process_seeds, process_seeds);
        prop_assert_eq!(
            section.tables.len(),
            plan.units().iter().filter(|u| u.kind == UnitKind::MonteCarlo).count()
        );
        // Bit-for-bit: the serialized artifacts are identical, not merely PartialEq.
        prop_assert_eq!(
            merged.to_json().expect("serializes"),
            canonical.to_json().expect("serializes")
        );
    }

    #[test]
    fn variation_shards_of_different_ensembles_are_rejected(
        lib in 0usize..2,
        metric_sel in 0usize..3,
        mismatch_sel in 0usize..3,
        process_seeds in 3usize..200,
    ) {
        let plan = arbitrary_plan(lib, metric_sel, 1, true);
        let parts = plan.split(2).expect("split succeeds");
        let reference = (process_seeds, vec![1.0, 3.0]);
        let a = synthetic_artifact_with_variation(&parts[0], parts[0].planned_units(),
                                                  Some(reference.clone()));
        // Three ways a shard can describe a different ensemble: another seed count,
        // other sigma corners, or no variation section at all.
        let mut b = synthetic_artifact_with_variation(&parts[1], parts[1].planned_units(),
            match mismatch_sel {
                0 => Some((process_seeds + 1, reference.1.clone())),
                1 => Some((process_seeds, vec![2.0])),
                _ => None,
            });
        if mismatch_sel == 2 {
            b.variation = None;
        }
        let err = RunArtifact::merge(&[a, b])
            .expect_err("differently-configured variation shards must be rejected");
        let message = err.to_string();
        prop_assert!(
            message.contains("process-seed count")
                || message.contains("sigma corners")
                || message.contains("variation section"),
            "unexpected error: {}",
            message
        );
    }

    #[test]
    fn merging_overlapping_shards_is_rejected(
        lib in 0usize..2,
        metric_sel in 0usize..3,
        method_mask in 1usize..8,
    ) {
        let plan = arbitrary_plan(lib, metric_sel, method_mask, false);
        let full = synthetic_artifact(&plan, plan.planned_units());
        let parts = plan.split(2).expect("split succeeds");
        let overlapping = synthetic_artifact(&parts[0], parts[0].planned_units());
        if !overlapping.units.is_empty() {
            let err = RunArtifact::merge(&[full, overlapping])
                .expect_err("a re-submitted shard must be rejected");
            prop_assert!(err.to_string().contains("overlapping"), "{}", err);
        }
    }
}
