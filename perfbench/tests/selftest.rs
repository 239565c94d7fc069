//! Self-tests of the benchmark: its timing decorators change nothing, its output check
//! counts failures exactly, and it emits every metric `BENCHMARK.json` names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::campaign::{
    self, CacheSource, Campaign, Checker, Expected, Outcome, Workload, DEFAULT_SEED,
};
use perfbench::probe::Probe;
use perfbench::run::{END_TO_END, PER_LAYER};
use serde_json::Value;
use slic_spice::LocalBackend;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn nominal(out_dir: &Path, probe: Option<&Probe>) -> Outcome {
    campaign::run(
        &Campaign {
            config: Workload::Nominal.config(DEFAULT_SEED),
            cache: CacheSource::Memory,
            backend: Arc::new(LocalBackend::new()),
            out_dir,
        },
        probe,
    )
    .expect("nominal campaign runs")
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|entries| entries.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{key}` in {value:?}"))
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Number(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    field(spec, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let text = |k| field(m, k).as_str().expect("string").to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn timing_decorators_are_transparent() {
    let dir = scratch("transparent");
    let plain = nominal(&dir, None);
    let probe = Probe::new(Instant::now(), 0);
    let traced = nominal(&dir, Some(&probe));
    assert_eq!(plain.digest, traced.digest);
    assert_eq!(plain.sims_paid, traced.sims_paid);
    assert_eq!((plain.hits, plain.misses), (traced.hits, traced.misses));
    assert!(
        probe.backend.calls() > 0,
        "the backend decorator saw the campaign"
    );
    assert!(
        probe.cache.lookups() > 0,
        "the cache decorator saw the campaign"
    );
}

#[test]
fn a_forced_digest_mismatch_counts_exactly_one_failed_campaign() {
    let outcome = nominal(&scratch("mismatch"), None);
    let mut checker = Checker::new(Expected::from_reference(&outcome, outcome.sims_paid));
    let mut forged = outcome.clone();
    forged.digest = "0000000000000000".to_string();
    assert!(checker.check(&Ok(outcome.clone())));
    assert!(!checker.check(&Ok(forged)));
    assert!(checker.check(&Ok(outcome)));
    assert_eq!((checker.attempted, checker.failed), (3, 1));
    let failure = checker.first_failure.expect("the mismatch is recorded");
    assert!(failure.contains("digest"), "{failure}");
}

#[test]
fn every_metric_in_benchmark_json_is_emitted_for_every_workload() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let workloads: Vec<String> = field(&spec, "workloads")
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| field(w, "name").as_str().expect("string").to_string())
        .collect();
    let valid = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for name in end_to_end
        .iter()
        .chain(&per_layer)
        .map(|(n, _)| n)
        .chain(&workloads)
    {
        assert!(valid(name), "`{name}` is not [A-Za-z0-9_.-]+");
    }
    assert_eq!(end_to_end, owned(END_TO_END));
    assert_eq!(per_layer, owned(PER_LAYER));

    let work_dir = scratch("emission");
    for workload in &workloads {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", &DEFAULT_SEED.to_string()])
                .args(["--seconds", "0", "--trace", trace, "--work-dir"])
                .arg(&work_dir)
                .output()
                .expect("benchmark starts");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let result: Value = serde_json::from_str(stdout.lines().last().expect("a result"))
                .expect("the last line is JSON");
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{stdout}");
            assert!(number(field(&result, "attempted")) >= 1.0);
            assert_eq!(number(field(&result, "failed")), 0.0);
            let emitted: Vec<(String, String)> = field(&result, "metrics")
                .as_object()
                .expect("metric object")
                .iter()
                .map(|(name, metric)| {
                    assert!(number(field(metric, "value")).is_finite());
                    let unit = field(metric, "unit").as_str().expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(&emitted, expected, "{workload} trace {trace}");
        }
    }
}
