//! Artifact-format compatibility against the real `slic` binary: version-1 run
//! artifacts, which also serialized the run's cost, still load in `report`, `export`
//! and `merge`, and a merge writes the current, results-only layout.

#![expect(
    clippy::expect_used,
    reason = "helper functions abort the test on a setup failure"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_slic");

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slic-artifact-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `slic <args>`, asserting success; returns stdout.
fn slic(dir: &Path, args: &[&str]) -> String {
    let output = Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("slic runs");
    assert!(
        output.status.success(),
        "`slic {}` failed:\nstdout: {}\nstderr: {}",
        args.join(" "),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8(output.stdout).expect("utf8 stdout")
}

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).expect("output readable")
}

/// `artifact` in the version-1 layout: schema 1 plus the cost totals version 1
/// serialized and, for a SIMD run, its `kernel` section.
fn as_v1(artifact: &str, simd: bool) -> String {
    let kernel = if simd {
        r#""kernel": {"simd": true, "sims": 108, "steps": 3000, "rejected_steps": 40,
            "device_evals": 36000, "quad_rounds": 800, "active_lane_rounds": 2900,
            "lanes_dispatched": 216, "lanes_cached": 108, "lanes_claimed": 108,
            "lanes_deferred": 0},"#
    } else {
        ""
    };
    let v1 = format!(
        r#""schema_version": 1, "total_simulations": 108, "cache_hits": 108,
           "cache_misses": 108, {kernel}"#
    );
    let v1 = artifact.replacen(r#""schema_version": 2,"#, &v1, 1);
    assert_ne!(v1, artifact, "artifacts lead with their schema version");
    v1
}

#[test]
fn version_1_artifacts_still_report_export_and_merge() {
    let dir = temp_dir("v1");
    slic(&dir, &["learn", "--out", "history.json"]);
    slic(
        &dir,
        &[
            "characterize",
            "--history",
            "history.json",
            "--out",
            "run.json",
            "--liberty",
            "run.lib",
        ],
    );
    for shard in ["1/2", "2/2"] {
        let out = format!("run-{}.json", shard.replace('/', "-"));
        slic(
            &dir,
            &[
                "characterize",
                "--history",
                "history.json",
                "--shard",
                shard,
                "--out",
                &out,
            ],
        );
    }
    let full = read(&dir, "run.json");
    for simd in [false, true] {
        std::fs::write(dir.join("v1-run.json"), as_v1(&full, simd)).expect("written");
        std::fs::write(
            dir.join("v1-shard.json"),
            as_v1(&read(&dir, "run-1-2.json"), simd),
        )
        .expect("written");

        let report = slic(&dir, &["report", "--run", "v1-run.json"]);
        assert!(
            report.contains("12 units; 6 arcs fully characterized."),
            "{report}"
        );
        assert!(!report.contains("simulations paid"), "{report}");

        slic(&dir, &["export", "--run", "v1-run.json", "--out", "v1.lib"]);
        assert_eq!(read(&dir, "v1.lib"), read(&dir, "run.lib"));

        // A v1 shard and a current one merge into the current, results-only artifact.
        slic(
            &dir,
            &[
                "merge",
                "--inputs",
                "v1-shard.json,run-2-2.json",
                "--out",
                "merged.json",
            ],
        );
        assert_eq!(read(&dir, "merged.json"), full, "simd = {simd}");
    }

    std::fs::remove_dir_all(&dir).ok();
}
