//! End-to-end SIMD-kernel tests against the real `slic` binary: the default (scalar)
//! artifact must carry no trace of the SIMD work, an explicit `kernel.simd = false`
//! config must be byte-identical to the default, and a `--simd` run must record the
//! `kernel.*` counters of its ledger record with consistent dispatch accounting.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "helper functions abort the test on a setup failure"
)]

use slic_obs::RunRecord;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_slic");

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slic-simd-cli-{}-{name}", std::process::id()));
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

fn counter(record: &RunRecord, name: &str) -> u64 {
    record
        .counter(name)
        .unwrap_or_else(|| panic!("ledger counter `{name}` missing"))
}

#[test]
fn default_artifact_is_simd_free_and_a_simd_run_records_the_kernel_section() {
    let dir = temp_dir("kernel");
    slic(&dir, &["learn", "--out", "history.json"]);

    // Default run: the artifact must not mention the kernel section at all — not even
    // `"kernel": null` — so pre-SIMD artifact consumers (and byte-level diffs against
    // pre-SIMD runs) see nothing new.
    slic(
        &dir,
        &[
            "characterize",
            "--history",
            "history.json",
            "--out",
            "run-default.json",
        ],
    );
    let default_bytes = std::fs::read(dir.join("run-default.json")).expect("default artifact");
    let default_text = String::from_utf8(default_bytes.clone()).expect("utf8 artifact");
    assert!(
        !default_text.contains("kernel"),
        "default artifact must carry no kernel key"
    );

    // An explicit `kernel.simd = false` config resolves to the same run: byte-identical.
    std::fs::write(dir.join("scalar.toml"), "kernel.simd = false\n").expect("config written");
    slic(
        &dir,
        &[
            "characterize",
            "--config",
            "scalar.toml",
            "--history",
            "history.json",
            "--out",
            "run-scalar.json",
        ],
    );
    let scalar_bytes = std::fs::read(dir.join("run-scalar.json")).expect("scalar artifact");
    assert_eq!(
        default_bytes, scalar_bytes,
        "kernel.simd = false must be byte-identical to the default"
    );

    // A `--simd` run records the kernel counters in its ledger record, with every
    // dispatched lane accounted for exactly once, and surfaces the same numbers on
    // stdout.  Its artifact holds results only, so it carries no kernel key either.
    let stdout = slic(
        &dir,
        &[
            "characterize",
            "--simd",
            "--history",
            "history.json",
            "--ledger",
            "runs.jsonl",
            "--out",
            "run-simd.json",
        ],
    );
    assert!(
        stdout.contains("kernel (simd):"),
        "post-run summary missing the kernel line:\n{stdout}"
    );
    assert!(
        stdout.contains("dispatch:"),
        "post-run summary missing the dispatch line:\n{stdout}"
    );
    let simd_text = std::fs::read_to_string(dir.join("run-simd.json")).expect("simd artifact");
    assert!(
        !simd_text.contains("kernel"),
        "a SIMD artifact must carry no kernel key"
    );
    let ledger = slic_obs::ledger::load(&dir.join("runs.jsonl")).expect("ledger readable");
    let record = ledger.records.last().expect("the SIMD run was recorded");
    assert!(counter(record, "kernel.sims") > 0);
    assert!(
        counter(record, "kernel.quad_rounds") > 0,
        "SIMD quads must have run"
    );
    assert!(counter(record, "kernel.active_lane_rounds") > 0);
    assert_eq!(
        counter(record, "dispatch.lanes"),
        counter(record, "dispatch.lanes.cached")
            + counter(record, "dispatch.lanes.claimed")
            + counter(record, "dispatch.lanes.deferred"),
        "every dispatched lane is cached, claimed or deferred"
    );

    std::fs::remove_dir_all(&dir).ok();
}
