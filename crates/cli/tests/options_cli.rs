//! The option surface of the real `slic` binary: options that were deleted get the
//! unknown-key or unknown-flag error instead of being silently ignored, a flag is never
//! taken as another flag's value or silently ignored, and `slic worker` serves TCP only.

#![expect(
    clippy::expect_used,
    reason = "helper functions abort the test on a setup failure"
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_slic");

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slic-options-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `slic <args>`, asserting it fails; returns stderr.
fn slic_fails(dir: &Path, args: &[&str]) -> String {
    let output = Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("slic runs");
    assert!(
        !output.status.success(),
        "`slic {}` must fail:\nstdout: {}",
        args.join(" "),
        String::from_utf8_lossy(&output.stdout),
    );
    String::from_utf8(output.stderr).expect("utf8 stderr")
}

#[test]
fn deleted_run_options_get_the_unknown_key_and_unknown_flag_errors() {
    let dir = temp_dir("deleted");
    // Each deleted config key.  The strict key check names it, or its section when the
    // whole section is gone (`observability.diff`).
    for line in [
        "backend = \"farm\"",
        "observability.diff.wall_pct = 50.0",
        "observability.diff.counter_pct = 10.0",
        "observability.diff.hit_rate_drop_pct = 5.0",
        "farm.reconnect_attempts = 4",
        "farm.backoff_base_ms = 50",
        "farm.backoff_cap_ms = 2000",
        "farm.heartbeat = true",
        "farm.heartbeat_timeout_ms = 5000",
    ] {
        std::fs::write(dir.join("deleted.toml"), format!("{line}\n")).expect("config written");
        let stderr = slic_fails(&dir, &["characterize", "--config", "deleted.toml"]);
        let key = line.split(" = ").next().expect("a key = value line");
        let named: Vec<&str> = key.split('.').take(2).collect();
        assert!(
            stderr.contains(&format!("unknown config key `{}`", named.join("."))),
            "`{line}`: {stderr}"
        );
    }
    // Each deleted flag, at every entry point that took it.
    let profile_diff = ["profile", "--diff", "old.jsonl", "new.jsonl"];
    let history_diff = ["history", "runs.jsonl", "--diff"];
    let mut invocations = vec![
        (vec!["characterize", "--backend", "farm"], "--backend"),
        (vec!["learn", "--backend", "local"], "--backend"),
        (
            vec!["characterize", "--reconnect-attempts", "4"],
            "--reconnect-attempts",
        ),
    ];
    for (flag, value) in [
        ("--config", "run.toml"),
        ("--wall-pct", "50"),
        ("--counter-pct", "10"),
        ("--hit-rate-drop", "5"),
    ] {
        for entry in [&profile_diff[..], &history_diff[..]] {
            let mut args = entry.to_vec();
            args.extend([flag, value]);
            invocations.push((args, flag));
        }
    }
    for (args, flag) in invocations {
        let stderr = slic_fails(&dir, &args);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "`slic {}`: {stderr}",
            args.join(" ")
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flag_is_never_taken_as_another_flags_value() {
    let dir = temp_dir("flag-value");
    let stderr = slic_fails(&dir, &["characterize", "--out", "--simd"]);
    assert!(
        stderr.contains("flag `--out` is missing its value"),
        "{stderr}"
    );
    assert!(
        !dir.join("--simd").exists(),
        "no artifact may be written to a file named after a flag"
    );
    let stderr = slic_fails(&dir, &["history", "runs.jsonl", "--fingerprint", "--diff"]);
    assert!(
        stderr.contains("flag `--fingerprint` is missing its value"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn history_fingerprint_without_diff_is_a_usage_error_naming_diff() {
    let dir = temp_dir("fingerprint");
    let learn = Command::new(BIN)
        .args(["learn", "--ledger", "runs.jsonl", "--out", "history.json"])
        .current_dir(&dir)
        .output()
        .expect("slic runs");
    assert!(learn.status.success(), "{learn:?}");
    // `--fingerprint` only chooses the run `--diff` compares; alone it must not fall back
    // to listing the ledger.
    let output = Command::new(BIN)
        .args(["history", "runs.jsonl", "--fingerprint", "0123456789abcdef"])
        .current_dir(&dir)
        .output()
        .expect("slic runs");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(output.stdout.is_empty(), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("`--diff`"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_config_nested_past_the_json_depth_bound_is_an_error_not_a_crash() {
    let dir = temp_dir("deep");
    std::fs::write(dir.join("deep.json"), "[".repeat(100_000)).expect("config written");
    let output = Command::new(BIN)
        .args(["characterize", "--config", "deep.json"])
        .current_dir(&dir)
        .output()
        .expect("slic runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("recursion limit exceeded"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_worker_without_listen_is_an_error_naming_the_flag() {
    let dir = temp_dir("worker");
    let output = Command::new(BIN)
        .arg("worker")
        .current_dir(&dir)
        .stdin(Stdio::null())
        .output()
        .expect("slic runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    assert!(output.stdout.is_empty(), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--listen"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
