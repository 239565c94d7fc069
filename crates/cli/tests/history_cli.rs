//! `slic history --diff` as a determinism gate over real `slic` runs: a `learn` run and
//! a `characterize` run of one config share a fingerprint, so the diff pairs runs by kind
//! as well as by fingerprint; and a scalar run replaying a cache a `--simd` run wrote
//! pays its own simulations, so it writes the cold scalar run's bytes.

#![expect(
    clippy::expect_used,
    reason = "helper functions abort the test on a setup failure"
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_slic");

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slic-history-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `slic` with the whitespace-separated `args`.
fn run(dir: &Path, args: &str) -> Output {
    Command::new(BIN)
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("slic runs")
}

/// Runs `slic <args>`, asserting success; returns stdout.
fn slic(dir: &Path, args: &str) -> String {
    let output = run(dir, args);
    assert!(
        output.status.success(),
        "`slic {args}` failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8(output.stdout).expect("utf8 stdout")
}

/// Pins every ledger record's wall time under the diff gate's floor: these tests are
/// about which records pair and what the runs paid and wrote, and wall time on a loaded
/// test machine is noise.
fn pin_wall_times(ledger: &Path) {
    let parsed = slic_obs::ledger::load(ledger).expect("ledger readable");
    let lines: String = parsed
        .records
        .into_iter()
        .map(|mut record| {
            record.wall_ns = 1_000_000;
            record.to_line() + "\n"
        })
        .collect();
    std::fs::write(ledger, lines).expect("ledger rewritten");
}

#[test]
fn history_diff_pairs_runs_by_kind_as_well_as_fingerprint() {
    let dir = temp_dir("kinds");
    let learn = "learn --ledger runs.jsonl --out history.json";
    slic(&dir, learn);
    slic(
        &dir,
        "characterize --history history.json --ledger runs.jsonl --out run.json",
    );
    let ledger = dir.join("runs.jsonl");
    let records = slic_obs::ledger::load(&ledger)
        .expect("ledger readable")
        .records;
    assert_eq!(records[0].fingerprint, records[1].fingerprint);
    let fingerprint = records[0].fingerprint.clone();

    // One run of each kind: nothing to diff, and the error names the kind.
    let lone = run(&dir, "history runs.jsonl --diff");
    assert_eq!(lone.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&lone.stderr);
    assert!(stderr.contains("`characterize` run"), "{stderr}");

    slic(&dir, learn);
    pin_wall_times(&ledger);
    let diff = slic(&dir, "history runs.jsonl --diff");
    assert!(diff.contains("(learn vs learn)"), "{diff}");
    assert!(diff.contains("verdict: clean"), "{diff}");
    // `--fingerprint` picks that fingerprint's newest run and pairs by its kind too.
    let diff = slic(
        &dir,
        &format!("history runs.jsonl --diff --fingerprint {fingerprint}"),
    );
    assert!(diff.contains("(learn vs learn)"), "{diff}");
    let unknown = run(
        &dir,
        "history runs.jsonl --diff --fingerprint 0123456789abcdef",
    );
    assert_eq!(unknown.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_simd_run_never_answers_a_scalar_runs_cache_lookups() {
    let dir = temp_dir("cache-flavour");
    slic(&dir, "characterize --ledger l.jsonl --out cold.json");
    slic(&dir, "characterize --simd --cache c.jsonl --out simd.json");
    slic(
        &dir,
        "characterize --cache c.jsonl --ledger l.jsonl --out warm.json",
    );
    let ledger = slic_obs::ledger::load(&dir.join("l.jsonl")).expect("ledger readable");
    let [cold, warm] = &ledger.records[..] else {
        panic!("two scalar runs recorded");
    };
    assert!(cold.sims_paid > 0);
    assert_eq!(
        warm.sims_paid, cold.sims_paid,
        "the scalar run pays its own sims: SIMD records must not answer it"
    );
    let read = |name: &str| std::fs::read(dir.join(name)).expect("artifact written");
    assert_eq!(read("cold.json"), read("warm.json"), "scalar bytes");
    pin_wall_times(&dir.join("l.jsonl"));
    slic(&dir, "history l.jsonl --diff");

    // A second SIMD run replays its own records.
    slic(
        &dir,
        "characterize --simd --cache c.jsonl --ledger simd.jsonl --out simd-warm.json",
    );
    let replay = slic_obs::ledger::load(&dir.join("simd.jsonl")).expect("ledger readable");
    assert_eq!(replay.records[0].sims_paid, 0);
    assert_eq!(read("simd-warm.json"), read("simd.json"));

    std::fs::remove_dir_all(&dir).ok();
}
