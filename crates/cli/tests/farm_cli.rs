//! End-to-end farm tests against the real `slic` binary: spawned-worker fleets, TCP
//! fleets, a worker killed mid-run, cache compaction — always asserting the farm artifact
//! is byte-identical to the single-process artifact of the same configuration.  What a
//! run paid is read from its `--ledger` record; artifacts hold results only.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "helper functions abort the test on a setup failure"
)]

use slic_obs::RunRecord;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_slic");

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slic-farm-cli-{}-{name}", std::process::id()));
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

/// Starts `slic worker --listen 127.0.0.1:0`, returning the child and its bound address.
fn start_tcp_worker(max_batches: Option<u64>) -> (Child, String) {
    let mut command = Command::new(BIN);
    command
        .args(["worker", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(limit) = max_batches {
        command.args(["--max-batches", &limit.to_string()]);
    }
    let mut child = command.spawn().expect("worker spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("worker announces its address");
    let address = line
        .trim()
        .strip_prefix(slic_farm::WORKER_BANNER)
        .unwrap_or_else(|| panic!("unexpected worker banner: {line:?}"))
        .to_string();
    (child, address)
}

/// The newest record of the run ledger at `path`.
fn last_run(path: &Path) -> RunRecord {
    let ledger = slic_obs::ledger::load(path).expect("ledger readable");
    assert_eq!(ledger.dropped, 0, "the ledger must parse cleanly");
    ledger.records.last().cloned().expect("a run was recorded")
}

/// A counter of a ledger record's metrics snapshot.
fn counter(record: &RunRecord, name: &str) -> u64 {
    record
        .counter(name)
        .unwrap_or_else(|| panic!("ledger counter `{name}` missing"))
}

#[test]
fn spawned_farm_artifact_is_byte_identical_and_warm_rerun_is_free() {
    let dir = temp_dir("spawn");
    slic(&dir, &["learn", "--out", "history.json"]);

    // Reference: single-process run against its own fresh disk cache.
    slic(
        &dir,
        &[
            "characterize",
            "--history",
            "history.json",
            "--cache",
            "local-cache.jsonl",
            "--out",
            "run-local.json",
        ],
    );
    // Farm: two spawned subprocess workers, separate fresh cache.
    let stdout = slic(
        &dir,
        &[
            "characterize",
            "--history",
            "history.json",
            "--spawn-workers",
            "2",
            "--cache",
            "farm-cache.jsonl",
            "--ledger",
            "runs.jsonl",
            "--out",
            "run-farm.json",
        ],
    );
    assert!(
        stdout.contains("farm: 2 worker(s) connected"),
        "farm banner missing:\n{stdout}"
    );

    let local = std::fs::read(dir.join("run-local.json")).expect("local artifact");
    let farm = std::fs::read(dir.join("run-farm.json")).expect("farm artifact");
    assert_eq!(
        local, farm,
        "a 2-worker farm run must be byte-identical to the local run"
    );
    let fresh = last_run(&dir.join("runs.jsonl"));
    assert!(fresh.sims_paid > 0);
    assert_eq!(
        fresh.sims_paid,
        counter(&fresh, "cache.misses"),
        "each unique coordinate was paid exactly once across the farm"
    );

    // Warm rerun against the shared disk cache: zero simulations, zero misses.
    slic(
        &dir,
        &[
            "characterize",
            "--history",
            "history.json",
            "--spawn-workers",
            "2",
            "--cache",
            "farm-cache.jsonl",
            "--ledger",
            "runs.jsonl",
            "--out",
            "run-farm-warm.json",
        ],
    );
    let warm = last_run(&dir.join("runs.jsonl"));
    assert_eq!(warm.sims_paid, 0);
    assert_eq!(counter(&warm, "cache.misses"), 0);
    // The warm run paid nothing, yet wrote the cold run's bytes, so the ledger's
    // regression gate sees no determinism break between the two.
    let warm_bytes = std::fs::read(dir.join("run-farm-warm.json")).expect("warm artifact");
    assert_eq!(
        warm_bytes, farm,
        "a warm rerun must be byte-identical to the cold run"
    );
    assert_eq!(warm.artifact_hash, fresh.artifact_hash);
    slic(&dir, &["history", "runs.jsonl", "--diff"]);

    std::fs::remove_dir_all(&dir).ok();
}

/// State letter and parent pid of process `pid`, from `/proc/<pid>/stat`; `None` once
/// the process is gone.
#[cfg(target_os = "linux")]
fn proc_state(pid: u32) -> Option<(char, u32)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // `pid (comm) state ppid ...`, where comm may hold spaces and parentheses.
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace();
    let state = fields.next()?.chars().next()?;
    let ppid = fields.next()?.parse().ok()?;
    Some((state, ppid))
}

#[cfg(target_os = "linux")]
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a wall-clock deadline bounds the wait for the orphan"
)]
fn a_spawned_worker_exits_when_its_broker_is_killed_outright() {
    use std::time::{Duration, Instant};
    let dir = temp_dir("broker-killed");
    slic(&dir, &["learn", "--out", "history.json"]);
    // A run that lasts seconds, so the broker is killed mid-run, its worker connected.
    let mut broker = Command::new(BIN)
        .args([
            "characterize",
            "--history",
            "history.json",
            "--library",
            "standard",
            "--profile",
            "accurate",
            "--variation",
            "--spawn-workers",
            "1",
            "--out",
            "run.json",
        ])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("broker starts");
    let mut stdout = BufReader::new(broker.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    while !line.starts_with("farm: 1 worker(s) connected") {
        line.clear();
        let read = stdout.read_line(&mut line).expect("broker stdout");
        assert!(read > 0, "the broker ended before its worker connected");
    }
    let workers: Vec<u32> = std::fs::read_dir("/proc")
        .expect("/proc lists processes")
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .filter(|&pid| proc_state(pid).is_some_and(|(_, ppid)| ppid == broker.id()))
        .collect();
    assert_eq!(workers.len(), 1, "one spawned worker: {workers:?}");

    broker.kill().expect("SIGKILL the broker");
    broker.wait().expect("broker reaped");
    // The orphan is reparented; whether its new parent reaps it or not, a zombie has
    // exited.
    let worker = workers[0];
    let deadline = Instant::now() + Duration::from_secs(10);
    while proc_state(worker).is_some_and(|(state, _)| state != 'Z') {
        if Instant::now() >= deadline {
            let _ = Command::new("kill").arg(worker.to_string()).status();
            panic!("spawned worker {worker} outlived its killed broker");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killing_a_tcp_worker_mid_run_fails_over_with_an_identical_artifact() {
    let dir = temp_dir("failover");
    slic(&dir, &["learn", "--out", "history.json"]);
    slic(
        &dir,
        &[
            "characterize",
            "--history",
            "history.json",
            "--out",
            "run-local.json",
        ],
    );

    let (mut survivor, survivor_addr) = start_tcp_worker(None);
    // The doomed worker dies abruptly on its second batch — a deterministic stand-in for
    // `kill -9` mid-batch: the batch is read but never answered.
    let (mut doomed, doomed_addr) = start_tcp_worker(Some(1));

    let stdout = slic(
        &dir,
        &[
            "characterize",
            "--history",
            "history.json",
            "--workers",
            &format!("{survivor_addr},{doomed_addr}"),
            "--out",
            "run-farm.json",
        ],
    );
    assert!(
        stdout.contains("failover") || stdout.contains("workers live"),
        "farm summary missing:\n{stdout}"
    );

    let doomed_status = doomed.wait().expect("doomed worker exits");
    assert!(
        !doomed_status.success(),
        "the batch-limited worker must die nonzero mid-run"
    );

    let local = std::fs::read(dir.join("run-local.json")).expect("local artifact");
    let farm = std::fs::read(dir.join("run-farm.json")).expect("farm artifact");
    assert_eq!(
        local, farm,
        "losing a worker mid-run must not change a byte of the artifact"
    );

    survivor.kill().ok();
    survivor.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_labels_shard_artifacts_as_partial_and_compact_dedups_the_cache() {
    let dir = temp_dir("shard-report");
    slic(&dir, &["learn", "--out", "history.json"]);
    // Two shards of one plan against one shared disk cache.
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
                "--cache",
                "cache.jsonl",
                "--out",
                &out,
            ],
        );
    }

    // The satellite bugfix: a shard artifact's report must be labelled partial.
    let report = slic(&dir, &["report", "--run", "run-1-2.json"]);
    assert!(
        report.contains("PARTIAL SHARD ARTIFACT"),
        "shard report must carry the partial label:\n{report}"
    );
    let merged = slic(
        &dir,
        &[
            "merge",
            "--inputs",
            "run-1-2.json,run-2-2.json",
            "--out",
            "merged.json",
        ],
    );
    assert!(merged.contains("merged 2 shards"));
    let full_report = slic(&dir, &["report", "--run", "merged.json"]);
    assert!(
        !full_report.contains("PARTIAL"),
        "a complete artifact must not be labelled partial:\n{full_report}"
    );

    // Compact the shared cache, then prove the snapshot still answers everything: a
    // replay of shard 2 pays zero simulations.
    let compact = slic(&dir, &["cache", "compact", "--cache", "cache.jsonl"]);
    assert!(compact.contains("compacted"), "{compact}");
    slic(
        &dir,
        &[
            "characterize",
            "--history",
            "history.json",
            "--shard",
            "2/2",
            "--cache",
            "cache.jsonl",
            "--ledger",
            "runs.jsonl",
            "--out",
            "run-replay.json",
        ],
    );
    let replay = last_run(&dir.join("runs.jsonl"));
    assert_eq!(
        replay.sims_paid, 0,
        "the compacted cache must answer every coordinate of the replay"
    );
    assert_eq!(counter(&replay, "cache.misses"), 0);

    std::fs::remove_dir_all(&dir).ok();
}
