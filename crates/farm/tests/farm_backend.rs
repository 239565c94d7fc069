//! Broker integration tests: real TCP transport against in-process worker serve loops,
//! including failover when a worker dies mid-run, local fallback when the whole fleet
//! is gone, and the spawn dial that reaches a spawned worker through its banner.  Equality is always asserted bitwise against the default local backend — the
//! farm must be a pure deployment change, never a numerical one.

#![expect(
    clippy::expect_used,
    reason = "helper functions abort the test on a setup failure"
)]

use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
use slic_device::{ProcessSample, TechnologyNode};
use slic_farm::wire::decode_message;
use slic_farm::{
    serve_connection, serve_listener, FarmBackend, FarmTuning, Message, ServeOutcome, WorkerOptions,
};
use slic_spice::{
    CharacterizationEngine, InMemorySimCache, InputPoint, LocalBackend, SimRequest,
    SimulationBackend, SimulationCache, TransientConfig,
};
use slic_units::{Farads, Seconds, Volts};
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Starts a worker serve loop on an ephemeral port; returns its address and join handle.
fn spawn_tcp_worker(name: &str, max_batches: Option<u64>) -> (String, JoinHandle<ServeOutcome>) {
    let (address, handle, _) = spawn_signalling_tcp_worker(WorkerOptions {
        name: name.to_string(),
        max_batches,
        ..WorkerOptions::default()
    });
    (address, handle)
}

/// Starts a serve loop running `options` on an ephemeral port; returns its address, its
/// join handle and a receiver that fires once the serve loop has returned.
fn spawn_signalling_tcp_worker(
    options: WorkerOptions,
) -> (String, JoinHandle<ServeOutcome>, Receiver<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let address = listener.local_addr().expect("bound address").to_string();
    let (returned, signal) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let outcome = serve_listener(&listener, &options).expect("serve loop io");
        let _ = returned.send(());
        outcome
    });
    (address, handle, signal)
}

/// A worker's line reader that holds the connection's first `batch` line until `gate`
/// fires (or its sender is dropped); every other line passes straight through.
struct GatedReader<R> {
    inner: R,
    line: Vec<u8>,
    consumed: usize,
    gate: Option<Receiver<()>>,
}

impl<R: BufRead> Read for GatedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for GatedReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.consumed == self.line.len() {
            self.line.clear();
            self.consumed = 0;
            self.inner.read_until(b'\n', &mut self.line)?;
            let is_batch = std::str::from_utf8(&self.line)
                .ok()
                .and_then(|line| decode_message(line.trim_end()).ok())
                .is_some_and(|message| matches!(message, Message::Batch { .. }));
            if is_batch {
                if let Some(gate) = self.gate.take() {
                    let _ = gate.recv();
                }
            }
        }
        Ok(&self.line[self.consumed..])
    }

    fn consume(&mut self, amount: usize) {
        self.consumed += amount;
    }
}

/// Starts a worker that serves one broker connection through [`serve_connection`],
/// reading it through a [`GatedReader`] on `gate`.
fn spawn_gated_tcp_worker(name: &str, gate: Receiver<()>) -> (String, JoinHandle<ServeOutcome>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let address = listener.local_addr().expect("bound address").to_string();
    let options = WorkerOptions {
        name: name.to_string(),
        ..WorkerOptions::default()
    };
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("the broker dials once");
        stream.set_nodelay(true).ok();
        let reader = GatedReader {
            inner: BufReader::new(stream.try_clone().expect("clone the stream")),
            line: Vec::new(),
            consumed: 0,
            gate: Some(gate),
        };
        serve_connection(reader, &stream, &mut 0, &options).expect("serve loop io")
    });
    (address, handle)
}

/// Millisecond-scale backoff so tests that exercise worker death do not pay the
/// production re-dial schedule against a listener that is gone for good.
fn fast_tuning() -> FarmTuning {
    FarmTuning {
        reconnect_attempts: 2,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        ..FarmTuning::default()
    }
}

fn engine() -> CharacterizationEngine {
    CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
        .expect("fast preset validates")
}

fn inv_fall() -> TimingArc {
    TimingArc::new(
        Cell::new(CellKind::Inv, DriveStrength::X1),
        0,
        Transition::Fall,
    )
}

/// Nominal-corner requests for an inverter fall arc in `tech` at every point of
/// [`grid`]`(n)` — one broker call's worth of lanes, built without an engine.
fn requests(tech: TechnologyNode, n: usize) -> Vec<SimRequest> {
    let tech = Arc::new(tech);
    let arc = inv_fall();
    grid(n)
        .into_iter()
        .map(|point| SimRequest {
            tech: tech.clone(),
            cell: arc.cell(),
            arc,
            point,
            seed: ProcessSample::nominal(),
            config: TransientConfig::fast(),
        })
        .collect()
}

fn grid(n: usize) -> Vec<InputPoint> {
    (0..n)
        .map(|i| {
            InputPoint::new(
                Seconds::from_picoseconds(1.0 + 0.37 * i as f64),
                Farads::from_femtofarads(0.5 + 0.11 * i as f64),
                Volts(0.7 + 0.003 * (i % 40) as f64),
            )
        })
        .collect()
}

#[test]
fn two_worker_farm_is_bitwise_identical_to_local_and_pays_each_key_once() {
    let (addr_a, handle_a) = spawn_tcp_worker("a", None);
    let (addr_b, handle_b) = spawn_tcp_worker("b", None);
    let farm = Arc::new(FarmBackend::connect(&[addr_a, addr_b]).expect("fleet connects"));
    assert_eq!(farm.live_workers(), 2);

    let cache = Arc::new(InMemorySimCache::new());
    let farmed = engine()
        .with_cache(cache.clone())
        .with_backend(farm.clone());
    let local = engine();
    let arc = inv_fall();
    let points = grid(24);

    let remote = farmed.sweep_nominal(&arc, &points);
    let reference = local.sweep_nominal(&arc, &points);
    assert_eq!(remote, reference, "farm lanes must be bitwise local lanes");
    assert_eq!(farmed.simulation_count(), 24);
    assert_eq!(cache.misses(), 24, "every unique coordinate paid once");

    // Warm replay: everything from the broker-side cache, the fleet is not consulted.
    let before = farm.stats();
    let replay = farmed.sweep_nominal(&arc, &points);
    assert_eq!(replay, reference);
    assert_eq!(farmed.simulation_count(), 24, "replay pays nothing");
    assert_eq!(farm.stats(), before, "replay dispatches nothing");
    assert!(before.lanes_remote >= 24, "the fleet solved the cold run");
    assert_eq!(before.lanes_local, 0, "no fallback was needed");

    // Orderly teardown: dropping the backend shuts both serve loops down.
    drop(farmed);
    drop(farm);
    assert_eq!(handle_a.join().expect("worker a"), ServeOutcome::Shutdown);
    assert_eq!(handle_b.join().expect("worker b"), ServeOutcome::Shutdown);
}

#[test]
fn killing_a_worker_mid_run_fails_over_and_preserves_bitwise_results() {
    // Worker `b` dies abruptly after two batches — the deterministic stand-in for
    // `kill -9` mid-batch: it reads its third batch and drops the connection without
    // replying.  Worker `a` does not read its first batch until `b`'s serve loop has
    // returned, so `b` alone drains the queue's six jobs until it dies on its third;
    // with two free workers `a` could take enough jobs to leave `b` alive, and the join
    // below would never return.
    let (addr_b, handle_b, b_returned) = spawn_signalling_tcp_worker(WorkerOptions {
        name: "b".to_string(),
        max_batches: Some(2),
        ..WorkerOptions::default()
    });
    let (addr_a, handle_a) = spawn_gated_tcp_worker("a", b_returned);
    let farm = Arc::new(
        FarmBackend::with_tuning(&[addr_a, addr_b], 0, None, fast_tuning())
            .expect("fleet connects"),
    );

    let requests = requests(TechnologyNode::n14_finfet(), 96);

    let remote = farm.solve_batch(&requests);
    let reference = LocalBackend::new().solve_batch(&requests);
    assert_eq!(
        remote, reference,
        "a mid-run worker death must not change a single bit"
    );
    // Checked before joining `b`: a `b` that never died fails here instead of hanging.
    assert_eq!(farm.live_workers(), 1, "the dead worker is tracked as dead");
    assert_eq!(handle_b.join().expect("worker b"), ServeOutcome::BatchLimit);
    let stats = farm.stats();
    assert!(stats.failovers >= 1, "the orphaned job was failed over");
    assert_eq!(
        stats.lanes_remote + stats.lanes_local,
        96,
        "every lane was solved exactly once somewhere"
    );

    drop(farm);
    assert_eq!(handle_a.join().expect("worker a"), ServeOutcome::Shutdown);
}

#[test]
fn a_fully_dead_fleet_falls_back_to_local_solving() {
    // The only worker dies on its very first batch.
    let (addr, handle) = spawn_tcp_worker("doomed", Some(0));
    let farm =
        Arc::new(FarmBackend::with_tuning(&[addr], 0, None, fast_tuning()).expect("connects"));
    let requests = requests(TechnologyNode::n14_finfet(), 8);
    let remote = farm.solve_batch(&requests);
    let reference = LocalBackend::new().solve_batch(&requests);
    assert_eq!(remote, reference);
    assert_eq!(farm.live_workers(), 0);
    let stats = farm.stats();
    assert_eq!(stats.lanes_remote, 0);
    assert_eq!(stats.lanes_local, 8, "the broker solved everything itself");
    assert_eq!(handle.join().expect("worker"), ServeOutcome::BatchLimit);
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test times how long the call and the teardown wait"
)]
fn a_redial_campaign_does_not_stall_the_call_in_flight() {
    use std::time::{Duration, Instant};
    // The only worker dies on its first batch, and each re-dial waits 0.5-1 s first: a
    // call that waited for the campaign would take 2-4 s to return lanes the local
    // fallback solves in milliseconds.
    let (addr, handle) = spawn_tcp_worker("doomed", Some(0));
    let tuning = FarmTuning {
        reconnect_attempts: 4,
        backoff_base_ms: 1_000,
        backoff_cap_ms: 1_000,
        ..FarmTuning::default()
    };
    let farm = FarmBackend::with_tuning(&[addr], 0, None, tuning).expect("connects");
    let requests = requests(TechnologyNode::n14_finfet(), 8);
    let started = Instant::now();
    let remote = farm.solve_batch(&requests);
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "the call waited {waited:?} for a re-dial campaign"
    );
    assert_eq!(remote, LocalBackend::new().solve_batch(&requests));
    assert_eq!(farm.live_workers(), 0, "the dead worker is marked down");
    let stats = farm.stats();
    assert_eq!(stats.lanes_local, 8, "{stats:?}");
    assert_eq!(stats.lanes_remote, 0, "{stats:?}");
    assert_eq!(handle.join().expect("worker"), ServeOutcome::BatchLimit);
    // The dispatcher is still sleeping through its schedule; closing the backend wakes it.
    let started = Instant::now();
    drop(farm);
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "dropping the backend waited {waited:?} for the backoff schedule"
    );
}

#[test]
fn twenty_calls_to_a_two_worker_farm_run_on_two_dispatcher_threads() {
    use slic_obs::{MetricsRegistry, Observability, TraceRecorder};
    use std::collections::BTreeSet;
    let (addr_a, handle_a) = spawn_tcp_worker("a", None);
    let (addr_b, handle_b) = spawn_tcp_worker("b", None);
    let path = std::env::temp_dir().join(format!(
        "slic-farm-dispatcher-threads-{}.jsonl",
        std::process::id()
    ));
    let trace = TraceRecorder::to_file(&path).expect("trace file");
    let metrics = MetricsRegistry::new();
    // Attached after the fleet connects, as the CLI and perfbench do.
    let farm = FarmBackend::connect(&[addr_a.clone(), addr_b.clone()])
        .expect("fleet connects")
        .with_observability(Observability {
            trace: trace.clone(),
            metrics: metrics.clone(),
            ..Observability::default()
        });
    let requests = requests(TechnologyNode::n14_finfet(), 32);
    let reference = LocalBackend::new().solve_batch(&requests);
    for _ in 0..20 {
        assert_eq!(farm.solve_batch(&requests), reference);
    }
    let stats = farm.stats();
    drop(farm);
    assert_eq!(handle_a.join().expect("worker a"), ServeOutcome::Shutdown);
    assert_eq!(handle_b.join().expect("worker b"), ServeOutcome::Shutdown);
    trace.flush();

    let parsed = slic_obs::profile::load(&path).expect("trace reads back");
    std::fs::remove_file(&path).ok();
    assert_eq!(parsed.dropped, 0);
    let roundtrips: Vec<_> = parsed
        .records
        .iter()
        .filter(|record| record.name == "farm.roundtrip")
        .collect();
    assert_eq!(roundtrips.len() as u64, stats.jobs_completed);
    assert_eq!(stats.jobs_completed, 20 * 4, "four 8-lane jobs a call");
    let threads: BTreeSet<u64> = roundtrips.iter().map(|record| record.thread).collect();
    assert!(
        threads.len() <= 2,
        "round trips ran on {} threads, not one per worker",
        threads.len()
    );
    // The per-worker counters land in the bundle attached after the fleet connected.
    let counters = metrics.snapshot().counters;
    let counter = |name: String| {
        counters
            .iter()
            .find(|(key, _)| *key == name)
            .map_or(0, |(_, value)| *value)
    };
    let jobs = counter(format!("farm.worker.{addr_a}.jobs"))
        + counter(format!("farm.worker.{addr_b}.jobs"));
    assert_eq!(jobs, stats.jobs_completed);
    assert!(counter(format!("farm.worker.{addr_a}.bytes_tx")) > 0);
    assert!(counter(format!("farm.worker.{addr_b}.bytes_rx")) > 0);
}

#[test]
fn concurrent_callers_share_one_queue_through_a_worker_death() {
    // Four callers at once on one broker, as the engine's parallel arcs are.  Worker `b`
    // dies on its third batch; worker `a` holds its first batch until then, so `b` takes
    // jobs from every caller until it dies, and `a` finishes the rest.
    let (addr_b, handle_b, b_returned) = spawn_signalling_tcp_worker(WorkerOptions {
        name: "b".to_string(),
        max_batches: Some(2),
        ..WorkerOptions::default()
    });
    let (addr_a, handle_a) = spawn_gated_tcp_worker("a", b_returned);
    let farm = Arc::new(
        FarmBackend::with_tuning(&[addr_a, addr_b], 0, None, fast_tuning())
            .expect("fleet connects"),
    );
    let sizes = [24, 40, 56, 64];
    std::thread::scope(|scope| {
        for &size in &sizes {
            let farm = &farm;
            scope.spawn(move || {
                let requests = requests(TechnologyNode::n14_finfet(), size);
                assert_eq!(
                    farm.solve_batch(&requests),
                    LocalBackend::new().solve_batch(&requests),
                    "a {size}-lane call must be bitwise local"
                );
            });
        }
    });
    let stats = farm.stats();
    assert_eq!(
        stats.lanes_remote + stats.lanes_local,
        sizes.iter().sum::<usize>() as u64,
        "every lane was solved exactly once somewhere: {stats:?}"
    );
    assert!(stats.failovers >= 1, "{stats:?}");
    assert_eq!(farm.live_workers(), 1);
    assert_eq!(handle_b.join().expect("worker b"), ServeOutcome::BatchLimit);
    drop(farm);
    assert_eq!(handle_a.join().expect("worker a"), ServeOutcome::Shutdown);
}

#[test]
fn a_custom_technology_outside_the_catalogue_degrades_to_local_solving() {
    use slic_device::TechnologyKind;
    // Same name as a catalogue node but a different node value: the wire must refuse to
    // send it (the worker would rebuild a different node by name), and the broker's
    // local fallback must solve it instead — matching what LocalBackend alone would do.
    let custom = TechnologyNode::n14_finfet().with_kind(TechnologyKind::Target);
    let (addr, handle) = spawn_tcp_worker("w", None);
    let farm = Arc::new(FarmBackend::connect(&[addr]).expect("connects"));
    let requests = requests(custom, 6);
    let remote = farm.solve_batch(&requests);
    let reference = LocalBackend::new().solve_batch(&requests);
    assert_eq!(remote, reference, "fallback must match the local backend");
    let stats = farm.stats();
    assert_eq!(stats.lanes_remote, 0, "nothing travelled");
    assert_eq!(stats.lanes_local, 6, "every lane was solved broker-side");
    assert_eq!(farm.live_workers(), 1, "the worker is healthy, just unused");
    drop(farm);
    assert_eq!(handle.join().expect("worker"), ServeOutcome::Shutdown);
}

#[test]
fn a_custom_node_named_like_a_catalogue_node_stays_local_while_the_rest_travel() {
    use slic_device::TechnologyKind;
    // One call mixing catalogue `n14` lanes with lanes of a custom node of the same name:
    // the catalogue check compares the node itself, never just its name, so only the
    // custom lanes are held back for the broker's local fallback.
    let custom = TechnologyNode::n14_finfet().with_kind(TechnologyKind::Target);
    assert_eq!(custom.name(), TechnologyNode::n14_finfet().name());
    let (addr, handle) = spawn_tcp_worker("w", None);
    let farm = Arc::new(FarmBackend::connect(&[addr]).expect("connects"));
    let mut mixed = requests(TechnologyNode::n14_finfet(), 10);
    mixed.extend(requests(custom, 6));
    mixed.extend(requests(TechnologyNode::n14_finfet(), 4));
    let remote = farm.solve_batch(&mixed);
    let reference = LocalBackend::new().solve_batch(&mixed);
    assert_eq!(remote, reference, "every lane matches the local backend");
    let stats = farm.stats();
    assert_eq!(stats.lanes_remote, 14, "the catalogue lanes travelled");
    assert_eq!(
        stats.lanes_local, 6,
        "the custom lanes were solved broker-side"
    );
    drop(farm);
    assert_eq!(handle.join().expect("worker"), ServeOutcome::Shutdown);
}

#[test]
fn a_lane_whose_cell_is_not_its_arcs_is_the_same_lane_error_on_both_backends() {
    // The middle lane names a NAND2_X1 under an INV_X1 arc.  The wire sends the arc only,
    // so the farm must not let a worker solve the inverter while the local backend would
    // answer otherwise: both refuse the lane, and both solve its neighbours.
    let mut lanes = requests(TechnologyNode::n14_finfet(), 3);
    lanes[1].cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
    let (addr, handle) = spawn_tcp_worker("w", None);
    let farm = Arc::new(FarmBackend::connect(&[addr]).expect("connects"));
    let local = LocalBackend::new().solve_batch(&lanes);
    let remote = farm.solve_batch(&lanes);
    assert_eq!(
        local[1],
        Err("request cell NAND2_X1 is not the cell of arc INV_X1/A0/FALL".to_string())
    );
    assert_eq!(
        remote[1], local[1],
        "the farm refuses the lane as the local backend does"
    );
    for lane in [0, 2] {
        assert!(local[lane].is_ok(), "lane {lane}: {:?}", local[lane]);
        assert_eq!(
            remote[lane], local[lane],
            "lane {lane} is solved bitwise alike"
        );
    }
    let stats = farm.stats();
    assert_eq!(stats.lanes_remote, 2, "the good lanes travelled");
    assert_eq!(
        stats.lanes_local, 1,
        "the refused lane never left the broker"
    );
    drop(farm);
    assert_eq!(handle.join().expect("worker"), ServeOutcome::Shutdown);
}

#[test]
fn incompatible_handshakes_are_rejected_at_connect_time() {
    // A fake "worker" that speaks a future kernel version.
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let address = listener.local_addr().expect("bound").to_string();
    let fake = std::thread::spawn(move || {
        use std::io::Write;
        let (mut stream, _) = listener.accept().expect("accept");
        let protocol = slic_farm::PROTOCOL_VERSION;
        let kernel = slic_spice::KERNEL_VERSION + 1;
        writeln!(
            stream,
            "{{\"type\":\"hello\",\"protocol\":{protocol},\"kernel\":\"{kernel:x}\",\"worker\":\"future\"}}"
        )
        .expect("write hello");
    });
    let err = FarmBackend::connect(&[address]).expect_err("mixed kernels must be rejected");
    assert!(err.to_string().contains("kernel"), "{err}");
    fake.join().expect("fake worker");

    let err = FarmBackend::with_tuning(&[], 0, None, FarmTuning::default())
        .expect_err("zero workers is not a farm");
    assert!(err.to_string().contains("at least one worker"), "{err}");
}

/// The spawn dial: `--spawn-workers` runs `<program> worker --listen 127.0.0.1:0` and
/// dials the address its banner names.  Here the program is a `/bin/sh` stand-in that
/// records its pid, prints one line and then sleeps as the same process, and the worker
/// it names is an in-process serve loop.
#[cfg(unix)]
mod spawn_dial {
    use super::*;
    use slic_farm::{FarmError, FaultPlan, WORKER_BANNER};
    use std::path::PathBuf;
    use std::sync::{Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// Serializes these tests.  A script written while another test's spawn sits between
    /// fork and exec is inherited open for writing by that child, and executing it then
    /// fails with "Text file busy".
    static STAND_INS: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        STAND_INS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// A stand-in worker program in its own temporary directory.
    struct StandIn {
        dir: PathBuf,
        program: PathBuf,
    }

    impl StandIn {
        /// Writes a program that appends its pid to `pids`, prints `line` and then
        /// sleeps for `linger_s` seconds.
        fn new(name: &str, line: &str, linger_s: u32) -> Self {
            use std::os::unix::fs::PermissionsExt;
            let dir = std::env::temp_dir()
                .join(format!("slic-farm-stand-in-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("temp dir");
            let program = dir.join("stand-in");
            let script = format!(
                "#!/bin/sh\necho $$ >> '{}'\necho '{line}'\nexec sleep {linger_s}\n",
                dir.join("pids").display()
            );
            std::fs::write(&program, script).expect("stand-in written");
            std::fs::set_permissions(&program, std::fs::Permissions::from_mode(0o755))
                .expect("stand-in made executable");
            Self { dir, program }
        }

        /// The pids of every stand-in started so far, in start order.
        fn pids(&self) -> Vec<u32> {
            std::fs::read_to_string(self.dir.join("pids"))
                .unwrap_or_default()
                .lines()
                .map(|pid| pid.parse().expect("a pid"))
                .collect()
        }
    }

    impl Drop for StandIn {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    /// Whether `pid` is still in the process table, running or as an unreaped zombie.
    fn exists(pid: u32) -> bool {
        std::process::Command::new("/bin/sh")
            .args(["-c", &format!("kill -0 {pid} 2>/dev/null")])
            .status()
            .expect("sh runs")
            .success()
    }

    #[test]
    fn a_spawned_worker_is_dialed_at_its_banner_address_and_reaped_after_shutdown() {
        let _serial = serial();
        let (address, handle) = spawn_tcp_worker("behind-the-banner", None);
        let stand_in = StandIn::new("banner", &format!("{WORKER_BANNER}{address}"), 1);
        let farm = FarmBackend::with_tuning(&[], 1, Some(&stand_in.program), fast_tuning())
            .expect("the banner's address is dialed");
        let requests = requests(TechnologyNode::n14_finfet(), 64);
        assert_eq!(
            farm.solve_batch(&requests),
            LocalBackend::new().solve_batch(&requests),
            "spawned lanes must be bitwise local lanes"
        );
        assert_eq!(farm.stats().lanes_remote, 64);
        drop(farm);
        assert_eq!(handle.join().expect("worker"), ServeOutcome::Shutdown);
        let pids = stand_in.pids();
        assert_eq!(pids.len(), 1, "one spawn: {pids:?}");
        assert!(
            !exists(pids[0]),
            "the stand-in was waited for, not left a zombie"
        );
    }

    #[test]
    fn a_redial_of_a_spawned_slot_spawns_a_fresh_child_and_reaps_the_old_one() {
        let _serial = serial();
        // The fourth message of a connection (its third batch) dies unanswered.
        let (address, handle, _) = spawn_signalling_tcp_worker(WorkerOptions {
            name: "behind-the-banner".to_string(),
            fault: Some(FaultPlan {
                drop_after_messages: Some(3),
                ..FaultPlan::default()
            }),
            ..WorkerOptions::default()
        });
        let stand_in = StandIn::new("redial", &format!("{WORKER_BANNER}{address}"), 1);
        let tuning = FarmTuning {
            retry_budget: Some(2),
            ..fast_tuning()
        };
        let farm = FarmBackend::with_tuning(&[], 1, Some(&stand_in.program), tuning)
            .expect("the banner's address is dialed");
        let requests = requests(TechnologyNode::n14_finfet(), 64);
        assert_eq!(
            farm.solve_batch(&requests),
            LocalBackend::new().solve_batch(&requests),
            "a re-dialed spawned worker must not change a bit"
        );
        let stats = farm.stats();
        assert!(stats.reconnects >= 1, "{stats:?}");
        assert_eq!(stats.lanes_remote, 64, "{stats:?}");
        let pids = stand_in.pids();
        assert_eq!(
            pids.len(),
            2,
            "the re-dial spawned a second child: {pids:?}"
        );
        assert!(
            !exists(pids[0]),
            "the dropped connection killed and reaped its child"
        );
        drop(farm);
        assert_eq!(handle.join().expect("worker"), ServeOutcome::Shutdown);
        assert!(
            !exists(pids[1]),
            "the second child was reaped after shutdown"
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test times how long the broker waits"
    )]
    fn a_spawned_child_without_a_banner_is_a_spawn_error_and_is_reaped() {
        let _serial = serial();
        let stand_in = StandIn::new("silent", "not a banner", 30);
        let started = Instant::now();
        let err = FarmBackend::with_tuning(&[], 1, Some(&stand_in.program), fast_tuning())
            .expect_err("no banner, no worker");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the broker waited for the sleeping child"
        );
        assert!(matches!(err, FarmError::Spawn(_)), "{err}");
        assert!(err.to_string().contains("spawned-0"), "{err}");
        let pids = stand_in.pids();
        assert_eq!(pids.len(), 1, "{pids:?}");
        assert!(!exists(pids[0]), "the child was killed and reaped");
    }
}
