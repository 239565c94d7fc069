//! Broker integration tests: real TCP transport against in-process worker serve loops,
//! including failover when a worker dies mid-run and local fallback when the whole fleet
//! is gone.  Equality is always asserted bitwise against the default local backend — the
//! farm must be a pure deployment change, never a numerical one.

use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
use slic_device::{ProcessSample, TechnologyNode};
use slic_farm::{serve_listener, FarmBackend, FarmTuning, FaultPlan, ServeOutcome, WorkerOptions};
use slic_spice::{
    CharacterizationEngine, InMemorySimCache, InputPoint, LocalBackend, SimRequest,
    SimulationBackend, SimulationCache, TransientConfig,
};
use slic_units::{Farads, Seconds, Volts};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Starts a worker serve loop on an ephemeral port; returns its address and join handle.
fn spawn_tcp_worker(name: &str, max_batches: Option<u64>) -> (String, JoinHandle<ServeOutcome>) {
    spawn_tcp_worker_with(WorkerOptions {
        name: name.to_string(),
        max_batches,
        ..WorkerOptions::default()
    })
}

fn spawn_tcp_worker_with(options: WorkerOptions) -> (String, JoinHandle<ServeOutcome>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let address = listener.local_addr().expect("bound address").to_string();
    let handle =
        std::thread::spawn(move || serve_listener(&listener, &options).expect("serve loop io"));
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

fn inv_fall() -> (Cell, TimingArc) {
    let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
    (cell, TimingArc::new(cell, 0, Transition::Fall))
}

/// Nominal-corner requests for an inverter fall arc in `tech` at every point of
/// [`grid`]`(n)` — one broker call's worth of lanes, built without an engine.
fn requests(tech: TechnologyNode, n: usize) -> Vec<SimRequest> {
    let tech = Arc::new(tech);
    let (cell, arc) = inv_fall();
    grid(n)
        .into_iter()
        .map(|point| SimRequest {
            tech: tech.clone(),
            cell,
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
    let (cell, arc) = inv_fall();
    let points = grid(24);

    let remote = farmed.sweep_nominal(cell, &arc, &points);
    let reference = local.sweep_nominal(cell, &arc, &points);
    assert_eq!(remote, reference, "farm lanes must be bitwise local lanes");
    assert_eq!(farmed.simulation_count(), 24);
    assert_eq!(cache.misses(), 24, "every unique coordinate paid once");

    // Warm replay: everything from the broker-side cache, the fleet is not consulted.
    let before = farm.stats();
    let replay = farmed.sweep_nominal(cell, &arc, &points);
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
    // replying.  Worker `a` holds each batch for 100 ms before answering, so `b` drains
    // the queue and is handed that third batch; with two equally fast workers `a` could
    // take enough jobs to leave `b` alive, and the join below would never return.
    let (addr_a, handle_a) = spawn_tcp_worker_with(WorkerOptions {
        name: "a".to_string(),
        fault: Some(FaultPlan {
            delay_ms: Some(100),
            ..FaultPlan::default()
        }),
        ..WorkerOptions::default()
    });
    let (addr_b, handle_b) = spawn_tcp_worker("b", Some(2));
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

    let err = FarmBackend::new(&[], 0, None).expect_err("zero workers is not a farm");
    assert!(err.to_string().contains("at least one worker"), "{err}");
}
