//! The broker side of the farm: [`FarmBackend`], a [`SimulationBackend`] that fans
//! batches out to a fleet of workers.
//!
//! Dispatch runs on **one long-lived dispatcher thread per worker**, started when the
//! fleet connects.  Each dispatcher owns its worker's connection, so no lock is ever
//! held across a network round trip.  Every `solve_batch` call cuts its lanes into jobs
//! on one queue that all calls feed, and waits for its own jobs only; a dispatcher takes
//! the next job whenever its worker is free, so a fast worker simply drains more of the
//! queue.  When a call's jobs are done, one call to the local fallback solves every lane
//! that no worker answered.
//!
//! Failure handling is a **degradation ladder**, with every rung accounted for in
//! [`FarmStats`]:
//!
//! 1. **Heartbeats** — a dispatcher pings its worker (`ping`/`pong` under a short
//!    deadline) before its first job after the fleet connects and before the first job
//!    it takes after waiting on an empty queue; a re-dial's fresh handshake stands in for
//!    a ping.  It pings while it holds no job, so a half-open connection (host vanished,
//!    NAT state expired) costs no job an attempt and is caught in one heartbeat deadline
//!    instead of the 60 s batch deadline.  The call whose job is next in the queue waits
//!    for that answer.  A missed heartbeat drops the connection (`heartbeats_missed`).
//! 2. **Failover** — a job whose round trip fails goes back on the queue (`failovers`,
//!    the per-job retry count) once its worker is marked down, and another worker picks
//!    it up.
//! 3. **Reconnection** — a dead worker is no longer dead forever: its dispatcher re-dials
//!    it on its own thread, on a seeded, deterministic exponential-backoff-with-jitter
//!    schedule ([`BackoffPolicy`]), and re-admits it after a fresh
//!    [`Hello`](crate::wire::Hello) handshake (`reconnects`).  Calls do not wait on a
//!    re-dial while another worker is live.  When every worker goes down under a call
//!    whose jobs are still queued, the call waits for the campaigns, so a flapping fleet
//!    still finishes remotely, unless one of its jobs has already exhausted its retry
//!    budget.  A worker whose whole re-dial budget fails is retired for the rest of the
//!    run.
//! 4. **Local fallback** — a job that exhausts its retry budget, or that no worker is
//!    left to take, is solved in-process by a [`LocalBackend`] (`degraded_jobs`,
//!    `lanes_local`), and so is a call made while no worker is live.  A farm run
//!    therefore *completes* under any failure pattern short of the broker itself dying,
//!    and because every backend runs the same kernel (enforced by the handshake), the
//!    results are bitwise identical no matter which worker — or the broker itself —
//!    solved each lane.
//!
//! Every worker is reached over TCP.  A spawned worker is a `<program> worker --listen
//! 127.0.0.1:0 --spawned` child whose banner names its port; the broker dials that port
//! like any `--workers` address, so one set of socket deadlines and heartbeats covers the
//! fleet.  The connection owns the child: dropping it kills and reaps the process.  The
//! broker also holds the write end of the child's stdin, which the kernel closes however
//! the broker ends, and `--spawned` makes the worker exit at that EOF, so a spawned
//! worker never outlives its broker, even one killed outright.  Dropping the backend
//! sends `shutdown` to every live worker, reaps spawned children and joins the
//! dispatchers; one sleeping between re-dials wakes at once and dials one last time,
//! so a worker that came back still hears `shutdown`.
//!
//! All resilience timing (backoff delays, heartbeat deadlines) is seeded or constant and
//! stays strictly on the *scheduling* side: it decides when and where a lane is solved,
//! never what the solution is, so farm artifacts remain byte-identical to local ones
//! under any injected fault — the invariant the chaos suite and CI `cmp` gates pin.
//!
//! The broker keeps the engine-side policy untouched: counting and caching both happen
//! in the [`CharacterizationEngine`](slic_spice::CharacterizationEngine) that owns this
//! backend, so a unique coordinate is paid for exactly once across the whole farm.

use crate::backoff::{splitmix64, BackoffPolicy};
use crate::wire::{decode_message, encode_line, send_line, Message, WireError, WireRequest};
use crate::{FarmError, WORKER_BANNER};
use slic_obs::Observability;
use slic_spice::{LocalBackend, SimRequest, SimResult, SimulationBackend};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Deadline for establishing a TCP worker connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Deadline for one batch round trip, enforced as the socket read/write timeout of every
/// worker connection.  Solving a 16-lane batch takes milliseconds even at the accurate
/// preset, so a worker silent this long is hung or unreachable — it is marked dead and
/// its job fails over, instead of stalling the whole run on a blocked read.
const BATCH_TIMEOUT: Duration = Duration::from_secs(60);

/// How a worker is (re-)dialed: the broker remembers every worker's origin so its
/// dispatcher can bring it back — re-connect a TCP address, re-spawn a child.
enum WorkerEndpoint {
    /// `host:port` of a `slic worker --listen` process.
    Tcp(String),
    /// The binary to run as `<program> worker --listen 127.0.0.1:0 --spawned`; each dial
    /// starts a fresh child and connects to the address its banner names.
    Spawn(PathBuf),
}

/// An established, handshook connection to one worker.  Writes and timeouts go through
/// `reader.get_ref()`, the socket itself.
struct WorkerConn {
    reader: BufReader<TcpStream>,
    /// The spawned worker behind the connection, `None` for a `--workers` address.  The
    /// `Child` holds the write end of the worker's stdin until it is waited for.
    child: Option<Child>,
}

impl Drop for WorkerConn {
    fn drop(&mut self) {
        // The connection is gone (shutdown sent, or the worker was marked dead): make sure
        // a spawned worker does not linger.
        if let Some(child) = self.child.as_mut() {
            reap(child);
        }
    }
}

/// Kills a child (a no-op once it has exited) and waits for it, so it leaves no zombie.
fn reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// One worker's identity and origin, owned by its dispatcher.
struct Worker {
    name: String,
    endpoint: WorkerEndpoint,
    /// Per-worker jitter stream for the re-dial schedule, derived from the fleet seed so
    /// workers spread their re-dials instead of synchronizing.
    backoff_seed: u64,
}

/// Resilience knobs of a [`FarmBackend`], all deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmTuning {
    /// Dispatch attempts per job before it degrades to the local fallback.
    /// `None` = the fleet size (every worker gets one shot), the pre-resilience rule.
    pub retry_budget: Option<usize>,
    /// Re-dials per reconnect campaign before a worker is retired for the run.
    /// `0` restores the old dead-forever behaviour.
    pub reconnect_attempts: u32,
    /// First-attempt ceiling of the re-dial backoff schedule, in milliseconds.
    pub backoff_base_ms: u64,
    /// Hard ceiling of any single re-dial delay, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the backoff jitter streams (per-worker streams are derived from it).
    pub backoff_seed: u64,
    /// Read deadline for the heartbeat `ping`/`pong` round trip a dispatcher runs before
    /// taking a job, in milliseconds.
    pub heartbeat_timeout_ms: u64,
}

impl Default for FarmTuning {
    fn default() -> Self {
        Self {
            retry_budget: None,
            reconnect_attempts: 4,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            // Any fixed constant keeps the default schedule deterministic; runs that
            // want per-run jitter derive a seed from their RunConfig (see slic-pipeline).
            backoff_seed: 0x51ac_0fa2,
            heartbeat_timeout_ms: 5_000,
        }
    }
}

/// Farm throughput and failure counters, readable while a run is in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Jobs answered by a worker.
    pub jobs_completed: u64,
    /// Job retries: dispatch attempts that failed and sent the job back for another try
    /// (or, once its budget was spent, to the local fallback).
    pub failovers: u64,
    /// Dead workers re-admitted to the fleet after a successful re-dial + handshake.
    pub reconnects: u64,
    /// Heartbeat probes that went unanswered, each dropping a half-open connection.
    pub heartbeats_missed: u64,
    /// Jobs that exhausted their retry budget (or outlived the fleet) and degraded to
    /// the in-process fallback.
    pub degraded_jobs: u64,
    /// Lanes solved on a worker.
    pub lanes_remote: u64,
    /// Lanes solved by the broker's local fallback.
    pub lanes_local: u64,
}

/// A run of one call's lanes, sent to one worker as one `batch` line.
struct Job {
    /// The `solve_batch` call waiting for it.
    call: u64,
    /// The call's request indices, in wire order.
    lanes: Vec<usize>,
    /// The batch id, echoed in the worker's results.
    id: u64,
    /// The encoded `batch` line, built once and resent unchanged on every attempt.
    line: String,
    /// Dispatch attempts so far (drives the retry budget).
    attempts: usize,
    /// The caller's observability bundle: the job's spans and counters land there.
    obs: Observability,
}

/// What one `solve_batch` call is waiting for.
#[derive(Default)]
struct Call {
    /// Jobs queued or on a worker.
    pending: usize,
    /// Dispatchers pinging their worker before taking one of this call's jobs.
    pinging: usize,
    /// A job of this call exhausted its retry budget, so the call waits for no re-dial.
    degraded: bool,
    /// The jobs a worker answered, with their results.  They go back to the caller,
    /// which built them, so their memory is freed by the thread that allocated it:
    /// freed on the long-lived dispatcher threads instead, it fragmented the
    /// allocator's per-thread arenas and raised peak memory by about a quarter.
    solved: Vec<(Job, Vec<SimResult>)>,
}

/// The dispatch state every call and dispatcher shares.  Its lock guards a few field
/// updates at a time and is never held across network I/O.
#[derive(Default)]
struct State {
    jobs: VecDeque<Job>,
    calls: BTreeMap<u64, Call>,
    /// Workers holding a connection.
    live: usize,
    /// Re-dial campaigns in progress.
    redialing: usize,
    /// The backend is closing: dispatchers shut their workers down and exit.
    closed: bool,
    stats: FarmStats,
}

/// What a [`FarmBackend`] shares with its dispatcher threads.
struct Fleet {
    state: Mutex<State>,
    /// Wakes dispatchers: a job was queued, or the backend closed.
    work: Condvar,
    /// Wakes calls: a job or heartbeat finished, or a worker went down or came back.
    progress: Condvar,
    tuning: FarmTuning,
    size: usize,
    next_id: AtomicU64,
}

/// A [`SimulationBackend`] that brokers batches to a fleet of farm workers.
pub struct FarmBackend {
    fleet: Arc<Fleet>,
    dispatchers: Vec<JoinHandle<()>>,
    fallback: LocalBackend,
    obs: Observability,
}

impl std::fmt::Debug for FarmBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FarmBackend")
            .field("workers", &self.fleet.size)
            .field("live", &self.live_workers())
            .field("stats", &self.stats())
            .finish()
    }
}

impl FarmBackend {
    /// Connects to TCP workers and/or spawns local workers, in that order, and starts
    /// one dispatcher thread per worker.
    ///
    /// `program` is the binary to spawn as `<program> worker --listen 127.0.0.1:0
    /// --spawned` and is required when `spawn` is nonzero — typically the `slic` binary
    /// itself, so a farm run needs nothing installed beyond the one executable.
    ///
    /// # Errors
    ///
    /// Returns a [`FarmError`] when no worker is requested, a connection or spawn fails,
    /// or a handshake reveals an incompatible worker.  Construction is all-or-nothing: a
    /// fleet that starts degraded is an operator error, not a failover case.
    pub fn with_tuning(
        addresses: &[String],
        spawn: usize,
        program: Option<&Path>,
        tuning: FarmTuning,
    ) -> Result<Self, FarmError> {
        if addresses.is_empty() && spawn == 0 {
            return Err(FarmError::NoWorkers);
        }
        let mut endpoints: Vec<(String, WorkerEndpoint)> = addresses
            .iter()
            .map(|address| (address.clone(), WorkerEndpoint::Tcp(address.clone())))
            .collect();
        if spawn > 0 {
            let program = program.ok_or_else(|| {
                FarmError::Spawn("no worker program given for --spawn-workers".to_string())
            })?;
            for index in 0..spawn {
                endpoints.push((
                    format!("spawned-{index}"),
                    WorkerEndpoint::Spawn(program.to_path_buf()),
                ));
            }
        }
        let connected = endpoints
            .into_iter()
            .map(|(name, endpoint)| {
                let conn = dial(&endpoint, &name)?;
                Ok((name, endpoint, conn))
            })
            .collect::<Result<Vec<_>, FarmError>>()?;
        let mut backend = Self {
            fleet: Arc::new(Fleet {
                state: Mutex::new(State {
                    live: connected.len(),
                    ..State::default()
                }),
                work: Condvar::new(),
                progress: Condvar::new(),
                tuning,
                size: connected.len(),
                next_id: AtomicU64::new(0),
            }),
            dispatchers: Vec::new(),
            fallback: LocalBackend::new(),
            obs: Observability::default(),
        };
        for (index, (name, endpoint, conn)) in connected.into_iter().enumerate() {
            let worker = Worker {
                backoff_seed: tuning.backoff_seed ^ splitmix64(index as u64),
                name,
                endpoint,
            };
            let fleet = Arc::clone(&backend.fleet);
            let dispatcher = std::thread::Builder::new()
                .name(format!("farm-{}", worker.name))
                .spawn(move || fleet.dispatcher(&worker, conn))
                .map_err(|err| FarmError::Spawn(format!("a dispatcher thread: {err}")))?;
            backend.dispatchers.push(dispatcher);
        }
        Ok(backend)
    }

    /// Attaches the display-only observability bundle.  Spans cover round trips,
    /// heartbeats and re-dial campaigns; per-worker counters track jobs, lanes, wire
    /// bytes and re-admissions.  Every job carries the bundle of the call that queued
    /// it, so all of it lands here even though the dispatchers started earlier.  None
    /// of it feeds back into scheduling, so traced and untraced farm runs stay
    /// byte-identical.
    #[must_use]
    pub fn with_observability(mut self, obs: Observability) -> Self {
        self.obs = obs;
        self
    }

    /// Connects to an explicit list of TCP worker addresses with default [`FarmTuning`].
    ///
    /// # Errors
    ///
    /// See [`FarmBackend::with_tuning`].
    pub fn connect(addresses: &[String]) -> Result<Self, FarmError> {
        Self::with_tuning(addresses, 0, None, FarmTuning::default())
    }

    /// Number of workers currently holding a live connection.
    pub fn live_workers(&self) -> usize {
        self.fleet.lock().live
    }

    /// Total workers in the fleet (live or dead).
    pub fn fleet_size(&self) -> usize {
        self.fleet.size
    }

    /// A snapshot of the dispatch counters.
    pub fn stats(&self) -> FarmStats {
        self.fleet.lock().stats
    }

    /// Queues the lanes of `requests` that can travel as jobs for the fleet, waits for
    /// them, and returns the jobs a worker answered with their results.
    fn dispatch(&self, requests: &[SimRequest]) -> Vec<(Job, Vec<SimResult>)> {
        let fleet = &self.fleet;
        let lanes: Vec<(usize, WireRequest)> = requests
            .iter()
            .enumerate()
            .filter_map(|(lane, request)| {
                WireRequest::encode(request).ok().map(|wire| (lane, wire))
            })
            .collect();
        let chunk = job_lanes(lanes.len(), fleet.size);
        let call = fleet.next_id.fetch_add(1, Ordering::Relaxed);
        let mut jobs = Vec::new();
        let mut lanes = lanes.into_iter().peekable();
        while lanes.peek().is_some() {
            let (lanes, requests): (Vec<usize>, Vec<WireRequest>) =
                lanes.by_ref().take(chunk).unzip();
            let id = fleet.next_id.fetch_add(1, Ordering::Relaxed);
            jobs.push(Job {
                call,
                lanes,
                id,
                line: encode_line(&Message::Batch { id, requests }),
                attempts: 0,
                obs: self.obs.clone(),
            });
        }
        fleet.submit(call, jobs)
    }
}

impl Fleet {
    /// Locks the shared state.  Every critical section is a few field updates that
    /// leave it consistent, so a poisoned lock is recovered, not propagated.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues one call's jobs and waits for them and for the heartbeats they wake.
    ///
    /// A call made while no worker is live queues nothing: its fallback solves it all.
    /// When every worker goes down under a call, it waits for their re-dial campaigns
    /// unless one of its jobs has already exhausted its retry budget; then, or once the
    /// last worker retires, it takes its queued jobs back for its local fallback.
    fn submit(&self, call: u64, jobs: Vec<Job>) -> Vec<(Job, Vec<SimResult>)> {
        let mut state = self.lock();
        if state.live == 0 {
            state.stats.degraded_jobs += jobs.len() as u64;
            return Vec::new();
        }
        state.calls.insert(
            call,
            Call {
                pending: jobs.len(),
                solved: Vec::with_capacity(jobs.len()),
                ..Call::default()
            },
        );
        state.jobs.extend(jobs);
        self.work.notify_all();
        while let Some(waiting) = state.calls.get(&call) {
            if waiting.pending == 0 && waiting.pinging == 0 {
                break;
            }
            if state.live == 0 && (state.redialing == 0 || waiting.degraded) {
                let queued = state.jobs.len();
                state.jobs.retain(|job| job.call != call);
                let abandoned = queued - state.jobs.len();
                state.stats.degraded_jobs += abandoned as u64;
                if let Some(waiting) = state.calls.get_mut(&call) {
                    waiting.pending -= abandoned;
                }
                continue;
            }
            state = self
                .progress
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state
            .calls
            .remove(&call)
            .map(|done| done.solved)
            .unwrap_or_default()
    }

    /// One worker's dispatcher: serves jobs over the worker's connection, re-dials it
    /// when the connection fails, and exits when the backend closes or the worker
    /// retires.  The connection made when the fleet connected may have idled since, so
    /// its first job waits for a ping; a re-dial's fresh handshake stands in for one.
    fn dispatcher(&self, worker: &Worker, mut conn: WorkerConn) {
        let mut ping = true;
        while let Some(obs) = self.serve(worker, conn, ping) {
            match self.redial(worker, &obs) {
                Some(fresh) => conn = fresh,
                None => return,
            }
            ping = false;
        }
    }

    /// Serves queued jobs over `conn` until the backend closes, when it sends the worker
    /// `shutdown` and returns `None`, or the connection fails.  `ping` asks for a
    /// heartbeat before the first job; every job taken after waiting on an empty queue
    /// gets one too.  A failure drops the connection and marks the worker down before
    /// the failed job goes back on the queue, and returns the observability bundle of
    /// the call it failed for.
    fn serve(
        &self,
        worker: &Worker,
        mut conn: WorkerConn,
        mut ping: bool,
    ) -> Option<Observability> {
        let mut state = self.lock();
        loop {
            if state.closed {
                drop(state);
                // Orderly shutdown: a spawned worker exits on it, so wait for that before
                // the connection's drop would kill it (the wait closes the child's stdin,
                // which ends a spawned worker too).  A worker that already died ignores it.
                let _ = send_line(conn.reader.get_ref(), &encode_line(&Message::Shutdown));
                if let Some(child) = conn.child.as_mut() {
                    let _ = child.wait();
                }
                return None;
            }
            let Some(next) = state.jobs.front() else {
                ping = true;
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            if ping {
                // Ping holding no job, so a missed heartbeat costs no job an attempt; the
                // call whose job is next waits for the answer.
                let (call, obs) = (next.call, next.obs.clone());
                let unpin = move |state: &mut State| {
                    if let Some(waiting) = state.calls.get_mut(&call) {
                        waiting.pinging -= 1;
                    }
                };
                if let Some(waiting) = state.calls.get_mut(&call) {
                    waiting.pinging += 1;
                }
                drop(state);
                if !self.heartbeat(worker, &mut conn, &obs) {
                    self.fail(conn, |state| {
                        state.stats.heartbeats_missed += 1;
                        unpin(state);
                    });
                    return Some(obs);
                }
                state = self.lock();
                unpin(&mut state);
                self.progress.notify_all();
                ping = false;
                continue;
            }
            let Some(mut job) = state.jobs.pop_front() else {
                continue;
            };
            drop(state);
            match roundtrip(&worker.name, &mut conn, &job) {
                Ok(results) => {
                    job.obs.progress.add_lanes(results.len() as u64);
                    state = self.lock();
                    state.stats.jobs_completed += 1;
                    state.stats.lanes_remote += results.len() as u64;
                    if let Some(waiting) = state.calls.get_mut(&job.call) {
                        waiting.pending -= 1;
                        waiting.solved.push((job, results));
                    }
                    self.progress.notify_all();
                }
                Err(err) => {
                    eprintln!(
                        "slic farm: worker `{}` failed ({err}); failing its job over",
                        worker.name
                    );
                    let obs = job.obs.clone();
                    let budget = self.tuning.retry_budget.unwrap_or(self.size).max(1);
                    self.fail(conn, move |state| {
                        state.stats.failovers += 1;
                        job.attempts += 1;
                        if job.attempts < budget {
                            state.jobs.push_back(job);
                        } else {
                            // Budget spent: the call's local fallback solves these lanes.
                            state.stats.degraded_jobs += 1;
                            if let Some(waiting) = state.calls.get_mut(&job.call) {
                                waiting.pending -= 1;
                                waiting.degraded = true;
                            }
                        }
                    });
                    return Some(obs);
                }
            }
        }
    }

    /// Drops a failed connection and marks its worker down, counting the re-dial
    /// campaign that starts next, then settles the failed job or heartbeat under the
    /// same lock: a call never sees its job requeued while the worker still counts as
    /// live.
    fn fail(&self, conn: WorkerConn, settle: impl FnOnce(&mut State)) {
        drop(conn);
        let mut state = self.lock();
        state.live -= 1;
        state.redialing += 1;
        settle(&mut state);
        drop(state);
        self.progress.notify_all();
        self.work.notify_all();
    }

    /// Probes the worker with a `ping`/`pong` round trip under the heartbeat deadline;
    /// `true` when it answered and may take a job.
    fn heartbeat(&self, worker: &Worker, conn: &mut WorkerConn, obs: &Observability) -> bool {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline = Duration::from_millis(self.tuning.heartbeat_timeout_ms.max(1));
        let outcome = {
            let _span = obs
                .trace
                .span("farm.heartbeat", &[("worker", worker.name.clone())]);
            ping_roundtrip(conn, id, deadline)
        };
        match outcome {
            Ok(()) => true,
            Err(err) => {
                eprintln!(
                    "slic farm: worker `{}` missed its heartbeat ({err}); dropping the \
                     connection",
                    worker.name
                );
                obs.metrics
                    .counter_add(&format!("farm.worker.{}.heartbeats_missed", worker.name), 1);
                false
            }
        }
    }

    /// Re-dials a down worker on its seeded backoff schedule and re-admits it after a
    /// fresh handshake.  Returns the new connection, or `None` when the backend closed
    /// or the whole budget failed, which retires the worker for the run.  A backend
    /// that closes mid-campaign cuts the schedule short: one last dial, at once.
    fn redial(&self, worker: &Worker, obs: &Observability) -> Option<WorkerConn> {
        let mut span = obs
            .trace
            .span("farm.redial", &[("worker", worker.name.clone())]);
        let policy = BackoffPolicy {
            base_ms: self.tuning.backoff_base_ms,
            cap_ms: self.tuning.backoff_cap_ms,
            seed: worker.backoff_seed,
        };
        let attempts = self.tuning.reconnect_attempts;
        let mut conn = None;
        let mut closed = false;
        for attempt in 0..attempts {
            if closed {
                break;
            }
            closed = self.pause(policy.delay(attempt));
            match dial(&worker.endpoint, &worker.name) {
                Ok(fresh) => {
                    eprintln!(
                        "slic farm: worker `{}` re-admitted after {} re-dial(s)",
                        worker.name,
                        attempt + 1
                    );
                    conn = Some(fresh);
                    break;
                }
                Err(err) => eprintln!(
                    "slic farm: re-dial {}/{attempts} of worker `{}` failed: {err}",
                    attempt + 1,
                    worker.name
                ),
            }
        }
        span.attr("readmitted", conn.is_some().to_string());
        if conn.is_some() {
            obs.metrics
                .counter_add(&format!("farm.worker.{}.reconnects", worker.name), 1);
        } else if !closed {
            eprintln!(
                "slic farm: worker `{}` retired for this run (reconnect budget exhausted)",
                worker.name
            );
        }
        let mut state = self.lock();
        state.redialing -= 1;
        if conn.is_some() {
            state.live += 1;
            state.stats.reconnects += 1;
        }
        drop(state);
        self.progress.notify_all();
        conn
    }

    /// Sleeps for `delay`, waking early when the backend closes; returns whether it has.
    fn pause(&self, delay: Duration) -> bool {
        let (state, _) = self
            .work
            .wait_timeout_while(self.lock(), delay, |state| !state.closed)
            .unwrap_or_else(PoisonError::into_inner);
        state.closed
    }
}

/// Sends one job over `conn` and reads its results.  Only the worker's dispatcher
/// touches `conn`, and the protocol is strictly alternating per connection.
fn roundtrip(name: &str, conn: &mut WorkerConn, job: &Job) -> Result<Vec<SimResult>, FarmError> {
    let lanes = job.lanes.len();
    let metrics = &job.obs.metrics;
    let mut span = job.obs.trace.span(
        "farm.roundtrip",
        &[("worker", name.to_string()), ("lanes", lanes.to_string())],
    );
    let outcome = (|| -> Result<Vec<SimResult>, FarmError> {
        let transport =
            |err: std::io::Error| FarmError::Transport(name.to_string(), err.to_string());
        metrics.counter_add(
            &format!("farm.worker.{name}.bytes_tx"),
            job.line.len() as u64,
        );
        send_line(conn.reader.get_ref(), &job.line).map_err(transport)?;
        let mut reply = String::new();
        if conn.reader.read_line(&mut reply).map_err(transport)? == 0 {
            return Err(FarmError::WorkerDown(name.to_string()));
        }
        metrics.counter_add(&format!("farm.worker.{name}.bytes_rx"), reply.len() as u64);
        let protocol = |err: String| FarmError::Protocol(name.to_string(), err);
        match decode_message(reply.trim_end()) {
            Ok(Message::Results { id, results }) if id == job.id && results.len() == lanes => {
                results
                    .iter()
                    .map(|entry| entry.decode().map_err(|err| protocol(err.to_string())))
                    .collect()
            }
            Ok(other) => Err(protocol(format!(
                "expected results for batch {}, got {other:?}",
                job.id
            ))),
            Err(err) => Err(protocol(err.to_string())),
        }
    })();
    span.attr("ok", outcome.is_ok().to_string());
    if outcome.is_ok() {
        metrics.counter_add(&format!("farm.worker.{name}.jobs"), 1);
        metrics.counter_add(&format!("farm.worker.{name}.lanes"), lanes as u64);
    }
    outcome
}

/// Runs one heartbeat round trip on an established connection, tightening the read
/// deadline to `deadline` for the probe and restoring [`BATCH_TIMEOUT`] on success.
fn ping_roundtrip(conn: &mut WorkerConn, id: u64, deadline: Duration) -> Result<(), FarmError> {
    let fail = |err: String| FarmError::Transport("heartbeat".to_string(), err);
    conn.reader
        .get_ref()
        .set_read_timeout(Some(deadline))
        .map_err(|err| fail(err.to_string()))?;
    send_line(conn.reader.get_ref(), &encode_line(&Message::Ping { id }))
        .map_err(|err| fail(err.to_string()))?;
    let mut line = String::new();
    let read = conn
        .reader
        .read_line(&mut line)
        .map_err(|err| fail(err.to_string()))?;
    if read == 0 {
        return Err(fail("connection closed mid-heartbeat".to_string()));
    }
    match decode_message(line.trim_end()) {
        Ok(Message::Pong { id: reply }) if reply == id => {
            // The probe passed: put the batch deadline back before real traffic.
            conn.reader
                .get_ref()
                .set_read_timeout(Some(BATCH_TIMEOUT))
                .map_err(|err| fail(err.to_string()))
        }
        Ok(other) => Err(fail(format!("expected pong {id}, got {other:?}"))),
        Err(err) => Err(fail(err.to_string())),
    }
}

/// Establishes and handshakes a fresh connection to `endpoint` — used both at
/// construction and by every re-dial campaign (re-admission requires a fresh
/// [`Hello`](crate::wire::Hello), so a restarted worker re-proves its versions).
fn dial(endpoint: &WorkerEndpoint, name: &str) -> Result<WorkerConn, FarmError> {
    match endpoint {
        WorkerEndpoint::Tcp(address) => connect(address, name),
        WorkerEndpoint::Spawn(program) => {
            // The child's stdin is a pipe nothing writes to: the `Child` keeps its write
            // end until it is waited for, and the kernel closes it if the broker dies.
            let mut child = Command::new(program)
                .args(["worker", "--listen", "127.0.0.1:0", "--spawned"])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|err| FarmError::Spawn(format!("{name}: {}: {err}", program.display())))?;
            match banner_address(&mut child, name).and_then(|address| connect(&address, name)) {
                Ok(mut conn) => {
                    conn.child = Some(child);
                    Ok(conn)
                }
                Err(err) => {
                    reap(&mut child);
                    Err(err)
                }
            }
        }
    }
}

/// Reads the address a spawned worker announces on its stdout, the only line it prints
/// there; the pipe is closed once the banner is read.
fn banner_address(child: &mut Child, name: &str) -> Result<String, FarmError> {
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| FarmError::Spawn(format!("{name}: no stdout pipe")))?;
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .map_err(|err| FarmError::Spawn(format!("{name}: reading its banner: {err}")))?;
    banner
        .trim_end()
        .strip_prefix(WORKER_BANNER)
        .map(str::to_string)
        .ok_or_else(|| {
            FarmError::Spawn(format!(
                "{name}: expected `{WORKER_BANNER}<address>` on stdout, got {banner:?}"
            ))
        })
}

/// Connects to a `slic worker --listen` address and completes the worker handshake;
/// errors carry the worker `name`.
fn connect(address: &str, name: &str) -> Result<WorkerConn, FarmError> {
    let connect_failed =
        |err: std::io::Error| FarmError::Connect(name.to_string(), err.to_string());
    let stream = (|| -> std::io::Result<TcpStream> {
        let mut last = None;
        for addr in address.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                Ok(stream) => return Ok(stream),
                Err(err) => last = Some(err),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "address resolves to nothing")
        }))
    })()
    .map_err(connect_failed)?;
    stream.set_nodelay(true).ok();
    // Silence past the deadline counts as worker death (see BATCH_TIMEOUT).
    stream
        .set_read_timeout(Some(BATCH_TIMEOUT))
        .map_err(connect_failed)?;
    stream
        .set_write_timeout(Some(BATCH_TIMEOUT))
        .map_err(connect_failed)?;
    let mut conn = WorkerConn {
        reader: BufReader::new(stream),
        child: None,
    };
    let mut line = String::new();
    conn.reader
        .read_line(&mut line)
        .map_err(|err| WireError::Malformed(format!("reading hello: {err}")))
        .and_then(|_| match decode_message(line.trim_end())? {
            Message::Hello(hello) => hello.validate(),
            other => Err(WireError::Malformed(format!(
                "expected hello, got {other:?}"
            ))),
        })
        .map_err(|err| FarmError::Handshake(name.to_string(), err.to_string()))?;
    Ok(conn)
}

/// Lanes per dispatched job: two jobs per worker, so a fleet interleaves on one engine
/// call, and at most 16 lanes, so the JSON framing stays noise.  The engine's calls carry
/// up to 64 lanes, so one call to a two-worker fleet becomes four 16-lane jobs.
fn job_lanes(total: usize, workers: usize) -> usize {
    total.div_ceil(workers.max(1) * 2).clamp(1, 16)
}

impl SimulationBackend for FarmBackend {
    fn name(&self) -> &str {
        "farm"
    }

    fn solve_batch(&self, requests: &[SimRequest]) -> Vec<SimResult> {
        let mut results: Vec<Option<SimResult>> = vec![None; requests.len()];
        for (job, solved) in self.dispatch(requests) {
            for (&lane, result) in job.lanes.iter().zip(solved) {
                results[lane] = Some(result);
            }
        }
        // One local solve for every lane no worker answered: lanes that cannot travel
        // (e.g. a custom technology outside the worker-side catalogue, or a cell that is
        // not its arc's, which the fallback refuses as a lane error), jobs past their
        // retry budget and jobs no worker was left to take.  The farm degrades to local
        // execution instead of failing a run the local backend would complete.
        let unanswered: Vec<SimRequest> = requests
            .iter()
            .zip(&results)
            .filter(|(_, result)| result.is_none())
            .map(|(request, _)| request.clone())
            .collect();
        if !unanswered.is_empty() {
            let solved = self.fallback.solve_batch(&unanswered);
            self.fleet.lock().stats.lanes_local += solved.len() as u64;
            for (slot, result) in results.iter_mut().filter(|slot| slot.is_none()).zip(solved) {
                *slot = Some(result);
            }
        }
        results.into_iter().flatten().collect()
    }
}

impl Drop for FarmBackend {
    /// Closes the backend: each dispatcher sends `shutdown` to its live worker, waits
    /// for a spawned child and exits, and the dispatchers are joined.
    fn drop(&mut self) {
        self.fleet.lock().closed = true;
        self.fleet.work.notify_all();
        for dispatcher in self.dispatchers.drain(..) {
            if dispatcher.join().is_err() {
                eprintln!("slic farm: a dispatcher thread panicked");
            }
        }
    }
}
