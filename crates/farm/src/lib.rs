//! `slic-farm` — the distributed simulation farm.
//!
//! The paper's premise is that transient simulation is the scarce resource: belief
//! propagation exists to spend fewer sims.  This crate makes the sims that *are* spent a
//! distributed workload.  It turns the engine's
//! [`SimulationBackend`](slic_spice::SimulationBackend) boundary into a client/server
//! system with three pieces:
//!
//! * [`wire`] — the versioned JSON-lines protocol: one message per line over TCP, each
//!   lane of a batch as one string of the [codec](slic_spice::codec) words
//!   `DiskSimCache` logs use (floats as hex-exact bit patterns), and a handshake that
//!   pins both the protocol version and the transient-kernel version so mixed-kernel
//!   fleets are rejected instead of silently blending solver generations into one
//!   artifact;
//! * [`worker`] — the stateless serve loop behind `slic worker`: decode a batch, solve it
//!   through the in-process [`LocalBackend`](slic_spice::LocalBackend), stream the
//!   results back;
//! * [`broker`] — [`FarmBackend`], the engine-facing client: one long-lived dispatcher
//!   thread per worker, owning that worker's connection and taking jobs from one queue
//!   that every engine call feeds, with per-worker health tracking,
//!   retry-on-another-worker failover, and an in-process fallback so a run completes
//!   even if the whole fleet dies.
//!
//! Around those sits the **resilience layer** (PR 8): [`backoff`] (seeded, deterministic
//! exponential re-dial schedules), heartbeat `ping`/`pong` probes a dispatcher runs
//! before taking a job after its worker idled, a per-job retry budget with a degradation
//! ladder (retry elsewhere → wait for re-admission → local fallback), and [`fault`] — a
//! seeded [`FaultPlan`] a worker can run to misbehave deterministically, so every
//! recovery path is exercised end-to-end in tests and CI.  A dead worker is no longer
//! dead forever: its dispatcher re-dials it with backoff on its own thread, while the
//! calls in flight carry on with the rest of the fleet, and re-admits it after a fresh
//! [`Hello`] handshake.
//!
//! Because the engine keeps its counter and cache on its own side of the backend
//! boundary, a farm run pays each unique simulation coordinate exactly once across the
//! whole fleet and produces a `RunArtifact` byte-identical to a local
//! run's — the acceptance bar every transport change in this crate is tested against.
//!
//! ```no_run
//! use slic_farm::FarmBackend;
//! use std::sync::Arc;
//!
//! // Two workers started elsewhere with `slic worker --listen <addr>`:
//! let farm = FarmBackend::connect(&[
//!     "10.0.0.5:9200".to_string(),
//!     "10.0.0.6:9200".to_string(),
//! ])
//! .expect("workers reachable and kernel-compatible");
//! let engine = slic_spice::CharacterizationEngine::new(slic_device::TechnologyNode::n14_finfet())
//!     .with_backend(Arc::new(farm));
//! ```

pub mod backoff;
pub mod broker;
pub mod fault;
pub mod wire;
pub mod worker;

pub use backoff::{splitmix64, BackoffPolicy};
pub use broker::{FarmBackend, FarmStats, FarmTuning};
pub use fault::FaultPlan;
pub use wire::{Hello, Message, WireError, WireRequest, WireResultEntry, PROTOCOL_VERSION};
pub use worker::{serve_connection, serve_listener, ServeOutcome, WorkerOptions, WORKER_BANNER};

use std::fmt;

/// Anything that can go wrong building or driving a worker fleet.
#[derive(Debug)]
pub enum FarmError {
    /// Neither addresses nor a spawn count were given.
    NoWorkers,
    /// A worker could not be reached.
    Connect(String, String),
    /// A spawned worker could not be started or announced no address.
    Spawn(String),
    /// A worker's handshake failed or revealed an incompatible build.
    Handshake(String, String),
    /// A round trip failed at the transport level.
    Transport(String, String),
    /// A worker replied with something other than the expected results.
    Protocol(String, String),
    /// A dispatch was attempted against a worker already marked dead.
    WorkerDown(String),
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::NoWorkers => {
                write!(
                    f,
                    "a farm needs at least one worker (addresses or a spawn count)"
                )
            }
            FarmError::Connect(worker, err) => write!(f, "cannot connect to `{worker}`: {err}"),
            FarmError::Spawn(err) => write!(f, "cannot spawn worker: {err}"),
            FarmError::Handshake(worker, err) => {
                write!(f, "handshake with `{worker}` failed: {err}")
            }
            FarmError::Transport(worker, err) => write!(f, "worker `{worker}` transport: {err}"),
            FarmError::Protocol(worker, err) => {
                write!(f, "worker `{worker}` protocol violation: {err}")
            }
            FarmError::WorkerDown(worker) => write!(f, "worker `{worker}` is down"),
        }
    }
}

impl std::error::Error for FarmError {}
