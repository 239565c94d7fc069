//! `slic-obs`: structured run tracing and a unified metrics registry.
//!
//! The suite's artifacts hold results only: they are bit-identical across backends,
//! shard counts, shard schedules, farm failure patterns and cache state — which means
//! *performance* evidence cannot live in artifacts at all.  This crate is the display-only telemetry layer the rest of the workspace
//! threads through its hot paths:
//!
//! * [`trace::TraceRecorder`] — an opt-in JSON-lines span/event recorder (monotonic
//!   timestamps, thread ids, parent correlation) behind `observability.trace` /
//!   `--trace out.jsonl`.  Disabled recorders are free: every call no-ops on a `None`.
//! * [`metrics::MetricsRegistry`] — counters and fixed-bucket histograms with a
//!   sorted, deterministic snapshot, unifying the per-subsystem counter structs
//!   (`DispatchSnapshot`, `FarmStats`, `KernelStatsSnapshot`, cache hit/miss) behind
//!   one post-run summary surface.
//! * [`jsonl`] — the one JSON-lines file discipline (flock-guarded appends, torn-tail
//!   truncation, salvaging reads) shared by the ledger, the trace reader and
//!   `DiskSimCache`; every line parses through the one JSON parser, `serde_json`.
//! * [`profile`] — the analysis side: the trace reader and the report builder behind
//!   `slic profile <trace.jsonl>`.
//! * [`ledger`] — the cross-run side: an append-only, flock-guarded `runs.jsonl` of
//!   [`ledger::RunRecord`]s (config fingerprint, seed, wall time, sims paid vs
//!   cached, artifact hash, full metrics snapshot) behind `observability.ledger` /
//!   `--ledger runs.jsonl` — where a run's cost is kept once its process exits.
//! * [`diff`] — the regression gate: threshold-driven comparison of two profile
//!   reports (`slic profile --diff`) or two ledger records (`slic history --diff`),
//!   exiting nonzero on drift past the fixed [`DiffThresholds::default`] set.
//! * [`perfetto`] — Chrome trace-event export (`slic profile --format chrome`) so a
//!   farmed run's span tree can be walked interactively in ui.perfetto.dev.
//! * [`progress`] — a live [`progress::ProgressMeter`]: periodic `progress` trace
//!   events plus an optional stderr progress line (units done, sims paid vs cached,
//!   farmed lanes, ETA), rate-limited off the monotonic clock.
//!
//! Tracing is display-only **by construction**: nothing here feeds a result path, and
//! the only wall-clock read in the library crates lives in [`clock::MonotonicClock`]
//! behind the [`clock::Clock`] trait (the one `#[expect]` of the D1 lint).
//! `RunArtifact` bytes are identical with tracing on or off — CI `cmp`-gates
//! that invariant.

pub mod clock;
pub mod diff;
pub mod jsonl;
pub mod ledger;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod progress;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use diff::{DiffReport, DiffThresholds};
pub use ledger::RunRecord;
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use progress::ProgressMeter;
pub use trace::{SpanGuard, TraceRecorder};

/// The bundle the pipeline threads through engine, backends and runner: one trace
/// recorder plus one metrics registry, both cheap to clone and free when disabled.
#[derive(Debug, Clone, Default)]
pub struct Observability {
    /// The span/event recorder; [`TraceRecorder::disabled`] (the default) is a no-op.
    pub trace: TraceRecorder,
    /// The shared counter/histogram registry, always live (counters are cheap).
    pub metrics: MetricsRegistry,
    /// The live progress meter; [`ProgressMeter::disabled`] (the default) is a no-op.
    pub progress: ProgressMeter,
}

impl Observability {
    /// A fully disabled bundle: no trace sink, empty registry.
    pub fn disabled() -> Self {
        Self::default()
    }
}
