//! `slic` — the command-line driver of the characterization pipeline.
//!
//! Subcommands mirror the resumable pipeline stages:
//!
//! ```text
//! slic learn        # historical nodes -> historical-database JSON
//! slic characterize # plan + run -> run-artifact JSON (+ optional Liberty)
//!                   # --shard i/n runs one shard; --cache shares warm state on disk
//!                   # --workers a,b | --spawn-workers N farms the sims out
//! slic worker       # serve transient batches to farm brokers over TCP (--listen)
//! slic merge        # shard artifacts -> the whole-run artifact
//! slic export       # run artifact -> Liberty text
//! slic report       # run artifact -> Markdown summary
//! slic cache        # cache maintenance (compact)
//! slic profile      # reconstruct a --trace sidecar into a performance report
//!                   # --diff gates one trace against another at fixed thresholds;
//!                   # --format chrome exports Perfetto-loadable JSON
//! slic history      # list / diff the cross-run ledger written by --ledger
//! slic bench diff   # gate a fresh kernel bench report against the committed one
//! ```
//!
//! Run `slic help` for the full flag reference.  Argument parsing is hand-rolled
//! (`--flag value` pairs only) because the build environment vendors no CLI crate.

use slic_bayes::HistoricalDatabase;
use slic_device::TechnologyNode;
use slic_farm::{
    serve_listener, FarmBackend, FarmTuning, FaultPlan, ServeOutcome, WorkerOptions, WORKER_BANNER,
};
use slic_obs::{
    Clock, DiffReport, DiffThresholds, MetricsSnapshot, MonotonicClock, Observability,
    ProgressMeter, RunRecord, TraceRecorder,
};
use slic_pipeline::{
    BackendChoice, CharacterizationPlan, PipelineError, PipelineRunner, RunArtifact, RunConfig,
    RunProfile,
};
use slic_spice::{CharacterizationEngine, CompactionOptions, DiskSimCache};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "slic — statistical library characterization pipeline

USAGE:
    slic <learn|characterize|worker|merge|export|report|cache|profile|history|bench|help> [--flag value]...

OBSERVABILITY FLAGS (learn, characterize and worker):
    --trace <file>          record a JSON-lines span/event trace of the run to <file>
                            (config key `observability.trace`; the flag wins).  Tracing
                            is display-only: artifact bytes are identical with it on or
                            off.  Analyze the sidecar with `slic profile <file>`.
    --ledger <file>         append one run record (config fingerprint, seed, wall time,
                            sims paid vs cached, artifact hash, metrics snapshot) to the
                            cross-run ledger at <file> (config key `observability.ledger`;
                            learn/characterize only).  Display-only like --trace.  Read it
                            back with `slic history <file>`.
    --progress              render a live stderr progress line (units done, sims paid vs
                            cached, farmed lanes, ETA) even when stderr is not a TTY; on
                            a TTY the line is on by default for learn/characterize.
                            Progress also emits rate-limited `progress` trace events.

FARM FLAGS (learn and characterize; --workers or --spawn-workers runs the simulations
on the farm instead of in-process):
    --workers <a,b,...>     TCP addresses of `slic worker --listen` processes
    --spawn-workers <n>     spawn n local workers of this binary, each a
                            `slic worker --listen 127.0.0.1:0 --spawned` that
                            exits with the broker (zero-config multi-process
                            run); combinable with --workers
    --retry-budget <n>      re-dispatch attempts per job before it degrades to the
                            local fallback (default: fleet size)

SUBCOMMANDS:
    learn         Characterize the historical technologies and archive the
                  compact-model fits.
                    --historical <a,b,...>  historical node names
                                            (default n16_finfet,n14_finfet)
                    --library <name>        paper-trio (default) | standard
                    --profile <name>        quick (default) | accurate
                    --cache <file>          persistent simulation cache (append log)
                    --simd                  route batched lanes through the SIMD quad
                                            kernel (kernel.simd = true)
                    --out <file>            output database JSON (default history.json)

    characterize  Run a library-scale characterization plan (or one shard of it).
                    --config <file>         run config (.json or .toml); CLI flags
                                            below override its fields
                    --history <file>        database JSON from `slic learn`;
                                            omitted = learn inline first
                    --library <name>        paper-trio | standard
                    --technology <name>     e.g. target_14nm, target_28nm
                    --profile <name>        quick | accurate
                    --cells <glob>          cell-kind filter, e.g. 'NAND*'
                    --drives <a,b,...>      drive filter, e.g. X1,X2
                    --metrics <a,b,...>     delay,slew
                    --methods <a,b,...>     bayesian,lse,lut
                    --seed <n>              sampling seed
                    --shard <i/n>           run shard i of n (1-based), e.g. 2/4;
                                            merge the artifacts with `slic merge`
                    --cache <file>          persistent simulation cache shared by
                                            shard workers and reruns
                    --variation             add Monte Carlo variation units: every
                                            export-grid point under every process seed,
                                            reduced to mean/sigma/skew tables in the
                                            artifact (and LVF groups in --liberty)
                    --variation-seeds <n>   Monte Carlo seeds per unit (implies
                                            --variation; default from profile)
                    --variation-sigma <a,b> sigma corners reported, e.g. 1,3
                                            (implies --variation)
                    --simd                  route batched lanes through the SIMD quad
                                            kernel (local backend only); delays stay
                                            within the CI-gated 0.5% accuracy envelope,
                                            and the run summary and ledger record gain
                                            its quad counters
                    --out <file>            run artifact JSON (default run.json)
                    --liberty <file>        also write the Liberty text here

    worker        Serve transient-simulation batches to farm brokers over TCP,
                  speaking the JSON-lines wire protocol.
                    --listen <addr>         bind address, e.g. 127.0.0.1:0 (required;
                                            `worker listening on <addr>` is printed on
                                            stdout once bound)
                    --max-batches <n>       serve n batches then drop the connection
                                            without replying (rolling-restart drain /
                                            failover fault injection); exits nonzero
                    --fault-seed <n>        seed for the fault plan's randomized
                                            choices (jittered delays); default 0
                    --fault-drop-after <n>  drop the connection after n messages,
                                            counted per connection (flapping worker)
                    --fault-delay-ms <n>    sleep n ms (plus seeded jitter) before
                                            answering each batch (slow worker)
                    --fault-garbage-every <n> reply to every n-th batch with garbage
                                            bytes instead of results
                    --fault-refuse-reconnects <n> after a fault drop, refuse n broker
                                            re-dials before serving again

    merge         Join shard artifacts into the whole-run artifact.
                    --inputs <a,b,...>      shard artifact JSON files (required)
                    --out <file>            merged artifact JSON (default merged.json)

    export        Render the Liberty text of a finished run.
                    --run <file>            run artifact JSON (default run.json)
                    --out <file>            output .lib path (stdout when omitted)
                    --variation             emit LVF-style ocv_sigma_*/ocv_skewness_*
                                            groups from the artifact's variation tables
                                            (requires a --variation characterization)

    report        Print the Markdown summary of a finished run, including the
                  sigma/skew tables of a statistical run.  A shard artifact is
                  labelled PARTIAL so it is never mistaken for the whole run.
                    --run <file>            run artifact JSON (default run.json)

    cache         Cache maintenance.
                    compact --cache <file>  rewrite the append-only simulation-cache log
                                            as a deduplicated last-record-wins snapshot
                                            (taken under the same lock every flush uses)
                                            and report how many records were dropped
                            --drop-legacy   additionally evict records written by a
                                            kernel predating this binary's (they can
                                            never answer a lookup again); reported
                                            separately from the duplicate count
                            --quarantine    salvage a log with corrupt interior lines:
                                            valid records are kept, corrupt lines move
                                            to a `.quarantine` sidecar for inspection
                                            (default: corruption aborts, log untouched)

    profile       Reconstruct the span tree of a `--trace` sidecar: per-phase time,
                  top-N hottest (cell, arc) units, per-worker utilization, cache
                  effectiveness.  A corrupt or truncated tail is salvaged — the report
                  covers the complete prefix, the dropped lines are counted on stderr,
                  and the exit code is nonzero.
                    slic profile <trace.jsonl> [--format md|json|chrome] [--top <n>]
                    slic profile --diff <old.jsonl> <new.jsonl>   regression-gate two
                                            traces: total and per-phase wall deltas plus
                                            cache drift; exits nonzero on a rise past 50%
                                            wall, 10% gated counters or a 5-point drop
                                            in cache hit rate
                    --format <name>         md (default) | json | chrome (Chrome
                                            trace-event JSON — load in ui.perfetto.dev)
                    --top <n>               hottest-unit rows to keep (default 10)

    history       List the cross-run ledger written by `--ledger`, or gate its newest
                  run against the previous run of the same config fingerprint and kind.
                    slic history <runs.jsonl>            list every recorded run
                    slic history <runs.jsonl> --diff     diff the last two runs with
                                            matching fingerprint and kind (learn or
                                            characterize); exits nonzero on
                                            regression (wall, sims paid, hit rate,
                                            gated counters, artifact hash drift) at the
                                            thresholds of `profile --diff`
                    --fingerprint <hex>     diff this fingerprint's newest run instead
                                            of the most recently recorded one

    bench         Kernel benchmark gates.
                    bench diff <fresh.json> [<committed.json>]   compare a fresh
                                            `make bench-kernel` report against the
                                            committed baseline (BENCH_transient.json);
                                            exits nonzero when any variant falls below
                                            half the committed throughput
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(command, "help" | "--help" | "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    const CONFIG_FLAGS: &[&str] = &[
        "config",
        "library",
        "technology",
        "historical",
        "profile",
        "cells",
        "drives",
        "metrics",
        "methods",
        "seed",
        "cache",
        "workers",
        "spawn-workers",
        "retry-budget",
        "trace",
        "ledger",
        "out",
    ];
    // profile/history/bench mix positionals with their own flag sets; they dispatch
    // before the generic flag machinery below.
    match command {
        "profile" => return cmd_profile_entry(&args[1..]),
        "history" => return cmd_history_entry(&args[1..]),
        "bench" => return cmd_bench_entry(&args[1..]),
        _ => {}
    }
    // `slic cache <action> --flag value ...` takes a positional action before its flags.
    // `switches` are valueless boolean flags (recorded as "true" when present).
    let (flag_args, allowed, switches): (&[String], Vec<&str>, Vec<&str>) = match command {
        "learn" => (&args[1..], CONFIG_FLAGS.to_vec(), vec!["simd", "progress"]),
        "characterize" => {
            let mut flags = CONFIG_FLAGS.to_vec();
            flags.extend([
                "history",
                "liberty",
                "shard",
                "variation-seeds",
                "variation-sigma",
            ]);
            (&args[1..], flags, vec!["variation", "simd", "progress"])
        }
        "worker" => (
            &args[1..],
            vec![
                "listen",
                "max-batches",
                "fault-seed",
                "fault-drop-after",
                "fault-delay-ms",
                "fault-garbage-every",
                "fault-refuse-reconnects",
                "trace",
            ],
            vec!["spawned"],
        ),
        "merge" => (&args[1..], vec!["inputs", "out"], vec![]),
        "export" => (&args[1..], vec!["run", "out"], vec!["variation"]),
        "report" => (&args[1..], vec!["run"], vec![]),
        "cache" => match args.get(1).map(String::as_str) {
            Some("compact") => (
                &args[2..],
                vec!["cache", "trace"],
                vec!["drop-legacy", "quarantine"],
            ),
            Some(other) => {
                eprintln!("error: unknown cache action `{other}` (expected `compact`)");
                return ExitCode::from(2);
            }
            None => {
                eprintln!("error: `slic cache` needs an action, e.g. `slic cache compact`");
                return ExitCode::from(2);
            }
        },
        other => {
            eprintln!("error: unknown subcommand `{other}`\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let flags = match parse_flags(flag_args, &allowed, &switches) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        "learn" => cmd_learn(&flags),
        "characterize" => cmd_characterize(&flags),
        "worker" => cmd_worker(&flags),
        "merge" => cmd_merge(&flags),
        "export" => cmd_export(&flags),
        "report" => cmd_report(&flags),
        "cache" => cmd_cache_compact(&flags),
        #[expect(
            clippy::unreachable,
            reason = "the flag-table match above returns on every unknown subcommand"
        )]
        _ => unreachable!("unknown subcommands rejected above"),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--flag value` pairs plus valueless `switches` (recorded as `"true"`); rejects
/// stray positionals, missing values (including a following `--flag` where a value
/// belongs), and flags the subcommand does not consume (a typo'd flag must not silently
/// fall back to a default).
fn parse_flags(
    args: &[String],
    allowed: &[&str],
    switches: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}` (flags are `--name value`)"))?;
        let value = if switches.contains(&name) {
            "true".to_string()
        } else if allowed.contains(&name) {
            it.next()
                .filter(|value| !value.starts_with("--"))
                .ok_or_else(|| format!("flag `--{name}` is missing its value"))?
                .clone()
        } else {
            let expected: Vec<String> = allowed
                .iter()
                .chain(switches)
                .map(|f| format!("--{f}"))
                .collect();
            return Err(if expected.is_empty() {
                format!("unknown flag `--{name}`: this subcommand takes no flags")
            } else {
                format!(
                    "unknown flag `--{name}` for this subcommand (expected one of: {})",
                    expected.join(", ")
                )
            });
        };
        if flags.insert(name.to_string(), value).is_some() {
            return Err(format!("flag `--{name}` given twice"));
        }
    }
    Ok(flags)
}

fn comma_list(text: &str) -> Vec<String> {
    text.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Builds the run configuration from an optional `--config` file plus CLI overrides.
fn build_config(flags: &BTreeMap<String, String>) -> Result<RunConfig, PipelineError> {
    let mut config = match flags.get("config") {
        Some(path) => RunConfig::load(path)?,
        None => RunConfig::default(),
    };
    if let Some(v) = flags.get("library") {
        config.library = Some(v.clone());
    }
    if let Some(v) = flags.get("technology") {
        config.technology = Some(v.clone());
    }
    if let Some(v) = flags.get("historical") {
        config.historical = Some(comma_list(v));
    }
    if let Some(v) = flags.get("profile") {
        config.profile = Some(v.clone());
    }
    if let Some(v) = flags.get("cells") {
        config.cell_pattern = Some(v.clone());
    }
    if let Some(v) = flags.get("drives") {
        config.drives = Some(comma_list(v));
    }
    if let Some(v) = flags.get("metrics") {
        config.metrics = Some(comma_list(v));
    }
    if let Some(v) = flags.get("methods") {
        config.methods = Some(comma_list(v));
    }
    if let Some(v) = flags.get("seed") {
        let seed = v
            .parse::<u64>()
            .map_err(|_| PipelineError::config(format!("`--seed {v}` is not an integer")))?;
        config.seed = Some(seed);
    }
    if let Some(v) = flags.get("cache") {
        config.cache = Some(v.clone());
    }
    if let Some(v) = flags.get("workers") {
        config.workers = Some(comma_list(v));
    }
    if let Some(v) = flags.get("spawn-workers") {
        let count = v.parse::<usize>().map_err(|_| {
            PipelineError::config(format!("`--spawn-workers {v}` is not an integer"))
        })?;
        config.spawn_workers = Some(count);
    }
    if let Some(v) = flags.get("retry-budget") {
        let budget = v.parse::<usize>().map_err(|_| {
            PipelineError::config(format!("`--retry-budget {v}` is not an integer"))
        })?;
        let mut knobs = config.farm.clone().unwrap_or_default();
        knobs.retry_budget = Some(budget);
        config.farm = Some(knobs);
    }
    // Any variation flag enables the Monte Carlo workload on top of whatever (if
    // anything) the config file's `variation` section set.
    if flags.contains_key("variation")
        || flags.contains_key("variation-seeds")
        || flags.contains_key("variation-sigma")
    {
        let mut knobs = config.variation.clone().unwrap_or_default();
        if let Some(v) = flags.get("variation-seeds") {
            let seeds = v.parse::<usize>().map_err(|_| {
                PipelineError::config(format!("`--variation-seeds {v}` is not an integer"))
            })?;
            knobs.process_seeds = Some(seeds);
        }
        if let Some(v) = flags.get("variation-sigma") {
            let corners: Vec<f64> = comma_list(v)
                .iter()
                .map(|c| {
                    c.parse::<f64>().map_err(|_| {
                        PipelineError::config(format!(
                            "`--variation-sigma {v}`: `{c}` is not a number"
                        ))
                    })
                })
                .collect::<Result<_, _>>()?;
            knobs.sigma_corners = Some(corners);
        }
        config.variation = Some(knobs);
    }
    if flags.contains_key("simd") {
        let mut knobs = config.kernel.clone().unwrap_or_default();
        knobs.simd = Some(true);
        config.kernel = Some(knobs);
    }
    if let Some(v) = flags.get("trace") {
        let mut knobs = config.observability.clone().unwrap_or_default();
        knobs.trace = Some(v.clone());
        config.observability = Some(knobs);
    }
    if let Some(v) = flags.get("ledger") {
        let mut knobs = config.observability.clone().unwrap_or_default();
        knobs.ledger = Some(v.clone());
        config.observability = Some(knobs);
    }
    if flags.contains_key("progress") {
        let mut knobs = config.observability.clone().unwrap_or_default();
        knobs.progress = Some(true);
        config.observability = Some(knobs);
    }
    Ok(config)
}

/// Builds the observability bundle for a resolved configuration: a file-backed trace
/// recorder when `observability.trace` / `--trace` asked for one, the free disabled
/// recorder otherwise.  The metrics registry is always live.
fn build_observability(
    config: &slic_pipeline::ResolvedConfig,
) -> Result<Observability, PipelineError> {
    let trace = match &config.trace_path {
        Some(path) => TraceRecorder::to_file(path).map_err(|err| {
            PipelineError::config(format!(
                "cannot create trace file `{}`: {err}",
                path.display()
            ))
        })?,
        None => TraceRecorder::disabled(),
    };
    // The stderr progress line draws when the config (or `--progress`) forced it, or
    // automatically when a human is watching stderr.  The meter also runs line-less
    // whenever tracing is live, so rate-limited `progress` events land in the
    // sidecar; with neither display it stays the free disabled meter.
    use std::io::IsTerminal as _;
    let render_line = config.progress || std::io::stderr().is_terminal();
    let progress = if render_line || trace.is_enabled() {
        ProgressMeter::new(trace.clone(), render_line)
    } else {
        ProgressMeter::disabled()
    };
    Ok(Observability {
        trace,
        progress,
        ..Observability::default()
    })
}

/// Builds the runner for a resolved configuration, opening the configured cache under a
/// `cache.open` span and standing a farm fleet up when the backend choice asks for one.
/// Returns the fleet handle alongside, so callers can report dispatch statistics after
/// the run.
fn build_runner(
    config: slic_pipeline::ResolvedConfig,
    obs: &Observability,
) -> Result<(PipelineRunner, Option<Arc<FarmBackend>>), PipelineError> {
    let cache = {
        let _span = obs.trace.span("cache.open", &[]);
        PipelineRunner::open_cache(&config)?
    };
    match config.backend.clone() {
        BackendChoice::Local => Ok((
            PipelineRunner::with_parts(config, cache, None)?.with_observability(obs.clone()),
            None,
        )),
        BackendChoice::Farm {
            workers,
            spawn_workers,
            retry_budget,
            backoff_seed,
        } => {
            let program = if spawn_workers > 0 {
                Some(std::env::current_exe().map_err(|err| {
                    PipelineError::config(format!("cannot locate the slic binary to spawn: {err}"))
                })?)
            } else {
                None
            };
            let tuning = FarmTuning {
                retry_budget,
                backoff_seed,
                ..FarmTuning::default()
            };
            let farm =
                FarmBackend::with_tuning(&workers, spawn_workers, program.as_deref(), tuning)
                    .map_err(|err| PipelineError::config(format!("farm backend: {err}")))?
                    .with_observability(obs.clone());
            println!(
                "farm: {} worker(s) connected ({} remote, {} spawned)",
                farm.fleet_size(),
                workers.len(),
                spawn_workers,
            );
            let farm = Arc::new(farm);
            let runner = PipelineRunner::with_parts(config, cache, Some(farm.clone()))?
                .with_observability(obs.clone());
            Ok((runner, Some(farm)))
        }
    }
}

/// Prints the unified post-run summary in one stable, documented order:
///
///   1. `kernel (...)`         — transient kernel cost, when the backend exposes one
///   2. `dispatch: ...`        — batched-dispatch lane accounting, when lanes flowed
///   3. `farm: ...`            — fleet liveness and job totals, farmed runs only
///   4. `farm resilience: ...` — reconnect/heartbeat/degradation counters, farmed runs
///      only (the chaos CI job greps this line; its shape is load-bearing)
///   5. `metrics: ...`         — the unified registry snapshot, sorted, deterministic
///      serialization
///
/// Both `slic learn` and `slic characterize` print through here, so the order can never
/// drift between subcommands.  Before printing, every per-subsystem counter struct
/// (kernel, dispatch, farm, cache tiers) is folded into the metrics registry, and the
/// snapshot is written to the trace as the final `metrics` event — the cache-
/// effectiveness record `slic profile` reads back.  Returns the snapshot so the
/// run-ledger record can carry the identical metrics the summary printed.
fn print_run_summary(runner: &PipelineRunner, farm: Option<&FarmBackend>) -> MetricsSnapshot {
    let obs = runner.observability();
    if let Some(stats) = runner.engine().backend().kernel_stats() {
        obs.metrics.counter_set("kernel.sims", stats.sims);
        obs.metrics.counter_set("kernel.steps", stats.steps);
        obs.metrics
            .counter_set("kernel.rejected_steps", stats.rejected_steps);
        obs.metrics
            .counter_set("kernel.device_evals", stats.device_evals);
        obs.metrics
            .counter_set("kernel.quad_rounds", stats.quad_rounds);
        obs.metrics
            .counter_set("kernel.active_lane_rounds", stats.active_lane_rounds);
        let occupancy = stats
            .quad_occupancy()
            .map(|o| format!(", {:.0}% quad occupancy", o * 100.0))
            .unwrap_or_default();
        println!(
            "kernel ({}): {} sims, {:.1} steps/sim, {:.1} device evals/sim, \
             {} rejected steps{occupancy}",
            if stats.simd { "simd" } else { "scalar" },
            stats.sims,
            stats.steps_per_sim(),
            stats.device_evals_per_sim(),
            stats.rejected_steps,
        );
    }
    let dispatch = runner.engine().dispatch_stats();
    obs.metrics
        .counter_set("dispatch.lanes", dispatch.lanes_dispatched);
    obs.metrics
        .counter_set("dispatch.lanes.claimed", dispatch.lanes_claimed);
    obs.metrics
        .counter_set("dispatch.lanes.cached", dispatch.lanes_cached);
    obs.metrics
        .counter_set("dispatch.lanes.deferred", dispatch.lanes_deferred);
    if dispatch.lanes_dispatched > 0 {
        println!(
            "dispatch: {} lanes ({} solved, {} cache hits, {} deferred)",
            dispatch.lanes_dispatched,
            dispatch.lanes_claimed,
            dispatch.lanes_cached,
            dispatch.lanes_deferred,
        );
    }
    if let Some(farm) = farm {
        let stats = farm.stats();
        obs.metrics
            .counter_set("farm.jobs_completed", stats.jobs_completed);
        obs.metrics.counter_set("farm.failovers", stats.failovers);
        obs.metrics.counter_set("farm.reconnects", stats.reconnects);
        obs.metrics
            .counter_set("farm.heartbeats_missed", stats.heartbeats_missed);
        obs.metrics
            .counter_set("farm.degraded_jobs", stats.degraded_jobs);
        obs.metrics
            .counter_set("farm.lanes_remote", stats.lanes_remote);
        obs.metrics
            .counter_set("farm.lanes_local", stats.lanes_local);
        report_farm(farm);
    }
    let cache = runner.cache();
    obs.metrics.counter_set("cache.hits", cache.hits());
    obs.metrics
        .counter_set("cache.hits.warm", cache.warm_hits());
    obs.metrics.counter_set("cache.misses", cache.misses());
    let snapshot = obs.metrics.snapshot();
    let attrs = snapshot.attrs();
    let attr_refs: Vec<(&str, String)> = attrs
        .iter()
        .map(|(name, value)| (name.as_str(), value.clone()))
        .collect();
    obs.trace.event("metrics", &attr_refs);
    obs.trace.flush();
    print!("{}", snapshot.render());
    snapshot
}

/// Appends one [`RunRecord`] to the cross-run ledger when the resolved config named
/// one (`observability.ledger` / `--ledger`).  Called after the artifact is written,
/// so a ledger failure can never cost a run its results — but it still fails the
/// command loudly, because a silently-missing record would defeat `slic history`.
fn append_run_record(
    config: &slic_pipeline::ResolvedConfig,
    kind: &str,
    wall_ns: u64,
    sims_paid: u64,
    sims_cached: u64,
    artifact_json: &str,
    snapshot: MetricsSnapshot,
) -> Result<(), PipelineError> {
    let Some(path) = &config.ledger_path else {
        return Ok(());
    };
    let record = RunRecord {
        kind: kind.to_string(),
        fingerprint: config.fingerprint(),
        seed: config.seed,
        profile: config.profile.name().to_string(),
        backend: match &config.backend {
            BackendChoice::Local => "local".to_string(),
            BackendChoice::Farm { .. } => "farm".to_string(),
        },
        wall_ns,
        sims_paid,
        sims_cached,
        artifact_hash: slic_obs::ledger::content_hash(artifact_json.as_bytes()),
        snapshot,
    };
    slic_obs::ledger::append(path, &record).map_err(|err| {
        PipelineError::config(format!(
            "cannot append to ledger `{}`: {err}",
            path.display()
        ))
    })?;
    println!(
        "ledger: {kind} run recorded (fingerprint {}, artifact {}) -> {}",
        record.fingerprint,
        record.artifact_hash,
        path.display()
    );
    Ok(())
}

/// Prints the fleet's dispatch summary after a farmed run (the chaos CI job greps the
/// resilience counters out of this line).
fn report_farm(farm: &FarmBackend) {
    let stats = farm.stats();
    println!(
        "farm: {}/{} workers live; {} jobs dispatched, {} failovers; {} lanes remote, {} \
         lanes local fallback",
        farm.live_workers(),
        farm.fleet_size(),
        stats.jobs_completed,
        stats.failovers,
        stats.lanes_remote,
        stats.lanes_local,
    );
    println!(
        "farm resilience: {} reconnects, {} heartbeats missed, {} jobs degraded to local \
         solving",
        stats.reconnects, stats.heartbeats_missed, stats.degraded_jobs,
    );
}

/// Parses a 1-based `--shard i/n` specification into `(index, count)`.
fn parse_shard_spec(text: &str) -> Result<(usize, usize), PipelineError> {
    let bad = || {
        PipelineError::config(format!(
            "`--shard {text}` is not a shard specification; expected `i/n` with 1 <= i <= n, \
             e.g. `2/4`"
        ))
    };
    let (index, count) = text.split_once('/').ok_or_else(bad)?;
    let index: usize = index.trim().parse().map_err(|_| bad())?;
    let count: usize = count.trim().parse().map_err(|_| bad())?;
    if index == 0 || count == 0 || index > count {
        return Err(bad());
    }
    Ok((index, count))
}

fn cmd_learn(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    let wall = MonotonicClock::new();
    let config = build_config(flags)?.resolve()?;
    let obs = build_observability(&config)?;
    let (runner, farm) = build_runner(config, &obs)?;
    let learning = runner.learn();
    let out = flags
        .get("out")
        .map(String::as_str)
        .unwrap_or("history.json");
    let database_json = learning.database.to_json()?;
    std::fs::write(out, &database_json)?;
    // A failed cache write must fail the command, not just warn from a destructor:
    // later shard workers rely on the warm state being on disk.
    {
        let _span = obs.trace.span("cache.flush", &[]);
        runner.cache().persist()?;
    }
    println!(
        "learned {} records from {} technologies in {} simulations -> {out}",
        learning.database.len(),
        learning.database.technology_names().len(),
        learning.simulation_cost,
    );
    let snapshot = print_run_summary(&runner, farm.as_deref());
    append_run_record(
        runner.config(),
        "learn",
        wall.now_ns(),
        learning.simulation_cost,
        runner.cache().hits(),
        &database_json,
        snapshot,
    )?;
    Ok(())
}

/// Assembles the worker's fault-injection script from its `--fault-*` flags, `None` when
/// no fault flag was given.
fn build_fault_plan(flags: &BTreeMap<String, String>) -> Result<Option<FaultPlan>, PipelineError> {
    let parse = |flag: &str| -> Result<Option<u64>, PipelineError> {
        flags
            .get(flag)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| PipelineError::config(format!("`--{flag} {v}` is not an integer")))
            })
            .transpose()
    };
    let plan = FaultPlan {
        seed: parse("fault-seed")?.unwrap_or(0),
        drop_after_messages: parse("fault-drop-after")?,
        delay_ms: parse("fault-delay-ms")?,
        garbage_every: parse("fault-garbage-every")?,
        refuse_reconnects: parse("fault-refuse-reconnects")?.unwrap_or(0),
    };
    let scripted = plan.is_active() || flags.contains_key("fault-seed");
    Ok(scripted.then_some(plan))
}

fn cmd_worker(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    if flags.contains_key("spawned") {
        // A broker that spawns a worker passes `--spawned` and holds the write end of its
        // stdin without writing to it.  The kernel closes that end however the broker
        // ends (an orderly stop, SIGKILL, the OOM killer), and no broker dials this
        // port again after that, so the worker ends at stdin EOF.  The thread is never
        // joined: it ends the process, or the serve loop returns first.
        std::thread::spawn(|| {
            let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
            std::process::exit(0);
        });
    }
    let address = flags.get("listen").ok_or_else(|| {
        PipelineError::config("`slic worker` needs `--listen <addr>`, e.g. 127.0.0.1:0")
    })?;
    let max_batches = match flags.get("max-batches") {
        Some(v) => Some(v.parse::<u64>().map_err(|_| {
            PipelineError::config(format!("`--max-batches {v}` is not an integer"))
        })?),
        None => None,
    };
    let fault = build_fault_plan(flags)?;
    let trace = match flags.get("trace") {
        Some(path) => TraceRecorder::to_file(std::path::Path::new(path)).map_err(|err| {
            PipelineError::config(format!("cannot create trace file `{path}`: {err}"))
        })?,
        None => TraceRecorder::disabled(),
    };
    let listener = std::net::TcpListener::bind(address).map_err(|err| {
        PipelineError::config(format!("cannot bind worker to `{address}`: {err}"))
    })?;
    let bound = listener.local_addr()?;
    let options = WorkerOptions {
        name: format!("tcp:{bound}"),
        max_batches,
        fault,
        trace: trace.clone(),
    };
    // The broker (or a test) needs the resolved port when binding to :0.
    println!("{WORKER_BANNER}{bound}");
    use std::io::Write as _;
    std::io::stdout().flush()?;
    let outcome = serve_listener(&listener, &options)?;
    // Flush before interpreting the outcome: the abrupt-death branch below exits nonzero,
    // and the trace's salvaged prefix is exactly what `slic profile` reports.
    trace.flush();
    if outcome == ServeOutcome::BatchLimit {
        // An exhausted batch limit is a deliberate abrupt death: exit nonzero so process
        // supervisors (and the failover tests) can tell it apart from an orderly stop.
        return Err(PipelineError::config(
            "worker reached its --max-batches limit and dropped the connection",
        ));
    }
    Ok(())
}

fn cmd_cache_compact(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    let path = flags
        .get("cache")
        .ok_or_else(|| PipelineError::config("`slic cache compact` needs `--cache <file>`"))?;
    let options = CompactionOptions {
        drop_legacy: flags.contains_key("drop-legacy"),
        quarantine: flags.contains_key("quarantine"),
    };
    let trace = match flags.get("trace") {
        Some(out) => TraceRecorder::to_file(std::path::Path::new(out)).map_err(|err| {
            PipelineError::config(format!("cannot create trace file `{out}`: {err}"))
        })?,
        None => TraceRecorder::disabled(),
    };
    let report = {
        let _span = trace.span("cache.compact", &[("cache", path.clone())]);
        DiskSimCache::compact_with(path, options)?
    };
    trace.flush();
    println!(
        "compacted `{path}`: kept {} records, dropped {} superseded duplicates, evicted \
         {} legacy-kernel records, quarantined {} corrupt lines",
        report.kept, report.dropped, report.dropped_legacy, report.quarantined,
    );
    Ok(())
}

fn cmd_characterize(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    if flags.contains_key("shard") && flags.contains_key("liberty") {
        return Err(PipelineError::config(
            "`--liberty` with `--shard` would silently export a partial library; run the \
             shards, join them with `slic merge`, then render with `slic export`",
        ));
    }
    let wall = MonotonicClock::new();
    let config = build_config(flags)?.resolve()?;
    let export_grid = config.export_grid;
    let obs = build_observability(&config)?;
    let (runner, farm) = build_runner(config, &obs)?;
    let full_plan = CharacterizationPlan::from_config(runner.config())?;
    let plan = match flags.get("shard") {
        Some(spec) => {
            let (index, count) = parse_shard_spec(spec)?;
            let shard = full_plan.split(count)?.swap_remove(index - 1);
            println!(
                "shard {index}/{count}: {} of {} units over {} arcs of `{}` on {}",
                shard.len(),
                full_plan.len(),
                shard.arcs().len(),
                shard.library_name(),
                runner.config().technology.name(),
            );
            shard
        }
        None => {
            println!(
                "plan: {} units over {} arcs of `{}` on {}",
                full_plan.len(),
                full_plan.arcs().len(),
                full_plan.library_name(),
                runner.config().technology.name(),
            );
            full_plan
        }
    };

    let database = match flags.get("history") {
        Some(path) => {
            let _span = obs.trace.span("history.load", &[]);
            HistoricalDatabase::from_json(&std::fs::read_to_string(path)?)
                .map_err(|err| PipelineError::config(format!("cannot parse `{path}`: {err}")))?
        }
        None => {
            println!("no --history given; learning inline...");
            runner.learn().database
        }
    };

    let artifact = runner.characterize(&plan, &database)?;
    // Persist the (possibly disk-backed) cache before reporting success: shard workers
    // and reruns depend on it, and the drop-time flush can only warn.
    {
        let _span = obs.trace.span("cache.flush", &[]);
        runner.cache().persist()?;
    }
    let out = flags.get("out").map(String::as_str).unwrap_or("run.json");
    let artifact_json = {
        let _span = obs.trace.span("artifact.save", &[]);
        let artifact_json = artifact.to_json()?;
        std::fs::write(out, &artifact_json)?;
        artifact_json
    };
    println!(
        "characterized {}/{} arcs in {} simulations ({} cache hits) -> {out}",
        artifact.characterized.arcs.len(),
        plan.arcs().len(),
        runner.counter().count(),
        runner.cache().hits(),
    );
    if let Some(variation) = &artifact.variation {
        println!(
            "variation: {} Monte Carlo seeds, {} sigma/skew tables",
            variation.process_seeds,
            variation.tables.len(),
        );
    }
    // Post-run summary — kernel, dispatch, farm, resilience, metrics, in that
    // documented order (see `print_run_summary`).
    let snapshot = print_run_summary(&runner, farm.as_deref());
    append_run_record(
        runner.config(),
        "characterize",
        wall.now_ns(),
        runner.counter().count(),
        runner.cache().hits(),
        &artifact_json,
        snapshot,
    )?;
    if let Some(liberty_path) = flags.get("liberty") {
        if artifact.characterized.arcs.is_empty() {
            return Err(PipelineError::config(format!(
                "no arc obtained both delay and slew fits, so there is nothing to export to \
                 `{liberty_path}` (the run artifact `{out}` was still written); a Liberty \
                 export needs both metrics and a parameter-producing method (bayesian or lse)"
            )));
        }
        {
            let _span = obs.trace.span("liberty.export", &[]);
            let text = match &artifact.variation {
                Some(variation) if !variation.tables.is_empty() => artifact
                    .characterized
                    .to_liberty_with_variation(runner.engine(), export_grid, variation)?,
                _ => artifact
                    .characterized
                    .to_liberty(runner.engine(), export_grid)?,
            };
            std::fs::write(liberty_path, text)?;
        }
        // The summary flushed the trace already; this span closed after it.
        obs.trace.flush();
        println!("liberty -> {liberty_path}");
    }
    Ok(())
}

/// Argument splitter for `slic profile`: diff mode takes two positional trace files
/// after `--diff`; report mode takes one positional trace file before its flags.
fn cmd_profile_entry(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("--diff") {
        match (args.get(1), args.get(2)) {
            (Some(old), Some(new)) if !old.starts_with("--") && !new.starts_with("--") => {
                if let Err(message) = parse_flags(&args[3..], &[], &[]) {
                    eprintln!("error: {message}");
                    return ExitCode::from(2);
                }
                return cmd_profile_diff(old, new);
            }
            _ => {
                eprintln!(
                    "error: `slic profile --diff` needs two trace files, e.g. `slic profile \
                     --diff old.trace.jsonl new.trace.jsonl`"
                );
                return ExitCode::from(2);
            }
        }
    }
    match args.first().map(String::as_str) {
        Some(path) if !path.starts_with("--") => {
            let flags = match parse_flags(&args[1..], &["format", "top"], &[]) {
                Ok(flags) => flags,
                Err(message) => {
                    eprintln!("error: {message}");
                    return ExitCode::from(2);
                }
            };
            cmd_profile(path, &flags)
        }
        _ => {
            eprintln!(
                "error: `slic profile` needs a trace file, e.g. `slic profile run.trace.jsonl`"
            );
            ExitCode::from(2)
        }
    }
}

/// `slic profile <trace.jsonl>`: reconstruct the span tree of a trace sidecar.
///
/// A corrupt or truncated tail never hides the healthy prefix: every well-formed line
/// is salvaged into the report, the dropped-line count goes to stderr, and the exit
/// code is nonzero so CI can't mistake a damaged trace for a complete one.
fn cmd_profile(path: &str, flags: &BTreeMap<String, String>) -> ExitCode {
    let format = flags.get("format").map_or("md", String::as_str);
    if !matches!(format, "md" | "json" | "chrome") {
        eprintln!("error: unknown profile format `{format}` (expected md, json or chrome)");
        return ExitCode::from(2);
    }
    let top = match flags.get("top").map(|v| v.parse::<usize>()) {
        None => 10,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("error: `--top` expects an integer");
            return ExitCode::from(2);
        }
    };
    let parsed = match slic_obs::profile::load(std::path::Path::new(path)) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("error: cannot read trace `{path}`: {err}");
            return ExitCode::from(2);
        }
    };
    if parsed.records.is_empty() {
        eprintln!(
            "error: `{path}` contains no parseable trace records ({} corrupt line(s))",
            parsed.dropped
        );
        return ExitCode::from(2);
    }
    match format {
        // The Perfetto export is a direct re-encoding of the salvaged records; it
        // needs no report (and `--top` has nothing to truncate).
        "chrome" => print!("{}", slic_obs::perfetto::render_chrome(&parsed)),
        "json" => print!(
            "{}",
            slic_obs::profile::render_json(&slic_obs::profile::build_report(&parsed, top))
        ),
        _ => print!(
            "{}",
            slic_obs::profile::render_md(&slic_obs::profile::build_report(&parsed, top))
        ),
    }
    if parsed.dropped > 0 {
        eprintln!(
            "warning: dropped {} corrupt/truncated line(s) from `{path}`; the report \
             covers the salvaged prefix only",
            parsed.dropped
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `slic profile --diff <old> <new>`: regression-gate one trace against another.
///
/// Exits `FAILURE` on any gated regression (or a corrupt tail in either trace), `2`
/// on unreadable inputs — so CI distinguishes "slower" from "broken invocation".
fn cmd_profile_diff(old_path: &str, new_path: &str) -> ExitCode {
    let load = |path: &str| -> Result<(slic_obs::profile::ProfileReport, usize), String> {
        let parsed = slic_obs::profile::load(std::path::Path::new(path))
            .map_err(|err| format!("cannot read trace `{path}`: {err}"))?;
        if parsed.records.is_empty() {
            return Err(format!(
                "`{path}` contains no parseable trace records ({} corrupt line(s))",
                parsed.dropped
            ));
        }
        Ok((slic_obs::profile::build_report(&parsed, 0), parsed.dropped))
    };
    let ((old, old_dropped), (new, new_dropped)) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let report = slic_obs::diff::diff_profiles(&old, &new, &DiffThresholds::default());
    print!(
        "{}",
        report.render_md(&format!("profile diff: {old_path} -> {new_path}"))
    );
    let mut failed = !report.is_clean();
    if old_dropped + new_dropped > 0 {
        eprintln!(
            "warning: dropped {} corrupt/truncated line(s) across the two traces",
            old_dropped + new_dropped
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Argument splitter for `slic history`: one positional ledger file, then flags.
fn cmd_history_entry(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|p| !p.starts_with("--")) else {
        eprintln!("error: `slic history` needs a ledger file, e.g. `slic history runs.jsonl`");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(&args[1..], &["fingerprint"], &["diff"]) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    cmd_history(path, &flags)
}

/// Renders monotonic nanoseconds as seconds with millisecond resolution.
fn format_wall(ns: u64) -> String {
    format!(
        "{}.{:03}s",
        ns / 1_000_000_000,
        ns % 1_000_000_000 / 1_000_000
    )
}

/// `slic history <runs.jsonl>`: list the cross-run ledger, or (`--diff`) gate the
/// newest run against the previous run with the same config fingerprint and kind.
///
/// Alignment is by fingerprint and kind, never by position: the ledger interleaves runs
/// of different configs, and `learn` and `characterize` runs of one config share a
/// fingerprint; comparing across either would diff two different workloads.
fn cmd_history(path: &str, flags: &BTreeMap<String, String>) -> ExitCode {
    let parsed = match slic_obs::ledger::load(std::path::Path::new(path)) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("error: cannot read ledger `{path}`: {err}");
            return ExitCode::from(2);
        }
    };
    if parsed.records.is_empty() {
        eprintln!(
            "error: `{path}` holds no readable run records ({} dropped line(s))",
            parsed.dropped
        );
        return ExitCode::from(2);
    }
    let dropped_warning = |failed: bool| -> ExitCode {
        if parsed.dropped > 0 {
            eprintln!(
                "warning: dropped {} corrupt/truncated line(s) from `{path}`; the \
                 ledger covers the salvaged records only",
                parsed.dropped
            );
            return ExitCode::FAILURE;
        }
        if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    };
    if !flags.contains_key("diff") {
        println!("# run ledger: {path}\n");
        println!("| # | kind | fingerprint | profile | backend | seed | wall | sims paid | cached | artifact |");
        println!("|--:|------|-------------|---------|---------|------|-----:|----------:|-------:|----------|");
        for (index, record) in parsed.records.iter().enumerate() {
            println!(
                "| {} | {} | {} | {} | {} | {:016x} | {} | {} | {} | {} |",
                index + 1,
                record.kind,
                record.fingerprint,
                record.profile,
                record.backend,
                record.seed,
                format_wall(record.wall_ns),
                record.sims_paid,
                record.sims_cached,
                record.artifact_hash,
            );
        }
        return dropped_warning(false);
    }
    let wanted = flags.get("fingerprint");
    let Some(new) = parsed
        .records
        .iter()
        .rev()
        .find(|record| wanted.is_none_or(|fingerprint| record.fingerprint == *fingerprint))
    else {
        eprintln!(
            "error: ledger `{path}` holds no run with fingerprint {}; a diff needs two",
            wanted.map_or("", String::as_str)
        );
        return ExitCode::from(2);
    };
    let (fingerprint, kind) = (&new.fingerprint, &new.kind);
    let matching: Vec<_> = parsed
        .records
        .iter()
        .filter(|record| record.fingerprint == *fingerprint && record.kind == *kind)
        .collect();
    let [.., old, _] = matching[..] else {
        eprintln!(
            "error: ledger `{path}` holds 1 `{kind}` run with fingerprint {fingerprint}; a \
             diff needs two of one kind"
        );
        return ExitCode::from(2);
    };
    let report = slic_obs::diff::diff_runs(old, new, &DiffThresholds::default());
    print!(
        "{}",
        report.render_md(&format!(
            "history diff: fingerprint {fingerprint} ({} vs {kind})",
            old.kind
        ))
    );
    dropped_warning(!report.is_clean())
}

/// Argument splitter for `slic bench`: `diff <fresh.json> [<committed.json>]`.
fn cmd_bench_entry(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("diff") => {}
        Some(other) => {
            eprintln!("error: unknown bench action `{other}` (expected `diff`)");
            return ExitCode::from(2);
        }
        None => {
            eprintln!(
                "error: `slic bench` needs an action, e.g. `slic bench diff \
                 target/bench_fresh.json`"
            );
            return ExitCode::from(2);
        }
    }
    let Some(fresh) = args.get(1).filter(|p| !p.starts_with("--")) else {
        eprintln!(
            "error: `slic bench diff` needs a fresh report, e.g. `slic bench diff \
             target/bench_fresh.json [BENCH_transient.json]`"
        );
        return ExitCode::from(2);
    };
    let committed = match args.get(2) {
        Some(p) if !p.starts_with("--") => p.as_str(),
        Some(other) => {
            eprintln!("error: unexpected argument `{other}` for `slic bench diff`");
            return ExitCode::from(2);
        }
        None => "BENCH_transient.json",
    };
    if args.len() > 3 {
        eprintln!("error: `slic bench diff` takes at most two report paths");
        return ExitCode::from(2);
    }
    cmd_bench_diff(committed, fresh)
}

/// `slic bench diff <fresh.json> [<committed.json>]`: gate a fresh transient-kernel
/// bench report against the committed baseline.
///
/// Replaces `tools/bench_kernel_diff.py` with the same contract: one row per
/// committed `(variant, preset)` pair, a derived-speedup table, and a nonzero exit
/// when any fresh variant falls below half its committed throughput — the same
/// noise-tolerant floor the CI speedup gate applies.  A variant missing from the
/// fresh (reduced-mode) report is informational, not a regression.
fn cmd_bench_diff(committed_path: &str, fresh_path: &str) -> ExitCode {
    use serde_json::Value;
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read bench report `{path}`: {err}"))?;
        serde_json::from_str(&text).map_err(|err| format!("`{path}`: {err}"))
    };
    let (committed, fresh) = match (load(committed_path), load(fresh_path)) {
        (Ok(committed), Ok(fresh)) => (committed, fresh),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    // One (variant-name, preset) row per bench variant, in the report's file order.
    let variants = |report: &Value| -> Vec<(String, String, u64)> {
        let Some(items) = report.get("variants").and_then(Value::as_array) else {
            return Vec::new();
        };
        items
            .iter()
            .filter_map(|v| {
                // Whole sims/s: the committed rates carry fractions the gate ignores.
                let rate = v
                    .get("sims_per_sec")?
                    .as_f64()
                    .filter(|rate| *rate >= 0.0)?;
                Some((
                    v.get("name")?.as_str()?.to_string(),
                    v.get("config")?.as_str()?.to_string(),
                    rate as u64,
                ))
            })
            .collect()
    };
    let committed_variants = variants(&committed);
    let fresh_variants = variants(&fresh);
    if committed_variants.is_empty() {
        eprintln!("error: `{committed_path}` holds no bench variants");
        return ExitCode::from(2);
    }
    let mode = |report: &Value| match report.get("reduced") {
        Some(Value::Bool(true)) => "reduced",
        _ => "full",
    };
    let mut report = DiffReport::default();
    for (name, config, base) in &committed_variants {
        match fresh_variants
            .iter()
            .find(|(n, c, _)| n == name && c == config)
        {
            // Below half the committed throughput (a 50% drop) is the regression
            // floor; anything above it is run-to-run noise.
            Some((_, _, now)) => {
                report.push_drop_gated(&format!("{name}/{config} sims/s"), *base, *now, 50.0, 1)
            }
            None => report.push_info(&format!("{name}/{config} sims/s (missing)"), *base, 0),
        }
    }
    print!(
        "{}",
        report.render_md(&format!(
            "transient-kernel diff vs {committed_path} (committed {}, fresh {})",
            mode(&committed),
            mode(&fresh)
        ))
    );
    // The derived speedup ratios, committed vs fresh, for context (never gated: the
    // per-variant rows above already cover the regression surface).
    if let Some(speedups) = committed.get("speedups").and_then(Value::as_object) {
        println!("\n{:<44}{:>10}{:>10}", "speedup", "committed", "fresh");
        for (key, base) in speedups {
            let Some(base) = base.as_f64() else { continue };
            let now = match fresh.get("speedups").and_then(|s| s.get(key)) {
                Some(Value::Number(now)) => format!("{now:>9.2}x"),
                _ => format!("{:>10}", "(missing)"),
            };
            println!("{key:<44}{base:>9.2}x{now}");
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_merge(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    let inputs = flags
        .get("inputs")
        .ok_or_else(|| PipelineError::config("`slic merge` needs `--inputs a.json,b.json,...`"))?;
    let paths = comma_list(inputs);
    if paths.is_empty() {
        return Err(PipelineError::config("`--inputs` lists no artifact files"));
    }
    let mut shards = Vec::with_capacity(paths.len());
    for path in &paths {
        shards.push(RunArtifact::load(path).map_err(|err| {
            PipelineError::config(format!("cannot load shard artifact `{path}`: {err}"))
        })?);
    }
    let merged = RunArtifact::merge(&shards)?;
    let out = flags
        .get("out")
        .map(String::as_str)
        .unwrap_or("merged.json");
    merged.save(out)?;
    println!(
        "merged {} shards: {} of {} planned units, {} arcs characterized -> {out}",
        shards.len(),
        merged.units.len(),
        merged.planned_units,
        merged.characterized.arcs.len(),
    );
    Ok(())
}

/// Rebuilds the artifact's engine (technology + profile transient settings) for export.
fn engine_for(
    artifact: &RunArtifact,
) -> Result<(CharacterizationEngine, RunProfile), PipelineError> {
    let technology = TechnologyNode::by_name(&artifact.technology).ok_or_else(|| {
        PipelineError::config(format!(
            "artifact references unknown technology `{}`",
            artifact.technology
        ))
    })?;
    let profile = RunProfile::from_name(&artifact.profile).ok_or_else(|| {
        PipelineError::config(format!(
            "artifact references unknown profile `{}`",
            artifact.profile
        ))
    })?;
    let engine = CharacterizationEngine::with_config(technology, profile.transient())?;
    Ok((engine, profile))
}

fn cmd_export(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    let run_path = flags.get("run").map(String::as_str).unwrap_or("run.json");
    let artifact = RunArtifact::load(run_path)?;
    if artifact.is_partial() {
        return Err(PipelineError::config(format!(
            "`{run_path}` is a shard artifact covering {} of {} planned units; exporting \
             it would silently produce a partial library — join the shards with `slic \
             merge` first",
            artifact.units.len(),
            artifact.planned_units
        )));
    }
    if artifact.characterized.arcs.is_empty() {
        return Err(PipelineError::config(format!(
            "`{run_path}` contains no fully characterized arcs to export"
        )));
    }
    let (engine, profile) = engine_for(&artifact)?;
    let text = if flags.contains_key("variation") {
        let variation = artifact
            .variation
            .as_ref()
            .filter(|v| !v.tables.is_empty())
            .ok_or_else(|| {
                PipelineError::config(format!(
                    "`{run_path}` has no variation tables to export; rerun `slic \
                     characterize --variation` first"
                ))
            })?;
        artifact.characterized.to_liberty_with_variation(
            &engine,
            profile.export_grid(),
            variation,
        )?
    } else {
        artifact
            .characterized
            .to_liberty(&engine, profile.export_grid())?
    };
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, text)?;
            println!(
                "exported {} arcs of `{}` -> {path}",
                artifact.characterized.arcs.len(),
                artifact.library,
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_report(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    let run_path = flags.get("run").map(String::as_str).unwrap_or("run.json");
    let artifact = RunArtifact::load(run_path)?;
    print!("{}", artifact.summary_markdown());
    Ok(())
}
