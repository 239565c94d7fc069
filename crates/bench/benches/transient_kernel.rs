//! Transient-kernel throughput bench: the Monte Carlo sweep inner loop, measured five
//! ways — the seed's scalar RK4 kernel, and the embedded-pair kernel through the scalar
//! and the SIMD [`LocalBackend`], one lane per call and one point's seeds per call — at
//! both configuration presets.
//!
//! Beyond the console table, the bench writes the **`BENCH_transient.json`** artifact
//! (sims/sec, steps/sim, device-evals/sim, accuracy against the golden reference, and the
//! derived speedup ratios) so the kernel's performance is a committed, CI-gated number.
//!
//! Environment:
//!
//! * `BENCH_OUT` — artifact path (default `BENCH_transient.json` in the working directory);
//! * `BENCH_SMOKE=1` — reduced workload for CI smoke runs (also recorded in the artifact).
//!
//! Throughput is measured on one thread on purpose: thread fan-out multiplies every
//! kernel equally, and the single-thread number is the one the ROADMAP's "fast as the
//! hardware allows" target is about.

use slic::prelude::*;
use slic_bench::emit::{self, KernelWorkload, TransientBenchReport, VariantReport};
use slic_spice::{
    simulate_switching_rk4, LocalBackend, SimRequest, SimulationBackend, TransientStats,
};

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Workload {
    tech: Arc<TechnologyNode>,
    arc: TimingArc,
    points: Vec<InputPoint>,
    seeds: Vec<ProcessSample>,
    reduced: bool,
}

fn workload() -> Workload {
    let reduced = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (n_points, n_seeds) = if reduced { (2, 16) } else { (4, 64) };
    let tech = TechnologyNode::n28_bulk();
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let space = InputSpace::paper_space(tech.vdd_range());
    let mut rng = StdRng::seed_from_u64(20150313);
    let points = space.sample_latin_hypercube(&mut rng, n_points);
    let seeds = tech.variation().sample_n(&mut rng, n_seeds);
    Workload {
        tech: Arc::new(tech),
        arc,
        points,
        seeds,
        reduced,
    }
}

impl Workload {
    /// The sweep's lanes at `config`: one row of seeds per point, point-major.
    fn requests(&self, config: TransientConfig) -> Vec<Vec<SimRequest>> {
        self.points
            .iter()
            .map(|&point| {
                self.seeds
                    .iter()
                    .map(|&seed| SimRequest {
                        tech: self.tech.clone(),
                        cell: self.arc.cell(),
                        arc: self.arc,
                        point,
                        seed,
                        config,
                    })
                    .collect()
            })
            .collect()
    }
}

/// The variants: the seed RK4 kernel, then the embedded pair through the scalar
/// (`embedded_*`) or SIMD (`simd_*`) backend, one lane per call (`*_scalar`) or one
/// point's seeds per call (`*_batch`).  Every variant builds each lane's equivalent
/// inverter, as the pipeline's backend calls do.
const VARIANTS: [&str; 5] = [
    "rk4_scalar",
    "embedded_scalar",
    "embedded_batch",
    "simd_scalar",
    "simd_batch",
];

/// Runs one full (point × seed) sweep of `variant` over `rows`: the measurements in
/// point-major order and the kernel's work counters.
fn sweep(variant: &str, rows: &[Vec<SimRequest>]) -> (Vec<TimingMeasurement>, TransientStats) {
    if variant == "rk4_scalar" {
        let mut total = TransientStats::default();
        let measurements = rows
            .iter()
            .flatten()
            .map(|r| {
                let eq = EquivalentInverter::build(&r.tech, r.cell, &r.seed);
                let (m, s) = simulate_switching_rk4(&eq, &r.arc, &r.point, &r.config)
                    .expect("simulation completes");
                total.merge(&s);
                m
            })
            .collect();
        return (measurements, total);
    }
    let backend = LocalBackend::with_simd(variant.starts_with("simd"));
    let calls: Vec<&[SimRequest]> = if variant.ends_with("_batch") {
        rows.iter().map(Vec::as_slice).collect()
    } else {
        rows.iter().flatten().map(std::slice::from_ref).collect()
    };
    let measurements = calls
        .into_iter()
        .flat_map(|call| backend.solve_batch(call))
        .map(|lane| lane.expect("simulation completes"))
        .collect();
    let k = backend
        .kernel_stats()
        .expect("the local backend counts its work");
    let stats = TransientStats {
        steps: k.steps,
        rejected_steps: k.rejected_steps,
        device_evals: k.device_evals,
    };
    (measurements, stats)
}

/// Seconds each timed pass must cover so timer granularity and scheduler noise stay well
/// below the gate thresholds (the reduced CI workload finishes one sweep in well under a
/// millisecond — far too short to time on a shared runner).
const MIN_PASS_SECONDS: f64 = 0.05;

/// Times `run`, repeated enough times per pass to cover [`MIN_PASS_SECONDS`], over
/// `reps` passes; returns the fastest per-sweep seconds (least scheduler noise).
#[expect(
    clippy::disallowed_methods,
    reason = "a throughput bench times the kernel on the wall clock"
)]
fn best_of(reps: usize, mut run: impl FnMut()) -> f64 {
    // Calibration pass sizes the repetition count.
    let start = Instant::now();
    run();
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let iters = (MIN_PASS_SECONDS / once).ceil().max(1.0) as usize;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            run();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

struct Accuracy {
    max_delay_pct: f64,
    max_slew_pct: f64,
}

fn accuracy_vs(golden: &[TimingMeasurement], measured: &[TimingMeasurement]) -> Accuracy {
    let mut acc = Accuracy {
        max_delay_pct: 0.0,
        max_slew_pct: 0.0,
    };
    for (g, m) in golden.iter().zip(measured) {
        let d = 100.0 * (m.delay.value() / g.delay.value() - 1.0).abs();
        let s = 100.0 * (m.output_slew.value() / g.output_slew.value() - 1.0).abs();
        acc.max_delay_pct = acc.max_delay_pct.max(d);
        acc.max_slew_pct = acc.max_slew_pct.max(s);
    }
    acc
}

fn main() {
    println!("Transient kernel throughput (BENCH_transient.json)\n");
    let w = workload();
    let sims = w.points.len() * w.seeds.len();
    let reps = if w.reduced { 3 } else { 5 };
    println!(
        "workload: {} {} arc, {} points x {} seeds = {} sims/variant ({} mode)\n",
        w.arc.cell(),
        w.arc.output_transition(),
        w.points.len(),
        w.seeds.len(),
        sims,
        if w.reduced { "reduced" } else { "full" },
    );

    // Golden reference: seed RK4 at the accurate preset, point-major lane order.
    let (golden, _) = sweep("rk4_scalar", &w.requests(TransientConfig::accurate()));

    let mut variants: Vec<VariantReport> = Vec::new();
    for (config_name, config) in [
        ("fast", TransientConfig::fast()),
        ("accurate", TransientConfig::accurate()),
    ] {
        let rows = w.requests(config);
        for name in VARIANTS {
            let (measurements, stats) = sweep(name, &rows);
            let accuracy = accuracy_vs(&golden, &measurements);
            let elapsed = best_of(reps, || {
                std::hint::black_box(sweep(name, &rows));
            });
            let report = VariantReport {
                name: name.to_string(),
                config: config_name.to_string(),
                sims_per_sec: sims as f64 / elapsed,
                steps_per_sim: stats.steps as f64 / sims as f64,
                rejected_steps_per_sim: stats.rejected_steps as f64 / sims as f64,
                device_evals_per_sim: stats.device_evals as f64 / sims as f64,
                max_delay_err_vs_golden_pct: accuracy.max_delay_pct,
                max_slew_err_vs_golden_pct: accuracy.max_slew_pct,
            };
            println!(
                "{:<16} {:<9} {:>12.0} sims/s  {:>7.1} steps/sim  {:>8.1} evals/sim  delay err {:.4}%  slew err {:.4}%",
                report.name,
                report.config,
                report.sims_per_sec,
                report.steps_per_sim,
                report.device_evals_per_sim,
                report.max_delay_err_vs_golden_pct,
                report.max_slew_err_vs_golden_pct,
            );
            variants.push(report);
        }
    }

    let ratio = |fast: &str, slow: &str, config: &str| -> Option<(String, f64)> {
        let fast_v = variants
            .iter()
            .find(|v| v.name == fast && v.config == config)?;
        let slow_v = variants
            .iter()
            .find(|v| v.name == slow && v.config == config)?;
        Some((
            format!("{fast}_vs_{slow}_{config}"),
            fast_v.sims_per_sec / slow_v.sims_per_sec,
        ))
    };
    let speedups: BTreeMap<String, f64> = [
        ratio("embedded_scalar", "rk4_scalar", "fast"),
        ratio("embedded_batch", "rk4_scalar", "fast"),
        ratio("embedded_scalar", "rk4_scalar", "accurate"),
        ratio("embedded_batch", "rk4_scalar", "accurate"),
        ratio("simd_batch", "embedded_batch", "fast"),
        ratio("simd_batch", "rk4_scalar", "fast"),
        ratio("simd_batch", "embedded_batch", "accurate"),
        ratio("simd_batch", "rk4_scalar", "accurate"),
    ]
    .into_iter()
    .flatten()
    .collect();

    println!();
    for (name, ratio) in &speedups {
        println!("{name:<44} {ratio:.2}x");
    }

    let report = TransientBenchReport {
        schema: emit::TRANSIENT_SCHEMA,
        reduced: w.reduced,
        workload: KernelWorkload {
            cell: w.arc.cell().to_string(),
            arc: w.arc.output_transition().to_string(),
            tech: w.tech.name().to_string(),
            points: w.points.len(),
            seeds: w.seeds.len(),
            sims_per_variant: sims,
        },
        variants,
        speedups,
    };
    let out = std::env::var("BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            // Default into the workspace root (the bench's working directory is the crate).
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_transient.json")
        });
    emit::write(&out, &report).expect("artifact written");
    println!("\nwrote {}", out.display());
}
