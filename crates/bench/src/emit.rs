//! Machine-readable bench artifacts (`BENCH_*.json`), written through derived
//! `Serialize` and `serde_json` by [`to_json`].
//!
//! The transient-kernel bench records its measurements as a JSON artifact so the speedup
//! is a committed, regression-gated number rather than a claim in a commit message: CI
//! re-runs the bench in reduced mode and fails if throughput or accuracy regresses against
//! the committed `BENCH_transient.json` (see the "Performance" section of the README for
//! the schema).  The `paper` bench writes `BENCH_paper.json` the same way.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// The `schema` value of `BENCH_transient.json`.
pub const TRANSIENT_SCHEMA: &str = "slic-bench/transient-kernel/v1";

/// Measurements of one kernel variant at one configuration preset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VariantReport {
    /// Kernel variant: `rk4_scalar`, `embedded_scalar` or `embedded_batch`.
    pub name: String,
    /// Configuration preset: `fast` or `accurate`.
    pub config: String,
    /// Transient simulations completed per wall-clock second (single thread).
    pub sims_per_sec: f64,
    /// Mean accepted integration steps per simulation.
    pub steps_per_sim: f64,
    /// Mean rejected step attempts per simulation (zero for RK4, which has no error
    /// control).
    pub rejected_steps_per_sim: f64,
    /// Mean transistor-model evaluations per simulation.
    pub device_evals_per_sim: f64,
    /// Worst relative delay error against the golden reference (seed RK4, accurate
    /// preset), in percent.
    pub max_delay_err_vs_golden_pct: f64,
    /// Worst relative output-slew error against the golden reference, in percent.
    pub max_slew_err_vs_golden_pct: f64,
}

/// The sweep every variant of the transient-kernel bench runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KernelWorkload {
    /// Cell whose arc was simulated.
    pub cell: String,
    /// Arc transition direction.
    pub arc: String,
    /// Technology node name.
    pub tech: String,
    /// Input points in the Monte Carlo sweep.
    pub points: usize,
    /// Process seeds per input point.
    pub seeds: usize,
    /// Simulations per variant and preset: `points * seeds`.
    pub sims_per_variant: usize,
}

/// The complete transient-kernel bench artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TransientBenchReport {
    /// Always [`TRANSIENT_SCHEMA`].
    pub schema: &'static str,
    /// Whether the bench ran in CI's reduced smoke mode.
    pub reduced: bool,
    /// The measured sweep.
    pub workload: KernelWorkload,
    /// Per-variant measurements.
    pub variants: Vec<VariantReport>,
    /// Derived throughput ratios keyed by name, e.g. `embedded_batch_vs_rk4_scalar_fast`
    /// (dimensionless, > 1 means faster).
    pub speedups: BTreeMap<String, f64>,
}

impl TransientBenchReport {
    /// The variant entry for `(name, config)`, if measured.
    pub fn variant(&self, name: &str, config: &str) -> Option<&VariantReport> {
        self.variants
            .iter()
            .find(|v| v.name == name && v.config == config)
    }

    /// The named speedup ratio, if derived.
    pub fn speedup(&self, name: &str) -> Option<f64> {
        self.speedups.get(name).copied()
    }
}

/// Renders a bench artifact as pretty-printed JSON with a trailing newline.  A
/// non-finite number (a variant too fast to time, say) is written as `0`, since JSON has
/// no encoding for it.
pub fn to_json(report: &impl Serialize) -> String {
    fn finite(value: &mut Value) {
        match value {
            Value::Number(n) if !n.is_finite() => *n = 0.0,
            Value::Array(items) => items.iter_mut().for_each(finite),
            Value::Object(entries) => entries.iter_mut().for_each(|(_, v)| finite(v)),
            _ => {}
        }
    }
    let mut value = report.to_value();
    finite(&mut value);
    let mut json = serde_json::to_string_pretty(&value).expect("every number is finite");
    json.push('\n');
    json
}

/// Writes a bench artifact to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write(path: &Path, report: &impl Serialize) -> io::Result<()> {
    std::fs::write(path, to_json(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TransientBenchReport {
        TransientBenchReport {
            schema: TRANSIENT_SCHEMA,
            reduced: true,
            workload: KernelWorkload {
                cell: "NAND2_X1".to_string(),
                arc: "fall".to_string(),
                tech: "n28_bulk".to_string(),
                points: 2,
                seeds: 8,
                sims_per_variant: 16,
            },
            variants: vec![VariantReport {
                name: "rk4_scalar".to_string(),
                config: "fast".to_string(),
                sims_per_sec: 1234.5,
                steps_per_sim: 190.25,
                rejected_steps_per_sim: 0.0,
                device_evals_per_sim: 1522.0,
                max_delay_err_vs_golden_pct: 0.9,
                max_slew_err_vs_golden_pct: 0.1,
            }],
            speedups: BTreeMap::from([("embedded_batch_vs_rk4_scalar_fast".to_string(), 5.5)]),
        }
    }

    #[test]
    fn artifact_is_valid_json() {
        let json = to_json(&sample_report());
        let value: serde::Value = serde_json::from_str(&json).expect("artifact must parse");
        let serde::Value::Object(map) = value else {
            panic!("artifact must be a JSON object");
        };
        assert!(map.iter().any(|(k, _)| k == "schema"));
        assert!(map.iter().any(|(k, _)| k == "variants"));
        assert!(map.iter().any(|(k, _)| k == "speedups"));
    }

    #[test]
    fn lookup_helpers_find_entries() {
        let report = sample_report();
        assert!(report.variant("rk4_scalar", "fast").is_some());
        assert!(report.variant("rk4_scalar", "accurate").is_none());
        assert_eq!(
            report.speedup("embedded_batch_vs_rk4_scalar_fast"),
            Some(5.5)
        );
        assert_eq!(report.speedup("missing"), None);
    }

    #[test]
    fn non_finite_numbers_are_sanitized() {
        let mut report = sample_report();
        report.variants[0].sims_per_sec = f64::NAN;
        report.variants[0].steps_per_sim = f64::INFINITY;
        report.variants[0].device_evals_per_sim = 2.5;
        let value: Value = serde_json::from_str(&to_json(&report)).unwrap();
        let variant = &value.get("variants").unwrap().as_array().unwrap()[0];
        let number = |key: &str| variant.get(key).and_then(Value::as_f64);
        assert_eq!(number("sims_per_sec"), Some(0.0));
        assert_eq!(number("steps_per_sim"), Some(0.0));
        assert_eq!(number("device_evals_per_sim"), Some(2.5));
    }

    #[test]
    fn write_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("slic_bench_emit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_transient.json");
        let report = sample_report();
        write(&path, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, to_json(&report));
        std::fs::remove_file(&path).ok();
    }
}
