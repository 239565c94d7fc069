//! The cross-run regression gate: threshold-driven comparison of two runs.
//!
//! Two surfaces share this machinery.  `slic profile --diff old.jsonl new.jsonl`
//! compares two *trace profiles* (total wall, per-phase wall, cache behaviour);
//! `slic history --diff` compares the last two *ledger records* with the same config
//! fingerprint (wall, sims paid, cache hit rate, counter drift, artifact identity).
//! Both produce a [`DiffReport`] whose regressions drive a nonzero exit — the bench
//! gate (`slic bench diff`) generalized into a surface any CI job can point at any
//! two runs.
//!
//! Thresholds are deliberately asymmetric: wall time is noisy (CI machines, thermal
//! state), so its gate is loose; deterministic counters of a fixed seed are
//! exactly reproducible, so their gate is tight.  Rows below the noise floors are
//! reported but never gated — a 2 ms span doubling or a 3-miss cache drifting by one
//! is timer/jitter noise, not a regression.

use crate::ledger::RunRecord;
use crate::profile::ProfileReport;
use std::fmt::Write as _;

/// Regression thresholds.  Both CLI gates use the [`Default`] set (50 % wall, 10 %
/// counters, 5 points of hit rate); tests pass their own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffThresholds {
    /// Maximum tolerated wall-time increase, percent (applies to total wall and
    /// per-phase wall rows).
    pub wall_pct: f64,
    /// Maximum tolerated increase for gated counters, percent.
    pub counter_pct: f64,
    /// Maximum tolerated cache-hit-rate drop, percentage points.
    pub hit_rate_drop_pct: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        Self {
            wall_pct: 50.0,
            counter_pct: 10.0,
            hit_rate_drop_pct: 5.0,
        }
    }
}

/// Wall rows whose baseline is below this are never gated: sub-10 ms spans swing by
/// integer factors on timer noise alone.
const MIN_GATED_WALL_NS: u64 = 10_000_000;
/// Counter rows whose baseline is below this are never gated.
const MIN_GATED_COUNT: u64 = 16;
/// Hit-rate rows are gated only when the baseline saw at least this many lookups.
const MIN_GATED_LOOKUPS: u64 = 16;

/// Counters where an *increase* signals a regression (more cache misses, more
/// deferred lanes, more farm failovers, more kernel work for the same seed).  All
/// other counters diff informationally.
const GATED_COUNTERS: &[&str] = &[
    "cache.misses",
    "dispatch.lanes.deferred",
    "farm.degraded_jobs",
    "farm.failovers",
    "farm.heartbeats_missed",
    "farm.reconnects",
    "kernel.device_evals",
    "kernel.rejected_steps",
    "kernel.steps",
];

/// One compared quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// What was compared (`wall`, `phase:unit`, `cache.misses`, ...).
    pub name: String,
    /// Baseline value.
    pub old: u64,
    /// Candidate value.
    pub new: u64,
    /// Relative change, percent; positive means the candidate is larger.
    pub delta_pct: f64,
    /// Whether this row participates in the regression verdict.
    pub gated: bool,
    /// Whether this row tripped its threshold.
    pub regressed: bool,
}

/// The comparison result: every row plus the human-readable regression list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// All compared rows, in presentation order.
    pub rows: Vec<DeltaRow>,
    /// One sentence per tripped gate; empty means the candidate passes.
    pub regressions: Vec<String>,
}

fn delta_pct(old: u64, new: u64) -> f64 {
    if old == 0 {
        if new == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new as f64 - old as f64) / old as f64 * 100.0
    }
}

impl DiffReport {
    /// Whether no gated row tripped its threshold.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Adds an ungated, informational row.
    pub fn push_info(&mut self, name: &str, old: u64, new: u64) {
        self.rows.push(DeltaRow {
            name: name.to_string(),
            old,
            new,
            delta_pct: delta_pct(old, new),
            gated: false,
            regressed: false,
        });
    }

    /// Adds a row where an *increase* beyond `max_rise_pct` percent is a regression
    /// (wall time, cache misses, farm failovers).  Baselines below `floor` report
    /// but never gate.
    pub fn push_rise_gated(
        &mut self,
        name: &str,
        old: u64,
        new: u64,
        max_rise_pct: f64,
        floor: u64,
    ) {
        let pct = delta_pct(old, new);
        let gated = old >= floor;
        let regressed = gated && pct > max_rise_pct;
        if regressed {
            self.regressions.push(format!(
                "{name} rose {pct:.1}% ({old} -> {new}), over the {max_rise_pct:.1}% gate"
            ));
        }
        self.rows.push(DeltaRow {
            name: name.to_string(),
            old,
            new,
            delta_pct: pct,
            gated,
            regressed,
        });
    }

    /// Adds a row where a *drop* beyond `max_drop_pct` percent is a regression
    /// (throughput, hit counts).  Baselines below `floor` report but never gate.
    pub fn push_drop_gated(
        &mut self,
        name: &str,
        old: u64,
        new: u64,
        max_drop_pct: f64,
        floor: u64,
    ) {
        let pct = delta_pct(old, new);
        let gated = old >= floor;
        let regressed = gated && pct < -max_drop_pct;
        if regressed {
            self.regressions.push(format!(
                "{name} fell {:.1}% ({old} -> {new}), over the {max_drop_pct:.1}% gate",
                -pct
            ));
        }
        self.rows.push(DeltaRow {
            name: name.to_string(),
            old,
            new,
            delta_pct: pct,
            gated,
            regressed,
        });
    }

    /// Adds an always-gated identity row: any difference is a regression (used for
    /// artifact hashes, where drift under one fingerprint means lost determinism).
    pub fn push_identity(&mut self, name: &str, old: &str, new: &str) {
        let same = old == new;
        if !same {
            self.regressions.push(format!(
                "{name} changed ({old} -> {new}) for the same config fingerprint — determinism break"
            ));
        }
        // Identity rows carry a 0/1 "matches" indicator rather than magnitudes.
        self.rows.push(DeltaRow {
            name: format!("{name}.matches"),
            old: 1,
            new: u64::from(same),
            delta_pct: if same { 0.0 } else { -100.0 },
            gated: true,
            regressed: !same,
        });
    }

    /// Renders the report as a markdown table plus verdict, deterministic.
    pub fn render_md(&self, title: &str) -> String {
        let mut out = format!("# {title}\n\n");
        out.push_str("| quantity | old | new | delta | gate |\n");
        out.push_str("|---|---:|---:|---:|---|\n");
        for row in &self.rows {
            let delta = if row.delta_pct.is_infinite() {
                "+inf".to_string()
            } else {
                format!("{:+.1}%", row.delta_pct)
            };
            let gate = match (row.gated, row.regressed) {
                (_, true) => "REGRESSED",
                (true, false) => "ok",
                (false, false) => "info",
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                row.name, row.old, row.new, delta, gate
            );
        }
        out.push('\n');
        if self.regressions.is_empty() {
            out.push_str("verdict: clean — no gated quantity crossed its threshold\n");
        } else {
            let _ = writeln!(out, "verdict: {} regression(s)", self.regressions.len());
            for regression in &self.regressions {
                let _ = writeln!(out, "  - {regression}");
            }
        }
        out
    }
}

/// Compares two trace profiles: total wall, per-phase wall (aligned by phase name),
/// cache hits/misses and hit rate.
pub fn diff_profiles(
    old: &ProfileReport,
    new: &ProfileReport,
    thresholds: &DiffThresholds,
) -> DiffReport {
    let mut report = DiffReport::default();
    report.push_rise_gated(
        "wall",
        old.total_ns,
        new.total_ns,
        thresholds.wall_pct,
        MIN_GATED_WALL_NS,
    );
    for old_phase in &old.phases {
        let Some(new_phase) = new.phases.iter().find(|p| p.name == old_phase.name) else {
            report.push_info(
                &format!("phase:{} (gone)", old_phase.name),
                old_phase.total_ns,
                0,
            );
            continue;
        };
        report.push_rise_gated(
            &format!("phase:{}", old_phase.name),
            old_phase.total_ns,
            new_phase.total_ns,
            thresholds.wall_pct,
            MIN_GATED_WALL_NS,
        );
    }
    for new_phase in &new.phases {
        if !old.phases.iter().any(|p| p.name == new_phase.name) {
            report.push_info(
                &format!("phase:{} (new)", new_phase.name),
                0,
                new_phase.total_ns,
            );
        }
    }
    report.push_info("cache.hits", old.cache.hits, new.cache.hits);
    report.push_rise_gated(
        "cache.misses",
        old.cache.misses,
        new.cache.misses,
        thresholds.counter_pct,
        MIN_GATED_COUNT,
    );
    diff_hit_rate(
        &mut report,
        old.cache.hits,
        old.cache.misses,
        new.cache.hits,
        new.cache.misses,
        thresholds,
    );
    report
}

/// Compares two ledger records of the same fingerprint: wall, sims paid vs cached,
/// hit rate, artifact identity, and drift over every shared counter.
pub fn diff_runs(old: &RunRecord, new: &RunRecord, thresholds: &DiffThresholds) -> DiffReport {
    let mut report = DiffReport::default();
    report.push_rise_gated(
        "wall_ns",
        old.wall_ns,
        new.wall_ns,
        thresholds.wall_pct,
        MIN_GATED_WALL_NS,
    );
    report.push_rise_gated(
        "sims_paid",
        old.sims_paid,
        new.sims_paid,
        thresholds.counter_pct,
        MIN_GATED_COUNT,
    );
    report.push_info("sims_cached", old.sims_cached, new.sims_cached);
    diff_hit_rate(
        &mut report,
        old.sims_cached,
        old.sims_paid,
        new.sims_cached,
        new.sims_paid,
        thresholds,
    );
    report.push_identity("artifact_hash", &old.artifact_hash, &new.artifact_hash);
    // Counter drift: gated counters always diff; others only show when they moved,
    // so a zero-drift report stays short enough to read.
    for (name, old_value) in &old.snapshot.counters {
        let Some(new_value) = new.counter(name) else {
            continue;
        };
        if GATED_COUNTERS.contains(&name.as_str()) {
            report.push_rise_gated(
                name,
                *old_value,
                new_value,
                thresholds.counter_pct,
                MIN_GATED_COUNT,
            );
        } else if new_value != *old_value {
            report.push_info(name, *old_value, new_value);
        }
    }
    report
}

/// Shared hit-rate gate: rate in percent, regression when it drops by more than
/// `hit_rate_drop_pct` percentage points on a baseline of enough lookups.
fn diff_hit_rate(
    report: &mut DiffReport,
    old_hits: u64,
    old_misses: u64,
    new_hits: u64,
    new_misses: u64,
    thresholds: &DiffThresholds,
) {
    let rate = |hits: u64, misses: u64| -> f64 {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64 * 100.0
        }
    };
    let old_rate = rate(old_hits, old_misses);
    let new_rate = rate(new_hits, new_misses);
    let drop = old_rate - new_rate;
    let gated = old_hits + old_misses >= MIN_GATED_LOOKUPS;
    let regressed = gated && drop > thresholds.hit_rate_drop_pct;
    if regressed {
        report.regressions.push(format!(
            "cache hit rate fell {drop:.1} points ({old_rate:.1}% -> {new_rate:.1}%), over the {:.1}-point gate",
            thresholds.hit_rate_drop_pct
        ));
    }
    report.rows.push(DeltaRow {
        name: "cache.hit_rate_pct".to_string(),
        old: old_rate.round() as u64,
        new: new_rate.round() as u64,
        delta_pct: new_rate - old_rate,
        gated,
        regressed,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn record(wall_ns: u64, paid: u64, cached: u64, misses: u64, hash: &str) -> RunRecord {
        let metrics = MetricsRegistry::new();
        metrics.counter_set("cache.misses", misses);
        metrics.counter_set("engine.batches", 100);
        RunRecord {
            kind: "characterize".to_string(),
            fingerprint: "f".repeat(16),
            seed: 1,
            profile: "quick".to_string(),
            backend: "local".to_string(),
            wall_ns,
            sims_paid: paid,
            sims_cached: cached,
            artifact_hash: hash.to_string(),
            snapshot: metrics.snapshot(),
        }
    }

    #[test]
    fn identical_runs_diff_clean() {
        let a = record(1_000_000_000, 100, 400, 100, "abc");
        let report = diff_runs(&a, &a.clone(), &DiffThresholds::default());
        assert!(report.is_clean(), "{:?}", report.regressions);
        assert_eq!(report.rows.iter().filter(|r| r.regressed).count(), 0);
    }

    #[test]
    fn wall_slowdown_past_threshold_regresses() {
        let old = record(1_000_000_000, 100, 400, 100, "abc");
        let new = record(2_000_000_000, 100, 400, 100, "abc");
        let report = diff_runs(&old, &new, &DiffThresholds::default());
        assert!(!report.is_clean());
        assert!(
            report.regressions[0].contains("wall_ns"),
            "{:?}",
            report.regressions
        );
        // A looser gate lets the same slowdown through.
        let loose = DiffThresholds {
            wall_pct: 150.0,
            ..DiffThresholds::default()
        };
        assert!(diff_runs(&old, &new, &loose).is_clean());
    }

    #[test]
    fn tiny_baselines_report_but_never_gate() {
        // 2 ms wall doubling and a 3-miss counter doubling: both under their floors.
        let old = record(2_000_000, 100, 400, 3, "abc");
        let new = record(4_000_000, 100, 400, 6, "abc");
        let report = diff_runs(&old, &new, &DiffThresholds::default());
        assert!(report.is_clean(), "{:?}", report.regressions);
        let wall = report.rows.iter().find(|r| r.name == "wall_ns").unwrap();
        assert!(!wall.gated);
        assert_eq!(wall.new, 4_000_000);
    }

    #[test]
    fn hit_rate_drop_past_threshold_regresses() {
        let old = record(1_000_000_000, 100, 400, 100, "abc"); // 80% hit rate
        let new = record(1_000_000_000, 200, 300, 100, "abc"); // 60% hit rate
        let report = diff_runs(&old, &new, &DiffThresholds::default());
        assert!(
            report.regressions.iter().any(|r| r.contains("hit rate")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn artifact_hash_drift_is_always_a_regression() {
        let old = record(1_000_000_000, 100, 400, 100, "abc");
        let new = record(1_000_000_000, 100, 400, 100, "xyz");
        let report = diff_runs(&old, &new, &DiffThresholds::default());
        assert!(
            report.regressions.iter().any(|r| r.contains("determinism")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn ungated_counters_only_surface_when_they_move() {
        let old = record(1_000_000_000, 100, 400, 100, "abc");
        let mut new = record(1_000_000_000, 100, 400, 100, "abc");
        let report = diff_runs(&old, &new, &DiffThresholds::default());
        assert!(!report.rows.iter().any(|r| r.name == "engine.batches"));
        new.snapshot.counters = vec![
            ("cache.misses".to_string(), 100),
            ("engine.batches".to_string(), 120),
        ];
        let report = diff_runs(&old, &new, &DiffThresholds::default());
        let row = report
            .rows
            .iter()
            .find(|r| r.name == "engine.batches")
            .expect("moved counter surfaces");
        assert!(!row.gated);
        assert!(report.is_clean());
    }

    #[test]
    fn render_lists_regressions_and_is_deterministic() {
        let old = record(1_000_000_000, 100, 400, 100, "abc");
        let new = record(3_000_000_000, 100, 400, 100, "abc");
        let report = diff_runs(&old, &new, &DiffThresholds::default());
        let rendered = report.render_md("slic history diff");
        assert_eq!(rendered, report.render_md("slic history diff"));
        assert!(rendered.contains("REGRESSED"), "{rendered}");
        assert!(rendered.contains("verdict: 1 regression(s)"), "{rendered}");
    }
}
