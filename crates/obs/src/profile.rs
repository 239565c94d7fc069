//! The analysis side of the trace schema: the trace reader and the report builder
//! behind `slic profile <trace.jsonl>`.
//!
//! Trace lines are salvaged by [`crate::jsonl`], the file discipline the ledger and
//! `DiskSimCache` share, and each parses through `serde_json`.  A trace cut short — worker
//! killed mid-write, disk filled — parses to its longest well-formed prefix: every
//! unparseable line is *counted and dropped*, never silently absorbed, and the CLI
//! exits nonzero when any line was dropped so CI cannot mistake a truncated trace for a
//! complete one.

use crate::jsonl::{self, Salvaged};
use crate::metrics::Histogram;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Span vs instantaneous event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A timed span: a start and a duration.
    Span,
    /// An instantaneous event.
    Event,
}

/// One decoded trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Span or event.
    pub kind: RecordKind,
    /// The record's id, unique within its trace.
    pub id: u64,
    /// The id of the enclosing span; `None` for a root.
    pub parent: Option<u64>,
    /// The process-local id of the recording thread.
    pub thread: u64,
    /// The span or event name, e.g. `solve_batch`.
    pub name: String,
    /// Span start / event timestamp, nanoseconds since recorder origin.
    pub start_ns: u64,
    /// Span duration; zero for events.
    pub dur_ns: u64,
    /// The record's string attributes, in trace order.
    pub attrs: Vec<(String, String)>,
}

/// Parses a whole trace, salvaging every well-formed line.  Any dropped line makes
/// `slic profile` exit nonzero.
pub fn parse_trace(text: &str) -> Salvaged<TraceRecord> {
    jsonl::salvage(text, |line| {
        decode_record(&serde_json::from_str(line).ok()?)
    })
}

/// Reads and parses the trace at `path` under a shared advisory lock.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be opened or read.
pub fn load(path: &Path) -> std::io::Result<Salvaged<TraceRecord>> {
    Ok(parse_trace(&jsonl::read(path)?))
}

fn decode_record(json: &Value) -> Option<TraceRecord> {
    let kind = match json.get("type")?.as_str()? {
        "span" => RecordKind::Span,
        "event" => RecordKind::Event,
        _ => return None,
    };
    let attrs = match json.get("attrs") {
        Some(Value::Object(fields)) => fields
            .iter()
            .map(|(key, value)| Some((key.clone(), value.as_str()?.to_string())))
            .collect::<Option<Vec<_>>>()?,
        _ => Vec::new(),
    };
    Some(TraceRecord {
        kind,
        id: json.get("id")?.as_u64()?,
        parent: json.get("parent").and_then(Value::as_u64),
        thread: json.get("thread")?.as_u64()?,
        name: json.get("name")?.as_str()?.to_string(),
        start_ns: match kind {
            RecordKind::Span => json.get("start_ns")?.as_u64()?,
            RecordKind::Event => json.get("at_ns")?.as_u64()?,
        },
        dur_ns: match kind {
            RecordKind::Span => json.get("dur_ns")?.as_u64()?,
            RecordKind::Event => 0,
        },
        attrs,
    })
}

fn attr<'a>(record: &'a TraceRecord, key: &str) -> Option<&'a str> {
    record
        .attrs
        .iter()
        .find(|(name, _)| name == key)
        .map(|(_, value)| value.as_str())
}

/// One row of the phase breakdown: every span name, with counts and total time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// The span name.
    pub name: String,
    /// Spans of that name.
    pub count: u64,
    /// Their summed duration, nanoseconds.
    pub total_ns: u64,
}

/// One row of the hottest-units table, keyed by the unit span's `(cell, arc)` attrs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitRow {
    /// The unit span's `cell` attr.
    pub cell: String,
    /// The unit span's `arc` attr.
    pub arc: String,
    /// Unit spans of that (cell, arc).
    pub count: u64,
    /// Their summed duration, nanoseconds.
    pub total_ns: u64,
}

/// One row of the worker timeline, keyed by the `worker` attr of farm spans.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerRow {
    /// The farm spans' `worker` attr.
    pub worker: String,
    /// Completed `farm.roundtrip` spans.
    pub jobs: u64,
    /// Lanes carried by those round trips.
    pub lanes: u64,
    /// Time inside round trips — the busy side of the utilization split.
    pub busy_ns: u64,
    /// Heartbeat probes recorded against this worker.
    pub heartbeats: u64,
    /// Redial campaigns recorded against this worker.
    pub redials: u64,
    /// `busy_ns` over the whole trace wall span, percent.
    pub utilization_pct: f64,
}

/// Cache effectiveness, read from the end-of-run `metrics` event (with the raw
/// solve-batch span attrs as a fallback for partial traces).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheReport {
    /// Lanes answered from the cache.
    pub hits: u64,
    /// Lanes the cache could not answer.
    pub misses: u64,
    /// Hits on records loaded from a persistent cache (`cache.hits.warm`).
    pub warm_hits: u64,
    /// `hits` over all lookups, percent.
    pub hit_ratio_pct: f64,
    /// The `cache.lookup.hit_lanes` histogram, when the metrics event carried one.
    pub lookup_histogram: Option<Histogram>,
}

/// The reconstructed profile of one trace.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Wall span of the trace: latest end minus earliest start.
    pub total_ns: u64,
    /// Span records.
    pub spans: u64,
    /// Event records.
    pub events: u64,
    /// Unparseable lines dropped from the trace.
    pub dropped: u64,
    /// Distinct recording threads.
    pub threads: u64,
    /// Per-span-name totals, longest first.
    pub phases: Vec<PhaseRow>,
    /// The hottest units, longest first.
    pub units: Vec<UnitRow>,
    /// Farm workers' round trips and utilization.
    pub workers: Vec<WorkerRow>,
    /// Cache effectiveness.
    pub cache: CacheReport,
    /// The raw end-of-run metrics snapshot attrs, verbatim and sorted.
    pub metrics: Vec<(String, String)>,
}

/// Builds the report: phase breakdown, top-`top_n` hottest units, per-worker
/// utilization, cache effectiveness.
pub fn build_report(parsed: &Salvaged<TraceRecord>, top_n: usize) -> ProfileReport {
    let records = &parsed.records;
    let mut report = ProfileReport {
        dropped: parsed.dropped as u64,
        ..ProfileReport::default()
    };
    let mut earliest = u64::MAX;
    let mut latest = 0u64;
    let mut threads: BTreeMap<u64, ()> = BTreeMap::new();
    for record in records {
        earliest = earliest.min(record.start_ns);
        latest = latest.max(record.start_ns + record.dur_ns);
        threads.insert(record.thread, ());
        match record.kind {
            RecordKind::Span => report.spans += 1,
            RecordKind::Event => report.events += 1,
        }
    }
    report.threads = threads.len() as u64;
    report.total_ns = latest.saturating_sub(if earliest == u64::MAX { 0 } else { earliest });

    // Phase breakdown: aggregate every span by name.
    let mut phases: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for record in records.iter().filter(|r| r.kind == RecordKind::Span) {
        let entry = phases.entry(&record.name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += record.dur_ns;
    }
    report.phases = phases
        .into_iter()
        .map(|(name, (count, total_ns))| PhaseRow {
            name: name.to_string(),
            count,
            total_ns,
        })
        .collect();
    report
        .phases
        .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));

    // Hottest (cell, arc) units.
    let mut units: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
    for record in records
        .iter()
        .filter(|r| r.kind == RecordKind::Span && r.name == "unit")
    {
        let cell = attr(record, "cell").unwrap_or("?").to_string();
        let arc = attr(record, "arc").unwrap_or("?").to_string();
        let entry = units.entry((cell, arc)).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += record.dur_ns;
    }
    report.units = units
        .into_iter()
        .map(|((cell, arc), (count, total_ns))| UnitRow {
            cell,
            arc,
            count,
            total_ns,
        })
        .collect();
    report
        .units
        .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.cell.cmp(&b.cell)));
    report.units.truncate(top_n);

    // Worker utilization/idle timeline from farm spans.
    let mut workers: BTreeMap<String, WorkerRow> = BTreeMap::new();
    for record in records.iter().filter(|r| r.kind == RecordKind::Span) {
        let Some(worker) = attr(record, "worker") else {
            continue;
        };
        let row = workers
            .entry(worker.to_string())
            .or_insert_with(|| WorkerRow {
                worker: worker.to_string(),
                jobs: 0,
                lanes: 0,
                busy_ns: 0,
                heartbeats: 0,
                redials: 0,
                utilization_pct: 0.0,
            });
        match record.name.as_str() {
            "farm.roundtrip" => {
                row.jobs += 1;
                row.busy_ns += record.dur_ns;
                row.lanes += attr(record, "lanes")
                    .and_then(|lanes| lanes.parse::<u64>().ok())
                    .unwrap_or(0);
            }
            "farm.heartbeat" => row.heartbeats += 1,
            "farm.redial" => row.redials += 1,
            _ => {}
        }
    }
    report.workers = workers.into_values().collect();
    for row in &mut report.workers {
        row.utilization_pct = if report.total_ns == 0 {
            0.0
        } else {
            100.0 * row.busy_ns as f64 / report.total_ns as f64
        };
    }
    report
        .workers
        .sort_by(|a, b| b.busy_ns.cmp(&a.busy_ns).then(a.worker.cmp(&b.worker)));

    // Cache effectiveness: prefer the terminal metrics event; fall back to summing
    // the solve-batch span attrs when the run died before writing it.
    if let Some(metrics) = records
        .iter()
        .rev()
        .find(|r| r.kind == RecordKind::Event && r.name == "metrics")
    {
        report.metrics = metrics.attrs.clone();
        report.metrics.sort();
        let counter = |name: &str| {
            attr(metrics, name)
                .and_then(|value| value.parse::<u64>().ok())
                .unwrap_or(0)
        };
        report.cache.hits = counter("cache.hits");
        report.cache.misses = counter("cache.misses");
        report.cache.warm_hits = counter("cache.hits.warm");
        report.cache.lookup_histogram =
            attr(metrics, "cache.lookup.hit_lanes").and_then(Histogram::decode);
    } else {
        for record in records
            .iter()
            .filter(|r| r.kind == RecordKind::Span && r.name == "solve_batch")
        {
            let lanes = |key: &str| {
                attr(record, key)
                    .and_then(|value| value.parse::<u64>().ok())
                    .unwrap_or(0)
            };
            report.cache.hits += lanes("cached");
            report.cache.misses += lanes("lanes").saturating_sub(lanes("cached"));
        }
    }
    let looked_up = report.cache.hits + report.cache.misses;
    report.cache.hit_ratio_pct = if looked_up == 0 {
        0.0
    } else {
        100.0 * report.cache.hits as f64 / looked_up as f64
    };
    report
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1_000_000.0)
}

/// Renders the report as Markdown (`--format md`, the default).
pub fn render_md(report: &ProfileReport) -> String {
    let mut out = String::from("# slic profile\n\n");
    out.push_str(&format!(
        "- wall span: {} ms across {} thread(s)\n- records: {} span(s), {} event(s), {} dropped line(s)\n\n",
        ms(report.total_ns),
        report.threads,
        report.spans,
        report.events,
        report.dropped,
    ));
    out.push_str("## Phase breakdown\n\n| span | count | total (ms) |\n|---|---:|---:|\n");
    for row in &report.phases {
        out.push_str(&format!(
            "| {} | {} | {} |\n",
            row.name,
            row.count,
            ms(row.total_ns)
        ));
    }
    if !report.units.is_empty() {
        out.push_str(
            "\n## Hottest units\n\n| cell | arc | units | total (ms) |\n|---|---|---:|---:|\n",
        );
        for row in &report.units {
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                row.cell,
                row.arc,
                row.count,
                ms(row.total_ns)
            ));
        }
    }
    if !report.workers.is_empty() {
        out.push_str(
            "\n## Worker timeline\n\n| worker | jobs | lanes | busy (ms) | util % | heartbeats | redials |\n|---|---:|---:|---:|---:|---:|---:|\n",
        );
        for row in &report.workers {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.1} | {} | {} |\n",
                row.worker,
                row.jobs,
                row.lanes,
                ms(row.busy_ns),
                row.utilization_pct,
                row.heartbeats,
                row.redials,
            ));
        }
    }
    out.push_str(&format!(
        "\n## Cache effectiveness\n\n- hits: {} ({} warm), misses: {}, hit ratio: {:.1} %\n",
        report.cache.hits, report.cache.warm_hits, report.cache.misses, report.cache.hit_ratio_pct,
    ));
    if let Some(histogram) = &report.cache.lookup_histogram {
        out.push_str(&format!(
            "- lookup hit-lanes histogram: {} lookup(s), {} hit lane(s), p50={} p95={} max={}\n",
            histogram.total,
            histogram.sum,
            histogram.quantile(0.50),
            histogram.quantile(0.95),
            histogram.max,
        ));
    }
    if !report.metrics.is_empty() {
        out.push_str("\n## Metrics snapshot\n\n| metric | value |\n|---|---|\n");
        for (name, value) in &report.metrics {
            // Histogram attrs render as a readable percentile summary; the raw
            // encoding stays available via `--format json`.
            match Histogram::decode(value) {
                Some(histogram) => out.push_str(&format!(
                    "| {name} | total={} sum={} p50={} p95={} max={} |\n",
                    histogram.total,
                    histogram.sum,
                    histogram.quantile(0.50),
                    histogram.quantile(0.95),
                    histogram.max,
                )),
                None => out.push_str(&format!("| {name} | {value} |\n")),
            }
        }
    }
    out
}

/// Renders the report as JSON (`--format json`) — hand-rolled, stable field order.
pub fn render_json(report: &ProfileReport) -> String {
    use crate::trace::escape_json as esc;
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"total_ns\":{},\"threads\":{},\"spans\":{},\"events\":{},\"dropped\":{}",
        report.total_ns, report.threads, report.spans, report.events, report.dropped
    ));
    out.push_str(",\"phases\":[");
    for (i, row) in report.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{}}}",
            esc(&row.name),
            row.count,
            row.total_ns
        ));
    }
    out.push_str("],\"units\":[");
    for (i, row) in report.units.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"cell\":\"{}\",\"arc\":\"{}\",\"count\":{},\"total_ns\":{}}}",
            esc(&row.cell),
            esc(&row.arc),
            row.count,
            row.total_ns
        ));
    }
    out.push_str("],\"workers\":[");
    for (i, row) in report.workers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"worker\":\"{}\",\"jobs\":{},\"lanes\":{},\"busy_ns\":{},\"utilization_pct\":{:.3},\"heartbeats\":{},\"redials\":{}}}",
            esc(&row.worker),
            row.jobs,
            row.lanes,
            row.busy_ns,
            row.utilization_pct,
            row.heartbeats,
            row.redials
        ));
    }
    out.push_str(&format!(
        "],\"cache\":{{\"hits\":{},\"misses\":{},\"warm_hits\":{},\"hit_ratio_pct\":{:.3},\"lookup_histogram_total\":{},\"lookup_histogram_sum\":{}}}",
        report.cache.hits,
        report.cache.misses,
        report.cache.warm_hits,
        report.cache.hit_ratio_pct,
        report
            .cache
            .lookup_histogram
            .as_ref()
            .map_or(0, |histogram| histogram.total),
        report
            .cache
            .lookup_histogram
            .as_ref()
            .map_or(0, |histogram| histogram.sum),
    ));
    out.push_str(",\"metrics\":{");
    for (i, (name, value)) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{}\"", esc(name), esc(value)));
    }
    out.push_str("}}");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(
        id: u64,
        parent: Option<u64>,
        name: &str,
        start: u64,
        dur: u64,
        attrs: &str,
    ) -> String {
        let parent = parent.map_or(String::new(), |p| format!("\"parent\":{p},"));
        format!(
            "{{\"type\":\"span\",\"id\":{id},{parent}\"thread\":1,\"name\":\"{name}\",\"start_ns\":{start},\"dur_ns\":{dur},\"attrs\":{{{attrs}}}}}"
        )
    }

    #[test]
    fn truncated_tail_is_salvaged_and_counted() {
        let text = format!(
            "{}\n{}\n{{\"type\":\"span\",\"id\":9,\"thr",
            span_line(1, None, "characterize", 0, 100, ""),
            span_line(
                2,
                Some(1),
                "unit",
                10,
                30,
                "\"cell\":\"INV_X1\",\"arc\":\"fall@0\""
            ),
        );
        let parsed = parse_trace(&text);
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.dropped, 1);
    }

    #[test]
    fn report_reconstructs_phases_units_workers_and_cache() {
        let lines = [
            span_line(1, None, "characterize", 0, 1000, ""),
            span_line(2, Some(1), "unit", 10, 300, "\"cell\":\"INV_X1\",\"arc\":\"fall@0\""),
            span_line(3, Some(1), "unit", 20, 500, "\"cell\":\"NAND2_X1\",\"arc\":\"rise@1\""),
            span_line(4, Some(2), "solve_batch", 30, 100, "\"lanes\":\"8\",\"cached\":\"3\""),
            span_line(5, Some(4), "farm.roundtrip", 40, 80, "\"worker\":\"spawned-0\",\"lanes\":\"5\""),
            span_line(6, Some(4), "farm.heartbeat", 35, 2, "\"worker\":\"spawned-0\",\"ok\":\"true\""),
            "{\"type\":\"event\",\"id\":7,\"thread\":1,\"name\":\"metrics\",\"at_ns\":990,\"attrs\":{\"cache.hits\":\"3\",\"cache.misses\":\"5\",\"cache.hits.warm\":\"1\",\"cache.lookup.hit_lanes\":\"total=1;sum=3;bounds=2,8;counts=0,1;overflow=0\"}}".to_string(),
        ];
        let parsed = parse_trace(&lines.join("\n"));
        assert_eq!(parsed.dropped, 0);
        let report = build_report(&parsed, 10);
        assert_eq!(report.spans, 6);
        assert_eq!(report.events, 1);
        assert_eq!(report.total_ns, 1000);
        assert_eq!(report.phases[0].name, "characterize");
        assert_eq!(report.units.len(), 2);
        assert_eq!(report.units[0].cell, "NAND2_X1", "hottest unit first");
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].jobs, 1);
        assert_eq!(report.workers[0].lanes, 5);
        assert_eq!(report.workers[0].heartbeats, 1);
        assert!((report.workers[0].utilization_pct - 8.0).abs() < 1e-9);
        assert_eq!(report.cache.hits, 3);
        assert_eq!(report.cache.warm_hits, 1);
        assert!((report.cache.hit_ratio_pct - 37.5).abs() < 1e-9);
        assert_eq!(
            report.cache.lookup_histogram.as_ref().map(|h| h.sum),
            Some(3)
        );
    }

    #[test]
    fn top_n_truncates_the_unit_table() {
        let lines = [
            span_line(1, None, "unit", 0, 10, "\"cell\":\"A\",\"arc\":\"x\""),
            span_line(2, None, "unit", 0, 30, "\"cell\":\"B\",\"arc\":\"y\""),
            span_line(3, None, "unit", 0, 20, "\"cell\":\"C\",\"arc\":\"z\""),
        ];
        let report = build_report(&parse_trace(&lines.join("\n")), 2);
        assert_eq!(report.units.len(), 2);
        assert_eq!(report.units[0].cell, "B");
        assert_eq!(report.units[1].cell, "C");
    }

    #[test]
    fn cache_falls_back_to_span_attrs_without_a_metrics_event() {
        let line = span_line(
            1,
            None,
            "solve_batch",
            0,
            10,
            "\"lanes\":\"8\",\"cached\":\"2\"",
        );
        let report = build_report(&parse_trace(&line), 5);
        assert_eq!(report.cache.hits, 2);
        assert_eq!(report.cache.misses, 6);
    }

    #[test]
    fn renderers_emit_their_headline_fields() {
        let lines = [
            span_line(1, None, "characterize", 0, 100, ""),
            span_line(
                2,
                Some(1),
                "farm.roundtrip",
                5,
                50,
                "\"worker\":\"w0\",\"lanes\":\"4\"",
            ),
        ];
        let report = build_report(&parse_trace(&lines.join("\n")), 5);
        let md = render_md(&report);
        assert!(md.contains("## Phase breakdown"));
        assert!(md.contains("| w0 |"));
        let json_text = render_json(&report);
        let parsed: Value = serde_json::from_str(&json_text).expect("self-parseable JSON");
        assert_eq!(parsed.get("spans").and_then(Value::as_u64), Some(2));
        let workers = parsed
            .get("workers")
            .and_then(Value::as_array)
            .expect("workers array");
        assert_eq!(workers.len(), 1);
    }
}
