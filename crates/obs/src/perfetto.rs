//! Chrome trace-event export: `slic profile trace.jsonl --format chrome`.
//!
//! Emits the JSON object format (`{"traceEvents":[...]}`) that ui.perfetto.dev and
//! `chrome://tracing` ingest directly.  Spans become `ph:"X"` complete events and
//! trace events become `ph:"i"` instants, both on thread tracks keyed by the
//! recorder's stable small-int thread ids — so a farmed run's dispatcher and worker
//! threads land on separate, consistently-named tracks, and span nesting falls out
//! of `ts`/`dur` containment exactly as the recorder emitted it.
//!
//! Timestamps: trace-event `ts`/`dur` are microseconds.  The recorder's nanosecond
//! values are rendered as fixed-point `micros.nnn` strings via integer math — no
//! float formatting, so export is deterministic down to the byte.

use crate::jsonl::Salvaged;
use crate::profile::{RecordKind, TraceRecord};
use crate::trace::escape_json;
use std::fmt::Write as _;

/// Renders a parsed trace as Chrome trace-event JSON.
///
/// Output is deterministic: one `ph:"M"` thread-name metadata row per thread id
/// (ascending), then every record in file order.  Span ids and parent ids are
/// preserved under `args` so the original correlation survives the export.
pub fn render_chrome(parsed: &Salvaged<TraceRecord>) -> String {
    let mut threads: Vec<u64> = parsed.records.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let mut out = String::with_capacity(parsed.records.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for thread in &threads {
        push_separator(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{thread},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"thread {thread}\"}}}}"
        );
    }
    for record in &parsed.records {
        push_separator(&mut out, &mut first);
        match record.kind {
            RecordKind::Span => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"slic\",\
                     \"ts\":{},\"dur\":{},\"args\":{{",
                    record.thread,
                    escape_json(&record.name),
                    micros(record.start_ns),
                    micros(record.dur_ns),
                );
            }
            RecordKind::Event => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\
                     \"cat\":\"slic\",\"ts\":{},\"args\":{{",
                    record.thread,
                    escape_json(&record.name),
                    micros(record.start_ns),
                );
            }
        }
        let _ = write!(out, "\"span_id\":\"{}\"", record.id);
        if let Some(parent) = record.parent {
            let _ = write!(out, ",\"parent_id\":\"{parent}\"");
        }
        for (key, value) in &record.attrs {
            let _ = write!(out, ",\"{}\":\"{}\"", escape_json(key), escape_json(value));
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

fn push_separator(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// Nanoseconds as a fixed-point microsecond literal (`123.456`), integer math only.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::parse_trace;
    use serde_json::Value;

    fn sample_trace() -> Salvaged<TraceRecord> {
        let text = concat!(
            "{\"type\":\"span\",\"id\":1,\"thread\":0,\"name\":\"characterize\",\"start_ns\":1000,\"dur_ns\":9000,\"attrs\":{\"units\":\"2\"}}\n",
            "{\"type\":\"span\",\"id\":2,\"parent\":1,\"thread\":1,\"name\":\"unit\",\"start_ns\":2000,\"dur_ns\":3000,\"attrs\":{\"cell\":\"INV_X1\"}}\n",
            "{\"type\":\"event\",\"id\":3,\"parent\":1,\"thread\":0,\"name\":\"progress\",\"at_ns\":4500,\"attrs\":{\"units_done\":\"1\"}}\n",
        );
        let parsed = parse_trace(text);
        assert_eq!(parsed.dropped, 0);
        parsed
    }

    fn events(rendered: &str) -> Vec<Value> {
        let doc: Value = serde_json::from_str(rendered).expect("chrome export is valid JSON");
        match doc.get("traceEvents") {
            Some(Value::Array(events)) => events.clone(),
            other => panic!("traceEvents array expected, got {other:?}"),
        }
    }

    #[test]
    fn export_round_trips_as_json_with_thread_tracks_and_nesting() {
        let rendered = render_chrome(&sample_trace());
        let events = events(&rendered);
        // 2 thread metadata rows + 2 spans + 1 instant.
        assert_eq!(events.len(), 5);

        let metadata: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .collect();
        assert_eq!(metadata.len(), 2);
        assert_eq!(
            metadata[0]
                .get("args")
                .unwrap()
                .get("name")
                .unwrap()
                .as_str(),
            Some("thread 0")
        );

        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        let root = spans[0];
        let child = spans[1];
        assert_eq!(root.get("tid").unwrap().as_u64(), Some(0));
        assert_eq!(child.get("tid").unwrap().as_u64(), Some(1));
        // Nesting preserved: the child's [ts, ts+dur] window sits inside the root's.
        let window = |span: &Value| -> (f64, f64) {
            let ts = match span.get("ts") {
                Some(Value::Number(ts)) => *ts,
                other => panic!("numeric ts expected, got {other:?}"),
            };
            let dur = match span.get("dur") {
                Some(Value::Number(dur)) => *dur,
                other => panic!("numeric dur expected, got {other:?}"),
            };
            (ts, ts + dur)
        };
        let (root_start, root_end) = window(root);
        let (child_start, child_end) = window(child);
        assert!(root_start <= child_start && child_end <= root_end);
        // Parent correlation survives under args.
        assert_eq!(
            child
                .get("args")
                .unwrap()
                .get("parent_id")
                .unwrap()
                .as_str(),
            Some("1")
        );

        let instant = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("i"))
            .expect("instant event");
        assert_eq!(instant.get("name").unwrap().as_str(), Some("progress"));
        assert_eq!(
            instant
                .get("args")
                .unwrap()
                .get("units_done")
                .unwrap()
                .as_str(),
            Some("1")
        );
    }

    #[test]
    fn timestamps_are_fixed_point_microseconds() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(4500), "4.500");
        assert_eq!(micros(1_234_567), "1234.567");
        let rendered = render_chrome(&sample_trace());
        assert!(rendered.contains("\"ts\":1.000"), "{rendered}");
        assert!(rendered.contains("\"dur\":9.000"), "{rendered}");
        // Determinism down to the byte.
        assert_eq!(rendered, render_chrome(&sample_trace()));
    }
}
