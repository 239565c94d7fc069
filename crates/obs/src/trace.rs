//! The structured trace recorder: spans and events as JSON lines.
//!
//! Design constraints, in order:
//!
//! 1. **Display-only.**  A recorder never influences a result path; artifacts are
//!    byte-identical with tracing on or off.  Everything here is best-effort — a full
//!    disk drops trace lines, never the run.
//! 2. **Crash-safe framing.**  Every record is rendered into one `String` (terminated
//!    by `\n`) and written with a single `write_all` under the sink lock, so a panic
//!    or a killed worker leaves a well-formed JSON-lines *prefix* plus at most one
//!    torn final line — which `slic profile` salvages and reports.
//! 3. **Free when disabled.**  [`TraceRecorder::disabled`] carries no allocation and
//!    every call exits on one `Option` check; the engine can call it per batch without
//!    budgeting for it.
//! 4. **No forbidden reads.**  Timestamps come from the [`Clock`] trait (monotonic,
//!    origin = recorder construction) and thread ids from a process-local counter
//!    handed out on first use — never `thread::current`, which D1 bans.
//!
//! Record schema (one JSON object per line; `parent` omitted for roots):
//!
//! ```json
//! {"type":"span","id":7,"parent":3,"thread":2,"name":"solve_batch",
//!  "start_ns":120,"dur_ns":450,"attrs":{"lanes":"16"}}
//! {"type":"event","id":9,"parent":3,"thread":2,"name":"metrics","at_ns":990,"attrs":{}}
//! ```
//!
//! A span line is written when its [`SpanGuard`] drops — so an *unfinished* span (its
//! thread panicked, its process died) is simply absent, never half-written.  Parent
//! correlation uses a per-thread stack of open span ids; work crossing threads (rayon
//! work units, farm dispatchers) passes an explicit parent via
//! [`TraceRecorder::span_under`].

use crate::clock::{Clock, MonotonicClock};
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Process-wide thread-id dispenser: each thread takes the next id the first time it
/// records anything.  Small, stable within a run, and free of `thread::current`.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

fn current_parent() -> Option<u64> {
    SPAN_STACK.with(|stack| stack.borrow().last().copied())
}

/// Escapes `text` for embedding inside a JSON string literal.
///
/// The inverse is `serde_json`'s string parser; a proptest pins the round trip
/// for names and attribute values containing quotes, backslashes and control bytes.
pub fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out
}

struct Shared {
    clock: Box<dyn Clock>,
    sink: Mutex<Box<dyn Write + Send>>,
    next_id: AtomicU64,
}

impl Shared {
    fn write_line(&self, line: &str) {
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Best-effort: telemetry never fails a run.
        let _ = sink.write_all(line.as_bytes());
    }
}

/// The opt-in span/event recorder.  Clones share one sink and one id space.
#[derive(Clone, Default)]
pub struct TraceRecorder {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("enabled", &self.shared.is_some())
            .finish()
    }
}

impl TraceRecorder {
    /// The no-op recorder: every span/event call returns immediately.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recorder appending JSON lines to a fresh file at `path` (truncating any
    /// previous trace), timed by a [`MonotonicClock`] started now.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the sidecar file cannot be created.
    pub fn to_file(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::with_sink(
            Box::new(MonotonicClock::new()),
            Box::new(std::io::BufWriter::new(file)),
        ))
    }

    /// A recorder over an explicit clock and sink — the test constructor.
    pub fn with_sink(clock: Box<dyn Clock>, sink: Box<dyn Write + Send>) -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                clock,
                sink: Mutex::new(sink),
                next_id: AtomicU64::new(1),
            })),
        }
    }

    /// Whether this recorder writes anywhere.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Opens a span parented under the current thread's innermost open span.
    ///
    /// The span line is written when the returned guard drops; attributes added later
    /// via [`SpanGuard::attr`] are included.
    pub fn span(&self, name: &str, attrs: &[(&str, String)]) -> SpanGuard {
        self.span_inner(name, attrs, current_parent(), true)
    }

    /// Opens a span under an explicit parent id — for work that crosses threads
    /// (rayon units, farm dispatchers), where the opener's stack is not the parent.
    pub fn span_under(
        &self,
        parent: Option<u64>,
        name: &str,
        attrs: &[(&str, String)],
    ) -> SpanGuard {
        self.span_inner(name, attrs, parent, true)
    }

    fn span_inner(
        &self,
        name: &str,
        attrs: &[(&str, String)],
        parent: Option<u64>,
        push: bool,
    ) -> SpanGuard {
        let Some(shared) = &self.shared else {
            return SpanGuard::noop();
        };
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        if push {
            SPAN_STACK.with(|stack| stack.borrow_mut().push(id));
        }
        SpanGuard {
            shared: Some(Arc::clone(shared)),
            id,
            parent,
            name: name.to_string(),
            start_ns: shared.clock.now_ns(),
            attrs: attrs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
            on_stack: push,
        }
    }

    /// Writes an instantaneous event line immediately.
    pub fn event(&self, name: &str, attrs: &[(&str, String)]) {
        let Some(shared) = &self.shared else {
            return;
        };
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let mut line = format!("{{\"type\":\"event\",\"id\":{id}");
        if let Some(parent) = current_parent() {
            line.push_str(&format!(",\"parent\":{parent}"));
        }
        line.push_str(&format!(
            ",\"thread\":{},\"name\":\"{}\",\"at_ns\":{}",
            thread_id(),
            escape_json(name),
            shared.clock.now_ns(),
        ));
        render_attrs(&mut line, attrs.iter().map(|(k, v)| (*k, v.as_str())));
        line.push_str("}\n");
        shared.write_line(&line);
    }

    /// Flushes the sink (spans already dropped are on disk afterwards).
    pub fn flush(&self) {
        if let Some(shared) = &self.shared {
            let mut sink = shared
                .sink
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let _ = sink.flush();
        }
    }
}

fn render_attrs<'a>(line: &mut String, attrs: impl Iterator<Item = (&'a str, &'a str)>) {
    line.push_str(",\"attrs\":{");
    for (i, (key, value)) in attrs.enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('"');
        line.push_str(&escape_json(key));
        line.push_str("\":\"");
        line.push_str(&escape_json(value));
        line.push('"');
    }
    line.push('}');
}

/// An open span.  Dropping it writes the complete span line (id, parent, thread,
/// start, duration, attrs) in one atomic `write_all`.
pub struct SpanGuard {
    shared: Option<Arc<Shared>>,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    attrs: Vec<(String, String)>,
    on_stack: bool,
}

impl SpanGuard {
    fn noop() -> Self {
        Self {
            shared: None,
            id: 0,
            parent: None,
            name: String::new(),
            start_ns: 0,
            attrs: Vec::new(),
            on_stack: false,
        }
    }

    /// The span id to parent cross-thread children under; `None` when disabled.
    pub fn id(&self) -> Option<u64> {
        self.shared.as_ref().map(|_| self.id)
    }

    /// Nanoseconds since the span opened (0 when disabled) — the duration feed for
    /// latency histograms, without any caller touching a clock type.
    pub fn elapsed_ns(&self) -> u64 {
        self.shared.as_ref().map_or(0, |shared| {
            shared.clock.now_ns().saturating_sub(self.start_ns)
        })
    }

    /// Adds an attribute discovered mid-span (e.g. cache hit counts known only after
    /// the lookup pass).
    pub fn attr(&mut self, key: &str, value: String) {
        if self.shared.is_some() {
            self.attrs.push((key.to_string(), value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.on_stack {
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                if let Some(position) = stack.iter().rposition(|&id| id == self.id) {
                    stack.remove(position);
                }
            });
        }
        let Some(shared) = self.shared.take() else {
            return;
        };
        let dur_ns = shared.clock.now_ns().saturating_sub(self.start_ns);
        let mut line = format!("{{\"type\":\"span\",\"id\":{}", self.id);
        if let Some(parent) = self.parent {
            line.push_str(&format!(",\"parent\":{parent}"));
        }
        line.push_str(&format!(
            ",\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}",
            thread_id(),
            escape_json(&self.name),
            self.start_ns,
            dur_ns,
        ));
        render_attrs(
            &mut line,
            self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str())),
        );
        line.push_str("}\n");
        shared.write_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    /// A `Write` sink tests can read back out from under the recorder.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        pub(crate) fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).expect("trace output is UTF-8")
        }
    }

    fn recorder() -> (TraceRecorder, SharedBuf, Arc<ManualClock>) {
        let buf = SharedBuf::default();
        let clock = Arc::new(ManualClock::new());
        struct ArcClock(Arc<ManualClock>);
        impl Clock for ArcClock {
            fn now_ns(&self) -> u64 {
                self.0.now_ns()
            }
        }
        let recorder = TraceRecorder::with_sink(
            Box::new(ArcClock(Arc::clone(&clock))),
            Box::new(buf.clone()),
        );
        (recorder, buf, clock)
    }

    #[test]
    fn disabled_recorder_writes_nothing_and_costs_no_ids() {
        let recorder = TraceRecorder::disabled();
        assert!(!recorder.is_enabled());
        let mut span = recorder.span("anything", &[("k", "v".to_string())]);
        span.attr("later", "x".to_string());
        assert_eq!(span.id(), None);
        assert_eq!(span.elapsed_ns(), 0);
        recorder.event("evt", &[]);
        recorder.flush();
    }

    #[test]
    fn span_line_carries_timing_parent_and_attrs() {
        let (recorder, buf, clock) = recorder();
        {
            let outer = recorder.span("outer", &[]);
            clock.advance(100);
            {
                let mut inner = recorder.span("inner", &[("lanes", "4".to_string())]);
                clock.advance(50);
                assert_eq!(inner.elapsed_ns(), 50);
                inner.attr("cached", "2".to_string());
            }
            clock.advance(10);
            drop(outer);
        }
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "inner closes first, then outer: {text}");
        assert!(lines[0].contains("\"name\":\"inner\""));
        assert!(lines[0].contains("\"start_ns\":100"));
        assert!(lines[0].contains("\"dur_ns\":50"));
        assert!(lines[0].contains("\"parent\":1"));
        assert!(lines[0].contains("\"lanes\":\"4\""));
        assert!(lines[0].contains("\"cached\":\"2\""));
        assert!(lines[1].contains("\"name\":\"outer\""));
        assert!(lines[1].contains("\"dur_ns\":160"));
        assert!(!lines[1].contains("\"parent\""), "roots have no parent");
    }

    #[test]
    fn explicit_parents_bypass_the_thread_stack() {
        let (recorder, buf, _clock) = recorder();
        let root = recorder.span("root", &[]);
        let root_id = root.id();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let child = recorder.span_under(root_id, "unit", &[]);
                drop(child);
            });
        });
        drop(root);
        let text = buf.text();
        let unit = text
            .lines()
            .find(|l| l.contains("\"name\":\"unit\""))
            .expect("unit span written");
        assert!(unit.contains("\"parent\":1"), "{unit}");
    }

    #[test]
    fn a_panicking_scope_still_leaves_wellformed_lines() {
        let (recorder, buf, _clock) = recorder();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = recorder.span("doomed", &[("k", "v".to_string())]);
            panic!("mid-span failure");
        }));
        assert!(result.is_err());
        recorder.event("after", &[]);
        let text = buf.text();
        assert_eq!(text.lines().count(), 2, "{text}");
        for line in text.lines() {
            assert!(
                serde_json::from_str::<serde_json::Value>(line).is_ok(),
                "line must stay well-formed: {line}"
            );
        }
    }

    #[test]
    fn events_are_written_immediately() {
        let (recorder, buf, clock) = recorder();
        clock.advance(77);
        recorder.event("metrics", &[("cache.hits", "9".to_string())]);
        let text = buf.text();
        assert!(text.contains("\"type\":\"event\""));
        assert!(text.contains("\"at_ns\":77"));
        assert!(text.contains("\"cache.hits\":\"9\""));
    }

    #[test]
    fn escaper_handles_quotes_newlines_and_control_bytes() {
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain"), "plain");
    }
}
