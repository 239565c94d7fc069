//! Property tests: untrusted lines through the one JSON parser.
//!
//! Disk-cache records, run-ledger lines, trace lines and farm wire messages all parse
//! through `serde_json`, and any of them can arrive torn, bit-rotted or hostile.  So:
//!
//! * arbitrary strings over a JSON-heavy alphabet parse to `Ok` or `Err`, never a panic,
//!   and whatever parses re-renders to text that parses back to the same value;
//! * every proper prefix of a real `DiskSimCache` record, ledger line and trace line is
//!   an error (a torn line is never mistaken for a record), and the whole line parses;
//! * arrays and objects nested past upstream `serde_json`'s 128 levels are an error, not
//!   a stack overflow, however deep the line goes;
//! * a well-formed cache record whose arc names a pin its cell lacks is a corrupt record,
//!   reported with its line number;
//! * rendering a generated [`Value`] and parsing it back is the identity.

#![expect(
    clippy::expect_used,
    reason = "helper functions abort the test on a setup failure"
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
use slic_device::ProcessSample;
use slic_obs::ledger::{self, RunRecord};
use slic_obs::{MetricsRegistry, TraceRecorder};
use slic_spice::{
    DiskSimCache, InputPoint, SimKey, SimulationCache, TimingMeasurement, TransientConfig,
    KERNEL_VERSION,
};
use slic_units::{Farads, Seconds, Volts};

/// The fuzzing alphabet, weighted by repetition toward the bytes that steer the parser:
/// structure, quotes, escapes, `\u` hex digits, number punctuation, and non-ASCII.
const ALPHABET: [&str; 40] = [
    "{", "}", "[", "]", "\"", "\"", "\"", ",", ",", ":", "\\", "\\", "\\", "u", "u", "0", "1", "7",
    "9", "a", "d", "D", "e", "E", "f", "8", "3", "+", "-", "-", ".", "e", "n", "t", " ", "é", "😀",
    "\u{0}", "\n", "true",
];

/// A temp path no other call returns: tests run on parallel threads, and three of them
/// write a cache record through [`cache_record_line`].
fn scratch(name: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "slic-untrusted-{}-{call}-{name}",
        std::process::id()
    ))
}

/// One record exactly as `DiskSimCache` writes it.
fn cache_record_line() -> String {
    let path = scratch("cache.jsonl");
    std::fs::remove_file(&path).ok();
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X2);
    let point = InputPoint::new(
        Seconds::from_picoseconds(12.5),
        Farads::from_femtofarads(3.25),
        Volts(0.8),
    );
    let key = SimKey::new(
        KERNEL_VERSION,
        "n14",
        &TimingArc::new(cell, 1, Transition::Fall),
        &point,
        &ProcessSample::nominal(),
        &TransientConfig::fast(),
    );
    let cache = DiskSimCache::open(&path).expect("opens");
    cache.store(
        key,
        TimingMeasurement::new(
            Seconds::from_picoseconds(21.0),
            Seconds::from_picoseconds(9.5),
        ),
    );
    cache.flush().expect("flushes");
    let text = std::fs::read_to_string(&path).expect("reads");
    std::fs::remove_file(&path).ok();
    text.trim_end().to_string()
}

/// One run record exactly as the ledger writes it.
fn ledger_line() -> String {
    let metrics = MetricsRegistry::new();
    metrics.counter_set("cache.hits", 36);
    metrics.observe("engine.batch.lanes", 4, &[1, 2, 4, 8]);
    RunRecord {
        kind: "characterize".to_string(),
        fingerprint: "561db246d63ac821".to_string(),
        seed: u64::MAX,
        profile: "quick \"q\"".to_string(),
        backend: "local".to_string(),
        wall_ns: 4_126_086,
        sims_paid: 108,
        sims_cached: 36,
        artifact_hash: ledger::content_hash(b"artifact"),
        snapshot: metrics.snapshot(),
    }
    .to_line()
}

/// One span exactly as the trace recorder writes it, attrs escaped.
fn trace_line() -> String {
    let path = scratch("run.trace.jsonl");
    let recorder = TraceRecorder::to_file(&path).expect("trace file");
    drop(recorder.span(
        "unit",
        &[
            ("cell", "NAND2_X1 \"q\" \\ é 😀".to_string()),
            ("arc", "fall@0\n\t\u{1}".to_string()),
        ],
    ));
    recorder.flush();
    let text = std::fs::read_to_string(&path).expect("reads");
    std::fs::remove_file(&path).ok();
    text.trim_end().to_string()
}

#[test]
fn every_proper_prefix_of_a_real_line_is_an_error() {
    for line in [cache_record_line(), ledger_line(), trace_line()] {
        assert!(
            serde_json::from_str::<Value>(&line).is_ok(),
            "the whole line parses: {line}"
        );
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            assert!(
                serde_json::from_str::<Value>(&line[..cut]).is_err(),
                "a torn line must not parse: {}",
                &line[..cut]
            );
        }
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let depth = 128;
    let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let objects = |n: usize| format!("{}0{}", "{\"a\":".repeat(n), "}".repeat(n));
    assert!(serde_json::from_str::<Value>(&arrays(depth)).is_ok());
    assert!(serde_json::from_str::<Value>(&objects(depth)).is_ok());
    for line in [
        arrays(depth + 1),
        objects(depth + 1),
        "[".repeat(200_000),
        "{\"a\":".repeat(200_000),
        // Deep nesting inside an otherwise well-formed cache record.
        cache_record_line().replacen(
            "\"tech\":",
            &format!("\"x\":{},\"tech\":", arrays(depth + 1)),
            1,
        ),
    ] {
        let err = serde_json::from_str::<Value>(&line).expect_err("too deep to parse");
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
    }
}

#[test]
fn a_record_whose_arc_names_a_missing_pin_is_corrupt() {
    let good = cache_record_line();
    let bad = good.replacen("\"input_pin\":1", "\"input_pin\":7", 1);
    assert_ne!(bad, good, "the record carries the arc's pin");
    let path = scratch("bad-pin.jsonl");
    std::fs::write(&path, format!("{good}\n{bad}\n")).expect("writes");
    let err = DiskSimCache::open(&path).expect_err("NAND2_X2 has no pin 7");
    std::fs::remove_file(&path).ok();
    let message = err.to_string();
    assert!(
        message.contains("corrupt cache record at line 2"),
        "{message}"
    );
    assert!(
        message.contains("input pin 7 out of range for NAND2_X2 (2 inputs)"),
        "{message}"
    );
}

fn arbitrary_text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..12usize))
        .map(|_| match rng.gen_range(0..4u32) {
            0 => char::from(rng.gen_range(0..0x80u32) as u8),
            1 => ['"', '\\', '\n', '\u{1f}', '/'][rng.gen_range(0..5usize)],
            // Any scalar value; surrogate codes are not chars and are skipped.
            _ => char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('?'),
        })
        .collect()
}

fn arbitrary_value(rng: &mut StdRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Number(loop {
            // Any finite bit pattern (subnormals, huge magnitudes), or a small integer.
            let x = if rng.gen_bool(0.5) {
                f64::from_bits(rng.gen::<u64>())
            } else {
                f64::from(rng.gen_range(-1000..1000i32))
            };
            if x.is_finite() {
                break x;
            }
        }),
        3 => Value::String(arbitrary_text(rng)),
        4 => Value::Array(
            (0..rng.gen_range(0..4usize))
                .map(|_| arbitrary_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..4usize))
                .map(|_| (arbitrary_text(rng), arbitrary_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_parses_or_errors_without_panicking(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..48usize),
    ) {
        let text: String = picks.iter().map(|&pick| ALPHABET[pick]).collect();
        if let Ok(value) = serde_json::from_str::<Value>(&text) {
            // Non-finite numbers (`1e999`) parse but cannot be rendered back.
            if let Ok(rendered) = serde_json::to_string(&value) {
                prop_assert_eq!(serde_json::from_str::<Value>(&rendered).ok(), Some(value));
            }
        }
    }

    #[test]
    fn rendered_values_parse_back_to_themselves(seed in 0u64..u64::MAX) {
        let value = arbitrary_value(&mut StdRng::seed_from_u64(seed), 3);
        let compact = serde_json::to_string(&value).expect("finite values render");
        prop_assert_eq!(serde_json::from_str::<Value>(&compact).ok(), Some(value.clone()));
        let pretty = serde_json::to_string_pretty(&value).expect("finite values render");
        prop_assert_eq!(serde_json::from_str::<Value>(&pretty).ok(), Some(value));
    }
}
