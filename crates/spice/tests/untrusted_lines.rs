//! Property tests: untrusted lines through the one JSON parser and the coordinate codec.
//!
//! Run-ledger lines, trace lines, farm wire envelopes and v1 disk-cache records parse
//! through `serde_json`; v2 disk-cache records and farm lanes parse through the codec
//! words of `slic_spice::codec`.  Any of them can arrive torn, bit-rotted or hostile.
//! So:
//!
//! * arbitrary strings over a JSON-heavy alphabet parse to `Ok` or `Err`, never a panic,
//!   and whatever parses re-renders to text that parses back to the same value;
//! * arbitrary strings over a codec alphabet (hex digits, spaces, `/`, `%`) decode to
//!   `Ok` or `Err`, never a panic;
//! * every proper prefix of a real `DiskSimCache` record (through the cache's line
//!   decoder), ledger line and trace line is an error (a torn line is never mistaken for
//!   a record), and the whole line decodes; so is every proper prefix of a coordinate's
//!   and a measurement's codec words, what a farm request and result carry;
//! * any technology name round-trips through the codec;
//! * arrays and objects nested past upstream `serde_json`'s 128 levels are an error, not
//!   a stack overflow, however deep the line goes;
//! * a well-formed cache record, v1 or v2, whose arc names a pin its cell lacks is a
//!   corrupt record, reported with its line number;
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
use slic_spice::codec::{self, Coordinate};
use slic_spice::disk::decode_line;
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

/// Tokens of the codec alphabet: hex digits, the separators, escapes and a few whole
/// words, so random lines reach past the first word.
const CODEC_ALPHABET: [&str; 28] = [
    "0",
    "1",
    "2",
    "3",
    "7",
    "9",
    "a",
    "b",
    "e",
    "f",
    "F",
    "A",
    " ",
    " ",
    " ",
    "/",
    "/",
    "%",
    "%",
    "%2",
    "_",
    "X2",
    "NAND2_X2/A1/FALL",
    "INV_X1/A0/RISE",
    "3fe999999999999a",
    "n14",
    "2 n14 ",
    "é",
];

/// A v1 record exactly as earlier builds wrote one, arc `NAND2_X2/A1/FALL`.
const V1_RECORD: &str = r#"{"key":{"kernel":"2","tech":"hist-14nm-finfet","arc":{"cell":{"kind":"Nand2","drive":"X2"},"input_pin":1,"output_transition":"Fall"},"point":["3dab7cdfd9d7bdbb","3ced45fd6237ebe4","3fe999999999999a"],"seed":["0000000000000000","0000000000000000","3ff0000000000000","3ff0000000000000","3ff0000000000000","3ff0000000000000","3ff0000000000000"],"config":["3f7b4e81b4e81b4f","0000000000000050","4054000000000000","3fd0000000000000"]},"measurement":{"delay":2.1e-11,"output_slew":9.5e-12}}"#;

/// A temp path no other call returns: tests run on parallel threads, and several of them
/// write a cache record through [`cache_record_line`].
fn scratch(name: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "slic-untrusted-{}-{call}-{name}",
        std::process::id()
    ))
}

/// The key of [`cache_record_line`]'s record, in the technology named `tech`.
fn key(tech: &str) -> SimKey {
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X2);
    let point = InputPoint::new(
        Seconds::from_picoseconds(12.5),
        Farads::from_femtofarads(3.25),
        Volts(0.8),
    );
    SimKey::new(
        KERNEL_VERSION,
        tech,
        &TimingArc::new(cell, 1, Transition::Fall),
        &point,
        &ProcessSample::nominal(),
        &TransientConfig::fast(),
    )
}

fn measurement() -> TimingMeasurement {
    TimingMeasurement::new(
        Seconds::from_picoseconds(21.0),
        Seconds::from_picoseconds(9.5),
    )
}

/// One record exactly as `DiskSimCache` writes it.
fn cache_record_line() -> String {
    let path = scratch("cache.jsonl");
    std::fs::remove_file(&path).ok();
    let cache = DiskSimCache::open(&path).expect("opens");
    cache.store(key("n14"), measurement());
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

/// Every proper prefix of `line` fails `decode`, and the whole line decodes.
fn torn_prefixes_fail<T, E>(line: &str, decode: impl Fn(&str) -> Result<T, E>) {
    assert!(decode(line).is_ok(), "the whole line decodes: {line}");
    for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
        assert!(
            decode(&line[..cut]).is_err(),
            "a torn line must not decode: {}",
            &line[..cut]
        );
    }
}

#[test]
fn every_proper_prefix_of_a_real_line_is_an_error() {
    torn_prefixes_fail(&cache_record_line(), decode_line);
    torn_prefixes_fail(V1_RECORD, decode_line);
    for line in [ledger_line(), trace_line()] {
        torn_prefixes_fail(&line, serde_json::from_str::<Value>);
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
        // Deep nesting inside an otherwise well-formed v1 cache record.
        V1_RECORD.replacen(
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

/// Opens a log of `good` then `bad` and returns the error, which must name line 2 and
/// NAND2_X2's missing pin 7.
fn assert_missing_pin_is_corrupt(good: &str, bad: &str) {
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

#[test]
fn a_record_whose_arc_names_a_missing_pin_is_corrupt() {
    assert_missing_pin_is_corrupt(
        V1_RECORD,
        &V1_RECORD.replacen("\"input_pin\":1", "\"input_pin\":7", 1),
    );
}

#[test]
fn a_v2_record_whose_arc_names_a_missing_pin_is_corrupt() {
    let good = cache_record_line();
    assert_missing_pin_is_corrupt(
        &good,
        &good.replacen("NAND2_X2/A1/FALL", "NAND2_X2/A7/FALL", 1),
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
    fn arbitrary_codec_text_decodes_or_errors_without_panicking(
        picks in proptest::collection::vec(0usize..CODEC_ALPHABET.len(), 0..64usize),
    ) {
        let text: String = picks.iter().map(|&pick| CODEC_ALPHABET[pick]).collect();
        drop(decode_line(&text));
        drop(Coordinate::parse(&text));
        drop(codec::parse_measurement(&text));
    }

    #[test]
    fn any_technology_name_round_trips_through_the_codec(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let name: String = (0..rng.gen_range(0..4usize))
            .map(|_| arbitrary_text(&mut rng) + ["", " ", "%", "%25", "\r"][rng.gen_range(0..5usize)])
            .collect();
        let line = codec::encode_record(&key(&name), &measurement());
        prop_assert_eq!(decode_line(&line), Ok((key(&name), measurement())));
        let (kernel, rest) = line.split_once(' ').expect("a kernel word");
        prop_assert_eq!(kernel, "2");
        prop_assert!(!rest.contains(['\n', '\r', '\t']), "{}", line);
    }

    #[test]
    fn every_proper_prefix_of_a_lane_is_an_error(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = Cell::new(CellKind::Nor3, DriveStrength::X4);
        let coordinate = Coordinate {
            tech: "hist-14nm-finfet 50%".into(),
            arc: TimingArc::new(cell, rng.gen_range(0..3usize), Transition::Rise),
            point: std::array::from_fn(|_| rng.gen()),
            seed: std::array::from_fn(|_| rng.gen()),
            config: std::array::from_fn(|_| rng.gen()),
        };
        let mut request = String::new();
        coordinate.write(&mut request);
        prop_assert_eq!(Coordinate::parse(&request), Ok(coordinate));
        torn_prefixes_fail(&request, Coordinate::parse);
        let mut result = String::new();
        codec::write_measurement(
            &mut result,
            &TimingMeasurement::new(
                Seconds(f64::from(rng.gen_range(0..500u32)) * 1e-12),
                Seconds(f64::from(rng.gen_range(1..500u32)) * 1e-12),
            ),
        );
        torn_prefixes_fail(&result, codec::parse_measurement);
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
