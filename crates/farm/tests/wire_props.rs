//! Property tests of the wire protocol: arbitrary requests and responses must round-trip
//! bit-exactly through the JSON-lines framing, NaN must never travel, incompatible
//! handshakes must be rejected, and any line a peer sends — arbitrary text, or an object
//! shaped like a message with random fields — decodes to `Ok` or `Err`, never a panic.

#![expect(
    clippy::expect_used,
    reason = "helper functions abort the test on a setup failure"
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
use slic_device::{ProcessSample, TechnologyNode};
use slic_farm::wire::{decode_message, encode_message, Message};
use slic_farm::{Hello, WireError, WireRequest, WireResultEntry, PROTOCOL_VERSION};
use slic_spice::codec::Decoder;
use slic_spice::{InputPoint, SimRequest, SimResult, TimingMeasurement, TransientConfig};
use slic_units::{Farads, Seconds, Volts};

fn request(
    tech_index: usize,
    sin_ps: f64,
    cload_ff: f64,
    vdd: f64,
    dvth: f64,
    cinv: f64,
    rise: bool,
) -> SimRequest {
    let techs = ["n14_finfet", "n16_finfet", "target_14nm", "n28_bulk"];
    let tech = TechnologyNode::by_name(techs[tech_index % techs.len()]).expect("catalogue name");
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
    let transition = if rise {
        Transition::Rise
    } else {
        Transition::Fall
    };
    SimRequest {
        tech: std::sync::Arc::new(tech),
        cell,
        arc: TimingArc::new(cell, 0, transition),
        point: InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(vdd),
        ),
        seed: ProcessSample {
            delta_vth_n: dvth,
            delta_vth_p: -dvth / 3.0,
            cinv_scale: cinv,
            ..ProcessSample::nominal()
        },
        config: TransientConfig::fast(),
    }
}

/// Field names the decoder reads, for message-shaped objects.
const FIELDS: [&str; 16] = [
    "type", "id", "protocol", "kernel", "worker", "requests", "results", "delay", "slew", "error",
    "tech", "cell", "arc", "point", "seed", "config",
];

/// Every message tag, plus one the protocol does not know.
const TAGS: [&str; 7] = [
    "hello", "batch", "results", "ping", "pong", "shutdown", "bye",
];

/// JSON structure and number edge cases for raw lines.
const PUNCTUATION: [&str; 15] = [
    "{", "}", "[", "]", "\"", ",", ":", "\\", " ", "-1", "1.5", "1e400", "null", "é", "\u{0}",
];

/// One raw-line token: punctuation, or a quoted field name, tag or hex word.
fn token(rng: &mut StdRng) -> String {
    match rng.gen_range(0..6u32) {
        0 => format!("\"{}\"", FIELDS[rng.gen_range(0..FIELDS.len())]),
        1 => format!("\"{}\"", TAGS[rng.gen_range(0..TAGS.len())]),
        2 => format!("\"{:x}\"", rng.gen::<u64>()),
        _ => PUNCTUATION[rng.gen_range(0..PUNCTUATION.len())].to_string(),
    }
}

/// A random JSON value, biased toward what the decoder expects to find in a field.
fn field_value(rng: &mut StdRng, depth: u32) -> String {
    match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
        0 => ["null", "true", "-1", "1.5", "1e300", "-0"][rng.gen_range(0..6usize)].to_string(),
        1 => rng.gen_range(0..u64::MAX).to_string(),
        2 => format!("\"{:x}\"", rng.gen::<u64>()),
        3 => format!("\"{}\"", TAGS[rng.gen_range(0..TAGS.len())]),
        4 => {
            let items: Vec<String> = (0..rng.gen_range(0..4usize))
                .map(|_| field_value(rng, depth - 1))
                .collect();
            format!("[{}]", items.join(","))
        }
        _ => object(rng, depth - 1, None),
    }
}

/// A random object over [`FIELDS`], with `tag` as its `type` when given.
fn object(rng: &mut StdRng, depth: u32, tag: Option<&str>) -> String {
    let mut fields: Vec<String> = tag
        .map(|tag| format!("\"type\":\"{tag}\""))
        .into_iter()
        .collect();
    for _ in 0..rng.gen_range(0..7usize) {
        let name = FIELDS[rng.gen_range(0..FIELDS.len())];
        fields.push(format!("\"{name}\":{}", field_value(rng, depth)));
    }
    format!("{{{}}}", fields.join(","))
}

/// A real hello, batch or results line with one value somewhere inside it replaced by a
/// random one, so the decoder's deep paths (request and result fields) see hostile input.
fn mutated_message(rng: &mut StdRng) -> String {
    let wire = WireRequest::encode(&request(1, 5.0, 2.0, 0.8, 0.01, 1.0, true)).expect("encodes");
    let measured: SimResult = Ok(TimingMeasurement::new(
        Seconds::from_picoseconds(12.0),
        Seconds::from_picoseconds(7.0),
    ));
    let real = [
        encode_message(&Message::Hello(Hello::current("w0"))),
        encode_message(&Message::Batch {
            id: 7,
            requests: vec![wire],
        }),
        encode_message(&Message::Results {
            id: 7,
            results: vec![
                WireResultEntry::encode(&measured).expect("encodes"),
                WireResultEntry::Error("diverged".to_string()),
            ],
        }),
    ];
    let mut value: Value =
        serde_json::from_str(&real[rng.gen_range(0..real.len())]).expect("real line parses");
    let replacement: Value =
        serde_json::from_str(&field_value(rng, 1)).expect("generated value parses");
    replace_somewhere(&mut value, rng, replacement);
    serde_json::to_string(&value).expect("finite values render")
}

/// Replaces `value`, or one value nested inside it, with `replacement`.
fn replace_somewhere(value: &mut Value, rng: &mut StdRng, replacement: Value) {
    let child = match value {
        Value::Object(entries) if !entries.is_empty() && rng.gen_bool(0.8) => {
            let pick = rng.gen_range(0..entries.len());
            &mut entries[pick].1
        }
        Value::Array(items) if !items.is_empty() && rng.gen_bool(0.8) => {
            let pick = rng.gen_range(0..items.len());
            &mut items[pick]
        }
        _ => {
            *value = replacement;
            return;
        }
    };
    replace_somewhere(child, rng, replacement);
}

/// Decodes `line` and everything inside it the broker or a worker would go on to use.
/// Panics only if the decoder does.
fn decode_everything(line: &str) {
    match decode_message(line) {
        Ok(Message::Hello(hello)) => drop(hello.validate()),
        Ok(Message::Batch { requests, .. }) => {
            let mut decoder = Decoder::default();
            for request in &requests {
                drop(request.decode(&mut decoder));
            }
        }
        Ok(Message::Results { results, .. }) => {
            for result in &results {
                drop(result.decode());
            }
        }
        Ok(_) | Err(_) => {}
    }
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_lines_decode_or_error_without_panicking(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line: String = (0..rng.gen_range(0..40usize)).map(|_| token(&mut rng)).collect();
        decode_everything(&line);
    }

    #[test]
    fn message_shaped_objects_decode_or_error_without_panicking(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tag = TAGS[rng.gen_range(0..TAGS.len())];
        decode_everything(&object(&mut rng, 2, Some(tag)));
        decode_everything(&mutated_message(&mut rng));
    }
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_round_trip_bit_exactly(
        tech_index in 0usize..4,
        sin_ps in 0.1f64..40.0,
        cload_ff in 0.1f64..10.0,
        vdd in 0.5f64..1.2,
        dvth in -0.05f64..0.05,
        cinv in 0.8f64..1.2,
    ) {
        for rise in [false, true] {
            let original = request(tech_index, sin_ps, cload_ff, vdd, dvth, cinv, rise);
            let wire = WireRequest::encode(&original).expect("finite coordinates encode");
            let line = encode_message(&Message::Batch { id: 42, requests: vec![wire] });
            let Message::Batch { id, requests } = decode_message(&line).expect("decodes") else {
                panic!("wrong message type");
            };
            prop_assert_eq!(id, 42);
            let back = requests[0]
                .decode(&mut Decoder::default())
                .expect("reconstructs");
            prop_assert_eq!(back, original, "every bit pattern must survive the wire");
        }
    }

    #[test]
    fn results_round_trip_bit_exactly(
        delay_ps in 0.01f64..500.0,
        slew_ps in 0.01f64..500.0,
    ) {
        let ok: SimResult = Ok(TimingMeasurement::new(
            Seconds::from_picoseconds(delay_ps),
            Seconds::from_picoseconds(slew_ps),
        ));
        let entry = WireResultEntry::encode(&ok).expect("encodes");
        let line = encode_message(&Message::Results { id: 9, results: vec![entry] });
        let Message::Results { results, .. } = decode_message(&line).expect("decodes") else {
            panic!("wrong message type");
        };
        prop_assert_eq!(results[0].decode().expect("reconstructs"), ok);
    }

    #[test]
    fn nan_is_rejected_wherever_it_appears(
        sin_ps in 0.1f64..40.0,
        lane in 0usize..3,
    ) {
        let mut bad = request(0, sin_ps, 2.0, 0.8, 0.01, 1.0, false);
        match lane {
            0 => bad.seed.delta_vth_n = f64::NAN,
            1 => bad.seed.dibl_scale_p = f64::NAN,
            _ => bad.config.max_time_factor = f64::NAN,
        }
        let err = WireRequest::encode(&bad).expect_err("NaN must not travel");
        prop_assert!(err.to_string().contains("NaN"));
    }

    #[test]
    fn kernel_version_mismatches_are_rejected(offset in 1u64..9) {
        let stale = Hello {
            kernel: slic_spice::KERNEL_VERSION + offset,
            ..Hello::current("stale")
        };
        prop_assert!(matches!(stale.validate(), Err(WireError::KernelMismatch { .. })));
        // And the mismatch survives a wire round trip: the broker sees exactly what the
        // worker sent, then rejects it.
        let line = encode_message(&Message::Hello(stale.clone()));
        let Message::Hello(received) = decode_message(&line).expect("decodes") else {
            panic!("wrong message type");
        };
        prop_assert_eq!(&received, &stale);
        prop_assert!(received.validate().is_err());

        let foreign = Hello { protocol: PROTOCOL_VERSION + offset, ..Hello::current("alien") };
        prop_assert!(matches!(foreign.validate(), Err(WireError::ProtocolMismatch { .. })));
    }
}
