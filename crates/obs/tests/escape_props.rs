//! Property tests: the trace escaper and the `serde_json` parser are exact inverses.
//!
//! Span names and attribute values come from cell names, arc labels, worker names and
//! error strings — any of which can carry quotes, backslashes, newlines or stray
//! control bytes.  A trace line must survive them all: whatever string goes into
//! [`escape_json`], parsing the resulting JSON string literal must return it verbatim.

use proptest::prelude::*;
use serde_json::Value;
use slic_obs::trace::escape_json;

/// Escape `text`, embed it as a JSON string value, parse it back, compare.
fn round_trips(text: &str) -> Result<(), TestCaseError> {
    let document = format!("{{\"k\":\"{}\"}}", escape_json(text));
    let parsed: Value = serde_json::from_str(&document)
        .map_err(|err| TestCaseError::fail(format!("escaped form must parse: {err}")))?;
    match parsed.get("k") {
        Some(Value::String(back)) if back == text => Ok(()),
        other => Err(TestCaseError::fail(format!(
            "round trip mangled {text:?} into {other:?}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_unicode_round_trips(
        raw in proptest::collection::vec(0u32..0x11_0000u32, 0..64usize),
    ) {
        // Arbitrary scalar values, surrogates skipped (not representable in &str).
        let text: String = raw.iter().filter_map(|&code| char::from_u32(code)).collect();
        round_trips(&text)?;
    }

    #[test]
    fn quote_and_control_heavy_strings_round_trip(
        picks in proptest::collection::vec(0u32..12u32, 0..48usize),
    ) {
        // The adversarial alphabet: every character class the escaper special-cases.
        const PIECES: [&str; 12] = [
            "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "INV_X1",
            "fall@0", " ", "\\u0041", "привет",
        ];
        let text: String = picks
            .iter()
            .map(|p| PIECES[*p as usize % PIECES.len()])
            .collect();
        round_trips(&text)?;
    }
}
