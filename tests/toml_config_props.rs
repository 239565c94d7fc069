//! Property tests: the flat-TOML run-config reader on untrusted text.
//!
//! A run config is a file the user hands the CLI, so:
//!
//! * arbitrary lines over a TOML-heavy alphabet parse to `Ok` or `Err`, never a panic,
//!   both through the reader and through [`RunConfig::from_toml`];
//! * generated `key = value` files parse back to the values they were generated from.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use slic_pipeline::{toml, RunConfig};

/// The fuzzing alphabet, weighted by repetition toward the bytes that steer the reader:
/// `=`, dotted keys, brackets, quotes, escapes, commas, comments, number punctuation, and
/// a few real config keys so the deserializer sees plausible shapes too.
const ALPHABET: [&str; 40] = [
    "=", "=", " = ", ".", ".", "[", "[", "[", "]", "]", "\"", "\"", "\"", "\\", "\\\"", ",", ",",
    "#", "\n", " ", "\t", "a", "b_c", "1", "-", "e", "0.5", "true", "inf", "é", "😀", "seed",
    "drives", "kernel.", "simd", "farm.", "cache", "1e20", "\"X1\"", "\r\n",
];

/// A random string over the characters the reader treats specially, and its quoted
/// spelling with `"`, `\`, newline and tab escaped.
fn string(rng: &mut StdRng) -> (Value, String) {
    const CHARS: [char; 16] = [
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '#', ',', '[', ']', '=', '.', 'é', '😀',
    ];
    let text: String = (0..rng.gen_range(0..10usize))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect();
    let mut spelled = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => spelled.push_str("\\\""),
            '\\' => spelled.push_str("\\\\"),
            '\n' => spelled.push_str("\\n"),
            '\t' => spelled.push_str("\\t"),
            c => spelled.push(c),
        }
    }
    spelled.push('"');
    (Value::String(text), spelled)
}

/// A random boolean, integer, finite float or string, and its TOML spelling.
fn scalar(rng: &mut StdRng) -> (Value, String) {
    match rng.gen_range(0..4u32) {
        0 => {
            let b = rng.gen_bool(0.5);
            (Value::Bool(b), b.to_string())
        }
        1 => {
            let n = rng.gen_range(-1_000_000..1_000_000i64);
            (Value::Number(n as f64), n.to_string())
        }
        2 => {
            // Any finite bit pattern; `{:?}` is the shortest text that parses back exactly.
            let x = loop {
                let x = f64::from_bits(rng.gen::<u64>());
                if x.is_finite() {
                    break x;
                }
            };
            (Value::Number(x), format!("{x:?}"))
        }
        _ => string(rng),
    }
}

/// A scalar or an array of scalars, and its TOML spelling.
fn value(rng: &mut StdRng) -> (Value, String) {
    if rng.gen_bool(0.75) {
        return scalar(rng);
    }
    let len = rng.gen_range(0..4usize);
    let (items, spelled): (Vec<Value>, Vec<String>) = (0..len).map(|_| scalar(rng)).unzip();
    (Value::Array(items), format!("[{}]", spelled.join(", ")))
}

/// A generated flat-TOML file, with top-level and dotted keys, trailing comments and
/// comment lines, and the object it spells.
fn config_file(rng: &mut StdRng) -> (Value, String) {
    let mut expected: Vec<(String, Value)> = Vec::new();
    let mut text = String::new();
    for index in 0..rng.gen_range(0..8usize) {
        let (value, spelled) = value(rng);
        let key = format!("k{index}");
        let line_key = if rng.gen_bool(0.3) {
            let section = format!("s{}", rng.gen_range(0..3u32));
            let position = match expected.iter().position(|(k, _)| *k == section) {
                Some(position) => position,
                None => {
                    expected.push((section.clone(), Value::Object(Vec::new())));
                    expected.len() - 1
                }
            };
            if let Value::Object(entries) = &mut expected[position].1 {
                entries.push((key.clone(), value));
            }
            format!("{section}.{key}")
        } else {
            expected.push((key.clone(), value));
            key
        };
        let comment = if rng.gen_bool(0.3) {
            "  # note, with \"quotes\" = [x]"
        } else {
            ""
        };
        text.push_str(&format!("{line_key} = {spelled}{comment}\n"));
        if rng.gen_bool(0.2) {
            text.push_str("\n# a comment line\n");
        }
    }
    (Value::Object(expected), text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_lines_parse_or_error_without_panicking(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..48usize),
    ) {
        let text: String = picks.iter().map(|&pick| ALPHABET[pick]).collect();
        let parsed = toml::parse(&text);
        if let Ok(value) = &parsed {
            prop_assert!(matches!(value, Value::Object(_)), "{text:?} -> {value:?}");
        }
        let config = RunConfig::from_toml(&text);
        prop_assert!(parsed.is_ok() || config.is_err(), "{text:?}");
    }

    #[test]
    fn generated_files_parse_back_to_their_values(seed in 0u64..u64::MAX) {
        let (expected, text) = config_file(&mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(toml::parse(&text).ok(), Some(expected), "{}", text);
    }
}
