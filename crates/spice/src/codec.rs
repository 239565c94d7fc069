//! The compact coordinate codec: one text form for a simulation coordinate and its
//! measurement, shared by [`DiskSimCache`](crate::disk::DiskSimCache) logs (record
//! format v2) and the `slic-farm` wire (protocol 3).
//!
//! A [`Coordinate`] is sixteen words separated by single spaces, and a measurement two
//! more:
//!
//! ```text
//! <tech> <arc> <point×3> <seed×7> <config×4>      coordinate
//! <delay> <slew>                                  measurement
//! ```
//!
//! - `tech` is the technology node's name with `%`, whitespace and control characters
//!   written as `%XX` (one escape per UTF-8 byte), so every name round-trips;
//! - `arc` is [`TimingArc::id`], parsed back by [`TimingArc::from_id`];
//! - every other word is a bit pattern as exactly 16 lowercase hex digits: the input
//!   point, the process seed and the transient configuration in their struct order, and
//!   the delay and slew in seconds.
//!
//! Floats travel by bit pattern, so a decoded coordinate is bit-identical to the encoded
//! one.  A measurement decodes only through [`TimingMeasurement::try_new`]'s invariant
//! check.  Fixed-width words and an exact word count make every proper prefix of an
//! encoded line a decode error, so a torn line is never mistaken for a record.

use crate::cache::SimKey;
use crate::measure::TimingMeasurement;
use slic_cells::TimingArc;
use slic_units::Seconds;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

/// The exact coordinates of one transient simulation, as the codec reads and writes
/// them: the technology by name, the arc, and every number by its bit pattern.
///
/// A [`SimKey`] is a kernel id plus a coordinate whose floats are normalized for
/// caching; a farm request carries a coordinate with the request's raw bits.
///
/// The name is shared, not owned: an engine hands every key it builds a clone of its
/// technology's one name, and a [`Decoder`] gives a run of coordinates of one technology
/// one allocation, so neither a lookup nor a decoded record allocates a name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coordinate {
    /// The technology node's name.
    pub tech: Arc<str>,
    /// The simulated arc.
    pub arc: TimingArc,
    /// Bits of the input point: slew, load, supply.
    pub point: [u64; 3],
    /// Bits of the process sample, in `ProcessSample` field order.
    pub seed: [u64; 7],
    /// Bits of the transient configuration, in `TransientConfig` field order
    /// (`min_steps_per_ramp` as an integer).
    pub config: [u64; 4],
}

impl Coordinate {
    /// Appends the coordinate's sixteen words to `out`.
    pub fn write(&self, out: &mut String) {
        push_name(out, &self.tech);
        out.push(' ');
        out.push_str(&self.arc.id());
        for bits in self.point.iter().chain(&self.seed).chain(&self.config) {
            out.push(' ');
            push_hex(out, *bits);
        }
    }

    /// Parses exactly the sixteen words [`write`](Self::write) produces (a
    /// [`Decoder`] of its own parses one coordinate).
    ///
    /// # Errors
    ///
    /// Says which word is missing, malformed or extra, or why the arc is not one.
    pub fn parse(text: &str) -> Result<Self, String> {
        Decoder::default().coordinate(text)
    }

    fn read(words: &mut Words<'_>, decoder: &mut Decoder) -> Result<Self, String> {
        Ok(Self {
            tech: decoder.name(words.next()?)?,
            arc: TimingArc::from_id(words.next()?)?,
            point: words.hex_array()?,
            seed: words.hex_array()?,
            config: words.hex_array()?,
        })
    }
}

/// Appends a measurement's two words, `<delay> <slew>`, to `out`.
pub fn write_measurement(out: &mut String, measurement: &TimingMeasurement) {
    push_hex(out, measurement.delay.value().to_bits());
    out.push(' ');
    push_hex(out, measurement.output_slew.value().to_bits());
}

/// Parses exactly the two words [`write_measurement`] produces.
///
/// # Errors
///
/// Says which word is missing, malformed or extra, or which measurement invariant the
/// values break.
pub fn parse_measurement(text: &str) -> Result<TimingMeasurement, String> {
    let mut words = Words::new(text);
    let measurement = read_measurement(&mut words)?;
    words.finish()?;
    Ok(measurement)
}

fn read_measurement(words: &mut Words<'_>) -> Result<TimingMeasurement, String> {
    let [delay, slew] = words.hex_array()?;
    TimingMeasurement::try_new(
        Seconds(f64::from_bits(delay)),
        Seconds(f64::from_bits(slew)),
    )
}

/// Renders one v2 cache record, `<kernel> <coordinate> <measurement>`, with the kernel
/// id in minimal lowercase hex.  Never fails: every name and bit pattern has a text form.
pub fn encode_record(key: &SimKey, measurement: &TimingMeasurement) -> String {
    let mut line = String::new();
    write_record(&mut line, key, measurement);
    line
}

/// Appends [`encode_record`]'s text, without a newline, to `out`.
pub(crate) fn write_record(out: &mut String, key: &SimKey, measurement: &TimingMeasurement) {
    // Writing to a `String` cannot fail.
    let _ = write!(out, "{:x} ", key.kernel);
    key.coordinate.write(out);
    out.push(' ');
    write_measurement(out, measurement);
}

/// Parses one v2 cache record written by [`encode_record`] (a [`Decoder`] of its own
/// parses one record).
///
/// # Errors
///
/// Says which word is missing, malformed or extra, or which invariant the arc or the
/// measurement breaks.
pub fn decode_record(line: &str) -> Result<(SimKey, TimingMeasurement), String> {
    Decoder::default().record(line)
}

/// Decodes a run of coordinates or records, such as one range of a cache log or one farm
/// batch, giving the coordinates of one technology one shared name.
///
/// The decoder remembers the last name it read; a coordinate whose name has the same
/// bytes shares that allocation.  So a run allocates a name once per change of
/// technology, not once per coordinate.
#[derive(Debug, Default)]
pub struct Decoder {
    /// The name of the last coordinate read.
    name: Option<Arc<str>>,
}

impl Decoder {
    /// Parses exactly the sixteen words [`Coordinate::write`] produces.
    ///
    /// # Errors
    ///
    /// As [`Coordinate::parse`].
    pub fn coordinate(&mut self, text: &str) -> Result<Coordinate, String> {
        let mut words = Words::new(text);
        let coordinate = Coordinate::read(&mut words, self)?;
        words.finish()?;
        Ok(coordinate)
    }

    /// Parses one v2 cache record written by [`encode_record`].
    ///
    /// # Errors
    ///
    /// As [`decode_record`].
    pub fn record(&mut self, line: &str) -> Result<(SimKey, TimingMeasurement), String> {
        let mut words = Words::new(line);
        let kernel_word = words.next()?;
        let kernel = (1..=16)
            .contains(&kernel_word.len())
            .then(|| parse_hex(kernel_word.as_bytes()))
            .flatten()
            .ok_or_else(|| format!("`{kernel_word}` is not a hex kernel id"))?;
        let coordinate = Coordinate::read(&mut words, self)?;
        let measurement = read_measurement(&mut words)?;
        words.finish()?;
        Ok((SimKey { kernel, coordinate }, measurement))
    }

    /// The name spelled `word`, shared with the last coordinate's when the two match.
    fn name(&mut self, word: &str) -> Result<Arc<str>, String> {
        let name = parse_name(word)?;
        match &self.name {
            Some(last) if **last == *name => Ok(Arc::clone(last)),
            _ => Ok(Arc::clone(self.name.insert(Arc::from(name)))),
        }
    }
}

/// The words of one encoded line, read in order.
struct Words<'a> {
    /// The unread text; `None` once the last word has been read.
    rest: Option<&'a str>,
    /// Words read so far, for error messages.
    read: usize,
}

impl<'a> Words<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            rest: Some(text),
            read: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, String> {
        self.read += 1;
        let rest = self
            .rest
            .ok_or_else(|| format!("word {} is missing", self.read))?;
        Ok(match rest.split_once(' ') {
            Some((word, tail)) => {
                self.rest = Some(tail);
                word
            }
            None => {
                self.rest = None;
                rest
            }
        })
    }

    /// Reads a word of exactly 16 lowercase hex digits.  The word is taken by position —
    /// its 16 bytes and the space or end of text after them — which is what makes
    /// decoding a record cheap.
    fn hex(&mut self) -> Result<u64, String> {
        let fixed = self.rest.and_then(|rest| {
            let bytes = rest.as_bytes();
            let tail = match bytes.get(16) {
                None if bytes.len() == 16 => None,
                Some(b' ') => Some(&rest[17..]),
                _ => return None,
            };
            Some((parse_hex(&bytes[..16])?, tail))
        });
        match fixed {
            Some((bits, tail)) => {
                self.read += 1;
                self.rest = tail;
                Ok(bits)
            }
            None => {
                let word = self.next()?;
                Err(format!(
                    "word {} (`{word}`) is not 16 lowercase hex digits",
                    self.read
                ))
            }
        }
    }

    fn hex_array<const N: usize>(&mut self) -> Result<[u64; N], String> {
        let mut bits = [0u64; N];
        for slot in &mut bits {
            *slot = self.hex()?;
        }
        Ok(bits)
    }

    fn finish(self) -> Result<(), String> {
        match self.rest {
            None => Ok(()),
            Some(_) => Err(format!("more than {} words", self.read)),
        }
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

fn push_hex(out: &mut String, bits: u64) {
    for shift in (0..16).rev() {
        out.push(char::from(
            HEX_DIGITS[((bits >> (4 * shift)) & 0xf) as usize],
        ));
    }
}

/// The value of at most 16 lowercase hex digits; `None` on any other byte.
fn parse_hex(digits: &[u8]) -> Option<u64> {
    digits.iter().try_fold(0u64, |acc, &byte| {
        let digit = match byte {
            b'0'..=b'9' => byte - b'0',
            b'a'..=b'f' => byte - b'a' + 10,
            _ => return None,
        };
        Some((acc << 4) | u64::from(digit))
    })
}

fn needs_escape(c: char) -> bool {
    c == '%' || c.is_whitespace() || c.is_control()
}

/// Appends `name` with every character [`needs_escape`] names written as `%XX` per
/// UTF-8 byte.
fn push_name(out: &mut String, name: &str) {
    for c in name.chars() {
        if needs_escape(c) {
            let mut utf8 = [0u8; 4];
            for byte in c.encode_utf8(&mut utf8).bytes() {
                out.push('%');
                out.push(char::from(
                    HEX_DIGITS[usize::from(byte >> 4)].to_ascii_uppercase(),
                ));
                out.push(char::from(
                    HEX_DIGITS[usize::from(byte & 0xf)].to_ascii_uppercase(),
                ));
            }
        } else {
            out.push(c);
        }
    }
}

/// The name [`push_name`] wrote as `word`; any other spelling — an unescaped space or
/// control character, a stray or lowercase escape — is an error.
fn parse_name(word: &str) -> Result<Cow<'_, str>, String> {
    if !word.contains(needs_escape) {
        return Ok(Cow::Borrowed(word));
    }
    let mut bytes = Vec::with_capacity(word.len());
    let mut rest = word.as_bytes();
    while let Some((&byte, tail)) = rest.split_first() {
        match (byte, tail) {
            // A malformed escape decodes to a literal `%`, which the re-spelling check
            // below refuses.
            (b'%', [high, low, tail @ ..]) => {
                let pair = [*high, *low];
                bytes.push(
                    std::str::from_utf8(&pair)
                        .ok()
                        .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                        .unwrap_or(b'%'),
                );
                rest = tail;
            }
            _ => {
                bytes.push(byte);
                rest = tail;
            }
        }
    }
    let canonical = String::from_utf8(bytes).ok().filter(|name| {
        let mut spelled = String::with_capacity(word.len());
        push_name(&mut spelled, name);
        spelled == word
    });
    canonical
        .map(Cow::Owned)
        .ok_or_else(|| format!("`{word}` is not an escaped technology name"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KERNEL_VERSION;
    use crate::input::InputPoint;
    use crate::transient::TransientConfig;
    use slic_cells::{Cell, CellKind, DriveStrength, Transition};
    use slic_device::ProcessSample;
    use slic_units::{Farads, Volts};

    fn key(tech: &str) -> SimKey {
        let cell = Cell::new(CellKind::Nand2, DriveStrength::X2);
        SimKey::new(
            KERNEL_VERSION,
            tech,
            &TimingArc::new(cell, 1, Transition::Fall),
            &InputPoint::new(
                Seconds::from_picoseconds(12.5),
                Farads::from_femtofarads(3.25),
                Volts(0.8),
            ),
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

    #[test]
    fn a_record_is_nineteen_fixed_order_words() {
        let line = encode_record(&key("hist-14nm-finfet"), &measurement());
        let words: Vec<&str> = line.split(' ').collect();
        assert_eq!(words.len(), 19, "{line}");
        assert_eq!(words[..3], ["2", "hist-14nm-finfet", "NAND2_X2/A1/FALL"]);
        assert_eq!(words[5], "3fe999999999999a", "the supply, 0.8 V");
        assert!(words[3..]
            .iter()
            .all(|word| word.len() == 16 && word.bytes().all(|b| HEX_DIGITS.contains(&b))));
        assert_eq!(
            decode_record(&line),
            Ok((key("hist-14nm-finfet"), measurement()))
        );
    }

    #[test]
    fn names_escape_percent_whitespace_and_control_bytes() {
        for (name, spelled) in [
            ("", ""),
            ("n14", "n14"),
            ("50% corner", "50%25%20corner"),
            ("tab\there\n", "tab%09here%0A"),
            ("nbsp\u{a0}é", "nbsp%C2%A0é"),
        ] {
            let mut out = String::new();
            push_name(&mut out, name);
            assert_eq!(out, spelled);
            assert_eq!(parse_name(&out).as_deref(), Ok(name));
            let line = encode_record(&key(name), &measurement());
            assert_eq!(decode_record(&line), Ok((key(name), measurement())));
        }
        for bad in ["a\tb", "%", "%2", "%2a", "%41", "%zz", "%FF"] {
            assert!(parse_name(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn malformed_words_and_broken_invariants_are_errors() {
        let line = encode_record(&key("n14"), &measurement());
        let words: Vec<&str> = line.split(' ').collect();
        let with = |index: usize, word: &str| {
            let mut words = words.clone();
            words[index] = word;
            words.join(" ")
        };
        let negative = format!("{:016x}", (-1e-12f64).to_bits());
        let nan = format!("{:016x}", f64::NAN.to_bits());
        let zero = format!("{:016x}", 0.0f64.to_bits());
        for (bad, expected) in [
            (with(0, "+2"), "hex kernel id"),
            (with(0, ""), "hex kernel id"),
            (with(2, "NAND2_X2/A7/FALL"), "input pin 7 out of range"),
            (with(3, "3DA5FD7FE1796495"), "word 4"),
            (with(9, "03da5fd7fe1796495"), "word 10"),
            (with(17, &negative), "delay must be finite"),
            (with(17, &nan), "delay must be finite"),
            (with(18, &zero), "output slew must be finite"),
            (format!("{line} "), "more than 19 words"),
            (line.replacen(' ', "  ", 1), "not a timing arc id"),
        ] {
            let err = decode_record(&bad).expect_err(&bad);
            assert!(err.contains(expected), "{err}");
        }
    }
}
