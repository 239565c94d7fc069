//! Line-oriented append logs: the one file discipline behind `DiskSimCache`, the run
//! ledger and the trace reader.
//!
//! Writers [`append`] whole lines under an exclusive advisory flock, after truncating
//! the torn final line a crashed writer may have left, so concurrent same-host writers
//! interleave records, never bytes.  Readers [`read`] the whole file as one buffer under
//! a shared flock and walk it with [`classify`], the one line classifier, which tells
//! complete records, the torn tail of an interrupted append and real corruption apart;
//! [`salvage`] keeps every record that decodes and counts the rest.  Each reader decodes
//! a line's text its own way: the ledger and traces parse it as JSON, and `DiskSimCache`
//! reads the hex words of its v2 records (or a v1 record's JSON).  A decoder must fail on
//! every proper prefix of a record, or a torn tail would pass for one.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Appends `text`, whole lines each ended by its newline, to the log at `path`, creating
/// the file if needed.
///
/// Under an exclusive advisory flock, a torn tail is truncated first — appending after
/// it would weld its bytes and the first new line into one corrupt interior line — and
/// then the text goes out as it is in one `write_all`.  No text, no I/O.
///
/// # Errors
///
/// Returns the I/O error of opening, locking, truncating or appending the file, and
/// `InvalidInput`, before any I/O, when `text` does not end with a newline: the next
/// append would truncate its last line as a torn tail.
pub fn append(path: &Path, text: &str) -> std::io::Result<()> {
    if text.is_empty() {
        return Ok(());
    }
    if !text.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "appended text must end with a newline",
        ));
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?;
    file.lock()?;
    truncate_torn_tail(&mut file)?;
    file.write_all(text.as_bytes())?;
    file.flush()
    // Closing the handle releases the lock.
}

/// Truncates a torn final line (no trailing newline) off the log.
///
/// Called under the exclusive append lock: a live writer finishes its whole line —
/// newline included — before releasing the lock, so a non-newline tail can only be the
/// leftover of a crashed writer and is safe to drop (its record was never observable as
/// complete).
fn truncate_torn_tail(file: &mut std::fs::File) -> std::io::Result<()> {
    const CHUNK: u64 = 64 * 1024;
    let len = file.metadata()?.len();
    let mut scanned = 0u64;
    // Scan backwards for the last newline; keep everything up to and including it.
    while scanned < len {
        let chunk = CHUNK.min(len - scanned);
        file.seek(SeekFrom::Start(len - scanned - chunk))?;
        let mut buf = vec![0u8; chunk as usize];
        file.read_exact(&mut buf)?;
        if scanned == 0 && buf.last() == Some(&b'\n') {
            return Ok(());
        }
        if let Some(pos) = buf.iter().rposition(|&b| b == b'\n') {
            file.set_len(len - scanned - chunk + pos as u64 + 1)?;
            return Ok(());
        }
        scanned += chunk;
    }
    // No newline anywhere: the whole file is one torn line (or empty).
    file.set_len(0)
}

/// Reads the whole log at `path` under a shared advisory flock, so a concurrent
/// [`append`] never tears a line mid-read.
///
/// # Errors
///
/// Returns the I/O error of opening, locking or reading the file — `NotFound` included:
/// whether a missing log is empty or an error is the caller's policy.
pub fn read(path: &Path) -> std::io::Result<String> {
    let file = std::fs::File::open(path)?;
    file.lock_shared()?;
    std::io::read_to_string(&file)
    // Closing the handle releases the lock.
}

/// How a reader must treat one non-blank line of a log.
#[derive(Debug)]
pub enum Line<'a, T, E> {
    /// A decoded record.  `terminated` is false only for a final line whose bytes are
    /// complete but whose newline a crash lost: the next [`append`] truncates it, so a
    /// writer that must keep the record re-appends `text`.
    Record {
        /// The decoded value.
        record: T,
        /// The line's text, without its newline.
        text: &'a str,
        /// Whether the line ended with a newline.
        terminated: bool,
    },
    /// An undecodable final line without a newline: the torn tail of an interrupted
    /// append, which the next [`append`] truncates.
    Torn,
    /// An undecodable newline-terminated line: real corruption.  `number` is 1-based.
    Corrupt {
        /// The 1-based line number.
        number: usize,
        /// The line's text, without its newline.
        text: &'a str,
        /// Why the line did not decode.
        error: E,
    },
}

/// Classifies every non-blank line of `text` by decoding its text with `decode`.  Lines
/// borrow from `text`; nothing is copied.
pub fn classify<'a, T, E>(
    text: &'a str,
    mut decode: impl FnMut(&str) -> Result<T, E>,
) -> impl Iterator<Item = Line<'a, T, E>> {
    text.split_inclusive('\n')
        .enumerate()
        .filter_map(move |(index, raw)| {
            let (line, terminated) = match raw.strip_suffix('\n') {
                Some(line) => (line.strip_suffix('\r').unwrap_or(line), true),
                None => (raw, false),
            };
            if line.trim().is_empty() {
                return None;
            }
            Some(match decode(line) {
                Ok(record) => Line::Record {
                    record,
                    text: line,
                    terminated,
                },
                Err(_) if !terminated => Line::Torn,
                Err(error) => Line::Corrupt {
                    number: index + 1,
                    text: line,
                    error,
                },
            })
        })
}

/// A salvaged log: every record that decoded, plus a count of the lines that did not.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvaged<T> {
    /// Records in file order (oldest first).
    pub records: Vec<T>,
    /// Non-blank lines that failed to decode — a torn tail, injected garbage or
    /// interleaved corruption.  A healthy log has zero.
    pub dropped: usize,
}

/// Keeps every line of `text` whose text `decode` accepts and counts the rest as
/// dropped.
pub fn salvage<T>(text: &str, mut decode: impl FnMut(&str) -> Option<T>) -> Salvaged<T> {
    let mut salvaged = Salvaged {
        records: Vec::new(),
        dropped: 0,
    };
    for line in classify(text, |line| decode(line).ok_or(())) {
        match line {
            Line::Record { record, .. } => salvaged.records.push(record),
            Line::Torn | Line::Corrupt { .. } => salvaged.dropped += 1,
        }
    }
    salvaged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<String> {
        classify(text, serde_json::from_str::<serde_json::Value>)
            .map(|line| match line {
                Line::Record {
                    text, terminated, ..
                } => format!("record {text} {terminated}"),
                Line::Torn => "torn".to_string(),
                Line::Corrupt { number, text, .. } => format!("corrupt {number} {text}"),
            })
            .collect()
    }

    #[test]
    fn classifier_tells_records_torn_tails_and_corruption_apart() {
        assert_eq!(
            kinds("{\"a\":1}\r\n\n  \n{bad\n[2]\n{\"cut"),
            vec![
                "record {\"a\":1} true",
                "corrupt 4 {bad",
                "record [2] true",
                "torn"
            ]
        );
        assert_eq!(
            kinds("[1]\n[2]"),
            vec!["record [1] true", "record [2] false"]
        );
        assert!(kinds("").is_empty());
    }

    #[test]
    fn append_repairs_a_torn_tail_and_skips_empty_batches() {
        let path = std::env::temp_dir().join(format!("slic-jsonl-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append(&path, "").expect("empty append");
        let unterminated = append(&path, "[0]").expect_err("an unterminated line");
        assert_eq!(unterminated.kind(), std::io::ErrorKind::InvalidInput);
        assert!(!path.exists(), "neither creates the file");
        std::fs::write(&path, "[1]\n[2").expect("seed a torn tail");
        append(&path, "[3]\n[4]\n").expect("append");
        assert_eq!(
            read(&path).expect("read back"),
            "[1]\n[3]\n[4]\n",
            "the torn line is gone and both lines landed whole"
        );
        std::fs::remove_file(&path).ok();
    }
}
