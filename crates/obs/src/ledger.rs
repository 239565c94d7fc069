//! The cross-run ledger: an append-only JSON-lines file of [`RunRecord`]s.
//!
//! Every `learn`/`characterize` run can append one line to `runs.jsonl` — what was
//! run (config fingerprint, seed, profile, backend), what it cost (wall time, sims
//! paid vs served from cache), what it produced (artifact content hash) and the full
//! [`MetricsSnapshot`].  `slic history` reads the ledger back, aligns records by
//! fingerprint and diffs the last two runs of the same configuration — the substrate
//! that lets CI catch a cache-hit-rate or farm-latency regression between PRs.
//!
//! The file discipline is [`crate::jsonl`]'s, shared with `DiskSimCache` and the trace
//! reader: writers take an exclusive advisory flock, truncate a torn final line left by
//! a crashed writer, then append whole lines; readers parse every line with
//! `serde_json`, salvage what decodes and count the rest as dropped rather than
//! refusing the file.  Like everything in `slic-obs`, the ledger is display-only by
//! construction — no result path reads it, and artifact bytes are identical with the
//! ledger on or off (CI `cmp`-gates that).

use crate::jsonl::{self, Salvaged};
use crate::metrics::{Histogram, MetricsSnapshot};
use crate::trace::escape_json;
use serde_json::Value;
use std::fmt::Write as _;
use std::path::Path;

/// Schema version stamped on every ledger line.
pub const LEDGER_SCHEMA: u64 = 1;

/// One run, as remembered across runs.
///
/// `seed`, `fingerprint` and `artifact_hash` are carried as strings on the wire: the
/// JSON layer parses numbers as `f64`, which is only exact up to 2^53, and a 64-bit
/// seed or hash must round-trip bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// `"learn"` or `"characterize"`.
    pub kind: String,
    /// `ResolvedConfig::fingerprint`-style 16-hex-digit configuration identity;
    /// records diff only against records with the same fingerprint.
    pub fingerprint: String,
    /// The run seed.
    pub seed: u64,
    /// Run profile name (`quick` / `signoff` / ...).
    pub profile: String,
    /// `"local"` or `"farm"` — kept for display; the fingerprint deliberately
    /// excludes it because artifacts are byte-identical across backends.
    pub backend: String,
    /// Wall duration of the whole command, monotonic-clock nanoseconds.
    pub wall_ns: u64,
    /// Simulations actually paid for (engine solves).
    pub sims_paid: u64,
    /// Simulations served from the cache instead.
    pub sims_cached: u64,
    /// Content hash of the produced artifact JSON (model database for `learn`,
    /// run artifact for `characterize`) — two runs of one fingerprint must match.
    pub artifact_hash: String,
    /// The full end-of-run metrics snapshot.
    pub snapshot: MetricsSnapshot,
}

impl RunRecord {
    /// Encodes the record as one JSON line (no trailing newline).
    ///
    /// The metrics snapshot is flattened to the same `name -> string` attribute map
    /// the end-of-run `metrics` trace event uses: counters as decimal strings,
    /// histograms via [`Histogram::encode`].
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(256);
        let _ = write!(
            line,
            "{{\"type\":\"run\",\"schema\":{},\"kind\":\"{}\",\"fingerprint\":\"{}\",\
             \"seed\":\"{:016x}\",\"profile\":\"{}\",\"backend\":\"{}\",\"wall_ns\":{},\
             \"sims_paid\":{},\"sims_cached\":{},\"artifact_hash\":\"{}\",\"metrics\":{{",
            LEDGER_SCHEMA,
            escape_json(&self.kind),
            escape_json(&self.fingerprint),
            self.seed,
            escape_json(&self.profile),
            escape_json(&self.backend),
            self.wall_ns,
            self.sims_paid,
            self.sims_cached,
            escape_json(&self.artifact_hash),
        );
        for (index, (name, value)) in self.snapshot.attrs().iter().enumerate() {
            if index > 0 {
                line.push(',');
            }
            let _ = write!(line, "\"{}\":\"{}\"", escape_json(name), escape_json(value));
        }
        line.push_str("}}");
        line
    }

    /// Decodes one parsed ledger object; `None` on anything that is not a complete
    /// `type:"run"` record (the caller counts those as dropped).
    pub fn decode(json: &Value) -> Option<Self> {
        if json.get("type")?.as_str()? != "run" {
            return None;
        }
        // Future schemas may add fields; refuse only records we cannot represent.
        if json.get("schema")?.as_u64()? > LEDGER_SCHEMA {
            return None;
        }
        let mut snapshot = MetricsSnapshot::default();
        for (name, value) in json.get("metrics")?.as_object()? {
            let text = value.as_str()?;
            // Counters are pure decimal strings; anything else must decode as an
            // encoded histogram.  The two formats cannot collide.
            if let Ok(count) = text.parse::<u64>() {
                snapshot.counters.push((name.clone(), count));
            } else {
                snapshot
                    .histograms
                    .push((name.clone(), Histogram::decode(text)?));
            }
        }
        snapshot.counters.sort();
        snapshot.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Some(Self {
            kind: json.get("kind")?.as_str()?.to_string(),
            fingerprint: json.get("fingerprint")?.as_str()?.to_string(),
            seed: u64::from_str_radix(json.get("seed")?.as_str()?, 16).ok()?,
            profile: json.get("profile")?.as_str()?.to_string(),
            backend: json.get("backend")?.as_str()?.to_string(),
            wall_ns: json.get("wall_ns")?.as_u64()?,
            sims_paid: json.get("sims_paid")?.as_u64()?,
            sims_cached: json.get("sims_cached")?.as_u64()?,
            artifact_hash: json.get("artifact_hash")?.as_str()?.to_string(),
            snapshot,
        })
    }

    /// Looks up a counter in the snapshot by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.snapshot
            .counters
            .iter()
            .find(|(counter, _)| counter == name)
            .map(|(_, value)| *value)
    }
}

/// Appends one record to the ledger at `path`, creating the file if needed, through
/// [`jsonl::append`] — so concurrent same-host runs (e.g. a CI matrix sharing one
/// ledger) interleave records, never bytes.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be opened, locked or
/// appended; the run itself is unaffected (the ledger is telemetry, not a result).
pub fn append(path: &Path, record: &RunRecord) -> std::io::Result<()> {
    let mut line = record.to_line();
    line.push('\n');
    jsonl::append(path, &line)
}

/// Reads the ledger at `path` under a shared advisory lock, salvaging every record
/// that decodes.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be opened or read — a
/// missing ledger included.
pub fn load(path: &Path) -> std::io::Result<Salvaged<RunRecord>> {
    Ok(jsonl::salvage(&jsonl::read(path)?, decode_line))
}

/// Parses one ledger line as JSON and decodes the record it holds.
fn decode_line(line: &str) -> Option<RunRecord> {
    RunRecord::decode(&serde_json::from_str(line).ok()?)
}

/// FNV-1a 64 over `bytes`, finished with a splitmix avalanche, rendered as 16 hex
/// digits — the workspace's standard content-identity hash (work-unit sharding uses
/// the same construction).  Used for both config fingerprints and artifact hashes.
pub fn content_hash(bytes: &[u8]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Splitmix avalanche so nearby inputs land far apart.
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^= hash >> 31;
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_record(seed: u64) -> RunRecord {
        let metrics = MetricsRegistry::new();
        metrics.counter_set("cache.hits", 12);
        metrics.counter_set("cache.misses", 3);
        metrics.observe("engine.batch_lanes", 4, &[1, 2, 4, 8]);
        RunRecord {
            kind: "characterize".to_string(),
            fingerprint: "00c0ffee00c0ffee".to_string(),
            seed,
            profile: "quick".to_string(),
            backend: "local".to_string(),
            wall_ns: 123_456_789,
            sims_paid: 40,
            sims_cached: 12,
            artifact_hash: content_hash(b"artifact"),
            snapshot: metrics.snapshot(),
        }
    }

    #[test]
    fn record_round_trips_through_a_line() {
        let record = sample_record(0xdead_beef_dead_beef);
        let parsed: Value = serde_json::from_str(&record.to_line()).expect("line is valid JSON");
        let decoded = RunRecord::decode(&parsed).expect("line decodes");
        assert_eq!(decoded, record);
    }

    #[test]
    fn seed_survives_beyond_f64_precision() {
        // 2^53 + 1 is the first integer a double cannot represent.
        let record = sample_record((1u64 << 53) + 1);
        let parsed: Value = serde_json::from_str(&record.to_line()).expect("valid JSON");
        let decoded = RunRecord::decode(&parsed).expect("decodes");
        assert_eq!(decoded.seed, (1u64 << 53) + 1);
    }

    #[test]
    fn append_and_load_round_trip_with_torn_tail_salvage() {
        let dir = std::env::temp_dir().join(format!(
            "slic-ledger-test-{}-{}",
            std::process::id(),
            "roundtrip"
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("runs.jsonl");
        let _ = std::fs::remove_file(&path);

        append(&path, &sample_record(1)).expect("first append");
        append(&path, &sample_record(2)).expect("second append");
        // Simulate a crashed writer: a torn line with no trailing newline.
        {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open for tearing");
            file.write_all(b"{\"type\":\"run\",\"schema\":1,\"kin")
                .expect("torn tail");
        }
        // The next append truncates the torn tail before writing.
        append(&path, &sample_record(3)).expect("append after tear");
        let ledger = load(&path).expect("load");
        assert_eq!(ledger.dropped, 0);
        assert_eq!(
            ledger.records.iter().map(|r| r.seed).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loader_salvages_around_corrupt_interior_lines() {
        let good = sample_record(7).to_line();
        let text = format!("{good}\nnot json at all\n{{\"type\":\"other\"}}\n{good}\n");
        let ledger = jsonl::salvage(&text, decode_line);
        assert_eq!(ledger.records.len(), 2);
        assert_eq!(ledger.dropped, 2);
    }

    #[test]
    fn future_schema_records_are_dropped_not_misread() {
        let line = sample_record(1)
            .to_line()
            .replace("\"schema\":1", "\"schema\":99");
        let parsed: Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(RunRecord::decode(&parsed), None);
    }

    #[test]
    fn content_hash_is_stable_and_collision_averse() {
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
        assert_eq!(content_hash(b"abc").len(), 16);
    }
}
