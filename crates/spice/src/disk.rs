//! A disk-backed simulation cache: warm state that survives process restarts.
//!
//! [`DiskSimCache`] persists `SimKey → TimingMeasurement` pairs as an append log of
//! one record per line.  Opening a cache loads every archived record into memory (see
//! [Loading](#loading)); `store` archives new records in memory and queues one line each;
//! [`flush`](DiskSimCache::flush) appends the queued lines to the log (and runs
//! automatically on drop).  Append-only persistence means shard workers of a split
//! [`CharacterizationPlan`] and later reruns all warm-start from the same file: a rerun
//! of an already-characterized shard pays zero transient simulations.
//!
//! Reads and appends go through [`slic_obs::jsonl`], the append-log discipline the run
//! ledger shares: an advisory file lock (shared for load, exclusive for flush), so
//! same-host workers pointed at one cache file never interleave partial lines; each
//! worker still only *sees* records flushed before it opened the file, so sequential
//! workers share everything while concurrent workers merely deduplicate what was on disk
//! when they started.  The in-memory side *is* an [`InMemorySimCache`], whose 16 locked
//! shards keep warm-replay lookups from contending under rayon.
//!
//! # Loading
//!
//! [`open`](DiskSimCache::open) reads the whole log under the shared lock, cuts the text
//! at line boundaries into one piece per thread (`rayon::current_num_threads`; one piece,
//! decoded on the calling thread, on a 1-core host), and decodes the pieces in parallel.
//! Each worker puts its records into per-shard parts as it goes and sorts each part by
//! key, keeping the log order of equal keys.  `open` then frees the text and builds each
//! shard's map once, in bulk, from its parts in log order, so the last record of a key
//! wins exactly as a line-by-line load would have it.  Error line numbers count from the
//! start of the file, and the first corrupt line in file order is the one reported.
//! [`compact`](DiskSimCache::compact) reads through the same decode, keeping records in
//! log order instead.
//!
//! # Record formats
//!
//! Every record is written in format **v2**: `<kernel id in hex> <coordinate>
//! <measurement>`, the fixed-width hex words of the [codec], about 310
//! bytes a line.  Every line is self-contained — there is no header — so a torn or
//! quarantined line orphans nothing, and concurrent appenders need no coordination
//! beyond the lock.  A line that starts with `{` is a **v1** record, the JSON object
//! earlier builds wrote; it still loads, so a v1 log that receives appends becomes a
//! mixed log that loads too, and [`compact`](DiskSimCache::compact) rewrites every line
//! as v2.  Both readers check the arc's pin and the measurement invariants, so a record
//! no valid solve produces is corrupt, reported with its line number.
//!
//! [`CharacterizationPlan`]: ../../slic_pipeline/plan/struct.CharacterizationPlan.html
//! [`InMemorySimCache`]: crate::cache::InMemorySimCache

use crate::cache::{
    CacheError, InMemorySimCache, SimKey, SimulationCache, WarmParts, LEGACY_KERNEL_VERSION,
};
use crate::codec::{self, Coordinate};
use crate::measure::TimingMeasurement;
use rayon::prelude::*;
use serde::{Deserialize, Error as SerdeError, Value};
use slic_obs::jsonl::{self, Line};
use std::fmt;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One archived simulation, as a v1 log line holds it: the JSON object logs written
/// before the [codec] hold.  The arc's pin and the measurement are checked
/// as the codec checks them.
#[derive(Deserialize)]
struct DiskRecord {
    key: SimKey,
    measurement: TimingMeasurement,
}

/// Parses a v1 record's fixed-width array of hex bit patterns.
fn bits_from_value<const N: usize>(value: &Value, field: &str) -> Result<[u64; N], SerdeError> {
    let items = value
        .as_array()
        .ok_or_else(|| SerdeError::expected("array of hex strings", value))?;
    if items.len() != N {
        return Err(SerdeError::custom(format!(
            "field `{field}`: expected {N} hex strings, found {}",
            items.len()
        )));
    }
    let mut bits = [0u64; N];
    for (slot, item) in bits.iter_mut().zip(items) {
        let text = item
            .as_str()
            .ok_or_else(|| SerdeError::expected("hex string", item))?;
        *slot = u64::from_str_radix(text, 16).map_err(|_| {
            SerdeError::custom(format!(
                "field `{field}`: `{text}` is not a hex bit pattern"
            ))
        })?;
    }
    Ok(bits)
}

/// A v1 record's key object.
impl Deserialize for SimKey {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", value))?;
        // Records written before the kernel field existed were produced by the seed RK4
        // solver; keying them as the legacy version keeps old persisted caches loadable
        // while guaranteeing they never answer a current-kernel lookup.
        let kernel = match value.get("kernel") {
            None => LEGACY_KERNEL_VERSION,
            Some(field) => {
                let text = field
                    .as_str()
                    .ok_or_else(|| SerdeError::expected("hex kernel version", field))?;
                u64::from_str_radix(text, 16).map_err(|_| {
                    SerdeError::custom(format!("`{text}` is not a hex kernel version"))
                })?
            }
        };
        let bits = |field: &str| {
            value
                .get(field)
                .ok_or_else(|| SerdeError::missing_field(field))
        };
        Ok(Self {
            kernel,
            coordinate: Coordinate {
                tech: serde::field(entries, "tech")?,
                arc: serde::field(entries, "arc")?,
                point: bits_from_value(bits("point")?, "point")?,
                seed: bits_from_value(bits("seed")?, "seed")?,
                config: bits_from_value(bits("config")?, "config")?,
            },
        })
    }
}

/// A v1 record's measurement object, through [`TimingMeasurement::try_new`]'s invariant
/// check.
impl Deserialize for TimingMeasurement {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", value))?;
        Self::try_new(
            serde::field(entries, "delay")?,
            serde::field(entries, "output_slew")?,
        )
        .map_err(SerdeError::custom)
    }
}

/// Decodes one log line: a v1 JSON record when it starts with `{`, a v2 record of codec
/// words otherwise.
///
/// # Errors
///
/// Says why the line is not a record: a JSON or codec syntax error, an arc pin its cell
/// lacks, or a measurement no valid solve produces.
pub fn decode_line(line: &str) -> Result<(SimKey, TimingMeasurement), String> {
    if line.starts_with('{') {
        let record: DiskRecord = serde_json::from_str(line).map_err(|err| err.to_string())?;
        Ok((record.key, record.measurement))
    } else {
        codec::decode_record(line)
    }
}

/// Cuts `text` into at most `count` consecutive pieces of about equal length, each cut
/// just after a newline, so every piece but the last ends with one.  No text, no pieces.
fn split_lines(text: &str, count: usize) -> Vec<&str> {
    let mut pieces = Vec::with_capacity(count);
    let mut rest = text;
    for left in (1..=count.max(1)).rev() {
        if rest.is_empty() {
            break;
        }
        let target = rest.len() / left;
        let len = match rest.as_bytes()[target..].iter().position(|&b| b == b'\n') {
            Some(newline) if left > 1 => target + newline + 1,
            _ => rest.len(),
        };
        let (piece, tail) = rest.split_at(len);
        pieces.push(piece);
        rest = tail;
    }
    pieces
}

/// A newline-terminated line that is not a record.
struct CorruptLine<'a> {
    /// The 1-based line number, counted from the start of the log.
    number: usize,
    /// The line's text, without its newline.
    text: &'a str,
    /// Why the line did not decode.
    error: String,
}

/// A v2 record line is longer than the 256 hex digits of its sixteen words, so a piece
/// of a log holds fewer records than it has bytes divided by this.
const RECORD_BYTES_AT_LEAST: usize = 256;

/// What one piece of a log decodes into.
trait Records: Send + Sync {
    /// Empty records with room for about `records` records.
    fn with_capacity(records: usize) -> Self;

    /// Adds a decoded record.
    fn push(&mut self, key: SimKey, measurement: TimingMeasurement);

    /// Runs on the worker that decoded the piece, after its last record.
    fn finish(&mut self) {}
}

/// Records in log order, as compaction reads them.
impl Records for Vec<(SimKey, TimingMeasurement)> {
    fn with_capacity(records: usize) -> Self {
        Vec::with_capacity(records)
    }

    fn push(&mut self, key: SimKey, measurement: TimingMeasurement) {
        Vec::push(self, (key, measurement));
    }
}

/// Records sorted into cache shards, as [`DiskSimCache::open`] loads them.
impl Records for WarmParts {
    fn with_capacity(records: usize) -> Self {
        WarmParts::with_capacity(records)
    }

    fn push(&mut self, key: SimKey, measurement: TimingMeasurement) {
        WarmParts::push(self, key, measurement);
    }

    /// Sorting on the workers leaves the calling thread a merge of sorted runs per
    /// shard.
    fn finish(&mut self) {
        self.sort();
    }
}

/// One piece of a log, as [`decode_pieces`] returns it.
struct Piece<'a, R> {
    /// The piece's text.
    text: &'a str,
    /// The piece's records.
    records: R,
    /// The piece's corrupt lines, in order.
    corrupt: Vec<CorruptLine<'a>>,
    /// A complete final record whose newline a crash lost: the next flush truncates it,
    /// so a writer that must keep it re-appends this text.  Only the log's last piece
    /// can end in one (or in a torn tail, which is skipped).
    unterminated: Option<&'a str>,
}

/// Decodes the log `text` in `count` pieces (see [`split_lines`]) on compat rayon's
/// workers, each line through [`jsonl::classify`] and [`decode_line`], into one `R` per
/// piece.  Returns the pieces in log order, with corrupt lines numbered from the start
/// of the log.
///
/// Each `R` is made on the calling thread with room for every record its piece can
/// hold, so a worker does not grow it.  Under glibc a thread allocates from its own
/// malloc arena, whose pages stay resident after the thread exits, and successive loads
/// land on different arenas: with buffers grown by the workers, perfbench `mc-warm`
/// (20 s on a 2-core VM) read a `peak_rss_mb` of 80 MB, against 53 MB with them made
/// here.
fn decode_pieces<R: Records>(text: &str, count: usize) -> Vec<Piece<'_, R>> {
    let starts: Vec<(&str, R)> = split_lines(text, count)
        .into_iter()
        .map(|text| {
            let records = R::with_capacity(text.len() / RECORD_BYTES_AT_LEAST + 1);
            (text, records)
        })
        .collect();
    let mut pieces: Vec<Piece<'_, R>> = starts
        .into_par_iter()
        .map(|(text, records)| {
            let mut piece = Piece {
                text,
                records,
                corrupt: Vec::new(),
                unterminated: None,
            };
            for line in jsonl::classify(text, decode_line) {
                match line {
                    Line::Record {
                        record: (key, measurement),
                        text,
                        terminated,
                    } => {
                        if !terminated {
                            piece.unterminated = Some(text);
                        }
                        piece.records.push(key, measurement);
                    }
                    // A truncated final record from an interrupted append; the next flush
                    // truncates it away before appending.
                    Line::Torn => {}
                    Line::Corrupt {
                        number,
                        text,
                        error,
                    } => piece.corrupt.push(CorruptLine {
                        number,
                        text,
                        error,
                    }),
                }
            }
            piece.records.finish();
            piece
        })
        .collect();
    // `classify` numbers a piece's lines from 1; counting the newlines of the pieces
    // before costs a pass over the text, so it happens only when a line is corrupt.
    if pieces.iter().any(|piece| !piece.corrupt.is_empty()) {
        let mut earlier_lines = 0;
        for piece in &mut pieces {
            for line in &mut piece.corrupt {
                line.number += earlier_lines;
            }
            earlier_lines += piece.text.matches('\n').count();
        }
    }
    pieces
}

/// What [`DiskSimCache::compact`] did to a log file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Records surviving in the compacted snapshot (unique keys, last value each).
    pub kept: usize,
    /// Duplicate records dropped (earlier values of keys that appear again later).
    pub dropped: usize,
    /// Legacy-kernel records evicted because
    /// [`CompactionOptions::drop_legacy`] was set (always zero otherwise).
    pub dropped_legacy: usize,
    /// Corrupt lines moved to the `.quarantine` sidecar because
    /// [`CompactionOptions::quarantine`] was set (always zero otherwise: without the
    /// flag, corruption aborts the compaction instead).
    pub quarantined: usize,
}

/// Knobs of a [`DiskSimCache::compact_with`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionOptions {
    /// Evict records whose [`SimKey`] kernel version predates the current
    /// [`KERNEL_VERSION`](crate::cache::KERNEL_VERSION).  Such records can never answer a
    /// lookup of this binary again; dropping them trades loadability by *older* binaries
    /// for a smaller log.
    pub drop_legacy: bool,
    /// Salvage a log with corrupt interior lines instead of aborting: every valid record
    /// is kept, and each corrupt line is moved verbatim to a `<path>.quarantine` sidecar
    /// for inspection.  Off by default because silent salvage would hide corruption; the
    /// operator opts in after the default compaction has already refused.
    pub quarantine: bool,
}

/// A persistent [`SimulationCache`] backed by an append log (see the module docs for
/// its record formats).
///
/// The in-memory tier (sharded map, hit/miss accounting) *is* an [`InMemorySimCache`];
/// this type adds the load-on-open / flush-on-drop persistence around it.  Hit/miss
/// accounting covers this process only (records loaded from disk are warm state, not
/// misses); see the [`cache`](crate::cache) module docs for the counting rules.
pub struct DiskSimCache {
    path: PathBuf,
    memory: InMemorySimCache,
    /// Record lines archived since the last flush, in store order.
    pending: Mutex<Vec<String>>,
}

impl fmt::Debug for DiskSimCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskSimCache")
            .field("path", &self.path)
            .field("len", &self.len())
            .finish()
    }
}

impl DiskSimCache {
    /// Opens (or creates) the cache log at `path`, loading every archived record.
    ///
    /// A missing file is an empty cache; missing parent directories are created.  The
    /// read holds a shared advisory lock, so a concurrent worker's flush never tears a
    /// record mid-read.  The log is decoded in parallel pieces and its text freed before
    /// the in-memory shards are built in bulk; when a key has several records the last
    /// one wins (see [Loading](crate::disk#loading)).  A malformed final line **without a
    /// trailing newline** is tolerated and ignored — it is the signature of a process
    /// killed mid-append, and the next flush truncates it away — but corruption anywhere
    /// else (including a newline-terminated final record) is an error: silently dropping
    /// archived simulations would quietly re-pay for them.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] on filesystem failures or a corrupt non-final record (the
    /// first in file order).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CacheError> {
        Self::open_in_pieces(path.as_ref(), rayon::current_num_threads())
    }

    /// [`open`](Self::open), decoding the log in `pieces` pieces.
    fn open_in_pieces(path: &Path, pieces: usize) -> Result<Self, CacheError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let text = match jsonl::read(path) {
            Ok(text) => text,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(err) => return Err(err.into()),
        };
        let mut parts = Vec::with_capacity(pieces);
        let mut pending = Vec::new();
        for piece in decode_pieces::<WarmParts>(&text, pieces) {
            if let Some(line) = piece.corrupt.into_iter().next() {
                return Err(CacheError::Corrupt {
                    line: line.number,
                    message: line.error,
                });
            }
            // A complete record whose trailing newline was lost in a crash: the next
            // flush truncates every un-terminated byte, so queue the record for re-append
            // or it would vanish from the log.
            pending.extend(piece.unterminated.map(str::to_string));
            parts.push(piece.records);
        }
        // The text is no longer needed: free it before the maps are built.
        drop(text);
        Ok(Self {
            path: path.to_path_buf(),
            memory: InMemorySimCache::from_warm(parts),
            pending: Mutex::new(pending),
        })
    }

    /// The log file this cache persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of archived measurements (loaded plus stored).
    pub fn len(&self) -> usize {
        self.memory.len()
    }

    /// Returns `true` when nothing is archived.
    pub fn is_empty(&self) -> bool {
        self.memory.is_empty()
    }

    /// Rewrites the append-only log at `path` as a deduplicated last-record-wins
    /// snapshot of v2 records, in place, under the same exclusive advisory lock every
    /// flush takes.
    ///
    /// The append log only grows: concurrent workers racing on one coordinate each append
    /// a record, reruns against a changed value append again, and a long campaign's log
    /// ends up storing each hot coordinate several times.  Compaction keeps exactly one
    /// record per unique [`SimKey`] — the **last** one, matching the last-record-wins
    /// load semantics — in first-appearance order, so a compacted log loads to the
    /// identical in-memory state as the original.
    ///
    /// The rewrite happens in place (seek to start, write the snapshot, truncate), not
    /// via rename: the file keeps its inode, so a concurrent worker blocked on the
    /// advisory lock appends to the *compacted* file when it acquires it, instead of to
    /// an unlinked orphan.  A torn final line (crashed writer) is repaired away, exactly
    /// as [`flush`](Self::flush) would.  A legacy-kernel record is kept by default — its
    /// key can never collide with a current-kernel key — so old logs stay loadable by old
    /// binaries; [`compact_with`](Self::compact_with) can evict them instead.
    ///
    /// A missing file is an empty cache: nothing to do, zero report.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] on filesystem failures or a corrupt non-final record
    /// (same tolerance as [`open`](Self::open)); the log is not modified in that case.
    pub fn compact(path: impl AsRef<Path>) -> Result<CompactionReport, CacheError> {
        Self::compact_with(path, CompactionOptions::default())
    }

    /// [`compact`](Self::compact) with explicit [`CompactionOptions`]:
    ///
    /// - `drop_legacy` additionally evicts records written by a kernel predating the
    ///   current [`KERNEL_VERSION`](crate::cache::KERNEL_VERSION) (the age-based eviction
    ///   a long-lived cache needs after a solver upgrade: those records are never
    ///   consulted again by this binary and only grow the log);
    /// - `quarantine` salvages a log the default compaction refuses: valid records are
    ///   kept, and each corrupt line moves verbatim to a `<path>.quarantine` sidecar
    ///   (appended, so repeated salvages accumulate evidence rather than overwrite it).
    ///   The sidecar is written *before* the log is rewritten, so a crash between the two
    ///   can duplicate a corrupt line in the sidecar but never lose one.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] on filesystem failures or — unless `quarantine` is set —
    /// a corrupt non-final record (same tolerance as [`open`](Self::open)); the log is
    /// not modified in that case.
    pub fn compact_with(
        path: impl AsRef<Path>,
        options: CompactionOptions,
    ) -> Result<CompactionReport, CacheError> {
        let mut file = match std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())
        {
            Ok(file) => file,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                return Ok(CompactionReport::default())
            }
            Err(err) => return Err(err.into()),
        };
        file.lock()?;
        let text = std::io::read_to_string(&file)?;
        // First-appearance order of unique keys; last-record-wins value per key.
        let mut order: Vec<SimKey> = Vec::new();
        let mut latest: std::collections::BTreeMap<SimKey, TimingMeasurement> =
            std::collections::BTreeMap::new();
        let mut records = 0usize;
        let mut dropped_legacy = 0usize;
        let mut quarantined: Vec<&str> = Vec::new();
        let pieces: Vec<Piece<'_, Vec<_>>> = decode_pieces(&text, rayon::current_num_threads());
        // A torn tail of a crashed append was skipped: the rewrite below repairs it.
        for piece in pieces {
            for line in piece.corrupt {
                if !options.quarantine {
                    return Err(CacheError::Corrupt {
                        line: line.number,
                        message: line.error,
                    });
                }
                quarantined.push(line.text);
            }
            for (key, measurement) in piece.records {
                if options.drop_legacy && key.is_legacy_kernel() {
                    dropped_legacy += 1;
                    continue;
                }
                records += 1;
                if latest.insert(key.clone(), measurement).is_none() {
                    order.push(key);
                }
            }
        }
        if !quarantined.is_empty() {
            // Sidecar first: a crash after this append but before the log rewrite below
            // duplicates a corrupt line in the sidecar, but never loses one.
            let mut sidecar_path = path.as_ref().as_os_str().to_os_string();
            sidecar_path.push(".quarantine");
            let mut sidecar = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&sidecar_path)?;
            let mut evidence = String::new();
            for line in &quarantined {
                evidence.push_str(line);
                evidence.push('\n');
            }
            sidecar.write_all(evidence.as_bytes())?;
            sidecar.flush()?;
        }
        let mut snapshot = String::new();
        for key in &order {
            snapshot.push_str(&codec::encode_record(key, &latest[key]));
            snapshot.push('\n');
        }
        file.seek(SeekFrom::Start(0))?;
        file.write_all(snapshot.as_bytes())?;
        file.set_len(snapshot.len() as u64)?;
        file.flush()?;
        // Closing the handle releases the lock.
        Ok(CompactionReport {
            kept: order.len(),
            dropped: records - order.len(),
            dropped_legacy,
            quarantined: quarantined.len(),
        })
    }

    /// Appends every record stored since the last flush to the log file, under an
    /// exclusive advisory lock so concurrent same-host workers append whole lines.
    ///
    /// A torn final line left by a crashed writer is truncated away first — appending
    /// after it would weld the partial bytes and the first new record into one
    /// unparseable interior line and brick the log for every later `open`.
    ///
    /// Called automatically on drop; call it explicitly when the cache must be durable at
    /// a known point (e.g. before handing the file to the next shard worker).
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError::Io`] when the log cannot be appended; the pending records
    /// are kept for a retry.
    pub fn flush(&self) -> Result<(), CacheError> {
        let mut pending = self
            .pending
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        jsonl::append(&self.path, &pending)?;
        pending.clear();
        Ok(())
    }
}

impl SimulationCache for DiskSimCache {
    fn lookup(&self, key: &SimKey) -> Option<TimingMeasurement> {
        self.memory.lookup(key)
    }

    fn store(&self, key: SimKey, measurement: TimingMeasurement) {
        let line = codec::encode_record(&key, &measurement);
        // Re-storing the identical value (a benign replay) keeps the log clean; a changed
        // value must be appended because loading is last-record-wins.
        if self.memory.archive(key, measurement) != Some(measurement) {
            self.pending
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push(line);
        }
    }

    fn hits(&self) -> u64 {
        self.memory.hits()
    }

    fn warm_hits(&self) -> u64 {
        self.memory.warm_hits()
    }

    fn misses(&self) -> u64 {
        self.memory.misses()
    }

    fn persist(&self) -> Result<(), CacheError> {
        self.flush()
    }
}

impl Drop for DiskSimCache {
    fn drop(&mut self) {
        if let Err(err) = self.flush() {
            eprintln!(
                "warning: failed to flush simulation cache `{}`: {err}",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KERNEL_VERSION;
    use crate::input::InputPoint;
    use crate::transient::TransientConfig;
    use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
    use slic_device::ProcessSample;
    use slic_units::{Farads, Seconds, Volts};

    fn key(sin_ps: f64, cload_ff: f64) -> SimKey {
        let cell = Cell::new(CellKind::Nand2, DriveStrength::X2);
        let arc = TimingArc::new(cell, 0, Transition::Rise);
        let point = InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(0.8),
        );
        SimKey::new(
            KERNEL_VERSION,
            "n14",
            &arc,
            &point,
            &ProcessSample::nominal(),
            &TransientConfig::fast(),
        )
    }

    fn measurement(delay_ps: f64) -> TimingMeasurement {
        TimingMeasurement::new(
            Seconds::from_picoseconds(delay_ps),
            Seconds::from_picoseconds(delay_ps * 0.6),
        )
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("slic-disk-cache-{}-{name}", std::process::id()))
    }

    #[test]
    fn persists_across_reopen() {
        let path = temp_path("roundtrip.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens fresh");
            assert!(cache.is_empty());
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
            cache.flush().expect("flushes");
            assert_eq!(cache.misses(), 2);
        }
        let reopened = DiskSimCache::open(&path).expect("reopens");
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.lookup(&key(5.0, 2.0)), Some(measurement(12.0)));
        assert_eq!(reopened.lookup(&key(6.0, 3.0)), Some(measurement(15.0)));
        assert_eq!(reopened.hits(), 2);
        assert_eq!(reopened.misses(), 0, "loaded records are not misses");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_on_drop_without_explicit_flush() {
        let path = temp_path("drop.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(7.0, 1.0), measurement(9.0));
        }
        let reopened = DiskSimCache::open(&path).expect("reopens");
        assert_eq!(reopened.lookup(&key(7.0, 1.0)), Some(measurement(9.0)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_stores_append_once() {
        let path = temp_path("dedup.jsonl");
        std::fs::remove_file(&path).ok();
        let cache = DiskSimCache::open(&path).expect("opens");
        cache.store(key(5.0, 2.0), measurement(12.0));
        cache.store(key(5.0, 2.0), measurement(12.0));
        cache.flush().expect("flushes");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 2, "both solves were paid");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "the log stays deduplicated");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let path = temp_path("truncated.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        // Simulate a crash mid-append: chop the last record in half.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 25;
        std::fs::write(&path, &text[..keep]).unwrap();
        let reopened = DiskSimCache::open(&path).expect("tolerates a torn tail");
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.lookup(&key(5.0, 2.0)), Some(measurement(12.0)));

        // Appending through the survivor must first truncate the torn bytes — otherwise
        // they would weld onto the new record and corrupt an interior line for good.
        reopened.store(key(9.0, 4.0), measurement(20.0));
        reopened.flush().expect("flush repairs the torn tail");
        let repaired = DiskSimCache::open(&path).expect("log is clean again");
        assert_eq!(repaired.len(), 2);
        assert_eq!(repaired.lookup(&key(5.0, 2.0)), Some(measurement(12.0)));
        assert_eq!(repaired.lookup(&key(9.0, 4.0)), Some(measurement(20.0)));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().all(|l| codec::decode_record(l).is_ok()),
            "every physical line must be a v2 record after the repairing flush"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn complete_record_missing_its_newline_survives_the_repairing_flush() {
        let path = temp_path("no-newline.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        // Crash lost only the final newline: the last record's bytes are complete.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        {
            let survivor = DiskSimCache::open(&path).expect("opens");
            assert_eq!(survivor.len(), 2, "the newline-less record still loads");
            survivor.store(key(9.0, 4.0), measurement(20.0));
            // Drop flushes: truncation removes the un-terminated bytes, and the queued
            // re-append keeps the record durable.
        }
        let reopened = DiskSimCache::open(&path).expect("clean log");
        assert_eq!(reopened.len(), 3, "no archived record may be lost");
        assert_eq!(reopened.lookup(&key(6.0, 3.0)), Some(measurement(15.0)));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        assert!(text.lines().all(|l| codec::decode_record(l).is_ok()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_truncates_a_file_that_is_one_torn_line() {
        let path = temp_path("all-torn.jsonl");
        std::fs::remove_file(&path).ok();
        std::fs::write(&path, "{\"key\":{\"tec").unwrap();
        let cache = DiskSimCache::open(&path).expect("tolerates");
        assert!(cache.is_empty());
        cache.store(key(5.0, 2.0), measurement(12.0));
        cache.flush().expect("flushes");
        let reopened = DiskSimCache::open(&path).expect("clean log");
        assert_eq!(reopened.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn complete_corrupt_final_line_is_an_error() {
        let path = temp_path("corrupt-final.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        // A newline-terminated garbage line is corruption, not a torn append: tolerating
        // it would let a later flush turn it into unfixable interior corruption.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        *lines.last_mut().unwrap() = "{broken".to_string();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = DiskSimCache::open(&path).expect_err("complete corrupt line rejected");
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_record_no_valid_solve_produces_is_corrupt_in_either_format() {
        let v1 = include_str!("../tests/v1_cache.jsonl")
            .lines()
            .nth(1)
            .unwrap();
        let v1_bad = v1.replacen(
            "\"measurement\":{\"delay\":2.1e-11,\"output_slew\":9.5e-12}",
            "\"measurement\":{\"delay\":-1e-12,\"output_slew\":0}",
            1,
        );
        assert_ne!(
            v1_bad, v1,
            "the fixture's second record carries this measurement"
        );
        let v2 = codec::encode_record(&key(5.0, 2.0), &measurement(12.0));
        let (coordinate, _) = v2.rsplit_once(' ').unwrap();
        let (coordinate, _) = coordinate.rsplit_once(' ').unwrap();
        let v2_bad = format!("{coordinate} {:016x} {:016x}", 1e-12f64.to_bits(), 0u64);
        for (name, bad) in [("v1", v1_bad), ("v2", v2_bad)] {
            let path = temp_path(&format!("bad-measurement-{name}.jsonl"));
            std::fs::write(&path, format!("{v2}\n{bad}\n")).unwrap();
            let err = DiskSimCache::open(&path).expect_err("no solve produces this");
            std::fs::remove_file(&path).ok();
            let message = err.to_string();
            assert!(
                message.contains("corrupt cache record at line 2"),
                "{name}: {message}"
            );
            assert!(message.contains("must be finite"), "{name}: {message}");
        }
    }

    /// A v2 log line for `key(sin_ps, cload_ff)` measured at `delay_ps`.
    fn record(sin_ps: f64, cload_ff: f64, delay_ps: f64) -> String {
        codec::encode_record(&key(sin_ps, cload_ff), &measurement(delay_ps))
    }

    /// Asserts that `cache` holds exactly `expected`, `((sin, cload), delay)` each, as
    /// warm records.
    fn assert_loaded(cache: &DiskSimCache, expected: &[((f64, f64), f64)], pieces: usize) {
        assert_eq!(cache.len(), expected.len(), "{pieces} pieces");
        for &((sin, cload), delay) in expected {
            assert_eq!(
                cache.lookup(&key(sin, cload)),
                Some(measurement(delay)),
                "{pieces} pieces: key ({sin}, {cload})"
            );
        }
        assert_eq!(cache.warm_hits(), expected.len() as u64, "{pieces} pieces");
        assert_eq!(cache.misses(), 0, "{pieces} pieces");
    }

    #[test]
    fn the_loaded_cache_does_not_depend_on_the_piece_count() {
        // Line 1 stores a key that line 6 stores again with a changed value; line 3 is
        // blank.
        let body = [
            record(5.0, 2.0, 12.0),
            record(6.0, 3.0, 15.0),
            String::new(),
            record(7.0, 4.0, 18.0),
            record(8.0, 1.0, 21.0),
            record(5.0, 2.0, 99.0),
        ]
        .join("\n")
            + "\n";
        let last = record(9.0, 4.0, 20.0);
        let loaded = [
            ((5.0, 2.0), 99.0),
            ((6.0, 3.0), 15.0),
            ((7.0, 4.0), 18.0),
            ((8.0, 1.0), 21.0),
        ];
        // One piece, a few, and more pieces than the log has lines.
        for pieces in [1, 2, 3, 12] {
            // A torn final line is skipped.
            let path = temp_path(&format!("pieces-torn-{pieces}.jsonl"));
            std::fs::write(&path, format!("{body}{}", &last[..last.len() / 2])).unwrap();
            let cache = DiskSimCache::open_in_pieces(&path, pieces).expect("tolerates");
            assert_loaded(&cache, &loaded, pieces);
            assert!(cache.pending.lock().unwrap().is_empty(), "{pieces} pieces");
            drop(cache);
            std::fs::remove_file(&path).ok();

            // A complete final record without its newline loads, and the next flush
            // re-appends it whole after truncating its bytes.
            let path = temp_path(&format!("pieces-no-newline-{pieces}.jsonl"));
            std::fs::write(&path, format!("{body}{last}")).unwrap();
            let cache = DiskSimCache::open_in_pieces(&path, pieces).expect("opens");
            let mut with_last = loaded.to_vec();
            with_last.push(((9.0, 4.0), 20.0));
            assert_loaded(&cache, &with_last, pieces);
            assert_eq!(*cache.pending.lock().unwrap(), vec![last.clone()]);
            cache.flush().expect("flushes");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                format!("{body}{last}\n"),
                "{pieces} pieces"
            );
            drop(cache);
            std::fs::remove_file(&path).ok();

            // A newline-terminated corrupt line is reported at its line in the file.
            let path = temp_path(&format!("pieces-corrupt-{pieces}.jsonl"));
            std::fs::write(&path, format!("{body}{{broken\n{last}\n")).unwrap();
            let err = DiskSimCache::open_in_pieces(&path, pieces).expect_err("corrupt");
            std::fs::remove_file(&path).ok();
            assert!(
                err.to_string()
                    .starts_with("corrupt cache record at line 7:"),
                "{pieces} pieces: {err}"
            );
        }
    }

    #[test]
    fn split_lines_cuts_after_newlines() {
        let text = "a\nbb\n\nccc\nd";
        for count in 1..=8 {
            let pieces = split_lines(text, count);
            assert_eq!(pieces.concat(), text, "{count} pieces");
            assert!(pieces.len() <= count && !pieces.is_empty(), "{pieces:?}");
            let (last, earlier) = pieces.split_last().unwrap();
            assert!(!last.is_empty(), "{pieces:?}");
            assert!(
                earlier.iter().all(|piece| piece.ends_with('\n')),
                "{pieces:?}"
            );
        }
        assert!(
            split_lines(text, 8).len() <= 5,
            "never more pieces than lines"
        );
        assert!(split_lines("", 4).is_empty());
    }

    #[test]
    fn persist_delegates_to_flush() {
        let path = temp_path("persist.jsonl");
        std::fs::remove_file(&path).ok();
        let cache = DiskSimCache::open(&path).expect("opens");
        cache.store(key(5.0, 2.0), measurement(12.0));
        SimulationCache::persist(&cache).expect("persists");
        assert_eq!(DiskSimCache::open(&path).expect("reopens").len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let path = temp_path("corrupt.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[0] = "{not json".to_string();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = DiskSimCache::open(&path).expect_err("must reject interior corruption");
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]
        #[test]
        fn arbitrary_records_round_trip_through_the_log(
            sins in proptest::collection::vec(0.1f64..40.0, 1..24),
            delays in proptest::collection::vec(0.5f64..80.0, 24),
        ) {
            let path = temp_path(&format!("prop-{}.jsonl", sins.len()));
            std::fs::remove_file(&path).ok();
            let records: Vec<(SimKey, TimingMeasurement)> = sins
                .iter()
                .zip(&delays)
                .map(|(&sin, &delay)| (key(sin, 2.0), measurement(delay)))
                .collect();
            {
                let cache = DiskSimCache::open(&path).expect("opens fresh");
                for (k, m) in &records {
                    cache.store(k.clone(), *m);
                }
                cache.flush().expect("flushes");
            }
            let reopened = DiskSimCache::open(&path).expect("reopens");
            for (k, m) in &records {
                proptest::prop_assert_eq!(
                    reopened.lookup(k),
                    Some(*m),
                    "coordinate bit patterns and measurements must survive persistence"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn compaction_keeps_the_last_record_per_key_and_reports_drops() {
        let path = temp_path("compact.jsonl");
        std::fs::remove_file(&path).ok();
        {
            // Two processes racing on one coordinate each append their own record, and a
            // later run overwrites a value: three physical lines, two unique keys.
            let first = DiskSimCache::open(&path).expect("opens");
            first.store(key(5.0, 2.0), measurement(12.0));
            first.store(key(6.0, 3.0), measurement(15.0));
            first.flush().expect("flushes");
        }
        // A second writer blind to the first (fresh process, same file) re-appends an
        // updated value for an existing key by writing the raw line, as a concurrent
        // worker's flush would.
        {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            let line = codec::encode_record(&key(5.0, 2.0), &measurement(99.0));
            writeln!(file, "{line}").unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 3);
        let report = DiskSimCache::compact(&path).expect("compacts");
        assert_eq!(
            report,
            CompactionReport {
                kept: 2,
                dropped: 1,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "one line per unique key");
        let reopened = DiskSimCache::open(&path).expect("compacted log loads");
        assert_eq!(
            reopened.lookup(&key(5.0, 2.0)),
            Some(measurement(99.0)),
            "last record wins, exactly as the uncompacted load would resolve"
        );
        assert_eq!(reopened.lookup(&key(6.0, 3.0)), Some(measurement(15.0)));
        // Idempotent: a second compaction drops nothing.
        let again = DiskSimCache::compact(&path).expect("compacts again");
        assert_eq!(
            again,
            CompactionReport {
                kept: 2,
                dropped: 0,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_repairs_a_torn_tail_and_tolerates_missing_files() {
        let path = temp_path("compact-torn.jsonl");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            DiskSimCache::compact(&path).expect("missing file is empty"),
            CompactionReport {
                kept: 0,
                dropped: 0,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        // Crash mid-append: chop the final record in half (no trailing newline).
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 25]).unwrap();
        let report = DiskSimCache::compact(&path).expect("tolerates the torn tail");
        assert_eq!(
            report,
            CompactionReport {
                kept: 1,
                dropped: 0,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        let repaired = std::fs::read_to_string(&path).unwrap();
        assert!(repaired.ends_with('\n'));
        assert!(repaired.lines().all(|l| codec::decode_record(l).is_ok()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_legacy_compaction_evicts_pre_upgrade_records_and_reports_them_separately() {
        let path = temp_path("compact-legacy.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
            // A benign duplicate so plain dedup drops something too.
            cache.store(key(5.0, 2.0), measurement(13.0));
        }
        // Two records written by the pre-upgrade kernel, generation 1.
        {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            for (k, m) in [(7.0, 21.0), (8.0, 22.0)] {
                let legacy = SimKey {
                    kernel: 1,
                    ..key(k, 1.0)
                };
                assert!(legacy.is_legacy_kernel());
                writeln!(file, "{}", codec::encode_record(&legacy, &measurement(m))).unwrap();
            }
        }
        // A plain compaction keeps the legacy records (old binaries can still load them).
        let plain = DiskSimCache::compact(&path).expect("compacts");
        assert_eq!(
            plain,
            CompactionReport {
                kept: 4,
                dropped: 1,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        // Dropping legacy evicts exactly the pre-upgrade records, reported separately
        // from the superseded-duplicate count.
        let report = DiskSimCache::compact_with(
            &path,
            CompactionOptions {
                drop_legacy: true,
                ..CompactionOptions::default()
            },
        )
        .expect("compacts");
        assert_eq!(
            report,
            CompactionReport {
                kept: 2,
                dropped: 0,
                dropped_legacy: 2,
                quarantined: 0
            }
        );
        let survivors = DiskSimCache::open(&path).expect("compacted log loads");
        assert_eq!(survivors.len(), 2);
        assert_eq!(survivors.lookup(&key(5.0, 2.0)), Some(measurement(13.0)));
        assert_eq!(survivors.lookup(&key(6.0, 3.0)), Some(measurement(15.0)));
        // Idempotent: nothing legacy remains.
        let again = DiskSimCache::compact_with(
            &path,
            CompactionOptions {
                drop_legacy: true,
                ..CompactionOptions::default()
            },
        )
        .expect("compacts again");
        assert_eq!(
            again,
            CompactionReport {
                kept: 2,
                dropped: 0,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_rejects_interior_corruption_without_touching_the_log() {
        let path = temp_path("compact-corrupt.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[0] = "{not json".to_string();
        let corrupted = lines.join("\n") + "\n";
        std::fs::write(&path, &corrupted).unwrap();
        let err = DiskSimCache::compact(&path).expect_err("interior corruption rejected");
        assert!(err.to_string().contains("line 1"), "{err}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            corrupted,
            "a failed compaction must leave the log untouched"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quarantine_compaction_salvages_valid_records_and_sidecars_corrupt_lines() {
        let path = temp_path("compact-quarantine.jsonl");
        let sidecar = temp_path("compact-quarantine.jsonl.quarantine");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
            cache.store(key(7.0, 4.0), measurement(18.0));
        }
        // Corrupt an interior line and the (newline-terminated) final line: both are the
        // "real corruption" class that open() and the default compaction refuse.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = "{bitrot in the middle".to_string();
        lines.push("trailing garbage, with its newline".to_string());
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        DiskSimCache::compact(&path).expect_err("default compaction still refuses");
        let report = DiskSimCache::compact_with(
            &path,
            CompactionOptions {
                quarantine: true,
                ..CompactionOptions::default()
            },
        )
        .expect("quarantine salvages");
        assert_eq!(
            report,
            CompactionReport {
                kept: 2,
                dropped: 0,
                dropped_legacy: 0,
                quarantined: 2
            }
        );
        // Every valid record survived, and the log is clean again.
        let salvaged = DiskSimCache::open(&path).expect("salvaged log loads");
        assert_eq!(salvaged.len(), 2);
        assert_eq!(salvaged.lookup(&key(5.0, 2.0)), Some(measurement(12.0)));
        assert_eq!(salvaged.lookup(&key(7.0, 4.0)), Some(measurement(18.0)));
        // The corrupt lines moved verbatim to the sidecar, in log order.
        let evidence = std::fs::read_to_string(&sidecar).expect("sidecar written");
        assert_eq!(
            evidence.lines().collect::<Vec<_>>(),
            vec![
                "{bitrot in the middle",
                "trailing garbage, with its newline"
            ]
        );
        // A salvaged log quarantines nothing on the next pass, and leaves the sidecar be.
        let again = DiskSimCache::compact_with(
            &path,
            CompactionOptions {
                quarantine: true,
                ..CompactionOptions::default()
            },
        )
        .expect("compacts again");
        assert_eq!(again.quarantined, 0);
        assert_eq!(std::fs::read_to_string(&sidecar).unwrap(), evidence);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn repeated_quarantine_salvages_append_to_the_sidecar() {
        let path = temp_path("compact-quarantine-append.jsonl");
        let sidecar = temp_path("compact-quarantine-append.jsonl.quarantine");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
        let quarantine = CompactionOptions {
            quarantine: true,
            ..CompactionOptions::default()
        };
        for round in ["first corruption", "second corruption"] {
            {
                let cache = DiskSimCache::open(&path).expect("opens");
                cache.store(key(5.0, 2.0), measurement(12.0));
            }
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(file, "{round}").unwrap();
            drop(file);
            let report = DiskSimCache::compact_with(&path, quarantine).expect("salvages");
            assert_eq!(report.quarantined, 1);
        }
        let evidence = std::fs::read_to_string(&sidecar).unwrap();
        assert_eq!(
            evidence.lines().collect::<Vec<_>>(),
            vec!["first corruption", "second corruption"],
            "each salvage appends its evidence instead of overwriting the last"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn missing_file_is_an_empty_cache() {
        let path = temp_path("missing.jsonl");
        std::fs::remove_file(&path).ok();
        let cache = DiskSimCache::open(&path).expect("opens a missing file");
        assert!(cache.is_empty());
        assert_eq!(cache.path(), path.as_path());
        std::fs::remove_file(&path).ok();
    }
}
