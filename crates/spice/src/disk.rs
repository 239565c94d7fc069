//! A disk-backed simulation cache: warm state that survives process restarts.
//!
//! [`DiskSimCache`] persists `SimKey → TimingMeasurement` pairs as an append log of
//! one record per line.  Opening a cache loads every archived record into memory (see
//! [Loading](#loading)); `store` archives a new record in memory and, when its value is
//! new, encodes its line straight into one pending text buffer, newline included.  Once
//! the buffer holds a block (1 MiB), `store` appends it to the log as it is and reuses it;
//! [`flush`](DiskSimCache::flush) appends the rest (and runs automatically on drop).  So a
//! pending record is held once, as the bytes the log will hold, and a cold run holds at
//! most about one block of them.  Append-only persistence means shard workers of a split
//! [`CharacterizationPlan`] and later reruns all warm-start from the same file: a rerun
//! of an already-characterized shard pays zero transient simulations.
//!
//! Appends go through [`slic_obs::jsonl`], the append-log discipline the run ledger
//! shares, and reads classify lines with its classifier.  An advisory file lock (shared
//! for load, exclusive for flush) keeps same-host workers pointed at one cache file from
//! interleaving partial lines; each worker still only *sees* records flushed before it
//! opened the file, so sequential workers share everything while concurrent workers
//! merely deduplicate what was on disk when they started.  The in-memory side *is* an
//! [`InMemorySimCache`], whose 16 locked shards keep warm-replay lookups from contending
//! under rayon.
//!
//! # Loading
//!
//! [`open`](DiskSimCache::open) never holds the log's text.  Under the shared lock it cuts
//! the file into one byte range per thread (`rayon::current_num_threads`; one range,
//! decoded on the calling thread, on a 1-core host): each range but the last ends just
//! after the first newline at or past an even share of the file, which a small
//! positioned read finds.  Each worker reads its range with positioned reads on the
//! locked handle into a block buffer of 1 MiB, decodes the block's complete lines through
//! [`jsonl::classify`] and [`decode_line`], and moves the partial last line to the front
//! of the buffer; a line longer than the buffer grows it.  Blocks end at newlines, so
//! each block is checked as UTF-8 on its own.
//!
//! Each worker decodes its range straight into the in-memory cache's layout, technology
//! → sweep → input point in each of its 16 shards (see [`InMemorySimCache`]); a record
//! inserted over an earlier one of its range replaces it.  `open` then merges the ranges
//! in log order: the first range's shards become the cache's, and each later range's
//! points move in sweep by sweep through `BTreeMap::append`, which keeps the later of
//! two records of one point.  So the last record of a coordinate wins, within a range
//! and across ranges, exactly as a line-by-line load would have it.  The calling thread
//! allocates each worker's block buffer before the workers start; the maps' nodes cannot
//! be sized ahead and are allocated by the worker that fills them (building them on the
//! calling thread instead, from presized per-shard lists of decoded records, measured
//! higher: perfbench `mc-warm` `peak_rss_mb` 27.0 against 19.2–20.7 MB on a 2-vCPU
//! Linux VM).  A decoded
//! record owns no allocation of its own: a worker's [`Decoder`] gives a run of records of
//! one technology one shared name, and the maps hold each name once per shard.
//!
//! Each worker numbers its corrupt lines within the block it read them in; the error
//! counts the newlines before that block, so its line number counts from the start of
//! the file, and the first corrupt line in file order is the one reported.  Only the
//! last range can end in a torn tail (skipped) or in a complete record without its
//! newline (queued for re-append).  [`compact`](DiskSimCache::compact) reads through the
//! same ranged decode, keeping records in log order instead, and copies corrupt lines
//! out for its quarantine sidecar.
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
use crate::codec::{self, Coordinate, Decoder};
use crate::measure::TimingMeasurement;
use rayon::prelude::*;
use serde::{Deserialize, Error as SerdeError, Value};
use slic_obs::jsonl::{self, Line};
use std::fmt;
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::ops::Range;
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
                tech: serde::field::<String>(entries, "tech")?.into(),
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
    decode_line_with(&mut Decoder::default(), line)
}

/// [`decode_line`], reading a v2 record through `decoder`, which shares technology
/// names between the lines it decodes.
fn decode_line_with(
    decoder: &mut Decoder,
    line: &str,
) -> Result<(SimKey, TimingMeasurement), String> {
    if line.starts_with('{') {
        let record: DiskRecord = serde_json::from_str(line).map_err(|err| err.to_string())?;
        Ok((record.key, record.measurement))
    } else {
        decoder.record(line)
    }
}

/// The bytes a decode worker reads at a time: about 3,400 v2 records.
const BLOCK_BYTES: usize = 1 << 20;

/// The bytes one small positioned read takes, looking for a cut or counting newlines.
const PROBE_BYTES: usize = 4096;

/// A v2 record line is longer than the 256 hex digits of its sixteen words, so a range
/// of a log holds fewer records than it has bytes divided by this.
const RECORD_BYTES_AT_LEAST: usize = 256;

/// Fills `buf` with the bytes of `file` at `offset`.  The read leaves the handle's cursor
/// alone, so decode workers can share the one locked handle.
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(windows)]
    {
        let (mut buf, mut offset) = (buf, offset);
        while !buf.is_empty() {
            match std::os::windows::fs::FileExt::seek_read(file, buf, offset)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                read => {
                    buf = &mut buf[read..];
                    offset += read as u64;
                }
            }
        }
        Ok(())
    }
}

/// The length of the next probe when `left` bytes remain.
fn probe_len(left: u64) -> usize {
    usize::try_from(left).map_or(PROBE_BYTES, |left| left.min(PROBE_BYTES))
}

/// The offset of the first newline at or past `from` in `file`, `len` bytes long, found
/// by small positioned reads; `None` when there is none.
fn next_newline(file: &File, from: u64, len: u64) -> io::Result<Option<u64>> {
    let mut probe = [0u8; PROBE_BYTES];
    let mut at = from;
    while at < len {
        let bytes = &mut probe[..probe_len(len - at)];
        read_exact_at(file, bytes, at)?;
        if let Some(newline) = bytes.iter().position(|&byte| byte == b'\n') {
            return Ok(Some(at + newline as u64));
        }
        at += bytes.len() as u64;
    }
    Ok(None)
}

/// Cuts `file`, `len` bytes long, into at most `count` consecutive byte ranges of about
/// equal length: each range but the last ends just after the first newline at or past
/// an even share of the file.  An empty file has no ranges.
fn cut_ranges(file: &File, len: u64, count: usize) -> io::Result<Vec<Range<u64>>> {
    let count = count.max(1) as u64;
    let mut ranges = Vec::with_capacity(count as usize);
    let mut start = 0;
    for share in 1..count {
        let even = (u128::from(len) * u128::from(share) / u128::from(count)) as u64;
        let Some(newline) = next_newline(file, even.max(start), len)? else {
            break;
        };
        ranges.push(start..newline + 1);
        start = newline + 1;
    }
    if start < len {
        ranges.push(start..len);
    }
    Ok(ranges)
}

/// A newline-terminated line that is not a record.
struct CorruptLine {
    /// The file offset of the block the line was decoded in, which starts a line.
    block: u64,
    /// The 1-based line number within that block.
    number: usize,
    /// The line's text, without its newline.
    text: String,
    /// Why the line did not decode.
    error: String,
}

impl CorruptLine {
    /// The error that reports this line of the locked `file`, its number counted from
    /// the start of the file.  The newlines before the line's block are counted here,
    /// for the one line an error reports, and not while the log decodes.
    fn into_error(self, file: &File) -> CacheError {
        let mut probe = [0u8; PROBE_BYTES];
        let mut newlines = 0;
        let mut at = 0;
        while at < self.block {
            let bytes = &mut probe[..probe_len(self.block - at)];
            if let Err(err) = read_exact_at(file, bytes, at) {
                return err.into();
            }
            newlines += bytes.iter().filter(|&&byte| byte == b'\n').count();
            at += bytes.len() as u64;
        }
        CacheError::Corrupt {
            line: newlines + self.number,
            message: self.error,
        }
    }
}

/// What one byte range of a log decodes into.
trait Records: Send + Sync {
    /// Empty records with room for about `records` records.
    fn with_capacity(records: usize) -> Self;

    /// Adds a decoded record.
    fn push(&mut self, key: SimKey, measurement: TimingMeasurement);
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

/// Records in the in-memory cache's layout, grouped by shard and sweep, as
/// [`DiskSimCache::open`] loads them.  Maps cannot be sized ahead, so their nodes are
/// allocated by the worker that decodes the range.
impl Records for WarmParts {
    fn with_capacity(_records: usize) -> Self {
        WarmParts::default()
    }

    fn push(&mut self, key: SimKey, measurement: TimingMeasurement) {
        WarmParts::push(self, key, measurement);
    }
}

/// One byte range of a log, as [`decode_ranges`] returns it.
struct Decoded<R> {
    /// The range's records.
    records: R,
    /// The range's corrupt lines, in order.
    corrupt: Vec<CorruptLine>,
    /// A complete final record whose newline a crash lost: the next flush truncates it,
    /// so a writer that must keep it re-appends this text.  Only the log's last range
    /// can end in one (or in a torn tail, which is skipped).
    unterminated: Option<String>,
}

/// Decodes the log behind the locked `file` in at most `count` byte ranges (see
/// [`cut_ranges`]), one per compat rayon worker, each read through a block buffer of
/// `block` bytes.  Returns the ranges in log order.
///
/// Each worker's block buffer and its `R`, given room for every record its range can hold
/// where `R` can be sized ahead, are made here, on the calling thread (see
/// [Loading](crate::disk#loading)).
fn decode_ranges<R: Records>(
    file: &File,
    count: usize,
    block: usize,
) -> io::Result<Vec<Decoded<R>>> {
    let len = file.metadata()?.len();
    let work: Vec<(Range<u64>, Vec<u8>, R)> = cut_ranges(file, len, count)?
        .into_iter()
        .map(|range| {
            let bytes = usize::try_from(range.end - range.start).unwrap_or(usize::MAX);
            let buffer = vec![0u8; block.clamp(1, bytes)];
            let records = R::with_capacity(bytes / RECORD_BYTES_AT_LEAST + 1);
            (range, buffer, records)
        })
        .collect();
    work.into_par_iter()
        .map(|(range, buffer, records)| decode_range(file, range, buffer, records))
        .collect()
}

/// Decodes the byte `range` of the locked `file`: reads it block by block into
/// `buffer`, decodes each block's complete lines through [`jsonl::classify`] and
/// [`decode_line`] into `records`, and moves the block's partial last line to the front
/// of the buffer for the next block.  A line longer than the buffer grows the buffer.
/// Blocks end at newlines, so each is checked as UTF-8 on its own.
fn decode_range<R: Records>(
    file: &File,
    range: Range<u64>,
    mut buffer: Vec<u8>,
    records: R,
) -> io::Result<Decoded<R>> {
    let mut decoded = Decoded {
        records,
        corrupt: Vec::new(),
        unterminated: None,
    };
    let mut decoder = Decoder::default();
    // `buffer[..filled]` holds the file's bytes from offset `block` on.
    let (mut block, mut filled) = (range.start, 0);
    loop {
        let (unread, space) = (range.end - block - filled as u64, buffer.len() - filled);
        let read = usize::try_from(unread).map_or(space, |unread| unread.min(space));
        read_exact_at(
            file,
            &mut buffer[filled..filled + read],
            block + filled as u64,
        )?;
        filled += read;
        let last = read as u64 == unread;
        // The block's complete lines: all of it at the end of the range, else up to its
        // last newline.
        let complete = if last {
            filled
        } else if let Some(newline) = buffer[..filled].iter().rposition(|&byte| byte == b'\n') {
            newline + 1
        } else {
            // A line longer than the buffer.
            buffer.resize(2 * buffer.len(), 0);
            continue;
        };
        let text = std::str::from_utf8(&buffer[..complete])
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        for line in jsonl::classify(text, |line| decode_line_with(&mut decoder, line)) {
            match line {
                Line::Record {
                    record: (key, measurement),
                    text,
                    terminated,
                } => {
                    if !terminated {
                        decoded.unterminated = Some(text.to_string());
                    }
                    decoded.records.push(key, measurement);
                }
                // A truncated final record from an interrupted append; the next flush
                // truncates it away before appending.
                Line::Torn => {}
                Line::Corrupt {
                    number,
                    text,
                    error,
                } => decoded.corrupt.push(CorruptLine {
                    block,
                    number,
                    text: text.to_string(),
                    error,
                }),
            }
        }
        if last {
            break;
        }
        buffer.copy_within(complete..filled, 0);
        block += complete as u64;
        filled -= complete;
    }
    Ok(decoded)
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
    /// The records archived but not yet appended, in store order, as the text the log
    /// appends: one line each, every line ended by its newline.
    pending: Mutex<String>,
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
    /// record mid-read.  The log is decoded in parallel byte ranges through fixed block
    /// buffers, never held as text, straight into the in-memory cache's sweeps; when a
    /// key has several records the last one wins (see [Loading](crate::disk#loading)).
    /// A malformed final line **without a trailing newline** is tolerated and ignored —
    /// it is the signature of a process killed mid-append, and the next flush truncates
    /// it away — but corruption anywhere else (including a newline-terminated final
    /// record) is an error: silently dropping archived simulations would quietly re-pay
    /// for them.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] on filesystem failures or a corrupt non-final record (the
    /// first in file order).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CacheError> {
        Self::open_with(path.as_ref(), rayon::current_num_threads(), BLOCK_BYTES)
    }

    /// [`open`](Self::open), decoding the log in at most `ranges` byte ranges through
    /// block buffers of `block` bytes.
    fn open_with(path: &Path, ranges: usize, block: usize) -> Result<Self, CacheError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut parts = Vec::with_capacity(ranges);
        let mut pending = String::new();
        match File::open(path) {
            Ok(file) => {
                file.lock_shared()?;
                for range in decode_ranges::<WarmParts>(&file, ranges, block)? {
                    if let Some(line) = range.corrupt.into_iter().next() {
                        return Err(line.into_error(&file));
                    }
                    // A complete record whose trailing newline was lost in a crash: the
                    // next flush truncates every un-terminated byte, so queue the record
                    // for re-append or it would vanish from the log.
                    if let Some(line) = range.unterminated {
                        pending.push_str(&line);
                        pending.push('\n');
                    }
                    parts.push(range.records);
                }
                // Closing the handle releases the lock before the ranges are merged.
            }
            Err(err) if err.kind() == io::ErrorKind::NotFound => {}
            Err(err) => return Err(err.into()),
        }
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
        Self::compact_in(
            path.as_ref(),
            options,
            rayon::current_num_threads(),
            BLOCK_BYTES,
        )
    }

    /// [`compact_with`](Self::compact_with), decoding the log in at most `ranges` byte
    /// ranges through block buffers of `block` bytes.
    fn compact_in(
        path: &Path,
        options: CompactionOptions,
        ranges: usize,
        block: usize,
    ) -> Result<CompactionReport, CacheError> {
        let mut file = match std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
        {
            Ok(file) => file,
            Err(err) if err.kind() == io::ErrorKind::NotFound => {
                return Ok(CompactionReport::default())
            }
            Err(err) => return Err(err.into()),
        };
        file.lock()?;
        // First-appearance order of unique keys; last-record-wins value per key.
        let mut order: Vec<SimKey> = Vec::new();
        let mut latest: std::collections::BTreeMap<SimKey, TimingMeasurement> =
            std::collections::BTreeMap::new();
        let mut records = 0usize;
        let mut dropped_legacy = 0usize;
        let mut quarantined: Vec<String> = Vec::new();
        // A torn tail of a crashed append was skipped: the rewrite below repairs it.
        for range in decode_ranges::<Vec<_>>(&file, ranges, block)? {
            for line in range.corrupt {
                if !options.quarantine {
                    return Err(line.into_error(&file));
                }
                quarantined.push(line.text);
            }
            for (key, measurement) in range.records {
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
            let mut sidecar_path = path.as_os_str().to_os_string();
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
        file.seek(SeekFrom::Start(0))?;
        let mut snapshot = io::BufWriter::with_capacity(BLOCK_BYTES, &file);
        let mut written = 0;
        for key in &order {
            let line = codec::encode_record(key, &latest[key]);
            snapshot.write_all(line.as_bytes())?;
            snapshot.write_all(b"\n")?;
            written += line.len() as u64 + 1;
        }
        snapshot.flush()?;
        drop(snapshot);
        file.set_len(written)?;
        file.flush()?;
        // Closing the handle releases the lock.
        Ok(CompactionReport {
            kept: order.len(),
            dropped: records - order.len(),
            dropped_legacy,
            quarantined: quarantined.len(),
        })
    }

    /// Appends every stored record not yet in the log to the log file, under an
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
        // The records are durable: release the text, not just its length.
        *pending = String::new();
        Ok(())
    }
}

impl SimulationCache for DiskSimCache {
    fn lookup(&self, key: &SimKey) -> Option<TimingMeasurement> {
        self.memory.lookup(key)
    }

    fn store(&self, key: SimKey, measurement: TimingMeasurement) {
        // Re-storing the identical value (a benign replay) keeps the log clean; a changed
        // value must be appended because loading is last-record-wins.  The clone shares
        // the key's name, so it allocates nothing.
        if self.memory.archive(key.clone(), measurement) != Some(measurement) {
            let mut pending = self
                .pending
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let blocks = pending.len() / BLOCK_BYTES;
            codec::write_record(&mut pending, &key, &measurement);
            pending.push('\n');
            // The text goes out each time it crosses a block boundary, and the buffer
            // keeps its capacity for the next block.  On an error the text stays pending:
            // the next boundary and `flush` retry the append, and `flush` reports it.
            if pending.len() / BLOCK_BYTES > blocks && jsonl::append(&self.path, &pending).is_ok() {
                pending.clear();
            }
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
    use std::sync::Arc;

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

    /// Asserts that `cache` holds exactly `expected`, as warm records.
    fn assert_loaded(cache: &DiskSimCache, expected: &[(SimKey, TimingMeasurement)], at: &str) {
        assert_eq!(cache.len(), expected.len(), "{at}");
        for (key, measurement) in expected {
            assert_eq!(cache.lookup(key), Some(*measurement), "{at}: {key:?}");
        }
        assert_eq!(cache.warm_hits(), expected.len() as u64, "{at}");
        assert_eq!(cache.misses(), 0, "{at}");
    }

    /// The block sizes the ranged reader is tested at: shorter than one record (the
    /// buffer grows), about one record, and the default.
    fn block_sizes() -> [usize; 3] {
        [64, record(5.0, 2.0, 12.0).len() + 1, BLOCK_BYTES]
    }

    #[test]
    fn the_loaded_cache_does_not_depend_on_the_piece_count() {
        // Line 1 stores a key that line 6 stores again with a changed value; line 2 ends
        // in CRLF, line 3 is blank and line 4 is a v1 JSON record.
        let v1 = include_str!("../tests/v1_cache.jsonl")
            .lines()
            .next()
            .unwrap();
        let body = [
            record(5.0, 2.0, 12.0),
            record(6.0, 3.0, 15.0) + "\r",
            String::new(),
            v1.to_string(),
            record(8.0, 1.0, 21.0),
            record(5.0, 2.0, 99.0),
        ]
        .join("\n")
            + "\n";
        let last = record(9.0, 4.0, 20.0);
        let loaded = vec![
            (key(5.0, 2.0), measurement(99.0)),
            (key(6.0, 3.0), measurement(15.0)),
            decode_line(v1).unwrap(),
            (key(8.0, 1.0), measurement(21.0)),
        ];
        // One range, a few, and more ranges than the log has lines.
        for (ranges, block) in [1, 2, 3, 12]
            .into_iter()
            .flat_map(|ranges| block_sizes().map(|block| (ranges, block)))
        {
            let at = format!("{ranges} ranges, {block} B blocks");
            // A torn final line is skipped.
            let path = temp_path(&format!("ranges-torn-{ranges}-{block}.jsonl"));
            std::fs::write(&path, format!("{body}{}", &last[..last.len() / 2])).unwrap();
            let cache = DiskSimCache::open_with(&path, ranges, block).expect("tolerates");
            assert_loaded(&cache, &loaded, &at);
            assert!(cache.pending.lock().unwrap().is_empty(), "{at}");
            drop(cache);
            std::fs::remove_file(&path).ok();

            // A complete final record without its newline loads, and the next flush
            // re-appends it whole after truncating its bytes.
            let path = temp_path(&format!("ranges-no-newline-{ranges}-{block}.jsonl"));
            std::fs::write(&path, format!("{body}{last}")).unwrap();
            let cache = DiskSimCache::open_with(&path, ranges, block).expect("opens");
            let mut with_last = loaded.clone();
            with_last.push((key(9.0, 4.0), measurement(20.0)));
            assert_loaded(&cache, &with_last, &at);
            assert_eq!(*cache.pending.lock().unwrap(), format!("{last}\n"), "{at}");
            cache.flush().expect("flushes");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                format!("{body}{last}\n"),
                "{at}"
            );
            drop(cache);
            std::fs::remove_file(&path).ok();

            // A newline-terminated corrupt line is reported at its line in the file.
            let path = temp_path(&format!("ranges-corrupt-{ranges}-{block}.jsonl"));
            std::fs::write(&path, format!("{body}{{broken\n{last}\n")).unwrap();
            let err = DiskSimCache::open_with(&path, ranges, block).expect_err("corrupt");
            std::fs::remove_file(&path).ok();
            assert!(
                err.to_string()
                    .starts_with("corrupt cache record at line 7:"),
                "{at}: {err}"
            );
        }
    }

    #[test]
    fn a_sweep_split_over_ranges_loads_the_last_record_of_each_point() {
        // One sweep's 25 points, then points 0, 12 and 24 again with changed values, and
        // point 12 a third time: however the ranges cut the log, every point loads with
        // its last value and `len` counts points.
        let sin = |i: i32| 1.0 + f64::from(i);
        let mut lines: Vec<String> = (0..25).map(|i| record(sin(i), 2.0, 10.0)).collect();
        lines.extend(
            [0, 12, 24, 12]
                .iter()
                .zip([11.0, 23.0, 35.0, 50.0])
                .map(|(&i, delay)| record(sin(i), 2.0, delay)),
        );
        let expected: Vec<(SimKey, TimingMeasurement)> = (0..25)
            .map(|i| {
                let delay = match i {
                    0 => 11.0,
                    12 => 50.0,
                    24 => 35.0,
                    _ => 10.0,
                };
                (key(sin(i), 2.0), measurement(delay))
            })
            .collect();
        let path = temp_path("split-sweep.jsonl");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        for ranges in [1, 2, 3, 12] {
            let at = format!("{ranges} ranges");
            let cache = DiskSimCache::open_with(&path, ranges, BLOCK_BYTES).expect("opens");
            assert_loaded(&cache, &expected, &at);
            // A fresh point of the loaded sweep answers, but not as a warm record.
            cache.store(key(sin(25), 2.0), measurement(10.0));
            assert_eq!(cache.lookup(&key(sin(25), 2.0)), Some(measurement(10.0)));
            assert_eq!(cache.len(), 26, "{at}");
            assert_eq!(cache.hits(), 26, "{at}");
            assert_eq!(cache.warm_hits(), 25, "{at}");
            // The store queued its line; clear it so the log stays as written.
            cache.pending.lock().unwrap().clear();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_of_one_technology_share_one_name() {
        let path = temp_path("shared-names.jsonl");
        let other = codec::encode_record(
            &SimKey::new(
                KERNEL_VERSION,
                "n28",
                &TimingArc::new(
                    Cell::new(CellKind::Inv, DriveStrength::X1),
                    0,
                    Transition::Fall,
                ),
                &InputPoint::new(
                    Seconds::from_picoseconds(5.0),
                    Farads::from_femtofarads(2.0),
                    Volts(0.8),
                ),
                &ProcessSample::nominal(),
                &TransientConfig::fast(),
            ),
            &measurement(12.0),
        );
        let lines = [
            record(5.0, 2.0, 12.0),
            record(6.0, 3.0, 15.0),
            other,
            record(7.0, 4.0, 18.0),
        ];
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let file = File::open(&path).unwrap();
        let ranges = decode_ranges::<Vec<_>>(&file, 1, BLOCK_BYTES).unwrap();
        std::fs::remove_file(&path).ok();
        let names: Vec<&Arc<str>> = ranges[0]
            .records
            .iter()
            .map(|(key, _)| &key.coordinate.tech)
            .collect();
        assert_eq!(names.len(), 4);
        assert!(
            Arc::ptr_eq(names[0], names[1]),
            "a run of n14 records shares a name"
        );
        assert_eq!(&**names[2], "n28");
        // A name is shared with the record before, so a change of technology allocates
        // it again; keys compare names by their bytes.
        assert_eq!(names[3], names[0]);
    }

    #[test]
    fn log_ranges_end_just_after_newlines() {
        let text = "a\nbb\n\nccc\nd";
        let path = temp_path("cut-ranges.jsonl");
        std::fs::write(&path, text).unwrap();
        let file = File::open(&path).unwrap();
        for count in 1..=8 {
            let ranges = cut_ranges(&file, text.len() as u64, count).unwrap();
            assert!(ranges.len() <= count.min(5), "{count}: {ranges:?}");
            let ends: Vec<u64> = ranges.iter().map(|range| range.end).collect();
            let starts: Vec<u64> = ranges.iter().map(|range| range.start).collect();
            assert_eq!(starts[0], 0, "{ranges:?}");
            assert_eq!(
                starts[1..],
                ends[..ends.len() - 1],
                "contiguous: {ranges:?}"
            );
            assert_eq!(ends.last(), Some(&(text.len() as u64)), "{ranges:?}");
            assert!(
                ranges.iter().all(|range| range.start < range.end),
                "{ranges:?}"
            );
            assert!(
                ends[..ends.len() - 1]
                    .iter()
                    .all(|&end| text.as_bytes()[end as usize - 1] == b'\n'),
                "{ranges:?}"
            );
        }
        assert!(cut_ranges(&file, 0, 4).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_full_block_of_pending_records_reaches_the_log_before_any_flush() {
        let path = temp_path("block.jsonl");
        std::fs::remove_file(&path).ok();
        let line = record(5.0, 2.0, 12.0).len() + 1;
        let keys = BLOCK_BYTES / line + 100;
        let sin = |i: usize| 1.0 + i as f64 * 1e-3;
        {
            let cache = DiskSimCache::open(&path).expect("opens fresh");
            for i in 0..keys {
                cache.store(key(sin(i), 2.0), measurement(12.0));
            }
            // The store that filled the first block appended it, and nothing since.
            let appended = BLOCK_BYTES.div_ceil(line);
            let log = std::fs::read_to_string(&path).expect("a block reached the log");
            assert_eq!(log.len(), appended * line);
            for (i, text) in log.lines().enumerate() {
                assert_eq!(text, record(sin(i), 2.0, 12.0), "line {i}");
            }
            assert_eq!(
                cache.pending.lock().unwrap().len(),
                (keys - appended) * line
            );
        }
        let reopened = DiskSimCache::open(&path).expect("reopens");
        assert_eq!(reopened.len(), keys);
        for i in 0..keys {
            assert_eq!(reopened.lookup(&key(sin(i), 2.0)), Some(measurement(12.0)));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_block_append_stays_pending_for_flush_to_retry_and_report() {
        let path = temp_path("block-retry.jsonl");
        std::fs::remove_file(&path).ok();
        let line = record(5.0, 2.0, 12.0).len() + 1;
        let keys = BLOCK_BYTES / line + 100;
        let sin = |i: usize| 1.0 + i as f64 * 1e-3;
        let cache = DiskSimCache::open(&path).expect("opens fresh");
        // A directory where the log belongs makes every append fail.
        std::fs::create_dir(&path).unwrap();
        for i in 0..keys {
            cache.store(key(sin(i), 2.0), measurement(12.0));
        }
        assert_eq!(cache.pending.lock().unwrap().len(), keys * line);
        assert!(cache.flush().is_err(), "flush reports the failed append");
        std::fs::remove_dir(&path).unwrap();
        cache
            .flush()
            .expect("flush retries once the log can be written");
        drop(cache);
        let reopened = DiskSimCache::open(&path).expect("reopens");
        assert_eq!(reopened.len(), keys);
        std::fs::remove_file(&path).ok();
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
    fn compaction_at_benchmark_scale_does_not_depend_on_ranges_or_blocks() {
        // The accurate variation plan's 56,760 records, 1,011 of them appended again
        // with a changed value, and a torn tail.
        let keys = 56_760;
        let sin = |i: usize| 1.0 + i as f64 * 1e-3;
        let mut log = String::new();
        for i in 0..keys {
            log.push_str(&record(sin(i), 2.0, 10.0));
            log.push('\n');
        }
        let again: Vec<usize> = (0..1_011).map(|j| j * 56).collect();
        for &i in &again {
            log.push_str(&record(sin(i), 2.0, 11.0));
            log.push('\n');
        }
        let torn = record(0.5, 2.0, 10.0);
        log.push_str(&torn[..torn.len() / 2]);
        // The rewrite keeps each key where it first appeared, with its last value.
        let mut expected = String::new();
        for i in 0..keys {
            let delay = if i % 56 == 0 && i / 56 < 1_011 {
                11.0
            } else {
                10.0
            };
            expected.push_str(&record(sin(i), 2.0, delay));
            expected.push('\n');
        }
        let path = temp_path("compact-scale.jsonl");
        for (ranges, block) in [1, 2, 3, 12]
            .into_iter()
            .flat_map(|ranges| block_sizes().map(|block| (ranges, block)))
        {
            std::fs::write(&path, &log).unwrap();
            let report =
                DiskSimCache::compact_in(&path, CompactionOptions::default(), ranges, block)
                    .expect("compacts");
            assert_eq!(
                report,
                CompactionReport {
                    kept: keys,
                    dropped: again.len(),
                    dropped_legacy: 0,
                    quarantined: 0
                },
                "{ranges} ranges, {block} B blocks"
            );
            assert!(
                std::fs::read_to_string(&path).unwrap() == expected,
                "{ranges} ranges, {block} B blocks: the rewrite differs"
            );
        }
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
