//! Transient-simulation caching.
//!
//! A library-scale characterization run hits the same `(technology, arc, input point,
//! process seed)` coordinates repeatedly: the LUT baseline and the model-training stages
//! share grid corners, repeated runs of a resumable pipeline re-request identical sweeps,
//! and multi-metric work units re-simulate the same arc (one transient yields both delay
//! and slew).  A [`SimulationCache`] attached to a [`CharacterizationEngine`] short-circuits
//! those repeats: cache hits return the archived [`TimingMeasurement`] without running the
//! solver and **without incrementing the simulation counter**, so the counter keeps its
//! meaning of "transient simulations actually paid for".
//!
//! # Hit/miss accounting
//!
//! A **hit** is counted by every [`lookup`](SimulationCache::lookup) answered from the
//! cache; a **miss** is counted by every [`store`](SimulationCache::store), i.e. every
//! solve that was actually paid and archived.  A lookup that falls through is *not*
//! counted on its own: the engine looks each distinct coordinate of a call up once,
//! stores each miss once solved, and answers later copies of a coordinate within the
//! call with a second lookup (one hit), so every requested lane contributes exactly one
//! hit or one miss.  The totals are deterministic as long as no two threads request one
//! coordinate at once, which the pipeline runner guarantees by running each arc's units
//! on one thread.
//!
//! [`CharacterizationEngine`]: crate::engine::CharacterizationEngine

use crate::codec::Coordinate;
use crate::input::InputPoint;
use crate::measure::TimingMeasurement;
use crate::transient::TransientConfig;
use slic_cells::TimingArc;
use slic_device::ProcessSample;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version stamp of the transient solver whose results a [`SimKey`] coordinates.
///
/// A persisted cache outlives the binary that wrote it, and two solver generations given
/// identical coordinates produce measurements that differ within the parity tolerance —
/// replaying one as the other would silently mix kernels inside a single artifact.  The
/// version is therefore part of the cache key: records written by an older kernel stay in
/// the log but can never answer a newer kernel's lookups.
///
/// History: **1** — the seed's slope-probe RK4 kernel (records written before the field
/// existed deserialize as this version); **2** — the Bogacki–Shampine 3(2) embedded pair
/// over compiled device models.
pub const KERNEL_VERSION: u64 = 2;

/// The flavour bit of [`SIMD_KERNEL_ID`]; the bits below it carry the kernel generation.
const SIMD_FLAVOUR: u64 = 1 << 32;

/// The kernel id that keys the opt-in SIMD quad kernel's results: [`KERNEL_VERSION`] with
/// a flavour bit set.
///
/// The quad kernel's polynomial transcendentals differ from the scalar kernel's libm by
/// ~1e-12 relative, so its results are keyed apart: a SIMD record never answers a scalar
/// lookup, nor the reverse.  Scalar keys are unchanged, and both flavours age alike under
/// [`SimKey::is_legacy_kernel`].
pub const SIMD_KERNEL_ID: u64 = SIMD_FLAVOUR | KERNEL_VERSION;

/// The version that keys cache records written before the kernel field existed.
pub(crate) const LEGACY_KERNEL_VERSION: u64 = 1;

/// The exact coordinates of one transient simulation.
///
/// Floating-point components are keyed by their bit patterns: two points are "the same"
/// only when they are bitwise identical, which is the right notion for caching replayed
/// deterministic campaigns (nearby-but-different points must not alias).  The one
/// exception is zero: `-0.0` is normalized to `+0.0` at construction, because the two
/// compare equal, simulate identically, and are produced by different code paths (e.g. a
/// nominal [`ProcessSample`] delta written as `0.0` here and computed as `-0.0` there) —
/// keying them apart would silently miss the cache.
///
/// The solver generation and flavour are part of the key (see [`KERNEL_VERSION`] and
/// [`SIMD_KERNEL_ID`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimKey {
    pub(crate) kernel: u64,
    pub(crate) coordinate: Coordinate,
}

/// The bit pattern of `value` with negative zero folded onto positive zero.
///
/// # Panics
///
/// Panics on NaN: a NaN coordinate never equals itself, so it could never be answered
/// from the cache, and it indicates an unphysical input upstream — failing loudly beats
/// silently archiving garbage.
fn key_bits(value: f64) -> u64 {
    assert!(
        !value.is_nan(),
        "NaN is not a valid simulation-cache coordinate"
    );
    // Exact IEEE 754 `-0.0 == 0.0` is the fold being implemented; a tolerance would
    // alias distinct coordinates.
    if value == 0.0 {
        0.0f64.to_bits()
    } else {
        value.to_bits()
    }
}

/// The normalized bit patterns of an input point and a process seed (see [`key_bits`]):
/// the per-lane part of a [`SimKey`], which the engine also compares a call's lanes on
/// to find repeated coordinates.
///
/// # Panics
///
/// Panics if any coordinate is NaN.
pub(crate) fn coordinate_bits(point: &InputPoint, seed: &ProcessSample) -> ([u64; 3], [u64; 7]) {
    (
        [
            key_bits(point.sin.value()),
            key_bits(point.cload.value()),
            key_bits(point.vdd.value()),
        ],
        [
            key_bits(seed.delta_vth_n),
            key_bits(seed.delta_vth_p),
            key_bits(seed.vx0_scale_n),
            key_bits(seed.vx0_scale_p),
            key_bits(seed.cinv_scale),
            key_bits(seed.dibl_scale_n),
            key_bits(seed.dibl_scale_p),
        ],
    )
}

impl SimKey {
    /// Builds the key for simulating `arc` at `point` under `seed` with `config` in the
    /// technology named `tech`, on the kernel `kernel` ([`KERNEL_VERSION`], or the id a
    /// backend reports as its
    /// [`kernel_id`](crate::backend::SimulationBackend::kernel_id)).
    ///
    /// # Panics
    ///
    /// Panics if any floating-point coordinate is NaN (see `key_bits`).
    pub fn new(
        kernel: u64,
        tech: &str,
        arc: &TimingArc,
        point: &InputPoint,
        seed: &ProcessSample,
        config: &TransientConfig,
    ) -> Self {
        let (point, seed) = coordinate_bits(point, seed);
        Self {
            kernel,
            coordinate: Coordinate {
                tech: tech.to_string(),
                arc: *arc,
                point,
                seed,
                config: [
                    key_bits(config.dv_max_fraction),
                    config.min_steps_per_ramp as u64,
                    key_bits(config.max_time_factor),
                    key_bits(config.miller_fraction),
                ],
            },
        }
    }

    /// The kernel id this key coordinates (see [`KERNEL_VERSION`]).
    pub fn kernel(&self) -> u64 {
        self.kernel
    }

    /// Returns `true` when the key was written by a kernel generation predating
    /// [`KERNEL_VERSION`], of either flavour — such records stay loadable but can never
    /// answer a current-kernel lookup, so they are dead weight a compaction may evict.
    pub fn is_legacy_kernel(&self) -> bool {
        (self.kernel & !SIMD_FLAVOUR) < KERNEL_VERSION
    }
}

/// Anything that can go wrong opening or persisting a durable simulation cache (see
/// [`DiskSimCache`](crate::disk::DiskSimCache)).
#[derive(Debug)]
pub enum CacheError {
    /// A filesystem failure reading or appending the backing store.
    Io(std::io::Error),
    /// A stored record that is not a valid cache entry.
    Corrupt {
        /// 1-based line number in the log file.
        line: usize,
        /// What failed to parse.
        message: String,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(err) => write!(f, "cache io error: {err}"),
            CacheError::Corrupt { line, message } => {
                write!(f, "corrupt cache record at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

/// A concurrent store of completed transient simulations.
///
/// Implementations must be thread-safe: the engine consults the cache from rayon worker
/// threads.  `lookup` and `store` are intentionally split (no `or_insert_with`) so a miss
/// never holds a lock across the milliseconds-long transient solve; the engine solves a
/// coordinate repeated within one call once, and the runner's one-thread-per-arc
/// schedule keeps concurrent calls from sharing coordinates.
pub trait SimulationCache: Send + Sync {
    /// The archived measurement for `key`, if present.  Counts a hit when it answers.
    fn lookup(&self, key: &SimKey) -> Option<TimingMeasurement>;

    /// Archives a completed measurement.  Counts a miss: a store is exactly one solve
    /// that the cache could not answer.
    fn store(&self, key: SimKey, measurement: TimingMeasurement);

    /// Number of lookups answered from the cache so far.
    fn hits(&self) -> u64;

    /// Number of archived solves so far (simulations paid because the cache missed).
    fn misses(&self) -> u64;

    /// Number of hits answered by the *warm* tier: records loaded from an earlier
    /// process (e.g. a persistent cache's log) rather than solved during this run.
    /// Display-only telemetry; implementations without a warm tier report `0`.
    fn warm_hits(&self) -> u64 {
        0
    }

    /// Makes the archived state durable, for implementations that persist anything.
    ///
    /// Callers that share warm state across processes must call this (and propagate the
    /// error) before handing off — a destructor can only warn, not fail the run.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] when durable state cannot be written; purely in-memory
    /// caches never fail (the default is a no-op).
    fn persist(&self) -> Result<(), CacheError> {
        Ok(())
    }
}

/// log2 of [`SHARDS`].
const SHARD_BITS: u32 = 4;

/// The number of maps an [`InMemorySimCache`] splits its keys over, each behind its own
/// lock.
const SHARDS: usize = 1 << SHARD_BITS;

/// The shard that holds `key`: a fixed multiply–xorshift mix of the key's fixed-width
/// words — kernel id, arc fields, point, seed and configuration bits — whose top bits
/// pick one of the [`SHARDS`].  The technology name is left out, so the choice costs a
/// few multiplies per key instead of a hash over every byte.  A shard only decides which
/// lock guards a key: lookups compare whole keys, so the mix never changes a result, and
/// keys crafted to collide (say, in a cache log) cost lock contention, not lookup time.
fn shard_index(key: &SimKey) -> usize {
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
    let coordinate = &key.coordinate;
    let arc = coordinate.arc;
    let arc_word = (arc.cell().kind() as u64) << 24
        | (arc.cell().drive() as u64) << 16
        | (arc.input_pin() as u64) << 8
        | arc.output_transition() as u64;
    let mix = [key.kernel, arc_word]
        .iter()
        .chain(&coordinate.point)
        .chain(&coordinate.seed)
        .chain(&coordinate.config)
        .fold(0u64, |mix, &word| {
            let mix = (mix ^ word).wrapping_mul(MULTIPLIER);
            mix ^ (mix >> 32)
        });
    (mix >> (u64::BITS - SHARD_BITS)) as usize
}

/// Warm records grouped by the [`InMemorySimCache`] shard that will hold them, each
/// shard's part in push order until it is [sorted](Self::sort): what one piece of a
/// [`DiskSimCache`](crate::disk::DiskSimCache) log decodes to.
pub(crate) struct WarmParts([Vec<(SimKey, TimingMeasurement)>; SHARDS]);

impl WarmParts {
    /// Empty parts with room for `records` records, spread evenly, plus a margin.
    pub(crate) fn with_capacity(records: usize) -> Self {
        Self(std::array::from_fn(|_| {
            Vec::with_capacity(records / SHARDS + 16)
        }))
    }

    /// Adds a record to its shard's part.
    pub(crate) fn push(&mut self, key: SimKey, measurement: TimingMeasurement) {
        self.0[shard_index(&key)].push((key, measurement));
    }

    /// Sorts each shard's part by key; records with equal keys keep their push order.
    pub(crate) fn sort(&mut self) {
        for part in &mut self.0 {
            part.sort_by(|(a, _), (b, _)| a.cmp(b));
        }
    }
}

/// A sharded in-memory [`SimulationCache`] with hit/miss accounting.
///
/// Keys are spread over 16 maps, each behind its own lock, so concurrent lookups and
/// stores rarely wait on each other.  A key's map is picked by a fixed multiply–xorshift
/// mix of its fixed-width words (kernel id, arc, point, seed and configuration bits),
/// which costs a few multiplies where a hash of the whole key would read every byte.
///
/// Each entry remembers which *tier* it came from: `fresh` (archived by this process,
/// via [`archive`](Self::archive)/[`store`](SimulationCache::store)) or `warm` (paid for
/// by an earlier process and loaded in bulk when a
/// [`DiskSimCache`](crate::disk::DiskSimCache) opens its log).  Hits are broken down per
/// tier so a post-run summary can show how much a persisted cache actually saved — the
/// tier flag never affects lookup results, only accounting.
#[derive(Debug, Default)]
pub struct InMemorySimCache {
    shards: [Mutex<BTreeMap<SimKey, (TimingMeasurement, Tier)>>; SHARDS],
    hits: AtomicU64,
    warm_hits: AtomicU64,
    misses: AtomicU64,
}

/// Which process paid for a cached measurement (see [`InMemorySimCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Solved and archived during this run.
    Fresh,
    /// Loaded from durable state written by an earlier process.
    Warm,
}

impl InMemorySimCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache holding records paid for by an earlier process as warm state, without
    /// counting a hit or a miss; lookups they answer count toward
    /// [`warm_hits`](SimulationCache::warm_hits).
    ///
    /// `pieces` are consecutive pieces of a log, in log order.  Each shard's map is built
    /// once from its parts, in that order, by [`BTreeMap::from_iter`]: a stable sort
    /// (a merge of runs when the parts are sorted already), then a bulk build that keeps
    /// the later of two records with one key.  So the last record wins, as repeated
    /// inserts would have it.
    pub(crate) fn from_warm(mut pieces: Vec<WarmParts>) -> Self {
        // The records were decoded on worker threads.  Under glibc a thread allocates
        // from its own malloc arena, whose pages stay resident after the thread exits,
        // so an allocation that lives as long as the cache would pin pages this thread
        // cannot reuse (20 s perfbench `mc-warm` runs on a 2-core VM read 55 MB of peak
        // RSS without the copy below, 53 MB with it).  A technology name is the one
        // allocation a record owns: each is copied here, and a shard's worker copies are
        // dropped only once the shard is built, so that the allocator cannot hand a
        // just-freed worker copy straight back for the next name.
        let mut spent = Vec::new();
        let shards = std::array::from_fn(|shard| {
            let map = pieces
                .iter_mut()
                .flat_map(|piece| std::mem::take(&mut piece.0[shard]))
                .map(|(mut key, measurement)| {
                    let tech = key.coordinate.tech.clone();
                    spent.push(std::mem::replace(&mut key.coordinate.tech, tech));
                    (key, (measurement, Tier::Warm))
                })
                .collect();
            spent.clear();
            Mutex::new(map)
        });
        Self {
            shards,
            ..Self::default()
        }
    }

    /// Number of archived measurements.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .len()
            })
            .sum()
    }

    /// Returns `true` when nothing is archived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Archives a paid solve (counting the miss) and returns the previously archived
    /// measurement, if any — the building block [`store`](SimulationCache::store) and
    /// persistent wrappers share.
    pub fn archive(
        &self,
        key: SimKey,
        measurement: TimingMeasurement,
    ) -> Option<TimingMeasurement> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        // A poisoned shard only means another thread panicked mid-`insert`; the map
        // itself is never left half-written, so recover it rather than cascade.
        self.shard(&key)
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(key, (measurement, Tier::Fresh))
            .map(|(previous, _)| previous)
    }

    fn shard(&self, key: &SimKey) -> &Mutex<BTreeMap<SimKey, (TimingMeasurement, Tier)>> {
        &self.shards[shard_index(key)]
    }
}

impl SimulationCache for InMemorySimCache {
    fn lookup(&self, key: &SimKey) -> Option<TimingMeasurement> {
        let found = self
            .shard(key)
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(key)
            .copied();
        if let Some((_, tier)) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if tier == Tier::Warm {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        found.map(|(measurement, _)| measurement)
    }

    fn store(&self, key: SimKey, measurement: TimingMeasurement) {
        let _ = self.archive(key, measurement);
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn warm_hits(&self) -> u64 {
        self.warm_hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slic_cells::{Cell, CellKind, DriveStrength, Transition};
    use slic_units::{Farads, Seconds, Volts};

    fn key(sin_ps: f64) -> SimKey {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let point = InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(2.0),
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

    #[test]
    fn lookup_store_and_accounting() {
        let cache = InMemorySimCache::new();
        let m = TimingMeasurement::new(Seconds(1e-12), Seconds(2e-12));
        assert!(cache.lookup(&key(5.0)).is_none());
        cache.store(key(5.0), m);
        assert_eq!(cache.lookup(&key(5.0)), Some(m));
        assert!(cache.lookup(&key(6.0)).is_none());
        assert_eq!(cache.hits(), 1, "one lookup was answered");
        assert_eq!(cache.misses(), 1, "one solve was archived");
        assert_eq!(cache.warm_hits(), 0, "nothing warm was loaded");
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn warm_tier_hits_are_accounted_separately() {
        let m = TimingMeasurement::new(Seconds(1e-12), Seconds(2e-12));
        let mut warm = WarmParts::with_capacity(1);
        warm.push(key(5.0), m);
        let cache = InMemorySimCache::from_warm(vec![warm]);
        cache.store(key(6.0), m);
        assert_eq!(cache.lookup(&key(5.0)), Some(m), "warm records answer");
        assert_eq!(cache.lookup(&key(5.0)), Some(m));
        assert_eq!(cache.lookup(&key(6.0)), Some(m), "fresh records answer");
        assert_eq!(cache.hits(), 3, "every answered lookup is a hit");
        assert_eq!(cache.warm_hits(), 2, "only warm-tier answers count as warm");
        assert_eq!(
            cache.misses(),
            1,
            "loading warm records never counts a miss"
        );
        // Re-archiving a warm coordinate promotes it to the fresh tier.
        cache.store(key(5.0), m);
        assert_eq!(cache.lookup(&key(5.0)), Some(m));
        assert_eq!(
            cache.warm_hits(),
            2,
            "promoted records stop counting as warm"
        );
    }

    #[test]
    fn a_sweep_spreads_over_every_shard() {
        // 25 grid points under 100 process seeds, as one Monte Carlo arc asks for them.
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let mut counts = [0usize; SHARDS];
        for i in 0..25 {
            let point = InputPoint::new(
                Seconds::from_picoseconds(2.0 + 0.5 * f64::from(i)),
                Farads::from_femtofarads(1.0 + 0.2 * f64::from(i)),
                Volts(0.8),
            );
            for j in 0..100 {
                let seed = ProcessSample {
                    delta_vth_n: 1e-3 * f64::from(j),
                    vx0_scale_p: 1.0 - 1e-3 * f64::from(j),
                    ..ProcessSample::nominal()
                };
                let key = SimKey::new(
                    KERNEL_VERSION,
                    "n14",
                    &arc,
                    &point,
                    &seed,
                    &TransientConfig::fast(),
                );
                counts[shard_index(&key)] += 1;
            }
        }
        // 156.25 keys a shard on average.
        assert!(
            counts.iter().all(|&n| (110..=210).contains(&n)),
            "{counts:?}"
        );
    }

    #[test]
    fn distinct_coordinates_do_not_alias() {
        let a = key(5.0);
        let b = key(5.000000001);
        assert_ne!(a, b, "bitwise-different points must have different keys");
    }

    #[test]
    fn negative_zero_aliases_positive_zero() {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let point = InputPoint::new(
            Seconds::from_picoseconds(5.0),
            Farads::from_femtofarads(2.0),
            Volts(0.8),
        );
        let plus = ProcessSample {
            delta_vth_n: 0.0,
            ..ProcessSample::nominal()
        };
        let minus = ProcessSample {
            delta_vth_n: -0.0,
            ..ProcessSample::nominal()
        };
        let config = TransientConfig::fast();
        assert_eq!(
            SimKey::new(KERNEL_VERSION, "n14", &arc, &point, &plus, &config),
            SimKey::new(KERNEL_VERSION, "n14", &arc, &point, &minus, &config),
            "-0.0 and 0.0 compare equal and must share one cache slot"
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_coordinates_are_rejected() {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let point = InputPoint::new(
            Seconds::from_picoseconds(5.0),
            Farads::from_femtofarads(2.0),
            Volts(0.8),
        );
        let bad = ProcessSample {
            delta_vth_n: f64::NAN,
            ..ProcessSample::nominal()
        };
        let _ = SimKey::new(
            KERNEL_VERSION,
            "n14",
            &arc,
            &point,
            &bad,
            &TransientConfig::fast(),
        );
    }

    /// `key` as the key object of a v1 (JSON) log record; `with_kernel: false` renders a
    /// record written before the kernel field existed.
    fn v1_json(key: &SimKey, with_kernel: bool) -> String {
        let hex = |bits: &[u64]| -> String {
            let words: Vec<String> = bits.iter().map(|b| format!("\"{b:016x}\"")).collect();
            words.join(",")
        };
        let c = &key.coordinate;
        format!(
            "{{{}\"tech\":\"{}\",\"arc\":{},\"point\":[{}],\"seed\":[{}],\"config\":[{}]}}",
            if with_kernel {
                format!("\"kernel\":\"{:x}\",", key.kernel)
            } else {
                String::new()
            },
            c.tech,
            serde_json::to_string(&c.arc).expect("arcs render"),
            hex(&c.point),
            hex(&c.seed),
            hex(&c.config)
        )
    }

    #[test]
    fn sim_key_round_trips_through_json() {
        let original = key(5.000000001);
        let back: SimKey = serde_json::from_str(&v1_json(&original, true)).expect("key parses");
        assert_eq!(back, original, "bit patterns must survive the round trip");
    }

    #[test]
    fn legacy_records_load_as_the_old_kernel_and_never_alias_current_keys() {
        // A record persisted before the kernel field existed.
        let current = key(5.0);
        let legacy: SimKey =
            serde_json::from_str(&v1_json(&current, false)).expect("legacy record parses");
        assert_ne!(
            legacy, current,
            "a pre-upgrade record must never answer a current-kernel lookup"
        );
        assert_eq!(legacy.kernel(), LEGACY_KERNEL_VERSION);
        assert!(legacy.is_legacy_kernel());
        // And a legacy key survives its own round trip unchanged, now as a v2 record.
        let m = TimingMeasurement::new(Seconds(1e-12), Seconds(2e-12));
        let line = crate::codec::encode_record(&legacy, &m);
        assert_eq!(crate::codec::decode_record(&line), Ok((legacy, m)));
    }

    #[test]
    fn simd_keys_never_alias_scalar_keys_and_are_not_legacy() {
        let scalar = key(5.0);
        let simd = SimKey {
            kernel: SIMD_KERNEL_ID,
            ..scalar.clone()
        };
        assert_ne!(simd, scalar);
        assert!(!simd.is_legacy_kernel() && !scalar.is_legacy_kernel());
        let m = TimingMeasurement::new(Seconds(1e-12), Seconds(2e-12));
        let line = crate::codec::encode_record(&simd, &m);
        assert!(line.starts_with("100000002 "), "{line}");
        assert_eq!(crate::codec::decode_record(&line), Ok((simd, m)));
        // An older generation of the SIMD flavour ages out like a scalar one.
        let stale = SimKey {
            kernel: SIMD_FLAVOUR | LEGACY_KERNEL_VERSION,
            ..scalar
        };
        assert!(stale.is_legacy_kernel());
    }

    #[test]
    fn sim_key_rejects_malformed_bit_patterns() {
        let text = v1_json(&key(5.0), true);
        let broken = text.replace("\"point\":[\"", "\"point\":[\"zz");
        assert!(
            serde_json::from_str::<SimKey>(&broken)
                .unwrap_err()
                .to_string()
                .contains("hex"),
            "corrupt hex must be reported"
        );
    }
}
