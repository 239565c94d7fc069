//! A v1 log — JSON records, as earlier builds wrote them — still loads, takes v2
//! appends, and compacts to v2.
//!
//! `v1_cache.jsonl` holds three records written by a v1 build: one from before the
//! kernel field existed (kernel generation 1), one current record, and a later
//! duplicate of that record with a changed value.

#![expect(
    clippy::expect_used,
    reason = "helper functions abort the test on a setup failure"
)]

use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
use slic_device::ProcessSample;
use slic_spice::{
    DiskSimCache, InputPoint, SimKey, SimulationCache, TimingMeasurement, TransientConfig,
    KERNEL_VERSION,
};
use slic_units::{Farads, Seconds, Volts};

const V1_LOG: &str = include_str!("v1_cache.jsonl");

fn key(kernel: u64, sin_ps: f64) -> SimKey {
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X2);
    SimKey::new(
        kernel,
        "hist-14nm-finfet",
        &TimingArc::new(cell, 1, Transition::Fall),
        &InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(3.25),
            Volts(0.8),
        ),
        &ProcessSample::nominal(),
        &TransientConfig::fast(),
    )
}

fn measurement(delay_ps: f64, slew_ps: f64) -> TimingMeasurement {
    TimingMeasurement::new(
        Seconds::from_picoseconds(delay_ps),
        Seconds::from_picoseconds(slew_ps),
    )
}

/// The map the fixture loads to: the legacy record, and the current record's later
/// value (last record wins).
fn fixture_map() -> Vec<(SimKey, TimingMeasurement)> {
    vec![
        (key(1, 10.0), measurement(18.0, 8.0)),
        (key(KERNEL_VERSION, 12.5), measurement(22.0, 9.75)),
    ]
}

fn assert_loads_to(path: &std::path::Path, expected: &[(SimKey, TimingMeasurement)]) {
    let cache = DiskSimCache::open(path).expect("the log loads");
    assert_eq!(cache.len(), expected.len());
    for (key, value) in expected {
        assert_eq!(cache.lookup(key), Some(*value), "{key:?}");
    }
}

#[test]
fn a_v1_log_loads_takes_v2_appends_and_compacts_to_v2() {
    let path = std::env::temp_dir().join(format!("slic-v1-log-{}.jsonl", std::process::id()));
    std::fs::write(&path, V1_LOG).expect("writes the fixture");
    assert_eq!(V1_LOG.lines().count(), 3);
    assert!(V1_LOG.lines().all(|line| line.starts_with('{')));
    let mut expected = fixture_map();
    assert_loads_to(&path, &expected);

    // Appends are v2, so the log becomes mixed, and still loads.
    {
        let cache = DiskSimCache::open(&path).expect("opens");
        cache.store(key(KERNEL_VERSION, 15.0), measurement(25.0, 11.0));
        cache.store(key(KERNEL_VERSION, 12.5), measurement(23.0, 10.0));
        cache.flush().expect("flushes");
    }
    expected.push((key(KERNEL_VERSION, 15.0), measurement(25.0, 11.0)));
    expected[1].1 = measurement(23.0, 10.0);
    let mixed = std::fs::read_to_string(&path).expect("reads");
    assert_eq!(mixed.lines().count(), 5);
    assert_eq!(mixed.lines().filter(|l| l.starts_with('{')).count(), 3);
    assert_loads_to(&path, &expected);

    // Compaction rewrites every line as v2, keeping the map; a second pass is a no-op.
    let report = DiskSimCache::compact(&path).expect("compacts");
    assert_eq!((report.kept, report.dropped), (3, 2));
    let compacted = std::fs::read_to_string(&path).expect("reads");
    assert_eq!(compacted.lines().count(), 3);
    assert!(
        compacted.lines().all(|line| !line.starts_with('{')),
        "{compacted}"
    );
    assert_loads_to(&path, &expected);
    let again = DiskSimCache::compact(&path).expect("compacts again");
    assert_eq!((again.kept, again.dropped), (3, 0));
    assert_eq!(
        std::fs::read_to_string(&path).expect("reads"),
        compacted,
        "a second compaction changes nothing"
    );
    std::fs::remove_file(&path).ok();
}
