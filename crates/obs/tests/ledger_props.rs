//! Property tests: the run ledger survives crashes and concurrent writers.
//!
//! The ledger promises the `DiskSimCache` file discipline — whole lines under an
//! exclusive flock, torn tails truncated before appending, readers salvaging every
//! complete line.  Two properties pin that down:
//!
//! * *Torn-tail salvage*: truncate a healthy ledger at any byte and every record
//!   whose line survived intact is still loaded; at most the one cut line is lost,
//!   and a subsequent append heals the file.
//! * *Concurrent appends*: N threads racing `ledger::append` on one path produce a
//!   file holding every record exactly once, with zero dropped lines.

#![expect(
    clippy::expect_used,
    reason = "helper functions abort the test on a setup failure"
)]

use proptest::prelude::*;
use slic_obs::ledger::{self, RunRecord};
use slic_obs::metrics::MetricsRegistry;
use std::path::PathBuf;

fn record(seed: u64, label: &str) -> RunRecord {
    let metrics = MetricsRegistry::new();
    metrics.counter_set("cache.hits", seed % 97);
    metrics.counter_set("cache.misses", seed % 13);
    metrics.observe("engine.batch_lanes", (seed % 8) + 1, &[1, 2, 4, 8]);
    RunRecord {
        kind: "characterize".to_string(),
        fingerprint: format!("{:016x}", seed ^ 0xabcd_ef01_2345_6789),
        seed,
        profile: label.to_string(),
        backend: "local".to_string(),
        wall_ns: seed.wrapping_mul(31) % 1_000_000_000,
        sims_paid: seed % 500,
        sims_cached: seed % 123,
        artifact_hash: ledger::content_hash(&seed.to_le_bytes()),
        snapshot: metrics.snapshot(),
    }
}

fn scratch_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slic-ledger-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{tag}.jsonl"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cutting the file at any byte loses at most the one line the cut landed in;
    /// every earlier record still loads, and the next append heals the tail.
    #[test]
    fn torn_tail_loses_at_most_the_cut_line(
        seeds in proptest::collection::vec(0u64..1_000_000u64, 1..8usize),
        cut_back in 0usize..256usize,
    ) {
        let path = scratch_path("torn");
        let _ = std::fs::remove_file(&path);
        for (index, seed) in seeds.iter().enumerate() {
            ledger::append(&path, &record(*seed, &format!("run{index}"))).expect("append");
        }
        let bytes = std::fs::read(&path).expect("read back");
        // Cut somewhere in the last `cut_back` bytes (clamped to the file).
        let cut = bytes.len().saturating_sub(cut_back % bytes.len().max(1));
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        let salvaged = ledger::load(&path).expect("load survives the cut");
        // Complete lines survive: the cut can only destroy the line it landed in.
        let whole_lines = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        prop_assert!(salvaged.records.len() >= whole_lines);
        prop_assert!(salvaged.dropped <= 1, "at most the cut line drops");
        for (survivor, seed) in salvaged.records.iter().zip(&seeds) {
            prop_assert_eq!(survivor.seed, *seed, "surviving prefix is in order");
        }

        // Appending after the cut heals the file: the torn tail is truncated away.
        ledger::append(&path, &record(999_999_999, "heal")).expect("append heals");
        let healed = ledger::load(&path).expect("load healed");
        prop_assert_eq!(healed.dropped, 0);
        prop_assert_eq!(
            healed.records.last().map(|r| r.seed),
            Some(999_999_999)
        );
        let _ = std::fs::remove_file(&path);
    }

    /// N threads racing on one ledger: every record lands exactly once, no torn
    /// bytes, no drops — the exclusive flock serializes whole lines.
    #[test]
    fn concurrent_appends_never_tear(
        threads in 2usize..5usize,
        per_thread in 1usize..6usize,
    ) {
        let path = scratch_path(&format!("race-{threads}-{per_thread}"));
        let _ = std::fs::remove_file(&path);
        std::thread::scope(|scope| {
            for thread in 0..threads {
                let path = path.clone();
                scope.spawn(move || {
                    for index in 0..per_thread {
                        let seed = (thread * 1000 + index) as u64;
                        ledger::append(&path, &record(seed, "race")).expect("racing append");
                    }
                });
            }
        });
        let loaded = ledger::load(&path).expect("load after race");
        prop_assert_eq!(loaded.dropped, 0, "no interleaved bytes");
        let mut seeds: Vec<u64> = loaded.records.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        let mut expected: Vec<u64> = (0..threads)
            .flat_map(|t| (0..per_thread).map(move |i| (t * 1000 + i) as u64))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(seeds, expected, "every record exactly once");
        let _ = std::fs::remove_file(&path);
    }
}
