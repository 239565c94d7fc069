//! The workspace's only wall clock, behind a trait so every consumer is testable and
//! every *other* crate stays clock-free.
//!
//! The workspace's D1 lint (`disallowed-methods` in `clippy.toml`) bans
//! `Instant::now`/`SystemTime::now` because a wall-clock read that influences an
//! artifact breaks bit-identical replays.  Telemetry still needs real durations, so
//! [`MonotonicClock::new`] carries the library crates' one `#[expect]` of that lint —
//! everything downstream sees opaque nanosecond counts through the [`Clock`] trait.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic nanosecond source.  Implementations must never go backwards.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since this clock's origin.
    fn now_ns(&self) -> u64;
}

/// The production clock: monotonic nanoseconds since construction.
///
/// This struct owns the only `Instant` in the library crates outside test modules.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    origin: std::time::Instant,
}

impl MonotonicClock {
    /// Starts a clock whose origin is "now".
    #[expect(
        clippy::disallowed_methods,
        reason = "the library crates' one wall-clock read: trace timestamps are display-only and never reach an artifact"
    )]
    pub fn new() -> Self {
        Self {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // Saturate rather than wrap: a run longer than u64::MAX nanoseconds (584 years)
        // is not a real concern, but truncation must not panic in debug builds.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-cranked clock for deterministic tests: starts at zero, advances on demand.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock stopped at zero nanoseconds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = MonotonicClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances_exactly_as_told() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_ns(), 0);
        clock.advance(250);
        clock.advance(50);
        assert_eq!(clock.now_ns(), 300);
    }
}
