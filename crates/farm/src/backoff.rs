//! Seeded, deterministic reconnection backoff.
//!
//! The broker re-dials a dead worker on a capped-exponential schedule with jitter, so a
//! restarting fleet does not hammer one address in lock-step ("thundering herd").  The
//! jitter is **not** sampled from wall-clock entropy: the whole schedule is a pure
//! function of `(seed, attempt)`, which keeps the resilience layer inside the workspace
//! determinism rules (the D1 lint bans wall-clock reads in the library crates) and makes
//! every chaos test replayable — the same seed always waits the same milliseconds.
//!
//! Timing never reaches an artifact: a backoff delay decides *when* a reconnect happens,
//! while *what* is computed is pinned by the handshake and the hex-exact wire encoding.

use std::time::Duration;

/// SplitMix64: the statistically solid 64-bit mixer used for all farm-side seeding.
///
/// One multiply-xor-shift round trip; good enough to decorrelate per-worker jitter
/// streams derived from one run seed, and dependency-free.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A capped-exponential backoff schedule with seeded jitter.
///
/// Attempt `n` waits between half and all of `min(base_ms << n, cap_ms)` milliseconds;
/// the position inside that window is drawn from [`splitmix64`] keyed on
/// `(seed, attempt)`, so the schedule is a pure function of its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-attempt ceiling in milliseconds.
    pub base_ms: u64,
    /// The schedule never waits longer than this, however many attempts have failed.
    pub cap_ms: u64,
    /// Jitter seed; give each worker its own (e.g. `run_seed ^ splitmix64(index)`) so a
    /// fleet's re-dials spread out instead of synchronizing.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            base_ms: 50,
            cap_ms: 2_000,
            seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// The delay before reconnect attempt `attempt` (0-based), in milliseconds.
    ///
    /// Pure: equal `(seed, attempt)` pairs always produce equal delays, and the result
    /// never exceeds `max(cap_ms, 1)`.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let base = self.base_ms.max(1);
        let cap = self.cap_ms.max(base);
        // Capped exponential ceiling; the shift saturates well past any real cap.
        let ceiling = base
            .checked_shl(attempt.min(63))
            .unwrap_or(u64::MAX)
            .min(cap);
        // Decorrelated jitter inside [ceiling/2, ceiling]: half the window is guaranteed
        // (a reconnect storm still spaces out), half is seeded spread.
        let floor = ceiling / 2;
        let span = ceiling - floor;
        let draw = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9));
        floor + if span == 0 { 0 } else { draw % (span + 1) }
    }

    /// [`delay_ms`](Self::delay_ms) as a [`Duration`] ready for `thread::sleep`.
    pub fn delay(&self, attempt: u32) -> Duration {
        Duration::from_millis(self.delay_ms(attempt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_capped() {
        let policy = BackoffPolicy {
            base_ms: 50,
            cap_ms: 2_000,
            seed: 0xfeed_beef,
        };
        for attempt in 0..40 {
            let delay = policy.delay_ms(attempt);
            assert_eq!(delay, policy.delay_ms(attempt), "pure in (seed, attempt)");
            assert!(delay <= 2_000, "attempt {attempt} waited {delay} ms");
        }
        // The exponential ramp is visible before the cap bites: later ceilings dominate.
        assert!(policy.delay_ms(5) > policy.delay_ms(0));
    }

    #[test]
    fn different_seeds_decorrelate_the_jitter() {
        let a = BackoffPolicy {
            seed: 1,
            ..BackoffPolicy::default()
        };
        let b = BackoffPolicy {
            seed: 2,
            ..BackoffPolicy::default()
        };
        // Not a hard guarantee per attempt, but across a handful of attempts two seeds
        // must not produce the identical schedule — that would be the thundering herd.
        let schedule = |p: &BackoffPolicy| (0..8).map(|n| p.delay_ms(n)).collect::<Vec<_>>();
        assert_ne!(schedule(&a), schedule(&b));
    }

    #[test]
    fn degenerate_knobs_stay_sane() {
        let zero = BackoffPolicy {
            base_ms: 0,
            cap_ms: 0,
            seed: 9,
        };
        for attempt in [0, 1, 63, u32::MAX] {
            assert!(zero.delay_ms(attempt) <= 1);
        }
        let inverted = BackoffPolicy {
            base_ms: 500,
            cap_ms: 10,
            seed: 9,
        };
        // cap below base: base wins as the effective cap instead of underflowing.
        assert!(inverted.delay_ms(7) <= 500);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        #[test]
        fn delay_is_a_pure_function_of_seed_and_attempt_and_never_exceeds_the_cap(
            base_ms in 0u64..10_000,
            cap_ms in 0u64..100_000,
            seed in 0u64..u64::MAX,
            attempt in 0u32..200,
        ) {
            let policy = BackoffPolicy { base_ms, cap_ms, seed };
            let delay = policy.delay_ms(attempt);
            // Purity: a reconstructed policy replays the identical schedule.
            let replay = BackoffPolicy { base_ms, cap_ms, seed };
            proptest::prop_assert_eq!(delay, replay.delay_ms(attempt));
            // Cap: whatever the knobs, the wait is bounded by max(cap, base, 1).
            proptest::prop_assert!(delay <= cap_ms.max(base_ms).max(1));
        }
    }
}
