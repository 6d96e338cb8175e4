//! Capped exponential backoff with seeded jitter, spacing the retrying
//! client's reconnect/resubmit attempts.

use std::time::Duration;

/// Capped exponential backoff with seeded jitter.
///
/// Attempt `n` draws a delay uniformly from `[exp/2, exp]` where
/// `exp = min(cap, base · 2ⁿ)` — the "equal jitter" scheme: enough spread
/// to de-synchronize competing retriers, while never collapsing below half
/// the exponential envelope. The jitter stream is a pure function of the
/// seed and the attempt counter, so a fixed seed replays the exact same
/// delay sequence — chaos cells stay reproducible.
///
/// [`crate::NetClient`] spaces reconnect/resubmit attempts with it
/// ([`crate::NetClientConfig::backoff`]) so a flapping server is not
/// hammered in a tight loop. Waiting helps there because wire weather and
/// server overload clear with time; the in-process recovery ladder has no
/// such faults and never sleeps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A backoff starting at `base`, doubling per attempt, clamped to
    /// `cap`, jittered deterministically under `seed`. A zero `base` yields
    /// all-zero delays (backoff disabled but the counter still advances).
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap: cap.max(base),
            seed,
            attempt: 0,
        }
    }

    /// How many delays have been drawn since construction or the last
    /// [`Backoff::reset`].
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Draws the next delay and advances the attempt counter.
    pub fn next_delay(&mut self) -> Duration {
        let attempt = self.attempt;
        self.attempt = self.attempt.saturating_add(1);
        let base = self.base.as_nanos() as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        let cap = self.cap.as_nanos() as u64;
        let exp = base
            .checked_shl(attempt.min(63))
            .unwrap_or(u64::MAX)
            .min(cap);
        // Uniform in [exp/2, exp]: half the envelope is guaranteed spacing,
        // the other half is the seeded jitter.
        let half = exp / 2;
        let jitter = jitter_seed(self.seed, attempt) % (exp - half + 1);
        Duration::from_nanos(half + jitter)
    }

    /// Rewinds to the first attempt (e.g. after a successful call, so the
    /// next failure starts from `base` again).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// The jitter draw for `attempt` under `seed` (SplitMix-style finalizer).
fn jitter_seed(seed: u64, attempt: u32) -> u64 {
    let mut z = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_deterministic_under_a_fixed_seed() {
        let base = Duration::from_micros(100);
        let cap = Duration::from_millis(2);
        let mut a = Backoff::new(base, cap, 42);
        let mut b = Backoff::new(base, cap, 42);
        let delays: Vec<Duration> = (0..24).map(|_| a.next_delay()).collect();
        let replay: Vec<Duration> = (0..24).map(|_| b.next_delay()).collect();
        assert_eq!(delays, replay, "fixed seed replays the same sequence");
        for (i, d) in delays.iter().enumerate() {
            let envelope = base.checked_mul(1 << i.min(20)).map_or(cap, |e| e.min(cap));
            assert!(*d <= cap, "attempt {i}: {d:?} exceeds the cap");
            assert!(
                *d >= envelope / 2,
                "attempt {i}: {d:?} fell below half the envelope {envelope:?}"
            );
        }
        // Deep into the sequence every draw sits inside [cap/2, cap].
        assert!(delays[20] >= cap / 2 && delays[20] <= cap);
        // A different seed draws a different (jittered) sequence.
        let mut c = Backoff::new(base, cap, 43);
        let other: Vec<Duration> = (0..24).map(|_| c.next_delay()).collect();
        assert_ne!(delays, other, "jitter must depend on the seed");
    }

    #[test]
    fn backoff_reset_rewinds_and_zero_base_disables() {
        let mut b = Backoff::new(Duration::from_micros(80), Duration::from_millis(1), 7);
        let first = b.next_delay();
        let _ = b.next_delay();
        assert_eq!(b.attempts(), 2);
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert_eq!(b.next_delay(), first, "reset rewinds the jitter stream");

        let mut off = Backoff::new(Duration::ZERO, Duration::from_secs(1), 7);
        for _ in 0..8 {
            assert_eq!(off.next_delay(), Duration::ZERO);
        }
    }
}
