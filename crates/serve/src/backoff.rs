//! Seeded, deterministic-under-test retry/reconnect backoff.
//!
//! Plain exponential backoff synchronises retries: every client that
//! failed together retries together, and the thundering herd re-sheds
//! itself. The usual fix is random jitter — but randomness is exactly
//! what the chaos differentials cannot tolerate, because an oracle run
//! and a killed-and-restarted run must make identical timing-adjacent
//! decisions to produce byte-identical results.
//!
//! So jitter here is a pure function of `(seed, attempt)`: a SplitMix64
//! draw picks a delay in `[base/2, base]` of the exponential envelope.
//! Tests pin the seed and get reproducible schedules; production
//! callers derive the seed from per-request state (the request key, a
//! connection counter) and get decorrelated retries across requests —
//! the herd-splitting benefit without a single nondeterministic bit.

use std::time::Duration;

use cimon_core::splitmix64;

/// The jittered delay before retry `attempt` (0-based): a seeded draw
/// from `[envelope/2, envelope]` where `envelope = base << attempt`
/// (saturating, capped at 30s so a runaway attempt counter cannot
/// produce an effectively-infinite sleep).
pub fn jittered(base: Duration, attempt: u32, seed: u64) -> Duration {
    const CAP: Duration = Duration::from_secs(30);
    let envelope = base
        .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
        .unwrap_or(CAP)
        .min(CAP);
    let half = envelope / 2;
    let span = (envelope - half).as_nanos() as u64;
    if span == 0 {
        return envelope;
    }
    let draw = splitmix64(seed ^ u64::from(attempt)) % (span + 1);
    half + Duration::from_nanos(draw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_attempt_always_draw_the_same_delay() {
        for attempt in 0..6 {
            let a = jittered(Duration::from_millis(10), attempt, 0xFEED);
            let b = jittered(Duration::from_millis(10), attempt, 0xFEED);
            assert_eq!(a, b, "attempt {attempt} wavered");
        }
    }

    #[test]
    fn delays_stay_inside_the_exponential_envelope() {
        let base = Duration::from_millis(8);
        for seed in [0u64, 1, 0xC1A05, u64::MAX] {
            for attempt in 0..8 {
                let d = jittered(base, attempt, seed);
                let envelope = (base * (1 << attempt)).min(Duration::from_secs(30));
                assert!(d >= envelope / 2, "seed {seed} attempt {attempt}: {d:?}");
                assert!(d <= envelope, "seed {seed} attempt {attempt}: {d:?}");
            }
        }
    }

    #[test]
    fn different_seeds_decorrelate_the_schedule() {
        let base = Duration::from_millis(10);
        let distinct: std::collections::HashSet<Duration> =
            (0..32).map(|s| jittered(base, 2, s)).collect();
        assert!(
            distinct.len() > 16,
            "seeds barely move the draw: {} distinct",
            distinct.len()
        );
    }

    #[test]
    fn huge_attempt_counts_saturate_instead_of_overflowing() {
        let d = jittered(Duration::from_millis(10), u32::MAX, 7);
        assert!(d <= Duration::from_secs(30));
        assert!(d >= Duration::from_secs(15));
    }

    #[test]
    fn zero_base_never_divides_by_zero() {
        assert_eq!(jittered(Duration::ZERO, 3, 9), Duration::ZERO);
    }
}
