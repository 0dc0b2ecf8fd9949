//! Bounded exponential backoff with seed-deterministic jitter.
//!
//! The backoff before 1-based retry `k` is `base_backoff * 2^(k-1)`,
//! capped at `max_backoff`, then scaled by a jitter factor in
//! `[0.5, 1.0)` drawn as a pure function of `(seed, request, attempt)`
//! — the same splitmix generator the fault model uses, on a disjoint
//! stream. Two runs with the same seed therefore sleep the same
//! amounts, which keeps chaos-harness latency envelopes reproducible.

use std::time::Duration;

use bc_core::faults::FaultRng;

/// Stream id offset separating backoff draws from fault draws.
const JITTER_STREAM: u64 = 0x5EED_BACC_0FF5;

/// Retry budget and backoff shape for transient failures and panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries permitted after the initial attempt (0 = no retries).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    /// Total attempts this policy permits (initial try + retries).
    pub fn max_attempts(&self) -> u32 {
        self.max_retries + 1
    }

    /// The jittered backoff before retry number `attempt` (1-based:
    /// `attempt = 1` is the first retry) of request `request`.
    pub fn backoff(&self, seed: u64, request: u64, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let mut rng = FaultRng::new(
            seed ^ JITTER_STREAM,
            request.wrapping_mul(31).wrapping_add(u64::from(attempt)),
        );
        raw.mul_f64(0.5 + 0.5 * rng.unit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for req in 0..20u64 {
            for attempt in 1..=4u32 {
                let a = p.backoff(9, req, attempt);
                let b = p.backoff(9, req, attempt);
                assert_eq!(a, b);
                assert!(a <= p.max_backoff);
                assert!(a >= p.base_backoff / 2);
            }
        }
    }

    #[test]
    fn backoff_grows_until_the_cap() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(64),
        };
        // Compare the un-jittered envelope: attempt 1 -> 2ms, 6 -> 64ms.
        let early = p.backoff(1, 0, 1);
        let late = p.backoff(1, 0, 6);
        assert!(
            late > early,
            "later retries must back off more: {early:?} vs {late:?}"
        );
        assert!(late <= p.max_backoff);
    }

    #[test]
    fn jitter_differs_across_requests() {
        let p = RetryPolicy::default();
        let differs = (0..20u64).any(|r| p.backoff(3, r, 1) != p.backoff(3, r + 100, 1));
        assert!(differs);
    }
}
