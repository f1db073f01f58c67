//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! The NetMerger client retries transient dataplane failures (see
//! [`crate::error::TransportError::is_retryable`]) under a
//! [`RetryPolicy`]: each attempt after the first sleeps for an
//! exponentially growing backoff, jittered by [`JITTER_FRAC`] from a
//! [`jbs_des::DetRng`] stream so a given seed always produces the same
//! sleep schedule.

use jbs_des::DetRng;
use std::time::Duration;

/// Multiplicative backoff jitter: each sleep is scaled uniformly in
/// `[1 - JITTER_FRAC, 1 + JITTER_FRAC]`.
pub const JITTER_FRAC: f64 = 0.2;

/// Retry budget and backoff shape for one logical operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed after the initial attempt. 0 disables retry.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Upper clamp on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries; failures surface on first error.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Sleep duration before retry number `attempt` (1-based: the
    /// first retry is attempt 1). Exponential in `attempt`, clamped to
    /// `max_backoff`, then jittered by [`JITTER_FRAC`] from `rng`.
    pub fn backoff(&self, attempt: u32, rng: &mut DetRng) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        raw.mul_f64(rng.uniform_f64(1.0 - JITTER_FRAC, 1.0 + JITTER_FRAC))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_clamps() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
        };
        let mut rng = DetRng::new(1);
        // Each sleep is its unjittered value within the jitter band.
        let within = |d: Duration, ms: f64| {
            let ms_got = d.as_secs_f64() * 1e3;
            ms_got >= ms * (1.0 - JITTER_FRAC) - 1e-6 && ms_got <= ms * (1.0 + JITTER_FRAC) + 1e-6
        };
        assert!(within(p.backoff(1, &mut rng), 10.0));
        assert!(within(p.backoff(2, &mut rng), 20.0));
        assert!(within(p.backoff(3, &mut rng), 40.0));
        // Clamped past the cap.
        assert!(within(p.backoff(6, &mut rng), 100.0));
        assert!(within(p.backoff(30, &mut rng), 100.0));
    }

    #[test]
    fn jitter_is_bounded_and_seed_deterministic() {
        let p = RetryPolicy::default();
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for attempt in 1..=6 {
            let da = p.backoff(attempt, &mut a);
            let db = p.backoff(attempt, &mut b);
            assert_eq!(da, db);
            let raw = p
                .base_backoff
                .saturating_mul(1 << (attempt - 1))
                .min(p.max_backoff);
            assert!(da >= raw.mul_f64(1.0 - JITTER_FRAC - 1e-9));
            assert!(da <= raw.mul_f64(1.0 + JITTER_FRAC + 1e-9));
        }
    }

    #[test]
    fn none_disables_retry() {
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }
}
