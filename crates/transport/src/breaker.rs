//! Per-peer circuit breaker for the fetch scheduler.
//!
//! A supplier that keeps failing consecutively is most likely down or
//! unreachable; burning the whole retry budget per operation against it
//! only delays the verdict and starves healthy peers of client attention.
//! The breaker turns that pattern into an explicit state machine:
//!
//! ```text
//! Closed --(threshold consecutive failures)--> Open
//! Open   --(cooldown elapsed, one probe token)--> HalfOpen
//! HalfOpen --(probe succeeds)--> Closed
//! HalfOpen --(probe fails)--> Open (cooldown doubled, capped)
//! ```
//!
//! While `Open`, new work for the peer fails fast with
//! [`crate::TransportError::CircuitOpen`] and already-admitted work
//! waits for the next probe time — a deadline in the client loop's poll
//! timeout — instead of hammering a dead peer.
//!
//! The breaker never reads a clock: every method takes `now_nanos`
//! supplied by the caller (the client loop's monotonic anchor in
//! production, synthetic time in the tests below), which keeps the
//! state machine deterministic. Only the client loop's thread touches a
//! peer's breaker, so it takes no lock.

/// Internal state. `consecutive` counts failures since the last success;
/// `cooldown_level` doubles the open cooldown per consecutive reopen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Healthy: requests flow, failures are counted.
    Closed {
        /// Consecutive failures so far.
        consecutive: u32,
    },
    /// Failing fast until `until_nanos`.
    Open {
        /// Probe time.
        until_nanos: u64,
        /// How many times the breaker re-opened without closing.
        cooldown_level: u32,
    },
    /// One probe in flight; its outcome decides the next state.
    HalfOpen {
        /// Cooldown level to return to (deepened) if the probe fails.
        cooldown_level: u32,
    },
}

/// What a state-changing call did — the caller emits the matching
/// `breaker.*` trace event for transitions, so tests can assert the
/// open → half-open → close lifecycle from traces alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// No state change.
    None,
    /// Closed/HalfOpen -> Open.
    Opened,
    /// HalfOpen/Open -> Closed (a success arrived). The Open ->
    /// HalfOpen edge is signalled by [`Admit::Probe`] from
    /// [`Breaker::try_acquire`] instead — the prober is the one caller
    /// who can emit it exactly once.
    Closed,
}

/// Verdict for admitting one unit of work toward the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Breaker closed (or disabled): proceed normally.
    Yes,
    /// Cooldown elapsed; the caller holds the single half-open probe
    /// token and must report the outcome via `on_success`/`on_failure`.
    Probe,
    /// Breaker open: fail fast or park until `retry_at_nanos`.
    No {
        /// Earliest time a probe will be granted.
        retry_at_nanos: u64,
    },
}

/// A per-peer circuit breaker. `threshold == 0` disables it entirely
/// (every admit is `Yes`, failures are not tracked).
#[derive(Debug)]
pub(crate) struct Breaker {
    state: State,
    threshold: u32,
    cooldown_nanos: u64,
}

/// Cap on cooldown doubling: 2^6 = 64x the base cooldown.
const MAX_COOLDOWN_LEVEL: u32 = 6;

impl Breaker {
    /// A breaker opening after `threshold` consecutive failures, with
    /// the given base cooldown before the first half-open probe.
    pub(crate) fn new(threshold: u32, cooldown_nanos: u64) -> Self {
        Breaker {
            state: State::Closed { consecutive: 0 },
            threshold,
            // A zero cooldown would grant a probe immediately and turn
            // fail-fast into a busy loop.
            cooldown_nanos: cooldown_nanos.max(1),
        }
    }

    /// Is the breaker enabled at all?
    pub(crate) fn enabled(&self) -> bool {
        self.threshold > 0
    }

    fn cooldown_for(&self, level: u32) -> u64 {
        self.cooldown_nanos
            .saturating_mul(1u64 << level.min(MAX_COOLDOWN_LEVEL))
    }

    /// Ask to send work to the peer now.
    pub(crate) fn try_acquire(&mut self, now_nanos: u64) -> Admit {
        if !self.enabled() {
            return Admit::Yes;
        }
        match self.state {
            State::Closed { .. } => Admit::Yes,
            State::Open {
                until_nanos,
                cooldown_level,
            } => {
                if now_nanos >= until_nanos {
                    self.state = State::HalfOpen { cooldown_level };
                    Admit::Probe
                } else {
                    Admit::No {
                        retry_at_nanos: until_nanos,
                    }
                }
            }
            // A probe is already in flight; everyone else waits for its
            // verdict (re-ask shortly: the probe resolves quickly).
            State::HalfOpen { .. } => Admit::No {
                retry_at_nanos: now_nanos,
            },
        }
    }

    /// Fail-fast check without consuming the probe token: `true` while
    /// the breaker is open and the cooldown has not elapsed.
    pub(crate) fn is_open(&self, now_nanos: u64) -> bool {
        if !self.enabled() {
            return false;
        }
        match self.state {
            State::Open { until_nanos, .. } => now_nanos < until_nanos,
            _ => false,
        }
    }

    /// Report a successful exchange with the peer.
    pub(crate) fn on_success(&mut self, _now_nanos: u64) -> Transition {
        if !self.enabled() {
            return Transition::None;
        }
        let was = std::mem::replace(&mut self.state, State::Closed { consecutive: 0 });
        match was {
            State::Closed { .. } => Transition::None,
            State::Open { .. } | State::HalfOpen { .. } => Transition::Closed,
        }
    }

    /// Report a failed exchange with the peer.
    pub(crate) fn on_failure(&mut self, now_nanos: u64) -> Transition {
        if !self.enabled() {
            return Transition::None;
        }
        match self.state {
            State::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                if consecutive >= self.threshold {
                    self.state = State::Open {
                        until_nanos: now_nanos.saturating_add(self.cooldown_for(0)),
                        cooldown_level: 0,
                    };
                    Transition::Opened
                } else {
                    self.state = State::Closed { consecutive };
                    Transition::None
                }
            }
            // The half-open probe failed: back to open, deeper cooldown.
            State::HalfOpen { cooldown_level } => {
                let level = (cooldown_level + 1).min(MAX_COOLDOWN_LEVEL);
                self.state = State::Open {
                    until_nanos: now_nanos.saturating_add(self.cooldown_for(level)),
                    cooldown_level: level,
                };
                Transition::Opened
            }
            // Already open: a late failure report changes nothing.
            State::Open { .. } => Transition::None,
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn threshold_zero_disables() {
        let mut b = Breaker::new(0, 100 * MS);
        assert!(!b.enabled());
        for t in 0..100 {
            assert_eq!(b.on_failure(t), Transition::None);
        }
        assert_eq!(b.try_acquire(1000), Admit::Yes);
        assert!(!b.is_open(1000));
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let mut b = Breaker::new(3, 100 * MS);
        assert_eq!(b.on_failure(0), Transition::None);
        assert_eq!(b.on_failure(1), Transition::None);
        assert_eq!(b.on_failure(2), Transition::Opened);
        assert!(b.is_open(3));
        assert_eq!(
            b.try_acquire(3),
            Admit::No {
                retry_at_nanos: 2 + 100 * MS
            }
        );
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut b = Breaker::new(3, 100 * MS);
        b.on_failure(0);
        b.on_failure(1);
        assert_eq!(b.on_success(2), Transition::None);
        // The count restarted: two more failures do not open.
        b.on_failure(3);
        assert_eq!(b.on_failure(4), Transition::None);
        assert_eq!(b.on_failure(5), Transition::Opened);
    }

    #[test]
    fn probe_lifecycle_close() {
        let mut b = Breaker::new(1, 100 * MS);
        assert_eq!(b.on_failure(0), Transition::Opened);
        // Before the cooldown: parked.
        assert!(matches!(b.try_acquire(50 * MS), Admit::No { .. }));
        // After: exactly one probe token.
        assert_eq!(b.try_acquire(100 * MS), Admit::Probe);
        assert!(matches!(b.try_acquire(100 * MS + 1), Admit::No { .. }));
        // Probe succeeds: closed, work flows again.
        assert_eq!(b.on_success(101 * MS), Transition::Closed);
        assert_eq!(b.try_acquire(102 * MS), Admit::Yes);
    }

    #[test]
    fn failed_probe_reopens_with_doubled_cooldown() {
        let mut b = Breaker::new(1, 100 * MS);
        b.on_failure(0);
        assert_eq!(b.try_acquire(100 * MS), Admit::Probe);
        assert_eq!(b.on_failure(100 * MS), Transition::Opened);
        // Doubled: the next probe is 200ms out, not 100.
        assert!(matches!(b.try_acquire(250 * MS), Admit::No { .. }));
        assert_eq!(b.try_acquire(300 * MS), Admit::Probe);
        // Keep failing probes: the cooldown doubles but is capped.
        let mut now = 300 * MS;
        for _ in 0..20 {
            assert_eq!(b.on_failure(now), Transition::Opened);
            let retry_at = match b.try_acquire(now) {
                Admit::No { retry_at_nanos } => retry_at_nanos,
                other => panic!("expected open, got {other:?}"),
            };
            assert!(retry_at - now <= (1 << MAX_COOLDOWN_LEVEL) * 100 * MS);
            now = retry_at;
            assert_eq!(b.try_acquire(now), Admit::Probe);
        }
    }

    #[test]
    fn open_absorbs_late_failure_reports() {
        let mut b = Breaker::new(2, 100 * MS);
        b.on_failure(0);
        assert_eq!(b.on_failure(1), Transition::Opened);
        // In-flight ops from before the open keep failing; the open
        // window must not slide forward on every report.
        assert_eq!(b.on_failure(2), Transition::None);
        assert_eq!(b.on_failure(50 * MS), Transition::None);
        assert_eq!(b.try_acquire(1 + 100 * MS), Admit::Probe);
    }
}
