//! Recovery counters and pipeline gauges for the real dataplane.
//!
//! [`FetchStats`] is the observable face of the retry/timeout machinery:
//! the chaos tests (and operators of a real deployment) read it to
//! confirm that injected faults were actually hit and recovered from,
//! rather than silently avoided. The pipeline gauges (`queued_ops`,
//! `window_inflight` and their peaks) additionally expose whether the
//! background fetch scheduler actually overlapped work: a peak window
//! occupancy above 1 is the direct witness that chunk `k+1` was on the
//! wire while chunk `k` was still streaming back.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing recovery activity plus scheduler gauges. All
/// methods are thread-safe; fetch worker threads update them
/// concurrently. Counters are monotonic; the two `*_inflight`/`queued`
/// gauges go up and down and read zero when the dataplane is quiescent.
#[derive(Debug, Default)]
pub struct FetchStats {
    retries: AtomicU64,
    reconnects: AtomicU64,
    timeouts: AtomicU64,
    resets: AtomicU64,
    corrupt_frames: AtomicU64,
    connect_failures: AtomicU64,
    resumed_bytes: AtomicU64,
    exhausted: AtomicU64,
    queued_ops: AtomicU64,
    queue_depth_peak: AtomicU64,
    window_inflight: AtomicU64,
    window_peak: AtomicU64,
    spec_discards: AtomicU64,
    corrupt_refetches: AtomicU64,
    busy_backoffs: AtomicU64,
    breaker_fast_fails: AtomicU64,
    failovers: AtomicU64,
    connections_established: AtomicU64,
    connections_reused: AtomicU64,
    bytes_fetched: AtomicU64,
}

/// A point-in-time copy of [`FetchStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStatsSnapshot {
    /// Request attempts re-issued after a retryable failure.
    pub retries: u64,
    /// Connections re-established after eviction of a failed one.
    pub reconnects: u64,
    /// Read/write deadline expiries observed.
    pub timeouts: u64,
    /// Peer resets / broken pipes / mid-frame EOFs observed.
    pub resets: u64,
    /// Frames discarded because they failed to decode.
    pub corrupt_frames: u64,
    /// Dial attempts that failed outright.
    pub connect_failures: u64,
    /// Bytes that did NOT need re-fetching because a retried segment
    /// fetch resumed at the already-received offset.
    pub resumed_bytes: u64,
    /// Operations that ran out of retry budget.
    pub exhausted: u64,
    /// Fetch ops currently sitting in per-supplier scheduler queues
    /// (gauge; zero when quiescent).
    pub queued_ops: u64,
    /// High-water mark of [`Self::queued_ops`].
    pub queue_depth_peak: u64,
    /// Pipelined requests currently on the wire awaiting their response
    /// (gauge; zero when quiescent).
    pub window_inflight: u64,
    /// High-water mark of [`Self::window_inflight`] — above 1 proves
    /// requests were actually pipelined, not serialized.
    pub window_peak: u64,
    /// Speculative pipelined responses discarded: the response landed at
    /// a stale offset after a short read, or its op had already
    /// completed or failed.
    pub spec_discards: u64,
    /// Targeted re-fetches issued after a payload failed its CRC32C —
    /// re-read from the supplier's disk with the cache-bypass flag, as
    /// distinct from connection-level retries.
    pub corrupt_refetches: u64,
    /// `Busy` pushback frames honored: the client slept the supplier's
    /// retry-after hint instead of tearing the connection down.
    pub busy_backoffs: u64,
    /// Fetch ops failed fast because the peer's circuit breaker was
    /// open (no wire traffic was attempted).
    pub breaker_fast_fails: u64,
    /// Fetch ops redirected to another replica of their MOF, either
    /// proactively (submitted against a peer already marked unhealthy /
    /// breaker-open) or reactively (re-queued when such a peer was
    /// about to fail the op). Requires a [`crate::routes::RouteTable`].
    pub failovers: u64,
    /// Connections established.
    pub connections_established: u64,
    /// Fetch ops admitted onto their supplier's already-open connection.
    pub connections_reused: u64,
    /// Verified payload bytes fetched.
    pub bytes_fetched: u64,
}

impl FetchStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        FetchStats::default()
    }

    /// Record one re-issued attempt.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one re-dial after evicting a failed connection.
    pub fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one timeout.
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one peer-initiated drop.
    pub fn record_reset(&self) {
        self.resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one undecodable frame.
    pub fn record_corrupt_frame(&self) {
        self.corrupt_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one failed dial.
    pub fn record_connect_failure(&self) {
        self.connect_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` bytes preserved across a retry by resuming at the
    /// received offset instead of restarting the segment.
    pub fn record_resumed_bytes(&self, n: u64) {
        self.resumed_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one operation that exhausted its retry budget.
    pub fn record_exhausted(&self) {
        self.exhausted.fetch_add(1, Ordering::Relaxed);
    }

    /// Gauge up: one op entered a scheduler queue.
    pub fn record_op_queued(&self) {
        let depth = self.queued_ops.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Gauge down: one op left its queue for a worker's active set.
    pub fn record_op_dequeued(&self) {
        self.queued_ops.fetch_sub(1, Ordering::Relaxed);
    }

    /// Gauge up: one pipelined request went on the wire.
    pub fn record_window_send(&self) {
        let inflight = self.window_inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.window_peak.fetch_max(inflight, Ordering::Relaxed);
    }

    /// Gauge down: one pipelined response was matched to its request.
    pub fn record_window_recv(&self) {
        self.window_inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Gauge down: `n` in-flight requests died with their connection.
    pub fn record_window_drained(&self, n: u64) {
        self.window_inflight.fetch_sub(n, Ordering::Relaxed);
    }

    /// Record one discarded speculative response.
    pub fn record_spec_discard(&self) {
        self.spec_discards.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one targeted cache-bypass re-fetch after a CRC mismatch.
    pub fn record_corrupt_refetch(&self) {
        self.corrupt_refetches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one honored `Busy` pushback (slept the hint, will retry).
    pub fn record_busy_backoff(&self) {
        self.busy_backoffs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one op failed fast on an open circuit breaker.
    pub fn record_breaker_fast_fail(&self) {
        self.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one op redirected to a replica of its MOF.
    pub fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one dialed connection.
    pub fn record_connection_established(&self) {
        self.connections_established.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one op admitted onto an already-open connection.
    pub fn record_connection_reused(&self) {
        self.connections_reused.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` verified payload bytes.
    pub fn record_bytes_fetched(&self, n: u64) {
        self.bytes_fetched.fetch_add(n, Ordering::Relaxed);
    }

    /// Copy out all counters.
    pub fn snapshot(&self) -> FetchStatsSnapshot {
        FetchStatsSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
            connect_failures: self.connect_failures.load(Ordering::Relaxed),
            resumed_bytes: self.resumed_bytes.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            queued_ops: self.queued_ops.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            window_inflight: self.window_inflight.load(Ordering::Relaxed),
            window_peak: self.window_peak.load(Ordering::Relaxed),
            spec_discards: self.spec_discards.load(Ordering::Relaxed),
            corrupt_refetches: self.corrupt_refetches.load(Ordering::Relaxed),
            busy_backoffs: self.busy_backoffs.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            connections_established: self.connections_established.load(Ordering::Relaxed),
            connections_reused: self.connections_reused.load(Ordering::Relaxed),
            bytes_fetched: self.bytes_fetched.load(Ordering::Relaxed),
        }
    }
}

impl FetchStatsSnapshot {
    /// Whether any recovery machinery fired at all.
    pub fn any_recovery(&self) -> bool {
        self.retries > 0 || self.reconnects > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = FetchStats::new();
        s.record_retry();
        s.record_retry();
        s.record_reconnect();
        s.record_timeout();
        s.record_reset();
        s.record_corrupt_frame();
        s.record_connect_failure();
        s.record_resumed_bytes(4096);
        s.record_resumed_bytes(1024);
        s.record_exhausted();
        let snap = s.snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.reconnects, 1);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.resets, 1);
        assert_eq!(snap.corrupt_frames, 1);
        assert_eq!(snap.connect_failures, 1);
        assert_eq!(snap.resumed_bytes, 5120);
        assert_eq!(snap.exhausted, 1);
        assert!(snap.any_recovery());
        assert!(!FetchStatsSnapshot::default().any_recovery());
    }

    #[test]
    fn gauges_track_depth_and_peaks() {
        let s = FetchStats::new();
        s.record_op_queued();
        s.record_op_queued();
        s.record_op_dequeued();
        s.record_window_send();
        s.record_window_send();
        s.record_window_send();
        s.record_window_recv();
        s.record_window_drained(2);
        s.record_spec_discard();
        let snap = s.snapshot();
        assert_eq!(snap.queued_ops, 1);
        assert_eq!(snap.queue_depth_peak, 2);
        assert_eq!(snap.window_inflight, 0);
        assert_eq!(snap.window_peak, 3);
        assert_eq!(snap.spec_discards, 1);
    }

    #[test]
    fn robustness_counters_accumulate() {
        let s = FetchStats::new();
        s.record_corrupt_refetch();
        s.record_corrupt_refetch();
        s.record_busy_backoff();
        s.record_breaker_fast_fail();
        s.record_failover();
        s.record_connection_established();
        s.record_connection_reused();
        s.record_connection_reused();
        s.record_bytes_fetched(4096);
        let snap = s.snapshot();
        assert_eq!(snap.corrupt_refetches, 2);
        assert_eq!(snap.busy_backoffs, 1);
        assert_eq!(snap.breaker_fast_fails, 1);
        assert_eq!(snap.failovers, 1);
        assert_eq!(snap.connections_established, 1);
        assert_eq!(snap.connections_reused, 2);
        assert_eq!(snap.bytes_fetched, 4096);
    }
}
