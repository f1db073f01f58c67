//! Analytic queueing resources.
//!
//! The simulation models serially-shared hardware (a disk arm, the wire of a
//! NIC, a pool of CPU cores) as *servers*: a request submitted at time `t`
//! with service demand `d` begins service when the server frees up and
//! completes `d` later. As long as callers submit requests in non-decreasing
//! arrival-time order — which the event-driven layers above guarantee — this
//! reproduces FIFO queueing exactly, with far fewer events than simulating
//! every queue slot.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Outcome of submitting a request to a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service actually began (>= arrival).
    pub start: SimTime,
    /// When service completed.
    pub end: SimTime,
}

impl Grant {
    /// Time the request spent waiting before service.
    pub fn queue_delay(&self, arrival: SimTime) -> SimTime {
        self.start.saturating_sub(arrival)
    }
}

/// A single-channel FIFO server.
#[derive(Debug, Clone)]
pub struct FifoServer {
    next_free: SimTime,
    busy: SimTime,
    served: u64,
}

impl Default for FifoServer {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoServer {
    /// An idle server, free from time zero.
    pub fn new() -> Self {
        FifoServer {
            next_free: SimTime::ZERO,
            busy: SimTime::ZERO,
            served: 0,
        }
    }

    /// Submit a request arriving at `arrival` needing `service` time.
    pub fn serve(&mut self, arrival: SimTime, service: SimTime) -> Grant {
        let start = arrival.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        self.busy += service;
        self.served += 1;
        Grant { start, end }
    }

    /// Earliest time a new arrival would begin service.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total service time dispensed.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }
}

/// A `k`-channel FIFO server (e.g. a pool of identical disks or cores):
/// each request occupies the earliest-free channel.
#[derive(Debug, Clone)]
pub struct MultiServer {
    /// Min-heap of per-channel next-free times.
    channels: BinaryHeap<Reverse<SimTime>>,
    k: usize,
    busy: SimTime,
    served: u64,
}

impl MultiServer {
    /// A pool of `k >= 1` idle channels.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "MultiServer needs at least one channel");
        let mut channels = BinaryHeap::with_capacity(k);
        for _ in 0..k {
            channels.push(Reverse(SimTime::ZERO));
        }
        MultiServer {
            channels,
            k,
            busy: SimTime::ZERO,
            served: 0,
        }
    }

    /// Submit a request arriving at `arrival` needing `service` time; it is
    /// placed on the channel that frees up first.
    pub fn serve(&mut self, arrival: SimTime, service: SimTime) -> Grant {
        let Reverse(free) = self.channels.pop().expect("channels non-empty");
        let start = arrival.max(free);
        let end = start + service;
        self.channels.push(Reverse(end));
        self.busy += service;
        self.served += 1;
        Grant { start, end }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.k
    }

    /// Total service time dispensed across all channels.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Mean per-channel utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_secs_f64() / (horizon.as_secs_f64() * self.k as f64)).min(1.0)
    }

    /// Earliest time any channel is free.
    pub fn next_free(&self) -> SimTime {
        self.channels
            .peek()
            .map(|Reverse(t)| *t)
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn fifo_serializes_overlapping_requests() {
        let mut srv = FifoServer::new();
        let a = srv.serve(s(0), s(10));
        assert_eq!((a.start, a.end), (s(0), s(10)));
        let b = srv.serve(s(2), s(5));
        assert_eq!((b.start, b.end), (s(10), s(15)));
        assert_eq!(b.queue_delay(s(2)), s(8));
        assert_eq!(srv.busy_time(), s(15));
        assert_eq!(srv.served(), 2);
    }

    #[test]
    fn fifo_idle_gap_not_counted_busy() {
        let mut srv = FifoServer::new();
        srv.serve(s(0), s(1));
        srv.serve(s(100), s(1));
        assert_eq!(srv.busy_time(), s(2));
        assert!((srv.utilization(s(200)) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn multiserver_runs_k_in_parallel() {
        let mut srv = MultiServer::new(2);
        let a = srv.serve(s(0), s(10));
        let b = srv.serve(s(0), s(10));
        let c = srv.serve(s(0), s(10));
        assert_eq!(a.end, s(10));
        assert_eq!(b.end, s(10));
        // Third request waits for a channel.
        assert_eq!((c.start, c.end), (s(10), s(20)));
        assert_eq!(srv.channels(), 2);
    }

    #[test]
    fn multiserver_picks_earliest_free_channel() {
        let mut srv = MultiServer::new(2);
        srv.serve(s(0), s(10)); // ch A busy till 10
        srv.serve(s(0), s(2)); // ch B busy till 2
        let g = srv.serve(s(3), s(1));
        assert_eq!((g.start, g.end), (s(3), s(4))); // lands on B immediately
    }

    #[test]
    fn utilization_bounds() {
        let mut srv = MultiServer::new(4);
        for _ in 0..4 {
            srv.serve(s(0), s(100));
        }
        assert!((srv.utilization(s(100)) - 1.0).abs() < 1e-9);
        assert_eq!(srv.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_channel_pool_rejected() {
        let _ = MultiServer::new(0);
    }
}
