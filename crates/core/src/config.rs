//! JBS tuning knobs and their paper defaults.

use jbs_des::SimTime;
use jbs_net::conn::DEFAULT_MAX_CONNECTIONS;

/// Configuration of the JBS library (Sec. IV, Sec. V-E).
#[derive(Debug, Clone)]
pub struct JbsConfig {
    /// Transport buffer size. "We choose the default transport buffer size
    /// as 128 KB for the JBS library" (Sec. V-E).
    pub buffer_bytes: u64,
    /// Total DataCache memory per NetMerger/MOFSupplier process; divided by
    /// `buffer_bytes` this bounds the number of in-flight transfers, which
    /// is what makes very large buffers *reduce* pipelining (Fig. 11).
    pub datacache_bytes: u64,
    /// Segments-worth of read-ahead the MOFSupplier's disk prefetch server
    /// issues per group visit, in transport buffers.
    pub prefetch_batch: u32,
    /// Live-connection cap (Sec. IV-A: 512). Caps the real supplier's
    /// accepted connections and the simulated engine's LRU connection
    /// cache; the real NetMerger holds one connection per supplier.
    pub max_connections: usize,
    /// Round-robin injection across per-remote-node request groups
    /// (disable for the fairness ablation; FIFO across all groups then).
    pub round_robin_injection: bool,
    /// Group fetch requests by target MOF on the supplier (disable for the
    /// grouping ablation; arrival order then).
    pub group_by_mof: bool,
    /// Pipelined prefetching into the DataCache (disable for the prefetch
    /// ablation; the supplier then serializes read and transmit per
    /// request like the stock HttpServlet, Fig. 4).
    pub pipelined_prefetch: bool,
    /// Segment-body bytes per reducer the NetMerger may stage *before* the
    /// merge phase starts. Headers always stream at MOF commit; bodies
    /// levitate on remote disks once this staging memory is full — the
    /// SC'11 network-levitated merge with a bounded eager window.
    pub prefetch_budget_per_reducer: u64,
    /// JBS plugs into Hadoop, so the NetMerger learns of completed
    /// MapTasks through the same TaskCompletionEvents polling as stock
    /// MOFCopiers (~3 s in Hadoop 0.20). Zero for micro-benchmarks that
    /// fetch directly.
    pub notification_latency: SimTime,
    /// Retries a fetch attempts after a transient failure (connect
    /// refusal, timeout, reset, corrupt frame) before surfacing the
    /// error to the merge. 0 disables retry.
    pub fetch_retry_max: u32,
    /// Backoff before the first fetch retry; doubles per retry.
    pub fetch_backoff_base: SimTime,
    /// Upper clamp on any single fetch-retry backoff sleep.
    pub fetch_backoff_max: SimTime,
    /// Connect and per-request read/write deadline on the real
    /// dataplane.
    pub fetch_io_timeout: SimTime,
    /// MOFSupplier admission control: connections one peer IP may have
    /// served at once. A connection over the bound is answered with a
    /// retryable `Busy` pushback and closed instead of stalling everyone.
    pub max_inflight_per_peer: u64,
    /// Consecutive connection-level failures before a supplier's
    /// circuit breaker opens and new fetch ops for it fail fast
    /// (half-open probes re-admit it). 0 disables the breaker.
    pub breaker_threshold: u32,
    /// Memory budget of the supplier-side hybrid store's MEMORY tier
    /// (Uniffle-style MEMORY_LOCALFILE): incoming partition writes
    /// buffer here until the watermarks spill them.
    pub hybrid_memory_budget: u64,
    /// Fraction of `hybrid_memory_budget` at which the memory tier
    /// trips a spill to LOCALFILE.
    pub memory_spill_high_watermark: f64,
    /// Fraction of `hybrid_memory_budget` a tripped spill flushes down
    /// to before stopping.
    pub memory_spill_low_watermark: f64,
    /// Per-partition memory cap: a partition buffering more than this
    /// is force-spilled even below the high watermark, so one skewed
    /// reducer cannot monopolize the memory tier.
    pub huge_partition_limit: u64,
    /// Crash-consistent spills: every LOCALFILE commit is fsynced and
    /// recorded in the store's durable manifest, so a killed supplier
    /// can be rebuilt from its surviving directory
    /// (`HybridStore::recover`) instead of losing its local tier.
    /// `false` keeps the volatile fast path (no syncs, no manifest).
    pub durable_spill: bool,
    /// Manifest records per fsync when `durable_spill` is on (>= 1).
    /// `1` forces every record down before its commit publishes; larger
    /// values batch the barriers — a crash may then lose the last
    /// unsynced records, which recovery treats as cleanly absent.
    pub manifest_sync_interval: u64,
    /// Disk IO scheduler permits for staging/segment reads (>= 1).
    /// Bounds how many reads hit the disk at once so a prefetch burst
    /// keeps its sequential head position; the supplier runs one disk
    /// worker per permit.
    pub io_read_permits: usize,
    /// Disk IO scheduler permits for hybrid-store spill appends (>= 1).
    /// Keeps a spill burst from stealing the disk head from the
    /// prefetcher.
    pub io_append_permits: usize,
    /// Spacing between a supplier's heartbeats into the registry.
    pub heartbeat_interval: SimTime,
    /// Copies of each segment written across the cluster (primary
    /// included). 1 disables replication.
    pub replication_factor: u32,
    /// Heartbeat intervals a supplier may miss before the registry
    /// marks it unhealthy and routes fetches to its replicas.
    pub unhealthy_after_missed: u32,
}

impl Default for JbsConfig {
    fn default() -> Self {
        JbsConfig {
            buffer_bytes: 128 << 10,
            datacache_bytes: 8 << 20,
            prefetch_batch: 8,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            round_robin_injection: true,
            group_by_mof: true,
            pipelined_prefetch: true,
            prefetch_budget_per_reducer: 256 << 20,
            notification_latency: SimTime::from_secs(3),
            fetch_retry_max: 4,
            fetch_backoff_base: SimTime::from_millis(10),
            fetch_backoff_max: SimTime::from_millis(500),
            fetch_io_timeout: SimTime::from_secs(5),
            max_inflight_per_peer: 256,
            breaker_threshold: 8,
            hybrid_memory_budget: 64 << 20,
            memory_spill_high_watermark: 0.5,
            memory_spill_low_watermark: 0.2,
            huge_partition_limit: 16 << 20,
            durable_spill: false,
            manifest_sync_interval: 1,
            io_read_permits: 4,
            io_append_permits: 2,
            heartbeat_interval: SimTime::from_millis(500),
            replication_factor: 2,
            unhealthy_after_missed: 3,
        }
    }
}

impl JbsConfig {
    /// The default configuration with a different transport buffer size
    /// (the Fig. 11 sweep).
    pub fn with_buffer(buffer_bytes: u64) -> Self {
        JbsConfig {
            buffer_bytes,
            ..Self::default()
        }
    }

    /// Number of in-flight transport buffers the DataCache supports.
    pub fn pool_buffers(&self) -> usize {
        ((self.datacache_bytes / self.buffer_bytes).max(1)) as usize
    }

    /// Sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.buffer_bytes == 0 {
            return Err("buffer size must be positive".into());
        }
        if self.datacache_bytes < self.buffer_bytes {
            return Err("DataCache smaller than one buffer".into());
        }
        if self.max_connections == 0 {
            return Err("connection cap must be positive".into());
        }
        if self.prefetch_batch == 0 {
            return Err("prefetch batch must be positive".into());
        }
        if self.fetch_backoff_base > self.fetch_backoff_max {
            return Err("fetch backoff base exceeds its max".into());
        }
        if self.fetch_io_timeout == SimTime::ZERO {
            return Err("fetch i/o timeout must be positive".into());
        }
        if self.max_inflight_per_peer == 0 {
            return Err("per-peer in-flight cap must be positive".into());
        }
        if self.hybrid_memory_budget == 0 {
            return Err("hybrid memory budget must be positive".into());
        }
        if !(self.memory_spill_low_watermark > 0.0
            && self.memory_spill_low_watermark < self.memory_spill_high_watermark
            && self.memory_spill_high_watermark <= 1.0)
        {
            return Err("spill watermarks must satisfy 0 < low < high <= 1".into());
        }
        if self.huge_partition_limit == 0 {
            return Err("huge-partition limit must be positive".into());
        }
        if self.manifest_sync_interval == 0 {
            return Err("manifest sync interval must be at least 1".into());
        }
        if self.io_read_permits == 0 || self.io_append_permits == 0 {
            return Err("disk IO permits must be positive per class".into());
        }
        if self.heartbeat_interval == SimTime::ZERO {
            return Err("heartbeat interval must be positive".into());
        }
        if self.replication_factor == 0 {
            return Err("replication factor must be at least 1".into());
        }
        if self.unhealthy_after_missed == 0 {
            return Err("unhealthy-after-missed must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = JbsConfig::default();
        assert_eq!(c.buffer_bytes, 128 << 10);
        assert_eq!(c.max_connections, 512);
        assert!(c.round_robin_injection && c.group_by_mof && c.pipelined_prefetch);
        assert_eq!(c.max_inflight_per_peer, 256);
        assert_eq!(c.breaker_threshold, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn robustness_knob_validation() {
        let c = JbsConfig {
            max_inflight_per_peer: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
        // Breaker threshold 0 is a valid "disabled" setting.
        let c = JbsConfig {
            breaker_threshold: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn hybrid_knob_validation() {
        let c = JbsConfig::default();
        assert_eq!(c.hybrid_memory_budget, 64 << 20);
        assert_eq!(c.memory_spill_high_watermark, 0.5);
        assert_eq!(c.memory_spill_low_watermark, 0.2);
        assert_eq!(c.huge_partition_limit, 16 << 20);
        let c = JbsConfig {
            hybrid_memory_budget: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
        // Inverted watermarks are rejected.
        let c = JbsConfig {
            memory_spill_high_watermark: 0.1,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = JbsConfig {
            memory_spill_high_watermark: 1.5,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = JbsConfig {
            huge_partition_limit: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn durability_knob_validation() {
        let c = JbsConfig::default();
        assert!(!c.durable_spill, "volatile fast path is the default");
        assert_eq!(c.manifest_sync_interval, 1);
        // Batched barriers are legal at any interval >= 1...
        let c = JbsConfig {
            durable_spill: true,
            manifest_sync_interval: 8,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_ok());
        // ...but an interval of 0 never is, durable or not.
        let c = JbsConfig {
            manifest_sync_interval: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn reactor_knob_validation() {
        let c = JbsConfig::default();
        assert_eq!(c.io_read_permits, 4);
        assert_eq!(c.io_append_permits, 2);
        // Arbitration is always on: a class with no permits is rejected.
        let c = JbsConfig {
            io_read_permits: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = JbsConfig {
            io_append_permits: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn control_plane_knob_validation() {
        let c = JbsConfig::default();
        assert_eq!(c.heartbeat_interval, SimTime::from_millis(500));
        assert_eq!(c.replication_factor, 2);
        assert_eq!(c.unhealthy_after_missed, 3);
        let c = JbsConfig {
            heartbeat_interval: SimTime::ZERO,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = JbsConfig {
            replication_factor: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = JbsConfig {
            unhealthy_after_missed: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
        // RF=1 is valid: replication disabled.
        let c = JbsConfig {
            replication_factor: 1,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn pool_buffer_math() {
        assert_eq!(JbsConfig::default().pool_buffers(), 64);
        assert_eq!(JbsConfig::with_buffer(512 << 10).pool_buffers(), 16);
        assert_eq!(JbsConfig::with_buffer(8 << 20).pool_buffers(), 1);
    }

    #[test]
    fn bigger_buffers_mean_fewer_in_flight() {
        // The Fig. 11 mechanism in one assert.
        let small = JbsConfig::with_buffer(8 << 10).pool_buffers();
        let large = JbsConfig::with_buffer(512 << 10).pool_buffers();
        assert!(small > large * 16);
    }

    #[test]
    fn validation() {
        let c = JbsConfig {
            buffer_bytes: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = JbsConfig {
            datacache_bytes: JbsConfig::default().buffer_bytes - 1,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = JbsConfig {
            max_connections: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = JbsConfig {
            prefetch_batch: 0,
            ..JbsConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
