//! Hybrid-store configuration: memory budget, watermarks, tier knobs.

use jbs_obs::Trace;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Arbitration hook the spill flusher calls around each LOCALFILE
/// append. The transport crate's `IoScheduler` implements this (it
/// cannot be depended on from here — that would be a crate cycle), so
/// one shared permit scheduler can sit under both the prefetcher's
/// reads and this store's spill appends. `acquire_append` may block;
/// it is called with **no** store lock held (the sealed buffer is
/// written outside the `state` mutex), and every acquire is paired
/// with exactly one `release_append`.
pub trait SpillGate: Send + Sync {
    /// Block until an append permit is free and take it.
    fn acquire_append(&self);
    /// Return the permit taken by the matching `acquire_append`.
    fn release_append(&self);
}

/// A durable-intent disk write the fault injector can interpose on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskWriteSite {
    /// A spill-extent (or oversize direct) write to `spill.data`.
    SpillWrite,
    /// A manifest record append to `manifest.log`.
    ManifestAppend,
}

/// The injected outcome of one disk write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskWriteFault {
    /// Perform the write normally.
    Allow,
    /// Write only a prefix of the bytes, then fail (`ErrorKind::WriteZero`).
    ShortWrite,
    /// Fail without writing anything (an EIO-style error).
    Error,
}

/// Deterministic disk-write fault injection for the spill/manifest
/// paths. The transport crate's `FaultPlan` implements this (same
/// no-crate-cycle shape as [`SpillGate`]), so one seeded plan can
/// schedule network and disk faults together, per (seed, occurrence).
pub trait DiskFaultInjector: Send + Sync {
    /// Decide the fate of the next write at `site`.
    fn disk_write(&self, site: DiskWriteSite) -> DiskWriteFault;
}

/// Configuration for a [`crate::HybridStore`].
///
/// The defaults mirror the Uniffle `MEMORY_LOCALFILE` storage type this
/// store reproduces: spill trips at `0.5` of the memory budget and
/// flushes buffers in batched sequential writes until usage is back
/// under `0.2`.
#[derive(Clone)]
pub struct HybridConfig {
    /// Total bytes the MEMORY tier may hold. In-memory usage never
    /// exceeds this: appends that would overflow it spill first (inline
    /// mode) or block until the flusher makes room (background mode).
    pub memory_budget: usize,
    /// Fraction of `memory_budget` that trips a spill (0 < low < high ≤ 1).
    pub high_watermark: f64,
    /// Fraction of `memory_budget` a spill trip flushes down to.
    pub low_watermark: f64,
    /// Per-partition cap on buffered bytes: a partition exceeding it is
    /// force-spilled even below the high watermark, so one skewed
    /// reducer cannot monopolize the memory tier.
    pub huge_partition_limit: usize,
    /// `true` runs spill trips on a dedicated flusher thread woken by
    /// the tripping writer (the production shape); `false` runs them
    /// inline on the tripping writer (deterministic, used by the
    /// property tests and loom models).
    pub background_flush: bool,
    /// Synthetic per-buffer delay charged inside each spill write, so
    /// tests can hold the store mid-spill long enough to race it.
    pub synthetic_spill_delay: Duration,
    /// Directory for the LOCALFILE tier's spill file; `None` creates a
    /// per-store temp dir removed on drop.
    pub data_dir: Option<PathBuf>,
    /// Directory for the simulated REMOTE tier's objects; `None`
    /// creates a per-store temp dir removed on drop. Point two stores
    /// at one surviving dir to model decommission + re-attach.
    pub remote_dir: Option<PathBuf>,
    /// Trace every tier transition (`tier.spill` spans, `spill.write` /
    /// `tier.remote` / `mem.hit` instants).
    pub trace: Trace,
    /// Optional disk-IO arbitration: when set, every LOCALFILE append
    /// (spill flush or oversize direct write) holds an append permit
    /// from this gate for the duration of the write.
    pub spill_gate: Option<Arc<dyn SpillGate>>,
    /// `true` makes every LOCALFILE commit crash-consistent: extent
    /// data is fsynced before its record is appended to the durable
    /// manifest (`manifest.log`), and [`crate::HybridStore::recover`]
    /// can rebuild the store from the surviving directory. `false`
    /// keeps the pre-durability behavior (no syncs, no manifest).
    pub durable_spill: bool,
    /// Manifest records per fsync (≥ 1). `1` forces every record down
    /// before the commit publishes; larger values batch the fsyncs — a
    /// crash may then lose the last unsynced records, which recovery
    /// treats as cleanly-absent extents.
    pub manifest_sync_interval: u64,
    /// Optional deterministic disk-write fault injection (short writes,
    /// EIO) on the spill/manifest paths.
    pub disk_faults: Option<Arc<dyn DiskFaultInjector>>,
    /// Optional kill-at-syscall crash-point injection; see
    /// [`crate::CrashPlan`].
    pub crash_plan: Option<Arc<crate::crash::CrashPlan>>,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            memory_budget: 64 << 20,
            high_watermark: 0.5,
            low_watermark: 0.2,
            huge_partition_limit: 16 << 20,
            background_flush: false,
            synthetic_spill_delay: Duration::ZERO,
            data_dir: None,
            remote_dir: None,
            trace: Trace::disabled(),
            spill_gate: None,
            durable_spill: false,
            manifest_sync_interval: 1,
            disk_faults: None,
            crash_plan: None,
        }
    }
}

impl HybridConfig {
    /// Check knob coherence; returns the offending rule on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.memory_budget == 0 {
            return Err("memory_budget must be > 0".into());
        }
        if !(self.low_watermark > 0.0 && self.low_watermark < self.high_watermark) {
            return Err("watermarks must satisfy 0 < low < high".into());
        }
        if self.high_watermark > 1.0 {
            return Err("high_watermark must be <= 1".into());
        }
        if self.huge_partition_limit == 0 {
            return Err("huge_partition_limit must be > 0".into());
        }
        if self.manifest_sync_interval == 0 {
            return Err("manifest_sync_interval must be >= 1".into());
        }
        Ok(())
    }

    /// The byte threshold that trips a spill.
    pub(crate) fn high_bytes(&self) -> usize {
        watermark_bytes(self.memory_budget, self.high_watermark)
    }

    /// The byte level a spill trip flushes down to.
    pub(crate) fn low_bytes(&self) -> usize {
        watermark_bytes(self.memory_budget, self.low_watermark)
    }
}

fn watermark_bytes(budget: usize, frac: f64) -> usize {
    // Saturating f64 -> usize conversion: frac is validated to (0, 1].
    let raw = (budget as f64) * frac;
    if raw >= budget as f64 {
        budget
    } else if raw <= 0.0 {
        0
    } else {
        raw as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        let cfg = HybridConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.high_bytes(), 32 << 20);
        assert!((cfg.low_bytes() as i64 - (64 << 20) / 5).abs() <= 1);
    }

    #[test]
    fn watermark_order_is_enforced() {
        let cfg = HybridConfig {
            high_watermark: 0.2,
            low_watermark: 0.5,
            ..HybridConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = HybridConfig {
            high_watermark: 1.5,
            ..HybridConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = HybridConfig {
            memory_budget: 0,
            ..HybridConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = HybridConfig {
            huge_partition_limit: 0,
            ..HybridConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = HybridConfig {
            manifest_sync_interval: 0,
            ..HybridConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
