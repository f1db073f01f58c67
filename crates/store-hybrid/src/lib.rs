//! Three-tier hybrid shuffle store: MEMORY / LOCALFILE / REMOTE.
//!
//! The paper's MOFSupplier serves pre-materialized map output from
//! disk; this crate adds the write path, modeled on Uniffle's
//! `MEMORY_LOCALFILE` storage type: incoming partition writes land in a
//! bounded in-memory buffer, a high-watermark trip (default 0.5 of the
//! budget) flushes sealed buffers in batched sequential writes down to
//! the low watermark (0.2), hot segments are answered straight from
//! memory, and a per-partition huge-partition limit keeps one skewed
//! reducer from monopolizing the budget. A simulated REMOTE tier backs
//! quick decommission: [`HybridStore::drain_to_remote`] moves every
//! byte to per-partition objects that a replacement store re-attaches
//! with [`HybridStore::attach_remote`].
//!
//! Every tier transition is traced (`tier.spill` spans, `spill.write` /
//! `spill.direct` / `tier.remote` / `mem.hit` instants) so tests can
//! assert spills are batched-sequential. The crate is in the xtask
//! panic-freedom and lock-order lint scopes, and its `loom_` tests
//! model the writer/flusher spill handoff on the vendored model
//! checker (`RUSTFLAGS="--cfg loom" cargo test -p jbs-store-hybrid
//! --lib loom_`).

mod config;
mod crash;
mod manifest;
mod remote;
mod store;
pub(crate) mod sync;

pub use config::{DiskFaultInjector, DiskWriteFault, DiskWriteSite, HybridConfig, SpillGate};
pub use crash::{CrashPlan, CrashSite};
pub use store::{HybridStore, LentRange, RecoveryReport, TierLayout, TierStatsSnapshot};
