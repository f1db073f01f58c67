//! The three-tier hybrid store: MEMORY / LOCALFILE / REMOTE.
//!
//! Incoming partition writes land in a bounded in-memory buffer (the
//! MEMORY tier). When usage trips the high watermark — or one partition
//! outgrows the huge-partition limit — buffers are sealed one at a time
//! and flushed in batched sequential writes to a single append-only
//! spill file (the LOCALFILE tier) until usage is back under the low
//! watermark. [`HybridStore::drain_to_remote`] moves everything to the
//! REMOTE tier's per-partition objects for quick decommission, and
//! [`HybridStore::attach_remote`] rebuilds a store over a surviving
//! remote directory.
//!
//! ## Tier state machine (per partition)
//!
//! A partition's bytes are always, in logical offset order:
//!
//! ```text
//! [ durable extents (LOCALFILE / REMOTE) | sealed spill buffer | active buffer ]
//!   0 .. durable_len                       spilling               buffer
//! ```
//!
//! Durable extents are immutable once committed; the sealed buffer
//! stays readable (and counted against the memory budget) until its
//! file write completes and the extent commits under the lock — so a
//! reader can never observe a torn segment mid-spill. Every mutation
//! commits bytes and counters in one critical section, which is what
//! the stats-coherence property (`memory + spilled + remote ==
//! total_written`) tests.
//!
//! ## Locking
//!
//! One mutex (`inner`) guards all partition state and counters; it is
//! never held across file I/O (spill writes and reads plan under the
//! lock, perform I/O unlocked, and re-lock to commit; a read wholly in
//! the MEMORY tier, [`HybridStore::read_memory_range`], does no I/O and
//! finishes under the lock, so an event loop may call it). A single-flusher
//! token (`spill_active`) serializes all writers of the spill file; the
//! condvar hands off between tripping writers, the flusher, and
//! backpressured appenders — the handoff the `loom_` models explore.

use crate::config::{DiskFaultInjector, DiskWriteFault, DiskWriteSite, HybridConfig, SpillGate};
use crate::crash::{self, crash_error, CrashSite};
use crate::manifest::{self, ManifestWriter};
use crate::remote::RemoteStore;
use crate::sync::{lock, wait, Condvar, Mutex, MutexGuard};
use jbs_checksum::{crc32c, Crc32c};
use jbs_obs::Entity;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static STORE_COUNTER: AtomicU64 = AtomicU64::new(0);

type Key = (u64, u32);

/// RAII append permit around one spill write: acquired (blocking) from
/// the configured [`SpillGate`] if any, released on drop — including
/// every early-error return out of `write_local`.
struct GatePermit<'a>(Option<&'a dyn SpillGate>);

impl<'a> GatePermit<'a> {
    fn take(gate: Option<&'a dyn SpillGate>) -> Self {
        if let Some(g) = gate {
            g.acquire_append();
        }
        GatePermit(gate)
    }
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        if let Some(g) = self.0 {
            g.release_append();
        }
    }
}

/// Where a committed extent's bytes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// In the spill file, at `file_off`.
    Local { file_off: u64 },
    /// In the partition's remote object (object offset == partition
    /// offset, since remote extents always cover the whole prefix).
    Remote,
}

/// One committed, immutable run of partition bytes.
#[derive(Debug, Clone, Copy)]
struct Extent {
    /// Logical offset within the partition.
    offset: u64,
    len: u64,
    place: Place,
}

#[derive(Default)]
struct Partition {
    /// Committed extents, contiguous from offset 0.
    extents: Vec<Extent>,
    /// Total length of `extents`.
    durable_len: u64,
    /// A sealed buffer mid-flush: still readable, still counted
    /// against the memory budget until its extent commits.
    spilling: Option<Arc<Vec<u8>>>,
    /// The active in-memory tail.
    buffer: Vec<u8>,
}

impl Partition {
    fn mem_len(&self) -> usize {
        self.buffer.len() + self.spilling.as_ref().map_or(0, |s| s.len())
    }

    fn total_len(&self) -> u64 {
        self.durable_len + self.mem_len() as u64
    }

    /// End of the range `[offset, offset+len)` clipped to the partition
    /// (`len == 0` reads to the end); `None` when `offset` is at or past
    /// the end.
    fn range_end(&self, offset: u64, len: u64) -> Option<u64> {
        let plen = self.total_len();
        if offset >= plen {
            return None;
        }
        Some(if len == 0 {
            plen
        } else {
            offset + len.min(plen - offset)
        })
    }

    /// The LOCALFILE and REMOTE pieces of `[offset, end)`, in logical
    /// order. Planning only: nothing is read.
    fn durable_pieces(&self, offset: u64, end: u64) -> Vec<Piece> {
        let mut pieces = Vec::new();
        for ext in &self.extents {
            let s = offset.max(ext.offset);
            let e = end.min(ext.offset + ext.len);
            if s >= e {
                continue;
            }
            pieces.push(match ext.place {
                Place::Local { file_off } => Piece::Local {
                    file_off: file_off + (s - ext.offset),
                    len: e - s,
                },
                Place::Remote => Piece::Remote {
                    offset: s,
                    len: e - s,
                },
            });
        }
        pieces
    }

    /// Append the MEMORY-tier bytes of `[offset, end)` to `out`. They
    /// are always the range's suffix, since a partition is `durable
    /// extents | sealed buffer | active buffer`. Returns whether any
    /// byte came from memory.
    fn copy_memory(&self, offset: u64, end: u64, out: &mut Vec<u8>) -> bool {
        let mut hit = false;
        let mut base = self.durable_len;
        for mem in [
            self.spilling.as_ref().map(|s| s.as_slice()),
            Some(self.buffer.as_slice()),
        ]
        .into_iter()
        .flatten()
        {
            let s = offset.max(base);
            let e = end.min(base + mem.len() as u64);
            // `[s, e)` is clipped to this buffer, so `get` cannot miss.
            if s < e {
                if let Some(bytes) = mem.get((s - base) as usize..(e - base) as usize) {
                    out.extend_from_slice(bytes);
                    hit = true;
                }
            }
            base += mem.len() as u64;
        }
        hit
    }
}

#[derive(Default)]
struct Counters {
    total_written: u64,
    spilled_bytes: u64,
    remote_bytes: u64,
    memory_hits: u64,
    local_hits: u64,
    remote_hits: u64,
    spill_trips: u64,
    buffers_flushed: u64,
    huge_forced: u64,
    direct_writes: u64,
    drains: u64,
    replica_drops: u64,
    replica_dropped_bytes: u64,
}

impl Counters {
    /// Count one range read by the tiers it touched.
    fn record_read(&mut self, memory: bool, durable: &[Piece]) {
        if memory {
            self.memory_hits += 1;
        }
        if durable.iter().any(|p| matches!(p, Piece::Local { .. })) {
            self.local_hits += 1;
        }
        if durable.iter().any(|p| matches!(p, Piece::Remote { .. })) {
            self.remote_hits += 1;
        }
    }
}

struct Inner {
    parts: BTreeMap<Key, Partition>,
    /// Partitions the control plane confirmed are fully replicated on
    /// another live supplier. A decommission drain *drops* these
    /// instead of pushing their bytes to the REMOTE tier — the replica
    /// already serves them.
    replicated: BTreeSet<Key>,
    /// Bytes currently resident in the MEMORY tier (buffers + sealed
    /// spill buffers). Never exceeds the budget.
    memory_used: usize,
    /// Append offset of the spill file.
    local_len: u64,
    /// Single-flusher token: at most one thread writes the spill file.
    spill_active: bool,
    /// Largest append currently blocked on backpressure; a spill trip
    /// drains far enough to admit it, then resets it to zero.
    pressure: usize,
    shutdown: bool,
    /// A spill-path I/O failure; appends report it instead of blocking.
    failed: Option<io::ErrorKind>,
    stats: Counters,
}

/// A point-in-time view of tier residency and hit counters.
///
/// Residency is conserved after every operation: `memory_bytes +
/// spilled_bytes + remote_bytes + replica_dropped_bytes ==
/// total_written` (the last term is zero unless a replica-aware drain
/// dropped partitions that live on another supplier).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStatsSnapshot {
    /// Total bytes ever appended.
    pub total_written: u64,
    /// Bytes resident in the MEMORY tier.
    pub memory_bytes: u64,
    /// Bytes resident in the LOCALFILE tier.
    pub spilled_bytes: u64,
    /// Bytes resident in the REMOTE tier.
    pub remote_bytes: u64,
    /// Reads that served at least one byte from memory.
    pub memory_hits: u64,
    /// Reads that touched the spill file.
    pub local_hits: u64,
    /// Reads that touched a remote object.
    pub remote_hits: u64,
    /// Watermark/huge/pressure spill trips (one `tier.spill` span each).
    pub spill_trips: u64,
    /// Sealed buffers flushed across all trips.
    pub buffers_flushed: u64,
    /// Buffers flushed because their partition broke the huge limit.
    pub huge_forced: u64,
    /// Oversize appends written straight to the LOCALFILE tier.
    pub direct_writes: u64,
    /// Completed [`HybridStore::drain_to_remote`] calls.
    pub drains: u64,
    /// Partitions a drain dropped instead of moving because a live
    /// replica holds them (see [`HybridStore::mark_replicated`]).
    pub replica_drops: u64,
    /// Bytes released by those drops; balances the residency identity.
    pub replica_dropped_bytes: u64,
}

/// Per-partition tier residency, for tests and tier-placement claims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierLayout {
    /// Bytes in the MEMORY tier (active + sealed buffers).
    pub memory: u64,
    /// Bytes in LOCALFILE extents.
    pub local: u64,
    /// Bytes in REMOTE extents.
    pub remote: u64,
}

/// What a [`HybridStore::recover`] scan found and rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Durable bytes rebuilt into servable extents.
    pub recovered_bytes: u64,
    /// Partitions with at least one recovered byte.
    pub recovered_partitions: u64,
    /// Recovered LOCALFILE extents.
    pub local_extents: u64,
    /// Recovered partitions whose prefix lives in a REMOTE object.
    pub remote_partitions: u64,
    /// Whether the manifest had a torn tail (truncated away).
    pub torn_tail: bool,
    /// Extent records dropped because their data failed CRC
    /// verification or broke prefix contiguity.
    pub dropped_extents: u64,
    /// Non-extent records ignored as unsupported by the on-disk state
    /// (e.g. a RemoteMoved whose object never got published).
    pub dropped_records: u64,
}

/// Per-partition state accumulated while replaying the manifest.
#[derive(Default)]
struct Rebuilt {
    extents: Vec<Extent>,
    durable_len: u64,
    /// Set when an extent record was dropped: later extents for this
    /// partition can no longer extend a contiguous prefix.
    sealed: bool,
}

/// A durable read piece planned under the lock, resolved after
/// unlocking. Memory-tier bytes are copied out under the lock instead.
enum Piece {
    Local { file_off: u64, len: u64 },
    Remote { offset: u64, len: u64 },
}

/// Outcome of one drain commit attempt (see
/// [`HybridStore::drain_to_remote`]).
enum DrainStep {
    /// Partition fully moved (or vanished); advance to the next key.
    Done,
    /// An append raced the object write; re-plan this partition.
    Retry,
    /// The object write failed; abort the drain.
    Failed(io::Error),
}

/// Stream `len` bytes at `file_off` of the spill file through CRC32C;
/// `true` iff they exist and hash to `want`. Any read failure counts as
/// a mismatch — the extent is dropped, never served torn.
fn verify_extent(f: &mut fs::File, file_off: u64, len: u64, want: u32) -> bool {
    if f.seek(SeekFrom::Start(file_off)).is_err() {
        return false;
    }
    let mut hasher = Crc32c::new();
    let mut buf = vec![0u8; (1usize << 20).min(len as usize).max(1)];
    let mut left = len;
    while left > 0 {
        let take = (buf.len() as u64).min(left) as usize;
        let Some(chunk) = buf.get_mut(..take) else {
            return false;
        };
        if f.read_exact(chunk).is_err() {
            return false;
        }
        hasher.update(chunk);
        left -= take as u64;
    }
    hasher.finish() == want
}

/// Decide the fate of one durable disk write under the configured
/// injector (no injector: always [`DiskWriteFault::Allow`]).
fn fault(inj: &Option<Arc<dyn DiskFaultInjector>>, site: DiskWriteSite) -> DiskWriteFault {
    inj.as_ref()
        .map_or(DiskWriteFault::Allow, |i| i.disk_write(site))
}

/// Build a [`TierStatsSnapshot`] from the locked state.
fn snapshot_of(g: &Inner) -> TierStatsSnapshot {
    TierStatsSnapshot {
        total_written: g.stats.total_written,
        memory_bytes: g.memory_used as u64,
        spilled_bytes: g.stats.spilled_bytes,
        remote_bytes: g.stats.remote_bytes,
        memory_hits: g.stats.memory_hits,
        local_hits: g.stats.local_hits,
        remote_hits: g.stats.remote_hits,
        spill_trips: g.stats.spill_trips,
        buffers_flushed: g.stats.buffers_flushed,
        huge_forced: g.stats.huge_forced,
        direct_writes: g.stats.direct_writes,
        drains: g.stats.drains,
        replica_drops: g.stats.replica_drops,
        replica_dropped_bytes: g.stats.replica_dropped_bytes,
    }
}

/// The three-tier hybrid store. See the module docs for the tier state
/// machine; construct with [`HybridStore::new`] or
/// [`HybridStore::attach_remote`].
pub struct HybridStore {
    cfg: HybridConfig,
    inner: Mutex<Inner>,
    cv: Condvar,
    data_dir: PathBuf,
    owns_data_dir: bool,
    /// Read handle on `spill.data`, opened once: LOCALFILE pieces are
    /// positioned reads on it, so readers share no cursor.
    spill_reader: fs::File,
    remote: RemoteStore,
    remote_dir: PathBuf,
    owns_remote_dir: bool,
    /// The durable manifest writer (`None` when `durable_spill` is
    /// off). A leaf lock, never taken with `inner` held; all appends
    /// additionally run under the `spill_active` token, so records land
    /// in commit order.
    manifest: Mutex<Option<ManifestWriter>>,
}

impl std::fmt::Debug for HybridStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridStore")
            .field("data_dir", &self.data_dir)
            .field("remote_dir", &self.remote_dir)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl HybridStore {
    /// Create an empty store. With `background_flush` a dedicated
    /// flusher thread is spawned (not under `--cfg loom`, where the
    /// models drive [`HybridStore::flusher_loop`] themselves); call
    /// [`HybridStore::close`] to let it exit and release its handle.
    pub fn new(cfg: HybridConfig) -> io::Result<Arc<HybridStore>> {
        cfg.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let n = STORE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let (data_dir, owns_data_dir) = match &cfg.data_dir {
            Some(d) => (d.clone(), false),
            None => (
                std::env::temp_dir().join(format!("jbs-hybrid-{}-{n}", std::process::id())),
                true,
            ),
        };
        let (remote_dir, owns_remote_dir) = match &cfg.remote_dir {
            Some(d) => (d.clone(), false),
            None => (
                std::env::temp_dir().join(format!("jbs-hybrid-remote-{}-{n}", std::process::id())),
                true,
            ),
        };
        fs::create_dir_all(&data_dir)?;
        fs::File::create(data_dir.join("spill.data"))?;
        let spill_reader = fs::File::open(data_dir.join("spill.data"))?;
        let manifest_path = data_dir.join(manifest::MANIFEST_FILE);
        let manifest = if cfg.durable_spill {
            Some(ManifestWriter::create(
                &manifest_path,
                cfg.manifest_sync_interval,
            )?)
        } else {
            // A fresh non-durable store over a reused dir must not
            // leave a stale manifest for a later recover() to trust.
            match fs::remove_file(&manifest_path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            None
        };
        let remote = RemoteStore::at(&remote_dir)?;
        let store = Arc::new(HybridStore {
            cfg,
            inner: Mutex::new(Inner {
                parts: BTreeMap::new(),
                replicated: BTreeSet::new(),
                memory_used: 0,
                local_len: 0,
                spill_active: false,
                pressure: 0,
                shutdown: false,
                failed: None,
                stats: Counters::default(),
            }),
            cv: Condvar::new(),
            data_dir,
            owns_data_dir,
            spill_reader,
            remote,
            remote_dir,
            owns_remote_dir,
            manifest: Mutex::new(manifest),
        });
        #[cfg(not(loom))]
        if store.cfg.background_flush {
            let s = Arc::clone(&store);
            std::thread::Builder::new()
                .name("hybrid-flusher".into())
                .spawn(move || s.flusher_loop())
                .map_err(io::Error::other)?;
        }
        Ok(store)
    }

    /// Rebuild a store over a surviving REMOTE directory: every listed
    /// object becomes a fully-remote partition (the decommissioned
    /// supplier's replacement path).
    pub fn attach_remote(remote_dir: &Path, mut cfg: HybridConfig) -> io::Result<Arc<HybridStore>> {
        cfg.remote_dir = Some(remote_dir.to_path_buf());
        let store = HybridStore::new(cfg)?;
        {
            let mut g = lock(&store.inner);
            for ((mof, reducer), len) in store.remote.list() {
                let part = g.parts.entry((mof, reducer)).or_default();
                part.extents.push(Extent {
                    offset: 0,
                    len,
                    place: Place::Remote,
                });
                part.durable_len = len;
                g.stats.total_written += len;
                g.stats.remote_bytes += len;
            }
        }
        Ok(store)
    }

    /// Rebuild a store from a crashed supplier's surviving LOCALFILE
    /// directory (`cfg.data_dir` is required; `cfg.remote_dir` too if
    /// the dead store ever drained). The durable manifest is replayed
    /// under the torn-tail rule — the scan stops at the first
    /// CRC-invalid frame and truncates the log there — and every extent
    /// record is re-verified against the spill file's actual bytes, so
    /// the recovered store serves byte-exact committed prefixes or
    /// cleanly reports a partition absent, never torn data. Memory-tier
    /// bytes are gone by definition; replica failover covers them.
    pub fn recover(cfg: HybridConfig) -> io::Result<(Arc<HybridStore>, RecoveryReport)> {
        cfg.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let Some(data_dir) = cfg.data_dir.clone() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "recover requires cfg.data_dir",
            ));
        };
        let trace = cfg.trace.clone();
        let span = trace.span("store.recover", Entity::NONE, 0, 0);
        let n = STORE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let (remote_dir, owns_remote_dir) = match &cfg.remote_dir {
            Some(d) => (d.clone(), false),
            None => (
                std::env::temp_dir().join(format!("jbs-hybrid-remote-{}-{n}", std::process::id())),
                true,
            ),
        };
        fs::create_dir_all(&data_dir)?;
        let remote = RemoteStore::at(&remote_dir)?;
        remote.clean_tmp()?;
        let manifest_path = data_dir.join(manifest::MANIFEST_FILE);
        let scan = manifest::scan(&manifest_path)?;
        if scan.torn {
            // Truncate the torn tail so the continued log stays parseable.
            let f = fs::OpenOptions::new().write(true).open(&manifest_path)?;
            f.set_len(scan.valid_len)?;
            f.sync_all()?;
            trace.instant("recover.torn", Entity::NONE, scan.valid_len, 0);
        }
        let spill_path = data_dir.join("spill.data");
        let mut spill = match fs::File::open(&spill_path) {
            Ok(f) => Some(f),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::File::create(&spill_path)?;
                None
            }
            Err(e) => return Err(e),
        };
        let mut report = RecoveryReport {
            torn_tail: scan.torn,
            ..RecoveryReport::default()
        };
        let mut rebuilt: BTreeMap<Key, Rebuilt> = BTreeMap::new();
        for rec in &scan.records {
            match *rec {
                manifest::Record::Extent {
                    mof,
                    reducer,
                    offset,
                    len,
                    file_off,
                    data_crc,
                } => {
                    let part = rebuilt.entry((mof, reducer)).or_default();
                    if part.sealed || offset != part.durable_len {
                        part.sealed = true;
                        report.dropped_extents += 1;
                        continue;
                    }
                    let ok = spill
                        .as_mut()
                        .is_some_and(|f| verify_extent(f, file_off, len, data_crc));
                    if !ok {
                        part.sealed = true;
                        report.dropped_extents += 1;
                        trace.instant("recover.drop", Entity::mof(mof), file_off, len);
                        continue;
                    }
                    part.extents.push(Extent {
                        offset,
                        len,
                        place: Place::Local { file_off },
                    });
                    part.durable_len += len;
                }
                manifest::Record::RemoteMoved {
                    mof,
                    reducer,
                    total,
                } => {
                    // Trust the record only if the published object
                    // actually covers the claimed prefix.
                    if remote.object_len(mof, reducer).is_some_and(|l| l >= total) {
                        let part = rebuilt.entry((mof, reducer)).or_default();
                        part.extents = vec![Extent {
                            offset: 0,
                            len: total,
                            place: Place::Remote,
                        }];
                        part.durable_len = total;
                        part.sealed = false;
                    } else {
                        report.dropped_records += 1;
                    }
                }
                manifest::Record::ReplicaDropped { mof, reducer } => {
                    rebuilt.remove(&(mof, reducer));
                }
            }
        }
        drop(spill);
        let mut parts: BTreeMap<Key, Partition> = BTreeMap::new();
        let mut local_len = 0u64;
        let mut spilled = 0u64;
        let mut remote_bytes = 0u64;
        for (key, r) in rebuilt {
            if r.durable_len == 0 {
                continue;
            }
            for ext in &r.extents {
                match ext.place {
                    Place::Local { file_off } => {
                        spilled += ext.len;
                        local_len = local_len.max(file_off + ext.len);
                        report.local_extents += 1;
                    }
                    Place::Remote => {
                        remote_bytes += ext.len;
                        report.remote_partitions += 1;
                    }
                }
            }
            report.recovered_bytes += r.durable_len;
            report.recovered_partitions += 1;
            parts.insert(
                key,
                Partition {
                    extents: r.extents,
                    durable_len: r.durable_len,
                    spilling: None,
                    buffer: Vec::new(),
                },
            );
        }
        // Reclaim whatever torn garbage sits past the last committed
        // extent; new spills append from here.
        {
            let f = fs::OpenOptions::new().write(true).open(&spill_path)?;
            f.set_len(local_len)?;
            f.sync_all()?;
        }
        let spill_reader = fs::File::open(&spill_path)?;
        let manifest = if cfg.durable_spill {
            Some(ManifestWriter::open_append(
                &manifest_path,
                cfg.manifest_sync_interval,
            )?)
        } else {
            None
        };
        let total_written = report.recovered_bytes;
        let store = Arc::new(HybridStore {
            cfg,
            inner: Mutex::new(Inner {
                parts,
                replicated: BTreeSet::new(),
                memory_used: 0,
                local_len,
                spill_active: false,
                pressure: 0,
                shutdown: false,
                failed: None,
                stats: Counters {
                    total_written,
                    spilled_bytes: spilled,
                    remote_bytes,
                    ..Counters::default()
                },
            }),
            cv: Condvar::new(),
            data_dir,
            owns_data_dir: false,
            spill_reader,
            remote,
            remote_dir,
            owns_remote_dir,
            manifest: Mutex::new(manifest),
        });
        #[cfg(not(loom))]
        if store.cfg.background_flush {
            let s = Arc::clone(&store);
            std::thread::Builder::new()
                .name("hybrid-flusher".into())
                .spawn(move || s.flusher_loop())
                .map_err(io::Error::other)?;
        }
        trace.instant(
            "recover.done",
            Entity::NONE,
            report.recovered_bytes,
            report.recovered_partitions,
        );
        drop(span);
        Ok((store, report))
    }

    /// The LOCALFILE tier's directory.
    pub fn local_dir(&self) -> &Path {
        &self.data_dir
    }

    /// The REMOTE tier's object directory (survives this store).
    pub fn remote_dir(&self) -> &Path {
        &self.remote_dir
    }

    fn spill_path(&self) -> PathBuf {
        self.data_dir.join("spill.data")
    }

    /// Append `data` to partition `(mof, reducer)`. Lands in the MEMORY
    /// tier; trips the watermark/huge-partition spill machinery, and in
    /// background mode blocks while the budget is exhausted until the
    /// flusher makes room. Appends are atomic: concurrent readers see
    /// all of `data` or none of it.
    pub fn append(&self, mof: u64, reducer: u32, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        if data.len() >= self.cfg.memory_budget {
            return self.append_oversize(mof, reducer, data);
        }
        let mut g = lock(&self.inner);
        // Backpressure: the MEMORY tier never exceeds its budget.
        while g.memory_used + data.len() > self.cfg.memory_budget {
            if let Some(kind) = g.failed {
                return Err(kind.into());
            }
            if g.shutdown {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            g.pressure = g.pressure.max(data.len());
            if !self.cfg.background_flush && !g.spill_active {
                let (g2, res) = self.spill_trip(g);
                g = g2;
                res?;
            } else {
                // Wake the flusher (or wait out another writer's trip).
                self.cv.notify_all();
                g = wait(&self.cv, g);
            }
        }
        let part = g.parts.entry((mof, reducer)).or_default();
        part.buffer.extend_from_slice(data);
        let part_mem = part.mem_len();
        g.memory_used += data.len();
        g.stats.total_written += data.len() as u64;
        if g.memory_used >= self.cfg.high_bytes() || part_mem > self.cfg.huge_partition_limit {
            if self.cfg.background_flush {
                self.cv.notify_all();
            } else if !g.spill_active {
                let (tripped, res) = self.spill_trip(g);
                drop(tripped);
                res?;
            }
            // A trip already in flight re-reads usage every iteration
            // and will absorb this append's contribution.
        }
        Ok(())
    }

    /// An append at least as large as the whole memory budget can never
    /// fit in the MEMORY tier: flush the partition's buffered tail (to
    /// keep extents contiguous), then write the data straight to the
    /// LOCALFILE tier.
    fn append_oversize(&self, mof: u64, reducer: u32, data: &[u8]) -> io::Result<()> {
        let key = (mof, reducer);
        let (file_off, logical_off) = self.reserve_oversize(key, data.len() as u64)?;
        let wres = self.write_local(key, file_off, logical_off, data);
        self.commit_oversize(key, file_off, data.len() as u64, wres)
    }

    /// Oversize phase 1 (one critical section): take the flusher token,
    /// flush this partition's buffered tail so its extents stay
    /// contiguous, and reserve `len` bytes of the spill file. Returns
    /// `(file_off, logical_off)`; on error the token is released before
    /// returning.
    fn reserve_oversize(&self, key: Key, len: u64) -> io::Result<(u64, u64)> {
        let mut g = lock(&self.inner);
        while g.spill_active {
            if g.shutdown {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            g = wait(&self.cv, g);
        }
        g.spill_active = true;
        if g
            .parts
            .get(&key)
            .is_some_and(|p| !p.buffer.is_empty())
        {
            let (g2, res) = self.flush_one(g, key, false);
            g = g2;
            if let Err(e) = res {
                g.spill_active = false;
                self.cv.notify_all();
                return Err(e);
            }
        }
        let logical_off = g.parts.get(&key).map_or(0, |p| p.durable_len);
        let file_off = g.local_len;
        g.local_len += len;
        Ok((file_off, logical_off))
    }

    /// Oversize phase 2 (one critical section, entered after the
    /// unlocked file write): commit the direct extent — or park the
    /// write error — and release the flusher token either way.
    fn commit_oversize(
        &self,
        key: Key,
        file_off: u64,
        len: u64,
        wres: io::Result<()>,
    ) -> io::Result<()> {
        let mut g = lock(&self.inner);
        let result = match wres {
            Ok(()) => {
                let part = g.parts.entry(key).or_default();
                part.extents.push(Extent {
                    offset: part.durable_len,
                    len,
                    place: Place::Local { file_off },
                });
                part.durable_len += len;
                g.stats.total_written += len;
                g.stats.spilled_bytes += len;
                g.stats.direct_writes += 1;
                self.cfg
                    .trace
                    .instant("spill.direct", Entity::mof(key.0), file_off, len);
                Ok(())
            }
            Err(e) => {
                g.failed = Some(e.kind());
                Err(e)
            }
        };
        g.spill_active = false;
        self.cv.notify_all();
        drop(g);
        result
    }

    /// True when the flusher has work: the high watermark is tripped, a
    /// backpressured append cannot fit, or a partition broke the huge
    /// limit.
    fn flush_needed(&self, g: &Inner) -> bool {
        g.memory_used >= self.cfg.high_bytes()
            || (g.pressure > 0 && g.memory_used + g.pressure > self.cfg.memory_budget)
            || g.parts
                .values()
                .any(|p| p.mem_len() > self.cfg.huge_partition_limit)
    }

    /// The background flusher body: wait for a spill trigger, run one
    /// trip, repeat until [`HybridStore::close`]. Public so the loom
    /// models (and the `--cfg loom` build, which spawns no threads) can
    /// drive the production loop from a modeled thread.
    pub fn flusher_loop(&self) {
        let mut g = lock(&self.inner);
        loop {
            if !g.spill_active && g.failed.is_none() && self.flush_needed(&g) {
                let (g2, res) = self.spill_trip(g);
                g = g2;
                if res.is_err() {
                    // The error is parked in `failed`; stop flushing but
                    // keep the loop alive so close() still works.
                    continue;
                }
                continue;
            }
            if g.shutdown {
                break;
            }
            g = wait(&self.cv, g);
        }
    }

    /// Let the background flusher (if any) exit and fail any appends
    /// still blocked on backpressure. Forces down any interval-batched
    /// manifest records (best effort — close is not a durable barrier).
    pub fn close(&self) {
        let mut g = lock(&self.inner);
        g.shutdown = true;
        self.cv.notify_all();
        drop(g);
        let mut mg = lock(&self.manifest);
        if let Some(w) = mg.as_mut() {
            let _ = w.sync();
        }
    }

    /// Pick the next buffer to flush: huge-limit violators first (their
    /// whole buffer, regardless of watermarks), then the largest buffer
    /// while usage is above `target`. `BTreeMap` order makes ties
    /// deterministic.
    fn pick_victim(&self, g: &Inner, target: usize) -> Option<(Key, bool)> {
        let mut best: Option<(Key, usize)> = None;
        let mut best_huge: Option<(Key, usize)> = None;
        for (k, p) in &g.parts {
            if p.buffer.is_empty() {
                continue;
            }
            let mem = p.mem_len();
            if mem > self.cfg.huge_partition_limit
                && best_huge.as_ref().is_none_or(|(_, m)| mem > *m)
            {
                best_huge = Some((*k, mem));
            }
            if best.as_ref().is_none_or(|(_, m)| p.buffer.len() > *m) {
                best = Some((*k, p.buffer.len()));
            }
        }
        if let Some((k, _)) = best_huge {
            return Some((k, true));
        }
        if g.memory_used > target {
            return best.map(|(k, _)| (k, false));
        }
        None
    }

    /// One spill trip, entered with the `spill_active` token free and
    /// taken for its duration: one `tier.spill` span; sealed buffers
    /// flushed in batched sequential writes (each a `spill.write`
    /// instant at an ascending file offset) until usage reaches the low
    /// watermark — or, for huge-only trips, until no partition breaks
    /// the limit.
    fn spill_trip<'a>(
        &'a self,
        mut g: MutexGuard<'a, Inner>,
    ) -> (MutexGuard<'a, Inner>, io::Result<()>) {
        g.spill_active = true;
        g.stats.spill_trips += 1;
        let span = self.cfg.trace.span(
            "tier.spill",
            Entity::NONE,
            g.memory_used as u64,
            self.cfg.low_bytes() as u64,
        );
        let mut drain_to_low = false;
        let mut result = Ok(());
        loop {
            if g.memory_used >= self.cfg.high_bytes() || g.pressure > 0 {
                drain_to_low = true;
            }
            let mut target = if drain_to_low {
                self.cfg.low_bytes()
            } else {
                usize::MAX
            };
            if g.pressure > 0 {
                target = target.min(self.cfg.memory_budget.saturating_sub(g.pressure));
            }
            let Some((key, huge)) = self.pick_victim(&g, target) else {
                break;
            };
            let (g2, res) = self.flush_one(g, key, huge);
            g = g2;
            if let Err(e) = res {
                result = Err(e);
                break;
            }
        }
        g.spill_active = false;
        g.pressure = 0;
        self.cv.notify_all();
        drop(span);
        (g, result)
    }

    /// Seal and flush one partition's buffer to the LOCALFILE tier.
    /// Requires the `spill_active` token. The sealed buffer stays
    /// readable and budget-counted until the extent commits, so no
    /// reader can see a torn segment.
    fn flush_one<'a>(
        &'a self,
        mut g: MutexGuard<'a, Inner>,
        key: Key,
        huge: bool,
    ) -> (MutexGuard<'a, Inner>, io::Result<()>) {
        let Some(part) = g.parts.get_mut(&key) else {
            return (g, Ok(()));
        };
        if !part.buffer.is_empty() && part.spilling.is_none() {
            let sealed = Arc::new(std::mem::take(&mut part.buffer));
            let len = sealed.len();
            // Stable until commit: durable_len only moves under the
            // spill_active token this caller holds.
            let logical_off = part.durable_len;
            part.spilling = Some(Arc::clone(&sealed));
            if huge {
                g.stats.huge_forced += 1;
            }
            let file_off = g.local_len;
            g.local_len += len as u64;
            drop(g);
            let wres = self.write_local(key, file_off, logical_off, &sealed);
            g = lock(&self.inner);
            match wres {
                Ok(()) => {
                    if let Some(part) = g.parts.get_mut(&key) {
                        part.extents.push(Extent {
                            offset: part.durable_len,
                            len: len as u64,
                            place: Place::Local { file_off },
                        });
                        part.durable_len += len as u64;
                        part.spilling = None;
                    }
                    g.memory_used = g.memory_used.saturating_sub(len);
                    g.stats.spilled_bytes += len as u64;
                    g.stats.buffers_flushed += 1;
                    self.cv.notify_all();
                }
                Err(e) => {
                    // Un-seal: the bytes stay in the MEMORY tier, ahead
                    // of anything appended while the write ran.
                    if let Some(part) = g.parts.get_mut(&key) {
                        if let Some(sp) = part.spilling.take() {
                            let mut restored = sp.as_ref().clone();
                            restored.extend_from_slice(&part.buffer);
                            part.buffer = restored;
                        }
                    }
                    g.failed = Some(e.kind());
                    return (g, Err(e));
                }
            }
        }
        (g, Ok(()))
    }

    /// Write one extent to the spill file and — in durable mode — run
    /// the full write→sync→publish discipline: data bytes first, a
    /// `sync_data` barrier second, and only then the manifest record
    /// that makes the extent recoverable. Crash points and injected
    /// disk faults interpose at each step.
    fn write_local(&self, key: Key, file_off: u64, logical_off: u64, data: &[u8]) -> io::Result<()> {
        // Both callers run this with no store lock held (flush_one drops
        // the guard first; append_oversize writes between its two
        // critical sections), so blocking on an append permit here can
        // never deadlock against readers.
        let _permit = GatePermit::take(self.cfg.spill_gate.as_deref());
        let mut f = fs::OpenOptions::new().write(true).open(self.spill_path())?;
        f.seek(SeekFrom::Start(file_off))?;
        match fault(&self.cfg.disk_faults, DiskWriteSite::SpillWrite) {
            DiskWriteFault::Allow => {}
            DiskWriteFault::ShortWrite => {
                let keep = data.get(..data.len() / 2).unwrap_or(data);
                let _ = f.write_all(keep);
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected short spill write",
                ));
            }
            DiskWriteFault::Error => {
                return Err(io::Error::other("injected spill write error"));
            }
        }
        if crash::check(&self.cfg.crash_plan, CrashSite::SpillWrite) {
            // Simulated kill mid-write: a torn prefix lands in the file.
            let keep = data.get(..data.len() / 2).unwrap_or(data);
            let _ = f.write_all(keep);
            return Err(crash_error());
        }
        f.write_all(data)?;
        if self.cfg.durable_spill {
            if crash::check(&self.cfg.crash_plan, CrashSite::SpillSync) {
                return Err(crash_error());
            }
            f.sync_data()?;
        }
        if !self.cfg.synthetic_spill_delay.is_zero() {
            std::thread::sleep(self.cfg.synthetic_spill_delay);
        }
        self.cfg
            .trace
            .instant("spill.write", Entity::mof(key.0), file_off, data.len() as u64);
        if self.cfg.durable_spill {
            self.manifest_commit(manifest::Record::Extent {
                mof: key.0,
                reducer: key.1,
                offset: logical_off,
                len: data.len() as u64,
                file_off,
                data_crc: crc32c(data),
            })?;
        }
        Ok(())
    }

    /// Publish one durable transition to the manifest (a no-op when
    /// durability is off). Every caller holds the `spill_active` token,
    /// which puts records in commit order; the `manifest` mutex itself
    /// is a leaf lock taken with no other store lock held.
    fn manifest_commit(&self, rec: manifest::Record) -> io::Result<()> {
        let mut mg = lock(&self.manifest);
        let Some(w) = mg.as_mut() else {
            return Ok(());
        };
        let frame = manifest::frame_of(&rec);
        match fault(&self.cfg.disk_faults, DiskWriteSite::ManifestAppend) {
            DiskWriteFault::Allow => {}
            DiskWriteFault::ShortWrite => {
                let keep = frame.get(..frame.len() / 2).unwrap_or(&frame);
                let _ = w.write_bytes(keep);
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected short manifest append",
                ));
            }
            DiskWriteFault::Error => {
                return Err(io::Error::other("injected manifest append error"));
            }
        }
        if crash::check(&self.cfg.crash_plan, CrashSite::ManifestAppend) {
            // Simulated kill mid-append: a torn frame prefix for the
            // recovery scan's torn-tail rule to truncate.
            let keep = frame.get(..frame.len() / 2).unwrap_or(&frame);
            let _ = w.write_bytes(keep);
            return Err(crash_error());
        }
        w.write_bytes(&frame)?;
        w.record_written();
        if w.sync_due() {
            if crash::check(&self.cfg.crash_plan, CrashSite::ManifestSync) {
                return Err(crash_error());
            }
            w.sync()?;
        }
        Ok(())
    }

    /// Read `[offset, offset+len)` of partition `(mof, reducer)`
    /// (`len == 0` reads to the end). Mirrors the MOF store's contract:
    /// `None` for an unknown partition, empty for a range past the end.
    /// Serves memory-resident bytes straight from the MEMORY tier.
    pub fn read_segment_range(
        &self,
        mof: u64,
        reducer: u32,
        offset: u64,
        len: u64,
    ) -> io::Result<Option<Vec<u8>>> {
        let key = (mof, reducer);
        let mut g = lock(&self.inner);
        let Some(part) = g.parts.get(&key) else {
            return Ok(None);
        };
        let Some(end) = part.range_end(offset, len) else {
            return Ok(Some(Vec::new()));
        };
        let durable = part.durable_pieces(offset, end);
        // The memory suffix is copied now, behind a zeroed durable
        // prefix that is read into place once the lock is dropped.
        let mut out = Vec::with_capacity((end - offset) as usize);
        out.resize(end.min(part.durable_len).saturating_sub(offset) as usize, 0);
        let hit_mem = part.copy_memory(offset, end, &mut out);
        g.stats.record_read(hit_mem, &durable);
        drop(g);
        if hit_mem {
            self.cfg
                .trace
                .instant("mem.hit", Entity::mof(mof), offset, end - offset);
        }
        self.fill_durable(key, &durable, &mut out)?;
        Ok(Some(out))
    }

    /// [`Self::read_segment_range`] for a range held wholly in the
    /// MEMORY tier, with the partition's length, both taken under one
    /// lock and with no I/O: `None` for an unknown partition or as soon
    /// as any byte of the range lies in a LOCALFILE or REMOTE extent.
    /// A range past the end reads empty. Safe to call from an event
    /// loop.
    pub fn read_memory_range(
        &self,
        mof: u64,
        reducer: u32,
        offset: u64,
        len: u64,
    ) -> Option<(Vec<u8>, u64)> {
        let mut g = lock(&self.inner);
        let part = g.parts.get(&(mof, reducer))?;
        let plen = part.total_len();
        let Some(end) = part.range_end(offset, len) else {
            return Some((Vec::new(), plen));
        };
        if !part.durable_pieces(offset, end).is_empty() {
            return None;
        }
        let mut out = Vec::with_capacity((end - offset) as usize);
        let hit_mem = part.copy_memory(offset, end, &mut out);
        g.stats.record_read(hit_mem, &[]);
        drop(g);
        if hit_mem {
            self.cfg
                .trace
                .instant("mem.hit", Entity::mof(mof), offset, end - offset);
        }
        Some((out, plen))
    }

    /// Read planned durable pieces, in order, into the front of `out`
    /// (no lock held): LOCALFILE pieces with positioned reads on the
    /// spill read handle, REMOTE pieces from their objects.
    fn fill_durable(&self, key: Key, pieces: &[Piece], out: &mut [u8]) -> io::Result<()> {
        let mut at = 0usize;
        for piece in pieces {
            let (Piece::Local { len, .. } | Piece::Remote { len, .. }) = *piece;
            let dst = out.get_mut(at..at + len as usize).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "planned read overruns its buffer",
                )
            })?;
            match *piece {
                Piece::Local { file_off, .. } => self.spill_reader.read_exact_at(dst, file_off)?,
                Piece::Remote { offset, .. } => self.remote.read_into(key.0, key.1, offset, dst)?,
            }
            at += len as usize;
        }
        Ok(())
    }

    /// The partition's current total length, if it exists.
    pub fn partition_len(&self, mof: u64, reducer: u32) -> Option<u64> {
        let g = lock(&self.inner);
        g.parts.get(&(mof, reducer)).map(Partition::total_len)
    }

    /// All partitions, sorted.
    pub fn partitions(&self) -> Vec<(u64, u32)> {
        let g = lock(&self.inner);
        g.parts.keys().copied().collect()
    }

    /// Per-tier residency of one partition.
    pub fn layout(&self, mof: u64, reducer: u32) -> Option<TierLayout> {
        let g = lock(&self.inner);
        g.parts.get(&(mof, reducer)).map(|p| {
            let mut layout = TierLayout {
                memory: p.mem_len() as u64,
                ..TierLayout::default()
            };
            for ext in &p.extents {
                match ext.place {
                    Place::Local { .. } => layout.local += ext.len,
                    Place::Remote => layout.remote += ext.len,
                }
            }
            layout
        })
    }

    /// Snapshot the tier counters.
    pub fn stats(&self) -> TierStatsSnapshot {
        let g = lock(&self.inner);
        snapshot_of(&g)
    }

    /// Record that partition `(mof, reducer)` is fully held by a live
    /// replica on another supplier (the control plane's pipeline
    /// fan-out wrote it there and the replica still heartbeats). A
    /// subsequent [`Self::drain_to_remote`] *drops* such a partition
    /// instead of copying its bytes to the REMOTE tier — the bytes are
    /// already durable off this node, so a graceful decommission pays
    /// no object write for them. Returns `true` if newly marked.
    pub fn mark_replicated(&self, mof: u64, reducer: u32) -> bool {
        let mut g = lock(&self.inner);
        g.replicated.insert((mof, reducer))
    }

    /// Drop one replicated partition under the drain token, releasing
    /// its memory/local residency into `replica_dropped_bytes`. Returns
    /// `false` when the partition is not marked — or already has REMOTE
    /// extents, which the normal drain path must finish moving so the
    /// surviving object directory stays self-consistent.
    fn drop_replicated(&self, key: Key) -> io::Result<bool> {
        let mut g = lock(&self.inner);
        if !g.replicated.contains(&key) {
            return Ok(false);
        }
        let Some(part) = g.parts.get(&key) else {
            return Ok(true);
        };
        if part.extents.iter().any(|e| e.place == Place::Remote) {
            return Ok(false);
        }
        let mem = part.mem_len();
        let local: u64 = part.extents.iter().map(|e| e.len).sum();
        let total = part.total_len();
        g.parts.remove(&key);
        g.memory_used = g.memory_used.saturating_sub(mem);
        g.stats.spilled_bytes = g.stats.spilled_bytes.saturating_sub(local);
        g.stats.replica_drops += 1;
        g.stats.replica_dropped_bytes += total;
        self.cfg.trace.instant(
            "tier.drop.replica",
            Entity::mof(key.0),
            u64::from(key.1),
            total,
        );
        self.cv.notify_all();
        drop(g);
        // Publish the drop after the in-memory removal: a crash between
        // the two resurrects the partition at recovery, which is
        // harmless — the live replica serves it and the resurrected
        // bytes are byte-exact.
        self.manifest_commit(manifest::Record::ReplicaDropped {
            mof: key.0,
            reducer: key.1,
        })?;
        Ok(true)
    }

    /// Quick decommission: move every partition's bytes to the REMOTE
    /// tier. Takes the flusher token for its whole duration; concurrent
    /// appends landing mid-drain are detected and the partition is
    /// re-drained. Partitions marked replicated
    /// ([`Self::mark_replicated`]) are dropped instead of moved.
    /// Afterwards each drained partition is one REMOTE extent, the
    /// spill file holds no live bytes, and the remote directory can be
    /// re-attached by a replacement store.
    pub fn drain_to_remote(&self) -> io::Result<TierStatsSnapshot> {
        let span = self.cfg.trace.span("tier.drain", Entity::NONE, 0, 0);
        let keys = self.acquire_drain_token();
        let mut result = Ok(());
        'keys: for key in keys {
            match self.drop_replicated(key) {
                Ok(true) => continue 'keys,
                Ok(false) => {}
                Err(e) => {
                    result = Err(e);
                    break 'keys;
                }
            }
            // Per-partition plan → unlocked object write → commit; an
            // append racing the write changes the fingerprint and the
            // partition is re-drained.
            loop {
                let Some((pieces, mut bytes, fingerprint, local_bytes)) = self.plan_drain(key)
                else {
                    continue 'keys;
                };
                let total = bytes.len() as u64;
                // The RemoteMoved record is appended after the object's
                // publishing rename; if a racing append then fails the
                // fingerprint check, a later re-drain's record simply
                // supersedes this one in the log.
                let put = self
                    .fill_durable(key, &pieces, &mut bytes)
                    .and_then(|()| self.remote.put(key.0, key.1, &bytes, &self.cfg.crash_plan))
                    .and_then(|()| {
                        self.manifest_commit(manifest::Record::RemoteMoved {
                            mof: key.0,
                            reducer: key.1,
                            total,
                        })
                    });
                match self.commit_drain(key, put, total, fingerprint, local_bytes) {
                    DrainStep::Done => continue 'keys,
                    DrainStep::Retry => {}
                    DrainStep::Failed(e) => {
                        result = Err(e);
                        break 'keys;
                    }
                }
            }
        }
        let snap = self.release_drain_token(result.is_ok());
        drop(span);
        result.map(|()| snap)
    }

    /// Drain phase 1 (one critical section): wait for and take the
    /// flusher token, and list the partitions to move.
    fn acquire_drain_token(&self) -> Vec<Key> {
        let mut g = lock(&self.inner);
        while g.spill_active {
            g = wait(&self.cv, g);
        }
        g.spill_active = true;
        g.parts.keys().copied().collect()
    }

    /// Drain phase 2 (one critical section): plan one partition's full
    /// prefix — durable pieces, and a buffer holding the buffered tail
    /// behind a zeroed prefix for them — and fingerprint it for the
    /// racing-append check. `None` means nothing left to move.
    #[allow(clippy::type_complexity)]
    fn plan_drain(&self, key: Key) -> Option<(Vec<Piece>, Vec<u8>, (u64, usize), u64)> {
        let g = lock(&self.inner);
        let part = g.parts.get(&key)?;
        let buf_len = part.buffer.len();
        let total = part.total_len();
        let fully_remote = buf_len == 0
            && part
                .extents
                .iter()
                .all(|e| e.place == Place::Remote);
        if total == 0 || fully_remote {
            return None;
        }
        let pieces = part.durable_pieces(0, total);
        let local_bytes = pieces
            .iter()
            .map(|p| match *p {
                Piece::Local { len, .. } => len,
                Piece::Remote { .. } => 0,
            })
            .sum();
        let mut bytes = Vec::with_capacity(total as usize);
        bytes.resize(part.durable_len as usize, 0);
        part.copy_memory(0, total, &mut bytes);
        Some((pieces, bytes, (part.durable_len, buf_len), local_bytes))
    }

    /// Drain phase 3 (one critical section, entered after the unlocked
    /// object write): swap the partition onto a single REMOTE extent if
    /// its fingerprint still matches, else ask for a re-drain.
    fn commit_drain(
        &self,
        key: Key,
        put: io::Result<()>,
        total: u64,
        fingerprint: (u64, usize),
        local_bytes: u64,
    ) -> DrainStep {
        let mut g = lock(&self.inner);
        if let Err(e) = put {
            return DrainStep::Failed(e);
        }
        let Some(part) = g.parts.get_mut(&key) else {
            return DrainStep::Done;
        };
        if (part.durable_len, part.buffer.len()) != fingerprint {
            // An append raced the object write; re-drain.
            return DrainStep::Retry;
        }
        let buf_len = fingerprint.1;
        part.extents = vec![Extent {
            offset: 0,
            len: total,
            place: Place::Remote,
        }];
        part.durable_len = total;
        part.buffer = Vec::new();
        g.memory_used = g.memory_used.saturating_sub(buf_len);
        g.stats.spilled_bytes = g.stats.spilled_bytes.saturating_sub(local_bytes);
        g.stats.remote_bytes += local_bytes + buf_len as u64;
        self.cfg
            .trace
            .instant("tier.remote", Entity::mof(key.0), u64::from(key.1), total);
        self.cv.notify_all();
        DrainStep::Done
    }

    /// Drain phase 4 (one critical section): count a completed drain,
    /// release the flusher token, and snapshot the tier counters.
    fn release_drain_token(&self, ok: bool) -> TierStatsSnapshot {
        let mut g = lock(&self.inner);
        if ok {
            g.stats.drains += 1;
        }
        g.spill_active = false;
        self.cv.notify_all();
        snapshot_of(&g)
    }
}

impl Drop for HybridStore {
    fn drop(&mut self) {
        if self.owns_data_dir {
            let _ = fs::remove_dir_all(&self.data_dir);
        }
        if self.owns_remote_dir {
            let _ = fs::remove_dir_all(&self.remote_dir);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn tiny(budget: usize) -> HybridConfig {
        HybridConfig {
            memory_budget: budget,
            high_watermark: 0.5,
            low_watermark: 0.2,
            huge_partition_limit: budget,
            ..HybridConfig::default()
        }
    }

    fn pattern(n: usize, seed: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    #[test]
    fn memory_tier_round_trip() {
        let store = HybridStore::new(tiny(1024)).unwrap();
        let data = pattern(100, 7);
        store.append(1, 2, &data).unwrap();
        assert_eq!(store.read_segment_range(1, 2, 0, 0).unwrap().unwrap(), data);
        assert_eq!(
            store.read_segment_range(1, 2, 10, 20).unwrap().unwrap(),
            data[10..30]
        );
        assert!(store
            .read_segment_range(1, 2, 1000, 0)
            .unwrap()
            .unwrap()
            .is_empty());
        assert!(store.read_segment_range(9, 9, 0, 0).unwrap().is_none());
        let s = store.stats();
        assert_eq!(s.total_written, 100);
        assert_eq!(s.memory_bytes, 100);
        assert_eq!(s.spilled_bytes, 0);
        assert_eq!(s.spill_trips, 0);
        assert!(s.memory_hits >= 2);
        assert_eq!(store.partition_len(1, 2), Some(100));
    }

    #[test]
    fn memory_range_reads_answer_only_from_memory() {
        let store = HybridStore::new(tiny(100)).unwrap();
        let mut data = Vec::new();
        for i in 0..6u8 {
            let chunk = pattern(10, i);
            data.extend_from_slice(&chunk);
            store.append(0, 0, &chunk).unwrap(); // spills past the watermark
        }
        let durable = store.layout(0, 0).unwrap().local;
        assert!(durable > 0 && durable < 60, "spilled prefix, memory tail");
        let plen = data.len() as u64;
        // Wholly in the tail: the bytes and the live length, one lock.
        let (tail, len) = store.read_memory_range(0, 0, durable, 0).unwrap();
        assert_eq!((tail.as_slice(), len), (&data[durable as usize..], plen));
        // One byte in the spilled prefix is enough to decline.
        assert_eq!(store.read_memory_range(0, 0, durable - 1, 2), None);
        // Past the end reads empty; an unknown partition is declined.
        assert_eq!(
            store.read_memory_range(0, 0, plen, 0),
            Some((Vec::new(), plen))
        );
        assert_eq!(store.read_memory_range(9, 9, 0, 0), None);
        // Only the served read counted, and only as a memory hit.
        let s = store.stats();
        assert_eq!((s.memory_hits, s.local_hits), (1, 0), "{s:?}");
        // The full read stitches the same tail behind the spilled prefix.
        assert_eq!(store.read_segment_range(0, 0, 0, 0).unwrap().unwrap(), data);
    }

    #[test]
    fn high_watermark_trip_flushes_to_low() {
        let store = HybridStore::new(tiny(100)).unwrap();
        let mut expected = Vec::new();
        // 6 appends of 10 bytes: trips at >= 50.
        for i in 0..6u8 {
            let chunk = pattern(10, i);
            expected.extend_from_slice(&chunk);
            store.append(0, 0, &chunk).unwrap();
        }
        let s = store.stats();
        assert!(s.spill_trips >= 1, "watermark should have tripped: {s:?}");
        assert!(s.memory_bytes <= 20, "flush must reach low watermark: {s:?}");
        assert_eq!(s.memory_bytes + s.spilled_bytes + s.remote_bytes, 60);
        assert_eq!(store.read_segment_range(0, 0, 0, 0).unwrap().unwrap(), expected);
        assert!(store.stats().local_hits >= 1);
    }

    #[test]
    fn huge_partition_is_force_spilled_below_watermark() {
        let cfg = HybridConfig {
            memory_budget: 1000,
            huge_partition_limit: 50,
            ..tiny(1000)
        };
        let store = HybridStore::new(cfg).unwrap();
        store.append(0, 0, &pattern(30, 1)).unwrap(); // small, stays
        store.append(0, 1, &pattern(60, 2)).unwrap(); // breaks the limit
        let s = store.stats();
        assert!(s.huge_forced >= 1, "{s:?}");
        let skewed = store.layout(0, 1).unwrap();
        assert_eq!(skewed.memory, 0, "skewed partition force-spilled: {skewed:?}");
        assert_eq!(skewed.local, 60);
        let small = store.layout(0, 0).unwrap();
        assert_eq!(small.memory, 30, "small partition stays resident");
    }

    #[test]
    fn oversize_append_goes_direct_to_localfile() {
        let store = HybridStore::new(tiny(64)).unwrap();
        store.append(3, 1, &pattern(10, 1)).unwrap();
        let big = pattern(200, 9);
        store.append(3, 1, &big).unwrap();
        let s = store.stats();
        assert_eq!(s.direct_writes, 1);
        assert_eq!(s.total_written, 210);
        assert!(s.memory_bytes <= 64);
        let mut expected = pattern(10, 1);
        expected.extend_from_slice(&big);
        assert_eq!(store.read_segment_range(3, 1, 0, 0).unwrap().unwrap(), expected);
    }

    #[test]
    fn drain_moves_everything_remote_and_reattaches() {
        let store = HybridStore::new(tiny(100)).unwrap();
        let a = pattern(80, 3); // spills partly
        let b = pattern(20, 4);
        store.append(0, 0, &a).unwrap();
        store.append(1, 5, &b).unwrap();
        let snap = store.drain_to_remote().unwrap();
        assert_eq!(snap.remote_bytes, 100, "{snap:?}");
        assert_eq!(snap.memory_bytes, 0);
        assert_eq!(snap.spilled_bytes, 0);
        assert_eq!(snap.drains, 1);
        assert_eq!(store.read_segment_range(0, 0, 0, 0).unwrap().unwrap(), a);
        assert!(store.stats().remote_hits >= 1);
        // A replacement store re-attaches the surviving remote dir.
        let attached =
            HybridStore::attach_remote(store.remote_dir(), tiny(100)).unwrap();
        assert_eq!(attached.read_segment_range(0, 0, 0, 0).unwrap().unwrap(), a);
        assert_eq!(attached.read_segment_range(1, 5, 0, 0).unwrap().unwrap(), b);
        assert_eq!(attached.stats().remote_bytes, 100);
        assert_eq!(attached.partitions(), vec![(0, 0), (1, 5)]);
    }

    #[test]
    fn drain_drops_replicated_partitions_instead_of_moving_them() {
        let store = HybridStore::new(tiny(100)).unwrap();
        let a = pattern(80, 3); // partly spilled by the watermark
        let b = pattern(20, 4);
        store.append(0, 0, &a).unwrap();
        store.append(1, 5, &b).unwrap();
        assert!(store.mark_replicated(0, 0));
        assert!(!store.mark_replicated(0, 0), "idempotent mark");
        let snap = store.drain_to_remote().unwrap();
        // (0,0) dropped — its 80 bytes never reached the REMOTE tier —
        // while unmarked (1,5) drained normally.
        assert_eq!(snap.replica_drops, 1, "{snap:?}");
        assert_eq!(snap.replica_dropped_bytes, 80);
        assert_eq!(snap.remote_bytes, 20);
        assert_eq!(snap.memory_bytes, 0);
        assert_eq!(snap.spilled_bytes, 0);
        assert_eq!(
            snap.memory_bytes + snap.spilled_bytes + snap.remote_bytes
                + snap.replica_dropped_bytes,
            snap.total_written,
            "residency identity holds with the drop term"
        );
        // The dropped partition is gone locally (readers go to the
        // replica); the drained one still serves.
        assert_eq!(store.read_segment_range(0, 0, 0, 0).unwrap(), None);
        assert_eq!(store.read_segment_range(1, 5, 0, 0).unwrap().unwrap(), b);
        assert_eq!(store.partitions(), vec![(1, 5)]);
    }

    #[test]
    fn replicated_partition_with_remote_extents_still_drains() {
        let store = HybridStore::new(tiny(100)).unwrap();
        store.append(0, 0, &pattern(30, 1)).unwrap();
        store.drain_to_remote().unwrap(); // (0,0) now has a REMOTE extent
        store.append(0, 0, &pattern(10, 2)).unwrap();
        store.mark_replicated(0, 0);
        let snap = store.drain_to_remote().unwrap();
        // The REMOTE prefix forces the normal drain path: dropping the
        // partition would orphan its object in the surviving directory.
        assert_eq!(snap.replica_drops, 0, "{snap:?}");
        assert_eq!(snap.remote_bytes, 40);
        let mut expected = pattern(30, 1);
        expected.extend_from_slice(&pattern(10, 2));
        assert_eq!(store.read_segment_range(0, 0, 0, 0).unwrap().unwrap(), expected);
    }

    #[test]
    fn appends_after_drain_land_in_memory_again() {
        let store = HybridStore::new(tiny(100)).unwrap();
        store.append(0, 0, &pattern(30, 1)).unwrap();
        store.drain_to_remote().unwrap();
        store.append(0, 0, &pattern(10, 2)).unwrap();
        let mut expected = pattern(30, 1);
        expected.extend_from_slice(&pattern(10, 2));
        assert_eq!(store.read_segment_range(0, 0, 0, 0).unwrap().unwrap(), expected);
        let layout = store.layout(0, 0).unwrap();
        assert_eq!(layout.remote, 30);
        assert_eq!(layout.memory, 10);
    }

    #[test]
    fn background_flusher_releases_backpressured_appends() {
        let cfg = HybridConfig {
            background_flush: true,
            ..tiny(64)
        };
        let store = HybridStore::new(cfg).unwrap();
        let mut expected = Vec::new();
        // 10 x 48 bytes through a 64-byte budget: every append past the
        // first must wait for the flusher.
        for i in 0..10u8 {
            let chunk = pattern(48, i);
            expected.extend_from_slice(&chunk);
            store.append(7, 0, &chunk).unwrap();
        }
        let s = store.stats();
        assert!(s.memory_bytes as usize <= 64);
        assert!(s.spill_trips >= 1);
        assert_eq!(s.memory_bytes + s.spilled_bytes + s.remote_bytes, 480);
        assert_eq!(store.read_segment_range(7, 0, 0, 0).unwrap().unwrap(), expected);
        store.close();
    }

    /// A pinned pair of scratch dirs that outlive the store (unlike the
    /// store-owned temp dirs) so a "crashed" store's files survive for
    /// recovery, and are removed when the test ends.
    struct ScratchDirs {
        data: PathBuf,
        remote: PathBuf,
    }

    impl ScratchDirs {
        fn new(tag: &str) -> ScratchDirs {
            let base = std::env::temp_dir().join(format!(
                "jbs-recover-{tag}-{}-{}",
                std::process::id(),
                STORE_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&base);
            ScratchDirs {
                data: base.join("data"),
                remote: base.join("remote"),
            }
        }

        fn durable(&self, budget: usize) -> HybridConfig {
            HybridConfig {
                durable_spill: true,
                data_dir: Some(self.data.clone()),
                remote_dir: Some(self.remote.clone()),
                ..tiny(budget)
            }
        }
    }

    impl Drop for ScratchDirs {
        fn drop(&mut self) {
            if let Some(base) = self.data.parent() {
                let _ = fs::remove_dir_all(base);
            }
        }
    }

    #[test]
    fn recover_rebuilds_spilled_extents_byte_exact() {
        let dirs = ScratchDirs::new("spill");
        let store = HybridStore::new(dirs.durable(100)).unwrap();
        let mut appended = Vec::new();
        for i in 0..12u8 {
            let chunk = pattern(10, i);
            appended.extend_from_slice(&chunk);
            store.append(4, 2, &chunk).unwrap();
        }
        let durable = store.layout(4, 2).unwrap().local;
        assert!(durable > 0, "workload must spill");
        drop(store); // crash: the memory tier evaporates
        let (rec, report) = HybridStore::recover(dirs.durable(100)).unwrap();
        assert_eq!(report.recovered_bytes, durable);
        assert_eq!(report.recovered_partitions, 1);
        assert!(!report.torn_tail);
        assert_eq!(report.dropped_extents, 0);
        let bytes = rec.read_segment_range(4, 2, 0, 0).unwrap().unwrap();
        assert_eq!(bytes, appended[..durable as usize], "byte-exact prefix");
        // The recovered store keeps working: new appends extend the
        // recovered prefix and survive a second crash-recover.
        rec.append(4, 2, &pattern(60, 99)).unwrap();
        let durable2 = rec.layout(4, 2).unwrap().local;
        let mut appended2 = appended[..durable as usize].to_vec();
        appended2.extend_from_slice(&pattern(60, 99));
        drop(rec);
        let (rec2, report2) = HybridStore::recover(dirs.durable(100)).unwrap();
        assert_eq!(report2.recovered_bytes, durable2);
        assert_eq!(
            rec2.read_segment_range(4, 2, 0, 0).unwrap().unwrap(),
            appended2[..durable2 as usize]
        );
    }

    #[test]
    fn recover_handles_oversize_drain_and_replica_drop() {
        let dirs = ScratchDirs::new("mixed");
        let store = HybridStore::new(dirs.durable(64)).unwrap();
        let big = pattern(200, 9); // oversize: direct to LOCALFILE
        store.append(1, 0, &big).unwrap();
        store.append(2, 0, &pattern(100, 3)).unwrap();
        store.append(3, 0, &pattern(80, 4)).unwrap();
        store.mark_replicated(3, 0);
        store.drain_to_remote().unwrap(); // 1,2 → REMOTE; 3 dropped
        store.append(2, 0, &pattern(90, 5)).unwrap(); // post-drain spill
        let durable2 = store.layout(2, 0).unwrap();
        drop(store);
        let (rec, report) = HybridStore::recover(dirs.durable(64)).unwrap();
        assert_eq!(rec.read_segment_range(1, 0, 0, 0).unwrap().unwrap(), big);
        let mut want2 = pattern(100, 3);
        want2.extend_from_slice(&pattern(90, 5));
        let got2 = rec.read_segment_range(2, 0, 0, 0).unwrap().unwrap();
        let durable2_total = (durable2.remote + durable2.local) as usize;
        assert_eq!(got2, want2[..durable2_total]);
        // The replica-dropped partition stays dropped.
        assert_eq!(rec.read_segment_range(3, 0, 0, 0).unwrap(), None);
        assert_eq!(report.remote_partitions, 2);
        let s = rec.stats();
        assert_eq!(
            s.memory_bytes + s.spilled_bytes + s.remote_bytes,
            s.total_written,
            "residency identity holds after recovery: {s:?}"
        );
    }

    #[test]
    fn recover_truncates_torn_manifest_tail() {
        let dirs = ScratchDirs::new("torn");
        let store = HybridStore::new(dirs.durable(100)).unwrap();
        store.append(0, 0, &pattern(80, 3)).unwrap();
        let durable = store.layout(0, 0).unwrap().local;
        drop(store);
        // A crash mid-append leaves garbage at the log's tail.
        let mpath = dirs.data.join("manifest.log");
        let mut log = fs::read(&mpath).unwrap();
        log.extend_from_slice(&[0x29, 0x00, 0x00, 0x00, 0xde, 0xad]);
        fs::write(&mpath, &log).unwrap();
        let (rec, report) = HybridStore::recover(dirs.durable(100)).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.recovered_bytes, durable);
        assert_eq!(
            rec.read_segment_range(0, 0, 0, 0).unwrap().unwrap(),
            pattern(80, 3)[..durable as usize]
        );
        // The truncation stuck: a second scan is clean.
        drop(rec);
        let (_, report2) = HybridStore::recover(dirs.durable(100)).unwrap();
        assert!(!report2.torn_tail);
    }

    #[test]
    fn recover_drops_extents_with_corrupt_data() {
        let dirs = ScratchDirs::new("corrupt");
        let store = HybridStore::new(dirs.durable(100)).unwrap();
        store.append(0, 0, &pattern(80, 3)).unwrap();
        let durable = store.layout(0, 0).unwrap().local;
        assert!(durable >= 2);
        drop(store);
        // Silent corruption in the spilled data itself.
        let spath = dirs.data.join("spill.data");
        let mut data = fs::read(&spath).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        fs::write(&spath, &data).unwrap();
        let (rec, report) = HybridStore::recover(dirs.durable(100)).unwrap();
        assert!(report.dropped_extents >= 1, "{report:?}");
        // Whatever survived is still an exact prefix, never garbage.
        let got = rec
            .read_segment_range(0, 0, 0, 0)
            .unwrap()
            .map_or(Vec::new(), |b| b);
        assert_eq!(got, pattern(80, 3)[..got.len()]);
        assert!(got.len() as u64 <= durable);
    }

    #[test]
    fn recover_requires_a_data_dir() {
        let cfg = HybridConfig {
            durable_spill: true,
            ..tiny(100)
        };
        let err = HybridStore::recover(cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn fresh_store_over_reused_dir_forgets_the_old_manifest() {
        let dirs = ScratchDirs::new("reuse");
        let store = HybridStore::new(dirs.durable(100)).unwrap();
        store.append(0, 0, &pattern(80, 3)).unwrap();
        drop(store);
        // A brand-new store over the same dir starts empty …
        let fresh = HybridStore::new(dirs.durable(100)).unwrap();
        assert_eq!(fresh.partitions(), Vec::<(u64, u32)>::new());
        drop(fresh);
        // … and recovery after it sees nothing stale.
        let (rec, report) = HybridStore::recover(dirs.durable(100)).unwrap();
        assert_eq!(report.recovered_bytes, 0);
        assert_eq!(rec.partitions(), Vec::<(u64, u32)>::new());
    }

    #[test]
    fn spill_trace_has_one_span_per_trip_with_sequential_writes() {
        use jbs_obs::{EventKind, Trace, TraceQuery};
        let trace = Trace::recording(4096);
        let cfg = HybridConfig {
            trace: trace.clone(),
            ..tiny(100)
        };
        let store = HybridStore::new(cfg).unwrap();
        for i in 0..12u8 {
            store.append(0, 0, &pattern(10, i)).unwrap();
        }
        let trips = store.stats().spill_trips;
        assert!(trips >= 2, "expected repeated trips, got {trips}");
        let events = trace.snapshot();
        let q = TraceQuery::new(events.clone());
        assert_eq!(q.count("tier.spill") as u64, trips, "one span per trip");
        // Batched sequential: spill.write file offsets strictly ascend.
        let mut offs: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "spill.write" && e.kind == EventKind::Instant)
            .map(|e| e.a)
            .collect();
        assert!(!offs.is_empty());
        let sorted = {
            let mut s = offs.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(offs, sorted, "spill writes must be offset-ordered");
        offs.dedup();
        assert_eq!(offs.len(), sorted.len(), "each write at a fresh offset");
    }
}

#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;

    fn cfg(budget: usize, background: bool) -> HybridConfig {
        HybridConfig {
            memory_budget: budget,
            high_watermark: 0.5,
            low_watermark: 0.25,
            huge_partition_limit: budget,
            background_flush: background,
            ..HybridConfig::default()
        }
    }

    /// The writer/flusher handoff: a writer trips the watermark, then
    /// blocks on backpressure; the flusher (running the production
    /// [`HybridStore::flusher_loop`]) must drain and release it in
    /// every schedule, and the bytes must come back exact.
    #[test]
    fn loom_spill_handoff_byte_exact() {
        loom::model(|| {
            let store = HybridStore::new(cfg(8, true)).unwrap();
            let flusher = {
                let s = Arc::clone(&store);
                loom::thread::spawn(move || s.flusher_loop())
            };
            store.append(0, 0, &[1, 2, 3]).unwrap();
            store.append(0, 0, &[4, 5, 6]).unwrap(); // trips (6 >= 4)
            store.append(0, 0, &[7, 8, 9]).unwrap(); // 6+3 > 8: backpressure
            store.close();
            flusher.join().unwrap();
            let s = store.stats();
            assert!(s.memory_bytes <= 8, "budget held: {s:?}");
            assert_eq!(s.memory_bytes + s.spilled_bytes + s.remote_bytes, 9);
            assert!(s.spill_trips >= 1);
            let bytes = store.read_segment_range(0, 0, 0, 0).unwrap().unwrap();
            assert_eq!(bytes, [1, 2, 3, 4, 5, 6, 7, 8, 9]);
        });
    }

    /// A reader racing an inline spill must always see an exact prefix
    /// of the appended bytes — never a torn segment.
    #[test]
    fn loom_no_torn_read_mid_spill() {
        loom::model(|| {
            let store = HybridStore::new(cfg(8, false)).unwrap();
            store.append(0, 0, &[1, 2, 3]).unwrap();
            let reader = {
                let s = Arc::clone(&store);
                loom::thread::spawn(move || s.read_segment_range(0, 0, 0, 0).unwrap().unwrap())
            };
            store.append(0, 0, &[4, 5, 6]).unwrap(); // trips an inline spill
            let seen = reader.join().unwrap();
            let full = [1u8, 2, 3, 4, 5, 6];
            assert!(
                seen.len() == 3 || seen.len() == 6,
                "reads are append-atomic, got {} bytes",
                seen.len()
            );
            assert_eq!(seen, full[..seen.len()], "torn read");
            assert_eq!(
                store.read_segment_range(0, 0, 0, 0).unwrap().unwrap(),
                full
            );
        });
    }

    /// A reader racing `drain_to_remote` sees byte-exact data before,
    /// during, and after the tier move.
    #[test]
    fn loom_drain_vs_reader() {
        loom::model(|| {
            let store = HybridStore::new(cfg(64, false)).unwrap();
            store.append(2, 1, &[9, 8, 7, 6]).unwrap();
            let drainer = {
                let s = Arc::clone(&store);
                loom::thread::spawn(move || s.drain_to_remote().unwrap())
            };
            let seen = store.read_segment_range(2, 1, 0, 0).unwrap().unwrap();
            assert_eq!(seen, [9, 8, 7, 6]);
            let snap = drainer.join().unwrap();
            assert_eq!(snap.remote_bytes, 4);
            assert_eq!(snap.memory_bytes, 0);
            assert_eq!(
                store.read_segment_range(2, 1, 0, 0).unwrap().unwrap(),
                [9, 8, 7, 6]
            );
        });
    }
}
