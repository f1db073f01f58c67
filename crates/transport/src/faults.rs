//! Deterministic fault injection for the real dataplane.
//!
//! A [`FaultPlan`] is installed into the client, server, or hybrid store
//! and consulted at named [`Hook`] points. Each hook owns a private
//! [`DetRng`] stream forked from the plan seed, so the *sequence of
//! decisions at a hook* depends only on the seed and how many times the
//! hook has fired — not on thread scheduling or on activity at other
//! hooks. Same seed, same per-hook fault sequence, every run.
//!
//! When no plan is installed the hooks are `Option::None` checks —
//! no locks, no rng draws, no overhead on the production path.

use jbs_des::DetRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Named interception points in the dataplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hook {
    /// Client dialing a supplier.
    ClientConnect,
    /// Client reading a fetch response.
    ClientReadResponse,
    /// Server accepting a connection.
    ServerAccept,
    /// Server about to write a fetch response.
    ServerWriteResponse,
    /// Server admission decision for one request (busy storms: force
    /// typed `Busy` pushback even when capacity remains).
    ServerAdmission,
    /// Server payload about to ship, checksum already computed
    /// (payload corruption the frame structure cannot catch — only the
    /// end-to-end CRC32C can; also hosts the boundary-truncation
    /// clean-EOF lie).
    ServerPayload,
    /// Store spill-extent write to the local spill file (disk faults:
    /// short write, EIO) — consulted via the store's
    /// [`jbs_store_hybrid::DiskFaultInjector`] config hook.
    DiskSpillWrite,
    /// Store manifest-record append (disk faults: short write, EIO) —
    /// consulted via [`jbs_store_hybrid::DiskFaultInjector`].
    DiskManifestAppend,
}

impl Hook {
    const COUNT: usize = 8;

    /// All hooks, in index order.
    pub const ALL: [Hook; Hook::COUNT] = [
        Hook::ClientConnect,
        Hook::ClientReadResponse,
        Hook::ServerAccept,
        Hook::ServerWriteResponse,
        Hook::ServerAdmission,
        Hook::ServerPayload,
        Hook::DiskSpillWrite,
        Hook::DiskManifestAppend,
    ];

    fn index(self) -> usize {
        match self {
            Hook::ClientConnect => 0,
            Hook::ClientReadResponse => 1,
            Hook::ServerAccept => 2,
            Hook::ServerWriteResponse => 3,
            Hook::ServerAdmission => 4,
            Hook::ServerPayload => 5,
            Hook::DiskSpillWrite => 6,
            Hook::DiskManifestAppend => 7,
        }
    }
}

/// What a hook should do for one occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Proceed normally.
    Allow,
    /// Refuse / drop the connection before any exchange.
    RefuseConnect,
    /// Drop the connection mid-exchange (peer sees a reset/EOF).
    Reset,
    /// Send only a prefix of the frame, then drop the connection.
    Truncate,
    /// Flip bits in the frame header so it fails to decode.
    Corrupt,
    /// Pause for the given duration before proceeding (drives the
    /// peer's read deadline).
    Stall(Duration),
    /// Reply `Busy` pushback regardless of real capacity (busy storm).
    Busy,
    /// Flip one payload byte *after* the checksum was computed: the
    /// frame stays structurally valid and only end-to-end verification
    /// can catch it.
    CorruptPayload,
    /// Serve an empty payload as if the segment cleanly ended here —
    /// the boundary-truncation lie the frame's declared segment length
    /// exposes.
    CleanEof,
    /// Disk write lands only a prefix of the buffer (meaningful at the
    /// `Disk*` hooks, surfaced to the store as a short write).
    ShortWrite,
    /// Disk write fails outright with an I/O error (meaningful at the
    /// `Disk*` hooks).
    DiskError,
}

/// Fault kinds, for forcing a specific action at a specific occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// See [`FaultAction::RefuseConnect`].
    RefuseConnect,
    /// See [`FaultAction::Reset`].
    Reset,
    /// See [`FaultAction::Truncate`].
    Truncate,
    /// See [`FaultAction::Corrupt`].
    Corrupt,
    /// See [`FaultAction::Stall`].
    Stall,
    /// See [`FaultAction::Busy`].
    Busy,
    /// See [`FaultAction::CorruptPayload`].
    CorruptPayload,
    /// See [`FaultAction::CleanEof`].
    CleanEof,
    /// See [`FaultAction::ShortWrite`].
    ShortWrite,
    /// See [`FaultAction::DiskError`].
    DiskError,
}

/// Per-hook probabilities and forced occurrences.
#[derive(Debug, Clone, Default)]
struct HookRules {
    p_refuse: f64,
    p_reset: f64,
    p_truncate: f64,
    p_corrupt: f64,
    p_stall: f64,
    p_busy: f64,
    p_corrupt_payload: f64,
    p_clean_eof: f64,
    p_short_write: f64,
    p_disk_error: f64,
    stall: Duration,
    /// `(occurrence, kind)`: the `occurrence`-th firing (0-based) of
    /// this hook takes `kind` unconditionally.
    forced: Vec<(u64, FaultKind)>,
}

impl HookRules {
    fn action_for(&self, kind: FaultKind) -> FaultAction {
        match kind {
            FaultKind::RefuseConnect => FaultAction::RefuseConnect,
            FaultKind::Reset => FaultAction::Reset,
            FaultKind::Truncate => FaultAction::Truncate,
            FaultKind::Corrupt => FaultAction::Corrupt,
            FaultKind::Stall => FaultAction::Stall(self.stall),
            FaultKind::Busy => FaultAction::Busy,
            FaultKind::CorruptPayload => FaultAction::CorruptPayload,
            FaultKind::CleanEof => FaultAction::CleanEof,
            FaultKind::ShortWrite => FaultAction::ShortWrite,
            FaultKind::DiskError => FaultAction::DiskError,
        }
    }
}

/// Counters of faults actually injected, one per kind.
#[derive(Debug, Default)]
pub struct FaultStats {
    refusals: AtomicU64,
    resets: AtomicU64,
    truncations: AtomicU64,
    corruptions: AtomicU64,
    stalls: AtomicU64,
    busy_storms: AtomicU64,
    payload_corruptions: AtomicU64,
    clean_eof_lies: AtomicU64,
    short_writes: AtomicU64,
    disk_errors: AtomicU64,
}

/// A point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Connections refused or dropped at accept.
    pub refusals: u64,
    /// Mid-exchange drops injected.
    pub resets: u64,
    /// Truncated frames injected.
    pub truncations: u64,
    /// Corrupted frames injected.
    pub corruptions: u64,
    /// Artificial stalls injected.
    pub stalls: u64,
    /// Forced `Busy` pushback replies injected.
    pub busy_storms: u64,
    /// Post-checksum payload corruptions injected.
    pub payload_corruptions: u64,
    /// Clean-EOF truncation lies injected.
    pub clean_eof_lies: u64,
    /// Disk short writes injected.
    pub short_writes: u64,
    /// Disk I/O errors injected.
    pub disk_errors: u64,
}

impl FaultStatsSnapshot {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.refusals
            + self.resets
            + self.truncations
            + self.corruptions
            + self.stalls
            + self.busy_storms
            + self.payload_corruptions
            + self.clean_eof_lies
            + self.short_writes
            + self.disk_errors
    }
}

/// Deterministic, seeded schedule of faults across all hooks.
///
/// Build with [`FaultPlan::builder`]; install by handing an
/// `Arc<FaultPlan>` to the client/server/hybrid-store options.
pub struct FaultPlan {
    // One (rng, occurrence counter) pair per hook, forked from the plan
    // seed by fork slot, so hooks are mutually decorrelated and each
    // hook's decision sequence is a pure function of (seed, occurrence).
    hooks: Vec<Mutex<(DetRng, u64)>>,
    rules: Vec<HookRules>,
    stats: FaultStats,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("rules", &self.rules)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// Start building a plan from a seed.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            rules: vec![HookRules::default(); Hook::COUNT],
        }
    }

    /// Decide what the `hook`'s current occurrence should do, and count
    /// any injected fault in [`FaultPlan::stats`].
    pub fn decide(&self, hook: Hook) -> FaultAction {
        let idx = hook.index();
        let rules = &self.rules[idx];
        let action = {
            let mut guard = self.hooks[idx].lock().unwrap_or_else(|e| e.into_inner());
            let (rng, occurrence) = &mut *guard;
            let n = *occurrence;
            *occurrence += 1;
            // Exactly one rng draw per decision keeps the stream aligned
            // with the occurrence counter even when rules change.
            let u = rng.uniform_f64(0.0, 1.0);
            if let Some(&(_, kind)) = rules.forced.iter().find(|(at, _)| *at == n) {
                rules.action_for(kind)
            } else {
                let mut acc = 0.0;
                let ladder = [
                    (rules.p_refuse, FaultKind::RefuseConnect),
                    (rules.p_reset, FaultKind::Reset),
                    (rules.p_truncate, FaultKind::Truncate),
                    (rules.p_corrupt, FaultKind::Corrupt),
                    (rules.p_stall, FaultKind::Stall),
                    (rules.p_busy, FaultKind::Busy),
                    (rules.p_corrupt_payload, FaultKind::CorruptPayload),
                    (rules.p_clean_eof, FaultKind::CleanEof),
                    (rules.p_short_write, FaultKind::ShortWrite),
                    (rules.p_disk_error, FaultKind::DiskError),
                ];
                let mut chosen = FaultAction::Allow;
                for (p, kind) in ladder {
                    acc += p;
                    if u < acc {
                        chosen = rules.action_for(kind);
                        break;
                    }
                }
                chosen
            }
        };
        match action {
            FaultAction::Allow => {}
            FaultAction::RefuseConnect => {
                self.stats.refusals.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Reset => {
                self.stats.resets.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Truncate => {
                self.stats.truncations.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Corrupt => {
                self.stats.corruptions.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Stall(_) => {
                self.stats.stalls.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Busy => {
                self.stats.busy_storms.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::CorruptPayload => {
                self.stats
                    .payload_corruptions
                    .fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::CleanEof => {
                self.stats.clean_eof_lies.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::ShortWrite => {
                self.stats.short_writes.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::DiskError => {
                self.stats.disk_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        action
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            refusals: self.stats.refusals.load(Ordering::Relaxed),
            resets: self.stats.resets.load(Ordering::Relaxed),
            truncations: self.stats.truncations.load(Ordering::Relaxed),
            corruptions: self.stats.corruptions.load(Ordering::Relaxed),
            stalls: self.stats.stalls.load(Ordering::Relaxed),
            busy_storms: self.stats.busy_storms.load(Ordering::Relaxed),
            payload_corruptions: self.stats.payload_corruptions.load(Ordering::Relaxed),
            clean_eof_lies: self.stats.clean_eof_lies.load(Ordering::Relaxed),
            short_writes: self.stats.short_writes.load(Ordering::Relaxed),
            disk_errors: self.stats.disk_errors.load(Ordering::Relaxed),
        }
    }
}

/// The store consults its [`jbs_store_hybrid::DiskFaultInjector`] on
/// every spill-extent and manifest-record write; routing those calls
/// through the plan's per-hook rng streams gives disk faults the same
/// determinism contract as the network hooks: the decision at the
/// `n`-th occurrence is a pure function of `(seed, occurrence)`.
impl jbs_store_hybrid::DiskFaultInjector for FaultPlan {
    fn disk_write(
        &self,
        site: jbs_store_hybrid::DiskWriteSite,
    ) -> jbs_store_hybrid::DiskWriteFault {
        let hook = match site {
            jbs_store_hybrid::DiskWriteSite::SpillWrite => Hook::DiskSpillWrite,
            jbs_store_hybrid::DiskWriteSite::ManifestAppend => Hook::DiskManifestAppend,
        };
        match self.decide(hook) {
            FaultAction::ShortWrite => jbs_store_hybrid::DiskWriteFault::ShortWrite,
            FaultAction::DiskError => jbs_store_hybrid::DiskWriteFault::Error,
            // Network-shaped actions are meaningless on a disk path;
            // treat anything else as a clean write.
            _ => jbs_store_hybrid::DiskWriteFault::Allow,
        }
    }
}

/// Consult an optional plan at a hook; `Allow` when none is installed.
///
/// This is the zero-cost form used on production paths: without a plan
/// it compiles to a null check.
#[inline]
pub fn decide(plan: &Option<Arc<FaultPlan>>, hook: Hook) -> FaultAction {
    match plan {
        Some(p) => p.decide(hook),
        None => FaultAction::Allow,
    }
}

/// Builder for [`FaultPlan`]. Probabilities at a hook are evaluated as
/// a single cumulative ladder, so their sum should stay ≤ 1.
#[derive(Debug)]
pub struct FaultPlanBuilder {
    seed: u64,
    rules: Vec<HookRules>,
}

impl FaultPlanBuilder {
    /// Refuse/drop connections at `hook` with probability `p`.
    pub fn refuse(mut self, hook: Hook, p: f64) -> Self {
        self.rules[hook.index()].p_refuse = p;
        self
    }

    /// Drop the connection mid-exchange at `hook` with probability `p`.
    pub fn reset(mut self, hook: Hook, p: f64) -> Self {
        self.rules[hook.index()].p_reset = p;
        self
    }

    /// Truncate the frame at `hook` with probability `p`.
    pub fn truncate(mut self, hook: Hook, p: f64) -> Self {
        self.rules[hook.index()].p_truncate = p;
        self
    }

    /// Corrupt the frame header at `hook` with probability `p`.
    pub fn corrupt(mut self, hook: Hook, p: f64) -> Self {
        self.rules[hook.index()].p_corrupt = p;
        self
    }

    /// Stall for `d` at `hook` with probability `p`.
    pub fn stall(mut self, hook: Hook, p: f64, d: Duration) -> Self {
        let r = &mut self.rules[hook.index()];
        r.p_stall = p;
        r.stall = d;
        self
    }

    /// Force `Busy` pushback at `hook` with probability `p` (meaningful
    /// at [`Hook::ServerAdmission`]).
    pub fn busy(mut self, hook: Hook, p: f64) -> Self {
        self.rules[hook.index()].p_busy = p;
        self
    }

    /// Flip a payload byte after the checksum at `hook` with
    /// probability `p` (meaningful at [`Hook::ServerPayload`]).
    pub fn corrupt_payload(mut self, hook: Hook, p: f64) -> Self {
        self.rules[hook.index()].p_corrupt_payload = p;
        self
    }

    /// Serve a lying clean EOF at `hook` with probability `p`
    /// (meaningful at [`Hook::ServerPayload`]).
    pub fn clean_eof(mut self, hook: Hook, p: f64) -> Self {
        self.rules[hook.index()].p_clean_eof = p;
        self
    }

    /// Land only a prefix of disk writes at `hook` with probability `p`
    /// (meaningful at [`Hook::DiskSpillWrite`] and
    /// [`Hook::DiskManifestAppend`]).
    pub fn short_write(mut self, hook: Hook, p: f64) -> Self {
        self.rules[hook.index()].p_short_write = p;
        self
    }

    /// Fail disk writes with an I/O error at `hook` with probability
    /// `p` (meaningful at [`Hook::DiskSpillWrite`] and
    /// [`Hook::DiskManifestAppend`]).
    pub fn disk_error(mut self, hook: Hook, p: f64) -> Self {
        self.rules[hook.index()].p_disk_error = p;
        self
    }

    /// Force the `occurrence`-th firing (0-based) of `hook` to take
    /// `kind`, regardless of probabilities.
    pub fn force(mut self, hook: Hook, occurrence: u64, kind: FaultKind) -> Self {
        self.rules[hook.index()].forced.push((occurrence, kind));
        self
    }

    /// Finish the plan.
    pub fn build(self) -> Arc<FaultPlan> {
        // Every fork advances the root stream, so a hook's schedule
        // depends on how many forks came before it. Slots 4 and 5
        // belonged to two since-removed hooks; they are still forked
        // (and discarded) so each surviving hook keeps, bit for bit,
        // the per-seed schedule the chaos suites were tuned on.
        const RETIRED_SLOTS: [usize; 2] = [4, 5];
        let mut root = DetRng::new(self.seed);
        let hooks = (0..Hook::COUNT + RETIRED_SLOTS.len())
            .map(|slot| (slot, root.fork(slot as u64 + 1)))
            .filter(|(slot, _)| !RETIRED_SLOTS.contains(slot))
            .map(|(_, rng)| Mutex::new((rng, 0u64)))
            .collect();
        Arc::new(FaultPlan {
            hooks,
            rules: self.rules,
            stats: FaultStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Arc<FaultPlan> {
        FaultPlan::builder(seed)
            .reset(Hook::ServerWriteResponse, 0.2)
            .stall(Hook::ServerWriteResponse, 0.1, Duration::from_millis(50))
            .refuse(Hook::ClientConnect, 0.3)
            .force(Hook::ServerWriteResponse, 2, FaultKind::Truncate)
            .build()
    }

    #[test]
    fn same_seed_same_decision_sequence() {
        let a = plan(99);
        let b = plan(99);
        for _ in 0..200 {
            assert_eq!(
                a.decide(Hook::ServerWriteResponse),
                b.decide(Hook::ServerWriteResponse)
            );
            assert_eq!(a.decide(Hook::ClientConnect), b.decide(Hook::ClientConnect));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0);
    }

    #[test]
    fn hooks_are_independent_streams() {
        // Interleaving calls to another hook must not perturb a hook's
        // own decision sequence.
        let a = plan(7);
        let b = plan(7);
        let seq_a: Vec<_> = (0..100)
            .map(|_| a.decide(Hook::ServerWriteResponse))
            .collect();
        let seq_b: Vec<_> = (0..100)
            .map(|i| {
                if i % 3 == 0 {
                    b.decide(Hook::ClientConnect);
                    b.decide(Hook::ServerAccept);
                }
                b.decide(Hook::ServerWriteResponse)
            })
            .collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn forced_occurrence_fires() {
        let p = plan(3);
        let mut third = FaultAction::Allow;
        for i in 0..5 {
            let act = p.decide(Hook::ServerWriteResponse);
            if i == 2 {
                third = act;
            }
        }
        assert_eq!(third, FaultAction::Truncate);
        assert!(p.stats().truncations >= 1);
    }

    #[test]
    fn no_plan_allows_everything() {
        let none: Option<Arc<FaultPlan>> = None;
        for h in Hook::ALL {
            assert_eq!(decide(&none, h), FaultAction::Allow);
        }
    }

    #[test]
    fn unconfigured_hook_never_fires() {
        let p = plan(11);
        for _ in 0..500 {
            assert_eq!(p.decide(Hook::ServerAccept), FaultAction::Allow);
        }
    }

    #[test]
    fn robustness_hooks_fire_and_count() {
        let p = FaultPlan::builder(17)
            .busy(Hook::ServerAdmission, 0.5)
            .corrupt_payload(Hook::ServerPayload, 0.3)
            .clean_eof(Hook::ServerPayload, 0.3)
            .force(Hook::ServerPayload, 0, FaultKind::CorruptPayload)
            .force(Hook::ServerPayload, 1, FaultKind::CleanEof)
            .build();
        assert_eq!(p.decide(Hook::ServerPayload), FaultAction::CorruptPayload);
        assert_eq!(p.decide(Hook::ServerPayload), FaultAction::CleanEof);
        for _ in 0..200 {
            let a = p.decide(Hook::ServerAdmission);
            assert!(matches!(a, FaultAction::Allow | FaultAction::Busy));
        }
        let s = p.stats();
        assert!(s.busy_storms > 0, "busy storm never fired");
        assert!(s.payload_corruptions >= 1);
        assert!(s.clean_eof_lies >= 1);
        assert_eq!(
            s.total(),
            s.busy_storms + s.payload_corruptions + s.clean_eof_lies
        );
    }

    #[test]
    fn disk_faults_are_deterministic_per_seed_and_occurrence() {
        use jbs_store_hybrid::{DiskFaultInjector, DiskWriteFault, DiskWriteSite};
        let build = || {
            FaultPlan::builder(41)
                .short_write(Hook::DiskSpillWrite, 0.3)
                .disk_error(Hook::DiskSpillWrite, 0.2)
                .disk_error(Hook::DiskManifestAppend, 0.4)
                .force(Hook::DiskManifestAppend, 1, FaultKind::ShortWrite)
                .build()
        };
        let a = build();
        let b = build();
        let mut saw_short = false;
        let mut saw_error = false;
        for i in 0..200 {
            let fa = a.disk_write(DiskWriteSite::SpillWrite);
            assert_eq!(fa, b.disk_write(DiskWriteSite::SpillWrite));
            saw_short |= fa == DiskWriteFault::ShortWrite;
            saw_error |= fa == DiskWriteFault::Error;
            let ma = a.disk_write(DiskWriteSite::ManifestAppend);
            assert_eq!(ma, b.disk_write(DiskWriteSite::ManifestAppend));
            if i == 1 {
                assert_eq!(ma, DiskWriteFault::ShortWrite, "forced occurrence 1");
            }
        }
        assert!(saw_short && saw_error, "both disk fault kinds must fire");
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().short_writes >= 1);
        assert!(a.stats().disk_errors >= 1);
    }

    #[test]
    fn disk_hooks_do_not_perturb_network_hooks() {
        use jbs_store_hybrid::{DiskFaultInjector, DiskWriteSite};
        let mk = || {
            FaultPlan::builder(23)
                .reset(Hook::ServerWriteResponse, 0.4)
                .disk_error(Hook::DiskSpillWrite, 0.5)
                .build()
        };
        let a = mk();
        let b = mk();
        let seq_a: Vec<_> = (0..100)
            .map(|_| a.decide(Hook::ServerWriteResponse))
            .collect();
        let seq_b: Vec<_> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    b.disk_write(DiskWriteSite::SpillWrite);
                }
                b.decide(Hook::ServerWriteResponse)
            })
            .collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn probabilities_roughly_respected() {
        let p = FaultPlan::builder(5).reset(Hook::ServerAccept, 0.5).build();
        let fired = (0..2000)
            .filter(|_| p.decide(Hook::ServerAccept) == FaultAction::Reset)
            .count();
        assert!((800..1200).contains(&fired), "fired {fired}/2000");
    }

    /// The chaos suites and the crash sweep were tuned on these exact
    /// per-seed schedules; removing a hook from the enum must not
    /// reshuffle the hooks that remain (values recorded at PR 11).
    #[test]
    #[rustfmt::skip] // the two recorded schedules read best as rows of eight
    fn surviving_hooks_keep_their_per_seed_schedules() {
        use FaultAction::{Allow, CleanEof, CorruptPayload, DiskError, ShortWrite};
        let p = FaultPlan::builder(0x4A42_5331)
            .corrupt_payload(Hook::ServerPayload, 0.3)
            .clean_eof(Hook::ServerPayload, 0.3)
            .short_write(Hook::DiskSpillWrite, 0.3)
            .disk_error(Hook::DiskSpillWrite, 0.3)
            .build();
        let payload: Vec<_> = (0..16).map(|_| p.decide(Hook::ServerPayload)).collect();
        assert_eq!(
            payload,
            [
                CleanEof, Allow, CleanEof, CorruptPayload, Allow, CleanEof, CleanEof, CleanEof,
                CleanEof, Allow, Allow, CorruptPayload, CorruptPayload, CorruptPayload, Allow,
                CorruptPayload
            ]
        );
        let spill: Vec<_> = (0..16).map(|_| p.decide(Hook::DiskSpillWrite)).collect();
        assert_eq!(
            spill,
            [
                ShortWrite, Allow, Allow, ShortWrite, ShortWrite, Allow, DiskError, DiskError,
                DiskError, DiskError, DiskError, ShortWrite, ShortWrite, ShortWrite, Allow, Allow
            ]
        );
    }
}
