//! A generational stop-the-world garbage collector model.
//!
//! The paper blames JVM memory inflation for "prolong\[ing\] Java garbage
//! collection for reclaiming memory" (Sec. I). We model the throughput
//! collector of the Hadoop-0.20 era: a young generation collected when the
//! allocation budget is exhausted (short pauses), a survivor fraction that
//! accumulates into the old generation, and full collections when the heap
//! fills (long pauses). Pauses are stop-the-world: the caller adds them to
//! its critical path *and* charges them as CPU busy time.

use jbs_des::SimTime;

/// Collector configuration.
#[derive(Debug, Clone)]
pub struct GcParams {
    /// Young generation size in bytes (allocation budget between minor GCs).
    pub young_bytes: u64,
    /// Total heap size in bytes.
    pub heap_bytes: u64,
    /// Fraction of young-gen bytes that survive a minor collection.
    pub survivor_frac: f64,
    /// Fixed cost of a minor collection.
    pub minor_pause_base: SimTime,
    /// Additional minor pause per surviving megabyte (copying cost).
    pub minor_pause_per_mb: SimTime,
    /// Fixed cost of a full collection.
    pub full_pause_base: SimTime,
    /// Additional full pause per live megabyte (mark/sweep/compact cost).
    pub full_pause_per_mb: SimTime,
    /// Fraction of the heap that survives a full collection.
    pub full_survivor_frac: f64,
}

impl GcParams {
    /// A 1 GB task JVM as Hadoop 0.20.3 commonly configured
    /// (`mapred.child.java.opts=-Xmx1024m`, young gen ~256 MB).
    pub fn task_jvm_1g() -> Self {
        GcParams {
            young_bytes: 256 << 20,
            heap_bytes: 1 << 30,
            survivor_frac: 0.07,
            minor_pause_base: SimTime::from_millis(8),
            minor_pause_per_mb: SimTime::from_micros(400),
            full_pause_base: SimTime::from_millis(120),
            full_pause_per_mb: SimTime::from_micros(900),
            full_survivor_frac: 0.35,
        }
    }
}

/// Statistics accumulated by a [`GcModel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GcStats {
    /// Number of minor (young-generation) collections.
    pub minor_collections: u64,
    /// Number of full collections.
    pub full_collections: u64,
    /// Total stop-the-world time.
    pub total_pause: SimTime,
    /// Total bytes allocated.
    pub allocated: u64,
}

/// The collector state for one JVM.
#[derive(Debug, Clone)]
pub struct GcModel {
    params: GcParams,
    young_used: u64,
    old_used: u64,
    stats: GcStats,
}

impl GcModel {
    /// A fresh JVM with an empty heap.
    pub fn new(params: GcParams) -> Self {
        GcModel {
            params,
            young_used: 0,
            old_used: 0,
            stats: GcStats::default(),
        }
    }

    /// Allocate `bytes`; returns the stop-the-world pause (usually zero)
    /// triggered by this allocation.
    pub fn allocate(&mut self, bytes: u64) -> SimTime {
        self.stats.allocated += bytes;
        self.young_used += bytes;
        let mut pause = SimTime::ZERO;
        // Multiple minor collections may fire on a huge allocation burst.
        while self.young_used >= self.params.young_bytes {
            self.young_used -= self.params.young_bytes;
            let survived = (self.params.young_bytes as f64 * self.params.survivor_frac) as u64;
            self.old_used += survived;
            let mb = survived as f64 / (1 << 20) as f64;
            pause += self.params.minor_pause_base + self.params.minor_pause_per_mb.scaled(mb);
            self.stats.minor_collections += 1;
            if self.old_used + self.params.young_bytes >= self.params.heap_bytes {
                pause += self.full_collect();
            }
        }
        self.stats.total_pause += pause;
        pause
    }

    fn full_collect(&mut self) -> SimTime {
        let live_mb = self.old_used as f64 / (1 << 20) as f64;
        let pause = self.params.full_pause_base + self.params.full_pause_per_mb.scaled(live_mb);
        self.old_used = (self.old_used as f64 * self.params.full_survivor_frac) as u64;
        self.stats.full_collections += 1;
        pause
    }

    /// Bytes currently live in the old generation.
    pub fn old_used(&self) -> u64 {
        self.old_used
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> GcStats {
        self.stats
    }

    /// Fraction of total elapsed `horizon` spent paused (a job-level
    /// GC overhead metric).
    pub fn pause_fraction(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.stats.total_pause.as_secs_f64() / horizon.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GcModel {
        GcModel::new(GcParams::task_jvm_1g())
    }

    #[test]
    fn small_allocations_do_not_pause() {
        let mut gc = model();
        let pause = gc.allocate(1 << 20);
        assert_eq!(pause, SimTime::ZERO);
        assert_eq!(gc.stats().minor_collections, 0);
    }

    #[test]
    fn filling_young_gen_triggers_minor_gc() {
        let mut gc = model();
        let mut pause = SimTime::ZERO;
        for _ in 0..256 {
            pause += gc.allocate(1 << 20);
        }
        assert_eq!(gc.stats().minor_collections, 1);
        assert!(pause >= SimTime::from_millis(8));
    }

    #[test]
    fn burst_allocation_fires_multiple_minor_gcs() {
        let mut gc = model();
        gc.allocate(1 << 30); // 1 GB burst through a 256 MB young gen
        assert_eq!(gc.stats().minor_collections, 4);
    }

    #[test]
    fn sustained_allocation_eventually_full_collects() {
        let mut gc = model();
        // Shuffle 64 GB through the JVM: with 7% survival, the old gen must
        // trip a full collection at some point.
        for _ in 0..(64 << 10) {
            gc.allocate(1 << 20);
        }
        let s = gc.stats();
        assert!(s.full_collections >= 1, "stats: {s:?}");
        assert!(s.total_pause > SimTime::from_secs(1));
        // Heap must stay bounded.
        assert!(gc.old_used() < GcParams::task_jvm_1g().heap_bytes);
    }

    #[test]
    fn full_gc_costs_more_than_minor() {
        let p = GcParams::task_jvm_1g();
        assert!(p.full_pause_base > p.minor_pause_base);
        assert!(p.full_pause_per_mb > p.minor_pause_per_mb);
    }

    #[test]
    fn pause_fraction_scales_with_allocation() {
        let mut light = model();
        let mut heavy = model();
        for _ in 0..512 {
            light.allocate(1 << 20);
        }
        for _ in 0..(16 << 10) {
            heavy.allocate(1 << 20);
        }
        let h = SimTime::from_secs(100);
        assert!(heavy.pause_fraction(h) > light.pause_fraction(h));
        assert_eq!(model().pause_fraction(SimTime::ZERO), 0.0);
    }

    #[test]
    fn allocated_accounting() {
        let mut gc = model();
        gc.allocate(123);
        gc.allocate(877);
        assert_eq!(gc.stats().allocated, 1000);
    }
}
