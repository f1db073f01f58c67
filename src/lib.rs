//! # JBS — JVM-Bypass Shuffling, reproduced in Rust
//!
//! A from-scratch reproduction of *"JVM-Bypass for Efficient Hadoop
//! Shuffling"* (Wang, Xu, Li, Yu — IPDPS 2013): the JBS plug-in shuffle
//! library (MOFSupplier + NetMerger), the stock Hadoop shuffle it is
//! measured against, a miniature Hadoop runtime, calibrated disk/network/
//! JVM models driving a deterministic discrete-event simulator, and a real
//! TCP dataplane that shuffles genuine bytes over loopback.
//!
//! This facade crate re-exports the workspace members under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`des`] | `jbs-des` | DES kernel: time, event queue, RNG, queueing resources, CPU meters, LRU |
//! | [`disk`] | `jbs-disk` | rotating-disk + page-cache model |
//! | [`jvm`] | `jbs-jvm` | JVM overhead model: stream costs, GC |
//! | [`net`] | `jbs-net` | protocol table (Table I), NICs, connection manager |
//! | [`mapred`] | `jbs-mapred` | MOF formats, k-way merge, job simulator |
//! | [`core`] | `jbs-core` | **the paper's contribution**: `JbsShuffle` + `HadoopShuffle` |
//! | [`transport`] | `jbs-transport` | real TCP MOFSupplier/NetMerger over loopback |
//! | [`workloads`] | `jbs-workloads` | Terasort + Tarazu workloads, generators, partitioners |
//! | [`obs`] | `jbs-obs` | structured tracing: spans/instants, ring recorder, `TraceQuery` |
//!
//! ## Quickstart
//!
//! ```
//! use jbs::core::{EngineKind, HadoopShuffle, JbsShuffle};
//! use jbs::mapred::{ClusterConfig, JobSimulator, JobSpec};
//! use jbs::net::Protocol;
//!
//! // Terasort 1 GiB on a small test cluster, stock Hadoop vs JBS.
//! let sim = JobSimulator::new(
//!     ClusterConfig::tiny(Protocol::IpoIb),
//!     JobSpec::terasort(1 << 30),
//! );
//! let hadoop = sim.run(&mut HadoopShuffle::new());
//! let jbs = sim.run(&mut JbsShuffle::new());
//! assert!(jbs.spilled_bytes == 0 && hadoop.bytes_shuffled == jbs.bytes_shuffled);
//! // The full paper testbed is ClusterConfig::paper_testbed(EngineKind::JbsOnRdma.protocol()).
//! # let _ = EngineKind::JbsOnRdma;
//! ```
//!
//! See `DESIGN.md` for the system inventory, `EXPERIMENTS.md` for
//! paper-vs-measured results, and `crates/bench` for the binaries that
//! regenerate every table and figure.

pub use jbs_control as control;
pub use jbs_core as core;
pub use jbs_des as des;
pub use jbs_disk as disk;
pub use jbs_jvm as jvm;
pub use jbs_mapred as mapred;
pub use jbs_net as net;
pub use jbs_obs as obs;
pub use jbs_store_hybrid as store_hybrid;
pub use jbs_transport as transport;
pub use jbs_workloads as workloads;

/// The real dataplane's configuration, built from one
/// [`core::JbsConfig`] by [`dataplane`]: the same knob block drives the
/// simulator and the TCP supplier, store, client and registry.
pub struct Dataplane {
    /// The NetMerger client: buffer size, pipelining window, retry
    /// budget and backoff, I/O deadline, breaker threshold.
    pub client: transport::ClientConfig,
    /// The MOFSupplier: buffer size, prefetch depth, the Fig. 4-vs-Fig. 5
    /// run-ahead switch, admission bounds, and the disk IO scheduler
    /// shared with [`Dataplane::hybrid`].
    pub server: transport::ServerOptions,
    /// The supplier's hybrid store: memory budget, spill watermarks,
    /// huge-partition limit and crash-consistency knobs. Pair it with
    /// [`transport::ServerOptions::hybrid`] via
    /// [`store_hybrid::HybridStore::new`]; with `durable_spill` on, pin
    /// `data_dir` so a restarted supplier can rebuild from it with
    /// [`store_hybrid::HybridStore::recover`].
    pub hybrid: store_hybrid::HybridConfig,
    /// The control plane's registry: heartbeat spacing, missed-beat
    /// expiry multiple and replication factor. The registry pushes its
    /// view into a [`transport::RouteTable`] (wired via
    /// [`transport::ClientConfig::routes`]); the data plane never calls
    /// the registry directly.
    pub registry: control::RegistryConfig,
}

/// Build the whole real dataplane's configuration from a
/// [`core::JbsConfig`].
///
/// The supplier's disk-worker reads and the hybrid store's spill
/// appends share one [`transport::IoScheduler`] (`server.iosched` and
/// `hybrid.spill_gate`), each class on its own independent permits: the
/// supplier runs one disk worker per Read permit and the store writes
/// one spill at a time, so neither class waits for a permit.
///
/// `max_connections` reaches only the supplier: the real client holds
/// exactly one connection per supplier, and the knob caps the
/// supplier's accepts and the simulated connection cache.
pub fn dataplane(cfg: &core::JbsConfig) -> Dataplane {
    use std::sync::Arc;
    use std::time::Duration;
    let duration = |t: des::SimTime| Duration::from_nanos(t.as_nanos());
    let iosched = Arc::new(transport::IoScheduler::new(
        cfg.io_read_permits,
        cfg.io_append_permits,
    ));
    Dataplane {
        client: transport::ClientConfig {
            buffer_bytes: cfg.buffer_bytes,
            // The simulator's read-ahead depth doubles as the pipelining
            // window: buffers in flight per supplier connection.
            window: cfg.prefetch_batch.max(1) as usize,
            retry: transport::RetryPolicy {
                max_retries: cfg.fetch_retry_max,
                base_backoff: duration(cfg.fetch_backoff_base),
                max_backoff: duration(cfg.fetch_backoff_max),
            },
            io_timeout: duration(cfg.fetch_io_timeout),
            breaker_threshold: cfg.breaker_threshold,
            ..transport::ClientConfig::default()
        },
        server: transport::ServerOptions {
            buffer_bytes: cfg.buffer_bytes,
            prefetch_batch: u64::from(cfg.prefetch_batch),
            prefetch: cfg.pipelined_prefetch,
            max_connections: cfg.max_connections as u64,
            max_inflight_per_peer: cfg.max_inflight_per_peer,
            iosched: Some(Arc::clone(&iosched)),
            ..transport::ServerOptions::default()
        },
        hybrid: store_hybrid::HybridConfig {
            memory_budget: cfg.hybrid_memory_budget as usize,
            high_watermark: cfg.memory_spill_high_watermark,
            low_watermark: cfg.memory_spill_low_watermark,
            huge_partition_limit: cfg.huge_partition_limit as usize,
            durable_spill: cfg.durable_spill,
            manifest_sync_interval: cfg.manifest_sync_interval,
            spill_gate: Some(iosched),
            ..store_hybrid::HybridConfig::default()
        },
        registry: control::RegistryConfig {
            heartbeat_interval_nanos: cfg.heartbeat_interval.as_nanos(),
            unhealthy_after_missed: cfg.unhealthy_after_missed,
            replication: cfg.replication_factor,
            ..control::RegistryConfig::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `JbsConfig`'s paper defaults are the defaults each dataplane
    /// config already has: building from `JbsConfig::default()` changes
    /// no field the bridge writes.
    #[test]
    fn paper_defaults_are_the_dataplane_defaults() {
        let dp = dataplane(&core::JbsConfig::default());

        let (c, d) = (&dp.client, transport::ClientConfig::default());
        assert_eq!(c.buffer_bytes, d.buffer_bytes);
        assert_eq!(c.window, d.window);
        assert_eq!(c.retry, d.retry);
        assert_eq!(c.io_timeout, d.io_timeout);
        assert_eq!(c.breaker_threshold, d.breaker_threshold);

        let (s, d) = (&dp.server, transport::ServerOptions::default());
        assert_eq!(s.buffer_bytes, d.buffer_bytes);
        assert_eq!(s.prefetch_batch, d.prefetch_batch);
        assert_eq!(s.prefetch, d.prefetch);
        assert_eq!(s.max_connections, d.max_connections);
        assert_eq!(s.max_inflight_per_peer, d.max_inflight_per_peer);
        let sched = s
            .iosched
            .as_ref()
            .expect("the bridge wires a scheduler")
            .stats();
        assert_eq!(
            sched.read_permits,
            transport::IoScheduler::DEFAULT_READ_PERMITS
        );
        assert_eq!(
            sched.append_permits,
            transport::IoScheduler::DEFAULT_APPEND_PERMITS
        );

        let (h, d) = (&dp.hybrid, store_hybrid::HybridConfig::default());
        assert_eq!(h.memory_budget, d.memory_budget);
        assert_eq!(h.high_watermark, d.high_watermark);
        assert_eq!(h.low_watermark, d.low_watermark);
        assert_eq!(h.huge_partition_limit, d.huge_partition_limit);
        assert_eq!(h.durable_spill, d.durable_spill);
        assert_eq!(h.manifest_sync_interval, d.manifest_sync_interval);

        let (r, d) = (&dp.registry, control::RegistryConfig::default());
        assert_eq!(r.heartbeat_interval_nanos, d.heartbeat_interval_nanos);
        assert_eq!(r.unhealthy_after_missed, d.unhealthy_after_missed);
        assert_eq!(r.replication, d.replication);
    }

    #[test]
    fn jbs_config_drives_the_real_dataplane() {
        let cfg = core::JbsConfig {
            fetch_retry_max: 7,
            buffer_bytes: 64 << 10,
            ..core::JbsConfig::default()
        };
        let tc = dataplane(&cfg).client;
        assert_eq!(tc.retry.max_retries, 7);
        assert_eq!(tc.buffer_bytes, 64 << 10);
        assert_eq!(tc.window, cfg.prefetch_batch as usize);
        assert_eq!(
            tc.io_timeout.as_nanos() as u64,
            cfg.fetch_io_timeout.as_nanos()
        );
        // The configured client actually works.
        let client = transport::NetMergerClient::with_client_config(tc);
        assert_eq!(client.fetch_stats().retries, 0);
    }

    #[test]
    fn jbs_config_drives_supplier_admission_control() {
        let cfg = core::JbsConfig {
            max_inflight_per_peer: 33,
            buffer_bytes: 64 << 10,
            breaker_threshold: 0,
            ..core::JbsConfig::default()
        };
        let Dataplane { client, server, .. } = dataplane(&cfg);
        assert_eq!(server.max_inflight_per_peer, 33);
        assert_eq!(server.buffer_bytes, 64 << 10);
        assert_eq!(server.max_connections, cfg.max_connections as u64);
        assert_eq!(client.breaker_threshold, 0, "breaker disable propagates");
    }

    #[test]
    fn jbs_config_drives_the_reactor_and_iosched() {
        let cfg = core::JbsConfig {
            io_read_permits: 9,
            io_append_permits: 5,
            pipelined_prefetch: false,
            ..core::JbsConfig::default()
        };
        let so = dataplane(&cfg).server;
        let sched = so.iosched.as_ref().expect("the bridge wires a scheduler");
        assert_eq!(sched.stats().read_permits, 9);
        assert_eq!(sched.stats().append_permits, 5);
        assert!(!so.prefetch, "Fig. 4 ablation reaches the reactor");
    }

    #[test]
    fn supplier_stack_shares_one_io_scheduler() {
        let Dataplane { server, hybrid, .. } = dataplane(&core::JbsConfig::default());
        let sched = server.iosched.expect("the bridge wires a scheduler");
        let gate = hybrid.spill_gate.expect("the bridge wires the spill gate");
        // The gate and the scheduler are the same instance: an append
        // permit taken through the hybrid store's gate shows up in the
        // supplier scheduler's gauges.
        gate.acquire_append();
        assert_eq!(sched.stats().append_held, 1);
        gate.release_append();
        assert_eq!(sched.stats().append_held, 0);
        assert_eq!(sched.stats().read_permits, 4);
    }

    #[test]
    fn jbs_config_drives_the_control_plane() {
        let cfg = core::JbsConfig {
            heartbeat_interval: des::SimTime::from_millis(100),
            unhealthy_after_missed: 5,
            replication_factor: 3,
            ..core::JbsConfig::default()
        };
        let rc = dataplane(&cfg).registry;
        assert_eq!(rc.heartbeat_interval_nanos, 100_000_000);
        assert_eq!(rc.unhealthy_after_missed, 5);
        assert_eq!(rc.replication, 3);
        // The configured registry expires at the mapped window.
        let addr = std::net::SocketAddr::from(([127, 0, 0, 1], 9));
        let registry = control::Registry::new(rc);
        registry.register(addr, 0);
        assert!(registry.tick(500_000_000).newly_unhealthy.is_empty());
        assert_eq!(registry.tick(500_000_001).newly_unhealthy, vec![addr]);
    }

    #[test]
    fn jbs_config_drives_the_hybrid_store() {
        let cfg = core::JbsConfig {
            hybrid_memory_budget: 1 << 20,
            memory_spill_high_watermark: 0.6,
            memory_spill_low_watermark: 0.3,
            huge_partition_limit: 128 << 10,
            ..core::JbsConfig::default()
        };
        let hc = dataplane(&cfg).hybrid;
        assert_eq!(hc.memory_budget, 1 << 20);
        assert_eq!(hc.huge_partition_limit, 128 << 10);
        assert!(hc.validate().is_ok());
        // The configured store actually spills at the mapped watermarks.
        let store = store_hybrid::HybridStore::new(hc).unwrap();
        store.append(0, 0, &vec![7u8; 700 << 10]).unwrap();
        let stats = store.stats();
        assert!(stats.spill_trips >= 1, "0.6 watermark tripped: {stats:?}");
        assert!(stats.memory_bytes <= (1 << 20) * 3 / 10);
    }

    #[test]
    fn jbs_config_drives_crash_consistent_spills() {
        let dir = std::env::temp_dir().join(format!("jbs-lib-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = core::JbsConfig {
            hybrid_memory_budget: 1 << 10,
            huge_partition_limit: 1 << 10,
            durable_spill: true,
            manifest_sync_interval: 1,
            ..core::JbsConfig::default()
        };
        let mut hc = dataplane(&cfg).hybrid;
        assert!(hc.durable_spill, "durability knob propagates");
        assert_eq!(hc.manifest_sync_interval, 1);
        hc.data_dir = Some(dir.join("data"));
        hc.remote_dir = Some(dir.join("remote"));
        // An oversize append lands durably; recover() from the same
        // directory rebuilds it byte-exact.
        let store = store_hybrid::HybridStore::new(hc.clone()).unwrap();
        let payload = vec![3u8; 4 << 10];
        store.append(5, 2, &payload).unwrap();
        store.close();
        drop(store);
        let (rec, report) = store_hybrid::HybridStore::recover(hc).unwrap();
        assert_eq!(report.recovered_bytes, payload.len() as u64);
        assert_eq!(
            rec.read_segment_range(5, 2, 0, 0).unwrap().as_deref(),
            Some(payload.as_slice())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
