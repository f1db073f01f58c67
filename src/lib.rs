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

/// Build the real-dataplane client configuration from a [`core::JbsConfig`]:
/// the same knob block drives both the simulator and the TCP NetMerger
/// (buffer size, pipelining window, retry budget, backoff, deadlines).
/// `max_connections` is not copied: the real client holds exactly one
/// connection per supplier, and the knob caps the supplier's accepts
/// ([`transport_server_options`]) and the simulated connection cache.
pub fn transport_client_config(cfg: &core::JbsConfig) -> transport::ClientConfig {
    use std::time::Duration;
    let io_timeout = Duration::from_nanos(cfg.fetch_io_timeout.as_nanos());
    transport::ClientConfig {
        buffer_bytes: cfg.buffer_bytes,
        // The simulator's read-ahead depth doubles as the pipelining
        // window: buffers in flight per supplier connection.
        window: cfg.prefetch_batch.max(1) as usize,
        retry: transport::RetryPolicy {
            max_retries: cfg.fetch_retry_max,
            base_backoff: Duration::from_nanos(cfg.fetch_backoff_base.as_nanos()),
            max_backoff: Duration::from_nanos(cfg.fetch_backoff_max.as_nanos()),
            ..transport::RetryPolicy::default()
        },
        connect_timeout: io_timeout,
        read_timeout: io_timeout,
        write_timeout: io_timeout,
        checksum: cfg.checksum,
        breaker_threshold: cfg.breaker_threshold,
        ..transport::ClientConfig::default()
    }
}

/// Build the real-dataplane supplier options from a [`core::JbsConfig`]:
/// buffer size, prefetch depth, the Fig. 4-vs-Fig. 5 run-ahead switch,
/// and the admission-control bounds that shed excess load with `Busy`
/// pushback instead of stalling.
pub fn transport_server_options(cfg: &core::JbsConfig) -> transport::ServerOptions {
    transport::ServerOptions {
        buffer_bytes: cfg.buffer_bytes,
        prefetch_batch: u64::from(cfg.prefetch_batch),
        prefetch: cfg.pipelined_prefetch,
        max_connections: cfg.max_connections as u64,
        max_inflight_per_peer: cfg.max_inflight_per_peer,
        reactor_threads: cfg.reactor_threads,
        io_read_permits: cfg.io_read_permits,
        io_append_permits: cfg.io_append_permits,
        ..transport::ServerOptions::default()
    }
}

/// Build the supplier options *and* a hybrid-store configuration that
/// share one [`transport::IoScheduler`]: the supplier's staging reads
/// and the hybrid store's spill appends then arbitrate for the same
/// disk through the scheduler's two permit classes, which is the whole
/// point of the scheduler — a spill burst queues on append permits
/// instead of stealing the head position from the prefetcher.
pub fn transport_supplier_stack(
    cfg: &core::JbsConfig,
) -> (transport::ServerOptions, store_hybrid::HybridConfig) {
    let sched = std::sync::Arc::new(transport::IoScheduler::new(
        cfg.io_read_permits,
        cfg.io_append_permits,
    ));
    let mut options = transport_server_options(cfg);
    options.iosched = Some(std::sync::Arc::clone(&sched));
    let mut hybrid = hybrid_store_config(cfg);
    hybrid.spill_gate = Some(sched);
    (options, hybrid)
}

/// Build the cluster control plane's registry configuration from a
/// [`core::JbsConfig`]: heartbeat spacing, the missed-beat expiry
/// multiple, and the replication factor map onto
/// [`control::RegistryConfig`]. The registry pushes its view into a
/// [`transport::RouteTable`] (wired via
/// [`transport::ClientConfig::routes`]) — the data plane never calls
/// the registry directly.
pub fn control_registry_config(cfg: &core::JbsConfig) -> control::RegistryConfig {
    control::RegistryConfig {
        heartbeat_interval_nanos: cfg.heartbeat_interval.as_nanos(),
        unhealthy_after_missed: cfg.unhealthy_after_missed,
        replication: cfg.replication_factor,
        ..control::RegistryConfig::default()
    }
}

/// Build a hybrid-store configuration from a [`core::JbsConfig`]: the
/// memory budget, spill watermarks, huge-partition limit, and
/// crash-consistency knobs map onto [`store_hybrid::HybridConfig`].
/// Pair the result with [`transport::ServerOptions::hybrid`] via
/// [`store_hybrid::HybridStore::new`] to give a supplier a memory tier;
/// with `durable_spill` on, pin `data_dir` so a restarted supplier can
/// rebuild from it with [`store_hybrid::HybridStore::recover`].
pub fn hybrid_store_config(cfg: &core::JbsConfig) -> store_hybrid::HybridConfig {
    store_hybrid::HybridConfig {
        memory_budget: cfg.hybrid_memory_budget as usize,
        high_watermark: cfg.memory_spill_high_watermark,
        low_watermark: cfg.memory_spill_low_watermark,
        huge_partition_limit: cfg.huge_partition_limit as usize,
        durable_spill: cfg.durable_spill,
        manifest_sync_interval: cfg.manifest_sync_interval,
        ..store_hybrid::HybridConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jbs_config_drives_the_real_dataplane() {
        let cfg = core::JbsConfig {
            fetch_retry_max: 7,
            buffer_bytes: 64 << 10,
            ..core::JbsConfig::default()
        };
        let tc = transport_client_config(&cfg);
        assert_eq!(tc.retry.max_retries, 7);
        assert_eq!(tc.buffer_bytes, 64 << 10);
        assert_eq!(tc.window, cfg.prefetch_batch as usize);
        assert_eq!(
            tc.read_timeout.as_nanos() as u64,
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
            checksum: false,
            breaker_threshold: 0,
            ..core::JbsConfig::default()
        };
        let so = transport_server_options(&cfg);
        assert_eq!(so.max_inflight_per_peer, 33);
        assert_eq!(so.buffer_bytes, 64 << 10);
        assert_eq!(so.max_connections, cfg.max_connections as u64);
        let tc = transport_client_config(&cfg);
        assert!(!tc.checksum, "v2 pin propagates");
        assert_eq!(tc.breaker_threshold, 0, "breaker disable propagates");
    }

    #[test]
    fn jbs_config_drives_the_reactor_and_iosched() {
        let cfg = core::JbsConfig {
            reactor_threads: 3,
            io_read_permits: 9,
            io_append_permits: 5,
            pipelined_prefetch: false,
            ..core::JbsConfig::default()
        };
        let so = transport_server_options(&cfg);
        assert_eq!(so.reactor_threads, 3);
        assert_eq!(so.io_read_permits, 9);
        assert_eq!(so.io_append_permits, 5);
        assert!(!so.prefetch, "Fig. 4 ablation reaches the reactor");
        assert!(so.iosched.is_none(), "plain options build their own scheduler");
    }

    #[test]
    fn supplier_stack_shares_one_io_scheduler() {
        let (so, hc) = transport_supplier_stack(&core::JbsConfig::default());
        let sched = so.iosched.expect("stack wires a scheduler");
        let gate = hc.spill_gate.expect("stack wires the spill gate");
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
        let rc = control_registry_config(&cfg);
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
        let hc = hybrid_store_config(&cfg);
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
        let mut hc = hybrid_store_config(&cfg);
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
