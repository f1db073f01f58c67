//! Shared simulated cluster state handed to shuffle engines.

use crate::cluster::ClusterConfig;
use jbs_des::{CpuMeter, DetRng, SimTime};
use jbs_disk::{FileId, NodeStorage};
use jbs_net::Fabric;

/// The live state of a simulated cluster during one job.
///
/// Engines receive `&mut SimCluster` and are expected to:
/// * read MOF bytes through [`SimCluster::storage`] (paying disk time),
/// * move bytes through [`SimCluster::fabric`] (paying wire time),
/// * charge every CPU cost to [`SimCluster::cpu`].
pub struct SimCluster {
    /// The static configuration.
    pub cfg: ClusterConfig,
    /// Per-slave storage (disks + page cache).
    pub storage: Vec<NodeStorage>,
    /// The network fabric for the configured protocol.
    pub fabric: Fabric,
    /// Per-slave CPU meters (`sar`-style bins).
    pub cpu: Vec<CpuMeter>,
    /// Deterministic randomness for the whole run.
    pub rng: DetRng,
    next_file: u64,
}

impl SimCluster {
    /// Build a cluster from its configuration, seeding all randomness.
    pub fn new(cfg: ClusterConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid cluster config");
        let storage = (0..cfg.slaves)
            .map(|_| NodeStorage::new(cfg.disks_per_node, cfg.disk.clone(), cfg.page_cache_bytes))
            .collect();
        let fabric = Fabric::with_oversubscription(cfg.slaves, cfg.protocol, cfg.oversubscription);
        let cpu = (0..cfg.slaves)
            .map(|_| CpuMeter::new(cfg.cores_per_node, cfg.cpu_sample_bin))
            .collect();
        SimCluster {
            storage,
            fabric,
            cpu,
            rng: DetRng::new(seed),
            next_file: 0,
            cfg,
        }
    }

    /// Allocate a fresh simulated file id.
    pub fn alloc_file(&mut self) -> FileId {
        let id = self.next_file;
        self.next_file += 1;
        FileId(id)
    }

    /// Charge one sequential thread's CPU on `node`.
    pub fn charge_cpu(&mut self, node: usize, start: SimTime, dur: SimTime) {
        self.cpu[node].charge_thread(start, dur);
    }

    /// Charge background thread overhead (fractional cores over a span).
    pub fn charge_background(&mut self, node: usize, start: SimTime, dur: SimTime, cores: f64) {
        self.cpu[node].charge(start, dur, cores);
    }

    /// Populate the page cache with every MOF (data + index) of `plan`, as
    /// if the map phase had just written them. Synthetic shuffle-only
    /// experiments use this to reproduce the paper's common case where
    /// fresh MOFs are still in "disk cache or system buffers" (Sec. V-A);
    /// MOFs larger than the cache naturally fall out.
    pub fn warm_mofs(&mut self, plan: &crate::sim::plan::ShufflePlan) {
        for mof in &plan.mofs {
            let bytes: u64 = mof.seg_bytes.iter().sum();
            let storage = &mut self.storage[mof.node];
            if bytes > 0 {
                storage.write(SimTime::ZERO, mof.file, 0, bytes);
            }
            storage.write(
                SimTime::ZERO,
                mof.index_file,
                0,
                24 * mof.seg_bytes.len() as u64 + 16,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jbs_net::Protocol;

    #[test]
    fn construction_matches_config() {
        let cfg = ClusterConfig::tiny(Protocol::Rdma);
        let c = SimCluster::new(cfg.clone(), 1);
        assert_eq!(c.storage.len(), cfg.slaves);
        assert_eq!(c.cpu.len(), cfg.slaves);
        assert_eq!(c.fabric.nodes(), cfg.slaves);
    }

    #[test]
    fn file_ids_are_unique() {
        let mut c = SimCluster::new(ClusterConfig::tiny(Protocol::Rdma), 1);
        let a = c.alloc_file();
        let b = c.alloc_file();
        assert_ne!(a, b);
    }

    #[test]
    fn cpu_charges_land_on_the_right_node() {
        let mut c = SimCluster::new(ClusterConfig::tiny(Protocol::Rdma), 1);
        c.charge_cpu(2, SimTime::ZERO, SimTime::from_secs(1));
        assert!(c.cpu[2].busy_core_secs() > 0.0);
        assert_eq!(c.cpu[0].busy_core_secs(), 0.0);
        c.charge_background(0, SimTime::ZERO, SimTime::from_secs(2), 0.5);
        assert!((c.cpu[0].busy_core_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        let mut cfg = ClusterConfig::tiny(Protocol::Rdma);
        cfg.slaves = 0;
        let _ = SimCluster::new(cfg, 1);
    }
}
