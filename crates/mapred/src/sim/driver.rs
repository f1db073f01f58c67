//! The job driver: map phase → shuffle engine → reduce phase → result.

use crate::cluster::ClusterConfig;
use crate::job::JobSpec;
use crate::sim::engine::ShuffleEngine;
use crate::sim::mapphase::run_map_phase;
use crate::sim::plan::{ReducerInfo, ShufflePlan};
use crate::sim::state::SimCluster;
use jbs_des::cpu::average_utilization;
use jbs_des::{CpuMeter, SimTime};
use jbs_disk::CachePolicy;

/// Output write granularity in the reduce phase.
const OUTPUT_WRITE_UNIT: u64 = 4 << 20;

/// CPU per output byte (serialization + HDFS write path).
const OUTPUT_WRITE_CPU_PER_BYTE: f64 = 1.0e-9;

/// Everything measured about one simulated job run.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Engine display name.
    pub engine: String,
    /// Job execution time (what the paper's figures plot).
    pub job_time: SimTime,
    /// When the last MapTask committed.
    pub map_phase_end: SimTime,
    /// When the last reducer's input was fetched and merged.
    pub shuffle_all_ready: SimTime,
    /// Bytes moved by the shuffle.
    pub bytes_shuffled: u64,
    /// Reduce-side bytes spilled to disk during shuffle/merge.
    pub spilled_bytes: u64,
    /// Connections the engine established.
    pub connections_established: u64,
    /// Connections torn down by the LRU cap.
    pub connections_evicted: u64,
    /// Per-node CPU meters for utilization analysis (Fig. 10).
    pub cpu: Vec<CpuMeter>,
    /// Per-reducer completion times.
    pub reducer_done: Vec<SimTime>,
    /// Aggregate disk-arm busy time across all nodes.
    pub disk_busy: SimTime,
    /// Aggregate positioning (seek) count across all nodes.
    pub disk_seeks: u64,
    /// Aggregate platter bytes read.
    pub disk_bytes_read: u64,
    /// Aggregate platter bytes written.
    pub disk_bytes_written: u64,
}

impl JobResult {
    /// Mean CPU utilization (%) across slaves over the job's lifetime —
    /// the quantity behind the paper's "lower\[s\] the CPU utilization by
    /// 48.1 %" claim.
    pub fn mean_cpu_utilization(&self) -> f64 {
        if self.cpu.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .cpu
            .iter()
            .map(|m| m.mean_utilization(Some(self.job_time)))
            .sum();
        sum / self.cpu.len() as f64
    }

    /// Mean CPU utilization (%) across slaves over an explicit window —
    /// the paper compares engines "in the same execution period"
    /// (Sec. V-D), i.e. over a common horizon.
    pub fn mean_cpu_utilization_over(&self, horizon: SimTime) -> f64 {
        if self.cpu.is_empty() || horizon == SimTime::ZERO {
            return 0.0;
        }
        let sum: f64 = self
            .cpu
            .iter()
            .map(|m| m.mean_utilization(Some(horizon)))
            .sum();
        sum / self.cpu.len() as f64
    }

    /// The `sar`-style average utilization timeline across slaves
    /// (Fig. 10's curves).
    pub fn cpu_timeline(&self) -> Vec<(SimTime, f64)> {
        average_utilization(&self.cpu)
    }
}

/// Runs one job on one cluster configuration with one shuffle engine.
pub struct JobSimulator {
    cfg: ClusterConfig,
    spec: JobSpec,
    seed: u64,
}

impl JobSimulator {
    /// A simulator with the default seed.
    pub fn new(cfg: ClusterConfig, spec: JobSpec) -> Self {
        Self::with_seed(cfg, spec, 42)
    }

    /// A simulator with an explicit seed (all runs are deterministic in
    /// `(cfg, spec, seed, engine)`).
    pub fn with_seed(cfg: ClusterConfig, spec: JobSpec, seed: u64) -> Self {
        cfg.validate().expect("invalid cluster config");
        spec.validate().expect("invalid job spec");
        JobSimulator { cfg, spec, seed }
    }

    /// The configured cluster.
    pub fn cluster_config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The configured job.
    pub fn job_spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Execute the job with `engine` and measure it.
    pub fn run(&self, engine: &mut dyn ShuffleEngine) -> JobResult {
        let mut cluster = SimCluster::new(self.cfg.clone(), self.seed);

        // --- Map phase ---------------------------------------------------
        let map = run_map_phase(&mut cluster, &self.spec);

        // --- Shuffle (pluggable) ------------------------------------------
        let reducers: Vec<ReducerInfo> = (0..self.cfg.num_reducers())
            .map(|id| ReducerInfo {
                id,
                node: id % self.cfg.slaves,
            })
            .collect();
        let plan = ShufflePlan {
            mofs: map.mofs,
            reducers,
            avg_record_bytes: self.spec.avg_record_bytes,
        };
        debug_assert!(plan.validate().is_ok());
        let outcome = engine.run(&mut cluster, &plan);
        assert_eq!(
            outcome.ready.len(),
            plan.reducers.len(),
            "engine must report every reducer"
        );

        // --- Reduce phase -------------------------------------------------
        let mut reducer_done = Vec::with_capacity(plan.reducers.len());
        let mut job_time = map.end;
        for r in &plan.reducers {
            let ready = outcome.ready[r.id];
            let input = plan.reducer_input_bytes(r.id);
            let reduce_cpu = SimTime::from_secs_f64(input as f64 * self.spec.reduce_cpu_per_byte);
            cluster.charge_cpu(r.node, ready, reduce_cpu);
            let mut t = ready + reduce_cpu;

            let out_bytes = (input as f64 * self.spec.output_ratio) as u64;
            if out_bytes > 0 {
                let out_file = cluster.alloc_file();
                let wcpu = SimTime::from_secs_f64(out_bytes as f64 * OUTPUT_WRITE_CPU_PER_BYTE);
                cluster.charge_cpu(r.node, t, wcpu);
                t += wcpu;
                let mut off = 0u64;
                while off + OUTPUT_WRITE_UNIT < out_bytes {
                    // Final output is a use-once stream: written back and
                    // reclaimed, never read again by this job.
                    cluster.storage[r.node].write_with(
                        t,
                        out_file,
                        off,
                        OUTPUT_WRITE_UNIT,
                        CachePolicy::Bypass,
                    );
                    off += OUTPUT_WRITE_UNIT;
                }
                // The final chunk is synchronous: the task commits only when
                // its output is durable, which drains the write queue.
                t = cluster.storage[r.node].write_sync_with(
                    t,
                    out_file,
                    off,
                    out_bytes - off,
                    CachePolicy::Bypass,
                );
            }
            t += self.spec.task_cleanup;
            reducer_done.push(t);
            job_time = job_time.max(t);
        }

        JobResult {
            engine: engine.name().to_string(),
            job_time,
            map_phase_end: map.end,
            shuffle_all_ready: outcome.all_ready(),
            bytes_shuffled: outcome.bytes_fetched,
            spilled_bytes: outcome.spilled_bytes,
            connections_established: outcome.connections_established,
            connections_evicted: outcome.connections_evicted,
            disk_busy: cluster.storage.iter().map(|s| s.total_disk_busy()).sum(),
            disk_seeks: cluster.storage.iter().map(|s| s.total_seeks()).sum(),
            disk_bytes_read: cluster.storage.iter().map(|s| s.total_bytes_read()).sum(),
            disk_bytes_written: cluster
                .storage
                .iter()
                .map(|s| s.total_bytes_written())
                .sum(),
            cpu: cluster.cpu,
            reducer_done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::engine::InstantShuffle;
    use jbs_net::Protocol;

    fn sim(gb: u64) -> JobSimulator {
        JobSimulator::new(
            ClusterConfig::tiny(Protocol::Rdma),
            JobSpec::terasort(gb << 30),
        )
    }

    #[test]
    fn job_phases_are_ordered() {
        let r = sim(1).run(&mut InstantShuffle);
        assert!(r.map_phase_end > SimTime::ZERO);
        assert!(r.shuffle_all_ready >= SimTime::ZERO);
        assert!(r.job_time >= r.map_phase_end);
        assert!(r.job_time >= r.shuffle_all_ready);
        assert_eq!(r.reducer_done.len(), 8);
        assert_eq!(r.engine, "Instant");
    }

    #[test]
    fn bigger_jobs_take_longer() {
        let a = sim(1).run(&mut InstantShuffle);
        let b = sim(2).run(&mut InstantShuffle);
        assert!(b.job_time > a.job_time);
        assert!(b.bytes_shuffled > a.bytes_shuffled);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = sim(1).run(&mut InstantShuffle);
        let b = sim(1).run(&mut InstantShuffle);
        assert_eq!(a.job_time, b.job_time);
        assert_eq!(a.reducer_done, b.reducer_done);
    }

    #[test]
    fn seed_changes_result_slightly() {
        let base = sim(1).run(&mut InstantShuffle);
        let other = JobSimulator::with_seed(
            ClusterConfig::tiny(Protocol::Rdma),
            JobSpec::terasort(1 << 30),
            7,
        )
        .run(&mut InstantShuffle);
        assert_ne!(base.job_time, other.job_time);
        // But not wildly: within 20%.
        let ratio = base.job_time.as_secs_f64() / other.job_time.as_secs_f64();
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cpu_utilization_is_sane() {
        let r = sim(1).run(&mut InstantShuffle);
        let u = r.mean_cpu_utilization();
        assert!(u > 0.0 && u <= 100.0, "utilization {u}");
        let timeline = r.cpu_timeline();
        assert!(!timeline.is_empty());
        assert!(timeline.iter().all(|&(_, v)| (0.0..=100.0).contains(&v)));
    }

    #[test]
    fn accessors() {
        let s = sim(1);
        assert_eq!(s.cluster_config().slaves, 4);
        assert_eq!(s.job_spec().name, "Terasort");
    }
}
