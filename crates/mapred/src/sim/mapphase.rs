//! Map-phase simulation.
//!
//! Each node runs up to `map_slots` MapTasks concurrently; a task reads its
//! (node-local — delay scheduling gives ~98 % locality \[31\]) HDFS block in
//! read units, burns map+sort CPU per unit, then writes its MOF and index
//! and commits. Concurrent tasks interleave at read-unit granularity, so
//! they contend for the node's two disk arms exactly as real streams do —
//! including the seek storms that concurrent streams induce.

use crate::job::JobSpec;
use crate::sim::plan::{split_segments, MofInfo};
use crate::sim::state::SimCluster;
use jbs_des::{DetRng, SimTime};
use jbs_disk::{CachePolicy, FileId};

/// Read unit for HDFS input streams (Hadoop reads big buffered chunks).
const INPUT_READ_UNIT: u64 = 4 << 20;

/// CPU cost per input byte of the HDFS read path (DataNode, checksums,
/// buffered stream copy) — shared by both engines since MapTasks always run
/// in the JVM.
const MAP_INPUT_CPU_PER_BYTE: f64 = 3.3e-9;

/// CPU cost per MOF byte for the map-side spill/merge writes.
const MOF_WRITE_CPU_PER_BYTE: f64 = 1.5e-9;

/// Write granularity for MOF commits: large buffered writes are issued in
/// these units so that concurrent readers can interleave on the disk arm.
const MOF_WRITE_UNIT: u64 = 4 << 20;

/// Result of the map phase.
pub struct MapPhaseResult {
    /// One entry per MapTask, ordered by MOF id.
    pub mofs: Vec<MofInfo>,
    /// When the last MapTask committed.
    pub end: SimTime,
}

struct RunningTask {
    mof_id: usize,
    input_file: FileId,
    offset: u64,
    remaining: u64,
    input_bytes: u64,
    cursor: SimTime,
}

/// Simulate every MapTask and return the shuffle plan inputs.
pub fn run_map_phase(cluster: &mut SimCluster, spec: &JobSpec) -> MapPhaseResult {
    let cfg = cluster.cfg.clone();
    let num_maps = spec.num_maps(cfg.block_bytes);
    let reducers = cfg.num_reducers();
    let mut seg_rng = cluster.rng.fork(0x5e95);

    // Pre-allocate ids and files so MOF ids are dense and deterministic.
    let mut task_input_bytes = vec![cfg.block_bytes; num_maps];
    let tail = spec.input_bytes - cfg.block_bytes * (num_maps as u64 - 1);
    task_input_bytes[num_maps - 1] = tail.max(1);

    let mut mofs: Vec<Option<MofInfo>> = (0..num_maps).map(|_| None).collect();
    let mut end = SimTime::ZERO;

    // Round-robin block placement across nodes.
    let mut node_tasks: Vec<Vec<usize>> = vec![Vec::new(); cfg.slaves];
    for m in 0..num_maps {
        node_tasks[m % cfg.slaves].push(m);
    }

    for (node, tasks) in node_tasks.iter().enumerate() {
        let mut jitter_rng = cluster.rng.fork(0xA11 + node as u64);
        let mut pending = tasks.clone();
        pending.reverse(); // pop() from the back yields original order
        let slots = cfg.map_slots as usize;
        let mut running: Vec<Option<RunningTask>> = Vec::with_capacity(slots);
        for _ in 0..slots {
            running.push(None);
        }

        // Seed each slot.
        for slot in running.iter_mut() {
            if let Some(m) = pending.pop() {
                *slot = Some(start_task(
                    cluster,
                    m,
                    task_input_bytes[m],
                    SimTime::ZERO,
                    spec,
                    &mut jitter_rng,
                ));
            }
        }

        // Advance the earliest-cursor task one read unit at a time.
        while let Some(slot_idx) = running
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (i, t.cursor)))
            .min_by_key(|&(_, c)| c)
            .map(|(i, _)| i)
        {
            let task = running[slot_idx].as_mut().expect("selected running slot");
            let unit = task.remaining.min(INPUT_READ_UNIT);
            let io = cluster.storage[node].read_with(
                task.cursor,
                task.input_file,
                task.offset,
                unit,
                CachePolicy::Bypass, // HDFS input is a use-once stream
            );
            let cpu = SimTime::from_secs_f64(
                unit as f64 * (MAP_INPUT_CPU_PER_BYTE + spec.map_cpu_per_byte),
            );
            cluster.charge_cpu(node, io.completed, cpu);
            task.offset += unit;
            task.remaining -= unit;
            task.cursor = io.completed + cpu;

            if task.remaining == 0 {
                let task = running[slot_idx].take().expect("slot had a task");
                let commit = finish_task(
                    cluster,
                    node,
                    &task,
                    spec,
                    reducers,
                    &mut seg_rng,
                    &mut mofs,
                );
                end = end.max(commit);
                if let Some(m) = pending.pop() {
                    running[slot_idx] = Some(start_task(
                        cluster,
                        m,
                        task_input_bytes[m],
                        commit,
                        spec,
                        &mut jitter_rng,
                    ));
                }
            }
        }
    }

    MapPhaseResult {
        mofs: mofs
            .into_iter()
            .map(|m| m.expect("all MOFs produced"))
            .collect(),
        end,
    }
}

fn start_task(
    cluster: &mut SimCluster,
    mof_id: usize,
    input_bytes: u64,
    slot_free: SimTime,
    spec: &JobSpec,
    jitter_rng: &mut DetRng,
) -> RunningTask {
    let init = jitter_rng.jitter(spec.task_init, 0.2);
    RunningTask {
        mof_id,
        input_file: cluster.alloc_file(),
        offset: 0,
        remaining: input_bytes,
        input_bytes,
        cursor: slot_free + init,
    }
}

fn finish_task(
    cluster: &mut SimCluster,
    node: usize,
    task: &RunningTask,
    spec: &JobSpec,
    reducers: usize,
    seg_rng: &mut DetRng,
    mofs: &mut [Option<MofInfo>],
) -> SimTime {
    let mof_bytes = (task.input_bytes as f64 * spec.shuffle_ratio) as u64;
    let data_file = cluster.alloc_file();
    let index_file = cluster.alloc_file();
    let mut t = task.cursor;
    if mof_bytes > 0 {
        // Buffered MOF write (returns immediately; arm charged async) plus
        // the CPU of formatting/spilling it. Issued in units so other
        // streams can interleave on the arm.
        let mut off = 0u64;
        while off < mof_bytes {
            let unit = MOF_WRITE_UNIT.min(mof_bytes - off);
            cluster.storage[node].write(t, data_file, off, unit);
            off += unit;
        }
        let wcpu = SimTime::from_secs_f64(mof_bytes as f64 * MOF_WRITE_CPU_PER_BYTE);
        cluster.charge_cpu(node, t, wcpu);
        t += wcpu;
    }
    // The index commit is synchronous (24 bytes per reducer).
    t = cluster.storage[node].write_sync(t, index_file, 0, 24 * reducers as u64 + 16);
    t += spec.task_cleanup;
    let seg_bytes = split_segments(mof_bytes, reducers, seg_rng);
    mofs[task.mof_id] = Some(MofInfo {
        mof_id: task.mof_id,
        node,
        file: data_file,
        index_file,
        ready: t,
        seg_bytes,
    });
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use jbs_net::Protocol;

    fn run(input_gb: u64) -> (SimCluster, MapPhaseResult, JobSpec) {
        let cfg = ClusterConfig::tiny(Protocol::Rdma);
        let mut cluster = SimCluster::new(cfg, 42);
        let spec = JobSpec::terasort(input_gb << 30);
        let result = run_map_phase(&mut cluster, &spec);
        (cluster, result, spec)
    }

    #[test]
    fn produces_one_mof_per_block() {
        let (_, r, spec) = run(1);
        assert_eq!(r.mofs.len(), spec.num_maps(64 << 20));
        for (i, m) in r.mofs.iter().enumerate() {
            assert_eq!(m.mof_id, i);
            assert!(m.ready > SimTime::ZERO);
            assert!(m.ready <= r.end);
        }
    }

    #[test]
    fn shuffle_bytes_conserved() {
        let (_, r, spec) = run(1);
        let total: u64 = r.mofs.iter().map(|m| m.seg_bytes.iter().sum::<u64>()).sum();
        // Within rounding of the float shuffle_ratio application per task.
        let expect = spec.shuffle_bytes();
        assert!(
            (total as i64 - expect as i64).unsigned_abs() < r.mofs.len() as u64 * 2,
            "total {total} vs expected {expect}"
        );
    }

    #[test]
    fn tasks_are_spread_across_nodes() {
        let (_, r, _) = run(1);
        let mut nodes: Vec<usize> = r.mofs.iter().map(|m| m.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 4, "all 4 tiny-cluster nodes used");
    }

    #[test]
    fn map_phase_charges_cpu_and_disk() {
        let (cluster, _, _) = run(1);
        for node in 0..4 {
            assert!(cluster.cpu[node].busy_core_secs() > 0.0);
            assert!(cluster.storage[node].total_bytes_read() > 0);
            assert!(cluster.storage[node].total_bytes_written() > 0);
        }
    }

    #[test]
    fn more_input_takes_longer() {
        let (_, small, _) = run(1);
        let (_, large, _) = run(4);
        assert!(large.end > small.end);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ClusterConfig::tiny(Protocol::Rdma);
        let spec = JobSpec::terasort(1 << 30);
        let mut c1 = SimCluster::new(cfg.clone(), 7);
        let mut c2 = SimCluster::new(cfg, 7);
        let r1 = run_map_phase(&mut c1, &spec);
        let r2 = run_map_phase(&mut c2, &spec);
        assert_eq!(r1.end, r2.end);
        for (a, b) in r1.mofs.iter().zip(r2.mofs.iter()) {
            assert_eq!(a.ready, b.ready);
            assert_eq!(a.seg_bytes, b.seg_bytes);
        }
    }

    #[test]
    fn waves_serialize_on_slots() {
        // 1 GB on the tiny cluster = 16 blocks over 8 slots = 2 waves; the
        // last commit should be noticeably after the 8th.
        let (_, r, _) = run(1);
        let mut readies: Vec<SimTime> = r.mofs.iter().map(|m| m.ready).collect();
        readies.sort_unstable();
        assert!(readies[15] > readies[7]);
    }
}
