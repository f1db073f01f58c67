//! Cross-crate integration tests: full simulated jobs through every layer
//! (workloads → mapred simulator → shuffle engines → disk/net/jvm models),
//! checking conservation laws and cross-engine invariants.

use jbs::core::{EngineKind, HadoopShuffle, JbsShuffle};
use jbs::mapred::sim::ShuffleEngine;
use jbs::mapred::{ClusterConfig, JobResult, JobSimulator, JobSpec, ShufflePlan};
use jbs::net::Protocol;
use jbs::workloads::Benchmark;

fn tiny_sim(bytes: u64, protocol: Protocol) -> JobSimulator {
    JobSimulator::new(ClusterConfig::tiny(protocol), JobSpec::terasort(bytes))
}

#[test]
fn both_engines_conserve_shuffled_bytes() {
    let sim = tiny_sim(1 << 30, Protocol::IpoIb);
    let expect = 1i64 << 30;
    for r in [
        sim.run(&mut HadoopShuffle::new()),
        sim.run(&mut JbsShuffle::new()),
    ] {
        let diff = (r.bytes_shuffled as i64 - expect).unsigned_abs();
        assert!(diff < 64, "{}: shuffled {}", r.engine, r.bytes_shuffled);
    }
}

#[test]
fn engines_agree_on_the_map_phase() {
    // The map phase is engine-independent (JBS only replaces the shuffle).
    let sim = tiny_sim(1 << 30, Protocol::Rdma);
    let h = sim.run(&mut HadoopShuffle::new());
    let j = sim.run(&mut JbsShuffle::new());
    assert_eq!(h.map_phase_end, j.map_phase_end);
}

#[test]
fn every_table1_case_completes_every_benchmark() {
    for kind in EngineKind::all() {
        let cfg = ClusterConfig::tiny(kind.protocol());
        for bench in [Benchmark::Terasort, Benchmark::WordCount] {
            let sim = JobSimulator::new(cfg.clone(), bench.spec(256 << 20));
            let mut engine = kind.build();
            let r = sim.run(engine.as_mut());
            assert!(
                r.job_time > r.map_phase_end,
                "{} {:?}: no reduce phase",
                kind.label(),
                bench
            );
            assert!(r.reducer_done.iter().all(|&t| t <= r.job_time));
        }
    }
}

#[test]
fn jbs_never_spills_hadoop_does_under_pressure() {
    // 4 GiB over the tiny cluster: reducer inputs (~512 MB) overflow the
    // 700 MB shuffle buffer at the 66% trigger.
    let sim = tiny_sim(4 << 30, Protocol::IpoIb);
    let h = sim.run(&mut HadoopShuffle::new());
    let j = sim.run(&mut JbsShuffle::new());
    assert!(h.spilled_bytes > 0, "Hadoop should spill");
    assert_eq!(j.spilled_bytes, 0, "the levitated merge never spills");
}

#[test]
fn connection_counts_match_the_designs() {
    let sim = tiny_sim(1 << 30, Protocol::Rdma);
    let h = sim.run(&mut HadoopShuffle::new());
    let j = sim.run(&mut JbsShuffle::new());
    // Hadoop: one HTTP connection per segment fetch (16 MOFs x 8 reducers).
    assert_eq!(h.connections_established, 16 * 8);
    // JBS: at most one cached connection per node pair (4x4 incl. loopback).
    assert!(
        j.connections_established <= 16,
        "{}",
        j.connections_established
    );
    assert!(h.connections_established >= 8 * j.connections_established);
}

#[test]
fn deterministic_end_to_end_across_the_whole_stack() {
    let run = || -> (JobResult, JobResult) {
        let sim = tiny_sim(2 << 30, Protocol::RoCE);
        (
            sim.run(&mut HadoopShuffle::new()),
            sim.run(&mut JbsShuffle::new()),
        )
    };
    let (h1, j1) = run();
    let (h2, j2) = run();
    assert_eq!(h1.job_time, h2.job_time);
    assert_eq!(j1.job_time, j2.job_time);
    assert_eq!(h1.reducer_done, h2.reducer_done);
    assert_eq!(j1.reducer_done, j2.reducer_done);
}

#[test]
fn cpu_meters_cover_all_phases() {
    let sim = tiny_sim(1 << 30, Protocol::IpoIb);
    let r = sim.run(&mut JbsShuffle::new());
    let timeline = r.cpu_timeline();
    assert!(!timeline.is_empty());
    // Some bin in the map phase and some bin near the end must be busy.
    let map_bins = r.map_phase_end.as_secs_f64() as usize / 5;
    assert!(timeline[..map_bins.max(1)].iter().any(|&(_, u)| u > 0.0));
    assert!(timeline[map_bins.min(timeline.len() - 1)..]
        .iter()
        .any(|&(_, u)| u > 0.0));
    assert!(r.mean_cpu_utilization() > 0.0);
    assert!(r.mean_cpu_utilization() <= 100.0);
}

#[test]
fn more_nodes_speed_up_a_fixed_job() {
    // Strong scaling on the real testbed geometry (scaled input for test
    // speed): doubling nodes must cut the job time substantially.
    let spec = JobSpec::terasort(8 << 30);
    let small = JobSimulator::new(
        ClusterConfig::paper_testbed_scaled(Protocol::Rdma, 4),
        spec.clone(),
    )
    .run(&mut JbsShuffle::new());
    let large = JobSimulator::new(ClusterConfig::paper_testbed_scaled(Protocol::Rdma, 8), spec)
        .run(&mut JbsShuffle::new());
    let speedup = small.job_time.as_secs_f64() / large.job_time.as_secs_f64();
    assert!(speedup > 1.4, "8 vs 4 nodes speedup {speedup}");
}

#[test]
fn shuffle_engines_handle_single_node_clusters() {
    let mut cfg = ClusterConfig::tiny(Protocol::Tcp1GigE);
    cfg.slaves = 1;
    let sim = JobSimulator::new(cfg, JobSpec::terasort(128 << 20));
    let h = sim.run(&mut HadoopShuffle::new());
    let j = sim.run(&mut JbsShuffle::new());
    // Everything is a loopback fetch; both must still complete.
    assert!(h.job_time > h.map_phase_end);
    assert!(j.job_time > j.map_phase_end);
}

#[test]
fn synthetic_plans_run_via_the_public_engine_api() {
    use jbs::mapred::sim::SimCluster;
    let mut cluster = SimCluster::new(ClusterConfig::tiny(Protocol::Rdma), 9);
    let plan = ShufflePlan::synthetic(4, 2, 2, 1 << 20, 100);
    cluster.warm_mofs(&plan);
    let out = JbsShuffle::new().run(&mut cluster, &plan);
    assert_eq!(out.ready.len(), 8);
    assert_eq!(out.bytes_fetched, plan.total_shuffle_bytes());
}
