//! The paper's headline claims, asserted as tests at reduced scale.
//!
//! These run the real experiment pipeline (the same code as the `fig*`
//! binaries) on a smaller cluster so `cargo test` stays fast; the full
//! 22-slave numbers live in EXPERIMENTS.md.

use jbs::core::{EngineKind, JbsConfig};
use jbs::mapred::{ClusterConfig, JobResult, JobSimulator, JobSpec};
use jbs::workloads::Benchmark;

const SLAVES: usize = 6;

fn run(kind: EngineKind, spec: JobSpec) -> JobResult {
    let cfg = ClusterConfig::paper_testbed_scaled(kind.protocol(), SLAVES);
    let sim = JobSimulator::new(cfg, spec);
    let mut engine = kind.build();
    sim.run(engine.as_mut())
}

fn run_with(kind: EngineKind, jbs: JbsConfig, spec: JobSpec) -> JobResult {
    let cfg = ClusterConfig::paper_testbed_scaled(kind.protocol(), SLAVES);
    let sim = JobSimulator::new(cfg, spec);
    let mut engine = kind.build_with(jbs);
    sim.run(engine.as_mut())
}

fn secs(r: &JobResult) -> f64 {
    r.job_time.as_secs_f64()
}

/// ~70 GB at 22 slaves ≈ 19 GB at 6 slaves: the disk-bound regime where
/// JBS's prefetching and spill-free merge dominate (Fig. 7's right side).
const LARGE: u64 = 40 << 30;
/// The cache-friendly regime (Fig. 7's left side).
const SMALL: u64 = 6 << 30;

#[test]
fn jbs_beats_hadoop_on_large_jobs_fig7() {
    let hadoop = run(EngineKind::HadoopOnIpoIb, JobSpec::terasort(LARGE));
    let jbs = run(EngineKind::JbsOnIpoIb, JobSpec::terasort(LARGE));
    let gain = (secs(&hadoop) - secs(&jbs)) / secs(&hadoop);
    assert!(
        gain > 0.10,
        "JBS-IPoIB vs Hadoop-IPoIB at large size: {:.1}% (paper: 14-22%)",
        gain * 100.0
    );
}

#[test]
fn high_speed_networks_help_hadoop_only_when_cached_fig7() {
    let small_1g = run(EngineKind::HadoopOn1GigE, JobSpec::terasort(SMALL));
    let small_ipoib = run(EngineKind::HadoopOnIpoIb, JobSpec::terasort(SMALL));
    let small_gain = (secs(&small_1g) - secs(&small_ipoib)) / secs(&small_1g);
    assert!(
        small_gain > 0.20,
        "IPoIB should speed small Hadoop jobs: {:.1}% (paper: ~55%)",
        small_gain * 100.0
    );

    let large_10g = run(EngineKind::HadoopOn10GigE, JobSpec::terasort(LARGE));
    let large_ipoib = run(EngineKind::HadoopOnIpoIb, JobSpec::terasort(LARGE));
    let large_gap = (secs(&large_10g) - secs(&large_ipoib)).abs() / secs(&large_10g);
    assert!(
        large_gap < 0.10,
        "at large sizes fast networks converge for Hadoop (disk-bound): gap {:.1}%",
        large_gap * 100.0
    );
}

#[test]
fn hadoop_ipoib_and_sdp_are_close_fig7a() {
    let ipoib = run(EngineKind::HadoopOnIpoIb, JobSpec::terasort(SMALL));
    let sdp = run(EngineKind::HadoopOnSdp, JobSpec::terasort(SMALL));
    let gap = (secs(&ipoib) - secs(&sdp)).abs() / secs(&ipoib);
    assert!(
        gap < 0.05,
        "IPoIB vs SDP gap {:.1}% (paper: 'very close')",
        gap * 100.0
    );
}

#[test]
fn rdma_beats_ipoib_for_jbs_fig8() {
    let ipoib = run(EngineKind::JbsOnIpoIb, JobSpec::terasort(SMALL));
    let rdma = run(EngineKind::JbsOnRdma, JobSpec::terasort(SMALL));
    assert!(
        secs(&rdma) < secs(&ipoib),
        "RDMA {:.1}s vs IPoIB {:.1}s",
        secs(&rdma),
        secs(&ipoib)
    );
    let roce = run(EngineKind::JbsOnRoce, JobSpec::terasort(SMALL));
    let tcp10 = run(EngineKind::JbsOn10GigE, JobSpec::terasort(SMALL));
    assert!(
        secs(&roce) < secs(&tcp10),
        "RoCE must beat TCP on the same wire"
    );
}

#[test]
fn jbs_halves_cpu_utilization_fig10() {
    let hadoop = run(EngineKind::HadoopOnIpoIb, JobSpec::terasort(LARGE));
    let jbs = run(EngineKind::JbsOnIpoIb, JobSpec::terasort(LARGE));
    let cut = (hadoop.mean_cpu_utilization() - jbs.mean_cpu_utilization())
        / hadoop.mean_cpu_utilization();
    assert!(
        (0.25..0.75).contains(&cut),
        "CPU utilization reduction {:.1}% (paper: 48.1%)",
        cut * 100.0
    );
}

#[test]
fn buffer_sweet_spot_is_around_128kb_fig11() {
    let spec = JobSpec::terasort(SMALL);
    let t8 = secs(&run_with(
        EngineKind::JbsOnRdma,
        JbsConfig::with_buffer(8 << 10),
        spec.clone(),
    ));
    let t128 = secs(&run_with(
        EngineKind::JbsOnRdma,
        JbsConfig::with_buffer(128 << 10),
        spec.clone(),
    ));
    let t512 = secs(&run_with(
        EngineKind::JbsOnRdma,
        JbsConfig::with_buffer(512 << 10),
        spec,
    ));
    assert!(t128 < t8, "128KB {t128:.1}s must beat 8KB {t8:.1}s");
    assert!(
        t512 < t8 && (t512 - t128) / t128 > -0.10,
        "curve levels off past 128KB: 128KB {t128:.1}s, 512KB {t512:.1}s"
    );
}

#[test]
fn shuffle_heavy_benchmarks_gain_light_ones_do_not_fig12() {
    // Large enough that the shuffle-heavy intermediate data overflows the
    // 6 GB/node page cache on 6 slaves — the regime where JBS's prefetch
    // and spill-free merge matter (WordCount/Grep stay tiny and cached).
    let scale = 24u64 << 30;
    let gain = |b: Benchmark| {
        let h = run(EngineKind::HadoopOnIpoIb, b.spec(scale));
        let j = run(EngineKind::JbsOnRdma, b.spec(scale));
        (secs(&h) - secs(&j)) / secs(&h)
    };
    let adjacency = gain(Benchmark::AdjacencyList);
    let wordcount = gain(Benchmark::WordCount);
    let grep = gain(Benchmark::Grep);
    assert!(
        adjacency > 0.10,
        "AdjacencyList gain {:.1}% (paper: up to 66.3%)",
        adjacency * 100.0
    );
    assert!(
        adjacency > wordcount + 0.10 && adjacency > grep + 0.10,
        "shuffle-heavy must gain much more: adj {:.2} vs wc {:.2} / grep {:.2}",
        adjacency,
        wordcount,
        grep
    );
    assert!(
        wordcount.abs() < 0.25 && grep.abs() < 0.25,
        "WordCount/Grep see no large change: {:.2} / {:.2}",
        wordcount,
        grep
    );
}

#[test]
fn strong_scaling_reduces_job_time_fig9() {
    let spec = JobSpec::terasort(24 << 30);
    let small = JobSimulator::new(
        ClusterConfig::paper_testbed_scaled(EngineKind::JbsOnRdma.protocol(), 4),
        spec.clone(),
    )
    .run(EngineKind::JbsOnRdma.build().as_mut());
    let large = JobSimulator::new(
        ClusterConfig::paper_testbed_scaled(EngineKind::JbsOnRdma.protocol(), 8),
        spec,
    )
    .run(EngineKind::JbsOnRdma.build().as_mut());
    assert!(small.job_time.as_secs_f64() / large.job_time.as_secs_f64() > 1.5);
}

#[test]
fn weak_scaling_is_stable_fig9() {
    // 6 GB per reducer: doubling nodes doubles input; time should stay
    // roughly flat.
    let t = |slaves: usize| {
        let input = 6u64 << 30;
        let spec = JobSpec::terasort(input * 2 * slaves as u64);
        let cfg = ClusterConfig::paper_testbed_scaled(EngineKind::JbsOnRdma.protocol(), slaves);
        JobSimulator::new(cfg, spec)
            .run(EngineKind::JbsOnRdma.build().as_mut())
            .job_time
            .as_secs_f64()
    };
    let t4 = t(4);
    let t8 = t(8);
    let drift = (t8 - t4).abs() / t4;
    assert!(drift < 0.25, "weak scaling drift {:.1}%", drift * 100.0);
}
