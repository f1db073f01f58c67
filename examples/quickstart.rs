//! Quickstart: run one simulated Terasort job with the stock Hadoop
//! shuffle and with JVM-Bypass Shuffling, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use jbs::core::{HadoopShuffle, JbsShuffle};
use jbs::mapred::{ClusterConfig, JobResult, JobSimulator, JobSpec};
use jbs::net::Protocol;

fn report(r: &JobResult) {
    println!(
        "{:<8}  job {:>7.1}s  (map {:>6.1}s, shuffle-ready {:>6.1}s)  \
         cpu {:>4.1}%  spilled {:>5.2} GB  connections {:>5}",
        r.engine,
        r.job_time.as_secs_f64(),
        r.map_phase_end.as_secs_f64(),
        r.shuffle_all_ready.as_secs_f64(),
        r.mean_cpu_utilization(),
        r.spilled_bytes as f64 / (1u64 << 30) as f64,
        r.connections_established,
    );
}

fn main() {
    // Terasort 64 GB on the paper's 22-slave testbed over InfiniBand.
    let input = 64u64 << 30;
    let cfg = ClusterConfig::paper_testbed(Protocol::IpoIb);
    let sim = JobSimulator::new(cfg, JobSpec::terasort(input));

    println!(
        "Terasort {} GB, 22 slaves, IPoIB on InfiniBand\n",
        input >> 30
    );
    let hadoop = sim.run(&mut HadoopShuffle::new());
    report(&hadoop);
    let jbs = sim.run(&mut JbsShuffle::new());
    report(&jbs);

    let speedup = hadoop.job_time.as_secs_f64() / jbs.job_time.as_secs_f64();
    let cpu_cut = (hadoop.mean_cpu_utilization() - jbs.mean_cpu_utilization())
        / hadoop.mean_cpu_utilization()
        * 100.0;
    println!(
        "\nJVM-bypass: {:.2}x faster, {:.0}% lower CPU utilization, \
         {} fewer connections, zero reduce-side spills",
        speedup,
        cpu_cut,
        hadoop.connections_established - jbs.connections_established,
    );
}
