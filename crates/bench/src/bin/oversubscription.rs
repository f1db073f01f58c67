//! Beyond the paper: the shuffle under switch-core oversubscription.
//!
//! The paper's motivation (Sec. II) quotes production experience — shuffle
//! traffic "can consume more than 98% network bandwidth" and
//! "oversubscription can quickly saturate the network links" \[6\] — but its
//! testbed switch was non-blocking. This study sweeps the oversubscription
//! factor on the simulated fabric to ask: does JVM-bypass still matter
//! when the core, not the JVM, is the bottleneck?

use jbs_bench::runner::{improvement_pct, print_table, Row};
use jbs_core::EngineKind;
use jbs_mapred::{ClusterConfig, JobSimulator, JobSpec};

const INPUT: u64 = 64 << 30;

fn run(kind: EngineKind, factor: f64) -> f64 {
    let mut cfg = ClusterConfig::paper_testbed(kind.protocol());
    cfg.oversubscription = factor;
    let sim = JobSimulator::new(cfg, JobSpec::terasort(INPUT));
    let mut engine = kind.build();
    sim.run(engine.as_mut()).job_time.as_secs_f64()
}

fn main() {
    let kinds = [
        EngineKind::HadoopOnIpoIb,
        EngineKind::JbsOnIpoIb,
        EngineKind::JbsOnRdma,
    ];
    let series: Vec<String> = kinds.iter().map(|k| k.label()).collect();
    let mut rows = Vec::new();
    for factor in [1.0f64, 2.0, 4.0, 8.0, 16.0] {
        let cells: Vec<f64> = kinds.iter().map(|&k| run(k, factor)).collect();
        rows.push(Row {
            key: format!("{factor}:1"),
            cells,
        });
    }
    print_table(
        "Oversubscription study: Terasort 64 GB, 22 slaves, job time (sec)",
        "core oversub",
        &series,
        &rows,
    );
    let first = &rows[0];
    let last = rows.last().expect("rows");
    println!(
        "\nJBS-RDMA vs Hadoop-IPoIB gain: {:.1}% non-blocking -> {:.1}% at 16:1",
        improvement_pct(first.cells[0], first.cells[2]),
        improvement_pct(last.cells[0], last.cells[2]),
    );
    println!(
        "Once the core saturates, every engine converges toward core-limited time — \
         the Camdoop observation [6] that motivates in-network aggregation rather \
         than faster endpoints."
    );
}
