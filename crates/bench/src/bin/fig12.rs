//! Fig. 12: effectiveness on different benchmarks — the Tarazu suite plus
//! WordCount and Grep at 30 GB input, on InfiniBand (a) and Ethernet (b).

use jbs_bench::runner::{improvement_pct, print_table, run_case, Row};
use jbs_core::EngineKind;
use jbs_workloads::Benchmark;

fn sweep(title: &str, kinds: &[EngineKind]) -> Vec<Row> {
    let series: Vec<String> = kinds.iter().map(|k| k.label()).collect();
    let mut rows = Vec::new();
    for bench in Benchmark::figure12() {
        let cells: Vec<f64> = kinds
            .iter()
            .map(|&k| {
                run_case(k, bench.paper_spec(), 22, 42)
                    .job_time
                    .as_secs_f64()
            })
            .collect();
        rows.push(Row {
            key: bench.label().to_string(),
            cells,
        });
    }
    print_table(title, "benchmark", &series, &rows);
    rows
}

fn main() {
    let ib = sweep(
        "Fig. 12(a): Job Execution Time (sec), 30 GB input — InfiniBand Environment",
        &[
            EngineKind::HadoopOnIpoIb,
            EngineKind::JbsOnIpoIb,
            EngineKind::JbsOnRdma,
        ],
    );
    let eth = sweep(
        "Fig. 12(b): Job Execution Time (sec), 30 GB input — Ethernet Environment",
        &[
            EngineKind::HadoopOn10GigE,
            EngineKind::JbsOn10GigE,
            EngineKind::JbsOnRoce,
        ],
    );

    let shuffle_heavy = [
        "SelfJoin",
        "InvertedIndex",
        "SequenceCount",
        "AdjacencyList",
    ];
    let mean = |rows: &[Row], new: usize| {
        rows.iter()
            .filter(|r| shuffle_heavy.contains(&r.key.as_str()))
            .map(|r| improvement_pct(r.cells[0], r.cells[new]))
            .sum::<f64>()
            / shuffle_heavy.len() as f64
    };
    println!("\nHeadline comparisons over the four shuffle-heavy benchmarks");
    println!("(paper values in parentheses):");
    println!(
        "  JBS-RDMA vs Hadoop-IPoIB mean: {:.1}% (41%)",
        mean(&ib, 2)
    );
    println!(
        "  JBS-IPoIB vs Hadoop-IPoIB mean: {:.1}% (26.9%)",
        mean(&ib, 1)
    );
    println!(
        "  JBS-RoCE vs Hadoop-10GigE mean: {:.1}% (36.1%)",
        mean(&eth, 2)
    );
    println!(
        "  JBS-10GigE vs Hadoop-10GigE mean: {:.1}% (29.8%)",
        mean(&eth, 1)
    );
    let adj = ib.iter().find(|r| r.key == "AdjacencyList").expect("row");
    println!(
        "  Best case, AdjacencyList on RDMA: {:.1}% (66.3%)",
        improvement_pct(adj.cells[0], adj.cells[2])
    );
    for light in ["WordCount", "Grep"] {
        let r = ib.iter().find(|r| r.key == light).expect("row");
        println!(
            "  {light}: JBS-RDMA changes job time by {:+.1}% (paper: no gain expected)",
            improvement_pct(r.cells[0], r.cells[2])
        );
    }
}
