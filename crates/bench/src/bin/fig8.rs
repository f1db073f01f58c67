//! Fig. 8: benefits of RDMA — Terasort with JBS on 10GigE, IPoIB, RoCE and
//! RDMA vs input size.

use jbs_bench::runner::{improvement_pct, print_table, run_case, Row};
use jbs_core::EngineKind;
use jbs_mapred::JobSpec;

fn main() {
    let kinds = [
        EngineKind::JbsOn10GigE,
        EngineKind::JbsOnIpoIb,
        EngineKind::JbsOnRoce,
        EngineKind::JbsOnRdma,
    ];
    let series: Vec<String> = kinds.iter().map(|k| k.label()).collect();
    let mut rows = Vec::new();
    for gb in [16u64, 32, 64, 128, 256] {
        let cells: Vec<f64> = kinds
            .iter()
            .map(|&k| {
                run_case(k, JobSpec::terasort(gb << 30), 22, 42)
                    .job_time
                    .as_secs_f64()
            })
            .collect();
        rows.push(Row {
            key: format!("{gb} GB"),
            cells,
        });
    }
    print_table(
        "Fig. 8: Terasort Job Execution Time (sec) — JBS across protocols",
        "input size",
        &series,
        &rows,
    );

    let rdma_vs_ipoib = rows
        .iter()
        .map(|r| improvement_pct(r.cells[1], r.cells[3]))
        .sum::<f64>()
        / rows.len() as f64;
    let roce_vs_10g = rows
        .iter()
        .map(|r| improvement_pct(r.cells[0], r.cells[2]))
        .sum::<f64>()
        / rows.len() as f64;
    println!("\nHeadline comparisons (paper values in parentheses):");
    println!("  JBS-RDMA vs JBS-IPoIB, mean improvement: {rdma_vs_ipoib:.1}% (25.8%)");
    println!("  JBS-RoCE vs JBS-10GigE, mean improvement: {roce_vs_10g:.1}% (15.3%)");
    let all_better = rows
        .iter()
        .all(|r| r.cells[3] <= r.cells[1] + 0.5 && r.cells[2] <= r.cells[0] + 0.5);
    println!(
        "  RDMA/RoCE at least as fast at every size: {}",
        if all_better { "yes (paper: yes)" } else { "NO" }
    );
}
