//! Shared experiment plumbing for the figure binaries.

use jbs_core::{EngineKind, JbsConfig};
use jbs_mapred::{ClusterConfig, JobResult, JobSimulator, JobSpec};

/// Run one test case on the paper testbed scaled to `slaves` nodes.
pub fn run_case(kind: EngineKind, spec: JobSpec, slaves: usize, seed: u64) -> JobResult {
    let cfg = ClusterConfig::paper_testbed_scaled(kind.protocol(), slaves);
    let sim = JobSimulator::with_seed(cfg, spec, seed);
    let mut engine = kind.build();
    sim.run(engine.as_mut())
}

/// Run one test case with an explicit JBS configuration.
pub fn run_case_with(
    kind: EngineKind,
    jbs_cfg: JbsConfig,
    spec: JobSpec,
    slaves: usize,
    seed: u64,
) -> JobResult {
    let cfg = ClusterConfig::paper_testbed_scaled(kind.protocol(), slaves);
    let sim = JobSimulator::with_seed(cfg, spec, seed);
    let mut engine = kind.build_with(jbs_cfg);
    sim.run(engine.as_mut())
}

/// Average job time over `runs` seeds, matching the paper's "3 experiments,
/// report the average".
pub fn mean_job_secs(kind: EngineKind, spec: &JobSpec, slaves: usize, runs: u64) -> f64 {
    (0..runs)
        .map(|s| {
            run_case(kind, spec.clone(), slaves, 42 + s)
                .job_time
                .as_secs_f64()
        })
        .sum::<f64>()
        / runs as f64
}

/// A printable row of an experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Leftmost cell (x value or case name).
    pub key: String,
    /// One cell per series.
    pub cells: Vec<f64>,
}

/// Print a table with a title, column headers and rows of fixed-point
/// numbers — the same rows/series the paper's figures plot.
pub fn print_table(title: &str, xlabel: &str, series: &[String], rows: &[Row]) {
    println!("\n=== {title} ===");
    print!("{xlabel:>18}");
    for s in series {
        print!("  {s:>20}");
    }
    println!();
    for r in rows {
        print!("{:>18}", r.key);
        for c in &r.cells {
            print!("  {c:>20.1}");
        }
        println!();
    }
}

/// Percentage improvement of `new` over `base` (positive = faster).
pub fn improvement_pct(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        return 0.0;
    }
    (base - new) / base * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(100.0, 50.0), 50.0);
        assert_eq!(improvement_pct(0.0, 10.0), 0.0);
        assert!(improvement_pct(100.0, 120.0) < 0.0);
    }

    #[test]
    fn run_case_produces_consistent_results() {
        // Small smoke test on a scaled-down testbed.
        let spec = JobSpec::terasort(2 << 30);
        let a = run_case(EngineKind::JbsOnRdma, spec.clone(), 4, 1);
        let b = run_case(EngineKind::JbsOnRdma, spec, 4, 1);
        assert_eq!(a.job_time, b.job_time);
        assert_eq!(a.engine, "JBS");
    }
}
