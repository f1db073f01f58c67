//! Job specifications for every benchmark in the paper's evaluation.

use jbs_des::SimTime;
use jbs_mapred::JobSpec;

/// Input size used for the Tarazu suite in Sec. V-F: 30 GB.
pub const BENCH_INPUT_BYTES: u64 = 30 << 30;

/// The benchmarks of Figures 7–12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Terasort: intermediate data equals input (the paper's main
    /// data-intensive workload).
    Terasort,
    /// Tarazu SelfJoin on database data (shuffle-heavy).
    SelfJoin,
    /// Tarazu InvertedIndex on wikipedia data (shuffle-heavy).
    InvertedIndex,
    /// Tarazu SequenceCount on wikipedia data (shuffle-heavy).
    SequenceCount,
    /// Tarazu AdjacencyList on database data (the most shuffle- and
    /// merge-intensive; JBS's best case at 66.3 % improvement).
    AdjacencyList,
    /// Hadoop WordCount (tiny intermediate data — no JBS gain expected).
    WordCount,
    /// Hadoop Grep (tiny intermediate data — no JBS gain expected).
    Grep,
}

impl Benchmark {
    /// The six benchmarks of Fig. 12, in the paper's bar order.
    pub fn figure12() -> [Benchmark; 6] {
        [
            Benchmark::SelfJoin,
            Benchmark::InvertedIndex,
            Benchmark::SequenceCount,
            Benchmark::AdjacencyList,
            Benchmark::WordCount,
            Benchmark::Grep,
        ]
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Benchmark::Terasort => "Terasort",
            Benchmark::SelfJoin => "SelfJoin",
            Benchmark::InvertedIndex => "InvertedIndex",
            Benchmark::SequenceCount => "SequenceCount",
            Benchmark::AdjacencyList => "AdjacencyList",
            Benchmark::WordCount => "WordCount",
            Benchmark::Grep => "Grep",
        }
    }

    /// True for the benchmarks whose MapTasks "generate a lot of
    /// intermediate data to be shuffled" (Sec. V-F, first type).
    pub fn is_shuffle_heavy(self) -> bool {
        !matches!(self, Benchmark::WordCount | Benchmark::Grep)
    }

    /// The job specification at `input_bytes` of input.
    ///
    /// Ratios are modeled after the Tarazu characterization: the four
    /// shuffle-heavy benchmarks emit at least as much intermediate data as
    /// they read (AdjacencyList the most, with the smallest records, which
    /// is why its shuffle/merge dominates and JBS helps most);
    /// WordCount/Grep combine away almost everything map-side.
    pub fn spec(self, input_bytes: u64) -> JobSpec {
        let (shuffle, output, map_cpu, reduce_cpu, record): (f64, f64, f64, f64, u64) = match self {
            Benchmark::Terasort => (1.0, 1.0, 10.0e-9, 3.0e-9, 100),
            Benchmark::SelfJoin => (1.25, 0.25, 6.0e-9, 5.0e-9, 60),
            Benchmark::InvertedIndex => (1.05, 0.30, 9.0e-9, 6.0e-9, 40),
            Benchmark::SequenceCount => (1.60, 0.40, 10.0e-9, 6.0e-9, 48),
            Benchmark::AdjacencyList => (2.10, 0.50, 7.0e-9, 8.0e-9, 32),
            Benchmark::WordCount => (0.06, 0.30, 12.0e-9, 4.0e-9, 20),
            Benchmark::Grep => (0.01, 0.50, 8.0e-9, 3.0e-9, 80),
        };
        JobSpec {
            name: self.label().to_string(),
            input_bytes,
            shuffle_ratio: shuffle,
            output_ratio: output,
            map_cpu_per_byte: map_cpu,
            reduce_cpu_per_byte: reduce_cpu,
            avg_record_bytes: record,
            task_init: SimTime::from_millis(1500),
            task_cleanup: SimTime::from_millis(500),
        }
    }

    /// The paper's standard 30 GB Tarazu input.
    pub fn paper_spec(self) -> JobSpec {
        self.spec(BENCH_INPUT_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure12_order_matches_paper() {
        let labels: Vec<_> = Benchmark::figure12().iter().map(|b| b.label()).collect();
        assert_eq!(
            labels,
            vec![
                "SelfJoin",
                "InvertedIndex",
                "SequenceCount",
                "AdjacencyList",
                "WordCount",
                "Grep"
            ]
        );
    }

    #[test]
    fn shuffle_heavy_classification() {
        assert!(Benchmark::SelfJoin.is_shuffle_heavy());
        assert!(Benchmark::AdjacencyList.is_shuffle_heavy());
        assert!(!Benchmark::WordCount.is_shuffle_heavy());
        assert!(!Benchmark::Grep.is_shuffle_heavy());
    }

    #[test]
    fn shuffle_ratios_match_the_two_types() {
        for b in Benchmark::figure12() {
            let s = b.paper_spec();
            assert!(s.validate().is_ok(), "{:?}", b);
            if b.is_shuffle_heavy() {
                assert!(s.shuffle_ratio > 0.9, "{:?} ratio {}", b, s.shuffle_ratio);
            } else {
                assert!(s.shuffle_ratio < 0.1, "{:?} ratio {}", b, s.shuffle_ratio);
            }
        }
    }

    #[test]
    fn adjacency_list_is_the_heaviest() {
        let adj = Benchmark::AdjacencyList.paper_spec();
        for b in Benchmark::figure12() {
            if b != Benchmark::AdjacencyList {
                assert!(adj.shuffle_ratio >= b.paper_spec().shuffle_ratio);
            }
        }
    }

    #[test]
    fn terasort_matches_mapred_builtin() {
        let a = Benchmark::Terasort.spec(32 << 30);
        let b = JobSpec::terasort(32 << 30);
        assert_eq!(a.shuffle_ratio, b.shuffle_ratio);
        assert_eq!(a.avg_record_bytes, b.avg_record_bytes);
    }

    #[test]
    fn paper_input_is_30gb() {
        assert_eq!(BENCH_INPUT_BYTES, 30 << 30);
        assert_eq!(Benchmark::Grep.paper_spec().input_bytes, 30 << 30);
    }
}
