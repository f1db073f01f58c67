//! Sorting and k-way streaming merge of key/value runs.
//!
//! This is the algorithmic substrate shared by the MapTask's sort/spill,
//! the ReduceTask's sort/merge, and JBS's network-levitated merge: the
//! NetMerger merges *remote* segments by streaming their headers through
//! transport buffers and never materializing whole segments on disk
//! (Sec. III-C, and \[29\]). The merge here is a real algorithm operating on
//! real records — the simulator charges time for it, and the loopback
//! dataplane in `jbs-transport` runs it on genuine bytes.

use crate::levitate::{MemoryStream, StreamingMerge};

/// One key/value record.
pub type Record = (Vec<u8>, Vec<u8>);

/// Sort records by key (ties keep value order unspecified but
/// deterministic: value is the secondary key).
pub fn sort_run(records: &mut [Record]) {
    records.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
}

/// Check that a slice of records is non-decreasing by key.
pub fn is_sorted(records: &[Record]) -> bool {
    records.windows(2).all(|w| w[0].0 <= w[1].0)
}

/// Merge fully-materialized sorted runs into one sorted vector: the
/// [`StreamingMerge`] over in-memory streams. Among equal keys, records
/// from lower-indexed runs come first (stability across runs).
pub fn merge_sorted_runs(runs: Vec<Vec<Record>>) -> Vec<Record> {
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut merge = StreamingMerge::new(runs.into_iter().map(MemoryStream::new).collect());
    while let Some(rec) = merge.next_merged().expect("in-memory runs cannot fail") {
        out.push(rec);
    }
    out
}

/// Hierarchical merge (the paper's follow-up work \[22\], "Hierarchical
/// Merge for Efficient MapReduce"): when the number of runs exceeds the
/// fan-in, merge groups of `fanin` runs into intermediate runs and recurse,
/// bounding the merge heap to `fanin` entries at every level.
///
/// Produces exactly the same record sequence as a flat
/// [`merge_sorted_runs`]; the difference is the working-set bound, which
/// is what lets a NetMerger with thousands of segments keep per-segment
/// buffers small.
pub fn hierarchical_merge(mut runs: Vec<Vec<Record>>, fanin: usize) -> Vec<Record> {
    assert!(fanin >= 2, "fan-in must be at least 2");
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(fanin));
        let mut batch = Vec::with_capacity(fanin);
        for run in runs {
            batch.push(run);
            if batch.len() == fanin {
                next.push(merge_sorted_runs(std::mem::take(&mut batch)));
            }
        }
        if !batch.is_empty() {
            next.push(merge_sorted_runs(batch));
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

/// The number of merge passes a multi-pass (hierarchical) merge needs to
/// reduce `runs` runs with a fan-in of `fanin` (Hadoop's `io.sort.factor`).
pub fn merge_passes(runs: usize, fanin: usize) -> u32 {
    assert!(fanin >= 2, "fan-in must be at least 2");
    if runs <= 1 {
        return 0;
    }
    let mut passes = 0;
    let mut r = runs;
    while r > 1 {
        r = r.div_ceil(fanin);
        passes += 1;
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: &str, v: &str) -> Record {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn sort_run_orders_by_key() {
        let mut r = vec![rec("b", "2"), rec("a", "1"), rec("c", "3"), rec("a", "0")];
        sort_run(&mut r);
        assert!(is_sorted(&r));
        assert_eq!(r[0], rec("a", "0"));
        assert_eq!(r[1], rec("a", "1"));
    }

    #[test]
    fn merge_two_runs() {
        let a = vec![rec("a", "1"), rec("c", "3"), rec("e", "5")];
        let b = vec![rec("b", "2"), rec("d", "4"), rec("f", "6")];
        let merged = merge_sorted_runs(vec![a, b]);
        let keys: Vec<_> = merged.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![
                b"a".to_vec(),
                b"b".to_vec(),
                b"c".to_vec(),
                b"d".to_vec(),
                b"e".to_vec(),
                b"f".to_vec()
            ]
        );
    }

    #[test]
    fn merge_is_stable_across_runs() {
        let a = vec![rec("k", "from-run-0")];
        let b = vec![rec("k", "from-run-1")];
        let merged = merge_sorted_runs(vec![a, b]);
        assert_eq!(merged[0].1, b"from-run-0");
        assert_eq!(merged[1].1, b"from-run-1");
    }

    #[test]
    fn merge_handles_empty_and_uneven_runs() {
        let merged = merge_sorted_runs(vec![
            vec![],
            vec![rec("a", "1")],
            vec![],
            vec![rec("a", "2"), rec("b", "3"), rec("z", "9")],
        ]);
        assert_eq!(merged.len(), 4);
        assert!(is_sorted(&merged));
        assert!(merge_sorted_runs(vec![]).is_empty());
    }

    #[test]
    fn merge_of_many_runs_matches_global_sort() {
        use jbs_des::DetRng;
        let mut rng = DetRng::new(33);
        let mut all = Vec::new();
        let mut runs = Vec::new();
        for _ in 0..8 {
            let mut run: Vec<Record> = (0..100)
                .map(|_| {
                    let k = rng.uniform_u64(0, 1000);
                    (format!("{k:05}").into_bytes(), vec![0u8; 8])
                })
                .collect();
            sort_run(&mut run);
            all.extend(run.clone());
            runs.push(run);
        }
        let merged = merge_sorted_runs(runs);
        sort_run(&mut all);
        let merged_keys: Vec<_> = merged.iter().map(|(k, _)| k).collect();
        let all_keys: Vec<_> = all.iter().map(|(k, _)| k).collect();
        assert_eq!(merged_keys, all_keys);
    }

    #[test]
    fn hierarchical_merge_equals_flat_merge() {
        use jbs_des::DetRng;
        let mut rng = DetRng::new(55);
        let runs: Vec<Vec<Record>> = (0..23)
            .map(|_| {
                let mut run: Vec<Record> = (0..rng.uniform_u64(0, 40))
                    .map(|_| {
                        (
                            format!("{:04}", rng.uniform_u64(0, 500)).into_bytes(),
                            vec![1],
                        )
                    })
                    .collect();
                sort_run(&mut run);
                run
            })
            .collect();
        let flat = merge_sorted_runs(runs.clone());
        for fanin in [2usize, 3, 10, 64] {
            let hier = hierarchical_merge(runs.clone(), fanin);
            let hier_keys: Vec<&Vec<u8>> = hier.iter().map(|(k, _)| k).collect();
            let flat_keys: Vec<&Vec<u8>> = flat.iter().map(|(k, _)| k).collect();
            assert_eq!(hier_keys, flat_keys, "fan-in {fanin}");
            assert!(is_sorted(&hier));
        }
    }

    #[test]
    fn hierarchical_merge_edge_cases() {
        assert!(hierarchical_merge(vec![], 2).is_empty());
        let one = vec![vec![rec("a", "1")]];
        assert_eq!(hierarchical_merge(one, 2).len(), 1);
    }

    #[test]
    #[should_panic]
    fn hierarchical_merge_rejects_tiny_fanin() {
        hierarchical_merge(vec![vec![]], 1);
    }

    #[test]
    fn merge_passes_math() {
        assert_eq!(merge_passes(0, 10), 0);
        assert_eq!(merge_passes(1, 10), 0);
        assert_eq!(merge_passes(10, 10), 1);
        assert_eq!(merge_passes(11, 10), 2);
        assert_eq!(merge_passes(100, 10), 2);
        assert_eq!(merge_passes(101, 10), 3);
    }

    #[test]
    #[should_panic]
    fn merge_passes_rejects_tiny_fanin() {
        merge_passes(4, 1);
    }
}
