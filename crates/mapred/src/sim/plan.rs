//! The shuffle plan: what the map phase produced, for the engines to move.

use jbs_des::{DetRng, SimTime};
use jbs_disk::FileId;

/// One Map Output File, as the shuffle engines see it.
#[derive(Debug, Clone)]
pub struct MofInfo {
    /// Dense MOF id (== MapTask id).
    pub mof_id: usize,
    /// Slave node holding the MOF.
    pub node: usize,
    /// Simulated data file.
    pub file: FileId,
    /// Simulated index file.
    pub index_file: FileId,
    /// When the MapTask committed the MOF (segments fetchable after this).
    pub ready: SimTime,
    /// Segment size per reducer, in bytes.
    pub seg_bytes: Vec<u64>,
}

/// One ReduceTask, as the shuffle engines see it.
#[derive(Debug, Clone, Copy)]
pub struct ReducerInfo {
    /// Dense reducer id (== partition number).
    pub id: usize,
    /// Slave node running this ReduceTask.
    pub node: usize,
}

/// Everything a shuffle engine needs to run.
#[derive(Debug, Clone)]
pub struct ShufflePlan {
    /// All MOFs, ordered by `mof_id`.
    pub mofs: Vec<MofInfo>,
    /// All reducers, ordered by `id`.
    pub reducers: Vec<ReducerInfo>,
    /// Average record size (for merge CPU costing).
    pub avg_record_bytes: u64,
}

impl ShufflePlan {
    /// Total bytes the shuffle must move.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.mofs
            .iter()
            .map(|m| m.seg_bytes.iter().sum::<u64>())
            .sum()
    }

    /// Bytes destined for reducer `r`.
    pub fn reducer_input_bytes(&self, r: usize) -> u64 {
        self.mofs.iter().map(|m| m.seg_bytes[r]).sum()
    }

    /// Time the last MOF became available.
    pub fn last_mof_ready(&self) -> SimTime {
        self.mofs
            .iter()
            .map(|m| m.ready)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Consistency checks used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let nr = self.reducers.len();
        for (i, m) in self.mofs.iter().enumerate() {
            if m.mof_id != i {
                return Err(format!("mof {i} has id {}", m.mof_id));
            }
            if m.seg_bytes.len() != nr {
                return Err(format!(
                    "mof {i} has {} segments for {nr} reducers",
                    m.seg_bytes.len()
                ));
            }
        }
        for (i, r) in self.reducers.iter().enumerate() {
            if r.id != i {
                return Err(format!("reducer {i} has id {}", r.id));
            }
        }
        Ok(())
    }
}

impl ShufflePlan {
    /// A synthetic all-ready plan for shuffle-only experiments: `mofs_per_node`
    /// MOFs on each of `nodes` nodes, every MOF committed at time zero with a
    /// `seg_bytes` segment for each of the `nodes * reducers_per_node`
    /// reducers. Useful for isolating shuffle behaviour from the map phase
    /// (micro-benchmarks, ablations, Fig. 2c).
    pub fn synthetic(
        nodes: usize,
        mofs_per_node: usize,
        reducers_per_node: usize,
        seg_bytes: u64,
        avg_record_bytes: u64,
    ) -> ShufflePlan {
        let num_reducers = nodes * reducers_per_node;
        let mofs = (0..nodes * mofs_per_node)
            .map(|i| MofInfo {
                mof_id: i,
                node: i % nodes,
                file: FileId(2 * i as u64),
                index_file: FileId(2 * i as u64 + 1),
                ready: SimTime::ZERO,
                seg_bytes: vec![seg_bytes; num_reducers],
            })
            .collect();
        let reducers = (0..num_reducers)
            .map(|id| ReducerInfo {
                id,
                node: id % nodes,
            })
            .collect();
        ShufflePlan {
            mofs,
            reducers,
            avg_record_bytes,
        }
    }
}

/// Split `total` intermediate bytes of one MOF across `reducers` partitions
/// with mild deterministic imbalance (±10 %), normalized to sum exactly to
/// `total`. Real partitioners (Terasort's sampled ranges, hash partitioners)
/// produce exactly this kind of near-uniform split.
pub fn split_segments(total: u64, reducers: usize, rng: &mut DetRng) -> Vec<u64> {
    assert!(reducers > 0);
    if total == 0 {
        return vec![0; reducers];
    }
    let weights: Vec<f64> = (0..reducers).map(|_| rng.uniform_f64(0.9, 1.1)).collect();
    let wsum: f64 = weights.iter().sum();
    let mut out: Vec<u64> = weights
        .iter()
        .map(|w| (total as f64 * w / wsum) as u64)
        .collect();
    // Push rounding residue onto the first partitions, one byte each.
    let assigned: u64 = out.iter().sum();
    let mut residue = total - assigned;
    let mut i = 0;
    while residue > 0 {
        out[i % reducers] += 1;
        residue -= 1;
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ShufflePlan {
        let mut rng = DetRng::new(7);
        let mofs = (0..4)
            .map(|i| MofInfo {
                mof_id: i,
                node: i % 2,
                file: FileId(i as u64),
                index_file: FileId(100 + i as u64),
                ready: SimTime::from_secs(i as u64),
                seg_bytes: split_segments(1000, 3, &mut rng),
            })
            .collect();
        let reducers = (0..3).map(|id| ReducerInfo { id, node: id % 2 }).collect();
        ShufflePlan {
            mofs,
            reducers,
            avg_record_bytes: 100,
        }
    }

    #[test]
    fn totals_are_conserved() {
        let p = plan();
        assert_eq!(p.total_shuffle_bytes(), 4000);
        let per_reducer: u64 = (0..3).map(|r| p.reducer_input_bytes(r)).sum();
        assert_eq!(per_reducer, 4000);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn last_ready_is_max() {
        assert_eq!(plan().last_mof_ready(), SimTime::from_secs(3));
    }

    #[test]
    fn split_sums_exactly_and_is_balanced() {
        let mut rng = DetRng::new(42);
        for total in [1u64, 999, 1 << 20, (1 << 30) + 7] {
            let parts = split_segments(total, 44, &mut rng);
            assert_eq!(parts.iter().sum::<u64>(), total);
            if total > 1000 {
                let base = total / 44;
                for &p in &parts {
                    assert!(p > base / 2 && p < base * 2, "part {p} vs base {base}");
                }
            }
        }
    }

    #[test]
    fn split_zero_total() {
        let mut rng = DetRng::new(1);
        assert_eq!(split_segments(0, 5, &mut rng), vec![0; 5]);
    }

    #[test]
    fn split_is_deterministic() {
        let a = split_segments(12345, 7, &mut DetRng::new(5));
        let b = split_segments(12345, 7, &mut DetRng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn synthetic_plan_is_valid_and_all_ready() {
        let p = ShufflePlan::synthetic(4, 2, 2, 1 << 20, 100);
        assert!(p.validate().is_ok());
        assert_eq!(p.mofs.len(), 8);
        assert_eq!(p.reducers.len(), 8);
        assert_eq!(p.last_mof_ready(), SimTime::ZERO);
        assert_eq!(p.total_shuffle_bytes(), (8 * 8) << 20);
        // Distinct file ids for data and index.
        let mut ids: Vec<u64> = p
            .mofs
            .iter()
            .flat_map(|m| [m.file.0, m.index_file.0])
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16);
    }

    #[test]
    fn validate_catches_shape_errors() {
        let mut p = plan();
        p.mofs[1].seg_bytes.pop();
        assert!(p.validate().is_err());
        let mut p2 = plan();
        p2.reducers[0].id = 9;
        assert!(p2.validate().is_err());
        let mut p3 = plan();
        p3.mofs[0].mof_id = 3;
        assert!(p3.validate().is_err());
    }
}
