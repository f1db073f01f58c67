//! External sorting: the MapTask's sort/spill/merge pipeline, for real.
//!
//! A MapTask buffers map output in memory (`io.sort.mb`), sorts and spills
//! sorted runs to disk when the buffer fills, and finally merges the runs
//! into the MOF's per-reducer segments. The simulator charges time for
//! this; here is the actual algorithm, used by examples and tests that
//! build genuine MOFs larger than memory. Spill files use the MOF segment
//! record format, and the final merge streams them back through
//! [`crate::levitate`] with bounded memory.

use crate::levitate::{MemoryStream, RecordParser, RecordStream, StreamingMerge};
use crate::merge::{sort_run, Record};
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Marker terminating a spill file's record stream (MOF format).
const END_MARKER: u32 = 0xFFFF_FFFF;

/// Bytes read from a spill file per refill of its parser.
const SPILL_BLOCK: u64 = 64 << 10;

/// Statistics from one external sort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Records sorted.
    pub records: u64,
    /// Sorted runs spilled to disk.
    pub spills: u64,
    /// Bytes written to spill files.
    pub spilled_bytes: u64,
}

/// An external sorter with a fixed in-memory budget.
pub struct ExternalSorter {
    dir: PathBuf,
    budget_bytes: usize,
    current: Vec<Record>,
    current_bytes: usize,
    spill_files: Vec<PathBuf>,
    stats: SortStats,
}

impl ExternalSorter {
    /// A sorter spilling into `dir` when buffered records exceed
    /// `budget_bytes`.
    pub fn new(dir: &Path, budget_bytes: usize) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(ExternalSorter {
            dir: dir.to_path_buf(),
            budget_bytes: budget_bytes.max(1),
            current: Vec::new(),
            current_bytes: 0,
            spill_files: Vec::new(),
            stats: SortStats::default(),
        })
    }

    /// Add one record, spilling if the buffer is full.
    pub fn add(&mut self, key: Vec<u8>, value: Vec<u8>) -> io::Result<()> {
        self.current_bytes += 8 + key.len() + value.len();
        self.current.push((key, value));
        self.stats.records += 1;
        if self.current_bytes >= self.budget_bytes {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> io::Result<()> {
        if self.current.is_empty() {
            return Ok(());
        }
        sort_run(&mut self.current);
        let path = self
            .dir
            .join(format!("spill-{}.run", self.spill_files.len()));
        let mut w = BufWriter::new(File::create(&path)?);
        for (k, v) in self.current.drain(..) {
            w.write_all(&(k.len() as u32).to_be_bytes())?;
            w.write_all(&(v.len() as u32).to_be_bytes())?;
            w.write_all(&k)?;
            w.write_all(&v)?;
            self.stats.spilled_bytes += 8 + k.len() as u64 + v.len() as u64;
        }
        w.write_all(&END_MARKER.to_be_bytes())?;
        w.flush()?;
        self.spill_files.push(path);
        self.stats.spills += 1;
        self.current_bytes = 0;
        Ok(())
    }

    /// Number of runs spilled so far.
    pub fn spills(&self) -> u64 {
        self.stats.spills
    }

    /// Finish: merge the in-memory run and every spill into one sorted
    /// vector (the final merge streams spills with bounded memory).
    /// Spill files are removed afterwards.
    pub fn finish(mut self) -> io::Result<(Vec<Record>, SortStats)> {
        sort_run(&mut self.current);
        if self.spill_files.is_empty() {
            let stats = self.stats;
            return Ok((std::mem::take(&mut self.current), stats));
        }
        let mut streams: Vec<RunStream> = Vec::with_capacity(self.spill_files.len() + 1);
        for path in &self.spill_files {
            streams.push(RunStream::file(path)?);
        }
        streams.push(RunStream::Memory(MemoryStream::new(std::mem::take(
            &mut self.current,
        ))));
        let merged = StreamingMerge::new(streams).collect_all()?;
        for path in &self.spill_files {
            let _ = fs::remove_file(path);
        }
        let stats = self.stats;
        Ok((merged, stats))
    }
}

/// A sorted run: either a spill file streamed through the incremental
/// parser, or the final in-memory run.
enum RunStream {
    File { file: File, parser: RecordParser },
    Memory(MemoryStream),
}

impl RunStream {
    fn file(path: &Path) -> io::Result<Self> {
        Ok(RunStream::File {
            file: File::open(path)?,
            parser: RecordParser::new(),
        })
    }
}

impl RecordStream for RunStream {
    fn next_record(&mut self) -> io::Result<Option<Record>> {
        match self {
            RunStream::Memory(run) => run.next_record(),
            RunStream::File { file, parser } => parser.next_record(|| {
                // Each block is read straight into the Vec the parser keeps.
                let mut block = Vec::with_capacity(SPILL_BLOCK as usize);
                Read::take(&mut *file, SPILL_BLOCK).read_to_end(&mut block)?;
                Ok((!block.is_empty()).then_some(block))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::is_sorted;
    use jbs_des::DetRng;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        std::env::temp_dir().join(format!(
            "jbs-extsort-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn random_records(n: usize, seed: u64) -> Vec<Record> {
        let mut rng = DetRng::new(seed);
        (0..n)
            .map(|_| {
                let mut k = vec![0u8; rng.uniform_u64(1, 20) as usize];
                rng.fill_bytes(&mut k);
                let v = vec![0xEE; rng.uniform_u64(0, 50) as usize];
                (k, v)
            })
            .collect()
    }

    #[test]
    fn in_memory_sort_when_under_budget() {
        let dir = temp_dir();
        let mut s = ExternalSorter::new(&dir, 1 << 20).unwrap();
        let recs = random_records(100, 1);
        for (k, v) in recs.clone() {
            s.add(k, v).unwrap();
        }
        assert_eq!(s.spills(), 0);
        let (sorted, stats) = s.finish().unwrap();
        assert_eq!(stats.spills, 0);
        assert_eq!(stats.records, 100);
        assert_eq!(sorted.len(), 100);
        assert!(is_sorted(&sorted));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spills_and_merges_correctly() {
        let dir = temp_dir();
        // ~2 KB budget forces many spills for 2000 records.
        let mut s = ExternalSorter::new(&dir, 2 << 10).unwrap();
        let recs = random_records(2000, 2);
        for (k, v) in recs.clone() {
            s.add(k, v).unwrap();
        }
        assert!(s.spills() > 5, "expected many spills, got {}", s.spills());
        let (sorted, stats) = s.finish().unwrap();
        assert_eq!(sorted.len(), 2000);
        assert!(is_sorted(&sorted));
        assert!(stats.spilled_bytes > 0);

        // Same key order as a plain sort, and the same record multiset
        // (value order among equal keys is unspecified, as in MapReduce).
        let mut expect = recs;
        sort_run(&mut expect);
        let sorted_keys: Vec<&Vec<u8>> = sorted.iter().map(|(k, _)| k).collect();
        let expect_keys: Vec<&Vec<u8>> = expect.iter().map(|(k, _)| k).collect();
        assert_eq!(sorted_keys, expect_keys);
        let mut sorted_multiset = sorted.clone();
        sort_run(&mut sorted_multiset);
        assert_eq!(sorted_multiset, expect);

        // Spill files are cleaned up.
        let leftovers = fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_sorter_finishes_empty() {
        let dir = temp_dir();
        let s = ExternalSorter::new(&dir, 1024).unwrap();
        let (sorted, stats) = s.finish().unwrap();
        assert!(sorted.is_empty());
        assert_eq!(stats, SortStats::default());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_keys_survive() {
        let dir = temp_dir();
        let mut s = ExternalSorter::new(&dir, 64).unwrap(); // spill constantly
        for i in 0..50u8 {
            s.add(b"same-key".to_vec(), vec![i]).unwrap();
        }
        let (sorted, _) = s.finish().unwrap();
        assert_eq!(sorted.len(), 50);
        assert!(sorted.iter().all(|(k, _)| k == b"same-key"));
        // All 50 distinct values present.
        let mut values: Vec<u8> = sorted.iter().map(|(_, v)| v[0]).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 50);
        fs::remove_dir_all(&dir).ok();
    }
}
