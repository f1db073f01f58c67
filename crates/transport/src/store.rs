//! On-disk MOF store: real files in the real MOF/index formats.
//!
//! The store is its own IndexCache (PAPER §III) and answers through
//! `&self`: its lock is held only to look up or insert a MOF's entry,
//! never across file I/O, so concurrent readers overlap their reads.

use crate::sync::{lock, Mutex};
use jbs_mapred::merge::{sort_run, Record};
use jbs_mapred::mof::{MofIndex, MofWriter};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static STORE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One MOF's IndexCache entry: its parsed index and its open data
/// file, which lives exactly as long as the entry.
struct Indexed {
    index: MofIndex,
    data: fs::File,
}

/// A directory of MOFs, as one node's TaskTracker local storage.
pub struct MofStore {
    dir: PathBuf,
    /// The IndexCache, filled on first touch of each MOF.
    indexes: Mutex<HashMap<u64, Arc<Indexed>>>,
    owns_dir: bool,
}

impl MofStore {
    /// Create a store in a fresh temporary directory.
    pub fn temp() -> io::Result<Self> {
        let dir = std::env::temp_dir().join(format!(
            "jbs-mofstore-{}-{}",
            std::process::id(),
            STORE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir)?;
        Ok(MofStore {
            dir,
            indexes: Mutex::new(HashMap::new()),
            owns_dir: true,
        })
    }

    /// Open (or create) a store in an existing directory.
    pub fn at(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(MofStore {
            dir: dir.to_path_buf(),
            indexes: Mutex::new(HashMap::new()),
            owns_dir: false,
        })
    }

    fn data_path(&self, mof: u64) -> PathBuf {
        self.dir.join(format!("file-{mof}.out"))
    }

    fn index_path(&self, mof: u64) -> PathBuf {
        self.dir.join(format!("file-{mof}.out.index"))
    }

    /// Write a MOF from records, partitioning each record with `partition`
    /// into `partitions` sorted segments (exactly what a MapTask's
    /// sort/spill produces). Records within each segment are key-sorted.
    pub fn write_mof<P>(
        &mut self,
        mof: u64,
        records: Vec<Record>,
        partitions: usize,
        partition: P,
    ) -> io::Result<()>
    where
        P: Fn(&[u8]) -> usize,
    {
        let mut buckets: Vec<Vec<Record>> = vec![Vec::new(); partitions];
        for (k, v) in records {
            let p = partition(&k);
            let bucket = buckets.get_mut(p).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("partition {p} out of range (have {partitions})"),
                )
            })?;
            bucket.push((k, v));
        }
        let mut writer = MofWriter::new();
        for bucket in &mut buckets {
            sort_run(bucket);
            writer.begin_segment();
            for (k, v) in bucket.iter() {
                writer.append(k, v);
            }
            writer.end_segment();
        }
        let (data, index) = writer.finish();
        fs::write(self.data_path(mof), &data)?;
        fs::write(self.index_path(mof), index.to_bytes())?;
        let data = fs::File::open(self.data_path(mof))?;
        lock(&self.indexes).insert(mof, Arc::new(Indexed { index, data }));
        Ok(())
    }

    /// The IndexCache entry of `mof`, loading it on first touch; `None`
    /// for a MOF with no index file. The index is read and the data
    /// file opened with no lock held; racing first touches then agree
    /// on whichever entry was inserted first.
    fn indexed(&self, mof: u64) -> io::Result<Option<Arc<Indexed>>> {
        if let Some(cached) = lock(&self.indexes).get(&mof) {
            return Ok(Some(Arc::clone(cached)));
        }
        let bytes = match fs::read(self.index_path(mof)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let index = MofIndex::from_bytes(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let data = fs::File::open(self.data_path(mof))?;
        let loaded = Arc::new(Indexed { index, data });
        Ok(Some(Arc::clone(
            lock(&self.indexes).entry(mof).or_insert(loaded),
        )))
    }

    /// Total length of reducer `reducer`'s segment in `mof`; `None` for
    /// an unknown MOF/reducer.
    pub fn segment_len(&self, mof: u64, reducer: u32) -> io::Result<Option<u64>> {
        Ok(self
            .indexed(mof)?
            .and_then(|m| m.index.entry(reducer as usize).map(|e| e.part_len)))
    }

    /// Read `[offset, offset+len)` of reducer `reducer`'s segment in `mof`
    /// (`len == 0` reads to the segment end) with one positioned read.
    /// Returns `None` for an unknown MOF/reducer.
    pub fn read_segment_range(
        &self,
        mof: u64,
        reducer: u32,
        offset: u64,
        len: u64,
    ) -> io::Result<Option<Vec<u8>>> {
        let Some(indexed) = self.indexed(mof)? else {
            return Ok(None);
        };
        let Some(entry) = indexed.index.entry(reducer as usize) else {
            return Ok(None);
        };
        if offset >= entry.part_len {
            return Ok(Some(Vec::new()));
        }
        let want = if len == 0 {
            entry.part_len - offset
        } else {
            len.min(entry.part_len - offset)
        };
        let mut buf = vec![0u8; want as usize];
        indexed
            .data
            .read_exact_at(&mut buf, entry.offset + offset)?;
        Ok(Some(buf))
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for MofStore {
    fn drop(&mut self) {
        if self.owns_dir {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jbs_mapred::mof::SegmentReader;

    // The supplier's disk workers share one store through `&self`.
    const _: () = {
        const fn assert_sync<T: Sync>() {}
        assert_sync::<MofStore>();
    };

    fn rec(k: &str, v: &str) -> Record {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn write_and_read_back_segments() {
        let mut store = MofStore::temp().unwrap();
        store
            .write_mof(
                0,
                vec![rec("b", "2"), rec("a", "1"), rec("c", "3")],
                2,
                |k| usize::from(k[0] % 2 == 0), // 'b' -> 1, 'a','c' -> 0
            )
            .unwrap();
        let seg0 = store.read_segment_range(0, 0, 0, 0).unwrap().unwrap();
        let recs: Vec<_> = SegmentReader::new(&seg0).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, b"a"); // sorted within the segment
        assert_eq!(recs[1].0, b"c");
        let seg1 = store.read_segment_range(0, 1, 0, 0).unwrap().unwrap();
        assert_eq!(SegmentReader::new(&seg1).count(), 1);
    }

    #[test]
    fn range_reads_are_exact_slices() {
        let mut store = MofStore::temp().unwrap();
        store
            .write_mof(1, vec![rec("key", "0123456789")], 1, |_| 0)
            .unwrap();
        let whole = store.read_segment_range(1, 0, 0, 0).unwrap().unwrap();
        let first = store.read_segment_range(1, 0, 0, 5).unwrap().unwrap();
        let rest = store.read_segment_range(1, 0, 5, 0).unwrap().unwrap();
        assert_eq!(first.len(), 5);
        assert_eq!([first.as_slice(), rest.as_slice()].concat(), whole);
        // Past the end: empty.
        let past = store
            .read_segment_range(1, 0, whole.len() as u64 + 10, 0)
            .unwrap()
            .unwrap();
        assert!(past.is_empty());
    }

    #[test]
    fn unknown_mof_or_reducer_is_none() {
        let mut store = MofStore::temp().unwrap();
        store.write_mof(5, vec![rec("k", "v")], 1, |_| 0).unwrap();
        assert!(store.read_segment_range(99, 0, 0, 0).unwrap().is_none());
        assert!(store.read_segment_range(5, 7, 0, 0).unwrap().is_none());
    }

    #[test]
    fn index_survives_reopen() {
        let mut store = MofStore::temp().unwrap();
        store.write_mof(3, vec![rec("k", "v")], 2, |_| 1).unwrap();
        let dir = store.dir().to_path_buf();
        store.owns_dir = false; // keep the files
        drop(store);
        let reopened = MofStore::at(&dir).unwrap();
        let seg = reopened.read_segment_range(3, 1, 0, 0).unwrap().unwrap();
        assert!(SegmentReader::new(&seg).count() == 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A store with one MOF of `partitions` multi-chunk segments.
    fn many_segment_store(partitions: usize) -> MofStore {
        let records: Vec<Record> = (0..4000u32)
            .map(|i| (format!("key{i:05}").into_bytes(), vec![i as u8; 40]))
            .collect();
        let mut store = MofStore::temp().unwrap();
        store
            .write_mof(0, records, partitions, |k| k[7] as usize % partitions)
            .unwrap();
        store
    }

    #[test]
    fn concurrent_range_reads_match_serial_reads() {
        const CHUNK: u64 = 997;
        let store = many_segment_store(4);
        let serial: Vec<Vec<u8>> = (0..4)
            .map(|r| store.read_segment_range(0, r, 0, 0).unwrap().unwrap())
            .collect();
        // Each thread reads every fourth chunk of every segment, so the
        // threads' ranges are disjoint and together cover every byte.
        let parts: Vec<Vec<(u32, u64, Vec<u8>)>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..4u64)
                .map(|t| {
                    let (store, serial) = (&store, &serial);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for (r, seg) in serial.iter().enumerate() {
                            let r = r as u32;
                            let chunks = (seg.len() as u64).div_ceil(CHUNK);
                            for c in (t..chunks).step_by(4) {
                                let bytes = store.read_segment_range(0, r, c * CHUNK, CHUNK);
                                got.push((r, c * CHUNK, bytes.unwrap().unwrap()));
                            }
                        }
                        got
                    })
                })
                .collect();
            readers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut rebuilt: Vec<Vec<u8>> = serial.iter().map(|s| vec![0; s.len()]).collect();
        let mut covered = 0;
        for (r, off, bytes) in parts.into_iter().flatten() {
            let at = off as usize;
            rebuilt[r as usize][at..at + bytes.len()].copy_from_slice(&bytes);
            covered += bytes.len();
        }
        assert_eq!(covered, serial.iter().map(Vec::len).sum::<usize>());
        assert_eq!(rebuilt, serial, "concurrent reads are byte-exact");
    }

    #[test]
    fn racing_first_touches_agree_on_lengths() {
        let mut writer = many_segment_store(3);
        let want: Vec<Option<u64>> = (0..4).map(|r| writer.segment_len(0, r).unwrap()).collect();
        assert_eq!(want[3], None, "unknown reducer");
        writer.owns_dir = false;
        let dir = writer.dir().to_path_buf();
        drop(writer);
        // A reopened store has an empty IndexCache: every thread's
        // first touch loads the index, and all must see one answer.
        let store = MofStore::at(&dir).unwrap();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    let got: Vec<Option<u64>> =
                        (0..4).map(|r| store.segment_len(0, r).unwrap()).collect();
                    assert_eq!(got, want);
                });
            }
        });
        assert_eq!(store.segment_len(9, 0).unwrap(), None, "unknown MOF");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn temp_dir_cleanup_on_drop() {
        let store = MofStore::temp().unwrap();
        let dir = store.dir().to_path_buf();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists());
    }
}
