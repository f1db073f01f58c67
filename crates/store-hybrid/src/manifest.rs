//! Durable spill manifest: an append-only, CRC32C-framed record log.
//!
//! Every durable tier transition — a spill-flush extent, an oversize
//! direct write, a drain to the REMOTE tier, a replica-drop — appends
//! one record to `manifest.log` in the LOCALFILE directory. Records are
//! framed as `[payload_len u32 LE][crc32c(payload) u32 LE][payload]`,
//! so a crash mid-append leaves a torn tail that [`scan`] detects by
//! CRC and truncates: everything before the first bad frame is trusted,
//! everything after it never happened.
//!
//! The write→sync→publish discipline lives in the store, not here: the
//! extent's data bytes are written and fsynced to `spill.data` *before*
//! the extent record is appended, so a record in the log always
//! describes bytes that are durably on disk (recovery re-verifies them
//! against the record's `data_crc` anyway — a defense against the one
//! ordering the log cannot rule out, silent corruption).

use jbs_checksum::crc32c;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// The manifest's file name inside the LOCALFILE data directory.
pub(crate) const MANIFEST_FILE: &str = "manifest.log";

/// Largest payload any record kind encodes to; frames claiming more
/// are treated as torn.
const MAX_PAYLOAD: usize = 64;

const TAG_EXTENT: u8 = 1;
const TAG_REMOTE_MOVED: u8 = 2;
const TAG_REPLICA_DROPPED: u8 = 3;

/// One durable tier transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Record {
    /// A committed LOCALFILE extent (spill flush or oversize direct
    /// write): `len` bytes of partition `(mof, reducer)` at logical
    /// `offset`, stored at `file_off` of `spill.data`, whose content
    /// hashes to `data_crc`.
    Extent {
        mof: u64,
        reducer: u32,
        offset: u64,
        len: u64,
        file_off: u64,
        data_crc: u32,
    },
    /// Partition `(mof, reducer)`'s full `total`-byte prefix now lives
    /// in its REMOTE object (appended after the object's publishing
    /// rename).
    RemoteMoved { mof: u64, reducer: u32, total: u64 },
    /// Partition `(mof, reducer)` was dropped in favor of a live
    /// replica on another supplier.
    ReplicaDropped { mof: u64, reducer: u32 },
}

impl Record {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        match *self {
            Record::Extent {
                mof,
                reducer,
                offset,
                len,
                file_off,
                data_crc,
            } => {
                out.push(TAG_EXTENT);
                out.extend_from_slice(&mof.to_le_bytes());
                out.extend_from_slice(&reducer.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&file_off.to_le_bytes());
                out.extend_from_slice(&data_crc.to_le_bytes());
            }
            Record::RemoteMoved {
                mof,
                reducer,
                total,
            } => {
                out.push(TAG_REMOTE_MOVED);
                out.extend_from_slice(&mof.to_le_bytes());
                out.extend_from_slice(&reducer.to_le_bytes());
                out.extend_from_slice(&total.to_le_bytes());
            }
            Record::ReplicaDropped { mof, reducer } => {
                out.push(TAG_REPLICA_DROPPED);
                out.extend_from_slice(&mof.to_le_bytes());
                out.extend_from_slice(&reducer.to_le_bytes());
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Option<Record> {
        let mut cur = Cursor {
            bytes: payload,
            pos: 0,
        };
        let rec = match cur.u8()? {
            TAG_EXTENT => Record::Extent {
                mof: cur.u64()?,
                reducer: cur.u32()?,
                offset: cur.u64()?,
                len: cur.u64()?,
                file_off: cur.u64()?,
                data_crc: cur.u32()?,
            },
            TAG_REMOTE_MOVED => Record::RemoteMoved {
                mof: cur.u64()?,
                reducer: cur.u32()?,
                total: cur.u64()?,
            },
            TAG_REPLICA_DROPPED => Record::ReplicaDropped {
                mof: cur.u64()?,
                reducer: cur.u32()?,
            },
            _ => return None,
        };
        if cur.pos != payload.len() {
            return None;
        }
        Some(rec)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let s = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|s| s.try_into().ok())
            .map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|s| s.try_into().ok())
            .map(u64::from_le_bytes)
    }
}

/// Encode one record as a complete CRC-framed log entry.
pub(crate) fn frame_of(rec: &Record) -> Vec<u8> {
    let payload = rec.encode();
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32c(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Append half of the store's write→sync→publish discipline: raw frame
/// bytes go in through [`ManifestWriter::write_bytes`] (the store may
/// deliberately write a torn prefix under crash injection), and the
/// store decides when [`ManifestWriter::sync`] runs via
/// [`ManifestWriter::sync_due`] so crash points can fire between the
/// write and the fsync.
pub(crate) struct ManifestWriter {
    file: fs::File,
    sync_interval: u64,
    unsynced: u64,
}

impl ManifestWriter {
    /// Create a fresh (truncated) manifest — a brand-new store.
    pub(crate) fn create(path: &Path, sync_interval: u64) -> io::Result<ManifestWriter> {
        Ok(ManifestWriter {
            file: fs::File::create(path)?,
            sync_interval: sync_interval.max(1),
            unsynced: 0,
        })
    }

    /// Continue an existing manifest — a recovered store (the caller
    /// truncated any torn tail first).
    pub(crate) fn open_append(path: &Path, sync_interval: u64) -> io::Result<ManifestWriter> {
        Ok(ManifestWriter {
            file: fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
            sync_interval: sync_interval.max(1),
            unsynced: 0,
        })
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    /// Count one fully-written record toward the sync interval.
    pub(crate) fn record_written(&mut self) {
        self.unsynced += 1;
    }

    pub(crate) fn sync_due(&self) -> bool {
        self.unsynced >= self.sync_interval
    }

    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }
}

/// The parsed prefix of a manifest file.
pub(crate) struct ManifestScan {
    /// Every valid record, in append order.
    pub(crate) records: Vec<Record>,
    /// Byte offset of the first torn/invalid frame (== file length when
    /// the log is clean); recovery truncates the file here.
    pub(crate) valid_len: u64,
    /// Whether a torn tail was found past `valid_len`.
    pub(crate) torn: bool,
}

/// Read a manifest, stopping at the first frame that is short, oversize,
/// CRC-mismatched, or undecodable — the torn-tail rule. A missing file
/// scans as empty and clean.
pub(crate) fn scan(path: &Path) -> io::Result<ManifestScan> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + 8) {
        let len = header
            .get(..4)
            .and_then(|s| s.try_into().ok())
            .map(u32::from_le_bytes)
            .unwrap_or(u32::MAX) as usize;
        let crc = header
            .get(4..8)
            .and_then(|s| s.try_into().ok())
            .map(u32::from_le_bytes)
            .unwrap_or(0);
        if len > MAX_PAYLOAD {
            break;
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break;
        };
        if crc32c(payload) != crc {
            break;
        }
        let Some(rec) = Record::decode(payload) else {
            break;
        };
        records.push(rec);
        pos += 8 + len;
    }
    Ok(ManifestScan {
        records,
        valid_len: pos as u64,
        torn: pos < bytes.len(),
    })
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn sample() -> Vec<Record> {
        vec![
            Record::Extent {
                mof: 7,
                reducer: 3,
                offset: 0,
                len: 100,
                file_off: 0,
                data_crc: 0xdead_beef,
            },
            Record::RemoteMoved {
                mof: 7,
                reducer: 3,
                total: 100,
            },
            Record::ReplicaDropped { mof: 9, reducer: 1 },
        ]
    }

    /// Frames written by the parent of the hardware-CRC change (table
    /// loop only): today's `frame_of` produces the same bytes and
    /// today's `scan` accepts them, so a manifest on disk does not
    /// depend on which CRC path wrote or reads it.
    #[test]
    fn frames_sealed_by_the_table_loop_still_scan() {
        const GOLDEN: [&[u8]; 3] = [
            &[
                0x29, 0x00, 0x00, 0x00, 0x15, 0x0D, 0xE0, 0xB3, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x40, 0x9C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x78, 0x56, 0x34, 0x12,
            ],
            &[
                0x15, 0x00, 0x00, 0x00, 0xD1, 0x5F, 0xEF, 0x3A, 0x02, 0x07, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x40, 0xAC, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00,
            ],
            &[
                0x0D, 0x00, 0x00, 0x00, 0xB2, 0x44, 0x7B, 0x8F, 0x03, 0x09, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
            ],
        ];
        let records = [
            Record::Extent {
                mof: 7,
                reducer: 3,
                offset: 4096,
                len: 40_000,
                file_off: 1 << 20,
                data_crc: 0x1234_5678,
            },
            Record::RemoteMoved {
                mof: 7,
                reducer: 3,
                total: 44_096,
            },
            Record::ReplicaDropped { mof: 9, reducer: 1 },
        ];
        for (rec, golden) in records.iter().zip(GOLDEN) {
            assert_eq!(frame_of(rec), golden);
        }
        let dir = std::env::temp_dir().join(format!("jbs-manifest-golden-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        fs::write(&path, GOLDEN.concat()).unwrap();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records, records);
        assert!(!scanned.torn);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_round_trip_through_frames() {
        let dir = std::env::temp_dir().join(format!("jbs-manifest-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut w = ManifestWriter::create(&path, 1).unwrap();
        for rec in sample() {
            w.write_bytes(&frame_of(&rec)).unwrap();
            w.record_written();
            assert!(w.sync_due());
            w.sync().unwrap();
        }
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records, sample());
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, fs::metadata(&path).unwrap().len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_at_every_cut() {
        let full: Vec<u8> = sample().iter().flat_map(frame_of).collect();
        let dir = std::env::temp_dir().join(format!("jbs-manifest-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        // Frame boundaries are the only clean cuts; any other cut is torn.
        let bounds: Vec<usize> = sample()
            .iter()
            .scan(0usize, |acc, r| {
                *acc += frame_of(r).len();
                Some(*acc)
            })
            .collect();
        for cut in 0..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let s = scan(&path).unwrap();
            let whole = bounds.iter().filter(|b| **b <= cut).count();
            assert_eq!(s.records.len(), whole, "cut at {cut}");
            assert_eq!(
                s.valid_len,
                bounds[..whole].last().copied().unwrap_or(0) as u64
            );
            assert_eq!(s.torn, !bounds.contains(&cut) && cut != 0, "cut at {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_payload_stops_the_scan() {
        let recs = sample();
        let mut full: Vec<u8> = recs.iter().flat_map(frame_of).collect();
        let first_len = frame_of(&recs[0]).len();
        // Flip a bit inside the second frame's payload.
        full[first_len + 9] ^= 0x40;
        let dir = std::env::temp_dir().join(format!("jbs-manifest-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        fs::write(&path, &full).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records, recs[..1]);
        assert_eq!(s.valid_len, first_len as u64);
        assert!(s.torn);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_scans_empty_and_clean() {
        let path = std::env::temp_dir().join(format!("jbs-manifest-none-{}", std::process::id()));
        let _ = fs::remove_file(&path);
        let s = scan(&path).unwrap();
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, 0);
        assert!(!s.torn);
    }
}
