//! The Map Output File (MOF) and Index file formats.
//!
//! Every MapTask writes one MOF holding one *segment* per ReduceTask, plus
//! an index file giving each segment's location (Sec. II-A). The formats
//! here are byte-real — `jbs-transport` serves them over real sockets and
//! the integration tests round-trip them — and deliberately close to
//! Hadoop's IFile/`file.out.index` pair:
//!
//! ```text
//! MOF  := segment*                      INDEX := MAGIC u32
//! segment := record* END_MARKER                  count  u32
//! record  := klen u32 | vlen u32                 entry{count}
//!            key[klen] | value[vlen]             crc    u64
//! END_MARKER := 0xFFFF_FFFF                entry := offset u64 | raw_len u64
//!                                                   | part_len u64
//! ```
//!
//! `raw_len` is the uncompressed segment length and `part_len` the on-disk
//! length; this reproduction does not compress, so they are equal, but both
//! are kept so the format matches Hadoop's three-u64 index entries.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic number at the head of an index file.
pub const INDEX_MAGIC: u32 = 0x4D4F_4649; // "MOFI"

/// Marker terminating a segment's record stream.
const END_MARKER: u32 = 0xFFFF_FFFF;

/// Errors from parsing MOF/index bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MofError {
    /// Index file did not start with [`INDEX_MAGIC`].
    BadMagic,
    /// Byte stream ended mid-structure.
    Truncated,
    /// Index checksum mismatch.
    BadChecksum,
    /// A record declared a length that exceeds the remaining bytes.
    CorruptRecord,
}

impl std::fmt::Display for MofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MofError::BadMagic => write!(f, "index file has wrong magic"),
            MofError::Truncated => write!(f, "byte stream truncated"),
            MofError::BadChecksum => write!(f, "index checksum mismatch"),
            MofError::CorruptRecord => write!(f, "record length exceeds segment"),
        }
    }
}

impl std::error::Error for MofError {}

/// Location of one reducer's segment inside a MOF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Byte offset of the segment in the MOF.
    pub offset: u64,
    /// Uncompressed segment length.
    pub raw_len: u64,
    /// On-disk segment length (== `raw_len` here; no compression).
    pub part_len: u64,
}

/// The index file: one entry per ReduceTask.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MofIndex {
    entries: Vec<IndexEntry>,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl MofIndex {
    /// An index over the given entries.
    pub fn new(entries: Vec<IndexEntry>) -> Self {
        MofIndex { entries }
    }

    /// Entry for reducer `r`, if present.
    pub fn entry(&self, r: usize) -> Option<IndexEntry> {
        self.entries.get(r).copied()
    }

    /// Number of segments (== number of reducers).
    pub fn num_segments(&self) -> usize {
        self.entries.len()
    }

    /// All entries.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Serialize to the on-disk index format.
    pub fn to_bytes(&self) -> Bytes {
        let mut body = BytesMut::with_capacity(8 + self.entries.len() * 24);
        body.put_u32(INDEX_MAGIC);
        body.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            body.put_u64(e.offset);
            body.put_u64(e.raw_len);
            body.put_u64(e.part_len);
        }
        let crc = fnv1a(&body);
        body.put_u64(crc);
        body.freeze()
    }

    /// Parse the on-disk index format.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Self, MofError> {
        if buf.len() < 16 {
            return Err(MofError::Truncated);
        }
        let body_len = buf.len() - 8;
        let crc_stored = u64::from_be_bytes(buf[body_len..].try_into().unwrap());
        if fnv1a(&buf[..body_len]) != crc_stored {
            return Err(MofError::BadChecksum);
        }
        let magic = buf.get_u32();
        if magic != INDEX_MAGIC {
            return Err(MofError::BadMagic);
        }
        let count = buf.get_u32() as usize;
        if buf.remaining() < count * 24 + 8 {
            return Err(MofError::Truncated);
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(IndexEntry {
                offset: buf.get_u64(),
                raw_len: buf.get_u64(),
                part_len: buf.get_u64(),
            });
        }
        Ok(MofIndex { entries })
    }

    /// Total payload bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.part_len).sum()
    }
}

/// Builds a MOF and its index, one segment per reducer, in reducer order.
pub struct MofWriter {
    data: BytesMut,
    entries: Vec<IndexEntry>,
    seg_start: Option<u64>,
}

impl Default for MofWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl MofWriter {
    /// An empty writer.
    pub fn new() -> Self {
        MofWriter {
            data: BytesMut::new(),
            entries: Vec::new(),
            seg_start: None,
        }
    }

    /// Begin the next reducer's segment.
    pub fn begin_segment(&mut self) {
        assert!(self.seg_start.is_none(), "previous segment still open");
        self.seg_start = Some(self.data.len() as u64);
    }

    /// Append one key/value record to the open segment.
    pub fn append(&mut self, key: &[u8], value: &[u8]) {
        assert!(self.seg_start.is_some(), "no open segment");
        self.data.put_u32(key.len() as u32);
        self.data.put_u32(value.len() as u32);
        self.data.put_slice(key);
        self.data.put_slice(value);
    }

    /// Close the open segment.
    pub fn end_segment(&mut self) {
        let start = self.seg_start.take().expect("no open segment");
        self.data.put_u32(END_MARKER);
        let len = self.data.len() as u64 - start;
        self.entries.push(IndexEntry {
            offset: start,
            raw_len: len,
            part_len: len,
        });
    }

    /// Finish the MOF, yielding the data bytes and the index.
    pub fn finish(self) -> (Bytes, MofIndex) {
        assert!(self.seg_start.is_none(), "segment left open");
        (self.data.freeze(), MofIndex::new(self.entries))
    }
}

/// Iterates the records of one segment's bytes.
pub struct SegmentReader<'a> {
    buf: &'a [u8],
    done: bool,
}

impl<'a> SegmentReader<'a> {
    /// A reader over `segment` (the `part_len` bytes at the index entry's
    /// offset).
    pub fn new(segment: &'a [u8]) -> Self {
        SegmentReader {
            buf: segment,
            done: false,
        }
    }
}

impl<'a> Iterator for SegmentReader<'a> {
    type Item = Result<(&'a [u8], &'a [u8]), MofError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.buf.len() < 4 {
            self.done = true;
            return Some(Err(MofError::Truncated));
        }
        let klen = u32::from_be_bytes(self.buf[..4].try_into().unwrap());
        if klen == END_MARKER {
            self.done = true;
            return None;
        }
        if self.buf.len() < 8 {
            self.done = true;
            return Some(Err(MofError::Truncated));
        }
        let vlen = u32::from_be_bytes(self.buf[4..8].try_into().unwrap());
        let (klen, vlen) = (klen as usize, vlen as usize);
        if self.buf.len() < 8 + klen + vlen {
            self.done = true;
            return Some(Err(MofError::CorruptRecord));
        }
        let key = &self.buf[8..8 + klen];
        let value = &self.buf[8 + klen..8 + klen + vlen];
        self.buf = &self.buf[8 + klen + vlen..];
        Some(Ok((key, value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_mof(segments: &[Vec<(&str, &str)>]) -> (Bytes, MofIndex) {
        let mut w = MofWriter::new();
        for seg in segments {
            w.begin_segment();
            for (k, v) in seg {
                w.append(k.as_bytes(), v.as_bytes());
            }
            w.end_segment();
        }
        w.finish()
    }

    #[test]
    fn roundtrip_two_segments() {
        let (data, index) =
            build_mof(&[vec![("apple", "1"), ("banana", "2")], vec![("cherry", "3")]]);
        assert_eq!(index.num_segments(), 2);
        let e0 = index.entry(0).unwrap();
        let seg0 = &data[e0.offset as usize..(e0.offset + e0.part_len) as usize];
        let recs: Vec<_> = SegmentReader::new(seg0).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], (&b"apple"[..], &b"1"[..]));
        assert_eq!(recs[1], (&b"banana"[..], &b"2"[..]));
        let e1 = index.entry(1).unwrap();
        let seg1 = &data[e1.offset as usize..(e1.offset + e1.part_len) as usize];
        let recs1: Vec<_> = SegmentReader::new(seg1).map(|r| r.unwrap()).collect();
        assert_eq!(recs1, vec![(&b"cherry"[..], &b"3"[..])]);
    }

    #[test]
    fn empty_segment_is_valid() {
        let (data, index) = build_mof(&[vec![]]);
        let e = index.entry(0).unwrap();
        assert_eq!(e.part_len, 4); // just the end marker
        let seg = &data[e.offset as usize..(e.offset + e.part_len) as usize];
        assert_eq!(SegmentReader::new(seg).count(), 0);
    }

    #[test]
    fn index_serialization_roundtrip() {
        let (_, index) = build_mof(&[vec![("k", "v")], vec![], vec![("a", "b")]]);
        let bytes = index.to_bytes();
        let back = MofIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, index);
        assert_eq!(back.total_bytes(), index.total_bytes());
    }

    #[test]
    fn index_detects_corruption() {
        let (_, index) = build_mof(&[vec![("k", "v")]]);
        let mut bytes = index.to_bytes().to_vec();
        bytes[9] ^= 0xFF;
        assert_eq!(MofIndex::from_bytes(&bytes), Err(MofError::BadChecksum));
        assert_eq!(MofIndex::from_bytes(&bytes[..3]), Err(MofError::Truncated));
    }

    #[test]
    fn index_detects_bad_magic() {
        let (_, index) = build_mof(&[vec![]]);
        let mut bytes = index.to_bytes().to_vec();
        // Flip the magic and recompute the checksum so only magic is wrong.
        bytes[0] ^= 0xFF;
        let body_len = bytes.len() - 8;
        let crc = super::fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(MofIndex::from_bytes(&bytes), Err(MofError::BadMagic));
    }

    #[test]
    fn reader_detects_truncated_segment() {
        let (data, index) = build_mof(&[vec![("longkey", "longvalue")]]);
        let e = index.entry(0).unwrap();
        let seg = &data[e.offset as usize..(e.offset + e.part_len) as usize - 6];
        let last = SegmentReader::new(seg).last().unwrap();
        assert!(last.is_err());
    }

    #[test]
    fn offsets_are_contiguous() {
        let (data, index) = build_mof(&[vec![("a", "1")], vec![("b", "2")], vec![("c", "3")]]);
        let mut expect = 0;
        for e in index.entries() {
            assert_eq!(e.offset, expect);
            assert_eq!(e.raw_len, e.part_len);
            expect += e.part_len;
        }
        assert_eq!(expect, data.len() as u64);
        assert_eq!(index.total_bytes(), data.len() as u64);
    }

    #[test]
    fn binary_keys_and_values_roundtrip() {
        let mut w = MofWriter::new();
        w.begin_segment();
        let key = [0u8, 255, 127, 4];
        let val = [9u8; 1000];
        w.append(&key, &val);
        w.end_segment();
        let (data, index) = w.finish();
        let e = index.entry(0).unwrap();
        let seg = &data[e.offset as usize..(e.offset + e.part_len) as usize];
        let (k, v) = SegmentReader::new(seg).next().unwrap().unwrap();
        assert_eq!(k, key);
        assert_eq!(v, val);
    }

    #[test]
    #[should_panic]
    fn append_without_segment_panics() {
        let mut w = MofWriter::new();
        w.append(b"k", b"v");
    }
}
