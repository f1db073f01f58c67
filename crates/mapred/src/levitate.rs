//! The network-levitated merge, as a streaming algorithm.
//!
//! The SC'11 algorithm JBS's NetMerger uses (Sec. III-C) merges a
//! reducer's segments *without materializing them*: each remote segment
//! contributes a small in-memory window (one transport buffer's worth of
//! records), the merge consumes from the windows through a priority queue,
//! and a window is refilled from the network only when it runs dry — the
//! segment bodies stay "levitated" on the remote disks.
//!
//! This module provides the algorithm over an abstract [`RecordStream`]:
//!
//! * [`RecordParser`] — an incremental parser for the MOF segment record
//!   format that accepts bytes in arbitrary-sized chunks (records may
//!   straddle chunk boundaries, as they do across transport buffers);
//! * [`StreamingMerge`] — the k-way merge over fallible, lazily-refilled
//!   streams, with stability across streams and one-record lookahead per
//!   stream (the minimal levitation window).
//!
//! `jbs-transport` drives it with streams that fetch transport-buffer
//! chunks over real sockets on demand; [`crate::merge::merge_sorted_runs`]
//! and the external sorter drive it with [`MemoryStream`]s, so it is the
//! crate's only merge; tests drive it with in-memory slices split at
//! adversarial boundaries.

use crate::merge::Record;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::io;

/// Marker terminating a segment's record stream (same as `mof.rs`).
const END_MARKER: u32 = 0xFFFF_FFFF;

/// A pull-based source of key-sorted records.
pub trait RecordStream {
    /// The next record, `Ok(None)` at end of stream.
    fn next_record(&mut self) -> io::Result<Option<Record>>;
}

/// The frame at the head of a byte buffer: a record, the end marker, or
/// a header too short to tell.
enum Frame {
    /// Fewer bytes than the header needs; classifying takes this many.
    Partial(usize),
    End,
    Record {
        klen: usize,
        vlen: usize,
    },
}

impl Frame {
    fn at(buf: &[u8]) -> io::Result<Frame> {
        let u32_at = |at: usize| {
            buf.get(at..at + 4)
                .map(|b| u32::from_be_bytes(b.try_into().expect("4-byte slice")))
        };
        let Some(klen) = u32_at(0) else {
            return Ok(Frame::Partial(4));
        };
        if klen == END_MARKER {
            return Ok(Frame::End);
        }
        let Some(vlen) = u32_at(4) else {
            return Ok(Frame::Partial(8));
        };
        if klen > (64 << 20) || vlen > (64 << 20) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "implausible record length (corrupt stream?)",
            ));
        }
        Ok(Frame::Record {
            klen: klen as usize,
            vlen: vlen as usize,
        })
    }

    /// Bytes the frame spans, or for a partial header the bytes needed.
    fn len(&self) -> usize {
        match *self {
            Frame::Partial(need) => need,
            Frame::End => 4,
            Frame::Record { klen, vlen } => 8 + klen + vlen,
        }
    }
}

/// Incremental parser for the MOF segment wire format
/// (`klen u32 | vlen u32 | key | value`, terminated by `0xFFFF_FFFF`).
///
/// The parser owns the chunk it is reading and copies each record's key
/// and value straight out of it. Only a frame that straddles chunks is
/// stitched together in a small carry buffer, however many chunks it
/// spans. `C` is the chunk type: an owned `Vec<u8>` for bytes off the
/// network or a file, a borrowed slice for a segment already in memory.
#[derive(Debug, Default)]
pub struct RecordParser<C = Vec<u8>> {
    chunk: C,
    /// Read position within `chunk`.
    pos: usize,
    /// Unparsed bytes that preceded `chunk`: the head of a straddling
    /// frame.
    carry: Vec<u8>,
    finished: bool,
}

impl<C: AsRef<[u8]> + Default> RecordParser<C> {
    /// An empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the next chunk of segment bytes. Whatever the previous chunk
    /// still held unparsed moves to the carry.
    pub fn push(&mut self, chunk: C) {
        let old = std::mem::replace(&mut self.chunk, chunk);
        self.carry.extend_from_slice(&old.as_ref()[self.pos..]);
        self.pos = 0;
    }

    /// True once the end marker has been consumed, or the input ended
    /// cleanly without one.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Bytes currently buffered but not yet parsed into records.
    pub fn pending_bytes(&self) -> usize {
        self.carry.len() + self.chunk.as_ref().len() - self.pos
    }

    /// Try to pop one complete record. `Ok(None)` means "need more bytes"
    /// (or the stream finished — check [`RecordParser::finished`]).
    pub fn pop(&mut self) -> io::Result<Option<Record>> {
        while !self.finished {
            let from_carry = !self.carry.is_empty();
            let buf = if from_carry {
                &self.carry[..]
            } else {
                &self.chunk.as_ref()[self.pos..]
            };
            let frame = Frame::at(buf)?;
            let len = frame.len();
            if buf.len() >= len {
                let rec = match frame {
                    Frame::Record { klen, .. } => {
                        Some((buf[8..8 + klen].to_vec(), buf[8 + klen..len].to_vec()))
                    }
                    _ => None,
                };
                self.finished = rec.is_none();
                if from_carry {
                    self.carry.drain(..len);
                } else {
                    self.pos += len;
                }
                return Ok(rec);
            }
            // The frame runs past the bytes at hand: move what the chunk
            // holds of it into the carry, then classify again.
            let rest = &self.chunk.as_ref()[self.pos..];
            let take = (len - self.carry.len()).min(rest.len());
            if take == 0 {
                return Ok(None);
            }
            self.carry.extend_from_slice(&rest[..take]);
            self.pos += take;
        }
        Ok(None)
    }

    /// The next record, calling `refill` for another chunk whenever the
    /// buffered bytes hold no complete record; `refill` returns `None` at
    /// the end of input. Input that ends without an end marker ends
    /// cleanly between records and is `UnexpectedEof` inside one.
    pub fn next_record(
        &mut self,
        mut refill: impl FnMut() -> io::Result<Option<C>>,
    ) -> io::Result<Option<Record>> {
        loop {
            if let Some(rec) = self.pop()? {
                return Ok(Some(rec));
            }
            if self.finished {
                return Ok(None);
            }
            match refill()? {
                Some(chunk) => self.push(chunk),
                None if self.pending_bytes() == 0 => {
                    self.finished = true;
                    return Ok(None);
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "record stream truncated mid-record",
                    ))
                }
            }
        }
    }
}

/// A [`RecordStream`] over an in-memory segment, optionally delivered to
/// the parser in fixed-size chunks (mimicking transport buffers).
pub struct SliceStream<'a> {
    /// The bytes not yet handed to the parser.
    rest: &'a [u8],
    chunk: usize,
    parser: RecordParser<&'a [u8]>,
}

impl<'a> SliceStream<'a> {
    /// Stream `segment`, feeding the parser `chunk` bytes at a time.
    pub fn chunked(segment: &'a [u8], chunk: usize) -> Self {
        SliceStream {
            rest: segment,
            chunk: chunk.max(1),
            parser: RecordParser::new(),
        }
    }
}

impl RecordStream for SliceStream<'_> {
    fn next_record(&mut self) -> io::Result<Option<Record>> {
        let (rest, chunk) = (&mut self.rest, self.chunk);
        self.parser.next_record(|| {
            if rest.is_empty() {
                return Ok(None);
            }
            let (head, tail) = rest.split_at(chunk.min(rest.len()));
            *rest = tail;
            Ok(Some(head))
        })
    }
}

/// A [`RecordStream`] over a sorted run already in memory; it never
/// fails.
pub struct MemoryStream(std::vec::IntoIter<Record>);

impl MemoryStream {
    /// Stream `run`, which must be key-sorted.
    pub fn new(run: Vec<Record>) -> Self {
        MemoryStream(run.into_iter())
    }
}

impl RecordStream for MemoryStream {
    fn next_record(&mut self) -> io::Result<Option<Record>> {
        Ok(self.0.next())
    }
}

/// The key's first 8 bytes as a big-endian integer, zero-padded. Byte
/// order on keys is monotone in it: a strictly smaller prefix means a
/// strictly smaller key, so only equal prefixes compare the full keys.
fn key_prefix(key: &[u8]) -> u64 {
    let mut head = [0u8; 8];
    let n = key.len().min(8);
    head[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(head)
}

/// One stream's lookahead record, ordered by `(prefix, key, stream)` and
/// reversed so the max-heap yields the smallest first. The stream index
/// breaks key ties, which makes the merge stable across streams.
struct HeapEntry {
    prefix: u64,
    key: Vec<u8>,
    value: Vec<u8>,
    stream: usize,
}

impl HeapEntry {
    fn new(stream: usize, (key, value): Record) -> Self {
        HeapEntry {
            prefix: key_prefix(&key),
            key,
            value,
            stream,
        }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .prefix
            .cmp(&self.prefix)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.stream.cmp(&self.stream))
    }
}

/// The streaming k-way merge: one record of lookahead per stream; a
/// stream is consulted again only when its record is consumed, and its
/// next record replaces the consumed one at the heap's top, so each
/// record costs one sift.
pub struct StreamingMerge<S: RecordStream> {
    streams: Vec<S>,
    heap: BinaryHeap<HeapEntry>,
    records_out: u64,
    primed: bool,
    failed: bool,
    trace: jbs_obs::Trace,
}

impl<S: RecordStream> StreamingMerge<S> {
    /// A merge over `streams`; each must yield key-sorted records.
    pub fn new(streams: Vec<S>) -> Self {
        StreamingMerge {
            heap: BinaryHeap::with_capacity(streams.len()),
            streams,
            records_out: 0,
            primed: false,
            failed: false,
            trace: jbs_obs::Trace::disabled(),
        }
    }

    /// Record a `merge.pull` instant per heap pull (entity = the stream
    /// the pulled record came from) to `trace`.
    pub fn with_trace(mut self, trace: jbs_obs::Trace) -> Self {
        self.trace = trace;
        self
    }

    fn prime(&mut self) -> io::Result<()> {
        for (i, stream) in self.streams.iter_mut().enumerate() {
            if let Some(rec) = stream.next_record()? {
                self.heap.push(HeapEntry::new(i, rec));
            }
        }
        self.primed = true;
        Ok(())
    }

    /// Pull the next merged record.
    pub fn next_merged(&mut self) -> io::Result<Option<Record>> {
        if self.failed {
            return Err(io::Error::other("merge already failed"));
        }
        if !self.primed {
            if let Err(e) = self.prime() {
                self.failed = true;
                return Err(e);
            }
        }
        let Some(mut top) = self.heap.peek_mut() else {
            return Ok(None);
        };
        let stream = top.stream;
        let entry = match self.streams[stream].next_record() {
            // Overwrite the top in place; dropping `top` sifts it down once.
            Ok(Some(rec)) => std::mem::replace(&mut *top, HeapEntry::new(stream, rec)),
            Ok(None) => PeekMut::pop(top),
            Err(e) => {
                self.failed = true;
                return Err(e);
            }
        };
        self.records_out += 1;
        self.trace.instant(
            "merge.pull",
            jbs_obs::Entity::stream(stream as u64),
            self.records_out,
            entry.key.len() as u64 + entry.value.len() as u64,
        );
        Ok(Some((entry.key, entry.value)))
    }

    /// Records merged so far.
    pub fn records_out(&self) -> u64 {
        self.records_out
    }

    /// Drain the merge into a vector.
    pub fn collect_all(mut self) -> io::Result<Vec<Record>> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_merged()? {
            out.push(rec);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{is_sorted, merge_sorted_runs, sort_run};
    use crate::mof::MofWriter;
    use proptest::prelude::*;

    fn segment_bytes(records: &[Record]) -> Vec<u8> {
        let mut w = MofWriter::new();
        w.begin_segment();
        for (k, v) in records {
            w.append(k, v);
        }
        w.end_segment();
        let (data, index) = w.finish();
        let e = index.entry(0).unwrap();
        data[e.offset as usize..(e.offset + e.part_len) as usize].to_vec()
    }

    fn rec(k: &str, v: &str) -> Record {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    /// Feed `chunks` to a fresh parser the way a stream does: take every
    /// record it can, refill when it needs bytes; running out of chunks
    /// is the end of input.
    fn parse_chunks(chunks: &[Vec<u8>]) -> io::Result<Vec<Record>> {
        let mut p = RecordParser::new();
        let mut input = chunks.iter().cloned();
        let mut out = Vec::new();
        while let Some(rec) = p.next_record(|| Ok(input.next()))? {
            out.push(rec);
        }
        assert!(p.finished());
        Ok(out)
    }

    fn record_bytes(k: &[u8], v: &[u8]) -> Vec<u8> {
        let mut b = (k.len() as u32).to_be_bytes().to_vec();
        b.extend_from_slice(&(v.len() as u32).to_be_bytes());
        b.extend_from_slice(k);
        b.extend_from_slice(v);
        b
    }

    fn cat(parts: &[&[u8]]) -> Vec<u8> {
        parts.concat()
    }

    /// `bytes` cut into two chunks at `at`.
    fn split_at(bytes: &[u8], at: usize) -> Vec<Vec<u8>> {
        vec![bytes[..at].to_vec(), bytes[at..].to_vec()]
    }

    #[test]
    fn parser_edge_cases_table() {
        let end = END_MARKER.to_be_bytes();
        let r1 = record_bytes(b"first", b"1");
        let r2 = record_bytes(b"second", b"22");
        let long_key = vec![b'k'; 30];
        let long_val = vec![b'v'; 50];
        let long = record_bytes(&long_key, &long_val);
        let huge_klen = cat(&[&(200u32 << 20).to_be_bytes(), &1u32.to_be_bytes(), b"xy"]);
        let huge_vlen = cat(&[&1u32.to_be_bytes(), &(200u32 << 20).to_be_bytes(), b"xy"]);
        let both = vec![rec("first", "1"), rec("second", "22")];

        // (name, chunks, records or the error kind)
        type Case = (String, Vec<Vec<u8>>, Result<Vec<Record>, io::ErrorKind>);
        let mut cases: Vec<Case> = Vec::new();
        let two = cat(&[&r1, &r2, &end]);
        for at in 0..=8 {
            cases.push((
                format!("second header split after {at} bytes"),
                split_at(&two, r1.len() + at),
                Ok(both.clone()),
            ));
        }
        cases.push((
            "a record longer than two chunks".into(),
            cat(&[&r1, &long, &end])
                .chunks(16)
                .map(<[u8]>::to_vec)
                .collect(),
            Ok(vec![rec("first", "1"), (long_key, long_val)]),
        ));
        for at in [1, 3] {
            cases.push((
                format!("end marker split {at}+{}", 4 - at),
                split_at(&cat(&[&r1, &end]), r1.len() + at),
                Ok(vec![rec("first", "1")]),
            ));
        }
        for (what, bad) in [("key", &huge_klen), ("value", &huge_vlen)] {
            for at in [2, 6] {
                cases.push((
                    format!("implausible {what} length stitched after {at} bytes"),
                    split_at(&cat(&[&r1, bad]), r1.len() + at),
                    Err(io::ErrorKind::InvalidData),
                ));
            }
        }
        cases.push((
            "markerless end, nothing pending".into(),
            split_at(&cat(&[&r1, &r2]), 5),
            Ok(both.clone()),
        ));
        cases.push((
            "markerless end, bytes pending".into(),
            split_at(&cat(&[&r1, &r2[..7]]), 5),
            Err(io::ErrorKind::UnexpectedEof),
        ));
        cases.push(("no input at all".into(), vec![], Ok(vec![])));

        for (name, chunks, expect) in cases {
            let got = parse_chunks(&chunks).map_err(|e| e.kind());
            assert_eq!(got, expect, "{name}");
        }
    }

    #[test]
    fn failed_merge_stays_failed() {
        let good = segment_bytes(&[rec("a", "1"), rec("c", "3"), rec("e", "5"), rec("g", "7")]);
        let full = segment_bytes(&[rec("b", "2"), rec("d", "4-a-long-value")]);
        let cut = &full[..full.len() - 6];
        let mut m = StreamingMerge::new(vec![
            SliceStream::chunked(&good, 4),
            SliceStream::chunked(cut, 4),
        ]);
        let mut before = Vec::new();
        let err = loop {
            match m.next_merged() {
                Ok(Some(r)) => before.push(r),
                Ok(None) => panic!("a truncated stream must not end cleanly"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(before, vec![rec("a", "1")], "failed on refilling after b");
        for _ in 0..3 {
            assert!(
                m.next_merged().is_err(),
                "a failed merge yields nothing more"
            );
        }
        assert_eq!(m.records_out(), 1);
    }

    #[test]
    fn parser_handles_arbitrary_chunk_boundaries() {
        let records = vec![rec("alpha", "1"), rec("beta", "22"), rec("gamma", "333")];
        let bytes = segment_bytes(&records);
        // Try every single split point.
        for split in 0..=bytes.len() {
            let mut p = RecordParser::new();
            p.push(bytes[..split].to_vec());
            let mut got = Vec::new();
            while let Some(r) = p.pop().unwrap() {
                got.push(r);
            }
            p.push(bytes[split..].to_vec());
            while let Some(r) = p.pop().unwrap() {
                got.push(r);
            }
            assert_eq!(got, records, "split at {split}");
            assert!(p.finished());
        }
    }

    #[test]
    fn parser_byte_at_a_time() {
        let records = vec![rec("k1", "v1"), rec("k2", "v2")];
        let bytes = segment_bytes(&records);
        let mut p = RecordParser::new();
        let mut got = Vec::new();
        for &b in &bytes {
            p.push(vec![b]);
            while let Some(r) = p.pop().unwrap() {
                got.push(r);
            }
        }
        assert_eq!(got, records);
        assert!(p.finished());
        assert_eq!(p.pending_bytes(), 0);
    }

    #[test]
    fn parser_rejects_implausible_lengths() {
        let mut p = RecordParser::new();
        p.push(u32::MAX.to_be_bytes()[..3].to_vec()); // not enough for a length yet
        assert!(p.pop().unwrap().is_none());
        let mut p = RecordParser::new();
        p.push((200u32 << 20).to_be_bytes().to_vec());
        p.push(8u32.to_be_bytes().to_vec());
        assert!(p.pop().is_err());
    }

    /// A key shaped to stress the prefix compare: a stem of 0, 1, 7 or 8
    /// bytes that many keys share, then up to 3 bytes from {0, 1, `a`}.
    /// That gives empty keys, keys shorter than 8 bytes, keys sharing
    /// their first 8 bytes, and keys that are prefixes of one another
    /// (`a` and `a\0`, whose zero-padded prefixes are equal).
    fn shaped_key() -> impl Strategy<Value = Vec<u8>> {
        (0usize..4, prop::collection::vec(0usize..3, 0..4)).prop_map(|(stem, tail)| {
            let mut key = [&b""[..], b"a", b"prefix0", b"prefix08"][stem].to_vec();
            key.extend(tail.into_iter().map(|i| [0u8, 1, b'a'][i]));
            key
        })
    }

    proptest! {
        /// The streaming merge over segments cut into random chunk sizes,
        /// and `merge_sorted_runs` over the same runs, both equal a stable
        /// sort of the runs' concatenation by key: order and cross-stream
        /// stability.
        #[test]
        fn merges_equal_a_stable_sort_of_the_concatenated_runs(
            runs in prop::collection::vec(
                (prop::collection::vec(shaped_key(), 0..40), 1usize..301),
                0..8,
            )
        ) {
            let chunks: Vec<usize> = runs.iter().map(|(_, chunk)| *chunk).collect();
            let runs: Vec<Vec<Record>> = runs
                .into_iter()
                .enumerate()
                .map(|(r, (mut keys, _))| {
                    keys.sort();
                    keys.into_iter()
                        .enumerate()
                        .map(|(i, k)| (k, format!("{r}.{i}").into_bytes()))
                        .collect()
                })
                .collect();
            let mut expect = runs.concat();
            expect.sort_by(|a, b| a.0.cmp(&b.0));
            let segments: Vec<Vec<u8>> = runs.iter().map(|r| segment_bytes(r)).collect();
            let streams = segments
                .iter()
                .zip(&chunks)
                .map(|(s, &chunk)| SliceStream::chunked(s, chunk))
                .collect();
            prop_assert_eq!(&StreamingMerge::new(streams).collect_all().unwrap(), &expect);
            prop_assert_eq!(&merge_sorted_runs(runs), &expect);
        }
    }

    #[test]
    fn streaming_merge_equals_materialized_merge() {
        use jbs_des::DetRng;
        let mut rng = DetRng::new(71);
        let mut runs: Vec<Vec<Record>> = Vec::new();
        for _ in 0..7 {
            let mut run: Vec<Record> = (0..rng.uniform_u64(0, 60))
                .map(|_| {
                    (
                        format!("{:05}", rng.uniform_u64(0, 300)).into_bytes(),
                        vec![7u8; rng.uniform_u64(0, 30) as usize],
                    )
                })
                .collect();
            sort_run(&mut run);
            runs.push(run);
        }
        let segments: Vec<Vec<u8>> = runs.iter().map(|r| segment_bytes(r)).collect();
        // Tiny 13-byte "transport buffers" split records adversarially.
        let streams: Vec<SliceStream> = segments
            .iter()
            .map(|s| SliceStream::chunked(s, 13))
            .collect();
        let merged = StreamingMerge::new(streams).collect_all().unwrap();
        let expect = merge_sorted_runs(runs);
        assert_eq!(merged, expect);
        assert!(is_sorted(&merged));
    }

    #[test]
    fn streaming_merge_is_stable_across_streams() {
        let a = segment_bytes(&[rec("k", "first")]);
        let b = segment_bytes(&[rec("k", "second")]);
        let merged = StreamingMerge::new(vec![
            SliceStream::chunked(&a, 5),
            SliceStream::chunked(&b, 5),
        ])
        .collect_all()
        .unwrap();
        assert_eq!(merged[0].1, b"first");
        assert_eq!(merged[1].1, b"second");
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_hang() {
        let full = segment_bytes(&[rec("key", "a-long-value")]);
        let cut = &full[..full.len() - 6];
        let mut m = StreamingMerge::new(vec![SliceStream::chunked(cut, 4)]);
        let err = loop {
            match m.next_merged() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("should have errored"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Subsequent pulls keep failing rather than yielding garbage.
        assert!(m.next_merged().is_err());
    }

    #[test]
    fn empty_and_markerless_streams() {
        let empty = segment_bytes(&[]);
        let merged = StreamingMerge::new(vec![SliceStream::chunked(&empty, 3)])
            .collect_all()
            .unwrap();
        assert!(merged.is_empty());
        // A zero-byte stream (no marker at all) also ends cleanly.
        let nothing: &[u8] = &[];
        let merged = StreamingMerge::new(vec![SliceStream::chunked(nothing, 3)])
            .collect_all()
            .unwrap();
        assert!(merged.is_empty());
    }

    #[test]
    fn merge_pull_trace_attributes_records_to_streams() {
        let a = segment_bytes(&[rec("a", "1"), rec("c", "3")]);
        let b = segment_bytes(&[rec("b", "2")]);
        let trace = jbs_obs::Trace::recording(64);
        let merged = StreamingMerge::new(vec![
            SliceStream::chunked(&a, 7),
            SliceStream::chunked(&b, 7),
        ])
        .with_trace(trace.clone())
        .collect_all()
        .unwrap();
        assert_eq!(merged.len(), 3);
        let q = trace.query();
        assert_eq!(q.count("merge.pull"), 3);
        assert_eq!(
            q.entity(jbs_obs::Entity::stream(0)).count("merge.pull"),
            2,
            "stream 0 contributed a and c"
        );
        assert_eq!(q.entity(jbs_obs::Entity::stream(1)).count("merge.pull"), 1);
    }

    #[test]
    fn records_out_counts() {
        let seg = segment_bytes(&[rec("a", "1"), rec("b", "2")]);
        let mut m = StreamingMerge::new(vec![SliceStream::chunked(&seg, 64)]);
        assert_eq!(m.records_out(), 0);
        m.next_merged().unwrap();
        assert_eq!(m.records_out(), 1);
        m.next_merged().unwrap();
        m.next_merged().unwrap();
        assert_eq!(m.records_out(), 2);
    }
}
