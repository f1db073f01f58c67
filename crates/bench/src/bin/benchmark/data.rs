//! Deterministic benchmark inputs and the correctness oracle.
//!
//! Every MOF is a function of `(seed, mof id)` alone. The oracle is
//! computed here, at set-up, from the source bytes — never from
//! anything the dataplane returned.

use jbs_des::DetRng;
use jbs_mapred::merge::{sort_run, Record};
use jbs_mapred::mof::MofWriter;
use std::collections::HashMap;

pub const KEY_BYTES: usize = 10;
pub const VALUE_BYTES: usize = 90;
/// Key + value: what the paper calls a 100-byte record.
pub const RECORD_BYTES: usize = KEY_BYTES + VALUE_BYTES;

/// How much data a workload shuffles.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub suppliers: usize,
    pub mofs_per_supplier: usize,
    pub reducers: usize,
    pub records_per_mof: usize,
}

impl Shape {
    /// Two suppliers, ~2 MiB segments, ~132 MiB per pass.
    pub const STANDARD: Shape = Shape {
        suppliers: 2,
        mofs_per_supplier: 4,
        reducers: 8,
        records_per_mof: 160_000,
    };
    /// One of `STANDARD`'s suppliers: ~66 MiB per pass. The MOF-backed
    /// workloads run it, because a MOF-backed supplier has five disk-side
    /// threads beside its reactor, and two such suppliers plus the
    /// client's workers on two cores make a pass run at one of two speeds
    /// with the scheduler's placement.
    pub const ONE_SUPPLIER: Shape = Shape {
        suppliers: 1,
        ..Shape::STANDARD
    };
    /// ~6.7 KiB segments, 8 192 per pass, ~53 MiB per pass, one supplier.
    pub const SMALL_SEG: Shape = Shape {
        suppliers: 1,
        mofs_per_supplier: 128,
        reducers: 64,
        records_per_mof: 4_000,
    };

    /// `--smoke`: same structure, `1/div` of the records.
    pub fn shrunk(self, div: usize) -> Shape {
        Shape {
            records_per_mof: (self.records_per_mof / div.max(1)).max(self.reducers),
            ..self
        }
    }

    pub fn mofs(&self) -> usize {
        self.suppliers * self.mofs_per_supplier
    }
}

/// The partitioner every MOF is written with.
pub fn partition_of(key: &[u8], reducers: usize) -> usize {
    key.first().copied().unwrap_or(0) as usize % reducers
}

/// One generated map output.
pub struct Mof {
    pub id: u64,
    /// All records, grouped by reducer and key-sorted within each group
    /// (what `MofStore::write_mof` takes).
    pub records: Vec<Record>,
    /// Each reducer's segment in the MOF data format — what a fetch of
    /// `(id, reducer)` must return byte for byte.
    pub segments: Vec<Vec<u8>>,
    pub expect: Vec<Expect>,
}

/// What the oracle knows about one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub len: u64,
    pub digest: u64,
    pub records: u64,
    /// Order-independent sum of [`record_hash`] over the records.
    pub record_sum: u64,
}

pub fn generate_mof(seed: u64, id: u64, reducers: usize, records: usize) -> Mof {
    let mut rng = DetRng::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    );
    let mut buckets: Vec<Vec<Record>> = vec![Vec::new(); reducers];
    let mut raw = [0u8; RECORD_BYTES];
    for _ in 0..records {
        rng.fill_bytes(&mut raw);
        let (k, v) = raw.split_at(KEY_BYTES);
        buckets[partition_of(k, reducers)].push((k.to_vec(), v.to_vec()));
    }
    let mut mof = Mof {
        id,
        records: Vec::with_capacity(records),
        segments: Vec::with_capacity(reducers),
        expect: Vec::with_capacity(reducers),
    };
    for mut bucket in buckets {
        sort_run(&mut bucket);
        let mut w = MofWriter::new();
        w.begin_segment();
        let mut record_sum = 0u64;
        for (k, v) in &bucket {
            w.append(k, v);
            record_sum = record_sum.wrapping_add(record_hash(k, v));
        }
        w.end_segment();
        let segment = w.finish().0.to_vec();
        mof.expect.push(Expect {
            len: segment.len() as u64,
            digest: digest(&segment),
            records: bucket.len() as u64,
            record_sum,
        });
        mof.segments.push(segment);
        mof.records.append(&mut bucket);
    }
    mof
}

/// Word-wise 64-bit digest: 8 bytes per step, so verifying a pass costs
/// a small fraction of fetching it.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = K ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        h = (h.rotate_left(23) ^ w).wrapping_mul(K);
    }
    for &b in words.remainder() {
        h = (h.rotate_left(23) ^ u64::from(b)).wrapping_mul(K);
    }
    h ^ (h >> 29)
}

pub fn record_hash(key: &[u8], value: &[u8]) -> u64 {
    digest(key).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ digest(value)
}

/// Segment oracle for a whole cluster, keyed by `(mof, reducer)`.
#[derive(Default)]
pub struct Oracle {
    segs: HashMap<(u64, u32), Expect>,
}

impl Oracle {
    pub fn add_mof(&mut self, mof: &Mof) {
        for (r, e) in mof.expect.iter().enumerate() {
            self.segs.insert((mof.id, r as u32), *e);
        }
    }

    pub fn get(&self, mof: u64, reducer: u32) -> Option<&Expect> {
        self.segs.get(&(mof, reducer))
    }

    /// Does a fetched payload match the source segment?
    pub fn segment_ok(&self, mof: u64, reducer: u32, payload: &[u8]) -> bool {
        self.get(mof, reducer)
            .is_some_and(|e| e.len == payload.len() as u64 && e.digest == digest(payload))
    }

    /// Is `merged` the key-ordered union of the named segments' records?
    pub fn merge_ok(&self, segs: &[(u64, u32)], merged: &[Record]) -> bool {
        let (mut want_n, mut want_sum) = (0u64, 0u64);
        for &(mof, reducer) in segs {
            let Some(e) = self.get(mof, reducer) else {
                return false;
            };
            want_n += e.records;
            want_sum = want_sum.wrapping_add(e.record_sum);
        }
        let sum = merged
            .iter()
            .fold(0u64, |s, (k, v)| s.wrapping_add(record_hash(k, v)));
        merged.len() as u64 == want_n
            && sum == want_sum
            && merged.windows(2).all(|w| w[0].0 <= w[1].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jbs_mapred::mof::SegmentReader;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = generate_mof(7, 3, 4, 400);
        let b = generate_mof(7, 3, 4, 400);
        let c = generate_mof(8, 3, 4, 400);
        assert_eq!(a.segments, b.segments);
        assert_ne!(a.segments, c.segments);
        assert_eq!(a.records.len(), 400);
    }

    #[test]
    fn segments_hold_their_partition_sorted() {
        let m = generate_mof(1, 0, 4, 400);
        for (r, seg) in m.segments.iter().enumerate() {
            let recs: Vec<_> = SegmentReader::new(seg).map(|x| x.unwrap()).collect();
            assert_eq!(recs.len() as u64, m.expect[r].records);
            assert!(recs.iter().all(|(k, _)| partition_of(k, 4) == r));
            assert!(recs.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn oracle_catches_flips_truncation_and_disorder() {
        let m = generate_mof(1, 0, 2, 200);
        let mut o = Oracle::default();
        o.add_mof(&m);
        let seg = m.segments[1].clone();
        assert!(o.segment_ok(0, 1, &seg));
        let mut flipped = seg.clone();
        flipped[seg.len() / 2] ^= 1;
        assert!(!o.segment_ok(0, 1, &flipped));
        assert!(!o.segment_ok(0, 1, &seg[..seg.len() - 1]));
        assert!(!o.segment_ok(0, 0, &seg));

        let merged: Vec<Record> = SegmentReader::new(&seg)
            .map(|x| x.map(|(k, v)| (k.to_vec(), v.to_vec())).unwrap())
            .collect();
        assert!(o.merge_ok(&[(0, 1)], &merged));
        let mut swapped = merged.clone();
        swapped.swap(0, 1);
        assert!(!o.merge_ok(&[(0, 1)], &swapped));
        assert!(!o.merge_ok(&[(0, 1)], &merged[1..]));
    }
}
