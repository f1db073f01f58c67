//! Property-based tests (proptest) on the core data structures and
//! invariants, across crates.

use jbs::des::{DetRng, EventQueue, LruCache, SimTime};
use jbs::disk::PageCache;
use jbs::mapred::merge::{is_sorted, merge_sorted_runs, sort_run, Record};
use jbs::mapred::mof::{MofIndex, MofWriter, SegmentReader};
use jbs::mapred::sim::plan::split_segments;
use jbs::transport::wire::{FetchRequest, FetchResponse};
use jbs::workloads::{HashPartitioner, Partitioner, RangePartitioner};
use proptest::prelude::*;

proptest! {
    /// Events pop in non-decreasing time order, FIFO among ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated among equal timestamps");
                }
            }
            last = Some((t, i));
        }
    }

    /// The LRU cache behaves exactly like a naive ordered-vec model.
    #[test]
    fn lru_matches_reference_model(
        cap in 1usize..12,
        ops in prop::collection::vec((0u64..24, prop::bool::ANY), 1..300),
    ) {
        let mut lru = LruCache::new(cap);
        let mut model: Vec<u64> = Vec::new(); // front = MRU
        for (key, is_insert) in ops {
            if is_insert {
                lru.insert(key, ());
                model.retain(|&k| k != key);
                model.insert(0, key);
                model.truncate(cap);
            } else {
                let hit = lru.touch(&key);
                prop_assert_eq!(hit, model.contains(&key));
                if hit {
                    model.retain(|&k| k != key);
                    model.insert(0, key);
                }
            }
            prop_assert_eq!(lru.keys_mru(), model.clone());
        }
    }

    /// MOF write → index → segment read round-trips arbitrary records.
    #[test]
    fn mof_roundtrip(
        segments in prop::collection::vec(
            prop::collection::vec(
                (prop::collection::vec(any::<u8>(), 0..40),
                 prop::collection::vec(any::<u8>(), 0..60)),
                0..20,
            ),
            1..6,
        )
    ) {
        let mut w = MofWriter::new();
        for seg in &segments {
            w.begin_segment();
            for (k, v) in seg {
                w.append(k, v);
            }
            w.end_segment();
        }
        let (data, index) = w.finish();
        let index2 = MofIndex::from_bytes(&index.to_bytes()).unwrap();
        prop_assert_eq!(&index2, &index);
        for (r, seg) in segments.iter().enumerate() {
            let e = index.entry(r).unwrap();
            let bytes = &data[e.offset as usize..(e.offset + e.part_len) as usize];
            let got: Vec<(Vec<u8>, Vec<u8>)> = SegmentReader::new(bytes)
                .map(|x| {
                    let (k, v) = x.unwrap();
                    (k.to_vec(), v.to_vec())
                })
                .collect();
            prop_assert_eq!(&got, seg);
        }
    }

    /// K-way merging sorted runs equals globally sorting the union.
    #[test]
    fn kway_merge_equals_global_sort(
        runs in prop::collection::vec(
            prop::collection::vec(
                (prop::collection::vec(any::<u8>(), 0..8), 0u8..255),
                0..50,
            ),
            0..8,
        )
    ) {
        let runs: Vec<Vec<Record>> = runs
            .into_iter()
            .map(|r| {
                let mut run: Vec<Record> =
                    r.into_iter().map(|(k, v)| (k, vec![v])).collect();
                sort_run(&mut run);
                run
            })
            .collect();
        let mut expect: Vec<Record> = runs.iter().flatten().cloned().collect();
        let merged = merge_sorted_runs(runs);
        prop_assert!(is_sorted(&merged));
        sort_run(&mut expect);
        let merged_keys: Vec<&Vec<u8>> = merged.iter().map(|(k, _)| k).collect();
        let expect_keys: Vec<&Vec<u8>> = expect.iter().map(|(k, _)| k).collect();
        prop_assert_eq!(merged_keys, expect_keys);
    }

    /// Segment splitting conserves bytes and stays near-balanced.
    #[test]
    fn segment_split_conserves_bytes(total in 0u64..100_000_000, parts in 1usize..128, seed in any::<u64>()) {
        let mut rng = DetRng::new(seed);
        let split = split_segments(total, parts, &mut rng);
        prop_assert_eq!(split.len(), parts);
        prop_assert_eq!(split.iter().sum::<u64>(), total);
        if total > 10_000 * parts as u64 {
            let base = total / parts as u64;
            for &s in &split {
                prop_assert!(s >= base / 2 && s <= base * 2);
            }
        }
    }

    /// Page cache accounting: hits + misses always cover the request.
    #[test]
    fn page_cache_accounting(
        ops in prop::collection::vec((0u64..4, 0u64..(1 << 22), 1u64..(1 << 20), prop::bool::ANY), 1..80)
    ) {
        let mut cache = PageCache::new(4 << 20);
        for (file, offset, len, is_write) in ops {
            if is_write {
                cache.write(file, offset, len);
            } else {
                let out = cache.read(file, offset, len);
                let miss: u64 = out.miss_runs.iter().map(|&(_, l)| l).sum();
                // Miss runs are block-aligned supersets of the missing part.
                prop_assert!(out.hit_bytes <= len);
                prop_assert!(out.hit_bytes + miss >= len);
                // Runs are disjoint and ordered.
                for w in out.miss_runs.windows(2) {
                    prop_assert!(w[0].0 + w[0].1 <= w[1].0);
                }
                cache.fill(file, offset, len);
                // Immediately re-reading must now fully hit.
                prop_assert!(cache.read(file, offset, len).fully_cached());
            }
            prop_assert!(cache.resident_bytes() <= cache.capacity_bytes());
        }
    }

    /// Wire requests round-trip through encode/decode.
    #[test]
    fn wire_request_roundtrip(id in any::<u64>(), mof in any::<u64>(), reducer in any::<u32>(), offset in any::<u64>(), len in any::<u64>(), flags in any::<u8>()) {
        let req = FetchRequest { id, mof, reducer, offset, len, flags };
        prop_assert_eq!(FetchRequest::decode(&req.encode_v3()).unwrap(), req);
    }

    /// Wire responses round-trip through a stream.
    #[test]
    fn wire_response_roundtrip(id in any::<u64>(), payload in prop::collection::vec(any::<u8>(), 0..4096), seg_len in any::<u64>()) {
        let resp = FetchResponse::ok_crc(id, payload, seg_len);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = FetchResponse::read_from(&mut std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back, resp);
    }

    /// Partitioners always map into range; the range partitioner is
    /// monotone in the key order.
    #[test]
    fn partitioners_are_total_and_range_is_monotone(
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 1..100),
        parts in 1usize..32,
    ) {
        let hash = HashPartitioner::new(parts);
        for k in &keys {
            prop_assert!(hash.partition(k) < parts);
        }
        let range = RangePartitioner::from_sample(keys.clone(), parts);
        let mut sorted = keys.clone();
        sorted.sort();
        let mut last = 0usize;
        for k in &sorted {
            let p = range.partition(k);
            prop_assert!(p < parts);
            prop_assert!(p >= last, "range partitioner must be monotone");
            last = p;
        }
    }

    /// SimTime byte-rate arithmetic is monotone in both arguments.
    #[test]
    fn transfer_time_is_monotone(a in 1u64..(1 << 40), b in 1u64..(1 << 40), bw in 1.0e6f64..1.0e10) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(SimTime::for_bytes(lo, bw) <= SimTime::for_bytes(hi, bw));
        prop_assert!(SimTime::for_bytes(lo, bw * 2.0) <= SimTime::for_bytes(lo, bw));
    }
}
