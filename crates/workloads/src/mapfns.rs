//! Real map and reduce functions for the paper's benchmarks.
//!
//! The job simulator only needs each benchmark's cost profile ([`crate::suite`]),
//! but the real dataplane and the examples run genuine MapReduce logic.
//! These are the map/reduce functions of the Hadoop examples and the
//! Tarazu suite, operating on real bytes:
//!
//! | benchmark | map emits | reduce computes |
//! |---|---|---|
//! | WordCount | `(word, 1)` | sum of counts |
//! | Grep | `(line, 1)` for matching lines | sum |
//! | InvertedIndex | `(word, doc-id)` | sorted posting list |
//! | SelfJoin | `(prefix, last-element)` over k-element sets | pairwise joins |
//! | AdjacencyList | `(from, to)` edges | sorted adjacency list |
//! | SequenceCount | `(w1 w2 w3, 1)` trigrams | sum |

use jbs_mapred::merge::Record;

/// WordCount map: one `(word, 1)` per whitespace-separated token.
pub fn wordcount_map(doc: &str) -> Vec<Record> {
    doc.split_whitespace()
        .map(|w| (w.as_bytes().to_vec(), 1u64.to_be_bytes().to_vec()))
        .collect()
}

/// Sum-reduce for count-style benchmarks (WordCount, SequenceCount, Grep):
/// input values are big-endian u64 counts of one key.
pub fn sum_reduce(values: &[Vec<u8>]) -> u64 {
    values
        .iter()
        .map(|v| {
            let mut buf = [0u8; 8];
            let n = v.len().min(8);
            buf[8 - n..].copy_from_slice(&v[v.len() - n..]);
            u64::from_be_bytes(buf)
        })
        .sum()
}

/// Grep map: emit `(line, 1)` for every line containing `pattern`.
pub fn grep_map(doc: &str, pattern: &str) -> Vec<Record> {
    doc.lines()
        .filter(|l| l.contains(pattern))
        .map(|l| (l.as_bytes().to_vec(), 1u64.to_be_bytes().to_vec()))
        .collect()
}

/// InvertedIndex map: `(word, doc_id)` per distinct word of the document.
pub fn inverted_index_map(doc_id: u64, doc: &str) -> Vec<Record> {
    let mut words: Vec<&str> = doc.split_whitespace().collect();
    words.sort_unstable();
    words.dedup();
    words
        .into_iter()
        .map(|w| (w.as_bytes().to_vec(), doc_id.to_be_bytes().to_vec()))
        .collect()
}

/// InvertedIndex reduce: the sorted, deduplicated posting list of a word.
pub fn inverted_index_reduce(values: &[Vec<u8>]) -> Vec<u64> {
    let mut ids: Vec<u64> = values
        .iter()
        .filter(|v| v.len() == 8)
        .map(|v| u64::from_be_bytes(v.as_slice().try_into().expect("8 bytes")))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// SequenceCount map: `(word-trigram, 1)` for every consecutive trigram.
pub fn sequence_count_map(doc: &str) -> Vec<Record> {
    let words: Vec<&str> = doc.split_whitespace().collect();
    words
        .windows(3)
        .map(|w| {
            (
                format!("{} {} {}", w[0], w[1], w[2]).into_bytes(),
                1u64.to_be_bytes().to_vec(),
            )
        })
        .collect()
}

/// AdjacencyList map: parse `from to` edge lines into `(from, to)` records.
pub fn adjacency_map(edges: &str) -> Vec<Record> {
    edges
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            match (it.next(), it.next()) {
                (Some(a), Some(b)) => Some((a.as_bytes().to_vec(), b.as_bytes().to_vec())),
                _ => None,
            }
        })
        .collect()
}

/// AdjacencyList reduce: a node's sorted, deduplicated out-neighbours.
pub fn adjacency_reduce(values: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = values.to_vec();
    out.sort();
    out.dedup();
    out
}

/// SelfJoin map (Tarazu's candidate-generation step): for each sorted
/// k-element set `e1,...,ek`, emit `(e1,...,e{k-1} ; ek)` — key is the
/// (k−1)-prefix, value the last element.
pub fn selfjoin_map(sets: &str) -> Vec<Record> {
    sets.lines()
        .filter_map(|line| {
            let elems: Vec<&str> = line.split(',').map(str::trim).collect();
            if elems.len() < 2 {
                return None;
            }
            let prefix = elems[..elems.len() - 1].join(",");
            Some((
                prefix.into_bytes(),
                elems[elems.len() - 1].as_bytes().to_vec(),
            ))
        })
        .collect()
}

/// SelfJoin reduce: all ordered pairs of the values sharing a prefix —
/// the (k+1)-element candidate sets.
pub fn selfjoin_reduce(values: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut sorted: Vec<Vec<u8>> = values.to_vec();
    sorted.sort();
    sorted.dedup();
    let mut pairs = Vec::new();
    for i in 0..sorted.len() {
        for j in i + 1..sorted.len() {
            pairs.push((sorted[i].clone(), sorted[j].clone()));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wordcount_roundtrip() {
        let recs = wordcount_map("a b a c a b");
        assert_eq!(recs.len(), 6);
        let a_counts: Vec<Vec<u8>> = recs
            .iter()
            .filter(|(k, _)| k == b"a")
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(sum_reduce(&a_counts), 3);
        assert_eq!(sum_reduce(&[]), 0);
    }

    #[test]
    fn grep_filters_lines() {
        let doc = "the quick fox\nslow turtle\nquick brown dog";
        let recs = grep_map(doc, "quick");
        assert_eq!(recs.len(), 2);
        assert!(recs
            .iter()
            .all(|(k, _)| { std::str::from_utf8(k).unwrap().contains("quick") }));
        assert!(grep_map(doc, "zebra").is_empty());
    }

    #[test]
    fn inverted_index_posting_lists() {
        let r1 = inverted_index_map(1, "hadoop shuffle hadoop");
        let r2 = inverted_index_map(2, "shuffle merge");
        assert_eq!(r1.len(), 2, "duplicate words deduplicated per doc");
        let shuffle_postings: Vec<Vec<u8>> = r1
            .iter()
            .chain(r2.iter())
            .filter(|(k, _)| k == b"shuffle")
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(inverted_index_reduce(&shuffle_postings), vec![1, 2]);
    }

    #[test]
    fn sequence_count_trigrams() {
        let recs = sequence_count_map("a b c d");
        let keys: Vec<String> = recs
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys, vec!["a b c", "b c d"]);
        assert!(sequence_count_map("a b").is_empty());
    }

    #[test]
    fn adjacency_list_builds_neighbours() {
        let recs = adjacency_map("1 2\n1 3\n2 3\n1 2\nbad-line");
        let n1: Vec<Vec<u8>> = recs
            .iter()
            .filter(|(k, _)| k == b"1")
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(
            adjacency_reduce(&n1),
            vec![b"2".to_vec(), b"3".to_vec()],
            "sorted and deduplicated"
        );
    }

    #[test]
    fn selfjoin_generates_candidate_pairs() {
        let recs = selfjoin_map("a,b,c\na,b,d\na,b,e\nx\n");
        assert_eq!(recs.len(), 3);
        assert!(recs.iter().all(|(k, _)| k == b"a,b"));
        let values: Vec<Vec<u8>> = recs.iter().map(|(_, v)| v.clone()).collect();
        let pairs = selfjoin_reduce(&values);
        // 3 values -> 3 ordered pairs: (c,d), (c,e), (d,e).
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0], (b"c".to_vec(), b"d".to_vec()));
    }

    #[test]
    fn selfjoin_is_quadratic_in_shared_prefixes() {
        // This is why SelfJoin is shuffle-heavy: n values with one key
        // produce n(n-1)/2 output pairs.
        let values: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8]).collect();
        assert_eq!(selfjoin_reduce(&values).len(), 45);
    }

    #[test]
    fn sum_reduce_handles_short_values() {
        // Tolerates values narrower than 8 bytes (e.g. single-byte counts).
        assert_eq!(sum_reduce(&[vec![1], vec![2], vec![3]]), 6);
    }
}
