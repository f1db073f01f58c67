//! Real data generators for the loopback dataplane and the examples.

use jbs_des::DetRng;

/// Terasort key length (10 bytes, as in the TeraGen format).
pub const TERASORT_KEY_LEN: usize = 10;
/// Terasort record length (100 bytes: 10-byte key + 90-byte payload).
pub const TERASORT_RECORD_LEN: usize = 100;

/// Generate `n` Teragen-style records: a 10-byte random key and a 90-byte
/// payload. Deterministic in the RNG seed.
pub fn gen_terasort_records(n: usize, rng: &mut DetRng) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|_| {
            let mut key = vec![0u8; TERASORT_KEY_LEN];
            rng.fill_bytes(&mut key);
            // Keys are printable in TeraGen; map into ' '..'~' for realism.
            for b in key.iter_mut() {
                *b = b' ' + (*b % 95);
            }
            let mut val = vec![0u8; TERASORT_RECORD_LEN - TERASORT_KEY_LEN];
            rng.fill_bytes(&mut val);
            (key, val)
        })
        .collect()
}

/// A small embedded vocabulary for synthetic "wikipedia-like" text.
const VOCAB: [&str; 64] = [
    "the",
    "of",
    "and",
    "a",
    "in",
    "to",
    "is",
    "was",
    "it",
    "for",
    "with",
    "as",
    "on",
    "by",
    "at",
    "from",
    "that",
    "this",
    "are",
    "an",
    "be",
    "or",
    "which",
    "but",
    "not",
    "his",
    "her",
    "they",
    "have",
    "has",
    "had",
    "were",
    "been",
    "their",
    "its",
    "more",
    "other",
    "when",
    "there",
    "can",
    "also",
    "into",
    "only",
    "some",
    "than",
    "most",
    "time",
    "first",
    "world",
    "system",
    "data",
    "network",
    "cluster",
    "node",
    "merge",
    "shuffle",
    "hadoop",
    "java",
    "memory",
    "disk",
    "performance",
    "bandwidth",
    "latency",
    "protocol",
];

/// Generate roughly `bytes` of whitespace-separated synthetic text with a
/// Zipf-like word distribution (as natural language has). Deterministic in
/// the RNG seed.
pub fn gen_text(bytes: usize, rng: &mut DetRng) -> String {
    let mut out = String::with_capacity(bytes + 16);
    while out.len() < bytes {
        let w = VOCAB[rng.zipf(VOCAB.len() as u64, 0.8) as usize];
        out.push_str(w);
        out.push(' ');
    }
    out
}

/// Split text into (word, 1) pairs — the WordCount map function.
pub fn wordcount_map(text: &str) -> Vec<(Vec<u8>, Vec<u8>)> {
    text.split_whitespace()
        .map(|w| (w.as_bytes().to_vec(), vec![1u8]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terasort_records_have_the_right_shape() {
        let mut rng = DetRng::new(1);
        let recs = gen_terasort_records(100, &mut rng);
        assert_eq!(recs.len(), 100);
        for (k, v) in &recs {
            assert_eq!(k.len(), TERASORT_KEY_LEN);
            assert_eq!(k.len() + v.len(), TERASORT_RECORD_LEN);
            assert!(k.iter().all(|&b| (b' '..=b'~').contains(&b)));
        }
    }

    #[test]
    fn terasort_records_are_deterministic_and_distinct() {
        let a = gen_terasort_records(50, &mut DetRng::new(9));
        let b = gen_terasort_records(50, &mut DetRng::new(9));
        assert_eq!(a, b);
        let mut keys: Vec<_> = a.iter().map(|(k, _)| k.clone()).collect();
        keys.sort();
        keys.dedup();
        assert!(keys.len() > 45, "keys should be near-unique");
    }

    #[test]
    fn text_is_roughly_the_requested_size_and_skewed() {
        let mut rng = DetRng::new(3);
        let text = gen_text(10_000, &mut rng);
        assert!(text.len() >= 10_000 && text.len() < 10_100);
        let words = wordcount_map(&text);
        // Zipf skew: the most common word should dominate.
        let mut counts = std::collections::HashMap::new();
        for (w, _) in &words {
            *counts.entry(w.clone()).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        let mean = words.len() as u32 / counts.len() as u32;
        assert!(max > mean * 3, "max {max} vs mean {mean}");
    }

    #[test]
    fn wordcount_map_emits_one_pair_per_word() {
        let pairs = wordcount_map("a b a");
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].0, b"a");
        assert_eq!(pairs[0].1, vec![1]);
    }
}
