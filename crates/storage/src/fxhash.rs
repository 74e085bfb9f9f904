//! A minimal Fx-style hasher for the storage layer's hot maps.
//!
//! The store's indexes hash tiny keys — interned symbol ids, null ids,
//! `(Row, Interval)` tuples of a few machine words — millions of times per
//! chase. SipHash's per-instance initialization and per-round cost dominate
//! those operations; the multiply-xor folding below (the rustc `FxHasher`
//! scheme) is 3-10× cheaper on such keys.
//!
//! The keys are *not* trusted: fact values come straight from `.facts`
//! files, batches and wire frames. The multiply keeps every bit of a
//! word's hash a function of that word's *lower* bits only, so keys that
//! differ only in their high bits (integers `k · 2^40`, say) would agree
//! in the low bits a hash table indexes by, and every such key would land
//! in one probe chain. [`FxHasher::finish`] therefore rotates the state
//! (as rustc-hash 2 does), folding the well-mixed high bits into the low
//! ones. This is no defence against a deliberate HashDoS — the seed is
//! fixed — but natural data with high-bit structure spreads evenly.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the Fx hasher.
// tdx-lint: allow(hash-order): this alias pins the fixed-seed hasher the rule steers everyone toward
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the Fx hasher.
// tdx-lint: allow(hash-order): same fixed-seed hasher as the map alias above
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc/firefox multiply-xor hasher: fold each word into the state
/// with a rotate, xor, and odd-constant multiply.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }

    /// The unrotated multiply-xor state: the digest persisted state
    /// fingerprints were recorded with before [`finish`](Hasher::finish)
    /// gained its rotation, kept so those fingerprints stay valid.
    #[inline]
    pub fn finish_unrotated(&self) -> u64 {
        self.hash
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while let Some((chunk, tail)) = rest.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*chunk));
            rest = tail;
        }
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<(u32, u64), Vec<u32>> = FxHashMap::default();
        for i in 0..1000u32 {
            m.entry((i % 7, (i as u64) % 13)).or_default().push(i);
        }
        assert_eq!(m.len(), 7 * 13);
        let mut s: FxHashSet<String> = FxHashSet::default();
        assert!(s.insert("a".into()));
        assert!(!s.insert("a".into()));
    }

    #[test]
    fn distributes_small_integers() {
        // Sanity: consecutive ids should not collapse to few buckets.
        let hashes: std::collections::HashSet<u64> = (0..1024u64)
            .map(|v| {
                let mut h = FxHasher::default();
                h.write_u64(v);
                h.finish()
            })
            .collect();
        assert_eq!(hashes.len(), 1024);
    }

    #[test]
    fn high_bit_keys_spread_over_the_low_bits() {
        // Integers that differ only above bit 40 (`k << 40`) must still
        // spread over the low bits a table indexes by. Without the
        // rotation every such key shares its low 40 bits; with it, the
        // low 12 bits carry 10 bits of `k`.
        let low12 = |tag: Option<u8>, k: u64, rotated: bool| {
            let mut h = FxHasher::default();
            if let Some(t) = tag {
                h.write_u8(t); // the shape of an enum-tagged value
            }
            h.write_u64(k << 40);
            let hash = if rotated {
                h.finish()
            } else {
                h.finish_unrotated()
            };
            hash & 0xfff
        };
        for tag in [None, Some(1)] {
            let spread = |rotated: bool| {
                (0..4096u64)
                    .map(|k| low12(tag, k, rotated))
                    .collect::<std::collections::BTreeSet<u64>>()
                    .len()
            };
            assert_eq!(spread(false), 1, "unrotated, every key collides");
            assert!(spread(true) >= 1024, "{} low-bit buckets", spread(true));
        }
    }
}
