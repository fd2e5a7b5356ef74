//! A tiny, fast integer hasher for integer-keyed maps.
//!
//! The standard library's SipHash is collision-resistant but slow for the
//! integer keys a column store hashes. Rather than pulling in an
//! external hasher crate, we implement the well-known Fibonacci/multiply-xor
//! mix (the same family as `fxhash`) in a dozen lines. HashDoS is not a
//! concern: keys come from our own generators, not from untrusted input.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher specialised for `u64`/`usize` keys.
#[derive(Default, Clone)]
pub struct IntHasher {
    state: u64,
}

/// 2^64 / golden ratio, the classic Fibonacci-hashing multiplier.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (rarely taken): fold 8-byte words.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state ^ v).wrapping_mul(SEED);
        // Finish with a xor-shift so the high (table-index) bits depend on
        // every input bit.
        self.state ^= self.state >> 32;
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`IntHasher`].
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// `HashMap` keyed by integers with the fast hasher.
pub type IntMap<K, V> = std::collections::HashMap<K, V, IntBuildHasher>;

/// `HashSet` keyed by integers with the fast hasher.
pub type IntSet<K> = std::collections::HashSet<K, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        for i in 0..10_000u64 {
            m.insert(i, i * 2);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.get(&10_001), None);
    }

    #[test]
    fn sequential_keys_spread_across_high_bits() {
        // The xor-shift finish must spread consecutive keys; count distinct
        // top-16-bit buckets for 4096 sequential keys.
        let mut buckets = IntSet::default();
        for i in 0..4096u64 {
            let mut h = IntHasher::default();
            h.write_u64(i);
            buckets.insert(h.finish() >> 48);
        }
        assert!(buckets.len() > 1000, "only {} buckets", buckets.len());
    }

    #[test]
    fn byte_path_consistent_with_word_path() {
        let mut a = IntHasher::default();
        a.write_u64(0xDEAD_BEEF);
        let mut b = IntHasher::default();
        b.write(&0xDEAD_BEEFu64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
