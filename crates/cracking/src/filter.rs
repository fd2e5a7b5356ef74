//! Per-shard point-membership filters — the equality fast path.
//!
//! A [`PointFilter`] is a plain blocked-free Bloom filter over a shard's
//! value multiset: `contains(v) == false` proves `v` is absent, so an
//! equality or IN-list probe on a non-containing shard returns an empty
//! result **without cracking anything** — no structure lock, no piece
//! latch, no boundary insertion. The paper's exact-hit statistic `f_Ih`
//! (§4) counts queries whose bounds are already boundaries; the filter
//! extends that to point probes whose *value* provably is not there,
//! which for cold or non-containing shards is the common case under
//! point-heavy mixes.
//!
//! Concurrency contract:
//!
//! - Bits only ever get **set** ([`PointFilter::insert`] uses `fetch_or`),
//!   never cleared, so concurrent inserts cannot introduce a false
//!   negative. A filter nobody else sees yet — one being built — takes
//!   plain word ORs instead ([`PointFilter::insert_unshared`]). A racing
//!   `contains` may miss an in-flight insert; the column sets its filter
//!   and ORs inserts in under the one `pending` mutex.
//! - A column's filter is write-once, never rebuilt or resized. Deletes
//!   are ignored (a deleted value stays "maybe present"), so delete churn
//!   only raises the false-positive rate: a long-lived shard screens
//!   fewer absent keys, and never answers wrong.
//!
//! Sizing is ~[`BITS_PER_KEY`] bits per expected key rounded up to a
//! power of two, probed with [`HASHES`] derived hashes (double hashing
//! from one splitmix64 pass) — false-positive rate ≲ 1% at design load.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Filter bits provisioned per expected key (before power-of-two round-up).
pub const BITS_PER_KEY: usize = 10;

/// Derived hash probes per key.
pub const HASHES: usize = 6;

/// 64-bit finaliser (splitmix64): every input bit affects every output bit,
/// so one pass yields two independent 32-ish-bit hashes for double hashing.
#[inline(always)]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Lock-free Bloom filter over `i64` keys.
pub struct PointFilter {
    bits: Box<[AtomicU64]>,
    /// `bits.len() * 64 - 1`; bit indexing masks with this (power of two).
    mask: u64,
}

impl PointFilter {
    /// Builds an empty filter sized for `expected` keys (plus slack the
    /// caller provisions for pending inserts). Never allocates fewer than
    /// one word, so degenerate empty shards still probe safely.
    pub fn with_capacity(expected: usize) -> Self {
        let want_bits = expected.saturating_mul(BITS_PER_KEY).max(64);
        let words = (want_bits.div_ceil(64)).next_power_of_two();
        let bits = (0..words).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        PointFilter {
            bits: bits.into_boxed_slice(),
            mask: (words as u64 * 64) - 1,
        }
    }

    /// Total bits provisioned.
    pub fn nbits(&self) -> usize {
        self.bits.len() * 64
    }

    #[inline(always)]
    fn probes(&self, key: i64) -> impl Iterator<Item = u64> {
        let h = mix64(key as u64);
        let h1 = h & 0xffff_ffff;
        // Force h2 odd so successive probes cycle through distinct bits
        // even in tiny filters.
        let h2 = (h >> 32) | 1;
        let mask = self.mask;
        (0..HASHES as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2))) & mask)
    }

    /// Marks `key` present. Safe under arbitrary concurrency: bits only
    /// grow, so a racing reader can never be told a present key is absent.
    pub fn insert(&self, key: i64) {
        for bit in self.probes(key) {
            self.bits[(bit / 64) as usize].fetch_or(1 << (bit % 64), Relaxed);
        }
    }

    /// [`PointFilter::insert`] into a filter not shared yet (a build, before
    /// its publish): plain word ORs, no locked instruction.
    pub fn insert_unshared(&mut self, key: i64) {
        for bit in self.probes(key) {
            *self.bits[(bit / 64) as usize].get_mut() |= 1 << (bit % 64);
        }
    }

    /// `false` proves `key` was never inserted; `true` means "maybe".
    pub fn contains(&self, key: i64) -> bool {
        self.probes(key)
            .all(|bit| self.bits[(bit / 64) as usize].load(Relaxed) & (1 << (bit % 64)) != 0)
    }
}

impl std::fmt::Debug for PointFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PointFilter")
            .field("nbits", &self.nbits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let f = PointFilter::with_capacity(1000);
        for v in (0..1000).map(|i| i * 7 - 350) {
            f.insert(v);
        }
        for v in (0..1000).map(|i| i * 7 - 350) {
            assert!(f.contains(v), "inserted key {v} reported absent");
        }
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        let f = PointFilter::with_capacity(10_000);
        for v in 0..10_000i64 {
            f.insert(v * 2); // evens only
        }
        let mut fp = 0usize;
        let trials = 20_000usize;
        for i in 0..trials {
            if f.contains(i as i64 * 2 + 1) {
                fp += 1; // odd key can only be a false positive
            }
        }
        let rate = fp as f64 / trials as f64;
        assert!(
            rate < 0.02,
            "false-positive rate {rate} exceeds 2% at design load"
        );
    }

    #[test]
    fn unshared_inserts_set_the_bits_shared_ones_do() {
        let (shared, mut unshared) = (
            PointFilter::with_capacity(500),
            PointFilter::with_capacity(500),
        );
        for v in (0..500).map(|i| i * 13 - 2_000) {
            shared.insert(v);
            unshared.insert_unshared(v);
        }
        let words = |f: &PointFilter| f.bits.iter().map(|w| w.load(Relaxed)).collect::<Vec<_>>();
        assert_eq!(words(&shared), words(&unshared));
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = PointFilter::with_capacity(0);
        assert!(f.nbits() >= 64);
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert!(!f.contains(v));
        }
    }

    #[test]
    fn concurrent_inserts_never_drop_keys() {
        use std::sync::Arc;
        let f = Arc::new(PointFilter::with_capacity(8_000));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    for i in 0..2000i64 {
                        f.insert(t * 2000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for v in 0..8000i64 {
            assert!(f.contains(v));
        }
    }
}
