//! Vectorized, out-of-place crack kernel (Fig 5 of the paper, from [44]
//! "Database Cracking: Fancy Scan, not Poor Man's Sort!").
//!
//! The kernel copies the input piece once and writes the partition into the
//! original storage from both ends with a branch-free cursor update: every
//! element is written to *both* the low and the high cursor, then exactly one
//! cursor advances depending on the comparison. This removes the
//! hard-to-predict branch of the in-place swap loop, which is what makes it
//! the most CPU-efficient single-threaded cracking kernel reported in [44].

use crate::partition::DEFAULT_MIN_PARALLEL;
use holix_storage::types::{CrackValue, RowId};

/// Most slots a scratch keeps between calls. A scratch lives as long as
/// its thread, and without a bound every thread that ever cracked a whole
/// shard would hold a buffer that size for good (`service_steady` peak RSS
/// read 155 MB, once 212 MB, against the parent's 142 MB). Pieces long
/// enough to gang threads on are rare; they borrow a transient buffer.
const RETAIN: usize = DEFAULT_MIN_PARALLEL;

/// What a crack moves beside each value: the tuple's [`RowId`], or nothing
/// — `()`, for a column that has not built its row ids yet. Every kernel
/// has one body over `&mut [R]`; a slice of `()` occupies no memory, so its
/// loads, stores and copies compile to no code and an id-less crack moves
/// values alone.
pub trait RowLane: Copy + Default + Send + 'static {
    /// This lane's buffer among a scratch's two.
    #[doc(hidden)]
    fn buffer<'a>(rows: &'a mut Vec<RowId>, none: &'a mut Vec<()>) -> &'a mut Vec<Self>;
}

impl RowLane for RowId {
    fn buffer<'a>(rows: &'a mut Vec<RowId>, _: &'a mut Vec<()>) -> &'a mut Vec<RowId> {
        rows
    }
}

impl RowLane for () {
    fn buffer<'a>(_: &'a mut Vec<RowId>, none: &'a mut Vec<()>) -> &'a mut Vec<()> {
        none
    }
}

/// Reusable scratch buffers so repeated cracks do not re-allocate. One
/// scratch per worker/query thread.
#[derive(Debug)]
pub struct CrackScratch<V> {
    vals: Vec<V>,
    rows: Vec<RowId>,
    /// The row lane of id-less cracks: a length, no memory.
    none: Vec<()>,
}

impl<V> Default for CrackScratch<V> {
    fn default() -> Self {
        CrackScratch {
            vals: Vec::new(),
            rows: Vec::new(),
            none: Vec::new(),
        }
    }
}

impl<V: CrackValue> CrackScratch<V> {
    /// Creates an empty scratch; buffers grow with the pieces cracked, up
    /// to `RETAIN` slots between calls.
    pub fn new() -> Self {
        Self::default()
    }

    /// The first `len` slots. The kernels write every slot of the window
    /// they use before reading it back, so slots are *not* re-initialised
    /// per call.
    fn window<R: RowLane>(&mut self, len: usize) -> (&mut [V], &mut [R]) {
        if self.vals.len() < len {
            self.vals.resize(len, V::MIN_VALUE);
        }
        let rows = R::buffer(&mut self.rows, &mut self.none);
        if rows.len() < len {
            rows.resize(len, R::default());
        }
        (&mut self.vals[..len], &mut rows[..len])
    }

    /// Frees buffers that grew past `RETAIN` slots.
    fn trim(&mut self) {
        if self.vals.len() > RETAIN {
            *self = Self::default();
        }
    }
}

/// Out-of-place, branch-free two-way partition: after the call, `vals` holds
/// all elements `< pivot` before all elements `>= pivot` (rows permuted in
/// lockstep; pass a slice of `()` to move values alone). Returns the split
/// point.
pub fn crack_in_two_oop<V: CrackValue, R: RowLane>(
    vals: &mut [V],
    rows: &mut [R],
    pivot: V,
    scratch: &mut CrackScratch<V>,
) -> usize {
    debug_assert_eq!(vals.len(), rows.len());
    let n = vals.len();
    if n == 0 {
        return 0;
    }
    let (sv, sr) = scratch.window(n);

    // Partition from the source into the scratch from both ends.
    let mut lo = 0usize;
    let mut hi = n;
    for i in 0..n {
        let v = vals[i];
        let r = rows[i];
        // Write to both frontier slots; exactly one survives. While k
        // elements are placed, `lo + (n - hi) == k < n`, so `lo < hi` and
        // both indices are in the unfilled window.
        sv[lo] = v;
        sr[lo] = r;
        sv[hi - 1] = v;
        sr[hi - 1] = r;
        let is_low = (v < pivot) as usize;
        lo += is_low;
        hi -= 1 - is_low;
    }
    debug_assert_eq!(lo, hi);

    vals.copy_from_slice(sv);
    rows.copy_from_slice(sr);
    scratch.trim();
    lo
}

/// Out-of-place three-way partition `[< lo | lo <= v < hi | >= hi]` in a
/// **single** branch-free pass. Three cursors advance through one scan:
/// lows fill the scratch from the left, highs from the right, and middles
/// stage at the front of the piece itself (the slots the scan has already
/// read) until they move into the remaining gap at the end — every element
/// is written to all three frontier slots and exactly one cursor moves, so
/// the loop carries no data-dependent branch. Returns `(a, b)` bounding
/// the middle region.
///
/// (The previous implementation composed two full two-way passes; the
/// fused form reads the piece once instead of ~twice.)
pub fn crack_in_three_oop<V: CrackValue, R: RowLane>(
    vals: &mut [V],
    rows: &mut [R],
    lo: V,
    hi: V,
    scratch: &mut CrackScratch<V>,
) -> (usize, usize) {
    debug_assert!(lo <= hi);
    debug_assert_eq!(vals.len(), rows.len());
    let n = vals.len();
    if n == 0 {
        return (0, 0);
    }
    let (sv, sr) = scratch.window(n);

    let mut l = 0usize;
    let mut h = n;
    let mut m = 0usize;
    for i in 0..n {
        let v = vals[i];
        let r = rows[i];
        // Write to the low, middle and high frontier slots; exactly one
        // survives. While k elements are placed, `l + (n - h) <= k < n`, so
        // `l < h` and both scratch indices stay inside the unfilled window;
        // `m <= k = i`, so the middle slot is one the scan has consumed.
        sv[l] = v;
        sr[l] = r;
        sv[h - 1] = v;
        sr[h - 1] = r;
        vals[m] = v;
        rows[m] = r;
        let is_low = (v < lo) as usize;
        let is_high = (v >= hi) as usize;
        l += is_low;
        h -= is_high;
        m += 1 - is_low - is_high;
    }
    debug_assert_eq!(h - l, m);
    // Middles first (they sit in `[..m]`, which the lows may overlap).
    vals.copy_within(..m, l);
    rows.copy_within(..m, l);
    vals[..l].copy_from_slice(&sv[..l]);
    rows[..l].copy_from_slice(&sr[..l]);
    vals[h..].copy_from_slice(&sv[h..]);
    rows[h..].copy_from_slice(&sr[h..]);
    scratch.trim();
    (l, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crack::{crack_in_two, is_partitioned};
    use proptest::prelude::*;

    #[test]
    fn oop_matches_inplace_split() {
        let base = vec![5i64, 1, 9, 3, 7, 3, 5];
        let mut scratch = CrackScratch::new();

        let mut v1 = base.clone();
        let mut r1: Vec<RowId> = (0..7).collect();
        let s1 = crack_in_two(&mut v1, &mut r1, 5);

        let mut v2 = base.clone();
        let mut r2: Vec<RowId> = (0..7).collect();
        let s2 = crack_in_two_oop(&mut v2, &mut r2, 5, &mut scratch);

        assert_eq!(s1, s2);
        assert!(is_partitioned(&v2, s2, 5));
    }

    #[test]
    fn oop_empty_and_single() {
        let mut scratch = CrackScratch::new();
        let mut v: Vec<i64> = vec![];
        let mut r: Vec<RowId> = vec![];
        assert_eq!(crack_in_two_oop(&mut v, &mut r, 3, &mut scratch), 0);

        let mut v = vec![7i64];
        let mut r = vec![0u32];
        assert_eq!(crack_in_two_oop(&mut v, &mut r, 3, &mut scratch), 0);
        assert_eq!(crack_in_two_oop(&mut v, &mut r, 8, &mut scratch), 1);
    }

    #[test]
    fn fused_three_way_matches_two_pass_composition() {
        let mut rng_state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 1_000) as i64
        };
        let base: Vec<i64> = (0..5_000).map(|_| next()).collect();
        let rows: Vec<RowId> = (0..base.len() as u32).collect();
        let mut scratch = CrackScratch::new();
        for (lo, hi) in [(0, 0), (200, 700), (500, 500), (999, 1_000), (0, 999)] {
            let mut v1 = base.clone();
            let mut r1 = rows.clone();
            let (a, b) = crack_in_three_oop(&mut v1, &mut r1, lo, hi, &mut scratch);

            // Reference: two composed two-way passes.
            let mut v2 = base.clone();
            let mut r2 = rows.clone();
            let a2 = crack_in_two_oop(&mut v2, &mut r2, lo, &mut scratch);
            let b2 = a2 + crack_in_two_oop(&mut v2[a2..], &mut r2[a2..], hi, &mut scratch);
            assert_eq!((a, b), (a2, b2), "split points differ for [{lo},{hi})");
            assert!(v1[..a].iter().all(|&x| x < lo));
            assert!(v1[a..b].iter().all(|&x| lo <= x && x < hi));
            assert!(v1[b..].iter().all(|&x| x >= hi));
            // Rowids stay aligned and the multiset is preserved.
            assert!(v1.iter().zip(&r1).all(|(&vv, &rr)| base[rr as usize] == vv));
            let mut s1 = v1.clone();
            let mut s2 = base.clone();
            s1.sort_unstable();
            s2.sort_unstable();
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn scratch_reuse_across_sizes() {
        let mut scratch = CrackScratch::new();
        for n in [100usize, 10, 1000, 1] {
            let mut v: Vec<i64> = (0..n as i64).rev().collect();
            let mut r: Vec<RowId> = (0..n as u32).collect();
            let split = crack_in_two_oop(&mut v, &mut r, n as i64 / 2, &mut scratch);
            assert!(is_partitioned(&v, split, n as i64 / 2));
        }
    }

    proptest! {
        #[test]
        fn prop_oop_two_equivalent_to_inplace(
            base in proptest::collection::vec(-50i64..50, 0..300),
            pivot in -60i64..60,
        ) {
            let mut scratch = CrackScratch::new();
            let mut v = base.clone();
            let mut r: Vec<RowId> = (0..base.len() as u32).collect();
            let split = crack_in_two_oop(&mut v, &mut r, pivot, &mut scratch);
            prop_assert!(is_partitioned(&v, split, pivot));
            // alignment with base through rowids
            prop_assert!(v.iter().zip(&r).all(|(&vv, &rr)| base[rr as usize] == vv));
            // multiset preserved
            let mut a = base.clone();
            let mut b = v.clone();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_oop_three_regions(
            base in proptest::collection::vec(-50i64..50, 0..300),
            p1 in -60i64..60,
            p2 in -60i64..60,
        ) {
            let (lo, hi) = (p1.min(p2), p1.max(p2));
            let mut scratch = CrackScratch::new();
            let mut v = base.clone();
            let mut r: Vec<RowId> = (0..base.len() as u32).collect();
            let (a, b) = crack_in_three_oop(&mut v, &mut r, lo, hi, &mut scratch);
            prop_assert!(v[..a].iter().all(|&x| x < lo));
            prop_assert!(v[a..b].iter().all(|&x| lo <= x && x < hi));
            prop_assert!(v[b..].iter().all(|&x| x >= hi));
            prop_assert!(v.iter().zip(&r).all(|(&vv, &rr)| base[rr as usize] == vv));
        }
    }
}
