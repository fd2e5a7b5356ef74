//! Vectorized, out-of-place crack kernel (Fig 5 of the paper, from \[44\]
//! "Database Cracking: Fancy Scan, not Poor Man's Sort!").
//!
//! The kernel partitions a piece into a scratch window from both ends with
//! a branch-free cursor update — every element is written to *both* the low
//! and the high cursor, then exactly one cursor advances depending on the
//! comparison — and copies the window back. This removes the
//! hard-to-predict branch of the in-place swap loop, which is what makes it
//! the most CPU-efficient single-threaded cracking kernel reported in \[44\].
//!
//! Two bodies run that pass, picked once per process by
//! [`kernels::active_isa`] alone: on [`Isa::Avx512`] a piece takes the
//! compress-store kernels of [`kernels::avx512`], which place eight values
//! per step by lane mask and popcount instead of one per cursor update;
//! every other CPU, and `HOLIX_NO_SIMD=1`, take the portable scalar loops
//! below. Both leave the same layout (lows in source order,
//! then middles in source order, then highs in reverse source order), and
//! the row lane rides through both the same way, so id-less and id-carrying
//! cracks land alike on either.

use crate::kernels::{self, Isa};
use crate::partition::DEFAULT_MIN_PARALLEL;
use holix_storage::types::RowId;

/// Most slots a scratch keeps between calls. A scratch lives as long as
/// its thread, and without a bound every thread that ever cracked a whole
/// shard would hold a buffer that size for good (`service_steady` peak RSS
/// read 155 MB, once 212 MB, against the parent's 142 MB). Pieces long
/// enough to gang threads on are rare; they borrow a transient buffer.
const RETAIN: usize = DEFAULT_MIN_PARALLEL;

/// What a crack or a Ripple merge moves beside each value: the tuple's
/// [`RowId`], or nothing — `()`, for a column that has not built its row
/// ids yet. Every kernel
/// has one body over `&mut [R]`; a slice of `()` occupies no memory, so its
/// loads, stores and copies compile to no code and an id-less crack moves
/// values alone. The compress kernels move the lane through the `*8` hooks,
/// eight rows per step under the values' lane masks.
pub trait RowLane: Copy + Default + Ord + Send + 'static {
    /// This lane's buffer among a scratch's two.
    #[doc(hidden)]
    fn buffer<'a>(rows: &'a mut Vec<RowId>, none: &'a mut Vec<()>) -> &'a mut Vec<Self>;

    /// What this lane carries for the tuple at `row` (a Ripple merge's
    /// update names its row; a lane of `()` drops it).
    #[doc(hidden)]
    fn of_row(row: RowId) -> Self;

    /// Eight rows of a compress kernel in a register.
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    type Chunk: Copy;

    /// The rows of lanes `valid` from the eight slots at `src`.
    ///
    /// # Safety
    /// The CPU has AVX-512F and AVX-512VL, and the slots of `valid` are
    /// readable. The compress kernels pass the mask of the chunk's values
    /// inside the piece (`compress_cracks_match_portable_at_every_tail`:
    /// every tail length 0–64 and past it, with ids and without, under
    /// AddressSanitizer in CI).
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    unsafe fn load8(src: *const Self, valid: u8) -> Self::Chunk;

    /// `chunk` with lane `i` moved to lane `7 - i`.
    ///
    /// # Safety
    /// The CPU has AVX-512F and AVX-512VL (register only, no memory; the
    /// highs' reverse source order is checked slot for slot by
    /// `compress_cracks_match_portable_at_every_tail`).
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    unsafe fn reverse8(chunk: Self::Chunk) -> Self::Chunk;

    /// Writes the lanes of `keep`, in lane order, to consecutive slots from
    /// `dst`, and no other slot.
    ///
    /// # Safety
    /// The CPU has AVX-512F and AVX-512VL, and `keep.count_ones()` slots
    /// from `dst` are writable. The kernels' cursor argument is at their
    /// stores (`compress_cracks_match_portable_at_every_tail`,
    /// `compress_cracks_match_portable_at_the_extremes` and
    /// `prop_compress_cracks_match_portable`, under AddressSanitizer in
    /// CI).
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    unsafe fn compress8(dst: *mut Self, keep: u8, chunk: Self::Chunk);
}

impl RowLane for RowId {
    fn buffer<'a>(rows: &'a mut Vec<RowId>, _: &'a mut Vec<()>) -> &'a mut Vec<RowId> {
        rows
    }

    fn of_row(row: RowId) -> RowId {
        row
    }

    #[cfg(target_arch = "x86_64")]
    type Chunk = std::arch::x86_64::__m256i;

    // SAFETY (the three hooks): the trait's contracts; the masked load
    // and store touch only the lanes of `valid` / `keep`, eight 4-byte row
    // ids a chunk (`compress_cracks_match_portable_at_every_tail` compares
    // every id slot for slot against the portable body).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl")]
    unsafe fn load8(src: *const RowId, valid: u8) -> Self::Chunk {
        std::arch::x86_64::_mm256_maskz_loadu_epi32(valid, src.cast())
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl")]
    unsafe fn reverse8(chunk: Self::Chunk) -> Self::Chunk {
        use std::arch::x86_64::*;
        _mm256_permutexvar_epi32(_mm256_set_epi32(0, 1, 2, 3, 4, 5, 6, 7), chunk)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl")]
    unsafe fn compress8(dst: *mut RowId, keep: u8, chunk: Self::Chunk) {
        std::arch::x86_64::_mm256_mask_compressstoreu_epi32(dst.cast(), keep, chunk)
    }
}

impl RowLane for () {
    fn buffer<'a>(_: &'a mut Vec<RowId>, none: &'a mut Vec<()>) -> &'a mut Vec<()> {
        none
    }

    fn of_row(_: RowId) {}

    #[cfg(target_arch = "x86_64")]
    type Chunk = ();

    // SAFETY (the three hooks): they touch nothing; a lane of `()` has
    // no bytes (the id-less cracks of
    // `compress_cracks_match_portable_at_every_tail` equal the id-carrying
    // ones).
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load8(_: *const (), _: u8) {}

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn reverse8(_: ()) {}

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn compress8(_: *mut (), _: u8, _: ()) {}
}

/// Reusable scratch buffers so repeated cracks do not re-allocate. One
/// scratch per worker/query thread.
#[derive(Debug, Default)]
pub struct CrackScratch {
    vals: Vec<i64>,
    rows: Vec<RowId>,
    /// The row lane of id-less cracks: a length, no memory.
    none: Vec<()>,
}

impl CrackScratch {
    /// Creates an empty scratch; buffers grow with the pieces cracked, up
    /// to `RETAIN` slots between calls.
    pub fn new() -> Self {
        Self::default()
    }

    /// The first `len` slots. The kernels write every slot of the window
    /// they use before reading it back, so slots are *not* re-initialised
    /// per call.
    fn window<R: RowLane>(&mut self, len: usize) -> (&mut [i64], &mut [R]) {
        if self.vals.len() < len {
            self.vals.resize(len, i64::MIN);
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
pub fn crack_in_two_oop<R: RowLane>(
    vals: &mut [i64],
    rows: &mut [R],
    pivot: i64,
    scratch: &mut CrackScratch,
) -> usize {
    crack_in_two_on(kernels::active_isa(), vals, rows, pivot, scratch)
}

/// [`crack_in_two_oop`] with the partition pass of `isa`.
pub(crate) fn crack_in_two_on<R: RowLane>(
    isa: Isa,
    vals: &mut [i64],
    rows: &mut [R],
    pivot: i64,
    scratch: &mut CrackScratch,
) -> usize {
    debug_assert_eq!(vals.len(), rows.len());
    let n = vals.len();
    if n == 0 {
        return 0;
    }
    let (sv, sr) = scratch.window(n);
    let split = match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => kernels::avx512::crack_two(vals, rows, pivot, sv, sr),
        _ => two_pass(vals, rows, pivot, sv, sr),
    };
    vals.copy_from_slice(sv);
    rows.copy_from_slice(sr);
    scratch.trim();
    split
}

/// The portable partition pass of the two-way crack, from `vals`/`rows`
/// into the scratch window `sv`/`sr`: lows from the left, highs from the
/// right. Returns the split point.
fn two_pass<R: RowLane>(
    vals: &[i64],
    rows: &[R],
    pivot: i64,
    sv: &mut [i64],
    sr: &mut [R],
) -> usize {
    let n = vals.len();
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
pub fn crack_in_three_oop<R: RowLane>(
    vals: &mut [i64],
    rows: &mut [R],
    lo: i64,
    hi: i64,
    scratch: &mut CrackScratch,
) -> (usize, usize) {
    crack_in_three_on(kernels::active_isa(), vals, rows, lo, hi, scratch)
}

/// [`crack_in_three_oop`] with the partition pass of `isa`.
pub(crate) fn crack_in_three_on<R: RowLane>(
    isa: Isa,
    vals: &mut [i64],
    rows: &mut [R],
    lo: i64,
    hi: i64,
    scratch: &mut CrackScratch,
) -> (usize, usize) {
    debug_assert!(lo <= hi);
    debug_assert_eq!(vals.len(), rows.len());
    let n = vals.len();
    if n == 0 {
        return (0, 0);
    }
    let (sv, sr) = scratch.window(n);
    let (l, h) = match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => kernels::avx512::crack_three(vals, rows, lo, hi, sv, sr),
        _ => three_pass(vals, rows, lo, hi, sv, sr),
    };
    let m = h - l;
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

/// The portable partition pass of the three-way crack: lows into the
/// scratch window from the left, highs from the right, middles staged at
/// the front of `vals`/`rows`. Returns the scratch cursors `(l, h)`.
fn three_pass<R: RowLane>(
    vals: &mut [i64],
    rows: &mut [R],
    lo: i64,
    hi: i64,
    sv: &mut [i64],
    sr: &mut [R],
) -> (usize, usize) {
    let n = vals.len();
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

    /// The AVX-512 compress bodies against the portable ones, each called
    /// directly: the same split points and every value and row id in the
    /// same slot, with row ids and without (where the values must land
    /// where they do beside their ids). One scratch serves every call, so
    /// each window starts out holding an earlier crack's slots.
    #[cfg(target_arch = "x86_64")]
    mod compress {
        use super::*;
        use crate::kernels::avx512;

        fn skipped() -> bool {
            let skip = !avx512::available();
            if skip {
                eprintln!("skipped: this CPU lacks AVX-512F/VL");
            }
            skip
        }

        /// Everything the cracks of `base` on `isa` leave: the two-way split
        /// at `hi`, values and ids, then the three-way cuts at `[lo, hi)`,
        /// values and ids — asserting the id-less lane lands alike.
        #[allow(clippy::type_complexity)]
        fn cracks(
            isa: Isa,
            base: &[i64],
            lo: i64,
            hi: i64,
            scratch: &mut CrackScratch,
        ) -> (
            usize,
            Vec<i64>,
            Vec<RowId>,
            (usize, usize),
            Vec<i64>,
            Vec<RowId>,
        ) {
            let n = base.len();
            let ids: Vec<RowId> = (0..n as RowId).collect();
            let (mut v2, mut r2) = (base.to_vec(), ids.clone());
            let split = crack_in_two_on(isa, &mut v2, &mut r2, hi, scratch);
            let mut alone = base.to_vec();
            let split_alone = crack_in_two_on(isa, &mut alone, &mut vec![(); n], hi, scratch);
            assert_eq!(
                (split_alone, &alone),
                (split, &v2),
                "{isa:?}: id-less two-way"
            );
            let (mut v3, mut r3) = (base.to_vec(), ids);
            let cuts = crack_in_three_on(isa, &mut v3, &mut r3, lo, hi, scratch);
            let mut alone = base.to_vec();
            let cuts_alone = crack_in_three_on(isa, &mut alone, &mut vec![(); n], lo, hi, scratch);
            assert_eq!(
                (cuts_alone, &alone),
                (cuts, &v3),
                "{isa:?}: id-less three-way"
            );
            (split, v2, r2, cuts, v3, r3)
        }

        fn same_cracks(base: &[i64], lo: i64, hi: i64, scratch: &mut CrackScratch) {
            let portable = cracks(Isa::Portable, base, lo, hi, scratch);
            let (split, v2, _, cuts, v3, _) = &portable;
            assert!(is_partitioned(v2, *split, hi));
            assert!(v3[..cuts.0].iter().all(|&x| x < lo));
            assert!(v3[cuts.0..cuts.1].iter().all(|&x| lo <= x && x < hi));
            assert!(v3[cuts.1..].iter().all(|&x| x >= hi));
            assert!(
                cracks(Isa::Avx512, base, lo, hi, scratch) == portable,
                "the compress cracks differ from the portable ones: n={} [{lo}, {hi})",
                base.len()
            );
        }

        fn xorshift(s: &mut u64) -> u64 {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        }

        #[test]
        fn compress_cracks_match_portable_at_every_tail() {
            if skipped() {
                return;
            }
            let mut scratch = CrackScratch::new();
            let mut s = 0x5EED_u64;
            let lens = (0..=64).chain([255, 256, 257, 1_000, 4_095, 4_096, 4_101, 6_007]);
            for n in lens {
                // All-equal, duplicate-heavy, spread; pivots below, inside
                // and above the domain.
                for domain in [1i64, 3, 1_000] {
                    let base: Vec<i64> = (0..n)
                        .map(|_| (xorshift(&mut s) % domain as u64) as i64)
                        .collect();
                    let pivots = [
                        (-5, -5),
                        (-5, 0),
                        (0, domain / 2),
                        (domain / 3, domain),
                        (1, domain + 5),
                        (domain + 5, domain + 9),
                    ];
                    for (lo, hi) in pivots {
                        same_cracks(&base, lo, hi, &mut scratch);
                    }
                }
            }
        }

        #[test]
        fn compress_cracks_match_portable_at_the_extremes() {
            if skipped() {
                return;
            }
            let mut scratch = CrackScratch::new();
            let mut s = 0xE7_u64;
            let mut base: Vec<i64> = (0..1_021).map(|_| xorshift(&mut s) as i64).collect();
            base.extend([i64::MIN, i64::MAX, 0, -1, i64::MIN, i64::MAX, 1]);
            let pivots = [
                (i64::MIN, i64::MIN),
                (i64::MIN, i64::MAX),
                (i64::MAX, i64::MAX),
                (-1, 0),
                (i64::MIN + 1, i64::MAX - 1),
            ];
            for (lo, hi) in pivots {
                same_cracks(&base, lo, hi, &mut scratch);
                same_cracks(&base[3..], lo, hi, &mut scratch);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn prop_compress_cracks_match_portable(
                base in proptest::collection::vec(-50i64..50, 0..700),
                p1 in -60i64..60,
                p2 in -60i64..60,
            ) {
                if avx512::available() {
                    let mut scratch = CrackScratch::new();
                    same_cracks(&base, p1.min(p2), p1.max(p2), &mut scratch);
                }
            }
        }
    }
}
