//! The one partition entry point every crack goes through, and the
//! multi-threaded kernel behind it (Fig 4 of the paper, after [44]).
//!
//! [`partition_two`] / [`partition_three`] pick the kernel from what they
//! observe — the piece length and the caller's thread budget — never from
//! an option: a short piece or a budget of one runs the branch-free
//! out-of-place kernel of [`crate::vectorized`] on the **caller's**
//! scratch; a long piece with threads to spare runs
//! [`parallel_partition`].
//!
//! Parallel partition-and-merge: phase 1 slices the piece into `threads`
//! contiguous slices and each thread partitions its slice independently
//! (same branch-free kernel); phase 2 computes the global split point and
//! swaps the misplaced regions — high values stranded left of the split
//! with low values stranded right of it — as disjoint swap jobs executed in
//! parallel. The paper arranges its slices as rings around the centre of
//! the piece, which only balances the merge work statistically; contiguous
//! slices with a parallel misplaced-region swap produce the same output
//! layout at the same O(N/n + misplaced) cost, and measured 1.65–2.1×
//! faster than the literal ring layout at 2 and 4 threads.

use crate::vectorized::{crack_in_three_oop, crack_in_two_oop, CrackScratch, RowLane};
use holix_storage::types::CrackValue;

/// Below this piece size the sequential kernel wins.
pub const DEFAULT_MIN_PARALLEL: usize = 1 << 16;

/// Partitions `vals`/`rows` around `pivot`; returns the split point (count
/// of values `< pivot`). Sequential on `scratch` when `threads == 1` or the
/// piece is shorter than [`DEFAULT_MIN_PARALLEL`], ganged otherwise. `rows`
/// is the piece's row ids, or a slice of `()` as long for a column without
/// them ([`RowLane`]) — here and in every kernel below.
pub fn partition_two<V: CrackValue, R: RowLane>(
    vals: &mut [V],
    rows: &mut [R],
    pivot: V,
    threads: usize,
    scratch: &mut CrackScratch<V>,
) -> usize {
    if threads <= 1 || vals.len() < DEFAULT_MIN_PARALLEL {
        crack_in_two_oop(vals, rows, pivot, scratch)
    } else {
        parallel_partition(vals, rows, pivot, threads)
    }
}

/// Partitions `vals`/`rows` into `[< lo | lo <= v < hi | >= hi]`; returns
/// `(a, b)` bounding the middle region. Sequential pieces take the fused
/// single-pass kernel on `scratch`; ganged pieces take two parallel
/// two-way passes (the second over the upper part only).
pub fn partition_three<V: CrackValue, R: RowLane>(
    vals: &mut [V],
    rows: &mut [R],
    lo: V,
    hi: V,
    threads: usize,
    scratch: &mut CrackScratch<V>,
) -> (usize, usize) {
    if threads <= 1 || vals.len() < DEFAULT_MIN_PARALLEL {
        return crack_in_three_oop(vals, rows, lo, hi, scratch);
    }
    let a = parallel_partition(vals, rows, lo, threads);
    let b = a + partition_two(&mut vals[a..], &mut rows[a..], hi, threads, scratch);
    (a, b)
}

/// Partitions `vals`/`rows` around `pivot` with up to `threads` threads.
/// Returns the split point (count of values `< pivot`).
pub fn parallel_partition<V: CrackValue, R: RowLane>(
    vals: &mut [V],
    rows: &mut [R],
    pivot: V,
    threads: usize,
) -> usize {
    debug_assert_eq!(vals.len(), rows.len());
    let n = vals.len();
    let threads = threads.max(1);
    if threads == 1 || n < 2 * threads {
        return crack_in_two_oop(vals, rows, pivot, &mut CrackScratch::new());
    }

    // Phase 1: partition contiguous slices independently; `splits[i]` is
    // the local split point of slice `i`, which starts at `i * chunk`.
    let chunk = n.div_ceil(threads);
    let splits: Vec<usize> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = vals
            .chunks_mut(chunk)
            .zip(rows.chunks_mut(chunk))
            .map(|(v, r)| s.spawn(move |_| crack_in_two_oop(v, r, pivot, &mut CrackScratch::new())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partition worker panicked"))
            .collect()
    })
    .expect("partition scope panicked");

    // Global boundary.
    let boundary: usize = splits.iter().sum();

    // Phase 2: collect misplaced segments. Slice i occupies
    // [off, end) = lows [off, off+s) then highs [off+s, end).
    let mut high_left: Vec<(usize, usize)> = Vec::new(); // highs at positions < boundary
    let mut low_right: Vec<(usize, usize)> = Vec::new(); // lows at positions >= boundary
    for (i, &s) in splits.iter().enumerate() {
        let off = i * chunk;
        let end = (off + chunk).min(n);
        let (lo_s, lo_e) = (off, off + s);
        let (hi_s, hi_e) = (off + s, end);
        // Portion of the high segment lying left of the boundary.
        if hi_s < boundary {
            high_left.push((hi_s, hi_e.min(boundary)));
        }
        // Portion of the low segment lying right of the boundary.
        if lo_e > boundary {
            low_right.push((lo_s.max(boundary), lo_e));
        }
    }
    let total_high: usize = high_left.iter().map(|&(a, b)| b - a).sum();
    let total_low: usize = low_right.iter().map(|&(a, b)| b - a).sum();
    debug_assert_eq!(total_high, total_low, "misplaced counts must match");

    // Pair the segment lists into disjoint fixed-length swap jobs.
    let mut swap_jobs: Vec<(usize, usize, usize)> = Vec::new(); // (left, right, len)
    let (mut hi_idx, mut lo_idx) = (0usize, 0usize);
    let (mut hi_pos, mut lo_pos) = (0usize, 0usize);
    while hi_idx < high_left.len() && lo_idx < low_right.len() {
        let (ha, hb) = high_left[hi_idx];
        let (la, lb) = low_right[lo_idx];
        let h_rem = (hb - ha) - hi_pos;
        let l_rem = (lb - la) - lo_pos;
        let take = h_rem.min(l_rem);
        swap_jobs.push((ha + hi_pos, la + lo_pos, take));
        hi_pos += take;
        lo_pos += take;
        if hi_pos == hb - ha {
            hi_idx += 1;
            hi_pos = 0;
        }
        if lo_pos == lb - la {
            lo_idx += 1;
            lo_pos = 0;
        }
    }

    execute_swaps(vals, rows, &swap_jobs, threads);
    boundary
}

/// Executes disjoint swap jobs, parallelised across threads.
fn execute_swaps<V: CrackValue, R: RowLane>(
    vals: &mut [V],
    rows: &mut [R],
    jobs: &[(usize, usize, usize)],
    threads: usize,
) {
    if jobs.is_empty() {
        return;
    }
    let total: usize = jobs.iter().map(|&(_, _, l)| l).sum();
    if threads <= 1 || total < (1 << 14) {
        for &(a, b, len) in jobs {
            for k in 0..len {
                vals.swap(a + k, b + k);
                rows.swap(a + k, b + k);
            }
        }
        return;
    }

    // Every job swaps a left region (< boundary) with a right region
    // (>= boundary); all regions across all jobs are pairwise disjoint, so
    // concurrent execution never touches the same element twice.
    let vp = SendPtr(vals.as_mut_ptr());
    let rp = SendPtr(rows.as_mut_ptr());
    let per = jobs.len().div_ceil(threads);
    crossbeam::thread::scope(|s| {
        for batch in jobs.chunks(per) {
            s.spawn(move |_| {
                for &(a, b, len) in batch {
                    // SAFETY: (a..a+len) and (b..b+len) are disjoint from
                    // every other job's regions and from each other (left
                    // regions lie strictly below the partition boundary,
                    // right regions at or above it), so no element is
                    // accessed by two threads.
                    unsafe {
                        std::ptr::swap_nonoverlapping(vp.ptr().add(a), vp.ptr().add(b), len);
                        std::ptr::swap_nonoverlapping(rp.ptr().add(a), rp.ptr().add(b), len);
                    }
                }
            });
        }
    })
    .expect("swap scope panicked");
}

/// Raw pointer wrapper that asserts Send for the disjoint-job pattern above.
/// The accessor method (rather than direct field access) matters: Rust 2021
/// closures capture precise field paths, and capturing the bare `*mut T`
/// field would defeat the `Send` wrapper.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn ptr(self) -> *mut T {
        self.0
    }
}

// SAFETY: see `execute_swaps` — each thread only dereferences disjoint
// offsets from the pointer.
unsafe impl<T> Send for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crack::{crack_in_three, crack_in_two, is_partitioned};
    use holix_storage::types::RowId;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn check(base: &[i64], pivot: i64, threads: usize) {
        let mut vals = base.to_vec();
        let mut rows: Vec<RowId> = (0..base.len() as u32).collect();
        let split = parallel_partition(&mut vals, &mut rows, pivot, threads);
        assert!(is_partitioned(&vals, split, pivot), "t={threads}");
        assert!(
            vals.iter().zip(&rows).all(|(&v, &r)| base[r as usize] == v),
            "alignment broken t={threads}"
        );
        let mut a = base.to_vec();
        let mut b = vals.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "multiset broken t={threads}");
        assert_eq!(split, base.iter().filter(|&&v| v < pivot).count());
    }

    #[test]
    fn small_inputs_fall_back() {
        check(&[5, 1, 9], 4, 8);
        check(&[], 4, 8);
        check(&[1], 4, 8);
    }

    #[test]
    fn random_inputs_all_thread_counts() {
        let mut rng = StdRng::seed_from_u64(42);
        let base: Vec<i64> = (0..200_000).map(|_| rng.random_range(0..10_000)).collect();
        for t in [1, 2, 3, 4, 8, 16] {
            check(&base, 5_000, t);
            check(&base, 0, t);
            check(&base, 10_000, t);
        }
    }

    #[test]
    fn skewed_inputs() {
        // All lows then all highs — maximum misplacement for some slices.
        let mut base: Vec<i64> = vec![1; 100_000];
        base.extend(vec![9i64; 100_000]);
        check(&base, 5, 4);
        // Reversed: all highs first.
        let mut rev: Vec<i64> = vec![9; 100_000];
        rev.extend(vec![1i64; 100_000]);
        check(&rev, 5, 4);
    }

    fn sorted(vals: &[i64]) -> Vec<i64> {
        let mut v = vals.to_vec();
        v.sort_unstable();
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The unified entry points against the in-place reference kernels:
        // same split points, same multiset on each side, rows permuted in
        // lockstep — on both sides of the sequential/ganged threshold, for
        // every thread budget, down to empty and all-equal pieces.
        #[test]
        fn prop_entry_points_match_inplace_reference(
            long in any::<bool>(),
            off in 0usize..24,
            domain in 0usize..3,
            threads in 0usize..3,
            seed in any::<u64>(),
            p1 in 0i64..1_002,
            p2 in 0i64..1_002,
        ) {
            // Short lengths straddle `2 * threads`, long ones the threshold.
            let len = if long { DEFAULT_MIN_PARALLEL - 12 + off } else { off };
            // All-equal, duplicate-heavy, spread.
            let domain = [1i64, 3, 1_000][domain];
            let threads = [1usize, 2, 4][threads];
            let mut rng = StdRng::seed_from_u64(seed);
            let base: Vec<i64> = (0..len).map(|_| rng.random_range(0..domain)).collect();
            let ids: Vec<RowId> = (0..len as RowId).collect();
            // Pivots from below the domain's minimum to above its maximum.
            let (p1, p2) = (p1 % (domain + 2), p2 % (domain + 2));
            let (lo, hi) = (p1.min(p2), p1.max(p2));
            let mut scratch = CrackScratch::new();

            let (mut v, mut r) = (base.clone(), ids.clone());
            let split = partition_two(&mut v, &mut r, hi, threads, &mut scratch);
            let (mut rv, mut rr) = (base.clone(), ids.clone());
            let want = crack_in_two(&mut rv, &mut rr, hi);
            prop_assert_eq!(split, want);
            prop_assert_eq!(sorted(&v[..split]), sorted(&rv[..want]));
            prop_assert_eq!(sorted(&v[split..]), sorted(&rv[want..]));
            prop_assert!(v.iter().zip(&r).all(|(&x, &row)| base[row as usize] == x));
            // Without row ids the same body runs: same split, and the
            // values end up exactly where they do beside their ids.
            let mut alone = base.clone();
            let split = partition_two(&mut alone, &mut vec![(); len], hi, threads, &mut scratch);
            prop_assert_eq!((split, &alone), (want, &v));

            let (mut v, mut r) = (base.clone(), ids.clone());
            let (a, b) = partition_three(&mut v, &mut r, lo, hi, threads, &mut scratch);
            let mut alone = base.clone();
            let cuts = partition_three(&mut alone, &mut vec![(); len], lo, hi, threads, &mut scratch);
            prop_assert_eq!((cuts, &alone), ((a, b), &v));
            let (mut rv, mut rr) = (base.clone(), ids);
            let (wa, wb) = crack_in_three(&mut rv, &mut rr, lo, hi);
            prop_assert_eq!((a, b), (wa, wb));
            prop_assert_eq!(sorted(&v[..a]), sorted(&rv[..wa]));
            prop_assert_eq!(sorted(&v[a..b]), sorted(&rv[wa..wb]));
            prop_assert_eq!(sorted(&v[b..]), sorted(&rv[wb..]));
            prop_assert!(v.iter().zip(&r).all(|(&x, &row)| base[row as usize] == x));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_parallel_matches_sequential(
            base in proptest::collection::vec(-100i64..100, 0..5000),
            pivot in -110i64..110,
            threads in 1usize..9,
        ) {
            let mut vals = base.clone();
            let mut rows: Vec<RowId> = (0..base.len() as u32).collect();
            let split = parallel_partition(&mut vals, &mut rows, pivot, threads);
            prop_assert_eq!(split, base.iter().filter(|&&v| v < pivot).count());
            prop_assert!(is_partitioned(&vals, split, pivot));
        }
    }
}
