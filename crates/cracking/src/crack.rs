//! In-place reference crack kernels: partition a piece of a cracker column
//! around one or two pivots, permuting values and row ids in lockstep.
//!
//! `crack_in_two` is the classic Hoare-style swap loop from the original
//! database-cracking paper; `crack_in_three` handles the case where both
//! bounds of a range query fall into the same piece, saving a second pass.
//! Columns crack through [`crate::partition`] (the branch-free out-of-place
//! kernels measured 1.6–2.1× faster); these stay as the oracle the kernel
//! tests compare against and as the baseline the kernel probes time.

use holix_storage::types::RowId;

/// Partitions `vals` (with `rows` permuted identically) so that everything
/// `< pivot` precedes everything `>= pivot`. Returns the split point: the
/// number of elements `< pivot`.
pub fn crack_in_two(vals: &mut [i64], rows: &mut [RowId], pivot: i64) -> usize {
    debug_assert_eq!(vals.len(), rows.len());
    let mut i = 0usize;
    let mut j = vals.len();
    while i < j {
        if vals[i] < pivot {
            i += 1;
        } else {
            j -= 1;
            vals.swap(i, j);
            rows.swap(i, j);
        }
    }
    i
}

/// Partitions `vals`/`rows` into three regions `[< lo | lo <= v < hi | >= hi]`
/// in one pass (Dutch-national-flag). Returns `(a, b)` such that the middle
/// (qualifying) region is `vals[a..b]`. Requires `lo <= hi`.
pub fn crack_in_three(vals: &mut [i64], rows: &mut [RowId], lo: i64, hi: i64) -> (usize, usize) {
    debug_assert_eq!(vals.len(), rows.len());
    debug_assert!(lo <= hi);
    let mut lt = 0usize;
    let mut gt = vals.len();
    let mut i = 0usize;
    while i < gt {
        if vals[i] < lo {
            vals.swap(i, lt);
            rows.swap(i, lt);
            lt += 1;
            i += 1;
        } else if vals[i] >= hi {
            gt -= 1;
            vals.swap(i, gt);
            rows.swap(i, gt);
        } else {
            i += 1;
        }
    }
    (lt, gt)
}

/// Checks the two-way partition invariant (test/debug helper).
pub fn is_partitioned(vals: &[i64], split: usize, pivot: i64) -> bool {
    vals[..split].iter().all(|&v| v < pivot) && vals[split..].iter().all(|&v| v >= pivot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn aligned(vals: &[i64], rows: &[RowId], base: &[i64]) -> bool {
        vals.iter().zip(rows).all(|(&v, &r)| base[r as usize] == v)
    }

    #[test]
    fn crack_in_two_basic() {
        let base = vec![5i64, 1, 9, 3, 7, 3];
        let mut vals = base.clone();
        let mut rows: Vec<RowId> = (0..6).collect();
        let split = crack_in_two(&mut vals, &mut rows, 5);
        assert_eq!(split, 3);
        assert!(is_partitioned(&vals, split, 5));
        assert!(aligned(&vals, &rows, &base));
    }

    #[test]
    fn crack_in_two_extremes() {
        let mut vals = vec![1i64, 2, 3];
        let mut rows = vec![0, 1, 2];
        assert_eq!(crack_in_two(&mut vals, &mut rows, 0), 0);
        assert_eq!(crack_in_two(&mut vals, &mut rows, 100), 3);
        let mut empty: Vec<i64> = vec![];
        let mut erows: Vec<RowId> = vec![];
        assert_eq!(crack_in_two(&mut empty, &mut erows, 5), 0);
    }

    #[test]
    fn crack_in_three_basic() {
        let base = vec![8i64, 2, 5, 1, 9, 5, 4];
        let mut vals = base.clone();
        let mut rows: Vec<RowId> = (0..7).collect();
        let (a, b) = crack_in_three(&mut vals, &mut rows, 4, 8);
        assert!(vals[..a].iter().all(|&v| v < 4));
        assert!(vals[a..b].iter().all(|&v| (4..8).contains(&v)));
        assert!(vals[b..].iter().all(|&v| v >= 8));
        assert_eq!(b - a, 3); // 5, 5, 4
        assert!(aligned(&vals, &rows, &base));
    }

    #[test]
    fn crack_in_three_equal_bounds_degenerates_to_two() {
        let base = vec![3i64, 7, 1, 7, 0];
        let mut vals = base.clone();
        let mut rows: Vec<RowId> = (0..5).collect();
        let (a, b) = crack_in_three(&mut vals, &mut rows, 5, 5);
        assert_eq!(a, b);
        assert!(is_partitioned(&vals, a, 5));
    }

    proptest! {
        #[test]
        fn prop_crack_in_two_preserves_multiset(
            base in proptest::collection::vec(-50i64..50, 0..200),
            pivot in -60i64..60,
        ) {
            let mut vals = base.clone();
            let mut rows: Vec<RowId> = (0..base.len() as u32).collect();
            let split = crack_in_two(&mut vals, &mut rows, pivot);
            prop_assert!(is_partitioned(&vals, split, pivot));
            prop_assert!(aligned(&vals, &rows, &base));
            let mut sorted_in = base.clone();
            let mut sorted_out = vals.clone();
            sorted_in.sort_unstable();
            sorted_out.sort_unstable();
            prop_assert_eq!(sorted_in, sorted_out);
        }

        #[test]
        fn prop_crack_in_three_regions(
            base in proptest::collection::vec(-50i64..50, 0..200),
            p1 in -60i64..60,
            p2 in -60i64..60,
        ) {
            let (lo, hi) = (p1.min(p2), p1.max(p2));
            let mut vals = base.clone();
            let mut rows: Vec<RowId> = (0..base.len() as u32).collect();
            let (a, b) = crack_in_three(&mut vals, &mut rows, lo, hi);
            prop_assert!(a <= b && b <= vals.len());
            prop_assert!(vals[..a].iter().all(|&v| v < lo));
            prop_assert!(vals[a..b].iter().all(|&v| lo <= v && v < hi));
            prop_assert!(vals[b..].iter().all(|&v| v >= hi));
            prop_assert!(aligned(&vals, &rows, &base));
        }
    }
}
