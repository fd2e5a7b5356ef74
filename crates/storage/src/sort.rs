//! Full indexing baseline: sorted column copies with binary-search selection.
//!
//! Offline and online indexing in the paper sort whole columns and answer
//! range selects with binary search. A [`SortedColumn`] keeps the sorted
//! values, the permutation back to base-table row ids, and a prefix-sum array
//! so verification checksums are O(1) after the O(log N) bound search.

use crate::select::{Predicate, RangeStats};
use crate::types::RowId;

/// A fully sorted copy of a column.
#[derive(Debug, Clone)]
pub struct SortedColumn {
    values: Vec<i64>,
    rowids: Vec<RowId>,
    /// `prefix[i]` = sum of `values[..i]`; one extra slot so any half-open
    /// range is a single subtraction.
    prefix: Vec<i128>,
}

impl SortedColumn {
    /// Sorts a copy of `values` (single-threaded). The parallel variant lives
    /// in [`crate::psort`].
    pub fn build(values: &[i64]) -> Self {
        let mut pairs: Vec<(i64, RowId)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as RowId))
            .collect();
        pairs.sort_unstable();
        Self::from_sorted_pairs(pairs)
    }

    /// Assembles from already-sorted `(value, rowid)` pairs.
    pub(crate) fn from_sorted_pairs(pairs: Vec<(i64, RowId)>) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut values = Vec::with_capacity(pairs.len());
        let mut rowids = Vec::with_capacity(pairs.len());
        let mut prefix = Vec::with_capacity(pairs.len() + 1);
        let mut running = 0i128;
        prefix.push(0);
        for (v, r) in pairs {
            values.push(v);
            rowids.push(r);
            running += v as i128;
            prefix.push(running);
        }
        SortedColumn {
            values,
            rowids,
            prefix,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sorted values.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Row ids aligned with [`SortedColumn::values`].
    pub fn rowids(&self) -> &[RowId] {
        &self.rowids
    }

    /// Half-open index range `[a, b)` of values satisfying the predicate —
    /// two binary searches, O(log N) data accesses.
    pub fn locate(&self, pred: Predicate) -> (usize, usize) {
        if pred.is_empty() {
            return (0, 0);
        }
        let a = self.values.partition_point(|&v| v < pred.lo);
        let b = self.values.partition_point(|&v| v < pred.hi);
        (a, b)
    }

    /// Count and checksum of qualifying values using the prefix-sum array.
    pub fn select_stats(&self, pred: Predicate) -> RangeStats {
        let (a, b) = self.locate(pred);
        RangeStats {
            count: (b - a) as u64,
            sum: self.prefix[b] - self.prefix[a],
        }
    }

    /// Base-table row ids of qualifying values (candidate list for
    /// projection).
    pub fn select_rowids(&self, pred: Predicate) -> &[RowId] {
        let (a, b) = self.locate(pred);
        &self.rowids[a..b]
    }

    /// Heap bytes held (values + rowids + prefix sums).
    pub fn payload_bytes(&self) -> usize {
        self.values.len() * size_of::<i64>()
            + self.rowids.len() * std::mem::size_of::<RowId>()
            + self.prefix.len() * std::mem::size_of::<i128>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::scan_stats;
    use proptest::prelude::*;
    use rand::prelude::*;

    #[test]
    fn build_sorts_and_tracks_rowids() {
        let base = [30i64, 10, 20];
        let s = SortedColumn::build(&base);
        assert_eq!(s.values(), &[10, 20, 30]);
        assert_eq!(s.rowids(), &[1, 2, 0]);
        for (i, &r) in s.rowids().iter().enumerate() {
            assert_eq!(base[r as usize], s.values()[i]);
        }
    }

    #[test]
    fn locate_handles_bounds() {
        let s = SortedColumn::build(&[1i64, 3, 3, 5, 9]);
        assert_eq!(s.locate(Predicate::range(3, 6)), (1, 4));
        assert_eq!(s.locate(Predicate::range(0, 100)), (0, 5));
        assert_eq!(s.locate(Predicate::range(4, 4)), (0, 0));
        assert_eq!(s.locate(Predicate::range(100, 200)), (5, 5));
    }

    #[test]
    fn select_stats_matches_scan_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        let vals: Vec<i64> = (0..5000).map(|_| rng.random_range(-500..500)).collect();
        let s = SortedColumn::build(&vals);
        for _ in 0..50 {
            let a = rng.random_range(-600..600);
            let b = rng.random_range(-600..600);
            let pred = Predicate::range(a.min(b), a.max(b));
            assert_eq!(s.select_stats(pred), scan_stats(&vals, pred));
        }
    }

    #[test]
    fn select_rowids_point_at_qualifying_base_values() {
        let base = [7i64, 2, 9, 4, 2];
        let s = SortedColumn::build(&base);
        let pred = Predicate::range(2, 7);
        for &r in s.select_rowids(pred) {
            assert!(pred.matches(base[r as usize]));
        }
        assert_eq!(
            s.select_rowids(pred).len() as u64,
            scan_stats(&base, pred).count
        );
    }

    proptest! {
        #[test]
        fn prop_sorted_select_equals_scan(
            vals in proptest::collection::vec(-1000i64..1000, 0..300),
            lo in -1100i64..1100,
            len in 0i64..600,
        ) {
            let pred = Predicate::range(lo, lo.saturating_add(len));
            let s = SortedColumn::build(&vals);
            prop_assert_eq!(s.select_stats(pred), scan_stats(&vals, pred));
        }
    }
}
