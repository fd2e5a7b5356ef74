//! Row ids on demand: what a [`crate::CrackerColumn`] born without a row-id
//! array keeps instead, and the one pass that builds the array.
//!
//! A shard of a [`crate::ShardedColumn`] holds exactly the base tuples whose
//! values fall in the shard's range under its plan, and until its first
//! Ripple merge it is a permutation of them. Its row ids are therefore a
//! function of two things the column can hold for free — the base (an
//! `Arc` the sharded column owns anyway) and the range — plus the shard's
//! current boundary table: every base tuple in range belongs to the piece
//! whose keys bracket its value, and *which* slot of the piece it takes
//! does not matter, because a piece is an unordered multiset. Only a
//! conjunction driver ([`crate::CrackerColumn::collect_row_ids`]), a Ripple
//! merge and a shard migration ever read an id, so a shard stores values
//! alone until one of them asks.

use holix_storage::types::{CrackValue, RowId};
use std::sync::Arc;

/// The base tuples a column was filtered out of: `base[r]` for every row
/// `r` with `lo <= base[r] < hi` (`None` = unbounded on that side).
#[derive(Debug)]
pub(crate) struct RowSource<V> {
    base: Arc<Vec<V>>,
    lo: Option<V>,
    hi: Option<V>,
}

impl<V: CrackValue> RowSource<V> {
    /// The tuples of `base` with values in `[lo, hi)`.
    pub(crate) fn new(base: Arc<Vec<V>>, lo: Option<V>, hi: Option<V>) -> Self {
        RowSource { base, lo, hi }
    }

    /// `true` for a value of this source's range.
    #[inline(always)]
    pub(crate) fn holds(&self, v: V) -> bool {
        self.lo.is_none_or(|lo| lo <= v) & self.hi.is_none_or(|hi| v < hi)
    }

    /// Rewrites `vals` — a permutation of this source's values laid out in
    /// the pieces of `bounds` (`key → position`, ascending) — with the same
    /// multiset in every piece and fills the empty `rows` with the row ids
    /// that go with it: `vals[i] == base[rows[i]]` for every slot, `rows` a
    /// permutation of the source's base rows. The base is read once, a
    /// block at a time: a branch-free filter collects the block's rows in
    /// range (every row is written at the cursor, the cursor only advances
    /// past a kept one), then each kept tuple goes to the cursor of the
    /// piece whose keys bracket its value (its piece is the number of keys
    /// at or below it), each piece's cursor starting where the boundary
    /// table says the piece does. `rows` is grown to `vals`' capacity, so
    /// the two grow together afterwards.
    ///
    /// Panics when `vals` is not such a permutation (some cursor does not
    /// stop at its piece's end).
    pub(crate) fn scatter(&self, bounds: &[(V, usize)], vals: &mut Vec<V>, rows: &mut Vec<RowId>) {
        debug_assert!(rows.is_empty());
        const BLOCK: usize = 4096;
        let n = vals.len();
        let keys: Vec<V> = bounds.iter().map(|b| b.0).collect();
        let starts = || std::iter::once(0).chain(bounds.iter().map(|b| b.1));
        let mut cursor: Vec<usize> = starts().collect();
        rows.reserve_exact(vals.capacity());
        rows.resize(n, 0);
        // One slot past the block takes the writes of rejected rows that
        // follow the last kept one.
        let mut kept = [0 as RowId; BLOCK + 1];
        for (b, block) in self.base.chunks(BLOCK).enumerate() {
            let mut c = 0;
            for (i, &v) in block.iter().enumerate() {
                kept[c] = (b * BLOCK + i) as RowId;
                c += self.holds(v) as usize;
            }
            for &r in &kept[..c] {
                let v = self.base[r as usize];
                let piece = keys.partition_point(|&k| k <= v);
                let pos = cursor[piece];
                cursor[piece] = pos + 1;
                vals[pos] = v;
                rows[pos] = r;
            }
        }
        let ends = starts().skip(1).chain(std::iter::once(n));
        for (piece, (at, end)) in cursor.into_iter().zip(ends).enumerate() {
            assert_eq!(at, end, "piece {piece} does not hold its base tuples");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_pairs_every_slot_with_a_base_row_of_its_piece() {
        let base = Arc::new(vec![7i64, 1, 9, 3, 7, 12, 5, 3, 0, 8]);
        // Values in [3, 9), cracked at 5 and 7 (duplicates of a key go
        // right of it): [3 3 | 5 | 7 7 8].
        let source = RowSource::new(Arc::clone(&base), Some(3), Some(9));
        let mut vals = vec![3, 3, 5, 8, 7, 7];
        let bounds = [(5, 2), (7, 3)];
        let mut rows = Vec::new();
        source.scatter(&bounds, &mut vals, &mut rows);
        assert!(vals[..2].iter().all(|&v| v == 3));
        assert_eq!(vals[2], 5);
        let mut top = vals[3..].to_vec();
        top.sort_unstable();
        assert_eq!(top, [7, 7, 8]);
        assert!(vals.iter().zip(&rows).all(|(&v, &r)| base[r as usize] == v));
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 3, 4, 6, 7, 9]);
    }

    #[test]
    fn scatter_of_an_empty_range_is_empty() {
        let source = RowSource::new(Arc::new(vec![1i64, 2, 3]), Some(10), None);
        let (mut vals, mut rows) = (Vec::new(), Vec::new());
        source.scatter(&[], &mut vals, &mut rows);
        // Empty pieces at either edge are fine too.
        source.scatter(&[(11, 0), (12, 0)], &mut vals, &mut rows);
        assert!(vals.is_empty() && rows.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not hold its base tuples")]
    fn scatter_rejects_a_layout_that_is_not_the_sources() {
        let source = RowSource::new(Arc::new(vec![1i64, 2, 3, 4]), None, None);
        // The boundary claims one value below 3; the base has two.
        source.scatter(&[(3, 1)], &mut vec![0; 4], &mut Vec::new());
    }
}
