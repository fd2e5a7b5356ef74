//! Row ids on demand: what a [`crate::CrackerColumn`] born without a row-id
//! array keeps instead, and the one pass that builds the array.
//!
//! A shard of a [`crate::ShardedColumn`] holds exactly the base tuples whose
//! values fall in the shard's range under its plan, minus the base rows its
//! Ripple merges deleted, plus the tuples they inserted. Its row ids are
//! therefore a function of what the column can hold cheaply — the base (an
//! `Arc` the sharded column owns anyway), the range and the merged *write
//! log* (the live inserts as `(value, row)` pairs, the deleted base rows) —
//! plus the shard's current boundary table: every tuple belongs to the
//! piece whose keys bracket its value, and *which* slot of the piece it
//! takes does not matter, because a piece is an unordered multiset. Only a
//! conjunction driver ([`crate::CrackerColumn::collect_row_ids`]) and a
//! shard migration ever read an id, so a shard stores values alone, and a
//! written shard a log beside them, until one of them asks.

use holix_storage::types::RowId;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The merged writes of a column still without row ids: with the base
/// rows in range, exactly its tuples.
#[derive(Debug, Default)]
struct WriteLog {
    /// Live merged inserts: `(value, row)` → how many copies.
    inserts: BTreeMap<(i64, RowId), u32>,
    /// Base rows in range that a merged delete removed.
    deleted: BTreeSet<RowId>,
}

/// The tuples a column was filtered out of and written since: `base[r]`
/// for every row `r` with `lo <= base[r] < hi` (`None` = unbounded on that
/// side) not deleted since, and the logged inserts.
#[derive(Debug)]
pub(crate) struct RowSource {
    base: Arc<Vec<i64>>,
    lo: Option<i64>,
    hi: Option<i64>,
    /// A leaf lock: taken by merges and the id build (both under the
    /// column's `structure` exclusive) and by byte accounting, with
    /// nothing acquired while it is held.
    log: Mutex<WriteLog>,
}

impl RowSource {
    /// The tuples of `base` with values in `[lo, hi)`, nothing written yet.
    pub(crate) fn new(base: Arc<Vec<i64>>, lo: Option<i64>, hi: Option<i64>) -> Self {
        RowSource {
            base,
            lo,
            hi,
            log: Mutex::new(WriteLog::default()),
        }
    }

    /// `true` for a value of this source's range.
    #[inline(always)]
    pub(crate) fn holds(&self, v: i64) -> bool {
        self.lo.is_none_or(|lo| lo <= v) & self.hi.is_none_or(|hi| v < hi)
    }

    /// Logs one merged batch the way [`crate::updates::ripple_batch`]
    /// applies it — every delete, then every insert — and returns the
    /// deletes that found a tuple, in batch order. A delete takes a logged
    /// insert of its `(value, row)` first, else base row `row` if that
    /// holds `value` in range and is not deleted yet; a delete that finds
    /// neither is absent, and the batch must drop it.
    pub(crate) fn record(&self, ins: &[(i64, RowId)], del: &[(i64, RowId)]) -> Vec<(i64, RowId)> {
        let mut log = self.log.lock();
        let log = &mut *log;
        let present = del
            .iter()
            .copied()
            .filter(|&(v, row)| match log.inserts.get_mut(&(v, row)) {
                Some(copies) => {
                    *copies -= 1;
                    if *copies == 0 {
                        log.inserts.remove(&(v, row));
                    }
                    true
                }
                None => {
                    self.base.get(row as usize) == Some(&v)
                        && self.holds(v)
                        && log.deleted.insert(row)
                }
            })
            .collect();
        for &tuple in ins {
            *log.inserts.entry(tuple).or_insert(0) += 1;
        }
        present
    }

    /// Bytes the write log holds (its entries' payload).
    pub(crate) fn log_bytes(&self) -> usize {
        let log = self.log.lock();
        log.inserts.len() * std::mem::size_of::<((i64, RowId), u32)>()
            + log.deleted.len() * std::mem::size_of::<RowId>()
    }

    /// Rewrites `vals` — this source's tuples' values laid out in the
    /// pieces of `bounds` (`key → position`, ascending) — with the same
    /// multiset in every piece and fills the empty `rows` with the row ids
    /// that go with it: every slot holds one of the source's tuples, each
    /// tuple one slot. The base is read once, a block at a time: a
    /// branch-free filter collects the block's rows in range (every row is
    /// written at the cursor, the cursor only advances past a kept one),
    /// then each kept tuple not deleted goes to the cursor of the piece
    /// whose keys bracket its value (its piece is the number of keys at or
    /// below it), each piece's cursor starting where the boundary table
    /// says the piece does; the logged inserts follow the same way. The
    /// log is dropped: from here on `rows` carries what it said. `rows` is
    /// grown to `vals`' capacity, so the two grow together afterwards.
    ///
    /// Panics when `vals` does not hold exactly the source's tuples (some
    /// cursor does not stop at its piece's end).
    pub(crate) fn scatter(
        &self,
        bounds: &[(i64, usize)],
        vals: &mut Vec<i64>,
        rows: &mut Vec<RowId>,
    ) {
        debug_assert!(rows.is_empty());
        const BLOCK: usize = 4096;
        let log = std::mem::take(&mut *self.log.lock());
        let n = vals.len();
        let keys: Vec<i64> = bounds.iter().map(|b| b.0).collect();
        let starts = || std::iter::once(0).chain(bounds.iter().map(|b| b.1));
        let mut cursor: Vec<usize> = starts().collect();
        rows.reserve_exact(vals.capacity());
        rows.resize(n, 0);
        let mut place = |v: i64, r: RowId| {
            let piece = keys.partition_point(|&k| k <= v);
            let pos = cursor[piece];
            cursor[piece] = pos + 1;
            vals[pos] = v;
            rows[pos] = r;
        };
        // Deleted rows are rows in range, met in the same ascending order.
        let mut deleted = log.deleted.iter().copied().peekable();
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
                if deleted.next_if_eq(&r).is_none() {
                    place(self.base[r as usize], r);
                }
            }
        }
        debug_assert!(deleted.next().is_none(), "a deleted row not in range");
        for (&(v, r), &copies) in &log.inserts {
            (0..copies).for_each(|_| place(v, r));
        }
        let ends = starts().skip(1).chain(std::iter::once(n));
        for (piece, (at, end)) in cursor.into_iter().zip(ends).enumerate() {
            assert_eq!(at, end, "piece {piece} does not hold its source's tuples");
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
    fn record_takes_logged_inserts_first_then_live_base_rows() {
        let base = Arc::new(vec![7i64, 1, 9, 3, 7, 12]);
        let source = RowSource::new(Arc::clone(&base), Some(3), Some(10));
        // Row 0 is inserted again under its base value: two copies of
        // `(7, 0)`, the logged one taken first.
        assert!(source.record(&[(7, 0), (4, 20), (4, 20)], &[]).is_empty());
        let del = [
            (7, 0),  // the logged copy
            (7, 0),  // the base row
            (7, 0),  // gone: absent
            (1, 1),  // a base row out of range: absent
            (9, 4),  // value present under another row: absent
            (12, 5), // out of range: absent
            (5, 99), // past the base: absent
            (4, 20), // one logged copy of a repeated pair
            (9, 2),
        ];
        let present = source.record(&[(9, 2)], &del);
        assert_eq!(present, [(7, 0), (7, 0), (4, 20), (9, 2)]);
        let log = source.log.lock();
        assert_eq!(
            log.inserts
                .iter()
                .map(|(&t, &c)| (t, c))
                .collect::<Vec<_>>(),
            [((4, 20), 1), ((9, 2), 1)],
            "the batch's insert lands after its deletes"
        );
        assert_eq!(log.deleted.iter().copied().collect::<Vec<_>>(), [0, 2]);
        drop(log);
        assert_eq!(
            source.log_bytes(),
            2 * std::mem::size_of::<((i64, RowId), u32)>() + 2 * std::mem::size_of::<RowId>()
        );
    }

    #[test]
    fn scatter_skips_deleted_rows_places_the_log_and_drops_it() {
        let base = Arc::new(vec![7i64, 1, 9, 3, 7, 12, 5, 3, 0, 8]);
        let source = RowSource::new(Arc::clone(&base), Some(3), Some(9));
        // Delete base rows 3 (3) and 4 (7); insert (4, 50) twice and a
        // copy of row 6 (5) under its own id.
        source.record(&[(4, 50), (4, 50), (5, 6)], &[(3, 3), (7, 4)]);
        // Values [3 4 4 | 5 5 | 7 8], cracked at 5 and 7.
        let mut vals = vec![4, 3, 4, 5, 5, 8, 7];
        let bounds = [(5, 3), (7, 5)];
        let mut rows = Vec::new();
        source.scatter(&bounds, &mut vals, &mut rows);
        let mut pairs: Vec<(i64, RowId)> = vals.iter().copied().zip(rows).collect();
        pairs[..3].sort_unstable();
        pairs[3..5].sort_unstable();
        pairs[5..].sort_unstable();
        assert_eq!(
            pairs,
            [(3, 7), (4, 50), (4, 50), (5, 6), (5, 6), (7, 0), (8, 9)]
        );
        assert_eq!(source.log_bytes(), 0, "the log outlived the build");
    }

    #[test]
    #[should_panic(expected = "does not hold its source's tuples")]
    fn scatter_rejects_a_layout_that_is_not_the_sources() {
        let source = RowSource::new(Arc::new(vec![1i64, 2, 3, 4]), None, None);
        // The boundary claims one value below 3; the base has two.
        source.scatter(&[(3, 1)], &mut vec![0; 4], &mut Vec::new());
    }
}
