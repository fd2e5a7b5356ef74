//! Pending updates and the Ripple merge algorithm (\[28\] "Updating a Cracked
//! Database", as used by §4.2 and §5.7 of the holistic-indexing paper).
//!
//! Updates are queued per column and merged lazily, never destroying index
//! information: reads count the queue beside the column until it passes a
//! backlog (or an idle holistic worker gets to it), and then the whole
//! queue is merged as one batch (`CrackerColumn::merge_pending`).
//!
//! The Ripple insight: pieces are *unordered multisets* within their value
//! bounds, so making room for an insertion into piece `j` only needs to move
//! **one boundary element per downstream piece** — shift each later piece's
//! first element to its own end — instead of shifting the whole tail of the
//! array. Deletion runs the same dance in reverse.
//!
//! A merge applies its whole batch in that spirit with [`ripple_batch`]:
//! sorted once, deletes compacted in one ascending walk over the boundary
//! table and inserts opened up in one descending walk, each downstream
//! piece moving `min(k, len)` elements where `k` is the number of deletes
//! (inserts) on its left. The per-value [`ripple_insert`] /
//! [`ripple_delete`] are the reference the batch kernel is tested against.

use crate::index::CrackerIndex;
use crate::vectorized::RowLane;
use holix_storage::types::RowId;

/// A list of `(value, row-id)` update operations.
pub type UpdateList = Vec<(i64, RowId)>;

/// Queue of not-yet-merged updates for one column.
///
/// A Ripple merge takes the whole queue ([`PendingUpdates::take_all`])
/// under the column's exclusive structure lock, and every reader holds
/// that lock shared, so it sees a batch either queued or merged, never
/// in neither place.
#[derive(Debug, Default)]
pub struct PendingUpdates {
    inserts: Vec<(i64, RowId)>,
    deletes: Vec<(i64, RowId)>,
    /// Set by shard migration: the column is being drained into its
    /// replan successors, so new updates must be rejected and re-routed
    /// through the successor plan (checked under the pending mutex —
    /// the same lock every queueing path already takes).
    sealed: bool,
}

impl PendingUpdates {
    /// Empty queue.
    pub fn new() -> Self {
        PendingUpdates {
            inserts: Vec::new(),
            deletes: Vec::new(),
            sealed: false,
        }
    }

    /// Marks the queue sealed: the owning column is migrating into replan
    /// successors and accepts no further updates.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// `true` once [`PendingUpdates::seal`] ran.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Reopens a sealed queue — only legal while no successor plan was
    /// published (an aborted migration; rejected updates in the window are
    /// retried by the shard router and land here again).
    pub fn unseal(&mut self) {
        self.sealed = false;
    }

    /// Queues an insertion.
    pub fn queue_insert(&mut self, v: i64, row: RowId) {
        self.inserts.push((v, row));
    }

    /// Queues a deletion. A pending *insert* of the same `(value, row)` is
    /// cancelled instead (it never reached the column).
    pub fn queue_delete(&mut self, v: i64, row: RowId) {
        if let Some(i) = self
            .inserts
            .iter()
            .position(|&(iv, ir)| iv == v && ir == row)
        {
            self.inserts.swap_remove(i);
        } else {
            self.deletes.push((v, row));
        }
    }

    /// Total queued operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Takes *every* queued update: `(inserts, deletes)`. Every Ripple
    /// merge takes its batch here.
    pub fn take_all(&mut self) -> (UpdateList, UpdateList) {
        (
            std::mem::take(&mut self.inserts),
            std::mem::take(&mut self.deletes),
        )
    }

    /// Visits the value of every queued update that satisfies `qualifies`.
    /// Allocation-free: readers run this inside the pending-mutex critical
    /// section (the reader linearisation point), so the overlay must not
    /// lengthen that lock with per-scan `Vec`s.
    pub fn for_each_unmerged(
        &self,
        mut qualifies: impl FnMut(i64) -> bool,
        mut visit: impl FnMut(i64, UnmergedKind),
    ) {
        for &(v, _) in &self.inserts {
            if qualifies(v) {
                visit(v, UnmergedKind::Insert);
            }
        }
        for &(v, _) in &self.deletes {
            if qualifies(v) {
                visit(v, UnmergedKind::Delete);
            }
        }
    }
}

/// Whether an unmerged update adds or removes its value (see
/// [`PendingUpdates::for_each_unmerged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnmergedKind {
    /// A queued insertion.
    Insert,
    /// A queued deletion.
    Delete,
}

/// Position range `[start, end)` of the piece that contains value `v`,
/// derived from the in-order bounds list.
fn piece_of(bounds: &[(i64, usize)], len: usize, v: i64) -> (usize, usize, usize) {
    // First bound with key > v starts the piece *after* v's piece.
    let idx = bounds.partition_point(|&(k, _)| k <= v);
    let start = if idx == 0 { 0 } else { bounds[idx - 1].1 };
    let end = if idx < bounds.len() {
        bounds[idx].1
    } else {
        len
    };
    (idx, start, end)
}

/// Ripple-inserts one value into a cracked column. Caller holds the column
/// exclusively (vectors may grow).
pub fn ripple_insert(
    vals: &mut Vec<i64>,
    rows: &mut Vec<RowId>,
    index: &mut CrackerIndex,
    v: i64,
    row: RowId,
) {
    let len = vals.len();
    debug_assert_eq!(len, index.len());
    let bounds = index.bounds_in_order();
    let (idx, _start, end) = piece_of(&bounds, len, v);

    // Grow by one; the new slot is the first "free" slot of the ripple.
    vals.push(v);
    rows.push(row);
    let mut free = len;
    // Walk downstream bounds from the rightmost piece towards v's piece,
    // relocating each piece's first element to the free slot at its end.
    for &(_, pos) in bounds[idx..].iter().rev() {
        vals[free] = vals[pos];
        rows[free] = rows[pos];
        free = pos;
    }
    debug_assert_eq!(free, end);
    vals[free] = v;
    rows[free] = row;
    index.shift_bounds_key_gt(v, 1);
}

/// Ripple-deletes the element `(v, row)`; returns `false` when the element is
/// not present (e.g. it was never merged). Caller holds the column
/// exclusively.
pub fn ripple_delete(
    vals: &mut Vec<i64>,
    rows: &mut Vec<RowId>,
    index: &mut CrackerIndex,
    v: i64,
    row: RowId,
) -> bool {
    let len = vals.len();
    debug_assert_eq!(len, index.len());
    let bounds = index.bounds_in_order();
    let (idx, start, end) = piece_of(&bounds, len, v);

    // Locate the victim inside its piece.
    let Some(offset) = (start..end).find(|&i| rows[i] == row && vals[i] == v) else {
        return false;
    };

    // Fill the hole with the piece's last element, then ripple the hole
    // rightwards through each downstream piece.
    vals[offset] = vals[end - 1];
    rows[offset] = rows[end - 1];
    let mut hole = end - 1;
    for k in idx..bounds.len() {
        let piece_end = if k + 1 < bounds.len() {
            bounds[k + 1].1
        } else {
            len
        };
        vals[hole] = vals[piece_end - 1];
        rows[hole] = rows[piece_end - 1];
        hole = piece_end - 1;
    }
    debug_assert_eq!(hole, len - 1);
    vals.pop();
    rows.pop();
    index.shift_bounds_key_gt(v, -1);
    true
}

/// Ripple-merges one batch into a cracked column — every delete, then
/// every insert — in `O(downstream pieces + batch)` element moves and two
/// walks over the boundaries above the batch's smallest value, where
/// [`ripple_delete`] / [`ripple_insert`] pay a walk over *every* boundary
/// per value. Returns the number of boundaries walked.
///
/// The row lane is generic ([`RowLane`]): a column with row ids moves
/// them beside the values, and a delete matches its `(value, row)`; a
/// column without them passes a lane of `()`, moves values alone, and a
/// delete matches any tuple of its value — exact once the caller has
/// dropped the absent deletes (`RowSource::record` does).
/// A delete that matches nothing in the value's piece is dropped, as
/// [`ripple_delete`] drops it. The batch leaves each piece the multiset
/// the per-value functions leave it (which element of a piece sits where
/// is unspecified in both), and the same boundary table. Each value the
/// batch applies is added to (or taken from) the prefix sum of every
/// boundary above it, inside the walk that moves those boundaries, and to
/// (or from) the index's total. Caller holds the column exclusively
/// (vectors may grow).
pub fn ripple_batch<R: RowLane>(
    vals: &mut Vec<i64>,
    rows: &mut Vec<R>,
    index: &mut CrackerIndex,
    ins: &[(i64, RowId)],
    del: &[(i64, RowId)],
) -> usize {
    debug_assert_eq!(vals.len(), index.len());
    debug_assert_eq!(vals.len(), rows.len());
    let lane = |ops: &[(i64, RowId)]| {
        let mut ops: Vec<(i64, R)> = ops.iter().map(|&(v, r)| (v, R::of_row(r))).collect();
        ops.sort_unstable();
        ops
    };
    let mut walked = 0;
    if !del.is_empty() {
        walked += delete_pass(vals, rows, index, &mut lane(del));
    }
    if !ins.is_empty() {
        walked += insert_pass(vals, rows, index, &lane(ins));
    }
    index.set_len(vals.len());
    walked
}

/// Copies `xs[from..from + n]` to `xs[to..]`. Almost every call of a merge
/// moves one element — the classic Ripple step of a one-value batch, once
/// per downstream piece — and a `memmove` call costs several times the
/// move itself there.
#[inline]
fn relocate<T: Copy>(xs: &mut [T], from: usize, to: usize, n: usize) {
    if n == 1 {
        xs[to] = xs[from];
    } else {
        xs.copy_within(from..from + n, to);
    }
}

/// The ascending half of [`ripple_batch`]: the cursor over the pieces from
/// the one holding the smallest delete to the last.
struct DeletePass<'a, R> {
    vals: &'a mut [i64],
    rows: &'a mut [R],
    /// Sorted by `(value, row)`; `del[next..]` have not been looked for.
    del: &'a mut [(i64, R)],
    next: usize,
    /// Old first position of the piece under the cursor.
    start: usize,
    /// Elements removed so far — the width of the gap that has opened
    /// between the compacted pieces on the left and `start`.
    holes: usize,
}

impl<R: RowLane> DeletePass<'_, R> {
    /// Handles the piece at old positions `[start, end)`, which holds the
    /// values below `hi` (`None` = the last piece): overwrites each victim
    /// with the piece's then-last element, copies the last
    /// `min(holes, len)` survivors into the gap before the piece's head —
    /// the piece now starts `holes` lower — and advances to `end`. Returns
    /// the sum of the values it deleted from the piece.
    fn piece(&mut self, end: usize, hi: Option<i64>) -> i128 {
        let mut group_end = self.next;
        while group_end < self.del.len() && hi.is_none_or(|k| self.del[group_end].0 < k) {
            group_end += 1;
        }
        // One pass over the piece, each element looked up in the piece's
        // (sorted) deletes; a found delete rotates to the front of the
        // group and out of it, so a repeated `(value, row)` takes one
        // element per repeat. Ends with the group.
        let mut live_end = end;
        let mut i = self.start;
        let mut removed = 0i128;
        while self.next < group_end && i < live_end {
            let key = (self.vals[i], self.rows[i]);
            let group = &mut self.del[self.next..group_end];
            let j = group.partition_point(|d| *d < key);
            if group.get(j) == Some(&key) {
                group[..=j].rotate_right(1);
                self.next += 1;
                removed += key.0 as i128;
                live_end -= 1;
                self.vals[i] = self.vals[live_end];
                self.rows[i] = self.rows[live_end];
            } else {
                i += 1;
            }
        }
        self.next = group_end; // what is left of the group had no target
        let moved = self.holes.min(live_end - self.start);
        let to = self.start - self.holes;
        relocate(self.vals, live_end - moved, to, moved);
        relocate(self.rows, live_end - moved, to, moved);
        self.holes += end - live_end;
        self.start = end;
        removed
    }
}

/// Deletes the sorted, non-empty batch `del`; returns boundaries walked.
fn delete_pass<R: RowLane>(
    vals: &mut Vec<i64>,
    rows: &mut Vec<R>,
    index: &mut CrackerIndex,
    del: &mut [(i64, R)],
) -> usize {
    let n = vals.len();
    let first = del[0].0;
    let mut pass = DeletePass {
        vals,
        rows,
        del,
        next: 0,
        start: index.piece_start(first),
        holes: 0,
    };
    let mut walked = 0;
    // The sum of the values deleted so far: what every prefix above them
    // loses.
    let mut removed = 0;
    index.walk_above(first, |bound| {
        let Some((key, pos, below)) = bound else {
            removed += pass.piece(n, None);
            return false;
        };
        walked += 1;
        removed += pass.piece(*pos, Some(key));
        *pos -= pass.holes;
        *below -= removed;
        // Every delete looked for and none found: nothing downstream moves.
        pass.holes > 0 || pass.next < pass.del.len()
    });
    index.add_to_total(-removed);
    let len = n - pass.holes;
    vals.truncate(len);
    rows.truncate(len);
    walked
}

/// Inserts the sorted, non-empty batch `ins`; returns boundaries walked.
/// The vectors grow once; the descending walk stops at the piece that takes
/// the smallest value, left of which nothing moves.
fn insert_pass<R: RowLane>(
    vals: &mut Vec<i64>,
    rows: &mut Vec<R>,
    index: &mut CrackerIndex,
    ins: &[(i64, R)],
) -> usize {
    let n = vals.len();
    vals.resize(n + ins.len(), ins[0].0);
    rows.resize(n + ins.len(), ins[0].1);
    // Moves the piece at old positions `[start, end)` up by `shift` — its
    // first `min(shift, len)` elements go behind its tail — and writes its
    // own inserts into the rest of the gap below the next piece.
    let mut place = |start: usize, end: usize, shift: usize, own: &[(i64, R)]| {
        let moved = shift.min(end - start);
        relocate(vals, start, end + shift - moved, moved);
        relocate(rows, start, end + shift - moved, moved);
        for (slot, &(v, r)) in (end + shift..).zip(own) {
            vals[slot] = v;
            rows[slot] = r;
        }
    };
    let sum = |own: &[(i64, R)]| own.iter().map(|&(v, _)| v as i128).sum::<i128>();
    let mut end = n; // old end of the piece under the cursor
    let mut left = ins.len(); // `ins[..left]` belong at or left of the cursor
    let mut rest = sum(ins); // of `ins[..left]`
    index.add_to_total(rest);
    let mut walked = 0;
    index.walk_rev(|bound| {
        let Some((key, pos, below)) = bound else {
            // Out of boundaries with values still in hand: they are the
            // first piece's.
            place(0, end, 0, &ins[..left]);
            return false;
        };
        walked += 1;
        let mut own = 0;
        while own < left && ins[left - 1 - own].0 >= key {
            own += 1;
        }
        left -= own;
        let own = &ins[left..left + own];
        place(*pos, end, left, own);
        rest -= sum(own);
        *below += rest;
        end = *pos;
        *pos += left;
        left > 0
    });
    walked
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a cracked column state by cracking `base` at `pivots`
    /// (sequentially, with the plain kernel applied to a plain Vec).
    fn cracked_state(base: &[i64], pivots: &[i64]) -> (Vec<i64>, Vec<RowId>, CrackerIndex) {
        let mut vals = base.to_vec();
        let mut rows: Vec<RowId> = (0..base.len() as u32).collect();
        let mut index = CrackerIndex::new(base.len());
        index.sum_pieces(&vals);
        for &p in pivots {
            let bounds = index.bounds_in_order();
            if bounds.iter().any(|&(k, _)| k == p) {
                continue;
            }
            let (_, s, e) = piece_of(&bounds, vals.len(), p);
            let split = crate::crack::crack_in_two(&mut vals[s..e], &mut rows[s..e], p);
            let below = crate::index::sum_of(&vals[s..s + split]);
            index.insert_bound(p, s + split, below);
        }
        (vals, rows, index)
    }

    /// Every piece's sum, recomputed from its values, in piece order.
    fn recomputed_sums(vals: &[i64], index: &CrackerIndex) -> Vec<i128> {
        index
            .pieces_in_order()
            .into_iter()
            .map(|(s, e)| crate::index::sum_of(&vals[s..e]))
            .collect()
    }

    fn check_pieces(vals: &[i64], index: &CrackerIndex) {
        let bounds = index.bounds_in_order();
        let mut prev = 0usize;
        let mut lo = i64::MIN;
        for &(k, pos) in bounds.iter() {
            for &v in &vals[prev..pos] {
                assert!(v >= lo && v < k, "value {v} outside [{lo},{k})");
            }
            prev = pos;
            lo = k;
        }
        for &v in &vals[prev..] {
            assert!(v >= lo);
        }
    }

    #[test]
    fn queue_cancels_insert_on_delete() {
        let mut q = PendingUpdates::new();
        q.queue_insert(5, 1);
        q.queue_delete(5, 1);
        assert!(q.is_empty());
        q.queue_delete(7, 2); // real delete: no matching insert
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn take_all_empties_the_queue_and_the_overlay() {
        let mut q = PendingUpdates::new();
        q.queue_insert(i64::MAX, 1); // the sentinel is taken like any value
        q.queue_insert(5, 2);
        q.queue_delete(7, 3);
        let collect = |q: &PendingUpdates, cap: i64| {
            let (mut ins, mut del) = (Vec::new(), Vec::new());
            q.for_each_unmerged(
                |v| v < cap,
                |v, kind| match kind {
                    UnmergedKind::Insert => ins.push(v),
                    UnmergedKind::Delete => del.push(v),
                },
            );
            (ins, del)
        };
        assert_eq!(collect(&q, 10), (vec![5], vec![7]));
        let (ins, del) = q.take_all();
        assert_eq!(ins, vec![(i64::MAX, 1), (5, 2)]);
        assert_eq!(del, vec![(7, 3)]);
        assert!(q.is_empty(), "taken items left the queue");
        assert_eq!(collect(&q, i64::MAX), (vec![], vec![]));
        // The next batch is the queue from here on alone.
        q.queue_insert(50, 4);
        assert_eq!(q.take_all(), (vec![(50, 4)], vec![]));
    }

    #[test]
    fn seal_is_observable() {
        let mut q = PendingUpdates::new();
        assert!(!q.is_sealed());
        q.seal();
        assert!(q.is_sealed());
    }

    #[test]
    fn insert_into_each_piece() {
        let base = vec![15i64, 5, 25, 8, 30, 2, 22, 12];
        let (mut vals, mut rows, mut index) = cracked_state(&base, &[10, 20]);
        check_pieces(&vals, &index);

        for (v, r) in [(7i64, 100u32), (11, 101), (27, 102)] {
            ripple_insert(&mut vals, &mut rows, &mut index, v, r);
            check_pieces(&vals, &index);
        }
        assert_eq!(vals.len(), base.len() + 3);
        assert_eq!(index.len(), vals.len());
        // All inserted values present with their rowids.
        for (v, r) in [(7i64, 100u32), (11, 101), (27, 102)] {
            assert!(vals.iter().zip(&rows).any(|(&vv, &rr)| vv == v && rr == r));
        }
    }

    #[test]
    fn insert_into_empty_piece() {
        let base = vec![1i64, 30, 2, 31];
        // Crack at 10 and 20: middle piece [10,20) is empty.
        let (mut vals, mut rows, mut index) = cracked_state(&base, &[10, 20]);
        ripple_insert(&mut vals, &mut rows, &mut index, 15, 50);
        check_pieces(&vals, &index);
        assert!(vals.contains(&15));
    }

    #[test]
    fn insert_on_boundary_key() {
        let base = vec![1i64, 30, 2, 31];
        let (mut vals, mut rows, mut index) = cracked_state(&base, &[10]);
        // v == boundary key joins the right piece (v >= key invariant).
        ripple_insert(&mut vals, &mut rows, &mut index, 10, 50);
        check_pieces(&vals, &index);
    }

    #[test]
    fn delete_from_each_piece() {
        let base = vec![15i64, 5, 25, 8, 30, 2, 22, 12];
        let (mut vals, mut rows, mut index) = cracked_state(&base, &[10, 20]);
        // Delete value 8 (rowid 3), 15 (rowid 0), 30 (rowid 4).
        for (v, r) in [(8i64, 3u32), (15, 0), (30, 4)] {
            assert!(ripple_delete(&mut vals, &mut rows, &mut index, v, r));
            check_pieces(&vals, &index);
        }
        assert_eq!(vals.len(), base.len() - 3);
        assert!(!rows.contains(&3));
        assert!(!ripple_delete(&mut vals, &mut rows, &mut index, 8, 3));
    }

    #[test]
    fn delete_last_remaining_element() {
        let base = vec![5i64];
        let (mut vals, mut rows, mut index) = cracked_state(&base, &[]);
        assert!(ripple_delete(&mut vals, &mut rows, &mut index, 5, 0));
        assert!(vals.is_empty());
        assert_eq!(index.len(), 0);
    }

    /// Every piece as its sorted `(value, row)` multiset, in piece order.
    fn piece_multisets(
        vals: &[i64],
        rows: &[RowId],
        index: &CrackerIndex,
    ) -> Vec<Vec<(i64, RowId)>> {
        assert_eq!(vals.len(), index.len());
        assert_eq!(rows.len(), index.len());
        index
            .pieces_in_order()
            .into_iter()
            .map(|(s, e)| {
                let mut piece: Vec<(i64, RowId)> = vals[s..e]
                    .iter()
                    .copied()
                    .zip(rows[s..e].iter().copied())
                    .collect();
                piece.sort_unstable();
                piece
            })
            .collect()
    }

    type State = (Vec<i64>, Vec<RowId>, CrackerIndex);

    /// Applies one batch to `batched` through [`ripple_batch`] and to
    /// `oracle` through the per-value functions (deletes first, as a merge
    /// applies them), then requires the same boundary table and the same
    /// multiset in every piece. A values-only copy of `batched` takes the
    /// batch too, over the `()` lane with the deletes the oracle found,
    /// and must leave the same boundaries and per-piece values. Both keep
    /// every piece's sum equal to its values'. Returns the boundaries the
    /// batch walked.
    fn apply_both(
        batched: &mut State,
        oracle: &mut State,
        ins: &[(i64, RowId)],
        del: &[(i64, RowId)],
    ) -> usize {
        let (mut alone, mut alone_index) = (batched.0.clone(), batched.2.clone());
        let walked = ripple_batch(&mut batched.0, &mut batched.1, &mut batched.2, ins, del);
        let present: Vec<(i64, RowId)> = del
            .iter()
            .copied()
            .filter(|&(v, r)| ripple_delete(&mut oracle.0, &mut oracle.1, &mut oracle.2, v, r))
            .collect();
        for &(v, r) in ins {
            ripple_insert(&mut oracle.0, &mut oracle.1, &mut oracle.2, v, r);
        }
        let mut none = vec![(); alone.len()];
        ripple_batch(&mut alone, &mut none, &mut alone_index, ins, &present);
        assert_eq!(
            alone_index.bounds_in_order(),
            oracle.2.bounds_in_order(),
            "values-only boundaries differ after ins {ins:?} del {del:?}"
        );
        let values = |pieces: Vec<Vec<(i64, RowId)>>| -> Vec<Vec<i64>> {
            pieces
                .into_iter()
                .map(|p| p.into_iter().map(|(v, _)| v).collect())
                .collect()
        };
        let zeros = vec![0; alone.len()];
        assert_eq!(
            values(piece_multisets(&alone, &zeros, &alone_index)),
            values(piece_multisets(&oracle.0, &oracle.1, &oracle.2)),
            "values-only pieces differ after ins {ins:?} del {del:?}"
        );
        check_pieces(&batched.0, &batched.2);
        for (vals, index) in [(&batched.0, &batched.2), (&alone, &alone_index)] {
            assert_eq!(
                index.piece_sums(),
                Some(recomputed_sums(vals, index)),
                "piece sums drifted after ins {ins:?} del {del:?}"
            );
        }
        assert_eq!(
            batched.2.bounds_in_order(),
            oracle.2.bounds_in_order(),
            "boundary tables differ after ins {ins:?} del {del:?}"
        );
        assert_eq!(
            piece_multisets(&batched.0, &batched.1, &batched.2),
            piece_multisets(&oracle.0, &oracle.1, &oracle.2),
            "piece multisets differ after ins {ins:?} del {del:?}"
        );
        walked
    }

    fn both_states(base: &[i64], pivots: &[i64]) -> (State, State) {
        (cracked_state(base, pivots), cracked_state(base, pivots))
    }

    #[test]
    fn batch_entirely_in_the_first_or_the_last_piece() {
        let base = vec![15i64, 5, 25, 8, 30, 2, 22, 12];
        let (mut b, mut o) = both_states(&base, &[10, 20]);
        // First piece only: every bound moves, no element of a later piece
        // is dropped or duplicated.
        apply_both(&mut b, &mut o, &[(1, 100), (9, 101), (3, 102)], &[(5, 1)]);
        assert_eq!(b.2.bounds_in_order(), vec![(10, 5), (20, 7)]);
        // Last piece only: no bound moves, the insert walk stops at once.
        let walked = apply_both(&mut b, &mut o, &[(40, 103)], &[(30, 4)]);
        assert_eq!(walked, 1, "one bound looked at, on the way down");
        assert_eq!(b.0.len(), base.len() + 2);
    }

    #[test]
    fn batch_larger_than_the_pieces_it_crosses_moves_them_whole() {
        // Pieces of 2, 0, 1, 0 and 3 elements; five inserts and three
        // deletes on the far left push every one of them across more than
        // its own length.
        let base = vec![1i64, 2, 25, 41, 42, 43];
        let (mut b, mut o) = both_states(&base, &[10, 20, 30, 40]);
        let ins: Vec<(i64, RowId)> = (0..5).map(|i| (3 + i, 100 + i as u32)).collect();
        apply_both(&mut b, &mut o, &ins, &[]);
        assert_eq!(
            b.2.bounds_in_order(),
            vec![(10, 7), (20, 7), (30, 8), (40, 8)]
        );
        let del: Vec<(i64, RowId)> = vec![(3, 100), (1, 0), (4, 101), (7, 104)];
        apply_both(&mut b, &mut o, &[(15, 200)], &del);
        assert_eq!(b.0.len(), base.len() + 5 - 4 + 1);
    }

    #[test]
    fn delete_and_reinsert_of_one_tuple_in_one_batch_keeps_it() {
        let base = vec![15i64, 5, 25, 8];
        let (mut b, mut o) = both_states(&base, &[10, 20]);
        // Deletes apply first: the tuple leaves and comes back.
        apply_both(&mut b, &mut o, &[(15, 0)], &[(15, 0)]);
        assert_eq!(
            b.0.iter()
                .zip(&b.1)
                .filter(|&(&v, &r)| (v, r) == (15, 0))
                .count(),
            1
        );
        // The same delete twice in one batch takes the one tuple there is.
        apply_both(&mut b, &mut o, &[], &[(8, 3), (8, 3)]);
        assert_eq!(b.0.len(), 3);
    }

    #[test]
    fn absent_delete_targets_are_dropped_and_move_nothing() {
        let base = vec![15i64, 5, 25, 8, 30];
        let (mut b, mut o) = both_states(&base, &[10, 20]);
        let before = (b.0.clone(), b.1.clone(), b.2.bounds_in_order());
        // Wrong row, wrong value, value in an empty region, right tuple in
        // the wrong piece's key range.
        let del = [(5, 9), (6, 1), (17, 3), (11, 0)];
        let walked = apply_both(&mut b, &mut o, &[], &del);
        assert_eq!((b.0.clone(), b.1.clone(), b.2.bounds_in_order()), before);
        assert_eq!(walked, 2, "the walk ends with the last delete's piece");
    }

    #[test]
    fn boundary_keys_and_value_sentinels_land_where_the_oracle_puts_them() {
        let base = vec![i64::MIN, 1, 10, 19, 20, i64::MAX, 30];
        let (mut b, mut o) = both_states(&base, &[10, 20]);
        // A value equal to a boundary key belongs to the piece on its right.
        apply_both(
            &mut b,
            &mut o,
            &[(10, 100), (20, 101), (i64::MIN, 102), (i64::MAX, 103)],
            &[(20, 4), (i64::MAX, 5)],
        );
        apply_both(
            &mut b,
            &mut o,
            &[],
            &[(i64::MIN, 0), (i64::MIN, 102), (i64::MAX, 103)],
        );
        // An empty column takes a batch too.
        let (mut b, mut o) = both_states(&[], &[]);
        apply_both(&mut b, &mut o, &[(7, 0), (3, 1)], &[(5, 9)]);
        apply_both(&mut b, &mut o, &[], &[(7, 0), (3, 1)]);
        assert!(b.0.is_empty());
    }

    /// Values of the batch property: a small domain, so boundary keys,
    /// duplicates and empty pieces are common, plus both sentinels.
    fn any_value() -> impl Strategy<Value = i64> {
        (0u8..12, 0i64..40).prop_map(|(pick, v)| match pick {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => v,
        })
    }

    proptest! {
        // Random cracked states × random batches, replayed through
        // `ripple_batch` and through the per-value oracle: the boundary
        // table and every piece's `(value, row)` multiset agree after each
        // batch. Deletes are drawn as live tuples (some named twice),
        // absent targets, and tuples the same batch inserts again; with up
        // to twelve boundaries over at most forty tuples most batches are
        // larger than pieces they cross.
        #[test]
        fn prop_ripple_batch_matches_the_per_value_oracle(
            base in proptest::collection::vec(any_value(), 0..40),
            pivots in proptest::collection::vec(any_value(), 0..12),
            batches in proptest::collection::vec(
                (
                    proptest::collection::vec(any_value(), 0..24),
                    proptest::collection::vec((0u8..4, any::<usize>(), any_value()), 0..24),
                ),
                1..5,
            ),
        ) {
            let (mut batched, mut oracle) = both_states(&base, &pivots);
            let mut next_row = base.len() as RowId;
            for (ins_vals, del_ops) in batches {
                let mut ins: Vec<(i64, RowId)> = Vec::new();
                for v in ins_vals {
                    ins.push((v, next_row));
                    next_row += 1;
                }
                let mut del: Vec<(i64, RowId)> = Vec::new();
                for (kind, pick, v) in del_ops {
                    let live = oracle.0.len();
                    match kind {
                        // A live tuple (possibly one an earlier op named).
                        0 | 1 if live > 0 => {
                            let i = pick % live;
                            del.push((oracle.0[i], oracle.1[i]));
                        }
                        // A live tuple deleted and inserted again.
                        2 if live > 0 => {
                            let i = pick % live;
                            del.push((oracle.0[i], oracle.1[i]));
                            ins.push((oracle.0[i], oracle.1[i]));
                        }
                        // An absent target: a row id nothing carries.
                        _ => del.push((v, RowId::MAX - (pick % 7) as RowId)),
                    }
                }
                apply_both(&mut batched, &mut oracle, &ins, &del);
            }
        }

        #[test]
        fn prop_ripple_stream_matches_oracle(
            base in proptest::collection::vec(0i64..100, 1..60),
            pivots in proptest::collection::vec(0i64..100, 0..10),
            ops in proptest::collection::vec((any::<bool>(), 0i64..100), 0..40),
        ) {
            let (mut vals, mut rows, mut index) = cracked_state(&base, &pivots);
            let mut oracle: Vec<(i64, RowId)> =
                base.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
            let mut next_row = base.len() as u32;

            for (is_insert, v) in ops {
                if is_insert {
                    ripple_insert(&mut vals, &mut rows, &mut index, v, next_row);
                    oracle.push((v, next_row));
                    next_row += 1;
                } else if let Some(pos) = oracle.iter().position(|&(ov, _)| ov == v) {
                    let (ov, or) = oracle.swap_remove(pos);
                    prop_assert!(ripple_delete(&mut vals, &mut rows, &mut index, ov, or));
                }
                check_pieces(&vals, &index);
                prop_assert_eq!(vals.len(), oracle.len());
                prop_assert_eq!(index.len(), vals.len());
            }

            // Multiset equality with the oracle.
            let mut got: Vec<(i64, RowId)> =
                vals.iter().zip(&rows).map(|(&v, &r)| (v, r)).collect();
            got.sort_unstable();
            oracle.sort_unstable();
            prop_assert_eq!(got, oracle);
        }
    }
}
