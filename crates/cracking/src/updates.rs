//! Pending updates and the Ripple merge algorithm ([28] "Updating a Cracked
//! Database", as used by §4.2 and §5.7 of the holistic-indexing paper).
//!
//! Updates are queued per column and merged lazily: a query (or a holistic
//! worker) that touches a value range merges exactly the pending updates
//! falling inside that range, never destroying index information.
//!
//! The Ripple insight: pieces are *unordered multisets* within their value
//! bounds, so making room for an insertion into piece `j` only needs to move
//! **one boundary element per downstream piece** — shift each later piece's
//! first element to its own end — instead of shifting the whole tail of the
//! array. Deletion runs the same dance in reverse.

use crate::index::CrackerIndex;
use holix_storage::types::{CrackValue, RowId};
use std::sync::Arc;

/// A list of `(value, row-id)` update operations.
pub type UpdateList<V> = Vec<(V, RowId)>;

/// Queue of not-yet-merged updates for one column.
///
/// Besides the queued inserts/deletes, the structure tracks *in-flight
/// merge batches*: a Ripple merge takes its items out of the queues long
/// before the post-merge snapshot is published, and a lock-free snapshot
/// reader linearising on this structure's mutex must still see those items
/// somewhere — otherwise a scan racing the merge would observe them in
/// neither the (old) snapshot nor the pending queue. The merge registers
/// its batch with [`PendingUpdates::take_range_tracked`] and clears it with
/// [`PendingUpdates::finish_merge`] in the same critical section that
/// publishes the new snapshot.
#[derive(Debug, Default)]
pub struct PendingUpdates<V> {
    inserts: Vec<(V, RowId)>,
    deletes: Vec<(V, RowId)>,
    /// Taken-but-not-yet-published merge batches `(token, inserts,
    /// deletes)`; `Arc`-shared with the merging thread so registration
    /// costs two refcount bumps, not two buffer copies.
    in_flight: Vec<InFlightBatch<V>>,
    next_token: u64,
    /// Set by shard migration: the column is being drained into its
    /// replan successors, so new updates must be rejected and re-routed
    /// through the successor plan (checked under the pending mutex —
    /// the same lock every queueing path already takes).
    sealed: bool,
}

/// One merge's taken batch: `(token, inserts, deletes)`.
type InFlightBatch<V> = (u64, Arc<UpdateList<V>>, Arc<UpdateList<V>>);

impl<V: CrackValue> PendingUpdates<V> {
    /// Empty queue.
    pub fn new() -> Self {
        PendingUpdates {
            inserts: Vec::new(),
            deletes: Vec::new(),
            in_flight: Vec::new(),
            next_token: 0,
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
    pub fn queue_insert(&mut self, v: V, row: RowId) {
        self.inserts.push((v, row));
    }

    /// Queues a deletion. A pending *insert* of the same `(value, row)` is
    /// cancelled instead (it never reached the column).
    pub fn queue_delete(&mut self, v: V, row: RowId) {
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

    /// Any queued op with value in `[lo, hi)`?
    pub fn has_in_range(&self, lo: V, hi: V) -> bool {
        let hit = |&(v, _): &(V, RowId)| lo <= v && v < hi;
        self.inserts.iter().any(hit) || self.deletes.iter().any(hit)
    }

    /// Removes and returns `(inserts, deletes)` with values in `[lo, hi)`.
    pub fn take_range(&mut self, lo: V, hi: V) -> (UpdateList<V>, UpdateList<V>) {
        let split = |q: &mut Vec<(V, RowId)>| {
            let mut taken = Vec::new();
            q.retain(|&(v, r)| {
                if lo <= v && v < hi {
                    taken.push((v, r));
                    false
                } else {
                    true
                }
            });
            taken
        };
        (split(&mut self.inserts), split(&mut self.deletes))
    }

    /// [`PendingUpdates::take_range`] that additionally registers the taken
    /// batch as in-flight until [`PendingUpdates::finish_merge`] is called
    /// with the returned token.
    #[allow(clippy::type_complexity)]
    pub fn take_range_tracked(
        &mut self,
        lo: V,
        hi: V,
    ) -> (u64, Arc<UpdateList<V>>, Arc<UpdateList<V>>) {
        let (ins, del) = self.take_range(lo, hi);
        let (ins, del) = (Arc::new(ins), Arc::new(del));
        let token = self.next_token;
        self.next_token += 1;
        self.in_flight
            .push((token, Arc::clone(&ins), Arc::clone(&del)));
        (token, ins, del)
    }

    /// Takes *every* queued update — including `MAX_VALUE` sentinels that a
    /// `take_range(MIN, MAX)` would exclude (half-open upper bound) — and
    /// registers the batch as in-flight like
    /// [`PendingUpdates::take_range_tracked`]. Shard migration drains the
    /// whole queue through this before copying the column out.
    #[allow(clippy::type_complexity)]
    pub fn take_all_tracked(&mut self) -> (u64, Arc<UpdateList<V>>, Arc<UpdateList<V>>) {
        let ins = Arc::new(std::mem::take(&mut self.inserts));
        let del = Arc::new(std::mem::take(&mut self.deletes));
        let token = self.next_token;
        self.next_token += 1;
        self.in_flight
            .push((token, Arc::clone(&ins), Arc::clone(&del)));
        (token, ins, del)
    }

    /// Unregisters an in-flight merge batch (its items are now visible in
    /// the published snapshot).
    pub fn finish_merge(&mut self, token: u64) {
        if let Some(i) = self.in_flight.iter().position(|&(t, _, _)| t == token) {
            self.in_flight.swap_remove(i);
        }
    }

    /// Visits the value of every update not yet visible in a published
    /// snapshot — queued *and* in-flight — that satisfies `qualifies`.
    /// Allocation-free: snapshot readers run this inside the pending-mutex
    /// critical section (the reader linearisation point), so the overlay
    /// must not lengthen that lock with per-scan `Vec`s.
    pub fn for_each_unmerged(
        &self,
        mut qualifies: impl FnMut(V) -> bool,
        mut visit: impl FnMut(V, UnmergedKind),
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
        for (_, fi, fd) in &self.in_flight {
            for &(v, _) in fi.iter() {
                if qualifies(v) {
                    visit(v, UnmergedKind::Insert);
                }
            }
            for &(v, _) in fd.iter() {
                if qualifies(v) {
                    visit(v, UnmergedKind::Delete);
                }
            }
        }
    }
}

/// Whether an unmerged update adds or removes its value (see
/// [`PendingUpdates::for_each_unmerged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnmergedKind {
    /// A queued or in-flight insertion.
    Insert,
    /// A queued or in-flight deletion.
    Delete,
}

/// Position range `[start, end)` of the piece that contains value `v`,
/// derived from the in-order bounds list.
fn piece_of<V: CrackValue>(bounds: &[(V, usize)], len: usize, v: V) -> (usize, usize, usize) {
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
pub fn ripple_insert<V: CrackValue>(
    vals: &mut Vec<V>,
    rows: &mut Vec<RowId>,
    index: &mut CrackerIndex<V>,
    v: V,
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
pub fn ripple_delete<V: CrackValue>(
    vals: &mut Vec<V>,
    rows: &mut Vec<RowId>,
    index: &mut CrackerIndex<V>,
    v: V,
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a cracked column state by cracking `base` at `pivots`
    /// (sequentially, with the plain kernel applied to a plain Vec).
    fn cracked_state(base: &[i64], pivots: &[i64]) -> (Vec<i64>, Vec<RowId>, CrackerIndex<i64>) {
        let mut vals = base.to_vec();
        let mut rows: Vec<RowId> = (0..base.len() as u32).collect();
        let mut index = CrackerIndex::new(base.len());
        for &p in pivots {
            let bounds = index.bounds_in_order();
            if bounds.iter().any(|&(k, _)| k == p) {
                continue;
            }
            let (_, s, e) = piece_of(&bounds, vals.len(), p);
            let split = crate::crack::crack_in_two(&mut vals[s..e], &mut rows[s..e], p);
            index.insert_bound(p, s + split);
        }
        (vals, rows, index)
    }

    fn check_pieces(vals: &[i64], index: &CrackerIndex<i64>) {
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
    fn take_range_partitions_queue() {
        let mut q = PendingUpdates::new();
        for (v, r) in [(1, 0), (5, 1), (9, 2)] {
            q.queue_insert(v, r);
        }
        q.queue_delete(6, 3);
        assert!(q.has_in_range(5, 7));
        let (ins, del) = q.take_range(5, 7);
        assert_eq!(ins, vec![(5, 1)]);
        assert_eq!(del, vec![(6, 3)]);
        assert_eq!(q.len(), 2);
        assert!(!q.has_in_range(5, 7));
    }

    #[test]
    fn in_flight_batches_stay_visible_until_finished() {
        let mut q = PendingUpdates::new();
        q.queue_insert(5, 1);
        q.queue_insert(50, 2);
        q.queue_delete(7, 3);
        let (token, ins, del) = q.take_range_tracked(0, 10);
        assert_eq!(*ins, vec![(5, 1)]);
        assert_eq!(*del, vec![(7, 3)]);
        assert!(!q.has_in_range(0, 10), "taken items left the queue");
        // … but a snapshot reader still sees them as unmerged.
        let collect = |q: &PendingUpdates<i64>, cap: i64| {
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
        let (uv_ins, uv_del) = collect(&q, 10);
        assert_eq!(uv_ins, vec![5]);
        assert_eq!(uv_del, vec![7]);
        q.finish_merge(token);
        let (uv_ins, uv_del) = collect(&q, 100);
        assert_eq!(uv_ins, vec![50], "queued insert outside the merge survives");
        assert!(uv_del.is_empty());
        q.finish_merge(token); // idempotent
    }

    #[test]
    fn take_all_tracked_drains_sentinels_and_tracks_in_flight() {
        let mut q = PendingUpdates::new();
        q.queue_insert(i64::MAX, 1); // excluded by any half-open take_range
        q.queue_insert(5, 2);
        q.queue_delete(7, 3);
        let unmerged = |q: &PendingUpdates<i64>| {
            let mut n = 0;
            q.for_each_unmerged(|_| true, |_, _| n += 1);
            n
        };
        let (token, ins, del) = q.take_all_tracked();
        assert_eq!(ins.len(), 2, "sentinel insert must be taken too");
        assert_eq!(del.len(), 1);
        assert!(q.is_empty());
        assert_eq!(unmerged(&q), 3, "taken batch stays visible in flight");
        q.finish_merge(token);
        assert_eq!(unmerged(&q), 0);
    }

    #[test]
    fn seal_is_observable() {
        let mut q = PendingUpdates::<i64>::new();
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

    proptest! {
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
