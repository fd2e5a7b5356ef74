//! The cracker index: piece boundaries in an ordered map, plus per-piece
//! latches.
//!
//! A boundary `(key → pos)` states the cracking invariant: every value at a
//! position `< pos` is `< key`, and every value at a position `>= pos` is
//! `>= key`. The gaps between consecutive boundaries are the *pieces*. The
//! piece starting at boundary `b` owns the latch stored in `b`'s entry; the
//! piece starting at position 0 owns `first_latch`.
//!
//! The paper keeps the boundaries in an AVL tree (§3.2). Here they live in
//! std's `BTreeMap`: the same ordered-map contract (exact, floor and
//! successor lookups, ordered range walks), with up to eleven keys of a
//! node in one array and their entries in a parallel one, so a range walk
//! reads contiguous node arrays instead of chasing one node per boundary.
//!
//! Boundaries never move once created — cracking only permutes values
//! strictly inside one piece — except under the exclusive Ripple-update
//! path. A batch merge ([`crate::updates::ripple_batch`]) rewrites the
//! positions of exactly the boundaries downstream of its smallest value,
//! each by its own delta, in two range walks: [`CrackerIndex::walk_above`]
//! ascending from a value (the delete pass) and [`CrackerIndex::walk_rev`]
//! descending from the last boundary until the kernel stops it (the insert
//! pass). Both hand out the stored position mutably and allocate nothing.

use crate::latch::PieceLatch;
use holix_storage::types::CrackValue;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// Value part of a boundary entry.
#[derive(Debug, Clone)]
pub struct BoundEntry {
    /// First position of the piece that starts at this boundary.
    pub pos: usize,
    /// Latch of the piece starting here.
    pub latch: PieceLatch,
}

/// One piece addressed by its starting boundary key (snapshot-refresh
/// walks; see [`CrackerIndex::piece_after`]).
#[derive(Debug, Clone)]
pub struct PieceRef<V> {
    /// First position of the piece.
    pub start: usize,
    /// One past the last position.
    pub end: usize,
    /// The piece's latch.
    pub latch: PieceLatch,
    /// Upper boundary key (`None` = last piece).
    pub hi_key: Option<V>,
}

/// Result of locating a bound value in the index.
#[derive(Debug, Clone)]
pub enum BoundLookup<V> {
    /// The value is already a boundary: its position can be used directly
    /// (an "exact hit" in the paper's statistics).
    Exact(usize),
    /// The value falls inside a piece that must be cracked.
    Piece {
        /// First position of the piece.
        start: usize,
        /// One past the last position of the piece.
        end: usize,
        /// The piece's latch.
        latch: PieceLatch,
        /// Boundary key on the left (`None` = column minimum side): every
        /// value in the piece is `>= lo_key`.
        lo_key: Option<V>,
        /// Boundary key on the right (`None` = column maximum side): every
        /// value in the piece is `< hi_key`.
        hi_key: Option<V>,
    },
}

/// Piece bookkeeping for one cracker column.
///
/// `Clone` duplicates the bookkeeping but *shares* the piece latches (they
/// are `Arc`-backed); benchmark setups use this to re-run destructive
/// operations from one prepared state.
#[derive(Debug, Clone)]
pub struct CrackerIndex<V> {
    bounds: BTreeMap<V, BoundEntry>,
    first_latch: PieceLatch,
    len: usize,
}

impl<V: CrackValue> CrackerIndex<V> {
    /// A fresh index over a column of `len` values: one piece, no bounds.
    pub fn new(len: usize) -> Self {
        CrackerIndex {
            bounds: BTreeMap::new(),
            first_latch: PieceLatch::new(),
            len,
        }
    }

    /// Column length tracked by the index.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the indexed column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pieces (`bounds + 1`).
    pub fn piece_count(&self) -> usize {
        self.bounds.len() + 1
    }

    /// Average piece size in values — the `N/p` of Equation (1).
    pub fn avg_piece_len(&self) -> usize {
        self.len / self.piece_count()
    }

    /// Locates the piece a bound value falls into (or the exact boundary).
    pub fn locate(&self, v: V) -> BoundLookup<V> {
        let (start, latch, lo_key) = match self.bounds.range(..=v).next_back() {
            Some((&k, e)) if k == v => return BoundLookup::Exact(e.pos),
            Some((&k, e)) => (e.pos, e.latch.clone(), Some(k)),
            None => (0, self.first_latch.clone(), None),
        };
        let (end, hi_key) = self.piece_end(self.bounds.range((Excluded(v), Unbounded)).next());
        BoundLookup::Piece {
            start,
            end,
            latch,
            lo_key,
            hi_key,
        }
    }

    /// End position and upper key of the piece that `next` (the boundary
    /// after it, `None` = none) closes.
    fn piece_end(&self, next: Option<(&V, &BoundEntry)>) -> (usize, Option<V>) {
        next.map_or((self.len, None), |(&k, e)| (e.pos, Some(k)))
    }

    /// Records a new boundary `key → pos` after a crack. The latch for the
    /// new right piece (starting at `pos`) is created here; the left piece
    /// keeps the latch of the piece that was split.
    ///
    /// Panics if the key already exists (callers re-validate under the piece
    /// latch before cracking, so a duplicate insert is a protocol bug).
    pub fn insert_bound(&mut self, key: V, pos: usize) {
        debug_assert!(pos <= self.len);
        let prev = self.bounds.insert(
            key,
            BoundEntry {
                pos,
                latch: PieceLatch::new(),
            },
        );
        assert!(prev.is_none(), "duplicate boundary inserted");
    }

    /// First position of the piece that holds value `v`: the position of
    /// the greatest boundary with key `<= v`, or 0.
    pub fn piece_start(&self, v: V) -> usize {
        self.bounds
            .range(..=v)
            .next_back()
            .map_or(0, |(_, e)| e.pos)
    }

    /// Visits the boundaries with key `> after` in ascending key order as
    /// `(key, &mut position)` until `f` returns `false` (Ripple batch
    /// merges only; caller holds the column exclusively and leaves the
    /// positions non-decreasing in key order).
    pub fn walk_above(&mut self, after: V, mut f: impl FnMut(V, &mut usize) -> bool) {
        for (&k, e) in self.bounds.range_mut((Excluded(after), Unbounded)) {
            if !f(k, &mut e.pos) {
                return;
            }
        }
    }

    /// [`CrackerIndex::walk_above`] in descending key order from the last
    /// boundary.
    pub fn walk_rev(&mut self, mut f: impl FnMut(V, &mut usize) -> bool) {
        for (&k, e) in self.bounds.iter_mut().rev() {
            if !f(k, &mut e.pos) {
                return;
            }
        }
    }

    /// Shifts every boundary whose *key* is strictly greater than `key` by
    /// `delta`, and the tracked length with it — the per-value shift of the
    /// in-place [`crate::updates::ripple_insert`] /
    /// [`crate::updates::ripple_delete`] oracle: inserting a value `v`
    /// moves exactly the pieces to the right of `v`'s piece, i.e. the
    /// boundaries with key `> v` (a positional shift would also catch
    /// same-position boundaries of empty pieces on the left of `v`).
    pub fn shift_bounds_key_gt(&mut self, key: V, delta: isize) {
        for (_, e) in self.bounds.range_mut((Excluded(key), Unbounded)) {
            e.pos = e.pos.checked_add_signed(delta).expect("bound underflow");
        }
        self.len = self.len.checked_add_signed(delta).expect("len underflow");
    }

    /// Adjusts only the tracked length (batch helpers that maintain bounds
    /// themselves).
    pub fn set_len(&mut self, len: usize) {
        self.len = len;
    }

    /// In-order boundaries as `(key, pos)` (invariant checks / stats).
    pub fn bounds_in_order(&self) -> Vec<(V, usize)> {
        self.bounds.iter().map(|(&k, e)| (k, e.pos)).collect()
    }

    /// In-order pieces as `(start, end)` position ranges.
    pub fn pieces_in_order(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.piece_count());
        let mut prev = 0usize;
        for e in self.bounds.values() {
            out.push((prev, e.pos));
            prev = e.pos;
        }
        out.push((prev, self.len));
        out
    }

    /// The piece that *starts* at boundary `lo_key` (`None` = position 0):
    /// its position range, latch and upper boundary key. Snapshot refresh
    /// walks a value range piece by piece through this — re-looking the
    /// chain up by key per step, so pieces split by concurrent cracks are
    /// picked up at their current extent (boundaries are never removed, so
    /// a key that once started a piece always does). Returns `None` only
    /// when `lo_key` is not a boundary at all.
    pub fn piece_after(&self, lo_key: Option<V>) -> Option<PieceRef<V>> {
        let (start, latch, mut above) = match lo_key {
            None => (0, self.first_latch.clone(), self.bounds.range(..)),
            Some(k) => {
                let mut from = self.bounds.range(k..);
                let (_, e) = from.next().filter(|&(&at, _)| at == k)?;
                (e.pos, e.latch.clone(), from)
            }
        };
        let (end, hi_key) = self.piece_end(above.next());
        Some(PieceRef {
            start,
            end,
            latch,
            hi_key,
        })
    }

    /// Memory used by the index structure itself (rough, for budgeting).
    pub fn approx_bytes(&self) -> usize {
        self.bounds.len() * (std::mem::size_of::<V>() + std::mem::size_of::<BoundEntry>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    /// Runs `walk_above(after)` (or `walk_rev` for `None`) on a clone of
    /// `idx`, stopping after `stop` visits and bumping every position it
    /// visits; checks that exactly those positions moved and returns the
    /// keys visited, in order.
    fn walked(idx: &CrackerIndex<i64>, after: Option<i64>, stop: usize) -> Vec<i64> {
        let mut copy = idx.clone();
        let mut seen = Vec::new();
        let visit = |k, pos: &mut usize| {
            seen.push(k);
            *pos += 1;
            seen.len() < stop
        };
        match after {
            Some(v) => copy.walk_above(v, visit),
            None => copy.walk_rev(visit),
        }
        let bumped: Vec<(i64, usize)> = idx
            .bounds_in_order()
            .into_iter()
            .map(|(k, pos)| (k, pos + usize::from(seen.contains(&k))))
            .collect();
        assert_eq!(
            copy.bounds_in_order(),
            bumped,
            "a walk moved what it did not visit"
        );
        seen
    }

    /// Checks every lookup and walk of `idx` against a linear scan of
    /// `bounds_in_order()`, for probes below, on, between and above the
    /// keys; the walks are told to stop after `stop` visits.
    fn assert_agrees_with_scan(idx: &CrackerIndex<i64>, stop: usize) {
        let bounds = idx.bounds_in_order();
        let len = idx.len();
        let key_at = |i: usize| bounds.get(i).map(|&(k, _)| k);
        let end_at = |i: usize| bounds.get(i).map_or(len, |&(_, pos)| pos);
        let first = idx
            .piece_after(None)
            .expect("the first piece always exists");
        assert_eq!(
            (first.start, first.end, first.hi_key),
            (0, end_at(0), key_at(0))
        );
        let rev: Vec<i64> = bounds.iter().rev().map(|&(k, _)| k).take(stop).collect();
        assert_eq!(walked(idx, None, stop), rev, "walk_rev");

        let mut probes = vec![i64::MIN, -1_000, 1_000, i64::MAX];
        probes.extend(bounds.iter().flat_map(|&(k, _)| [k - 1, k, k + 1]));
        for p in probes {
            // `bounds[..i]` have key <= p: the floor is `i - 1`, the
            // successor `i`.
            let i = bounds.partition_point(|&(k, _)| k <= p);
            let on = i > 0 && bounds[i - 1].0 == p;
            let start = if i == 0 { 0 } else { bounds[i - 1].1 };
            let lo = i.checked_sub(1).and_then(key_at);
            assert_eq!(idx.piece_start(p), start, "piece_start({p})");
            match idx.locate(p) {
                BoundLookup::Exact(pos) => {
                    assert!(on && pos == start, "locate({p}) = Exact({pos})")
                }
                BoundLookup::Piece {
                    start: s,
                    end,
                    latch,
                    lo_key,
                    hi_key,
                } => {
                    assert!(!on, "locate({p}) missed its boundary");
                    assert_eq!((s, end, lo_key, hi_key), (start, end_at(i), lo, key_at(i)));
                    let owner = idx.piece_after(lo_key).expect("lo_key is a boundary");
                    assert!(
                        latch.same_as(&owner.latch),
                        "locate({p}) handed out another piece's latch"
                    );
                }
            }
            match idx.piece_after(Some(p)) {
                Some(r) => {
                    assert!(on, "piece_after({p}) on a non-boundary");
                    assert_eq!((r.start, r.end, r.hi_key), (start, end_at(i), key_at(i)));
                }
                None => assert!(!on, "piece_after({p}) lost its boundary"),
            }
            let above: Vec<i64> = bounds[i..].iter().map(|&(k, _)| k).take(stop).collect();
            assert_eq!(walked(idx, Some(p), stop), above, "walk_above({p})");

            let mut shifted = idx.clone();
            shifted.shift_bounds_key_gt(p, 1);
            let want: Vec<(i64, usize)> = bounds
                .iter()
                .map(|&(k, pos)| (k, pos + usize::from(k > p)))
                .collect();
            assert_eq!(shifted.bounds_in_order(), want, "shift_bounds_key_gt({p})");
            assert_eq!(shifted.len(), len + 1);
        }
    }

    #[test]
    fn fresh_index_is_one_piece() {
        let idx = CrackerIndex::<i64>::new(100);
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.avg_piece_len(), 100);
        match idx.locate(50) {
            BoundLookup::Piece {
                start,
                end,
                lo_key,
                hi_key,
                ..
            } => {
                assert_eq!((start, end), (0, 100));
                assert_eq!((lo_key, hi_key), (None, None));
            }
            _ => panic!("expected piece"),
        }
        for stop in [1, 2] {
            assert_agrees_with_scan(&idx, stop);
            assert_agrees_with_scan(&CrackerIndex::new(0), stop);
        }
    }

    #[test]
    fn exact_hit_after_insert() {
        let mut idx = CrackerIndex::<i64>::new(100);
        idx.insert_bound(50, 42);
        match idx.locate(50) {
            BoundLookup::Exact(pos) => assert_eq!(pos, 42),
            _ => panic!("expected exact"),
        }
        assert_eq!(idx.piece_count(), 2);
    }

    #[test]
    fn locate_between_bounds() {
        let mut idx = CrackerIndex::<i64>::new(100);
        idx.insert_bound(30, 25);
        idx.insert_bound(70, 80);
        match idx.locate(45) {
            BoundLookup::Piece {
                start,
                end,
                lo_key,
                hi_key,
                ..
            } => {
                assert_eq!((start, end), (25, 80));
                assert_eq!((lo_key, hi_key), (Some(30), Some(70)));
            }
            _ => panic!(),
        }
        match idx.locate(10) {
            BoundLookup::Piece { start, end, .. } => assert_eq!((start, end), (0, 25)),
            _ => panic!(),
        }
        match idx.locate(90) {
            BoundLookup::Piece { start, end, .. } => assert_eq!((start, end), (80, 100)),
            _ => panic!(),
        }
    }

    #[test]
    fn split_keeps_left_latch_and_creates_right() {
        let mut idx = CrackerIndex::<i64>::new(100);
        let left_latch = match idx.locate(50) {
            BoundLookup::Piece { latch, .. } => latch,
            _ => panic!(),
        };
        idx.insert_bound(50, 40);
        // Left piece [0,40) keeps the original latch.
        match idx.locate(20) {
            BoundLookup::Piece {
                start, end, latch, ..
            } => {
                assert_eq!((start, end), (0, 40));
                assert!(latch.same_as(&left_latch));
            }
            _ => panic!(),
        }
        // Right piece [40,100) has a fresh latch.
        match idx.locate(80) {
            BoundLookup::Piece {
                start, end, latch, ..
            } => {
                assert_eq!((start, end), (40, 100));
                assert!(!latch.same_as(&left_latch));
            }
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "duplicate boundary")]
    fn duplicate_bound_panics() {
        let mut idx = CrackerIndex::<i64>::new(10);
        idx.insert_bound(5, 3);
        idx.insert_bound(5, 3);
    }

    #[test]
    fn pieces_in_order_covers_column() {
        let mut idx = CrackerIndex::<i64>::new(100);
        idx.insert_bound(30, 25);
        idx.insert_bound(70, 80);
        idx.insert_bound(50, 60);
        assert_eq!(
            idx.pieces_in_order(),
            vec![(0, 25), (25, 60), (60, 80), (80, 100)]
        );
        assert_eq!(idx.bounds_in_order(), vec![(30, 25), (50, 60), (70, 80)]);
    }

    #[test]
    fn range_walks_rewrite_downstream_positions() {
        let mut idx = CrackerIndex::<i64>::new(100);
        for (k, p) in [(30, 25), (50, 60), (70, 80)] {
            idx.insert_bound(k, p);
        }
        assert_eq!(idx.piece_start(29), 0);
        assert_eq!(idx.piece_start(30), 25, "a boundary key starts its piece");
        assert_eq!(idx.piece_start(69), 60);
        // Ascending from value 30: the bounds above it, each by its delta.
        let mut delta = 0;
        idx.walk_above(30, |_, pos| {
            delta += 1;
            *pos -= delta;
            true
        });
        assert_eq!(idx.bounds_in_order(), vec![(30, 25), (50, 59), (70, 78)]);
        // Descending, stopped after the bound the walk ends on.
        idx.walk_rev(|k, pos| {
            *pos += 2;
            k > 50
        });
        assert_eq!(idx.bounds_in_order(), vec![(30, 25), (50, 61), (70, 80)]);
    }

    #[test]
    fn shift_bounds_key_gt_skips_left_empty_pieces() {
        let mut idx = CrackerIndex::<i64>::new(10);
        // Two bounds sharing position 5 (empty piece between them).
        idx.insert_bound(30, 5);
        idx.insert_bound(40, 5);
        // Inserting value 35 (piece [5,5)) must shift only key 40.
        idx.shift_bounds_key_gt(35, 1);
        assert_eq!(idx.bounds_in_order(), vec![(30, 5), (40, 6)]);
        assert_eq!(idx.len(), 11);
    }

    #[test]
    fn piece_after_walks_the_whole_column() {
        let mut idx = CrackerIndex::<i64>::new(100);
        idx.insert_bound(30, 25);
        idx.insert_bound(70, 80);
        let mut cur = None;
        let mut seen = Vec::new();
        loop {
            let p = idx.piece_after(cur).unwrap();
            seen.push((p.start, p.end, p.hi_key));
            match p.hi_key {
                Some(k) => cur = Some(k),
                None => break,
            }
        }
        assert_eq!(
            seen,
            vec![(0, 25, Some(30)), (25, 80, Some(70)), (80, 100, None)]
        );
        assert!(idx.piece_after(Some(31)).is_none(), "31 is not a boundary");
        // Empty index: one piece spanning everything.
        let empty = CrackerIndex::<i64>::new(7);
        let p = empty.piece_after(None).unwrap();
        assert_eq!((p.start, p.end, p.hi_key), (0, 7, None));
    }

    /// The index driving a real crack sequence: every crack is located,
    /// partitioned and recorded the way a query does it, and after every
    /// crack the cracker-index invariants hold — bound positions are
    /// monotone in key order, every bound partitions the column (`< key`
    /// strictly left of the bound, `>= key` at/right of it), and cracking
    /// never loses or invents values.
    #[test]
    fn cracker_index_invariants_after_random_cracks() {
        use crate::crack::crack_in_two;

        let mut rng = StdRng::seed_from_u64(0xC4AC);
        let base: Vec<i64> = (0..4096).map(|_| rng.random_range(0..10_000)).collect();
        let mut vals = base.clone();
        let mut rows: Vec<u32> = (0..base.len() as u32).collect();
        let mut index = CrackerIndex::new(base.len());

        for _ in 0..200 {
            let pivot = rng.random_range(0..10_000);
            let BoundLookup::Piece { start, end, .. } = index.locate(pivot) else {
                continue;
            };
            let split = crack_in_two(&mut vals[start..end], &mut rows[start..end], pivot);
            index.insert_bound(pivot, start + split);

            // Invariant 1: positions are non-decreasing in key order.
            let bounds = index.bounds_in_order();
            for w in bounds.windows(2) {
                assert!(w[0].0 < w[1].0, "bounds must be key-ordered");
                assert!(
                    w[0].1 <= w[1].1,
                    "positions regressed: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
            // Invariant 2: every bound partitions the whole column.
            for &(k, p) in &bounds {
                assert!(
                    vals[..p].iter().all(|&v| v < k),
                    "values >= {k} left of {p}"
                );
                assert!(
                    vals[p..].iter().all(|&v| v >= k),
                    "values < {k} right of {p}"
                );
            }
            // Invariant 3: rows stay aligned with their original values.
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(vals[i], base[r as usize], "row id misaligned at {i}");
            }
        }
        assert!(
            index.piece_count() > 100,
            "crack sequence barely exercised the index"
        );

        // Multiset preserved end-to-end.
        let mut sorted_in = base;
        let mut sorted_out = vals;
        sorted_in.sort_unstable();
        sorted_out.sort_unstable();
        assert_eq!(sorted_in, sorted_out);
    }

    proptest! {
        #[test]
        /// A random index — distinct keys, non-decreasing positions, about
        /// a third of the pieces empty (several bounds on one position),
        /// inserted in random order — answers every lookup and walk the
        /// way a linear scan of its boundaries does.
        fn prop_lookups_and_walks_agree_with_a_linear_scan(
            steps in proptest::collection::vec((1i64..4, 0usize..3), 0..40),
            first_key in -20i64..20,
            tail in 0usize..3,
            order_seed in any::<u64>(),
            stop in 1usize..45,
        ) {
            let (mut key, mut pos) = (first_key, 0);
            let mut bounds = Vec::with_capacity(steps.len());
            for (dk, dp) in steps {
                key += dk;
                pos += dp;
                bounds.push((key, pos));
            }
            let mut order = bounds.clone();
            let mut rng = StdRng::seed_from_u64(order_seed);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            let mut idx = CrackerIndex::new(pos + tail);
            for (k, p) in order {
                idx.insert_bound(k, p);
            }
            prop_assert_eq!(idx.bounds_in_order(), bounds.clone());
            prop_assert_eq!(idx.piece_count(), bounds.len() + 1);
            assert_agrees_with_scan(&idx, stop);
        }
    }
}
