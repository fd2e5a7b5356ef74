//! The cracker index: AVL-mapped piece boundaries plus per-piece latches.
//!
//! A boundary `(key → pos)` states the cracking invariant: every value at a
//! position `< pos` is `< key`, and every value at a position `>= pos` is
//! `>= key`. The gaps between consecutive boundaries are the *pieces*. The
//! piece starting at boundary `b` owns the latch stored in `b`'s entry; the
//! piece starting at position 0 owns `first_latch`.
//!
//! Boundaries never move once created — cracking only permutes values
//! strictly inside one piece — except under the exclusive Ripple-update
//! path. A batch merge ([`crate::updates::ripple_batch`]) rewrites the
//! positions of exactly the boundaries downstream of its smallest value,
//! each by its own delta, in two range walks: [`CrackerIndex::walk_above`]
//! ascending from a value (the delete pass) and [`CrackerIndex::walk_rev`]
//! descending from the last boundary until the kernel stops it (the insert
//! pass). Both hand out the stored position mutably and allocate nothing.

use crate::avl::Avl;
use crate::latch::PieceLatch;
use holix_storage::types::CrackValue;

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
    bounds: Avl<V, BoundEntry>,
    first_latch: PieceLatch,
    len: usize,
}

impl<V: CrackValue> CrackerIndex<V> {
    /// A fresh index over a column of `len` values: one piece, no bounds.
    pub fn new(len: usize) -> Self {
        CrackerIndex {
            bounds: Avl::new(),
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

    /// Number of boundaries.
    pub fn bound_count(&self) -> usize {
        self.bounds.len()
    }

    /// Average piece size in values — the `N/p` of Equation (1).
    pub fn avg_piece_len(&self) -> usize {
        self.len / self.piece_count()
    }

    /// Locates the piece a bound value falls into (or the exact boundary).
    pub fn locate(&self, v: V) -> BoundLookup<V> {
        if let Some(entry) = self.bounds.get(&v) {
            return BoundLookup::Exact(entry.pos);
        }
        let (start, latch, lo_key) = match self.bounds.pred_strict(&v) {
            Some((k, e)) => (e.pos, e.latch.clone(), Some(k)),
            None => (0, self.first_latch.clone(), None),
        };
        let (end, hi_key) = match self.bounds.succ_strict(&v) {
            Some((k, e)) => (e.pos, Some(k)),
            None => (self.len, None),
        };
        BoundLookup::Piece {
            start,
            end,
            latch,
            lo_key,
            hi_key,
        }
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
        self.bounds.floor(&v).map_or(0, |(_, e)| e.pos)
    }

    /// Visits the boundaries with key `> after` in ascending key order as
    /// `(key, &mut position)` until `f` returns `false` (Ripple batch
    /// merges only; caller holds the column exclusively and leaves the
    /// positions non-decreasing in key order).
    pub fn walk_above(&mut self, after: V, mut f: impl FnMut(V, &mut usize) -> bool) {
        self.bounds.walk_above_mut(&after, |k, e| f(k, &mut e.pos));
    }

    /// [`CrackerIndex::walk_above`] in descending key order from the last
    /// boundary.
    pub fn walk_rev(&mut self, mut f: impl FnMut(V, &mut usize) -> bool) {
        self.bounds.walk_rev_mut(|k, e| f(k, &mut e.pos));
    }

    /// Shifts every boundary whose *key* is strictly greater than `key` by
    /// `delta`, and the tracked length with it — the per-value shift of the
    /// in-place [`crate::updates::ripple_insert`] /
    /// [`crate::updates::ripple_delete`] oracle: inserting a value `v`
    /// moves exactly the pieces to the right of `v`'s piece, i.e. the
    /// boundaries with key `> v` (a positional shift would also catch
    /// same-position boundaries of empty pieces on the left of `v`).
    pub fn shift_bounds_key_gt(&mut self, key: V, delta: isize) {
        self.bounds.for_each_mut(|k, e| {
            if k > key {
                e.pos = e.pos.checked_add_signed(delta).expect("bound underflow");
            }
        });
        self.len = self.len.checked_add_signed(delta).expect("len underflow");
    }

    /// Adjusts only the tracked length (batch helpers that maintain bounds
    /// themselves).
    pub fn set_len(&mut self, len: usize) {
        self.len = len;
    }

    /// In-order boundaries as `(key, pos)` (invariant checks / stats).
    pub fn bounds_in_order(&self) -> Vec<(V, usize)> {
        self.bounds.iter().map(|(k, e)| (k, e.pos)).collect()
    }

    /// In-order pieces as `(start, end)` position ranges.
    pub fn pieces_in_order(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.piece_count());
        let mut prev = 0usize;
        for (_, e) in self.bounds.iter() {
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
        let (start, latch) = match lo_key {
            None => (0, self.first_latch.clone()),
            Some(k) => {
                let e = self.bounds.get(&k)?;
                (e.pos, e.latch.clone())
            }
        };
        let (end, hi_key) = match lo_key {
            None => match self.bounds.min_key() {
                Some(k) => (self.bounds.get(&k).expect("min key present").pos, Some(k)),
                None => (self.len, None),
            },
            Some(k) => match self.bounds.succ_strict(&k) {
                Some((nk, ne)) => (ne.pos, Some(nk)),
                None => (self.len, None),
            },
        };
        Some(PieceRef {
            start,
            end,
            latch,
            hi_key,
        })
    }

    /// Latch of the piece *starting* at `start` (0 = first piece). Used by
    /// verification reads that walk pieces in order.
    pub fn latch_for_piece_start(&self, start: usize) -> Option<PieceLatch> {
        if start == 0 {
            return Some(self.first_latch.clone());
        }
        // Any boundary whose pos equals `start` owns that piece's latch; with
        // empty pieces several bounds share a pos, in which case the *last*
        // one in key order starts the non-empty piece, but all of them must
        // be latched by a range reader anyway, so returning one is enough
        // only for non-empty pieces. Walk via iteration (cold path).
        self.bounds
            .iter()
            .find(|(_, e)| e.pos == start)
            .map(|(_, e)| e.latch.clone())
    }

    /// Memory used by the index structure itself (rough, for budgeting).
    pub fn approx_bytes(&self) -> usize {
        self.bounds.len() * (std::mem::size_of::<V>() + std::mem::size_of::<BoundEntry>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn latch_for_piece_start_finds_latches() {
        let mut idx = CrackerIndex::<i64>::new(100);
        idx.insert_bound(30, 25);
        assert!(idx.latch_for_piece_start(0).is_some());
        assert!(idx.latch_for_piece_start(25).is_some());
        assert!(idx.latch_for_piece_start(26).is_none());
    }
}
