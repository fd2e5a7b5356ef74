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
//!
//! The index of a column a snapshot read has asked something also carries
//! prefix sums: each boundary entry the sum of the values below its key
//! (at positions `< pos`), and the index the sum of them all; a piece's
//! sum is the difference of its two ends', its count the difference of
//! their positions. [`CrackerIndex::sum_pieces`] computes them once, at
//! the column's first snapshot read. From then on a boundary insert adds its piece's lower
//! side to the prefix of the piece's start, and the two merge walks hand
//! out each boundary's prefix beside its position — exactly the
//! boundaries whose prefix a merge changes. [`CrackerIndex::interior`]
//! answers the pieces wholly inside a range from the two ends of that run
//! of pieces, in four lookups whatever the run's length.

use crate::latch::PieceLatch;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// Sum of `vals`, widened: what a piece's sum is.
pub(crate) fn sum_of(vals: &[i64]) -> i128 {
    vals.iter().map(|&v| v as i128).sum()
}

/// What [`CrackerIndex::interior`] answers: the count and sum of the pieces
/// wholly inside a range, and the at most two pieces that straddle one of
/// its bounds.
#[derive(Debug, Clone)]
pub struct Interior {
    /// Values in the pieces wholly inside the range.
    pub count: u64,
    /// Their sum.
    pub sum: i128,
    /// The straddling pieces in key order, each with its lower key (`None`
    /// = the column's first piece).
    pub edges: [Option<(Option<i64>, PieceRef)>; 2],
}

/// Value part of a boundary entry.
#[derive(Debug, Clone)]
pub struct BoundEntry {
    /// First position of the piece that starts at this boundary.
    pub pos: usize,
    /// Latch of the piece starting here.
    pub latch: PieceLatch,
    /// Sum of the values below this boundary, at positions `< pos` (0
    /// until [`CrackerIndex::sum_pieces`]).
    pub below: i128,
}

/// One edge piece of [`CrackerIndex::interior`], with its own handle on the
/// piece's latch (a snapshot read latches it after the index read goes).
#[derive(Debug, Clone)]
pub struct PieceRef {
    /// First position of the piece.
    pub start: usize,
    /// One past the last position.
    pub end: usize,
    /// The piece's latch.
    pub latch: PieceLatch,
    /// Upper boundary key (`None` = last piece).
    pub hi_key: Option<i64>,
}

/// Result of locating a bound value in the index, borrowed from it: a
/// lookup takes no reference on the piece latch (a crack clones it before
/// it lets go of the index).
#[derive(Debug, Clone, Copy)]
pub enum BoundLookup<'a> {
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
        latch: &'a PieceLatch,
        /// Boundary key on the left (`None` = column minimum side): every
        /// value in the piece is `>= lo_key`.
        lo_key: Option<i64>,
        /// Boundary key on the right (`None` = column maximum side): every
        /// value in the piece is `< hi_key`.
        hi_key: Option<i64>,
    },
}

/// Piece bookkeeping for one cracker column.
///
/// `Clone` duplicates the bookkeeping but *shares* the piece latches (they
/// are `Arc`-backed); benchmark setups use this to re-run destructive
/// operations from one prepared state.
#[derive(Debug, Clone)]
pub struct CrackerIndex {
    bounds: BTreeMap<i64, BoundEntry>,
    first_latch: PieceLatch,
    /// Sum of every value (kept once summed).
    total: i128,
    /// The prefix sums are kept ([`CrackerIndex::sum_pieces`] ran).
    summed: bool,
    len: usize,
}

impl CrackerIndex {
    /// A fresh index over a column of `len` values: one piece, no bounds.
    pub fn new(len: usize) -> Self {
        CrackerIndex {
            bounds: BTreeMap::new(),
            first_latch: PieceLatch::new(),
            total: 0,
            summed: false,
            len,
        }
    }

    /// Does the index keep prefix sums?
    pub fn summed(&self) -> bool {
        self.summed
    }

    /// Computes every boundary's prefix sum and the total from `vals`, the
    /// column the index describes, in one pass, and keeps them from now on.
    pub fn sum_pieces(&mut self, vals: &[i64]) {
        debug_assert_eq!(vals.len(), self.len);
        let (mut start, mut below) = (0, 0);
        for e in self.bounds.values_mut() {
            below += sum_of(&vals[start..e.pos]);
            e.below = below;
            start = e.pos;
        }
        self.total = below + sum_of(&vals[start..]);
        self.summed = true;
    }

    /// Every piece's sum in key order; `None` unless the index keeps them.
    pub fn piece_sums(&self) -> Option<Vec<i128>> {
        self.summed.then(|| {
            let ends = self.bounds.values().map(|e| e.below).chain([self.total]);
            let mut start = 0;
            ends.map(|end| end - std::mem::replace(&mut start, end))
                .collect()
        })
    }

    /// Adds `delta` to the sum of every value (a Ripple batch's net
    /// change; its walks keep the boundaries' prefixes).
    pub fn add_to_total(&mut self, delta: i128) {
        self.total += delta;
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
    pub fn locate(&self, v: i64) -> BoundLookup<'_> {
        let (start, latch, lo_key) = match self.bounds.range(..=v).next_back() {
            Some((&k, e)) if k == v => return BoundLookup::Exact(e.pos),
            Some((&k, e)) => (e.pos, &e.latch, Some(k)),
            None => (0, &self.first_latch, None),
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

    /// Position of the boundary `v`, `None` when `v` is not one — the
    /// `Exact` case of [`CrackerIndex::locate`] without the piece lookup.
    pub fn exact(&self, v: i64) -> Option<usize> {
        self.bounds.get(&v).map(|e| e.pos)
    }

    /// End position and upper key of the piece that `next` (the boundary
    /// after it, `None` = none) closes.
    fn piece_end(&self, next: Option<(&i64, &BoundEntry)>) -> (usize, Option<i64>) {
        next.map_or((self.len, None), |(&k, e)| (e.pos, Some(k)))
    }

    /// Records a new boundary `key → pos` after a crack. The latch for the
    /// new right piece (starting at `pos`) is created here; the left piece
    /// keeps the latch of the piece that was split. `below` is the sum of
    /// the split piece's values below `key`: the new boundary's prefix is
    /// the piece start's plus it (an index that keeps no sums skips this,
    /// and its cracks pass 0).
    ///
    /// Panics if the key already exists (callers re-validate under the piece
    /// latch before cracking, so a duplicate insert is a protocol bug).
    pub fn insert_bound(&mut self, key: i64, pos: usize, below: i128) {
        debug_assert!(pos <= self.len);
        debug_assert!(self.summed || below == 0, "a sum on an index without");
        let below = if self.summed {
            below
                + self
                    .bounds
                    .range(..key)
                    .next_back()
                    .map_or(0, |(_, e)| e.below)
        } else {
            0
        };
        let prev = self.bounds.insert(
            key,
            BoundEntry {
                pos,
                latch: PieceLatch::new(),
                below,
            },
        );
        assert!(prev.is_none(), "duplicate boundary inserted");
    }

    /// The pieces of `[lo, hi)` (sentinel-aware, as
    /// [`holix_storage::select::Predicate::matches_unbounded`]; not empty):
    /// the count and sum of those wholly inside it, from the prefix sums
    /// at the two ends of their run, and those that straddle a bound, for
    /// the caller to filter. Four lookups, however many pieces the range
    /// holds. Only on an index that keeps sums.
    pub fn interior(&self, lo: i64, hi: i64) -> Interior {
        debug_assert!(self.summed && lo < hi);
        let inside_lo = |from: Option<i64>| lo == i64::MIN || from == Some(lo);
        let inside_hi = |to: Option<i64>| hi == i64::MAX || to == Some(hi);
        // The piece holding `lo`, then the boundaries after it below `hi`:
        // each starts a piece, and every such piece but the last ends below
        // `hi`, so only the first piece and the last can straddle a bound.
        let floor = (lo != i64::MIN)
            .then(|| self.bounds.range(..=lo).next_back())
            .flatten();
        let (from, head) = match floor {
            Some((&k, e)) => (Some(k), (e.pos, e.below, &e.latch)),
            None => (None, (0, 0, &self.first_latch)),
        };
        let first = match from {
            Some(k) => self.bounds.range((Excluded(k), Unbounded)).next(),
            None => self.bounds.iter().next(),
        };
        let (last, beyond) = if hi == i64::MAX {
            (self.bounds.iter().next_back(), None)
        } else {
            (
                self.bounds.range(..hi).next_back(),
                self.bounds.range(hi..).next(),
            )
        };
        let (end, end_below, hi_key) = beyond.map_or((self.len, self.total, None), |(&k, e)| {
            (e.pos, e.below, Some(k))
        });
        let mut out = Interior {
            count: 0,
            sum: 0,
            edges: [None, None],
        };
        let piece = |out: &mut Interior,
                     inside: bool,
                     from: Option<i64>,
                     (start, below, latch): (usize, i128, &PieceLatch),
                     (end, end_below): (usize, i128),
                     hi_key: Option<i64>| {
            if inside {
                out.count += (end - start) as u64;
                out.sum += end_below - below;
            } else {
                let edge = PieceRef {
                    start,
                    end,
                    latch: latch.clone(),
                    hi_key,
                };
                out.edges[usize::from(out.edges[0].is_some())] = Some((from, edge));
            }
        };
        match (first, last) {
            // A run of boundaries strictly between `from` and `hi`.
            (Some((&first_key, first)), Some((&last_key, last)))
                if from.is_none_or(|k| last_key > k) =>
            {
                piece(
                    &mut out,
                    inside_lo(from),
                    from,
                    head,
                    (first.pos, first.below),
                    Some(first_key),
                );
                out.count += (last.pos - first.pos) as u64;
                out.sum += last.below - first.below;
                piece(
                    &mut out,
                    inside_hi(hi_key),
                    Some(last_key),
                    (last.pos, last.below, &last.latch),
                    (end, end_below),
                    hi_key,
                );
            }
            _ => {
                let inside = inside_lo(from) && inside_hi(hi_key);
                piece(&mut out, inside, from, head, (end, end_below), hi_key);
            }
        }
        out
    }

    /// First position of the piece that holds value `v`: the position of
    /// the greatest boundary with key `<= v`, or 0.
    pub fn piece_start(&self, v: i64) -> usize {
        self.bounds
            .range(..=v)
            .next_back()
            .map_or(0, |(_, e)| e.pos)
    }

    /// Visits the boundaries with key `> after` in ascending key order as
    /// `Some((key, &mut position, &mut prefix))`, the prefix being the sum
    /// of the values below the key, until `f` returns `false`; then,
    /// unless it did, once more as `None` for the last piece (Ripple batch
    /// merges only; caller holds the column exclusively and leaves the
    /// positions non-decreasing in key order).
    pub fn walk_above(
        &mut self,
        after: i64,
        mut f: impl FnMut(Option<(i64, &mut usize, &mut i128)>) -> bool,
    ) {
        for (&k, e) in self.bounds.range_mut((Excluded(after), Unbounded)) {
            if !f(Some((k, &mut e.pos, &mut e.below))) {
                return;
            }
        }
        f(None);
    }

    /// [`CrackerIndex::walk_above`] in descending key order from the last
    /// boundary; unless `f` stopped it, the walk ends with `None` for the
    /// first piece.
    pub fn walk_rev(&mut self, mut f: impl FnMut(Option<(i64, &mut usize, &mut i128)>) -> bool) {
        for (&k, e) in self.bounds.iter_mut().rev() {
            if !f(Some((k, &mut e.pos, &mut e.below))) {
                return;
            }
        }
        f(None);
    }

    /// Shifts every boundary whose *key* is strictly greater than `key` by
    /// `delta`, and the tracked length with it — the per-value shift of the
    /// in-place [`crate::updates::ripple_insert`] /
    /// [`crate::updates::ripple_delete`] oracle: inserting a value `v`
    /// moves exactly the pieces to the right of `v`'s piece, i.e. the
    /// boundaries with key `> v` (a positional shift would also catch
    /// same-position boundaries of empty pieces on the left of `v`).
    pub fn shift_bounds_key_gt(&mut self, key: i64, delta: isize) {
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
    pub fn bounds_in_order(&self) -> Vec<(i64, usize)> {
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

    /// The piece that *starts* at boundary `lo_key` (`None` = position 0),
    /// as a [`BoundLookup::Piece`]. The live-piece walk goes over a value
    /// range piece by piece through this — re-looking the chain up by key
    /// per step, so pieces split by concurrent cracks are picked up at
    /// their current extent (boundaries are never removed, so a key that
    /// once started a piece always does). Returns `None` only when
    /// `lo_key` is not a boundary at all.
    pub fn piece_after(&self, lo_key: Option<i64>) -> Option<BoundLookup<'_>> {
        let (start, latch, mut above) = match lo_key {
            None => (0, &self.first_latch, self.bounds.range(..)),
            Some(k) => {
                let mut from = self.bounds.range(k..);
                let (_, e) = from.next().filter(|&(&at, _)| at == k)?;
                (e.pos, &e.latch, from)
            }
        };
        let (end, hi_key) = self.piece_end(above.next());
        Some(BoundLookup::Piece {
            start,
            end,
            latch,
            lo_key,
            hi_key,
        })
    }

    /// Memory used by the index structure itself (rough, for budgeting):
    /// each entry, its prefix sum included, and per-entry map overhead.
    pub fn approx_bytes(&self) -> usize {
        self.bounds.len() * (std::mem::size_of::<i64>() + std::mem::size_of::<BoundEntry>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    /// Runs `walk_above(after)` (or `walk_rev` for `None`) on a clone of
    /// `idx`, stopping after `stop` visits and bumping every position and
    /// every prefix sum it hands out; checks that exactly the visited
    /// boundaries moved, and returns their keys, in order.
    fn walked(idx: &CrackerIndex, after: Option<i64>, stop: usize) -> Vec<i64> {
        let mut copy = idx.clone();
        copy.sum_pieces(&vec![0; idx.len()]);
        let mut seen = Vec::new();
        let visit = |bound: Option<(i64, &mut usize, &mut i128)>| {
            let Some((k, pos, below)) = bound else {
                return false;
            };
            seen.push(k);
            *pos += 1;
            *below += 1;
            seen.len() < stop
        };
        match after {
            Some(v) => copy.walk_above(v, visit),
            None => copy.walk_rev(visit),
        }
        let bounds = idx.bounds_in_order();
        let bumped: Vec<(i64, usize)> = bounds
            .iter()
            .map(|&(k, pos)| (k, pos + usize::from(seen.contains(&k))))
            .collect();
        assert_eq!(
            copy.bounds_in_order(),
            bumped,
            "a walk moved what it did not visit"
        );
        let prefixes: Vec<i128> = copy.bounds.values().map(|e| e.below).collect();
        let want: Vec<i128> = bounds
            .iter()
            .map(|&(k, _)| i128::from(seen.contains(&k)))
            .collect();
        assert_eq!(prefixes, want, "a walk handed out the wrong prefix");
        seen
    }

    /// A piece's start, end and upper key.
    type Extent = (usize, usize, Option<i64>);

    /// The extent of a piece lookup, `None` for none (or an exact hit).
    fn extent(found: Option<BoundLookup<'_>>) -> Option<Extent> {
        owner(found).map(|(extent, _)| extent)
    }

    /// [`extent`] with the piece's latch.
    fn owner(found: Option<BoundLookup<'_>>) -> Option<(Extent, &PieceLatch)> {
        match found? {
            BoundLookup::Piece {
                start,
                end,
                hi_key,
                latch,
                ..
            } => Some(((start, end, hi_key), latch)),
            BoundLookup::Exact(_) => None,
        }
    }

    /// Checks every lookup and walk of `idx` against a linear scan of
    /// `bounds_in_order()`, for probes below, on, between and above the
    /// keys; the walks are told to stop after `stop` visits.
    fn assert_agrees_with_scan(idx: &CrackerIndex, stop: usize) {
        let bounds = idx.bounds_in_order();
        let len = idx.len();
        let key_at = |i: usize| bounds.get(i).map(|&(k, _)| k);
        let end_at = |i: usize| bounds.get(i).map_or(len, |&(_, pos)| pos);
        assert_eq!(
            extent(idx.piece_after(None)),
            Some((0, end_at(0), key_at(0)))
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
                    let (_, owns) = owner(idx.piece_after(lo_key)).expect("lo_key is a boundary");
                    assert!(
                        latch.same_as(owns),
                        "locate({p}) handed out another piece's latch"
                    );
                }
            }
            match extent(idx.piece_after(Some(p))) {
                Some(r) => {
                    assert!(on, "piece_after({p}) on a non-boundary");
                    assert_eq!(r, (start, end_at(i), key_at(i)));
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
        let idx = CrackerIndex::new(100);
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
        let mut idx = CrackerIndex::new(100);
        idx.insert_bound(50, 42, 0);
        match idx.locate(50) {
            BoundLookup::Exact(pos) => assert_eq!(pos, 42),
            _ => panic!("expected exact"),
        }
        assert_eq!(idx.piece_count(), 2);
    }

    #[test]
    fn locate_between_bounds() {
        let mut idx = CrackerIndex::new(100);
        idx.insert_bound(30, 25, 0);
        idx.insert_bound(70, 80, 0);
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
        let mut idx = CrackerIndex::new(100);
        let left_latch = match idx.locate(50) {
            BoundLookup::Piece { latch, .. } => latch.clone(),
            _ => panic!(),
        };
        idx.insert_bound(50, 40, 0);
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
        let mut idx = CrackerIndex::new(10);
        idx.insert_bound(5, 3, 0);
        idx.insert_bound(5, 3, 0);
    }

    #[test]
    fn pieces_in_order_covers_column() {
        let mut idx = CrackerIndex::new(100);
        idx.insert_bound(30, 25, 0);
        idx.insert_bound(70, 80, 0);
        idx.insert_bound(50, 60, 0);
        assert_eq!(
            idx.pieces_in_order(),
            vec![(0, 25), (25, 60), (60, 80), (80, 100)]
        );
        assert_eq!(idx.bounds_in_order(), vec![(30, 25), (50, 60), (70, 80)]);
    }

    #[test]
    fn range_walks_rewrite_downstream_positions() {
        let mut idx = CrackerIndex::new(100);
        for (k, p) in [(30, 25), (50, 60), (70, 80)] {
            idx.insert_bound(k, p, 0);
        }
        assert_eq!(idx.piece_start(29), 0);
        assert_eq!(idx.piece_start(30), 25, "a boundary key starts its piece");
        assert_eq!(idx.piece_start(69), 60);
        // Ascending from value 30: the bounds above it, each by its delta.
        let mut delta = 0;
        idx.walk_above(30, |bound| {
            let Some((_, pos, _)) = bound else {
                return false;
            };
            delta += 1;
            *pos -= delta;
            true
        });
        assert_eq!(idx.bounds_in_order(), vec![(30, 25), (50, 59), (70, 78)]);
        // Descending, stopped after the bound the walk ends on.
        idx.walk_rev(|bound| {
            let Some((k, pos, _)) = bound else {
                return false;
            };
            *pos += 2;
            k > 50
        });
        assert_eq!(idx.bounds_in_order(), vec![(30, 25), (50, 61), (70, 80)]);
    }

    #[test]
    fn shift_bounds_key_gt_skips_left_empty_pieces() {
        let mut idx = CrackerIndex::new(10);
        // Two bounds sharing position 5 (empty piece between them).
        idx.insert_bound(30, 5, 0);
        idx.insert_bound(40, 5, 0);
        // Inserting value 35 (piece [5,5)) must shift only key 40.
        idx.shift_bounds_key_gt(35, 1);
        assert_eq!(idx.bounds_in_order(), vec![(30, 5), (40, 6)]);
        assert_eq!(idx.len(), 11);
    }

    #[test]
    fn piece_after_walks_the_whole_column() {
        let mut idx = CrackerIndex::new(100);
        idx.insert_bound(30, 25, 0);
        idx.insert_bound(70, 80, 0);
        let mut cur = None;
        let mut seen = Vec::new();
        while let Some((start, end, hi_key)) = extent(idx.piece_after(cur)) {
            seen.push((start, end, hi_key));
            match hi_key {
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
        let empty = CrackerIndex::new(7);
        assert_eq!(extent(empty.piece_after(None)), Some((0, 7, None)));
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
        index.sum_pieces(&vals);

        for _ in 0..200 {
            let pivot = rng.random_range(0..10_000);
            let BoundLookup::Piece { start, end, .. } = index.locate(pivot) else {
                continue;
            };
            let split = crack_in_two(&mut vals[start..end], &mut rows[start..end], pivot);
            let below = sum_of(&vals[start..start + split]);
            index.insert_bound(pivot, start + split, below);

            // Invariant 0: every piece's sum is its values'.
            let sums: Vec<i128> = index
                .pieces_in_order()
                .into_iter()
                .map(|(s, e)| sum_of(&vals[s..e]))
                .collect();
            assert_eq!(
                index.piece_sums(),
                Some(sums),
                "a crack split a sum wrongly"
            );

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

        // The pieces wholly inside a range plus its filtered edges are the
        // range, sentinels and boundary keys included.
        let keys: Vec<i64> = index.bounds_in_order().iter().map(|b| b.0).collect();
        for _ in 0..500 {
            let mut bound = |sentinel: i64| match rng.random_range(0..5) {
                0 => sentinel,
                1 => keys[rng.random_range(0..keys.len())],
                _ => rng.random_range(-10..10_010),
            };
            let (a, b) = (bound(i64::MIN), bound(i64::MAX));
            let (lo, hi) = (a.min(b), a.max(b));
            if lo >= hi {
                continue;
            }
            let inside = |v: i64| (lo == i64::MIN || v >= lo) && (hi == i64::MAX || v < hi);
            let got = index.interior(lo, hi);
            let (mut count, mut sum) = (got.count, got.sum);
            for (from, piece) in got.edges.into_iter().flatten() {
                let straddles_lo = lo != i64::MIN && from.is_none_or(|k| k < lo);
                let straddles_hi = hi != i64::MAX && piece.hi_key.is_none_or(|k| k > hi);
                assert!(straddles_lo || straddles_hi, "an inside piece filtered");
                let (extent, latch) = owner(index.piece_after(from)).expect("a boundary");
                assert!(latch.same_as(&piece.latch), "another piece's latch");
                assert_eq!(extent, (piece.start, piece.end, piece.hi_key));
                for &v in vals[piece.start..piece.end].iter().filter(|&&v| inside(v)) {
                    count += 1;
                    sum += v as i128;
                }
            }
            let want: Vec<i64> = vals.iter().copied().filter(|&v| inside(v)).collect();
            assert_eq!(
                (count, sum),
                (want.len() as u64, sum_of(&want)),
                "interior({lo}, {hi})"
            );
        }

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
                idx.insert_bound(k, p, 0);
            }
            prop_assert_eq!(idx.bounds_in_order(), bounds.clone());
            prop_assert_eq!(idx.piece_count(), bounds.len() + 1);
            assert_agrees_with_scan(&idx, stop);
        }
    }
}
