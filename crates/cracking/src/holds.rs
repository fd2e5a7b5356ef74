//! A cracker column's two lock modes and its latched pieces, as types: the
//! one place the cracking layer calls [`RangeCell`]'s `unsafe` methods.
//!
//! [`Structure`] is the structure lock with what it guards: the cracker
//! index and the value and row-id cells. An [`Exclusive`] hold reads the
//! whole cells and rewrites their vectors; under a [`Shared`] one they stay
//! put and a piece is reached only as a [`Piece`], write-latched to crack
//! it or read-latched to read it. A piece is made right after the index
//! lookup that showed its extent, under the latch that pins it: pieces are
//! disjoint and cover `[0, len)` (the boundary table's invariant, checked
//! by the index's property tests), and only a crack under the write latch
//! changes an extent. Piece and latch handle live in the frame of the
//! routine that took them, which hands the piece to a closure.

use crate::index::{BoundLookup, CrackerIndex};
use crate::latch::{PieceLatch, PieceReadGuard, PieceWriteGuard};
use crate::range_cell::{RangeCell, RangeGuard};
use holix_storage::types::RowId;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicBool, Ordering::Acquire, Ordering::Release};

/// A column's structure lock, its cracker index and its two cells.
pub(crate) struct Structure {
    lock: RwLock<()>,
    pub(crate) index: RwLock<CrackerIndex>,
    vals: RangeCell<i64>,
    /// Row ids beside `vals`, slot for slot; empty until `has_rows`.
    rows: RangeCell<RowId>,
    /// Set at most once, by [`Exclusive::build_rows`], never cleared.
    has_rows: AtomicBool,
}

impl Structure {
    /// The structure over `vals` and `index`, with `rows` or none yet.
    pub(crate) fn new(vals: Vec<i64>, rows: Option<Vec<RowId>>, index: CrackerIndex) -> Self {
        Structure {
            lock: RwLock::new(()),
            index: RwLock::new(index),
            vals: RangeCell::new(vals),
            has_rows: AtomicBool::new(rows.is_some()),
            // A column without row ids still makes a one-slot allocation
            // for them, from the thread that builds it: glibc grows a block
            // in the arena it was first allocated in, so the array
            // `build_rows` grows this into comes out of that thread's arena
            // — where an eagerly built one came from — not out of the arena
            // of whichever thread first asks for ids. Same bytes either
            // way, but the merging threads' arenas hold no freed pages to
            // reuse: `update_churn/rss_peak_mb` read 92 MB with an empty
            // vector here, 81 MB with this (79 with ids built eagerly).
            rows: RangeCell::new(rows.unwrap_or_else(|| Vec::with_capacity(1))),
        }
    }

    /// Does the column store a row id per value?
    pub(crate) fn has_rows(&self) -> bool {
        // Pairs with the `Release` store of `build_rows`.
        self.has_rows.load(Acquire)
    }

    /// Blocking shared hold.
    pub(crate) fn read(&self) -> Shared<'_> {
        Shared(self, self.lock.read())
    }

    /// Shared hold when the lock is free (no writer holds or waits).
    pub(crate) fn try_read(&self) -> Option<Shared<'_>> {
        Some(Shared(self, self.lock.try_read()?))
    }

    /// Blocking exclusive hold.
    pub(crate) fn write(&self) -> Exclusive<'_> {
        Exclusive(self, self.lock.write())
    }

    /// Exclusive hold when the lock is free, never queueing as a writer.
    pub(crate) fn try_write(&self) -> Option<Exclusive<'_>> {
        Some(Exclusive(self, self.lock.try_write()?))
    }
}

/// The structure lock held exclusively: no piece is latched, no other hold
/// is live.
pub(crate) struct Exclusive<'c>(&'c Structure, #[allow(dead_code)] RwLockWriteGuard<'c, ()>);

impl Exclusive<'_> {
    /// Every value, in cracked order.
    pub(crate) fn vals(&self) -> &[i64] {
        self.cells().0
    }

    /// Every row id, slot for slot with the values (empty while none).
    pub(crate) fn rows(&self) -> &[RowId] {
        self.cells().1
    }

    fn cells(&self) -> (&[i64], &[RowId]) {
        let Structure { vals, rows, .. } = self.0;
        // SAFETY: the lock is held exclusively, so no piece is latched, and
        // `with_vecs_mut` takes `&mut self`, which these borrows exclude.
        unsafe {
            (
                vals.read_range(0, vals.len()),
                rows.read_range(0, rows.len()),
            )
        }
    }

    /// `f` of both vectors, which it may grow, shrink or rewrite.
    pub(crate) fn with_vecs_mut<R>(
        &mut self,
        f: impl FnOnce(&mut Vec<i64>, &mut Vec<RowId>) -> R,
    ) -> R {
        let Structure { vals, rows, .. } = self.0;
        // SAFETY: the lock is held exclusively and `&mut self` excludes the
        // slices this hold handed out, so no range guard and no reader is
        // live (`with_vec_mut`'s debug assert checks the first:
        // `vec_mut_with_live_guard_detected`).
        unsafe { vals.with_vec_mut(|vals| rows.with_vec_mut(|rows| f(vals, rows))) }
    }

    /// [`Exclusive::with_vecs_mut`] that fills the row ids.
    pub(crate) fn build_rows(&mut self, f: impl FnOnce(&mut Vec<i64>, &mut Vec<RowId>)) {
        self.with_vecs_mut(f);
        self.0.has_rows.store(true, Release);
    }
}

/// The structure lock held shared: the vectors stay put, and cracks run
/// beside each other on disjoint pieces.
pub(crate) struct Shared<'c>(&'c Structure, #[allow(dead_code)] RwLockReadGuard<'c, ()>);

/// What a piece lookup came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Latched<R> {
    /// The key is a boundary, at this position: nothing was latched.
    Exact(usize),
    /// Only trying, and the piece was latched elsewhere.
    Busy,
    /// The closure's answer over the latched piece.
    Piece(R),
}

/// How a piece is latched: [`Read`] or [`Write`].
pub(crate) trait Mode {
    type Guard<'l>;
    /// The guard of `latch`, waiting for it or only trying.
    fn latch(latch: &PieceLatch, wait: bool) -> Option<Self::Guard<'_>>;
}

/// Latched shared, to read the piece.
pub(crate) enum Read {}

/// Latched exclusively, to crack the piece.
pub(crate) enum Write {}

impl Mode for Read {
    type Guard<'l> = PieceReadGuard<'l>;
    fn latch(latch: &PieceLatch, wait: bool) -> Option<PieceReadGuard<'_>> {
        wait.then(|| latch.lock_read())
            .or_else(|| latch.try_lock_read())
    }
}

impl Mode for Write {
    type Guard<'l> = PieceWriteGuard<'l>;
    fn latch(latch: &PieceLatch, wait: bool) -> Option<PieceWriteGuard<'_>> {
        wait.then(|| latch.lock_write())
            .or_else(|| latch.try_lock_write())
    }
}

/// One piece `[start, end)` under its latch, within a shared hold.
pub(crate) struct Piece<'a, M: Mode> {
    structure: &'a Structure,
    start: usize,
    end: usize,
    hi_key: Option<i64>,
    summed: bool,
    _latch: M::Guard<'a>,
}

/// A piece's start, end and upper key (`None` = the last piece).
type Extent = (usize, usize, Option<i64>);

impl<'a, M: Mode> Piece<'a, M> {
    /// # Safety
    /// `structure` is held shared for `'a`, and `latch` guards the piece
    /// the index showed at `extent` when (or after) it was taken: pieces
    /// are disjoint and cover `[0, len)`, and only a crack under the
    /// piece's write latch changes its extent.
    unsafe fn new(
        structure: &'a Structure,
        (start, end, hi_key): Extent,
        summed: bool,
        _latch: M::Guard<'a>,
    ) -> Self {
        Piece {
            structure,
            start,
            end,
            hi_key,
            summed,
            _latch,
        }
    }

    /// First position of the piece.
    pub(crate) fn start(&self) -> usize {
        self.start
    }

    /// Values in the piece.
    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }

    /// Is `key`, above the piece's lower key, below its upper one?
    pub(crate) fn holds_above(&self, key: i64) -> bool {
        self.hi_key.is_none_or(|k| key < k)
    }

    /// Did the index keep prefix sums when the piece was latched (only an
    /// exclusive hold switches them on)?
    pub(crate) fn summed(&self) -> bool {
        self.summed
    }
}

impl Piece<'_, Read> {
    /// The piece's values.
    pub(crate) fn vals(&self) -> &[i64] {
        // SAFETY: `Piece::new`'s contract; the read latch excludes every
        // crack of the piece (`point_filter_build_races_cracks_on_the_same_shard`,
        // `tests/snapshot_consistency.rs`, both under ASan in CI).
        unsafe { self.structure.vals.read_range(self.start, self.end) }
    }
}

impl Piece<'_, Write> {
    /// `f` of the piece's values and, when the column has them, its row
    /// ids, for a crack to move. Both are released when `f` returns, so the
    /// crack publishes its boundary after: the new right piece's latch is
    /// fresh and may be taken at once.
    pub(crate) fn lanes<R>(&mut self, f: impl FnOnce(&mut [i64], Option<&mut [RowId]>) -> R) -> R {
        let (Structure { vals, rows, .. }, start, end) = (self.structure, self.start, self.end);
        // SAFETY: `Piece::new`'s contract; the write latch makes the range
        // ours alone, and `&mut self` lets one pair of guards live at a
        // time. `range_mut`'s debug overlap assert and `check_invariants`'
        // value/row-id alignment back it in
        // `concurrent_queries_and_refiners_preserve_invariants`.
        let (mut vals, mut rows) = unsafe {
            let rows = self
                .structure
                .has_rows()
                .then(|| rows.range_mut(start, end));
            (vals.range_mut(start, end), rows)
        };
        f(vals.slice(), rows.as_mut().map(RangeGuard::slice))
    }
}

impl Shared<'_> {
    /// The one lookup → latch → revalidate routine: `f` of the piece that
    /// `find` shows in the index, latched (`wait`ing for it, or only
    /// trying) and looked up again under the latch — if it split while this
    /// waited, the piece that holds the lookup now is latched instead. An
    /// exact lookup latches nothing.
    fn latch<M: Mode, R>(
        &self,
        wait: bool,
        find: impl Fn(&CrackerIndex) -> BoundLookup<'_>,
        f: impl FnOnce(Piece<'_, M>) -> R,
    ) -> Latched<R> {
        loop {
            let latch = match find(&self.0.index.read()) {
                BoundLookup::Exact(pos) => return Latched::Exact(pos),
                BoundLookup::Piece { latch, .. } => latch.clone(),
            };
            let Some(guard) = M::latch(&latch, wait) else {
                return Latched::Busy;
            };
            let idx = self.0.index.read();
            let extent = match find(&idx) {
                BoundLookup::Exact(pos) => return Latched::Exact(pos),
                BoundLookup::Piece {
                    start,
                    end,
                    latch: now,
                    hi_key,
                    ..
                } if now.same_as(&latch) => (start, end, hi_key),
                BoundLookup::Piece { .. } => continue,
            };
            let summed = idx.summed();
            drop(idx);
            // SAFETY: this hold is live for the call, and `guard` latches
            // the piece the index showed at `extent` after it was taken.
            return Latched::Piece(f(unsafe { Piece::new(self.0, extent, summed, guard) }));
        }
    }

    /// `f` of the piece that holds `key`, write-latched to crack it.
    pub(crate) fn crack<R>(
        &self,
        key: i64,
        wait: bool,
        f: impl FnOnce(Piece<'_, Write>) -> R,
    ) -> Latched<R> {
        self.latch(wait, |idx| idx.locate(key), f)
    }

    /// Hands `visit` the values of every piece from the one starting at
    /// boundary `a` to the one ending at boundary `b` (`None` = column
    /// edge), in key order, each under its read latch, one at a time. Each
    /// key range is visited once, so the walk sees every merged value
    /// exactly once however cracks split pieces around it.
    pub(crate) fn for_each_piece(
        &self,
        a: Option<i64>,
        b: Option<i64>,
        mut visit: impl FnMut(&[i64]),
    ) {
        let mut cur = a;
        loop {
            let read = |p: Piece<'_, Read>| {
                visit(p.vals());
                p.hi_key
            };
            let found = self.latch(
                true,
                |idx| idx.piece_after(cur).expect("a live boundary"),
                read,
            );
            let Latched::Piece(hi_key) = found else {
                unreachable!("a waiting walk latches every piece")
            };
            match (hi_key, b) {
                (None, _) => break,
                (Some(k), Some(bk)) if k >= bk => break,
                (key, _) => cur = key,
            }
        }
    }

    /// Count and sum of the pieces wholly inside `[lo, hi)` of a summed
    /// index ([`CrackerIndex::interior`]), with `visit` over the values of
    /// its at most two edge pieces: each read-latched under the index read
    /// that found it, or, when a crack holds it, walked afterwards over its
    /// key span ([`Shared::for_each_piece`]; the crack may split it) once
    /// no latch is held.
    pub(crate) fn scan_interior(
        &self,
        lo: i64,
        hi: i64,
        mut visit: impl FnMut(&[i64]),
    ) -> (u64, i128) {
        let idx = self.0.index.read();
        let interior = idx.interior(lo, hi);
        let latched = interior
            .edges
            .each_ref()
            .map(|edge| edge.as_ref().and_then(|(_, p)| p.latch.try_lock_read()));
        drop(idx);
        let mut busy = [None, None];
        for ((edge, read), busy) in interior.edges.iter().zip(latched).zip(&mut busy) {
            let Some((from, p)) = edge else { continue };
            match read {
                // SAFETY: this hold is live for the call, and `guard` was
                // taken under the index read that showed the edge's extent.
                Some(guard) => visit(
                    unsafe { Piece::<Read>::new(self.0, (p.start, p.end, p.hi_key), true, guard) }
                        .vals(),
                ),
                None => *busy = Some((*from, p.hi_key)),
            }
        }
        for (from, to) in busy.into_iter().flatten() {
            self.for_each_piece(from, to, &mut visit);
        }
        (interior.count, interior.sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A column of the sorted values `0..100` in one piece: every key `k`
    /// is a valid boundary at position `k`.
    fn sorted() -> Structure {
        Structure::new((0..100).collect(), None, CrackerIndex::new(100))
    }

    /// The latch of the piece that holds `key`.
    fn latch_of(structure: &Structure, key: i64) -> PieceLatch {
        match structure.index.read().locate(key) {
            BoundLookup::Piece { latch, .. } => latch.clone(),
            BoundLookup::Exact(_) => panic!("{key} is a boundary"),
        }
    }

    /// Latches the piece of `key` (waiting) on another thread while this
    /// one holds the latch and splits the piece at `split`, as a racing
    /// crack does; returns what the waiting lookup came back with: the
    /// start and length of the piece it latched.
    fn crack_racing_a_split(key: i64, split: i64) -> Latched<(usize, usize)> {
        let structure = sorted();
        let latch = latch_of(&structure, key);
        let held = latch.lock_write();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let shared = structure.read();
                shared.crack(key, true, |piece| (piece.start(), piece.len()))
            });
            std::thread::sleep(Duration::from_millis(30));
            assert!(
                !waiter.is_finished(),
                "the lookup did not wait for the latch"
            );
            structure
                .index
                .write()
                .insert_bound(split, split as usize, 0);
            drop(held);
            waiter.join().expect("the waiting lookup panicked")
        })
    }

    #[test]
    fn a_lookup_whose_piece_splits_while_it_waits_latches_the_piece_that_holds_its_key() {
        // Above the split: the key moved to the new right piece, whose
        // latch is another one.
        assert_eq!(crack_racing_a_split(70, 40), Latched::Piece((40, 60)));
        // Below it: the same latch, over the shrunk extent.
        assert_eq!(crack_racing_a_split(10, 40), Latched::Piece((0, 40)));
    }

    #[test]
    fn a_key_cracked_while_its_lookup_waits_comes_back_exact() {
        assert_eq!(crack_racing_a_split(40, 40), Latched::Exact(40));
    }

    #[test]
    fn a_try_on_a_write_latched_piece_is_busy_without_waiting() {
        let structure = sorted();
        let latch = latch_of(&structure, 50);
        let held = latch.lock_write();
        let shared = structure.read();
        assert_eq!(shared.crack(50, false, |_| ()), Latched::Busy);
        drop(held);
        assert_eq!(
            shared.crack(50, false, |piece| piece.len()),
            Latched::Piece(100)
        );
    }
}
