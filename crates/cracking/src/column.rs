//! [`CrackerColumn`] — a cracker column `ACRK` plus its cracker index, safe
//! for concurrent query-driven cracking and background refinement.
//!
//! ## Locking protocol
//!
//! Three layers, always acquired in this order and never re-entrantly:
//!
//! 1. `structure` RwLock — *shared* by every piece operation (cracks,
//!    refinements, range reads), *exclusive* for Ripple updates that move
//!    piece boundaries or grow the underlying vectors.
//! 2. `index` RwLock — guards piece metadata (boundary map + latches); held only
//!    for lookups and boundary insertion, never across data movement.
//! 3. `pending` mutex — pending-update queue and the published snapshot
//!    pointer (short critical sections); taken on its own or under
//!    `structure`, never around either lock. A Ripple merge takes its batch
//!    *under* `structure` exclusive, so batches are applied in the order
//!    they leave the queue.
//!
//! Below all three sit the two `PublishedCell`s (plan-time statistics,
//! point filter): *leaf* locks, taken under `pending`, under `structure` or
//! under neither, held for one pointer copy, with nothing ever acquired
//! while one is held.
//!
//! Piece latches sit outside this order: an operation holds at most **one**
//! piece latch at a time (range queries crack their two bounds one after the
//! other), so latch-latch deadlock cannot occur. The index lock is never held
//! while *blocking* on a piece latch.
//!
//! The crack path is lookup → latch → revalidate → partition → publish:
//! a piece may be split between the lookup and the latch acquisition, so the
//! locator runs again under the latch; holding the latch of the piece that
//! *currently* contains the pivot makes the partition race-free.
//!
//! ## Snapshot reads
//!
//! [`CrackerColumn::snapshot_scan`] / [`CrackerColumn::snapshot_collect`]
//! answer count/sum/collect queries from an immutable
//! [`crate::snapshot::PieceSnapshot`] **without the structure lock**: the
//! reader clones the published `Arc` and folds the unmerged pending values
//! in one critical section of the short `pending` mutex (the linearisation
//! point), then scans holding no lock at all. Cracks only permute values
//! inside pieces, so the snapshot stays correct under concurrent cracking;
//! Ripple merges — the only multiset-changing writers — splice fresh
//! copies of exactly the affected value range into a new snapshot
//! (copy-on-write at piece granularity, untouched pieces share their
//! `Arc`'d segments) and swap the pointer under the same mutex; the
//! replaced version is freed when the last reader holding it lets go.
//! Publication and pointer loads under the pending mutex are the whole
//! protocol: `read_snapshot` is the one load, `splice_multi_and_publish`
//! the one store. For these readers the structure lock shrinks to a
//! writer-writer ordering concern.
//!
//! ## Row ids on demand
//!
//! The paper's cracker column is an array of (value, rowid) pairs. A
//! column built by [`CrackerColumn::from_base`] / [`CrackerColumn::from_parts`]
//! stores both from birth; a shard of a [`crate::ShardedColumn`]
//! (`CrackerColumn::from_source`) stores **values only** and keeps what
//! its row ids can be re-derived from — its base and its value range
//! (`row_ids::RowSource`). Every crack of such a column moves
//! values alone (the partition kernels are generic over the row lane,
//! [`crate::RowLane`]). The three operations that read a row id —
//! [`CrackerColumn::collect_row_ids`], the Ripple merge and
//! [`CrackerColumn::extract_for_migration`] — already hold `structure`
//! exclusively; the first of them to run builds the array there, against
//! the boundary table of the moment (same multiset in every piece, so the
//! index, the published statistics, the snapshot and the point filter stay
//! valid). The state flips once and never back; a merge builds the ids
//! *before* it applies its first batch, so an id-less column is by
//! construction still a permutation of its source.

use crate::cell::PublishedCell;
use crate::filter::PointFilter;
use crate::index::{BoundLookup, CrackerIndex};
use crate::partition::{partition_three, partition_two};
use crate::piece_stats::{build_stats, PieceStats, SnapPieceStat};
use crate::range_cell::{RangeCell, RangeGuard};
use crate::row_ids::RowSource;
use crate::snapshot::{PieceSnapshot, Segment, SnapPiece, SnapshotScan, SpliceSpan};
use crate::updates::{ripple_batch, PendingUpdates, UnmergedKind};
use crate::vectorized::CrackScratch;
use holix_storage::select::{Predicate, RangeStats};
use holix_storage::types::{CrackValue, RowId};
use parking_lot::{Mutex, RwLock};
use rand::Rng;
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicUsize, Ordering::Acquire, Ordering::Relaxed, Ordering::Release,
    Ordering::SeqCst,
};
use std::sync::Arc;

/// `true` when a splice span starting at anchor `a` begins at or before
/// `prev_b`, the end anchor of the previous span (anchors are snapshot
/// boundary keys; `None` is the column edge on its respective side) — the
/// two spans overlap or touch and must be spliced as one cluster.
fn anchor_starts_within<V: Ord>(a: Option<V>, prev_b: Option<V>) -> bool {
    match (a, prev_b) {
        (_, None) => true,
        (None, _) => true,
        (Some(a), Some(b)) => a <= b,
    }
}

/// The later of two upper anchors, where `None` is the right column edge.
fn anchor_max<V: Ord>(x: Option<V>, y: Option<V>) -> Option<V> {
    match (x, y) {
        (None, _) | (_, None) => None,
        (Some(x), Some(y)) => Some(x.max(y)),
    }
}

/// The row lane of a crack over `len` values of a column without row ids:
/// a slice of `()` (a length, no memory — see [`crate::RowLane`]).
fn no_rows(len: usize) -> Vec<()> {
    vec![(); len]
}

/// Result of one range select over a cracker column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// First qualifying position in the cracker column.
    pub start: usize,
    /// One past the last qualifying position.
    pub end: usize,
    /// The lower bound was already a boundary (no crack needed).
    pub hit_lo: bool,
    /// The upper bound was already a boundary.
    pub hit_hi: bool,
    /// Data accesses this select performed (piece lengths partitioned).
    pub touched: usize,
}

impl Selection {
    /// Number of qualifying tuples.
    pub fn count(&self) -> u64 {
        (self.end - self.start) as u64
    }

    /// Both bounds were exact hits — the paper's `f_Ih` statistic counts
    /// these queries.
    pub fn exact_hit(&self) -> bool {
        self.hit_lo && self.hit_hi
    }
}

/// Result of one background refinement attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineOutcome {
    /// The pivot already was a boundary: nothing to do.
    AlreadyBound,
    /// The target piece was latched by someone else (try-lock path only).
    Busy,
    /// A piece was split.
    Refined {
        /// Length of the piece that was partitioned.
        piece_len: usize,
    },
}

/// What the `pending` mutex guards: the update queue and the published
/// snapshot it overlays. One critical section reads (or replaces) both, so
/// a reader sees every update in exactly one of the two.
struct Pending<V> {
    queue: PendingUpdates<V>,
    /// `None` until the first snapshot read builds one; never withdrawn.
    snap: Option<Arc<PieceSnapshot<V>>>,
}

/// A cracker column: copy of a base column (values + row ids) that is
/// incrementally reorganised by queries and holistic workers.
pub struct CrackerColumn<V> {
    name: String,
    vals: RangeCell<V>,
    /// Row ids beside `vals`, slot for slot — or empty, for a column born
    /// from a [`RowSource`] that nobody has asked for an id yet.
    rows: RangeCell<RowId>,
    /// Where the row ids of a column born without them come from.
    row_source: Option<RowSource<V>>,
    /// `rows` is filled. Set at most once, under `structure` exclusive
    /// ([`CrackerColumn::ensure_row_ids`]), and never cleared; everything
    /// that touches `rows` reads it under `structure` in either mode.
    has_rows: AtomicBool,
    structure: RwLock<()>,
    index: RwLock<CrackerIndex<V>>,
    pending: Mutex<Pending<V>>,
    /// Observed value domain (base ∪ pending inserts); random pivots are
    /// drawn from it.
    domain: Mutex<Option<(V, V)>>,
    /// Thread budget of query-driven cracks (select bounds, stochastic
    /// auxiliary cracks) — the paper's user queries may gang multiple
    /// threads on one big piece.
    select_threads: usize,
    /// Thread budget of background (holistic-worker) refinements —
    /// typically 1, one worker per idle context.
    refine_threads: usize,
    /// Live bytes held by snapshot segments (rises on copy-out, falls when
    /// the last snapshot version referencing them is dropped).
    snap_bytes: Arc<AtomicUsize>,
    /// Published plan-time piece statistics (the planner's `estimate()`
    /// reads exclusively from here).
    stats: PublishedCell<PieceStats<V>>,
    /// Bumped whenever the piece table, pending backlog or snapshot piece
    /// table changes; drives amortised stats republication.
    stats_version: AtomicU64,
    /// `stats_version` value covered by the last published summary.
    stats_published: AtomicU64,
    /// Serialises publishers (never touched by stats *readers*): prevents
    /// a slow publisher from overwriting a newer summary last.
    stats_publish: Mutex<()>,
    /// Lazily built point-membership filter (`None` until the first
    /// equality/IN query pays the build).
    filter: PublishedCell<PointFilter>,
    /// Serialises filter builders so racing point probes don't each pay the
    /// O(N) snapshot walk.
    filter_build: Mutex<()>,
    /// Deletes absorbed since the point filter was last (re)built — stale
    /// keys never leave a Bloom filter, so this counts accumulated
    /// false-positive pressure until a rebuild resets it.
    filter_deletes: AtomicUsize,
}

impl<V: CrackValue> CrackerColumn<V> {
    /// Copies a base column into a fresh cracker column (the paper's
    /// "first time an attribute is required, a copy of the base column is
    /// created").
    pub fn from_base(name: impl Into<String>, base: &[V]) -> Self {
        Self::from_base_offset(name, base, 0)
    }

    /// Builds a cracker column whose row ids start at `offset` — chunked
    /// variants (P-CCGI) crack per-chunk copies that must still report
    /// global base-table positions.
    pub fn from_base_offset(name: impl Into<String>, base: &[V], offset: RowId) -> Self {
        let rows = (offset..offset + base.len() as RowId).collect();
        Self::from_parts(name, base.to_vec(), rows)
    }

    /// Builds a cracker column from pre-partitioned values with explicit
    /// (non-contiguous) row ids — horizontal shards hand each shard the
    /// subset of base tuples whose values fall in its range while keeping
    /// global base-table positions.
    pub fn from_parts(name: impl Into<String>, vals: Vec<V>, rows: Vec<RowId>) -> Self {
        assert_eq!(vals.len(), rows.len(), "values/row-ids length mismatch");
        let domain = Self::domain_of(&vals);
        Self::build(name, vals, Some(rows), None, &[], domain)
    }

    /// Smallest and largest of `vals` (`None` when empty).
    fn domain_of(vals: &[V]) -> Option<(V, V)> {
        vals.first().map(|&first| {
            vals.iter()
                .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)))
        })
    }

    /// A column over exactly the tuples of `source`, in any order inside
    /// the range partition `bounds` describes — boundaries (`key →
    /// position`, keys strictly increasing) the layout already satisfies:
    /// every value before a boundary's position is below its key, every
    /// value from it on is at or above. `domain` is the smallest and
    /// largest value (`None` computes it). The column is born with
    /// `bounds.len() + 1` pieces, publishes their statistics once, and
    /// stores **no row ids**: they are built from `source` against the
    /// boundary table of the moment when a conjunction
    /// ([`CrackerColumn::collect_row_ids`]), a Ripple merge or a migration
    /// first needs them, and every crack until then moves values alone.
    pub(crate) fn from_source(
        name: impl Into<String>,
        vals: Vec<V>,
        source: RowSource<V>,
        bounds: &[(V, usize)],
        domain: Option<(V, V)>,
    ) -> Self {
        let domain = domain.or_else(|| Self::domain_of(&vals));
        Self::build(name, vals, None, Some(source), bounds, domain)
    }

    fn build(
        name: impl Into<String>,
        vals: Vec<V>,
        rows: Option<Vec<RowId>>,
        row_source: Option<RowSource<V>>,
        bounds: &[(V, usize)],
        domain: Option<(V, V)>,
    ) -> Self {
        let n = vals.len();
        assert!(
            bounds
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1)
                && bounds.last().is_none_or(|b| b.1 <= n),
            "boundaries must ascend in key and position inside the column"
        );
        let mut index = CrackerIndex::new(n);
        for &(key, pos) in bounds {
            index.insert_bound(key, pos);
        }
        let col = CrackerColumn {
            name: name.into(),
            vals: RangeCell::new(vals),
            has_rows: AtomicBool::new(rows.is_some()),
            // A column without row ids still makes a one-slot allocation
            // for them, from the thread that builds it: glibc grows a block
            // in the arena it was first allocated in, so the array
            // `ensure_row_ids` grows this into comes out of the builder's
            // arena — where an eagerly built one came from — not out of
            // the arena of whichever thread runs the first merge. Same
            // bytes either way, but the merging threads' arenas hold no
            // freed pages to reuse: `update_churn/rss_peak_mb` read 92 MB
            // with an empty vector here, 81 MB with this (the parent: 79).
            rows: RangeCell::new(rows.unwrap_or_else(|| Vec::with_capacity(1))),
            row_source,
            structure: RwLock::new(()),
            index: RwLock::new(index),
            pending: Mutex::new(Pending {
                queue: PendingUpdates::new(),
                snap: None,
            }),
            domain: Mutex::new(domain),
            select_threads: 1,
            refine_threads: 1,
            snap_bytes: Arc::new(AtomicUsize::new(0)),
            stats: PublishedCell::new(),
            stats_version: AtomicU64::new(1),
            stats_published: AtomicU64::new(0),
            stats_publish: Mutex::new(()),
            filter: PublishedCell::new(),
            filter_build: Mutex::new(()),
            filter_deletes: AtomicUsize::new(0),
        };
        // Cold columns still plan: publish the summary of the pieces the
        // column is born with.
        col.publish_stats();
        col
    }

    /// Sets the thread budgets of query-driven cracks and of background
    /// refinements (both default to 1). A crack gangs its budget only on
    /// pieces long enough for it to pay off
    /// ([`crate::partition::DEFAULT_MIN_PARALLEL`]); the thread-split
    /// experiments of §5.1 give user queries and holistic workers different
    /// budgets.
    pub fn with_threads(mut self, select: usize, refine: usize) -> Self {
        self.set_threads(select, refine);
        self
    }

    pub(crate) fn set_threads(&mut self, select: usize, refine: usize) {
        self.select_threads = select.max(1);
        self.refine_threads = refine.max(1);
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of merged (cracked) values; excludes pending inserts.
    pub fn len(&self) -> usize {
        self.index.read().len()
    }

    /// `true` if no merged values exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current number of pieces.
    pub fn piece_count(&self) -> usize {
        self.index.read().piece_count()
    }

    /// Average piece length `N/p` (Equation 1 input).
    pub fn avg_piece_len(&self) -> usize {
        self.index.read().avg_piece_len()
    }

    /// Observed value domain, if any values exist.
    pub fn domain(&self) -> Option<(V, V)> {
        *self.domain.lock()
    }

    /// Bytes one resident tuple costs: its value, and its row id once the
    /// column stores them (`ids`). The one definition
    /// [`CrackerColumn::payload_bytes`] and every budget computed ahead of
    /// a build share.
    pub const fn tuple_bytes(ids: bool) -> usize {
        std::mem::size_of::<V>() + if ids { std::mem::size_of::<RowId>() } else { 0 }
    }

    /// Bytes held by values + row ids (once built) + index + live snapshot
    /// segments (storage-budget accounting; the snapshot term is zero until
    /// a snapshot read publishes one).
    pub fn payload_bytes(&self) -> usize {
        self.len() * Self::tuple_bytes(self.has_row_ids())
            + self.index.read().approx_bytes()
            + self.snapshot_bytes()
    }

    /// Does the column store a row id per value? Always, unless it is a
    /// shard of a [`crate::ShardedColumn`] built from the base and neither
    /// a conjunction, a Ripple merge nor a migration has asked for one
    /// since.
    pub fn has_row_ids(&self) -> bool {
        // Pairs with the `Release` store of `ensure_row_ids`; callers that
        // go on to touch `rows` hold `structure`, which orders them too.
        self.has_rows.load(Acquire)
    }

    /// The row ids of piece `[start, end)` for a crack to move, `None`
    /// while the column has none.
    ///
    /// # Safety
    /// As [`RangeCell::range_mut`]: the caller holds the piece's write
    /// latch and `structure` shared.
    unsafe fn piece_rows(&self, start: usize, end: usize) -> Option<RangeGuard<'_, RowId>> {
        // SAFETY: the caller's contract.
        self.has_row_ids()
            .then(|| unsafe { self.rows.range_mut(start, end) })
    }

    /// Builds the row-id array of a column born without one; no-op on any
    /// other. One pass over the base re-derives the column's (value, row)
    /// pairs and scatters them into the pieces of the current boundary
    /// table ([`RowSource::scatter`]): `vals` is rewritten with the same
    /// multiset in every piece, so the boundary table, the published
    /// statistics, the snapshot (it owns its copies) and the point filter
    /// all stay valid.
    ///
    /// # Safety
    /// The caller holds `structure` exclusively, and no Ripple merge has
    /// been applied to an id-less column (every merge calls this first), so
    /// the column still is a permutation of its source.
    unsafe fn ensure_row_ids(&self) {
        if self.has_row_ids() {
            return;
        }
        let source = self
            .row_source
            .as_ref()
            .expect("a column without row ids was born from a source");
        let timed = holix_telemetry::metrics_enabled().then(std::time::Instant::now);
        let bounds = self.index.read().bounds_in_order();
        // SAFETY: `structure` is held exclusively.
        unsafe {
            self.vals.with_vec_mut(|vals| {
                self.rows
                    .with_vec_mut(|rows| source.scatter(&bounds, vals, rows))
            });
        }
        self.has_rows.store(true, Release);
        if let Some(t0) = timed {
            holix_telemetry::counter!("cracking_row_id_builds_total").inc();
            holix_telemetry::histogram!("cracking_row_id_build_ns")
                .record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Index lookup for a bound value (exposed for stochastic cracking,
    /// which needs the value range of the piece a bound falls into).
    pub fn locate_for_stochastic(&self, v: V) -> BoundLookup<V> {
        self.index.read().locate(v)
    }

    // ------------------------------------------------------------------
    // Plan-time piece statistics (holix-planner's input)
    // ------------------------------------------------------------------

    /// The currently published plan-time summary. Takes no structure lock,
    /// no index lock and no pending mutex (only the cell's leaf lock) —
    /// safe to call from admission control while writers hold every column
    /// lock.
    pub fn piece_stats(&self) -> Option<Arc<PieceStats<V>>> {
        self.stats.load()
    }

    /// Marks the published statistics stale (piece table, pending backlog
    /// or snapshot piece table changed).
    fn bump_stats(&self) {
        self.stats_version.fetch_add(1, Relaxed);
    }

    /// Republishes the plan-time summary when at least `min_delta`
    /// structural changes happened since the last publish. The query path
    /// calls this with a coarse delta (amortising the O(p) boundary walk
    /// over many cracks); the daemon forces `1` once per cycle so the
    /// summary never lags idle periods.
    pub fn maybe_publish_stats(&self, min_delta: u64) {
        let v = self.stats_version.load(Relaxed);
        let p = self.stats_published.load(Relaxed);
        if v.saturating_sub(p) >= min_delta.max(1) {
            self.publish_stats();
        }
    }

    /// Unconditionally rebuilds and publishes the plan-time summary. Takes
    /// the pending mutex and the index read lock *sequentially* (never
    /// nested) and publishes through the stats cell. Publishers
    /// are serialised by a try-lock: without it, a slow publisher that
    /// gathered an old state could overwrite a newer summary *after* the
    /// newer version was marked covered, leaving stale stats no forced
    /// republish would ever fix. A loser simply skips — the version gap
    /// persists, so the next `maybe_publish_stats(1)` retries.
    pub fn publish_stats(&self) {
        let Some(_serial) = self.stats_publish.try_lock() else {
            return;
        };
        let v = self.stats_version.load(SeqCst);
        let pending = self.pending.lock().queue.len();
        let (len, bounds) = {
            let idx = self.index.read();
            (idx.len(), idx.bounds_in_order())
        };
        let snap_pieces = self.snapshot().map(|s| {
            s.pieces()
                .map(|p| SnapPieceStat {
                    hi_key: p.hi_key,
                    len: p.len(),
                    plain: p.is_plain(),
                })
                .collect()
        });
        self.stats
            .publish(Arc::new(build_stats(len, bounds, pending, snap_pieces)));
        self.stats_published.fetch_max(v, SeqCst);
    }

    /// Test-only: holds the column's structure lock exclusively *and* its
    /// pending mutex, so tests can assert that plan-time reads
    /// ([`CrackerColumn::piece_stats`], [`CrackerColumn::probe_point`])
    /// still complete while a writer holds every piece, the update queue
    /// and the published snapshot hostage.
    #[doc(hidden)]
    pub fn hold_locks_for_test(&self) -> impl Sized + '_ {
        (self.structure.write(), self.pending.lock())
    }

    /// Draws a uniform random pivot from the observed domain.
    pub fn random_pivot(&self, rng: &mut impl Rng) -> Option<V> {
        let (lo, hi) = (*self.domain.lock())?;
        if lo == hi {
            return Some(lo);
        }
        Some(V::from_i64(rng.random_range(lo.as_i64()..=hi.as_i64())))
    }

    // ------------------------------------------------------------------
    // Select path (user queries)
    // ------------------------------------------------------------------

    /// Range select `lo <= v < hi` with query-driven cracking: ensures both
    /// bounds are boundaries (cracking at most two pieces — or one piece in
    /// three when both bounds share a piece) and returns the contiguous
    /// qualifying range.
    ///
    /// Pending updates falling inside the requested range are merged first
    /// (Ripple), exactly as [28] prescribes.
    pub fn select(&self, pred: Predicate<V>, scratch: &mut CrackScratch<V>) -> Selection {
        let sel = self.select_inner(pred, scratch);
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_selects_total").inc();
            let cracks = (!sel.hit_lo as u64) + (!sel.hit_hi as u64);
            if cracks > 0 {
                holix_telemetry::counter!("cracking_cracks_total").add(cracks);
                holix_telemetry::counter!("cracking_piece_splits_total").add(cracks);
            }
        }
        sel
    }

    fn select_inner(&self, pred: Predicate<V>, scratch: &mut CrackScratch<V>) -> Selection {
        if pred.is_empty() {
            return Selection {
                start: 0,
                end: 0,
                hit_lo: true,
                hit_hi: true,
                touched: 0,
            };
        }
        self.merge_pending_range(pred.lo, pred.hi);

        let _shared = self.structure.read();

        // Fast path: both bounds missing and in the same piece → one
        // three-way crack.
        if let Some(sel) = self.try_crack_in_three(pred, scratch) {
            return sel;
        }

        let (lo_pos, hit_lo, touched_lo) = if pred.lo == V::MIN_VALUE {
            (0, true, 0)
        } else {
            self.crack_bound(pred.lo, scratch, true)
                .expect("blocking crack cannot be Busy")
        };
        let (hi_pos, hit_hi, touched_hi) = if pred.hi == V::MAX_VALUE {
            (self.index.read().len(), true, 0)
        } else {
            self.crack_bound(pred.hi, scratch, true)
                .expect("blocking crack cannot be Busy")
        };

        Selection {
            start: lo_pos,
            end: hi_pos.max(lo_pos),
            hit_lo,
            hit_hi,
            touched: touched_lo + touched_hi,
        }
    }

    /// One attempt at the crack-in-three fast path. `None` means the bounds
    /// do not (or no longer) share an unlatched piece — fall back to two
    /// crack-in-two operations.
    ///
    /// Caller holds `structure` shared.
    fn try_crack_in_three(
        &self,
        pred: Predicate<V>,
        scratch: &mut CrackScratch<V>,
    ) -> Option<Selection> {
        if pred.lo == V::MIN_VALUE || pred.hi == V::MAX_VALUE {
            return None;
        }
        let (piece_latch, start, end) = {
            let idx = self.index.read();
            match (idx.locate(pred.lo), idx.locate(pred.hi)) {
                (
                    BoundLookup::Piece {
                        start: s1,
                        end: e1,
                        latch: l1,
                        ..
                    },
                    BoundLookup::Piece {
                        start: s2,
                        end: e2,
                        latch: l2,
                        ..
                    },
                ) if s1 == s2 && e1 == e2 && l1.same_as(&l2) => (l1, s1, e1),
                _ => return None,
            }
        };
        let _guard = piece_latch.lock_write();
        // Revalidate under the latch.
        {
            let idx = self.index.read();
            match (idx.locate(pred.lo), idx.locate(pred.hi)) {
                (
                    BoundLookup::Piece {
                        start: s1,
                        end: e1,
                        latch: l1,
                        ..
                    },
                    BoundLookup::Piece {
                        start: s2,
                        latch: l2,
                        ..
                    },
                ) if s1 == s2
                    && l1.same_as(&piece_latch)
                    && l2.same_as(&piece_latch)
                    && s1 == start
                    && e1 == end => {}
                _ => return None,
            }
        }

        let piece_len = end - start;
        let (a, b) = {
            // SAFETY: we hold the write latch of the piece [start, end) and
            // `structure` shared, so the range is exclusively ours and the
            // vectors cannot move.
            let mut vg = unsafe { self.vals.range_mut(start, end) };
            let (lo, hi, threads) = (pred.lo, pred.hi, self.select_threads);
            match unsafe { self.piece_rows(start, end) } {
                Some(mut rg) => partition_three(vg.slice(), rg.slice(), lo, hi, threads, scratch),
                None => partition_three(
                    vg.slice(),
                    &mut no_rows(piece_len),
                    lo,
                    hi,
                    threads,
                    scratch,
                ),
            }
        };
        {
            let mut idx = self.index.write();
            idx.insert_bound(pred.lo, start + a);
            idx.insert_bound(pred.hi, start + b);
        }
        self.bump_stats();
        Some(Selection {
            start: start + a,
            end: start + b,
            hit_lo: false,
            hit_hi: false,
            touched: piece_len,
        })
    }

    /// Ensures `v` is a boundary, cracking its piece if needed. Returns
    /// `(position, was_exact_hit, touched)`; `None` only on the non-blocking
    /// path when the piece is latched elsewhere.
    ///
    /// Caller holds `structure` shared.
    fn crack_bound(
        &self,
        v: V,
        scratch: &mut CrackScratch<V>,
        blocking: bool,
    ) -> Option<(usize, bool, usize)> {
        let threads = if blocking {
            self.select_threads
        } else {
            self.refine_threads
        };
        loop {
            let lookup = self.index.read().locate(v);
            let latch = match lookup {
                BoundLookup::Exact(pos) => return Some((pos, true, 0)),
                BoundLookup::Piece { latch, .. } => latch,
            };
            let guard = if blocking {
                latch.lock_write()
            } else {
                latch.try_lock_write()?
            };
            // Revalidate: the piece may have been split while we waited.
            let (start, end) = {
                let idx = self.index.read();
                match idx.locate(v) {
                    BoundLookup::Exact(pos) => {
                        // Someone cracked exactly this value concurrently.
                        drop(guard);
                        return Some((pos, true, 0));
                    }
                    BoundLookup::Piece {
                        start,
                        end,
                        latch: cur,
                        ..
                    } => {
                        if !cur.same_as(&latch) {
                            drop(guard);
                            continue; // piece split away from our latch
                        }
                        (start, end)
                    }
                }
            };

            let split = {
                // SAFETY: write latch on piece [start, end) held; `structure`
                // shared prevents vector moves.
                let mut vg = unsafe { self.vals.range_mut(start, end) };
                match unsafe { self.piece_rows(start, end) } {
                    Some(mut rg) => partition_two(vg.slice(), rg.slice(), v, threads, scratch),
                    None => {
                        partition_two(vg.slice(), &mut no_rows(end - start), v, threads, scratch)
                    }
                }
            };
            let pos = start + split;
            self.index.write().insert_bound(v, pos);
            self.bump_stats();
            return Some((pos, false, end - start));
        }
    }

    // ------------------------------------------------------------------
    // Refinement path (holistic workers)
    // ------------------------------------------------------------------

    /// One background refinement at `pivot`. Non-blocking: a latched piece
    /// yields [`RefineOutcome::Busy`] so the worker can re-pick a pivot
    /// (Fig 3(d)–(e) of the paper). Pending updates belonging to the target
    /// piece are merged first, so workers also bring indices up to date.
    pub fn refine_at(&self, pivot: V, scratch: &mut CrackScratch<V>) -> RefineOutcome {
        self.merge_pending_for_piece_of(pivot);
        let _shared = self.structure.read();
        match self.crack_bound(pivot, scratch, false) {
            None => RefineOutcome::Busy,
            Some((_, true, _)) => RefineOutcome::AlreadyBound,
            Some((_, false, touched)) => {
                if holix_telemetry::metrics_enabled() {
                    holix_telemetry::counter!("cracking_refinements_total").inc();
                    holix_telemetry::counter!("cracking_piece_splits_total").inc();
                }
                RefineOutcome::Refined { piece_len: touched }
            }
        }
    }

    /// Blocking refinement (used by single-threaded baselines and tests).
    pub fn refine_at_blocking(&self, pivot: V, scratch: &mut CrackScratch<V>) -> RefineOutcome {
        self.merge_pending_for_piece_of(pivot);
        let _shared = self.structure.read();
        match self.crack_bound(pivot, scratch, true) {
            None => unreachable!("blocking crack cannot be Busy"),
            Some((_, true, _)) => RefineOutcome::AlreadyBound,
            Some((_, false, touched)) => RefineOutcome::Refined { piece_len: touched },
        }
    }

    /// Draws random pivots until one lands on a free piece (at most
    /// `max_attempts` draws) and refines there.
    pub fn refine_random(
        &self,
        rng: &mut impl Rng,
        scratch: &mut CrackScratch<V>,
        max_attempts: usize,
    ) -> RefineOutcome {
        let mut last = RefineOutcome::Busy;
        for _ in 0..max_attempts {
            let Some(pivot) = self.random_pivot(rng) else {
                return RefineOutcome::AlreadyBound;
            };
            last = self.refine_at(pivot, scratch);
            if !matches!(last, RefineOutcome::Busy) {
                return last;
            }
        }
        last
    }

    // ------------------------------------------------------------------
    // Updates (pending queue + Ripple merge)
    // ------------------------------------------------------------------

    /// Queues an insertion; it is merged when a query or worker touches its
    /// value range. Returns `false` — queueing nothing — once the column is
    /// sealed for shard migration; the caller re-routes the update through
    /// the successor plan.
    pub fn queue_insert(&self, v: V, row: RowId) -> bool {
        {
            let mut p = self.pending.lock();
            if p.queue.is_sealed() {
                return false;
            }
            p.queue.queue_insert(v, row);
            // Same critical section that the filter build's catch-up +
            // publish runs in, so this insert lands in the filter exactly
            // once: either the build's `for_each_unmerged` pass sees it
            // queued, or the publish happened first and the OR below does.
            if let Some(f) = self.filter.load() {
                f.insert(v.as_i64());
            }
        }
        let mut dom = self.domain.lock();
        *dom = Some(match *dom {
            None => (v, v),
            Some((lo, hi)) => (if v < lo { v } else { lo }, if v > hi { v } else { hi }),
        });
        drop(dom);
        self.bump_stats();
        true
    }

    /// Queues a deletion of the value previously inserted for `row`. The
    /// target must be a tuple that is merged or has a matching pending
    /// insert (which the queue cancels): a Ripple merge silently drops a
    /// delete whose target is absent, and until that happens the snapshot
    /// overlay counts the delete against the aggregates. Returns `false` —
    /// queueing nothing — once the column is sealed for shard migration.
    pub fn queue_delete(&self, v: V, row: RowId) -> bool {
        {
            let mut p = self.pending.lock();
            if p.queue.is_sealed() {
                return false;
            }
            p.queue.queue_delete(v, row);
        }
        // Deletes never leave a Bloom filter: account the churn so idle
        // workers can rebuild once it overwhelms the published filter.
        if self.filter.is_published() {
            self.filter_deletes.fetch_add(1, Relaxed);
        }
        self.bump_stats();
        true
    }

    /// Number of unmerged pending operations.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().queue.len()
    }

    /// Merges every pending update with value in `[lo, hi)` into the cracked
    /// column (exclusive; moves boundaries via the Ripple shifts).
    ///
    /// When a snapshot is published, the merge is the *only* operation that
    /// changes per-piece multisets, so it finishes by splicing fresh copies
    /// of exactly the affected value range into the snapshot (copy-on-write
    /// at piece granularity) and publishing that in place of the old one.
    /// The taken batch stays registered as in-flight until the publish, so
    /// snapshot readers racing the merge see every update in either the
    /// pending set or the new snapshot — never neither.
    pub fn merge_pending_range(&self, lo: V, hi: V) {
        if !self.pending.lock().queue.has_in_range(lo, hi) {
            return;
        }
        // The batch is taken only once the column is exclusively ours, so
        // batches are applied in the order they were taken. A merge that
        // took {insert x} and then lost the race for the structure lock to
        // a later merge holding {delete x} would find nothing to delete,
        // drop the delete, and then insert x for good.
        let _exclusive = self.structure.write();
        let Some((token, ins, del)) = self.pending.lock().queue.take_range_tracked(lo, hi) else {
            return; // a racing merge applied it while we waited
        };
        let timed = holix_telemetry::metrics_enabled().then(std::time::Instant::now);
        // SAFETY: `structure` is held exclusively.
        let walked = unsafe { self.ripple_apply(&ins, &del) };
        // Still under `structure` exclusive: nothing else can publish (or
        // build) a snapshot, so the anchor/copy/splice triple is atomic and
        // the in-flight batch is cleared before any snapshot that already
        // contains its items can become visible. The splice covers one
        // span per *cluster* of merged values: a wide merge whose items
        // are sparse only copies the snapshot pieces the values actually
        // land in — every untouched interior piece of the anchor span
        // keeps sharing its segment.
        let spans = self.snapshot().map(|snap| {
            let mut vs: Vec<V> = ins.iter().chain(del.iter()).map(|&(v, _)| v).collect();
            vs.sort_unstable();
            vs.dedup();
            let mut spans: Vec<(Option<V>, Option<V>)> = Vec::new();
            for &v in &vs {
                let (a, b) = snap.anchors(v, Self::succ(v));
                match spans.last_mut() {
                    // Values ascend, so anchors do too: the new span either
                    // falls inside / touches the previous one (extend it)
                    // or starts a fresh cluster strictly to the right.
                    Some((_, pb)) if anchor_starts_within(a, *pb) => {
                        *pb = anchor_max(*pb, b);
                    }
                    _ => spans.push((a, b)),
                }
            }
            spans
        });
        match spans {
            Some(spans) => {
                let spans: Vec<SpliceSpan<V>> = spans
                    .into_iter()
                    .map(|(a, b)| (a, b, self.copy_live_pieces(a, b, false, false)))
                    .collect();
                self.splice_multi_and_publish(spans, Some(token));
            }
            None => self.pending.lock().queue.finish_merge(token),
        }
        self.bump_stats();
        if let Some(t0) = timed {
            holix_telemetry::counter!("cracking_ripple_merges_total").inc();
            holix_telemetry::counter!("cracking_ripple_merged_values_total")
                .add((ins.len() + del.len()) as u64);
            holix_telemetry::counter!("cracking_ripple_bounds_walked_total").add(walked as u64);
            holix_telemetry::histogram!("cracking_ripple_merge_ns")
                .record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Ripple-merges one taken batch into the cracked column — deletes
    /// first, then inserts ([`ripple_batch`]); returns the boundaries the
    /// merge walked. A column still without row ids builds them first: a
    /// delete names its tuple by row, and past this point the column is no
    /// longer a permutation of its source to build them from.
    ///
    /// # Safety
    /// The caller holds `structure` exclusively — no piece guard can be
    /// live and no reader observes the vectors while they move.
    unsafe fn ripple_apply(&self, ins: &[(V, RowId)], del: &[(V, RowId)]) -> usize {
        // SAFETY: the caller's contract; no merge has been applied before
        // the first one.
        unsafe { self.ensure_row_ids() };
        let mut idx = self.index.write();
        self.vals.with_vec_mut(|vals| {
            self.rows
                .with_vec_mut(|rows| ripple_batch(vals, rows, &mut idx, ins, del))
        })
    }

    /// The value just above `v` in predicate space (`MAX_VALUE` saturates
    /// to the unbounded sentinel — which also *includes* `MAX_VALUE`
    /// itself, keeping `[v, succ(v))` a superset of `{v}`).
    fn succ(v: V) -> V {
        if v == V::MAX_VALUE {
            V::MAX_VALUE
        } else {
            V::from_i64(v.as_i64() + 1)
        }
    }

    /// Merges pending updates for the piece that currently contains `pivot`
    /// (the holistic-worker merge of §4.2 "Updates").
    fn merge_pending_for_piece_of(&self, pivot: V) {
        if self.pending.lock().queue.is_empty() {
            return;
        }
        let (lo_key, hi_key) = match self.index.read().locate(pivot) {
            BoundLookup::Exact(_) => return,
            BoundLookup::Piece { lo_key, hi_key, .. } => (lo_key, hi_key),
        };
        let lo = lo_key.unwrap_or(V::MIN_VALUE);
        let hi = hi_key.unwrap_or(V::MAX_VALUE);
        self.merge_pending_range(lo, hi);
    }

    // ------------------------------------------------------------------
    // Shard migration (dynamic replanning)
    // ------------------------------------------------------------------

    /// Seals the update ingress: every later [`CrackerColumn::queue_insert`]
    /// / [`CrackerColumn::queue_delete`] returns `false` so shard routers
    /// re-route through the successor plan. Reads — selects, snapshot
    /// scans, point probes — keep working; sealing freezes only the
    /// pending queue's intake.
    pub fn seal_for_migration(&self) {
        self.pending.lock().queue.seal();
    }

    /// `true` once [`CrackerColumn::seal_for_migration`] ran.
    pub fn is_sealed(&self) -> bool {
        self.pending.lock().queue.is_sealed()
    }

    /// Reopens the update ingress after an *aborted* migration (no
    /// successor plan was ever published — e.g. a split found the shard's
    /// values all equal). Updates rejected during the sealed window are
    /// retried by the shard router and land here again.
    pub fn unseal_after_aborted_migration(&self) {
        self.pending.lock().queue.unseal();
    }

    /// Drains the column for a shard replan: seals the update ingress,
    /// Ripple-merges **every** pending update — republishing the snapshot
    /// in the same critical section, so readers still holding the old
    /// plan's column keep answering exactly — and returns a copy of the merged
    /// values and row ids in cracked order. The column stays fully
    /// readable afterwards (in-flight old-plan queries finish against it)
    /// but accepts no new updates.
    pub fn extract_for_migration(&self) -> (Vec<V>, Vec<RowId>) {
        self.seal_for_migration();
        // Every merge takes its batch under this lock, so none is in
        // flight once it is ours.
        let _exclusive = self.structure.write();
        // The successor is built from (value, row) pairs: a column still
        // without row ids builds them now.
        // SAFETY: `structure` is held exclusively, and every merge builds
        // the ids before it applies anything.
        unsafe { self.ensure_row_ids() };
        let taken = {
            let mut p = self.pending.lock();
            (!p.queue.is_empty()).then(|| p.queue.take_all_tracked())
        };
        if let Some((token, ins, del)) = taken {
            // SAFETY: `structure` is held exclusively.
            let _ = unsafe { self.ripple_apply(&ins, &del) };
            // Old-plan snapshot readers must stay exact: the batch
            // leaves the pending overlay only together with a
            // republished snapshot that already contains it.
            if self.snapshot_published() {
                let pieces = self.copy_live_pieces(None, None, false, false);
                self.splice_and_publish(None, None, pieces, Some(token));
            } else {
                self.pending.lock().queue.finish_merge(token);
            }
        }
        let n = self.index.read().len();
        // SAFETY: exclusive structure lock — no live mutators.
        let vals = unsafe { self.vals.read_range(0, n) }.to_vec();
        let rows = unsafe { self.rows.read_range(0, n) }.to_vec();
        self.bump_stats();
        (vals, rows)
    }

    // ------------------------------------------------------------------
    // Snapshot reads
    // ------------------------------------------------------------------

    /// The one load of the published snapshot: clones its `Arc` and hands
    /// the update queue to `fold`, both inside one critical section of the
    /// pending mutex — the reader linearisation point, so what `fold` reads
    /// is exactly what the returned snapshot lacks. `fold` must stay short
    /// (no allocation proportional to the column): every queue operation
    /// and every publish waits for it. `None` while nothing is published.
    fn read_snapshot<R>(
        &self,
        fold: impl FnOnce(&PendingUpdates<V>) -> R,
    ) -> Option<(Arc<PieceSnapshot<V>>, R)> {
        let p = self.pending.lock();
        let snap = Arc::clone(p.snap.as_ref()?);
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_epoch_pins_total").inc();
        }
        Some((snap, fold(&p.queue)))
    }

    /// [`CrackerColumn::read_snapshot`] that builds and publishes the first
    /// snapshot when there is none (one-time O(N) copy at current live
    /// granularity, under `structure` exclusive).
    fn read_or_build_snapshot<R>(
        &self,
        fold: impl Fn(&PendingUpdates<V>) -> R,
    ) -> (Arc<PieceSnapshot<V>>, R) {
        if let Some(read) = self.read_snapshot(&fold) {
            return read;
        }
        {
            let _exclusive = self.structure.write();
            // Unless a racing reader built it while this one waited.
            if !self.snapshot_published() {
                let pieces = self.copy_live_pieces(None, None, false, false);
                self.splice_and_publish(None, None, pieces, None);
            }
        }
        self.read_snapshot(&fold)
            .expect("a published snapshot is never withdrawn")
    }

    /// The currently published snapshot (`None` until a snapshot read has
    /// built one). Whoever holds the returned `Arc` keeps that version —
    /// and the segments only it references — allocated and charged to
    /// [`CrackerColumn::snapshot_bytes`] across any number of later
    /// publishes.
    pub fn snapshot(&self) -> Option<Arc<PieceSnapshot<V>>> {
        self.read_snapshot(|_| ()).map(|(snap, ())| snap)
    }

    /// Count + sum of values in `pred`, served from the published piece
    /// snapshot **without taking the structure lock**: the reader
    /// linearises `(snapshot, unmerged updates)` on the short pending mutex
    /// (folding the overlay deltas allocation-free inside it), scans the
    /// immutable snapshot, and applies the deltas. Writers (cracks, Ripple
    /// merges, piece splits) never wait for this reader and this reader
    /// never waits for them.
    ///
    /// The overlay assumes the contract [`CrackerColumn::queue_delete`]
    /// states: a pending delete targets a tuple that is merged (or has a
    /// matching pending insert, which the queue cancels). A delete of a
    /// tuple that never existed is counted here until a Ripple merge
    /// silently drops it.
    ///
    /// Adaptivity: when the edge pieces forced more than
    /// [`CrackerColumn::REFRESH_FILTER_MIN`] element-wise checks, the call
    /// finishes with an amortised maintenance pass that cracks the live
    /// bounds (non-blocking) and refreshes the snapshot's piece table to
    /// live granularity — so a snapshot-only workload converges exactly
    /// like a cracking one, paying the copy at most once per granularity
    /// level (the same geometric series as cracking itself).
    pub fn snapshot_scan(&self, pred: Predicate<V>, scratch: &mut CrackScratch<V>) -> SnapshotScan {
        if pred.is_empty() {
            return SnapshotScan::default();
        }
        let (snap, (count_delta, sum_delta)) = self.read_or_build_snapshot(|queue| {
            let mut count_delta = 0i64;
            let mut sum_delta = 0i128;
            queue.for_each_unmerged(
                |v| pred.matches_unbounded(v),
                |v, kind| {
                    let sign = match kind {
                        UnmergedKind::Insert => 1,
                        UnmergedKind::Delete => -1,
                    };
                    count_delta += sign;
                    sum_delta += sign as i128 * v.as_i64() as i128;
                },
            );
            (count_delta, sum_delta)
        });
        let mut scan = snap.stats(pred.lo, pred.hi);
        drop(snap);
        scan.count = (scan.count as i64 + count_delta).max(0) as u64;
        scan.sum += sum_delta;
        if scan.filtered >= Self::REFRESH_FILTER_MIN {
            self.refresh_snapshot(pred, scratch);
        }
        scan
    }

    /// Appends every value qualifying under `pred` to `out` (same protocol
    /// as [`CrackerColumn::snapshot_scan`]); unmerged pending inserts are
    /// appended and pending deletes remove one matching occurrence each
    /// from the values this call produced (a delete whose target is
    /// genuinely absent removes nothing — see
    /// [`CrackerColumn::snapshot_scan`] on the delete contract).
    pub fn snapshot_collect(
        &self,
        pred: Predicate<V>,
        scratch: &mut CrackScratch<V>,
        out: &mut Vec<V>,
    ) -> SnapshotScan {
        if pred.is_empty() {
            return SnapshotScan::default();
        }
        let base = out.len();
        // Overlay values buffer into small locals under the lock; the
        // (potentially large, reallocating) `out` buffer is only touched
        // after the pending mutex is released, keeping the writer
        // linearisation point short.
        let (snap, (ins, del)) = self.read_or_build_snapshot(|queue| {
            let mut ins: Vec<V> = Vec::new();
            let mut del: Vec<V> = Vec::new();
            queue.for_each_unmerged(
                |v| pred.matches_unbounded(v),
                |v, kind| match kind {
                    UnmergedKind::Insert => ins.push(v),
                    UnmergedKind::Delete => del.push(v),
                },
            );
            (ins, del)
        });
        let mut scan = snap.collect_into(pred.lo, pred.hi, out);
        drop(snap);
        for v in ins {
            out.push(v);
            scan.count += 1;
            scan.sum += v.as_i64() as i128;
        }
        if !del.is_empty() {
            // Single compaction pass over this call's values with a delete
            // multiset — O(collected + deletes), not a linear re-scan per
            // delete. Unmatched deletes (absent targets) remove nothing, as
            // on the Ripple path.
            let mut remaining: std::collections::BTreeMap<V, usize> =
                std::collections::BTreeMap::new();
            for v in del {
                *remaining.entry(v).or_insert(0) += 1;
            }
            let mut kept = base;
            for i in base..out.len() {
                let v = out[i];
                if let Some(c) = remaining.get_mut(&v) {
                    if *c > 0 {
                        *c -= 1;
                        scan.count = scan.count.saturating_sub(1);
                        scan.sum -= v.as_i64() as i128;
                        continue;
                    }
                }
                out[kept] = v;
                kept += 1;
            }
            out.truncate(kept);
        }
        if scan.filtered >= Self::REFRESH_FILTER_MIN {
            self.refresh_snapshot(pred, scratch);
        }
        scan
    }

    /// Edge-piece filter work (values inspected element-wise) above which a
    /// snapshot read triggers a piece-table refresh.
    pub const REFRESH_FILTER_MIN: usize = 1 << 11;

    /// Pending-queue length above which a snapshot refresh also merges the
    /// bound piece's updates (below it, the per-scan overlay is cheaper
    /// than queueing behind the exclusive merge).
    pub const REFRESH_MERGE_BACKLOG: usize = 256;

    /// Has a snapshot been published for this column?
    pub fn snapshot_published(&self) -> bool {
        self.snapshot().is_some()
    }

    /// Live bytes held by snapshot segments: those of the published
    /// snapshot plus the segments a still-running reader holds through a
    /// replaced version.
    pub fn snapshot_bytes(&self) -> usize {
        self.snap_bytes.load(SeqCst)
    }

    /// Pieces in the currently published snapshot (0 when unpublished).
    pub fn snapshot_piece_count(&self) -> usize {
        self.snapshot().map_or(0, |s| s.piece_count())
    }

    // ------------------------------------------------------------------
    // Point-membership filter (equality / IN fast path)
    // ------------------------------------------------------------------

    /// Has a point filter been built and published for this column?
    pub fn point_filter_published(&self) -> bool {
        self.filter.is_published()
    }

    /// The published point filter, if any.
    pub fn point_filter(&self) -> Option<Arc<PointFilter>> {
        self.filter.load()
    }

    /// Point-membership probe (no column lock). `Some(false)` **proves** no tuple
    /// with value `v` exists in this column — merged, pending, or queued
    /// concurrently — so an equality probe can answer "empty" without
    /// cracking anything. `Some(true)` means "maybe present" (Bloom false
    /// positives included); `None` means no filter is built yet and the
    /// caller must fall back (or pay [`CrackerColumn::ensure_point_filter`]).
    pub fn probe_point(&self, v: V) -> Option<bool> {
        Some(self.filter.load()?.contains(v.as_i64()))
    }

    /// Builds and publishes the point filter from the published snapshot's
    /// piece table plus the unmerged pending inserts. No-op once published.
    ///
    /// Race-freedom: the build runs under `structure` *shared*, which
    /// excludes Ripple merges — the only operation that moves values from
    /// the pending queue into the column — so the snapshot walked here and
    /// the pending queue drained below cannot trade values mid-build.
    /// Cracks racing the build only permute values inside live pieces and
    /// never touch the immutable snapshot segments. The pending catch-up
    /// and the publish share one `pending` critical section, the same one
    /// [`CrackerColumn::queue_insert`] ORs new values in under, so every
    /// insert reaches the filter exactly once (deletes are deliberately
    /// ignored: they only raise the false-positive rate, never unsoundness).
    pub fn ensure_point_filter(&self) {
        if self.filter.is_published() {
            return;
        }
        let _build = self.filter_build.lock();
        if self.filter.is_published() {
            return; // lost the build race
        }
        self.build_and_publish_filter();
    }

    /// Deletes absorbed since the point filter was last (re)built (stale
    /// keys never leave a Bloom filter, so this measures accumulated
    /// false-positive pressure).
    pub fn point_filter_staleness(&self) -> usize {
        self.filter_deletes.load(Relaxed)
    }

    /// Delete-churn floor below which a filter rebuild is never attempted.
    pub const FILTER_REBUILD_MIN_DELETES: usize = 64;

    /// Rebuilds the published point filter once delete churn since the last
    /// (re)build reaches a quarter of the merged column: deleted keys stay
    /// resident in a Bloom filter, so churn monotonically raises its
    /// false-positive rate until a rebuild from the current snapshot resets
    /// it. Pending updates are Ripple-merged first — the build walk ignores
    /// unmerged deletes, so rebuilding around them would change nothing.
    /// Idle daemon workers call this; returns `true` when a fresh filter
    /// was published.
    pub fn maybe_rebuild_point_filter(&self) -> bool {
        if !self.filter.is_published() {
            return false;
        }
        let d = self.filter_deletes.load(Relaxed);
        if d < Self::FILTER_REBUILD_MIN_DELETES || d * 4 < self.len() {
            return false;
        }
        let Some(_build) = self.filter_build.try_lock() else {
            return false; // a (re)build is already running
        };
        self.merge_pending_range(V::MIN_VALUE, V::MAX_VALUE);
        self.build_and_publish_filter();
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_filter_rebuilds_total").inc();
        }
        true
    }

    /// The shared filter (re)build: walks the published snapshot plus the
    /// unmerged pending inserts into a fresh filter and publishes it
    /// (replacing any previous filter). Caller holds `filter_build`.
    fn build_and_publish_filter(&self) {
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_filter_builds_total").inc();
        }
        // Deletes queued from here on count against the *new* filter.
        self.filter_deletes.store(0, Relaxed);
        // Built before `structure` is taken shared: the first build takes
        // it exclusively.
        self.read_or_build_snapshot(|_| ());
        let _shared = self.structure.read();
        let (snap, backlog) = self
            .read_snapshot(PendingUpdates::len)
            .expect("a published snapshot is never withdrawn");
        // Slack covers the pending backlog plus a churn allowance; a filter
        // overwhelmed by delete churn is replaced wholesale by
        // [`CrackerColumn::maybe_rebuild_point_filter`], never resized.
        let filter = Arc::new(PointFilter::with_capacity(snap.len() + backlog + 1024));
        for piece in snap.pieces() {
            piece.for_each(|v| filter.insert(v.as_i64()));
        }
        let p = self.pending.lock();
        p.queue.for_each_unmerged(
            |_| true,
            |v, kind| {
                if matches!(kind, UnmergedKind::Insert) {
                    filter.insert(v.as_i64());
                }
            },
        );
        self.filter.publish(filter);
    }

    /// Amortised snapshot maintenance after an expensive edge filter: for
    /// each non-sentinel bound, merge the pending updates of the bound's
    /// piece, crack the live bound without blocking (skipped on latch
    /// contention), and replace **only the snapshot piece containing the
    /// bound** with copies at live granularity. Copy cost is the edge
    /// piece's size — interior pieces of the scanned range are already
    /// served O(1) from their aggregates and are never copied. Runs under
    /// `structure` *shared* — Ripple merges are excluded for the
    /// copy-publish window, concurrent cracks are isolated per piece by
    /// read latches.
    fn refresh_snapshot(&self, pred: Predicate<V>, scratch: &mut CrackScratch<V>) {
        if pred.lo != V::MIN_VALUE {
            self.refresh_bound(pred.lo, scratch);
        }
        if pred.hi != V::MAX_VALUE {
            self.refresh_bound(pred.hi, scratch);
        }
    }

    /// One bound's refresh: see [`CrackerColumn::refresh_snapshot`].
    fn refresh_bound(&self, v: V, scratch: &mut CrackScratch<V>) {
        // The pending overlay already keeps snapshot answers exact, so a
        // refresh only merges when the backlog is large enough that the
        // per-scan overlay cost matters — a snapshot-only workload still
        // cannot grow the queue without bound, but a snapshot reader does
        // not queue behind the exclusive merge lock for a handful of
        // updates some locked query will merge anyway.
        if self.pending.lock().queue.len() > Self::REFRESH_MERGE_BACKLOG {
            self.merge_pending_for_piece_of(v);
        }
        let _shared = self.structure.read();
        if self.crack_bound(v, scratch, false).is_none() {
            return; // bound piece latched elsewhere — retry on a later scan
        }
        // Anchors of the point range [v, succ(v)): exactly the snapshot
        // piece(s) the bound falls into.
        let (a, b, encoded) = self.snapshot_anchors(v, Self::succ(v));
        let mid = self.copy_live_pieces(a, b, true, encoded);
        self.splice_and_publish(a, b, mid, None);
    }

    /// Background snapshot maintenance (an idle holistic worker's job):
    /// refreshes the *stalest* published snapshot piece — the largest one
    /// whose value range the live cracker index has already split further —
    /// to live granularity, so the first unlucky reader stops paying the
    /// copy. Piece choice reuses the published plan-time statistics (the
    /// planner's staleness stat) instead of walking the live index; both
    /// anchor keys are snapshot boundaries, which are always live
    /// boundaries, so staleness of the summary can only make the pick
    /// suboptimal, never wrong. Runs under `structure` *shared* with
    /// per-piece read latches, exactly like a reader-triggered refresh.
    ///
    /// Returns `true` when a piece was refreshed (`false`: no snapshot, or
    /// its piece table already matches the live granularity the summary
    /// sees).
    pub fn refresh_stale_snapshot(&self) -> bool {
        let Some(stats) = self.piece_stats() else {
            return false;
        };
        let Some(snap_pieces) = stats.snap_pieces.as_ref() else {
            return false;
        };
        // Largest snapshot piece with a live boundary that splits it into
        // two non-empty halves. The *position* check matters: a boundary
        // of an empty live piece sits at the edge position, its "split"
        // copies the same pieces back (empty pieces are skipped), and a
        // key-only check would pick that piece forever.
        let mut lo_key: Option<V> = None;
        let mut best: Option<(usize, Option<V>, Option<V>, bool)> = None;
        for piece in snap_pieces {
            let (hi_key, len) = (piece.hi_key, piece.len);
            let from = match lo_key {
                None => 0,
                Some(k) => stats.bounds.partition_point(|&(b, _)| b <= k),
            };
            let to = match hi_key {
                None => stats.bounds.len(),
                Some(k) => stats.bounds.partition_point(|&(b, _)| b < k),
            };
            let pos_lo = if from == 0 {
                0
            } else {
                stats.bounds[from - 1].1
            };
            let pos_hi = if to < stats.bounds.len() {
                stats.bounds[to].1
            } else {
                stats.len
            };
            // First interior boundary past the piece's start position;
            // positions are non-decreasing, so one binary search decides.
            let interior = &stats.bounds[from..to];
            let split = interior.partition_point(|&(_, p)| p <= pos_lo);
            let refreshable = split < interior.len() && interior[split].1 < pos_hi;
            if refreshable && best.as_ref().is_none_or(|&(l, _, _, _)| len > l) {
                best = Some((len, lo_key, hi_key, !piece.plain));
            }
            lo_key = hi_key;
        }
        let Some((_, a, b, encoded)) = best else {
            return false;
        };
        let before = self.snapshot_piece_count();
        let _shared = self.structure.read();
        // A refresh of an already-morphed piece goes straight back into
        // encoded form — the copies land compressed, so the background
        // refresh loop no longer re-plains what the morpher encoded.
        let mid = self.copy_live_pieces(a, b, true, encoded);
        self.splice_and_publish(a, b, mid, None);
        drop(_shared);
        // Republish immediately so a refresh loop converges on fresh
        // staleness instead of re-picking the same piece.
        self.publish_stats();
        // Progress guard: with a stride-sampled boundary table the
        // position check above can misjudge (sampled positions only
        // bracket the truth), so a refresh that did not actually split
        // anything reports `false` — callers looping "refresh until done"
        // terminate instead of re-copying the same piece forever.
        let refreshed = self.snapshot_piece_count() > before;
        if refreshed && holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_snapshot_refreshes_total").inc();
        }
        refreshed
    }

    /// Plain snapshot pieces shorter than this are never re-encoded: the
    /// fixed per-segment overhead dominates and edge refreshes would churn
    /// them right back to plain.
    pub const MORPH_MIN: usize = 256;

    /// Background segment morphing (an idle holistic worker's job): picks
    /// the largest *plain* snapshot piece of at least
    /// [`CrackerColumn::MORPH_MIN`] values whose sorted form compresses
    /// (FOR / delta / RLE — see [`Segment::encoded`]) and republishes it as
    /// an encoded segment through the same COW-splice a refresh uses, so
    /// readers never block and `snapshot_bytes` drops by exactly the saved
    /// backing size. Returns `true` when a piece was morphed (`false`: no
    /// snapshot, or no remaining plain piece compresses).
    ///
    /// Runs under `structure` *shared*, which excludes Ripple merges — the
    /// only multiset-changing writers — for the copy-encode-splice window:
    /// concurrent cracks merely permute values inside live pieces and never
    /// touch the immutable snapshot, and a racing per-bound refresh can at
    /// worst overwrite this morph's piece with finer plain copies of the
    /// *same* multiset (granularity lost, never correctness).
    pub fn morph_cold_segments(&self) -> bool {
        let _shared = self.structure.read();
        // Candidate plain pieces, largest first. Values are copied and
        // encoded LAZILY, one candidate at a time — most calls stop at the
        // first (largest) piece, so a call never materialises more than
        // one piece's values even over a snapshot full of plain pieces.
        let Some(snap) = self.snapshot() else {
            return false;
        };
        let mut lo_key = None;
        let mut order: Vec<(Option<V>, &SnapPiece<V>)> = Vec::new();
        for piece in snap.pieces() {
            if piece.is_plain() && piece.len() >= Self::MORPH_MIN {
                order.push((lo_key, piece));
            }
            lo_key = piece.hi_key;
        }
        order.sort_by_key(|&(_, piece)| std::cmp::Reverse(piece.len()));
        let mut morphed = false;
        for (a, piece) in order {
            let b = piece.hi_key;
            let vals = piece
                .plain_values()
                .expect("candidate piece is plain")
                .to_vec();
            let n = vals.len();
            let seg = Segment::encoded(vals, Arc::clone(&self.snap_bytes));
            if seg.is_plain() {
                continue; // no scheme beats plain here — try the next piece
            }
            let piece = SnapPiece::new(b, Arc::new(seg), 0, n);
            self.splice_and_publish(a, b, vec![piece], None);
            morphed = true;
            break;
        }
        // The version the candidates borrow from goes before the byte
        // count is read again: the plain segment just replaced is freed
        // with it.
        drop(snap);
        drop(_shared);
        if morphed {
            // Republish stats so the planner's decode-cost term and the
            // staleness pick see the encoded piece immediately.
            self.publish_stats();
            if holix_telemetry::metrics_enabled() {
                holix_telemetry::counter!("cracking_segment_morphs_total").inc();
            }
        }
        morphed
    }

    /// The published snapshot's boundary keys bracketing `[lo, hi)`:
    /// `a` = greatest snapshot boundary `<= lo` (`None` = column-min side),
    /// `b` = least snapshot boundary `>= hi` (`None` = column-max side).
    /// Snapshot boundaries are a subset of live boundaries (boundaries are
    /// never removed and snapshots are built from live pieces), so both
    /// anchors are exact lookups in the live index; and because concurrent
    /// publishes only ever *refine* piece tables, anchors stay valid
    /// splice points even if another refresh lands in between.
    ///
    /// Caller holds a structure lock (any mode) so merges cannot run.
    /// Besides the anchors, reports whether any replaced piece of the span
    /// is encoded — the refresh then re-encodes its copies instead of
    /// spilling them plain ([`CrackerColumn::copy_live_pieces`]).
    fn snapshot_anchors(&self, lo: V, hi: V) -> (Option<V>, Option<V>, bool) {
        let Some(snap) = self.snapshot() else {
            return (None, None, false);
        };
        let (a, b) = snap.anchors(lo, hi);
        (a, b, snap.span_has_encoded(lo, hi))
    }

    /// Copies the live pieces covering `[a, b)` (both anchors are live
    /// boundary keys, `None` = column edge) into fresh snapshot pieces.
    /// With `latched`, each piece is copied under its read latch (caller
    /// holds `structure` shared; concurrent cracks of *other* pieces
    /// proceed); otherwise the caller holds `structure` exclusively.
    /// With `encode`, copies of at least [`CrackerColumn::MORPH_MIN`]
    /// values go straight through [`Segment::encoded`] — a refresh that
    /// replaces already-morphed pieces keeps them compressed instead of
    /// re-materialising plain and waiting for the morpher (no transient
    /// footprint spike). Empty pieces are skipped — scans treat the
    /// uncovered key as part of the neighbouring piece's range, which only
    /// widens the conservative edge-filter check.
    fn copy_live_pieces(
        &self,
        a: Option<V>,
        b: Option<V>,
        latched: bool,
        encode: bool,
    ) -> Vec<SnapPiece<V>> {
        let mut out = Vec::new();
        let mut cur = a;
        loop {
            let Some(p) = self.index.read().piece_after(cur) else {
                debug_assert!(false, "snapshot anchor {cur:?} is not a live boundary");
                break;
            };
            let (vals, hi_key) = if latched {
                let _g = p.latch.lock_read();
                // Revalidate under the latch: the piece may have split
                // since the lookup (its start and latch are stable; only
                // the extent can shrink).
                let Some(q) = self.index.read().piece_after(cur) else {
                    break;
                };
                // SAFETY: read latch on the piece excludes its writers;
                // `structure` shared excludes vector moves.
                (
                    unsafe { self.vals.read_range(q.start, q.end) }.to_vec(),
                    q.hi_key,
                )
            } else {
                // SAFETY: `structure` exclusive — no live mutators at all.
                (
                    unsafe { self.vals.read_range(p.start, p.end) }.to_vec(),
                    p.hi_key,
                )
            };
            if !vals.is_empty() {
                let n = vals.len();
                let seg = if encode && n >= Self::MORPH_MIN {
                    Segment::encoded(vals, Arc::clone(&self.snap_bytes))
                } else {
                    Segment::new(vals, Arc::clone(&self.snap_bytes))
                };
                out.push(SnapPiece::new(hi_key, Arc::new(seg), 0, n));
            }
            match (hi_key, b) {
                (None, _) => break,
                (Some(k), Some(bk)) if k >= bk => break,
                (key, _) => cur = key,
            }
        }
        out
    }

    /// [`CrackerColumn::splice_multi_and_publish`] for a single span.
    fn splice_and_publish(
        &self,
        a: Option<V>,
        b: Option<V>,
        mid: Vec<SnapPiece<V>>,
        finish: Option<u64>,
    ) {
        self.splice_multi_and_publish(vec![(a, b, mid)], finish);
    }

    /// Publishes a new snapshot that replaces, for each span `(a, b, mid)`
    /// (ascending, disjoint), every piece covering the value range `[a, b)`
    /// with `mid` — sharing every run of the piece table no span reaches
    /// into ([`PieceSnapshot::splice`]) and the segments of every
    /// untouched piece, including interior pieces *between* the spans of
    /// one sparse wide merge. The one store of the published pointer: it
    /// runs under the pending mutex (the reader linearisation point), and
    /// `finish` clears an in-flight merge batch in the same critical
    /// section, so readers switch from "old snapshot + in-flight items" to
    /// "new snapshot" atomically. The replaced version is let go after the
    /// mutex; its memory goes when the last reader holding it does.
    ///
    /// Caller holds a structure lock (exclusive for merges/builds, shared
    /// for refreshes).
    fn splice_multi_and_publish(&self, spans: Vec<SpliceSpan<V>>, finish: Option<u64>) {
        let mut p = self.pending.lock();
        let new = match &p.snap {
            None => {
                debug_assert!(
                    spans.len() <= 1,
                    "first publish is at most one whole-column span"
                );
                PieceSnapshot::new(
                    spans
                        .into_iter()
                        .next()
                        .map(|(_, _, m)| m)
                        .unwrap_or_default(),
                )
            }
            // Both anchors of every span must still be boundaries of
            // *this* snapshot. A morph republishes a span as one piece, so
            // a refresh that took interior anchors before it can arrive
            // stale; it gives up (the next scan refreshes again). Merges
            // hold `structure` exclusively between anchor lookup and
            // splice and cannot be stale.
            Some(old) => match old.splice(spans) {
                Some(new) => new,
                None => {
                    debug_assert!(finish.is_none(), "a merge's anchors went stale");
                    return;
                }
            },
        };
        let old = p.snap.replace(Arc::new(new));
        if let Some(token) = finish {
            p.queue.finish_merge(token);
        }
        // Freeing the replaced version can free O(column) bytes of
        // segments: not under the reader linearisation lock.
        drop(p);
        drop(old);
        self.bump_stats();
    }

    // ------------------------------------------------------------------
    // Verification / instrumentation
    // ------------------------------------------------------------------

    /// Select plus an exclusive checksum scan of the qualifying range. Used
    /// by tests and verification modes; concurrent refinements between the
    /// select and the scan are harmless (they only permute inside the
    /// range), concurrent *updates* are the caller's responsibility.
    pub fn select_verified(
        &self,
        pred: Predicate<V>,
        scratch: &mut CrackScratch<V>,
    ) -> (Selection, RangeStats) {
        let sel = self.select(pred, scratch);
        let _exclusive = self.structure.write();
        // SAFETY: exclusive structure lock — no live mutators.
        let slice = unsafe { self.vals.read_range(sel.start, sel.end) };
        (sel, holix_storage::select::slice_stats(slice))
    }

    /// Copies the values in cracked positions `[start, end)` (exclusive
    /// access for the duration of the copy). Used by consolidation in the
    /// chunked variants and by verification code.
    pub fn snapshot_range(&self, start: usize, end: usize) -> Vec<V> {
        let _exclusive = self.structure.write();
        // SAFETY: exclusive structure lock — no live mutators.
        unsafe { self.vals.read_range(start, end) }.to_vec()
    }

    /// Atomically copies the *base-table row ids* currently in
    /// `[pred.lo, pred.hi)`. Both bounds must already be boundaries (run
    /// `select` first to crack them); the bounds are re-located *under the
    /// exclusive structure lock*, so the copy is a consistent snapshot of
    /// the merged state at one instant even when Ripple merges shifted
    /// positions since the select. `None` when a non-sentinel bound is not
    /// an exact boundary — callers fall back to per-term execution.
    /// Conjunction execution collects the driver term's row ids here and
    /// probes the remaining attributes positionally in the base table. The
    /// first call on a column born without row ids builds them (one pass
    /// over its base, under the lock this call holds anyway).
    pub fn collect_row_ids(&self, pred: Predicate<V>) -> Option<Vec<RowId>> {
        if pred.is_empty() {
            return Some(Vec::new());
        }
        let _exclusive = self.structure.write();
        let idx = self.index.read();
        let start = if pred.lo == V::MIN_VALUE {
            0
        } else {
            match idx.locate(pred.lo) {
                BoundLookup::Exact(p) => p,
                BoundLookup::Piece { .. } => return None,
            }
        };
        let end = if pred.hi == V::MAX_VALUE {
            idx.len()
        } else {
            match idx.locate(pred.hi) {
                BoundLookup::Exact(p) => p,
                BoundLookup::Piece { .. } => return None,
            }
        };
        drop(idx);
        // SAFETY: exclusive structure lock — no live mutators, and every
        // merge builds the ids before it applies anything.
        unsafe { self.ensure_row_ids() };
        Some(unsafe { self.rows.read_range(start, end.max(start)) }.to_vec())
    }

    /// Panics unless every cracking invariant holds. When `base` is given
    /// (and no updates ran), also checks that the column is a permutation
    /// of the base tuples it was built from — all of `base`, or those in
    /// its shard's value range: value/rowid alignment and distinct row
    /// ids once the column stores them, the sorted values against the
    /// sorted base filter while it does not.
    pub fn check_invariants(&self, base: Option<&[V]>) {
        let _exclusive = self.structure.write();
        let idx = self.index.read();
        let n = idx.len();
        let has_rows = self.has_row_ids();
        // SAFETY: exclusive structure lock.
        let vals = unsafe { self.vals.read_range(0, n) };
        let rows = unsafe { self.rows.read_range(0, if has_rows { n } else { 0 }) };
        assert_eq!(vals.len(), n);
        assert_eq!(self.rows.len(), rows.len(), "row ids beyond the column");

        let bounds = idx.bounds_in_order();
        for w in bounds.windows(2) {
            assert!(w[0].1 <= w[1].1, "bound positions must be non-decreasing");
        }
        let mut prev_key: Option<V> = None;
        let mut prev_pos = 0usize;
        for &(key, pos) in bounds.iter().chain(std::iter::once(&(V::MAX_VALUE, n))) {
            for &v in &vals[prev_pos..pos] {
                if let Some(pk) = prev_key {
                    assert!(v >= pk, "value {v:?} below piece lower key {pk:?}");
                }
                // `key` may be MAX_VALUE sentinel for the last piece; values
                // equal to MAX_VALUE are then legal.
                if key != V::MAX_VALUE || pos != n {
                    assert!(v < key, "value {v:?} not below boundary key {key:?}");
                }
            }
            prev_key = Some(key);
            prev_pos = pos;
        }

        if let Some(base) = base {
            let of_column = |v: V| self.row_source.as_ref().is_none_or(|s| s.holds(v));
            let mut expected: Vec<V> = base.iter().copied().filter(|&v| of_column(v)).collect();
            assert_eq!(expected.len(), n, "column length vs its base tuples");
            if has_rows {
                // `n` distinct rows, each holding its slot's value, out of
                // the `n` base rows the column covers: a permutation.
                let mut seen = vec![false; base.len()];
                for (i, (&v, &r)) in vals.iter().zip(rows).enumerate() {
                    assert_eq!(
                        base[r as usize], v,
                        "misaligned rowid at cracked position {i}"
                    );
                    assert!(of_column(v), "value {v:?} outside the column's source");
                    assert!(!seen[r as usize], "duplicate rowid {r}");
                    seen[r as usize] = true;
                }
            } else {
                let mut stored = vals.to_vec();
                stored.sort_unstable();
                expected.sort_unstable();
                assert!(stored == expected, "stored values are not the base's");
            }
        }
    }
}

impl<V: CrackValue> std::fmt::Debug for CrackerColumn<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrackerColumn")
            .field("name", &self.name)
            .field("len", &self.len())
            .field("pieces", &self.piece_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_storage::select::scan_stats;
    use rand::prelude::*;

    fn column(n: usize, seed: u64) -> (Vec<i64>, CrackerColumn<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<i64> = (0..n).map(|_| rng.random_range(0..1_000)).collect();
        let col = CrackerColumn::from_base("a", &base);
        (base, col)
    }

    #[test]
    fn first_select_cracks_and_matches_scan() {
        let (base, col) = column(10_000, 1);
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(100, 400);
        let (sel, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&base, pred));
        assert_eq!(sel.count(), stats.count);
        assert!(!sel.exact_hit());
        col.check_invariants(Some(&base));
    }

    #[test]
    fn repeated_select_is_exact_hit_and_touches_nothing() {
        let (_, col) = column(10_000, 2);
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(100, 400);
        let first = col.select(pred, &mut scratch);
        assert!(first.touched > 0);
        let second = col.select(pred, &mut scratch);
        assert!(second.exact_hit());
        assert_eq!(second.touched, 0);
        assert_eq!((second.start, second.end), (first.start, first.end));
    }

    #[test]
    fn threaded_select_matches_scan_oracle() {
        // PVDC: query-path cracks gang four threads on one piece.
        let mut rng = StdRng::seed_from_u64(1);
        let base: Vec<i64> = (0..300_000).map(|_| rng.random_range(0..100_000)).collect();
        let col = CrackerColumn::from_base("a", &base).with_threads(4, 1);
        let mut scratch = CrackScratch::new();
        for _ in 0..30 {
            let a = rng.random_range(0..100_000);
            let b = rng.random_range(0..100_000);
            let pred = Predicate::range(a.min(b), a.max(b));
            let (_, stats) = col.select_verified(pred, &mut scratch);
            assert_eq!(stats, scan_stats(&base, pred));
        }
        col.check_invariants(Some(&base));
    }

    #[test]
    fn threaded_cracks_agree_with_sequential_cracking() {
        let mut rng = StdRng::seed_from_u64(2);
        let base: Vec<i64> = (0..200_000).map(|_| rng.random_range(0..50_000)).collect();
        let par = CrackerColumn::from_base("p", &base).with_threads(8, 1);
        let seq = CrackerColumn::from_base("s", &base);
        let mut scratch = CrackScratch::new();
        for i in 0..20 {
            let lo = i * 2_000;
            let pred = Predicate::range(lo, lo + 10_000);
            let sp = par.select(pred, &mut scratch);
            let ss = seq.select(pred, &mut scratch);
            assert_eq!(sp.count(), ss.count());
        }
        assert_eq!(par.piece_count(), seq.piece_count());
    }

    #[test]
    fn successive_queries_touch_less() {
        let (base, col) = column(50_000, 3);
        let mut scratch = CrackScratch::new();
        let mut rng = StdRng::seed_from_u64(33);
        let mut prev_pieces = col.piece_count();
        for _ in 0..100 {
            let a = rng.random_range(0..1_000);
            let b = rng.random_range(0..1_000);
            let pred = Predicate::range(a.min(b), a.max(b));
            let (_, stats) = col.select_verified(pred, &mut scratch);
            assert_eq!(stats, scan_stats(&base, pred));
            assert!(col.piece_count() >= prev_pieces);
            prev_pieces = col.piece_count();
        }
        col.check_invariants(Some(&base));
        assert!(col.piece_count() > 100);
    }

    #[test]
    fn one_sided_predicates() {
        let (base, col) = column(5_000, 4);
        let mut scratch = CrackScratch::new();
        for hi in [0, 1, 500, 999, 1_000] {
            let pred = Predicate::less_than(hi);
            let (sel, stats) = col.select_verified(pred, &mut scratch);
            assert_eq!(stats, scan_stats(&base, pred), "hi={hi}");
            assert_eq!(sel.start, 0);
        }
        let pred = Predicate::at_least(500);
        let (sel, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&base, pred));
        assert_eq!(sel.end, base.len());
    }

    #[test]
    fn crack_in_three_used_for_fresh_column() {
        let (base, col) = column(5_000, 5);
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(300, 600);
        let sel = col.select(pred, &mut scratch);
        // Both bounds in the single initial piece → one pass over the piece.
        assert_eq!(sel.touched, base.len());
        assert_eq!(col.piece_count(), 3);
    }

    #[test]
    fn refine_at_splits_pieces() {
        let (base, col) = column(5_000, 6);
        let mut scratch = CrackScratch::new();
        assert!(matches!(
            col.refine_at(500, &mut scratch),
            RefineOutcome::Refined { .. }
        ));
        assert!(matches!(
            col.refine_at(500, &mut scratch),
            RefineOutcome::AlreadyBound
        ));
        assert_eq!(col.piece_count(), 2);
        col.check_invariants(Some(&base));
    }

    #[test]
    fn refine_busy_when_piece_latched() {
        let (_, col) = column(5_000, 7);
        let mut scratch = CrackScratch::new();
        // Latch the only piece by hand.
        let latch = match col.index.read().locate(500) {
            BoundLookup::Piece { latch, .. } => latch,
            _ => panic!(),
        };
        let guard = latch.lock_write();
        assert_eq!(col.refine_at(500, &mut scratch), RefineOutcome::Busy);
        drop(guard);
        assert!(matches!(
            col.refine_at(500, &mut scratch),
            RefineOutcome::Refined { .. }
        ));
    }

    #[test]
    fn refine_random_converges_to_small_pieces() {
        let (base, col) = column(20_000, 8);
        let mut scratch = CrackScratch::new();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..500 {
            col.refine_random(&mut rng, &mut scratch, 4);
        }
        assert!(col.piece_count() > 100);
        assert!(col.avg_piece_len() < base.len() / 100);
        col.check_invariants(Some(&base));
    }

    #[test]
    fn concurrent_queries_and_refiners_preserve_invariants() {
        let (base, col) = column(100_000, 9);
        crossbeam::thread::scope(|s| {
            for t in 0..4 {
                let col = &col;
                s.spawn(move |_| {
                    let mut rng = StdRng::seed_from_u64(100 + t);
                    let mut scratch = CrackScratch::new();
                    for _ in 0..200 {
                        let a = rng.random_range(0..1_000);
                        let b = rng.random_range(0..1_000);
                        col.select(Predicate::range(a.min(b), a.max(b)), &mut scratch);
                    }
                });
            }
            for t in 0..4 {
                let col = &col;
                s.spawn(move |_| {
                    let mut rng = StdRng::seed_from_u64(200 + t);
                    let mut scratch = CrackScratch::new();
                    for _ in 0..500 {
                        col.refine_random(&mut rng, &mut scratch, 8);
                    }
                });
            }
        })
        .unwrap();
        col.check_invariants(Some(&base));
        // And results are still correct afterwards.
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(250, 750);
        let (_, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&base, pred));
    }

    #[test]
    fn updates_merge_on_select() {
        let (mut base, col) = column(10_000, 10);
        let mut scratch = CrackScratch::new();
        // Crack a bit first.
        col.select(Predicate::range(200, 700), &mut scratch);
        // Queue inserts, two of which fall in the probed range.
        let n = base.len() as RowId;
        for (i, v) in [250i64, 650, 900].into_iter().enumerate() {
            col.queue_insert(v, n + i as RowId);
            base.push(v);
        }
        assert_eq!(col.pending_len(), 3);
        let pred = Predicate::range(200, 700);
        let (_, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&base, pred));
        assert_eq!(col.pending_len(), 1); // 900 still pending
        col.check_invariants(None);
    }

    #[test]
    fn deletes_merge_on_select() {
        let (base, col) = column(1_000, 11);
        let mut scratch = CrackScratch::new();
        col.select(Predicate::range(100, 800), &mut scratch);
        // Delete the first base row whose value is in [100, 800).
        let (victim_row, victim_val) = base
            .iter()
            .enumerate()
            .find(|(_, &v)| (100..800).contains(&v))
            .map(|(i, &v)| (i as RowId, v))
            .unwrap();
        col.queue_delete(victim_val, victim_row);
        let pred = Predicate::range(100, 800);
        let (_, stats) = col.select_verified(pred, &mut scratch);
        let mut expect = scan_stats(&base, pred);
        expect.count -= 1;
        expect.sum -= victim_val as i128;
        assert_eq!(stats, expect);
        col.check_invariants(None);
    }

    #[test]
    fn empty_predicate_short_circuits() {
        let (_, col) = column(100, 12);
        let mut scratch = CrackScratch::new();
        let sel = col.select(Predicate::range(10, 10), &mut scratch);
        assert_eq!(sel.count(), 0);
        assert_eq!(col.piece_count(), 1);
    }

    #[test]
    fn empty_column() {
        let col = CrackerColumn::<i64>::from_base("e", &[]);
        let mut scratch = CrackScratch::new();
        let sel = col.select(Predicate::range(0, 10), &mut scratch);
        assert_eq!(sel.count(), 0);
        assert_eq!(col.domain(), None);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            col.refine_random(&mut rng, &mut scratch, 3),
            RefineOutcome::AlreadyBound
        );
    }

    #[test]
    fn snapshot_scan_matches_oracle_and_refreshes_granularity() {
        let (base, col) = column(50_000, 20);
        let mut scratch = CrackScratch::new();
        assert!(!col.snapshot_published());
        // First snapshot read: builds the snapshot (one coarse piece),
        // filters everything, then refreshes to live granularity.
        let pred = Predicate::range(200, 600);
        let scan = col.snapshot_scan(pred, &mut scratch);
        let oracle = scan_stats(&base, pred);
        assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
        assert!(col.snapshot_published());
        assert!(
            scan.filtered >= base.len(),
            "cold snapshot filters the column"
        );
        // The refresh cracked the live bounds and split the snapshot piece.
        let again = col.snapshot_scan(pred, &mut scratch);
        assert_eq!((again.count, again.sum), (oracle.count, oracle.sum));
        assert_eq!(again.filtered, 0, "refreshed snapshot needs no filtering");
        assert!(col.snapshot_piece_count() >= 3);
        // Sentinel (one-sided) predicates.
        for pred in [Predicate::less_than(300), Predicate::at_least(700)] {
            let scan = col.snapshot_scan(pred, &mut scratch);
            let oracle = scan_stats(&base, pred);
            assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
        }
        col.check_invariants(Some(&base));
    }

    #[test]
    fn snapshot_sees_pending_updates_without_merging() {
        let (mut base, col) = column(10_000, 21);
        let mut scratch = CrackScratch::new();
        col.select(Predicate::range(100, 900), &mut scratch);
        let pred = Predicate::range(0, 1_000);
        // Publish a snapshot, then queue updates *after* it.
        col.snapshot_scan(pred, &mut scratch);
        let n = base.len() as RowId;
        col.queue_insert(250, n);
        col.queue_insert(750, n + 1);
        base.push(250);
        base.push(750);
        let victim = base.iter().position(|&v| (300..700).contains(&v)).unwrap();
        col.queue_delete(base[victim], victim as RowId);
        let removed = base.remove(victim);
        let _ = removed;
        // Unmerged updates must be visible immediately (pending overlay) …
        let scan = col.snapshot_scan(pred, &mut scratch);
        let oracle = scan_stats(&base, pred);
        assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
        // … and still after a locked select forces the Ripple merge + COW
        // splice (snapshot republished with the merged pieces).
        let (_, locked) = col.select_verified(pred, &mut scratch);
        assert_eq!(locked, oracle);
        let scan = col.snapshot_scan(pred, &mut scratch);
        assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
        col.check_invariants(None);
    }

    #[test]
    fn snapshot_collect_matches_filtered_base() {
        let (mut base, col) = column(20_000, 22);
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(300, 700);
        col.snapshot_scan(pred, &mut scratch); // publish + refresh
        let n = base.len() as RowId;
        col.queue_insert(350, n); // stays pending: overlay must add it
        base.push(350);
        let mut got = Vec::new();
        let scan = col.snapshot_collect(pred, &mut scratch, &mut got);
        got.sort_unstable();
        let mut want: Vec<i64> = base
            .iter()
            .copied()
            .filter(|&v| (300..700).contains(&v))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(scan.count as usize, want.len());
    }

    #[test]
    fn a_held_snapshot_keeps_its_multiset_and_its_bytes_across_merges() {
        let (base, col) = column(20_000, 23);
        let mut scratch = CrackScratch::new();
        let full = Predicate::range(0, 1_000);
        col.snapshot_scan(full, &mut scratch);
        let base_bytes = base.len() * std::mem::size_of::<i64>();
        // Crack-heavy loop with Ripple merges: every merge replaces the
        // snapshot. With no reader holding a replaced version, live
        // snapshot bytes stay bounded by the column size, not by the
        // number of versions.
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..60 {
            let v = rng.random_range(0..1_000);
            col.queue_insert(v, (base.len() + i) as RowId);
            col.select(Predicate::range(v.saturating_sub(5), v + 5), &mut scratch);
            col.refine_random(&mut rng, &mut scratch, 4);
            col.snapshot_scan(full, &mut scratch);
        }
        let settled = col.snapshot_bytes();
        assert!(
            settled <= 2 * base_bytes,
            "snapshot bytes grew unbounded: {settled} vs column {base_bytes}"
        );
        // A reader that holds a version open …
        let held = col.snapshot().expect("published above");
        let before = held.stats(full.lo, full.hi);
        for i in 0..20 {
            let v = rng.random_range(0..1_000);
            col.queue_insert(v, (base.len() + 100 + i) as RowId);
            col.select(Predicate::range(v.saturating_sub(5), v + 5), &mut scratch);
        }
        // … still scans the multiset it started with, while the column
        // has moved on,
        let again = held.stats(full.lo, full.hi);
        assert_eq!((again.count, again.sum), (before.count, before.sum));
        let now = col.snapshot_scan(full, &mut scratch);
        assert_eq!(now.count, before.count + 20);
        // keeps the segments only its version references charged,
        let held_bytes = col.snapshot_bytes();
        assert!(
            held_bytes > settled,
            "a held version's segments stay charged ({held_bytes} vs {settled})"
        );
        // and frees them by letting go — nothing else has to run.
        drop(held);
        let after = col.snapshot_bytes();
        assert!(after < held_bytes, "bytes after the reader left: {after}");
        assert!(
            after <= 2 * base_bytes,
            "bytes after the reader left: {after}"
        );
    }

    #[test]
    fn concurrent_snapshot_scans_with_cracks_and_merges() {
        let (base, col) = column(60_000, 24);
        let full = Predicate::range(0, 1_000);
        let base_stats = scan_stats(&base, full);
        // Updaters insert value 7 and delete their own inserts, so at any
        // instant count == base + (inserts applied - deletes applied) and
        // sum == base_sum + 7 * that delta — a torn read would break the
        // coupling between count and sum.
        crossbeam::thread::scope(|s| {
            for t in 0..2 {
                let col = &col;
                s.spawn(move |_| {
                    let mut scratch = CrackScratch::new();
                    let mut rng = StdRng::seed_from_u64(400 + t);
                    for i in 0..150 {
                        let row = 1_000_000 + (t as RowId) * 10_000 + i;
                        col.queue_insert(7, row);
                        col.select(Predicate::range(0, 20), &mut scratch); // merge
                        col.queue_delete(7, row);
                        if rng.random_range(0..2) == 0 {
                            col.select(Predicate::range(0, 20), &mut scratch);
                        }
                    }
                });
            }
            for t in 0..2 {
                let col = &col;
                s.spawn(move |_| {
                    let mut scratch = CrackScratch::new();
                    let mut rng = StdRng::seed_from_u64(500 + t);
                    for _ in 0..300 {
                        col.refine_random(&mut rng, &mut scratch, 4);
                    }
                });
            }
            for t in 0..2 {
                let col = &col;
                s.spawn(move |_| {
                    let mut scratch = CrackScratch::new();
                    for _ in 0..200 {
                        let scan = col.snapshot_scan(full, &mut scratch);
                        let delta = scan.count as i128 - base_stats.count as i128;
                        assert!(delta >= 0, "snapshot lost base tuples");
                        assert_eq!(
                            scan.sum - base_stats.sum,
                            7 * delta,
                            "count/sum decoupled: torn snapshot (delta={delta})"
                        );
                        let _ = t;
                    }
                });
            }
        })
        .unwrap();
        // Quiesce: merge the remaining pending ops and compare all paths.
        let mut scratch = CrackScratch::new();
        col.merge_pending_range(i64::MIN, i64::MAX);
        let scan = col.snapshot_scan(full, &mut scratch);
        let (_, locked) = col.select_verified(full, &mut scratch);
        assert_eq!((scan.count, scan.sum), (locked.count, locked.sum));
        assert_eq!((scan.count, scan.sum), (base_stats.count, base_stats.sum));
        col.check_invariants(None);
    }

    #[test]
    fn sparse_wide_merge_shares_interior_pieces() {
        let (base, col) = column(50_000, 30);
        let mut scratch = CrackScratch::new();
        // Crack the live index fine, then publish a snapshot at that
        // granularity (ensure_snapshot copies per live piece).
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..40 {
            let a = rng.random_range(0..1_000);
            let b = rng.random_range(0..1_000);
            let lo = a.min(b);
            col.select(Predicate::range(lo, a.max(b).max(lo + 1)), &mut scratch);
        }
        let full = Predicate::range(0, 1_000);
        col.snapshot_scan(full, &mut scratch);
        let pieces = col.snapshot_piece_count();
        assert!(pieces > 20, "setup failed to produce a fine snapshot");
        // Hold the current version so what it alone references stays
        // charged: the byte delta below then measures exactly what the
        // merge splice *copied*.
        let before = col.snapshot_bytes();
        let _held = col.snapshot();
        let n = base.len() as RowId;
        col.queue_insert(2, n);
        col.queue_insert(997, n + 1);
        // One wide select merges both pending items in a single batch
        // whose anchor span covers nearly the whole column.
        let (_, stats) = col.select_verified(full, &mut scratch);
        let mut expect = scan_stats(&base, full);
        expect.count += 2;
        expect.sum += 2 + 997;
        assert_eq!(stats, expect);
        let copied = col.snapshot_bytes() - before;
        // Sharing keeps the copy to the two touched edge clusters — a few
        // pieces' worth, not the whole anchor span. (The old single-span
        // splice copied ~all 50k values here: ~400 KB.)
        let budget = (base.len() / pieces).max(1) * std::mem::size_of::<i64>() * 8;
        assert!(
            copied <= budget,
            "wide sparse merge copied {copied} bytes (budget {budget}); \
             interior pieces were not shared"
        );
        // And the snapshot still answers exactly.
        let scan = col.snapshot_scan(full, &mut scratch);
        assert_eq!((scan.count, scan.sum), (expect.count, expect.sum));
    }

    #[test]
    fn stale_snapshot_refresh_converges_without_readers() {
        let (base, col) = column(60_000, 40);
        let mut scratch = CrackScratch::new();
        let full = Predicate::range(0, 1_000);
        // Publish while the column is coarse …
        col.snapshot_scan(full, &mut scratch);
        let coarse = col.snapshot_piece_count();
        // … then crack the live index far past the snapshot's granularity.
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..60 {
            let a = rng.random_range(0..1_000);
            let b = rng.random_range(0..1_000);
            let lo = a.min(b);
            col.select(Predicate::range(lo, a.max(b).max(lo + 1)), &mut scratch);
        }
        col.publish_stats();
        assert!(col.piece_count() > coarse + 40, "setup cracked too little");
        // Idle-worker refreshes converge the snapshot with NO reader ever
        // paying the copy; the position guard makes the loop terminate.
        // Each round refreshes one stale piece to live granularity, so the
        // loop converges in about as many rounds as the coarse snapshot
        // had refreshable pieces.
        let mut rounds = 0;
        while col.refresh_stale_snapshot() {
            rounds += 1;
            assert!(rounds < 10_000, "refresh loop did not converge");
        }
        assert!(rounds >= 1, "refreshes never ran");
        assert!(
            col.snapshot_piece_count() > coarse + 40,
            "snapshot piece table did not chase the live index \
             ({} snapshot vs {} live pieces)",
            col.snapshot_piece_count(),
            col.piece_count()
        );
        // The first reader after convergence pays no big edge filter and
        // still answers exactly.
        let scan = col.snapshot_scan(full, &mut scratch);
        let oracle = scan_stats(&base, full);
        assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
        assert!(
            scan.filtered < CrackerColumn::<i64>::REFRESH_FILTER_MIN,
            "reader still paid {} filtered values",
            scan.filtered
        );
    }

    #[test]
    fn morph_cold_segments_shrinks_bytes_and_keeps_scans_exact() {
        // Domain 0..1_000 → a FOR-packed piece needs ≤ 10 bits/value
        // instead of 64: every big piece compresses.
        let (base, col) = column(60_000, 70);
        let mut scratch = CrackScratch::new();
        assert!(!col.morph_cold_segments(), "no snapshot yet");
        let full = Predicate::range(0, 1_000);
        col.snapshot_scan(full, &mut scratch); // publish
        for (a, b) in [(100, 400), (550, 800), (250, 650)] {
            col.select(Predicate::range(a, b), &mut scratch);
        }
        col.publish_stats();
        while col.refresh_stale_snapshot() {}
        let plain_bytes = col.snapshot_bytes();
        assert!(plain_bytes >= base.len() * 8, "snapshot not at full width");
        // Each morph strictly decreases `snapshot_bytes`: the replaced
        // plain segment goes with the version that held it.
        let mut last = plain_bytes;
        let mut morphs = 0;
        while col.morph_cold_segments() {
            let now = col.snapshot_bytes();
            assert!(now < last, "morph {morphs} did not shrink: {last} -> {now}");
            last = now;
            morphs += 1;
            assert!(morphs < 10_000, "morph loop did not converge");
        }
        assert!(morphs >= 1, "no piece ever morphed");
        assert!(
            last * 4 <= plain_bytes,
            "10-bit FOR pieces should shrink ≥4x: {plain_bytes} -> {last}"
        );
        // Published stats expose the encoded pieces to the planner.
        let stats = col.piece_stats().unwrap();
        let pieces = stats.snap_pieces.as_ref().unwrap();
        assert!(pieces.iter().any(|p| !p.plain), "stats still all-plain");
        // Scans on the compressed form stay exact, edge filters included.
        for pred in [full, Predicate::range(123, 777), Predicate::less_than(450)] {
            let scan = col.snapshot_scan(pred, &mut scratch);
            let oracle = scan_stats(&base, pred);
            assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
            let mut got = Vec::new();
            col.snapshot_collect(pred, &mut scratch, &mut got);
            got.sort_unstable();
            let mut want: Vec<i64> = base
                .iter()
                .copied()
                .filter(|&v| pred.matches_unbounded(v))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "collect diverged on {pred:?}");
        }
        // Updates after the morph stay visible through the overlay and the
        // next merge splice.
        let n = base.len() as RowId;
        assert!(col.queue_insert(500, n));
        let scan = col.snapshot_scan(full, &mut scratch);
        let oracle = scan_stats(&base, full);
        assert_eq!((scan.count, scan.sum), (oracle.count + 1, oracle.sum + 500));
    }

    #[test]
    fn stale_refresh_after_a_coarsening_morph_loses_nothing() {
        // The three-step race, replayed in order: a morph loads a piece and
        // encodes it (slow) while a refresh refines that piece; a second
        // refresh takes its anchors from the refined table; the morph then
        // splices its one coarse piece back, and the second refresh lands
        // on anchors that are no longer snapshot boundaries.
        let (base, col) = column(60_000, 91);
        let mut scratch = CrackScratch::new();
        let full = Predicate::range(0, 1_000);
        col.select(Predicate::range(200, 800), &mut scratch);
        col.snapshot_scan(full, &mut scratch); // publish [..200) [200,800) [800..)
        let morphed = {
            let snap = col.snapshot().unwrap();
            let piece = snap.pieces().nth(1).expect("three pieces");
            assert_eq!(piece.hi_key, Some(800));
            let vals = piece.plain_values().unwrap().to_vec();
            let n = vals.len();
            let seg = Segment::encoded(vals, Arc::clone(&col.snap_bytes));
            SnapPiece::new(Some(800), Arc::new(seg), 0, n)
        };
        col.refresh_bound(500, &mut scratch); // [200,800) -> [200,500) [500,800)
        col.refine_at_blocking(650, &mut scratch);
        let (a, b, _) = col.snapshot_anchors(650, 651);
        assert_eq!((a, b), (Some(500), Some(800)));
        let mid = col.copy_live_pieces(a, b, true, false);
        col.splice_and_publish(Some(200), Some(800), vec![morphed], None);
        col.splice_and_publish(a, b, mid, None);
        for pred in [full, Predicate::range(300, 700), Predicate::less_than(450)] {
            let scan = col.snapshot_scan(pred, &mut scratch);
            let oracle = scan_stats(&base, pred);
            assert_eq!(
                (scan.count, scan.sum),
                (oracle.count, oracle.sum),
                "{pred:?}"
            );
        }
    }

    #[test]
    fn refresh_keeps_morphed_pieces_encoded() {
        // Encoded-refresh satellite: once a piece is morphed, a background
        // refresh that replaces it must land its copies back in encoded
        // form — not re-plain it and wait for the morpher again.
        let (base, col) = column(60_000, 73);
        let mut scratch = CrackScratch::new();
        let full = Predicate::range(0, 1_000);
        col.snapshot_scan(full, &mut scratch); // publish
        for (a, b) in [(100, 400), (550, 800)] {
            col.select(Predicate::range(a, b), &mut scratch);
        }
        col.publish_stats();
        while col.refresh_stale_snapshot() {}
        while col.morph_cold_segments() {}
        let encoded_bytes = col.snapshot_bytes();
        let encoded_pieces = |col: &CrackerColumn<i64>| {
            let stats = col.piece_stats().unwrap();
            let pieces = stats.snap_pieces.as_ref().unwrap();
            pieces.iter().filter(|p| !p.plain).count()
        };
        assert!(encoded_pieces(&col) >= 1, "setup morphed nothing");
        // Crack the live index past the snapshot's granularity again, so
        // the morphed pieces become the stalest ones …
        for (a, b) in [(150, 350), (600, 750), (200, 700)] {
            col.select(Predicate::range(a, b), &mut scratch);
        }
        col.publish_stats();
        // … and let the background refresh loop converge.
        let mut rounds = 0;
        while col.refresh_stale_snapshot() {
            rounds += 1;
            assert!(rounds < 10_000, "refresh loop did not converge");
        }
        assert!(rounds >= 1, "nothing was stale after re-cracking");
        assert!(
            encoded_pieces(&col) >= 1,
            "refresh re-plained every morphed piece"
        );
        // The refreshed-and-re-encoded snapshot stays compact: nowhere near
        // the plain footprint (64 bits/value over a 10-bit domain).
        assert!(
            col.snapshot_bytes() < encoded_bytes * 2,
            "refresh blew the footprint back up: {} vs {encoded_bytes}",
            col.snapshot_bytes()
        );
        // And still answers exactly, collects included.
        for pred in [full, Predicate::range(123, 777)] {
            let scan = col.snapshot_scan(pred, &mut scratch);
            let oracle = scan_stats(&base, pred);
            assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
        }
    }

    #[test]
    fn piece_stats_publish_and_lock_free_reads() {
        let (_, col) = column(20_000, 50);
        let mut scratch = CrackScratch::new();
        let s0 = col.piece_stats().expect("stats published at build");
        assert_eq!(s0.piece_count, 1);
        assert_eq!(s0.len, 20_000);
        col.select(Predicate::range(200, 700), &mut scratch);
        col.queue_insert(5, 1_000_000);
        col.publish_stats();
        let s1 = col.piece_stats().unwrap();
        assert_eq!(s1.piece_count, 3);
        assert_eq!(s1.pending, 1);
        let hit = s1.locate(200, true);
        assert!(
            hit.exact && hit.end == hit.start,
            "cracked bound must be an exact hit"
        );
        let miss = s1.locate(450, true);
        assert!(!miss.exact && miss.end > miss.start);
        // Reads stay available while a writer holds the structure lock
        // exclusively (the planner prices queries while writers work).
        let guard = col.hold_locks_for_test();
        let s2 = col.piece_stats().expect("stats readable under writer");
        assert_eq!(s2.piece_count, 3);
        drop(guard);
        // Amortised republication: small deltas below the threshold do not
        // republish, the daemon's forced delta of 1 does.
        col.select(Predicate::range(100, 900), &mut scratch);
        col.maybe_publish_stats(64);
        assert_eq!(col.piece_stats().unwrap().piece_count, 3, "delta too small");
        col.maybe_publish_stats(1);
        assert!(col.piece_stats().unwrap().piece_count > 3);
    }

    #[test]
    fn sealed_column_rejects_updates_but_keeps_reading() {
        let (base, col) = column(5_000, 60);
        let mut scratch = CrackScratch::new();
        assert!(col.queue_insert(250, 5_000));
        col.seal_for_migration();
        assert!(col.is_sealed());
        assert!(!col.queue_insert(300, 5_001));
        assert!(!col.queue_delete(250, 5_000));
        // Reads (and the merge of the already-accepted insert) still work.
        let pred = Predicate::range(100, 400);
        let (_, stats) = col.select_verified(pred, &mut scratch);
        let mut expect = scan_stats(&base, pred);
        expect.count += 1;
        expect.sum += 250;
        assert_eq!(stats, expect);
    }

    #[test]
    fn extract_for_migration_merges_pending_and_keeps_snapshot_exact() {
        let (mut base, col) = column(10_000, 61);
        let mut scratch = CrackScratch::new();
        col.select(Predicate::range(200, 700), &mut scratch);
        let full = Predicate::range(0, 1_001);
        col.snapshot_scan(full, &mut scratch); // publish a snapshot
        let n = base.len() as RowId;
        assert!(col.queue_insert(431, n));
        base.push(431);
        assert!(col.queue_delete(base[0], 0));
        base.remove(0);
        let (vals, rows) = col.extract_for_migration();
        assert_eq!(vals.len(), base.len());
        assert_eq!(rows.len(), vals.len());
        let mut got = vals.clone();
        got.sort_unstable();
        let mut want = base.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        // Old-plan readers still answer exactly from the republished
        // snapshot, and new updates bounce.
        let scan = col.snapshot_scan(full, &mut scratch);
        let oracle = scan_stats(&base, full);
        assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
        assert!(!col.queue_insert(1, 999_999));
        col.check_invariants(None);
    }

    #[test]
    fn point_filter_rebuild_recovers_fpr_after_mass_deletes() {
        let n = 4_096usize;
        let base: Vec<i64> = (0..n as i64).map(|i| i * 2).collect();
        let col = CrackerColumn::from_base("f", &base);
        col.ensure_point_filter();
        assert!(!col.maybe_rebuild_point_filter(), "no churn yet");
        // Delete the top three quarters of the keys.
        let cut = (n as i64 / 4) * 2;
        for (i, &v) in base.iter().enumerate() {
            if v >= cut {
                assert!(col.queue_delete(v, i as RowId));
            }
        }
        // The stale filter still claims every deleted key is present.
        assert_eq!(col.probe_point(cut), Some(true));
        assert!(col.point_filter_staleness() * 4 >= col.len());
        assert!(col.maybe_rebuild_point_filter());
        assert_eq!(col.point_filter_staleness(), 0);
        // Surviving keys keep probing present (no false negatives) …
        for &v in &base[..n / 4] {
            assert_eq!(col.probe_point(v), Some(true));
        }
        // … and the deleted keys' false-positive rate collapses.
        let fp = base[n / 4..]
            .iter()
            .filter(|&&v| col.probe_point(v) == Some(true))
            .count();
        assert!(
            fp * 10 < n - n / 4,
            "rebuild left {fp}/{} stale keys probing present",
            n - n / 4
        );
    }
}
