#![deny(unsafe_code)]
//! [`CrackerColumn`] — a cracker column `ACRK` plus its cracker index, safe
//! for concurrent query-driven cracking and background refinement.
//!
//! ## Locking protocol
//!
//! The structure lock, the cracker index and the value and row-id cells
//! form one `holds::Structure`, whose lock hands out the only ways to the
//! cells. Three layers, always acquired in this order and never
//! re-entrantly:
//!
//! 1. the structure lock — a `Shared` hold for every piece operation
//!    (cracks, refinements, snapshot reads, the point-filter build), an
//!    `Exclusive` one for whatever moves boundaries or grows the vectors
//!    (Ripple merges, the row-id build) and for the verification reads;
//! 2. `index` RwLock — piece metadata (boundary map + latches), held only
//!    for lookups and boundary insertion, never across data movement;
//! 3. `pending` mutex — the pending-update queue, taken on its own or under
//!    a hold, never around either lock. A merge takes the whole queue
//!    *under* an exclusive hold, so batches apply in the order they leave
//!    the queue and none is in flight under a shared one.
//!
//! The point filter is written once, under `pending`, and read with no
//! lock. The planner prices a query from the live index
//! ([`CrackerColumn::with_index`], then [`CrackerColumn::pending_len`]),
//! never nested and never under a hold, so an estimate waits out a Ripple
//! walk (which holds `index` for writing) and nothing else.
//!
//! Under a shared hold a piece is reached only latched (`holds::Piece`):
//! for writing to crack it, for reading to read it. An operation latches
//! **one** piece at a time (a range query cracks its bounds one after the
//! other, or both in the one piece that holds them), and never blocks on a
//! latch under the index lock, so latches cannot deadlock. A user query
//! waits for a latch, a holistic worker only tries and re-picks its pivot.
//! The one lookup → latch → revalidate routine looks the key up again
//! under the latch, as the piece may split in between.
//!
//! ## Snapshot reads
//!
//! [`CrackerColumn::snapshot_scan`] answers count/sum queries from the
//! cracked column itself, as the paper's reads do (§3). Under a shared hold
//! (no merge runs, so every key range's multiset is fixed) it folds the
//! pending overlay under the pending mutex (the linearisation point),
//! answers the pieces inside its range from the prefix sums at the two ends
//! of their run ([`CrackerIndex::interior`]) and filters the at most two
//! edge pieces under their read latches. The prefix sums are a one-way
//! switch: the first snapshot read of a column computes them
//! ([`CrackerIndex::sum_pieces`], under an exclusive hold); from then on
//! every crack gives its new boundary a prefix and every merge adds each
//! value to the prefix of every boundary above it. A column no snapshot
//! read has asked about keeps no sums, and its cracks and merges pay none.
//!
//! ## Batched Ripple
//!
//! Locked reads answer over the queue too: [`CrackerColumn::select`] and
//! its kin fold the unmerged updates their predicate selects under the
//! pending mutex. Only a queue past [`CrackerColumn::MERGE_BACKLOG`] is
//! merged first — whole, one [`ripple_batch`] walk that keeps the prefix
//! sums. Idle workers drain from [`CrackerColumn::DRAIN_DUE`] queued
//! updates ([`CrackerColumn::drain_in_background`]), taking the structure
//! lock only when it is free, so on a column the workers keep up with,
//! reads only count the queue.
//!
//! ## Row ids on demand
//!
//! The paper's cracker column is an array of (value, rowid) pairs. A
//! column built by [`CrackerColumn::from_base`] / [`CrackerColumn::from_parts`]
//! stores both from birth; a shard of a [`crate::ShardedColumn`] stores
//! **values only** and keeps what its row ids can be re-derived from: its
//! base, its value range and the write log of its merges
//! (`row_ids::RowSource`). Its cracks move values alone (the partition
//! kernels are generic over the row lane, [`crate::RowLane`]), and so do
//! its merges: the source logs each batch — live merged inserts as `(value,
//! row)` pairs, deleted base rows — and answers which deletes name a
//! present tuple, which the walk matches by value. The first of the two
//! operations that read a row id ([`CrackerColumn::collect_row_ids`],
//! [`CrackerColumn::extract_for_migration`], both under an exclusive hold)
//! builds the array from that description against the boundary table of
//! the moment (same multiset in every piece, so the prefix sums and the
//! point filter stay valid) and drops the log. The state flips once; from
//! then on merges move the ids along and match a delete by `(value, row)`.

use crate::filter::PointFilter;
use crate::holds::{Exclusive, Latched, Piece, Shared, Structure, Write};
use crate::index::{sum_of, CrackerIndex};
use crate::kernels;
use crate::partition::{partition_three, partition_two};
use crate::row_ids::RowSource;
use crate::updates::{ripple_batch, PendingUpdates, UnmergedKind};
use crate::vectorized::CrackScratch;
use holix_storage::select::{Predicate, RangeStats};
use holix_storage::types::RowId;
use parking_lot::Mutex;
use rand::Rng;
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::sync::OnceLock;

/// The row lane of a crack over `len` values of a column without row ids:
/// a slice of `()` (a length, no memory — see [`crate::RowLane`]).
fn no_rows(len: usize) -> Vec<()> {
    vec![(); len]
}

/// Count and sum deltas of the unmerged updates `pred` selects: what a read
/// of the merged column lacks. Allocation-free; callers run it inside the
/// pending mutex, their linearisation point.
fn overlay(queue: &PendingUpdates, pred: Predicate) -> (i64, i128) {
    let (mut count, mut sum) = (0i64, 0i128);
    queue.for_each_unmerged(
        |v| pred.matches_unbounded(v),
        |v, kind| {
            let sign = match kind {
                UnmergedKind::Insert => 1,
                UnmergedKind::Delete => -1,
            };
            count += sign;
            sum += sign as i128 * v as i128;
        },
    );
    (count, sum)
}

/// Count + sum of the `vals` in `[lo, hi)` under the sentinel-aware
/// predicate semantics ([`Predicate::matches_unbounded`]: a `MIN`/`MAX`
/// bound is unbounded), through the branchless lane filter: a snapshot
/// read's edge filter.
fn filter_stats(vals: &[i64], lo: i64, hi: i64) -> (u64, i128) {
    let lo = (lo != i64::MIN).then_some(lo);
    let hi = (hi != i64::MAX).then_some(hi);
    kernels::filter_count(vals, lo, hi)
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
    /// Net qualifying tuples still in the pending queue: inserts minus
    /// deletes whose value satisfies the predicate.
    pub pending: i64,
}

impl Selection {
    /// Number of qualifying tuples: the column range plus the unmerged
    /// updates in the predicate.
    pub fn count(&self) -> u64 {
        ((self.end - self.start) as i64 + self.pending).max(0) as u64
    }

    /// Both bounds were exact hits — the paper's `f_Ih` statistic counts
    /// these queries.
    pub fn exact_hit(&self) -> bool {
        self.hit_lo && self.hit_hi
    }
}

/// Result of one snapshot read ([`CrackerColumn::snapshot_scan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotScan {
    /// Qualifying-value count.
    pub count: u64,
    /// Qualifying-value sum (widened).
    pub sum: i128,
    /// Values inspected element-wise in the (at most two) edge pieces —
    /// the read's crack trigger ([`CrackerColumn::REFRESH_FILTER_MIN`]).
    pub filtered: usize,
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

/// A cracker column: copy of a base column (values + row ids) that is
/// incrementally reorganised by queries and holistic workers.
pub struct CrackerColumn {
    name: String,
    /// The structure lock with the index and the value and row-id cells
    /// it guards.
    structure: Structure,
    /// Where the row ids of a column born without them come from: its
    /// base, its range and, once merges wrote to it, their log.
    row_source: Option<RowSource>,
    pending: Mutex<PendingUpdates>,
    /// Observed value domain (base ∪ pending inserts) as `(lo, hi)`, empty
    /// while `lo > hi`: random pivots and stochastic's outer pieces are
    /// drawn from it. Inserts widen each end on its own, so a read may see
    /// one end moved and not the other.
    domain: (AtomicI64, AtomicI64),
    /// Thread budget of query-driven cracks: user queries may gang threads
    /// on one big piece.
    select_threads: usize,
    /// Thread budget of background refinements (one per idle context).
    refine_threads: usize,
    /// Point-membership filter, built by the first equality/IN query and
    /// never replaced.
    filter: OnceLock<PointFilter>,
    /// Serialises filter builds, so racing probes pay one walk.
    filter_build: Mutex<()>,
}

impl CrackerColumn {
    /// Copies a base column into a fresh cracker column (the paper's
    /// "first time an attribute is required, a copy of the base column is
    /// created").
    pub fn from_base(name: impl Into<String>, base: &[i64]) -> Self {
        Self::from_base_offset(name, base, 0)
    }

    /// Builds a cracker column whose row ids start at `offset` — chunked
    /// variants (P-CCGI) crack per-chunk copies that must still report
    /// global base-table positions.
    pub fn from_base_offset(name: impl Into<String>, base: &[i64], offset: RowId) -> Self {
        let rows = (offset..offset + base.len() as RowId).collect();
        Self::from_parts(name, base.to_vec(), rows)
    }

    /// Builds a cracker column from pre-partitioned values with explicit
    /// (non-contiguous) row ids — horizontal shards hand each shard the
    /// subset of base tuples whose values fall in its range while keeping
    /// global base-table positions.
    pub fn from_parts(name: impl Into<String>, vals: Vec<i64>, rows: Vec<RowId>) -> Self {
        assert_eq!(vals.len(), rows.len(), "values/row-ids length mismatch");
        let domain = Self::domain_of(&vals);
        Self::build(name, vals, Some(rows), None, &[], domain)
    }

    /// Smallest and largest of `vals` (`None` when empty).
    fn domain_of(vals: &[i64]) -> Option<(i64, i64)> {
        vals.first().map(|&first| {
            vals.iter()
                .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)))
        })
    }

    /// A column over exactly the tuples of `source`, in any order inside
    /// the range partition `bounds` describes (`key → position`, keys
    /// strictly increasing, which the layout already satisfies); `domain`
    /// is the smallest and largest value (`None` only when empty). It is
    /// born with `bounds.len() + 1` pieces and **no row ids**: those are
    /// built from `source` when a conjunction or a migration first needs
    /// them.
    pub(crate) fn from_source(
        name: impl Into<String>,
        vals: Vec<i64>,
        source: RowSource,
        bounds: &[(i64, usize)],
        domain: Option<(i64, i64)>,
    ) -> Self {
        debug_assert_eq!(domain, Self::domain_of(&vals), "not the values' domain");
        Self::build(name, vals, None, Some(source), bounds, domain)
    }

    fn build(
        name: impl Into<String>,
        vals: Vec<i64>,
        rows: Option<Vec<RowId>>,
        row_source: Option<RowSource>,
        bounds: &[(i64, usize)],
        domain: Option<(i64, i64)>,
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
            index.insert_bound(key, pos, 0);
        }
        CrackerColumn {
            name: name.into(),
            structure: Structure::new(vals, rows, index),
            row_source,
            pending: Mutex::new(PendingUpdates::new()),
            domain: {
                let (lo, hi) = domain.unwrap_or((i64::MAX, i64::MIN));
                (AtomicI64::new(lo), AtomicI64::new(hi))
            },
            select_threads: 1,
            refine_threads: 1,
            filter: OnceLock::new(),
            filter_build: Mutex::new(()),
        }
    }

    /// Sets the thread budgets of query-driven cracks and of background
    /// refinements (both default to 1; the thread-split experiments of §5.1
    /// differ). A crack gangs its budget only on pieces long enough for it
    /// to pay off ([`crate::partition::DEFAULT_MIN_PARALLEL`]).
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
        self.structure.index.read().len()
    }

    /// `true` if no merged values exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current number of pieces.
    pub fn piece_count(&self) -> usize {
        self.structure.index.read().piece_count()
    }

    /// Average piece length `N/p` (Equation 1 input).
    pub fn avg_piece_len(&self) -> usize {
        self.structure.index.read().avg_piece_len()
    }

    /// Observed value domain, if any values exist.
    pub fn domain(&self) -> Option<(i64, i64)> {
        let (lo, hi) = (self.domain.0.load(Relaxed), self.domain.1.load(Relaxed));
        (lo <= hi).then_some((lo, hi))
    }

    /// Bytes one resident tuple costs: its value, and its row id once the
    /// column stores them (`ids`) — for every budget, built or not.
    pub const fn tuple_bytes(ids: bool) -> usize {
        std::mem::size_of::<i64>() + if ids { std::mem::size_of::<RowId>() } else { 0 }
    }

    /// Bytes held by values + row ids (once built) or the merges' write
    /// log (until then) + index, its prefix sums included
    /// (storage-budget accounting).
    pub fn payload_bytes(&self) -> usize {
        self.len() * Self::tuple_bytes(self.has_row_ids())
            + self.row_source.as_ref().map_or(0, RowSource::log_bytes)
            + self.structure.index.read().approx_bytes()
    }

    /// Does the column store a row id per value? Always, unless it is a
    /// shard no conjunction or migration has asked for one yet.
    pub fn has_row_ids(&self) -> bool {
        self.structure.has_rows()
    }

    /// Builds the row-id array of a column born without one: one pass over
    /// the base and the merges' write log scatters the column's (value,
    /// row) pairs into the pieces of the current boundary table
    /// ([`RowSource::scatter`]), the same multiset in every piece, so the
    /// prefix sums and the point filter stay valid. Under the exclusive
    /// `hold` no merge is half applied.
    fn ensure_row_ids(&self, hold: &mut Exclusive<'_>) {
        if self.has_row_ids() {
            return;
        }
        let source = self
            .row_source
            .as_ref()
            .expect("a column without row ids was born from a source");
        let timed = holix_telemetry::metrics_enabled().then(std::time::Instant::now);
        let bounds = self.structure.index.read().bounds_in_order();
        hold.build_rows(|vals, rows| source.scatter(&bounds, vals, rows));
        if let Some(t0) = timed {
            holix_telemetry::counter!("cracking_row_id_builds_total").inc();
            holix_telemetry::histogram!("cracking_row_id_build_ns")
                .record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// `f` of the cracker index under one `index` read, no latch and no
    /// hold: the planner prices both bounds of a predicate through it.
    pub fn with_index<R>(&self, f: impl FnOnce(&CrackerIndex) -> R) -> R {
        f(&self.structure.index.read())
    }

    /// Test-only: holds the column's structure lock exclusively, as a
    /// Ripple merge or a row-id build does, so tests can assert which
    /// reads still complete beside it.
    #[doc(hidden)]
    pub fn hold_structure_for_test(&self) -> impl Sized + '_ {
        self.structure.write()
    }

    /// Draws a uniform random pivot from the observed domain.
    pub fn random_pivot(&self, rng: &mut impl Rng) -> Option<i64> {
        let (lo, hi) = self.domain()?;
        if lo == hi {
            return Some(lo);
        }
        Some(rng.random_range(lo..=hi))
    }

    // ------------------------------------------------------------------
    // Select path (user queries)
    // ------------------------------------------------------------------

    /// Range select `lo <= v < hi` with query-driven cracking: ensures both
    /// bounds are boundaries (cracking at most two pieces, or one in three
    /// when both bounds share it) and returns the contiguous qualifying
    /// range of the merged column, with the net count of the pending
    /// updates in the predicate ([`Selection::pending`]). Only a queue past
    /// [`CrackerColumn::MERGE_BACKLOG`] is merged first, as one Ripple batch
    /// (\[28\]).
    pub fn select(&self, pred: Predicate, scratch: &mut CrackScratch) -> Selection {
        let sel = self.select_inner(pred, scratch);
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_selects_total").inc();
            let cracks = (!sel.hit_lo as u64) + (!sel.hit_hi as u64);
            if cracks > 0 {
                holix_telemetry::counter!("cracking_cracks_total").add(cracks);
            }
        }
        sel
    }

    /// The count of `pred` when the column has already answered it — both
    /// bounds are boundaries (or sentinels) and the queue is within
    /// [`CrackerColumn::MERGE_BACKLOG`], exactly when
    /// [`CrackerColumn::select`] would crack and merge nothing — and `None`
    /// otherwise. Never cracks, merges or latches a piece. Under a shared
    /// hold no merge moves a position between the lookups and the overlay
    /// fold, the linearisation point; the lookups come first, so a bound
    /// that still has to crack never takes the pending mutex.
    pub fn count_exact(&self, pred: Predicate) -> Option<u64> {
        if pred.is_empty() {
            return Some(0);
        }
        let _shared = self.read_structure();
        let (lo, hi) = Self::exact_span(&self.structure.index.read(), pred)?;
        let pending = self.pending.lock();
        if pending.len() > Self::MERGE_BACKLOG {
            return None;
        }
        let (delta, _) = overlay(&pending, pred);
        Some(((hi - lo) as i64 + delta).max(0) as u64)
    }

    /// A shared hold for a read. One that finds the lock taken (a merge or a
    /// row-id build holds it, or waits for it) records its wait in the
    /// `cracking_structure_wait_ns` histogram; one that takes it at once
    /// reads no clock.
    fn read_structure(&self) -> Shared<'_> {
        if let Some(shared) = self.structure.try_read() {
            return shared;
        }
        let timed = holix_telemetry::metrics_enabled().then(std::time::Instant::now);
        let shared = self.structure.read();
        if let Some(t0) = timed {
            holix_telemetry::histogram!("cracking_structure_wait_ns")
                .record(t0.elapsed().as_nanos() as u64);
        }
        shared
    }

    /// Cracked positions of `pred`'s bounds when both are boundaries (or
    /// the `MIN`/`MAX` sentinels); `None` otherwise.
    fn exact_span(idx: &CrackerIndex, pred: Predicate) -> Option<(usize, usize)> {
        let lo = if pred.lo == i64::MIN {
            0
        } else {
            idx.exact(pred.lo)?
        };
        let hi = if pred.hi == i64::MAX {
            idx.len()
        } else {
            idx.exact(pred.hi)?
        };
        Some((lo, hi.max(lo)))
    }

    fn select_inner(&self, pred: Predicate, scratch: &mut CrackScratch) -> Selection {
        if pred.is_empty() {
            return Selection {
                start: 0,
                end: 0,
                hit_lo: true,
                hit_hi: true,
                touched: 0,
                pending: 0,
            };
        }
        self.merge_past_backlog();

        let shared = self.read_structure();
        // Under a shared hold no merge is in flight: the queue holds
        // exactly what the column lacks, and cracks cannot change that.
        let (pending, _) = overlay(&self.pending.lock(), pred);

        // The lower bound's piece, latched; when it holds the upper bound
        // too, one three-way crack places both.
        let mut cracked_hi = None;
        let lo = match pred.lo {
            i64::MIN => Latched::Exact(0),
            lo => shared.crack(lo, true, |piece| {
                if pred.hi != i64::MAX && piece.holds_above(pred.hi) {
                    let (a, b, len) = self.crack_three(piece, pred, scratch);
                    cracked_hi = Some(b);
                    (a, len)
                } else {
                    self.crack_two(piece, lo, self.select_threads, scratch)
                }
            }),
        };
        let hi = match cracked_hi {
            Some(pos) => Latched::Piece((pos, 0)),
            None if pred.hi == i64::MAX => Latched::Exact(self.structure.index.read().len()),
            None => self.crack_bound(&shared, pred.hi, true, scratch),
        };
        let [(lo_pos, touched_lo), (hi_pos, touched_hi)] = [lo, hi].map(|bound| match bound {
            Latched::Exact(pos) => (pos, 0),
            Latched::Piece(cracked) => cracked,
            Latched::Busy => unreachable!("a waiting crack is never Busy"),
        });

        Selection {
            start: lo_pos,
            end: hi_pos.max(lo_pos),
            hit_lo: matches!(lo, Latched::Exact(_)),
            hit_hi: matches!(hi, Latched::Exact(_)),
            touched: touched_lo + touched_hi,
            pending,
        }
    }

    /// Ensures `v` is a boundary, cracking its piece on the select
    /// (`wait`) or the refine thread budget: the boundary's position and
    /// the length of the piece cracked, `Exact` when it was a boundary.
    fn crack_bound(
        &self,
        shared: &Shared<'_>,
        v: i64,
        wait: bool,
        scratch: &mut CrackScratch,
    ) -> Latched<(usize, usize)> {
        let threads = if wait {
            self.select_threads
        } else {
            self.refine_threads
        };
        shared.crack(v, wait, |piece| self.crack_two(piece, v, threads, scratch))
    }

    /// Cracks the latched `piece` at `v` and publishes the new boundary,
    /// with the sum below it on a summed column, before the latch goes.
    /// Returns the boundary's position and the piece's length.
    fn crack_two(
        &self,
        mut piece: Piece<'_, Write>,
        v: i64,
        threads: usize,
        scratch: &mut CrackScratch,
    ) -> (usize, usize) {
        let (start, len, summed) = (piece.start(), piece.len(), piece.summed());
        let (split, below) = piece.lanes(|vals, rows| {
            let split = match rows {
                Some(rows) => partition_two(vals, rows, v, threads, scratch),
                None => partition_two(vals, &mut no_rows(len), v, threads, scratch),
            };
            // A summed column's new boundary takes the sum below it.
            (split, if summed { sum_of(&vals[..split]) } else { 0 })
        });
        self.structure
            .index
            .write()
            .insert_bound(v, start + split, below);
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_piece_splits_total").inc();
        }
        (start + split, len)
    }

    /// Cracks the latched `piece`, which holds both of `pred`'s bounds, in
    /// three and publishes both boundaries, each with the sum of the part
    /// below it on a summed column. Returns their positions and the
    /// piece's length.
    fn crack_three(
        &self,
        mut piece: Piece<'_, Write>,
        pred: Predicate,
        scratch: &mut CrackScratch,
    ) -> (usize, usize, usize) {
        let (start, len, summed) = (piece.start(), piece.len(), piece.summed());
        let (lo, hi, threads) = (pred.lo, pred.hi, self.select_threads);
        let (a, b, below_a, below_b) = piece.lanes(|vals, rows| {
            let (a, b) = match rows {
                Some(rows) => partition_three(vals, rows, lo, hi, threads, scratch),
                None => partition_three(vals, &mut no_rows(len), lo, hi, threads, scratch),
            };
            // A summed column's two new boundaries take the sums of the
            // parts below them, from the values just partitioned.
            if summed {
                (a, b, sum_of(&vals[..a]), sum_of(&vals[a..b]))
            } else {
                (a, b, 0, 0)
            }
        });
        let mut idx = self.structure.index.write();
        idx.insert_bound(lo, start + a, below_a);
        idx.insert_bound(hi, start + b, below_b);
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_piece_splits_total").add(2);
        }
        (start + a, start + b, len)
    }

    // ------------------------------------------------------------------
    // Refinement path (holistic workers)
    // ------------------------------------------------------------------

    /// One background refinement at `pivot`. Non-blocking: a latched piece
    /// yields [`RefineOutcome::Busy`] so the worker can re-pick a pivot
    /// (Fig 3(d)–(e) of the paper). Whatever is pending is merged first, as
    /// one batch, when the structure lock is free, so workers also bring
    /// indices up to date (§4.2); a column a read holds keeps its queue for
    /// later, as in [`CrackerColumn::drain_in_background`].
    pub fn refine_at(&self, pivot: i64, scratch: &mut CrackScratch) -> RefineOutcome {
        if self.pending_len() > 0 {
            self.try_merge(false);
        }
        match self.crack_bound(&self.structure.read(), pivot, false, scratch) {
            Latched::Busy => RefineOutcome::Busy,
            Latched::Exact(_) => RefineOutcome::AlreadyBound,
            Latched::Piece((_, touched)) => {
                if holix_telemetry::metrics_enabled() {
                    holix_telemetry::counter!("cracking_refinements_total").inc();
                }
                RefineOutcome::Refined { piece_len: touched }
            }
        }
    }

    /// Blocking refinement (used by single-threaded baselines, the
    /// auxiliary cracks of stochastic selects, and tests). Merges only past
    /// the backlog, as a select does.
    pub fn refine_at_blocking(&self, pivot: i64, scratch: &mut CrackScratch) -> RefineOutcome {
        self.merge_past_backlog();
        match self.crack_bound(&self.structure.read(), pivot, true, scratch) {
            Latched::Busy => unreachable!("a waiting crack is never Busy"),
            Latched::Exact(_) => RefineOutcome::AlreadyBound,
            Latched::Piece((_, touched)) => RefineOutcome::Refined { piece_len: touched },
        }
    }

    /// Draws random pivots until one lands on a free piece (at most
    /// `max_attempts` draws) and refines there.
    pub fn refine_random(
        &self,
        rng: &mut impl Rng,
        scratch: &mut CrackScratch,
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

    /// Queues an insertion; reads count it from the queue until a merge
    /// applies it. Returns `false`, queueing nothing, once the column is
    /// sealed for shard migration (the caller re-routes the update).
    pub fn queue_insert(&self, v: i64, row: RowId) -> bool {
        {
            let mut p = self.pending.lock();
            if p.is_sealed() {
                return false;
            }
            p.queue_insert(v, row);
            // Same critical section that the filter build's catch-up and
            // `set` run in, so this insert lands in the filter: either the
            // build's `for_each_unmerged` pass sees it queued, or the set
            // happened first and the OR below does.
            if let Some(f) = self.filter.get() {
                f.insert(v);
            }
        }
        self.domain.0.fetch_min(v, Relaxed);
        self.domain.1.fetch_max(v, Relaxed);
        true
    }

    /// Queues a deletion of the value previously inserted for `row`, a
    /// tuple that is merged or pending (a merge silently drops a delete of
    /// an absent one, which reads count until then). Returns `false`,
    /// queueing nothing, once the column is sealed for shard migration.
    pub fn queue_delete(&self, v: i64, row: RowId) -> bool {
        let mut p = self.pending.lock();
        if p.is_sealed() {
            return false;
        }
        p.queue_delete(v, row);
        true
    }

    /// Number of unmerged pending operations.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().len()
    }

    /// Pending-queue length above which a read (a select, a blocking
    /// refinement, a snapshot read's cracks) first merges the queue: below
    /// it, counting the queue beside the column is cheaper than a merge.
    pub const MERGE_BACKLOG: usize = 256;

    /// [`CrackerColumn::merge_pending`] once the queue holds more than
    /// [`CrackerColumn::MERGE_BACKLOG`] updates.
    fn merge_past_backlog(&self) {
        if self.pending_len() > Self::MERGE_BACKLOG {
            self.merge_pending();
        }
    }

    /// Queue length from which an idle worker drains the column: half the
    /// backlog, so on a column the workers keep up with no read reaches it.
    pub const DRAIN_DUE: usize = Self::MERGE_BACKLOG / 2;

    /// `true` when [`CrackerColumn::drain_in_background`] would merge now:
    /// the queue holds at least [`CrackerColumn::DRAIN_DUE`] updates.
    pub fn drain_due(&self) -> bool {
        self.pending_len() >= Self::DRAIN_DUE
    }

    /// The background drain of an idle worker: once
    /// [`CrackerColumn::drain_due`], merges the whole queue when the
    /// structure lock is free (a busy column stays due for the next cycle).
    /// Returns `true` when it merged.
    pub fn drain_in_background(&self) -> bool {
        self.drain_due() && self.try_merge(true)
    }

    /// Merges the queue when the structure lock is free, never queueing
    /// as a waiting writer (std's lock prefers writers, so a waiting one
    /// would hold every new read of the column behind it). Returns `true`
    /// when it merged.
    fn try_merge(&self, background: bool) -> bool {
        let Some(mut exclusive) = self.structure.try_write() else {
            return false;
        };
        self.merge_pending_locked(&mut exclusive, background)
    }

    /// Ripple-merges the whole pending queue into the cracked column as one
    /// batch ([`ripple_batch`]: one walk over the boundary table), waiting
    /// for the structure lock. No-op on an empty queue.
    pub fn merge_pending(&self) {
        if self.pending.lock().is_empty() {
            return;
        }
        self.merge_pending_locked(&mut self.structure.write(), false);
    }

    /// [`CrackerColumn::merge_pending`] under an exclusive `hold`; a
    /// `background` drain merges only while [`CrackerColumn::drain_due`].
    /// Returns `true` when it merged. The batch is taken only once the
    /// column is ours, so batches apply in the order they were taken: a
    /// merge that took {insert x} and then lost the lock to a later one
    /// holding {delete x} would drop the delete and insert x for good.
    fn merge_pending_locked(&self, hold: &mut Exclusive<'_>, background: bool) -> bool {
        let (ins, del) = {
            let mut p = self.pending.lock();
            // Empty: a racing merge applied it while we waited.
            if p.is_empty() || background && p.len() < Self::DRAIN_DUE {
                return false;
            }
            p.take_all()
        };
        let timed = holix_telemetry::metrics_enabled().then(std::time::Instant::now);
        let walked = self.ripple_apply(hold, &ins, &del);
        if let Some(t0) = timed {
            holix_telemetry::counter!("cracking_ripple_merges_total").inc();
            if background {
                holix_telemetry::counter!("cracking_background_merges_total").inc();
            }
            holix_telemetry::counter!("cracking_ripple_merged_values_total")
                .add((ins.len() + del.len()) as u64);
            holix_telemetry::counter!("cracking_ripple_bounds_walked_total").add(walked as u64);
            holix_telemetry::histogram!("cracking_ripple_merge_ns")
                .record(t0.elapsed().as_nanos() as u64);
        }
        true
    }

    /// Ripple-merges one taken batch into the cracked column — deletes
    /// first, then inserts ([`ripple_batch`]); returns the boundaries the
    /// merge walked. A column with row ids moves them along and matches a
    /// delete by `(value, row)`, dropping one that finds no tuple. A column
    /// without them stays without: its source logs the batch and answers
    /// which deletes are present (`RowSource::record`), and the walk moves
    /// values alone and applies those, matched by value.
    fn ripple_apply(
        &self,
        hold: &mut Exclusive<'_>,
        ins: &[(i64, RowId)],
        del: &[(i64, RowId)],
    ) -> usize {
        let mut idx = self.structure.index.write();
        let present = (!self.has_row_ids()).then(|| {
            self.row_source
                .as_ref()
                .expect("a column without row ids was born from a source")
                .record(ins, del)
        });
        hold.with_vecs_mut(|vals, rows| match &present {
            None => ripple_batch(vals, rows, &mut idx, ins, del),
            Some(present) => ripple_batch(vals, &mut no_rows(vals.len()), &mut idx, ins, present),
        })
    }

    // ------------------------------------------------------------------
    // Shard migration (dynamic replanning)
    // ------------------------------------------------------------------

    /// Seals the update ingress: every later [`CrackerColumn::queue_insert`]
    /// / [`CrackerColumn::queue_delete`] returns `false`, so shard routers
    /// re-route through the successor plan. Reads keep working.
    pub fn seal_for_migration(&self) {
        self.pending.lock().seal();
    }

    /// `true` once [`CrackerColumn::seal_for_migration`] ran.
    pub fn is_sealed(&self) -> bool {
        self.pending.lock().is_sealed()
    }

    /// Reopens the update ingress after an *aborted* migration (no
    /// successor plan was ever published — e.g. a split found the shard's
    /// values all equal). Updates rejected during the sealed window are
    /// retried by the shard router and land here again.
    pub fn unseal_after_aborted_migration(&self) {
        self.pending.lock().unseal();
    }

    /// Drains the column for a shard replan: seals the update ingress,
    /// merges **every** pending update and returns a copy of the values
    /// and row ids in cracked order. In-flight old-plan queries still read
    /// it exactly afterwards.
    pub fn extract_for_migration(&self) -> (Vec<i64>, Vec<RowId>) {
        self.seal_for_migration();
        // Every merge takes its batch under this lock, so none is in
        // flight once it is ours.
        let mut hold = self.structure.write();
        // The successor is built from (value, row) pairs: a column still
        // without row ids builds them now, from its base and write log.
        self.ensure_row_ids(&mut hold);
        // Old-plan snapshot readers stay exact: they read under a shared
        // hold, so each sees the batch queued or merged.
        self.merge_pending_locked(&mut hold, false);
        (hold.vals().to_vec(), hold.rows().to_vec())
    }

    // ------------------------------------------------------------------
    // Snapshot reads
    // ------------------------------------------------------------------

    /// Count + sum of values in `pred`, from the live column under a
    /// shared hold (no merge runs, so every key range's multiset is fixed):
    /// the pending overlay folded under the pending mutex — the
    /// linearisation point — plus the sums of the pieces wholly inside
    /// `pred`, plus the at most two edge pieces filtered under their read
    /// latches (`Shared::scan_interior`). The first snapshot read of the
    /// column sums its pieces first ([`CrackerIndex::sum_pieces`]).
    ///
    /// The overlay assumes [`CrackerColumn::queue_delete`]'s contract: a
    /// delete of a tuple that never existed is counted here until a Ripple
    /// merge silently drops it. When the edges forced at least
    /// [`CrackerColumn::REFRESH_FILTER_MIN`] element-wise checks, the read
    /// cracks its bounds without blocking, so a snapshot-only workload
    /// converges like a cracking one.
    pub fn snapshot_scan(&self, pred: Predicate, scratch: &mut CrackScratch) -> SnapshotScan {
        if pred.is_empty() {
            return SnapshotScan::default();
        }
        self.sum_pieces_once();
        let scan = self.live_scan(pred);
        if scan.filtered >= Self::REFRESH_FILTER_MIN {
            self.crack_scan_bounds(pred, scratch);
        }
        scan
    }

    /// The one trigger of the prefix sums: sums every piece of a column
    /// that keeps none yet, under an exclusive hold. Never undone.
    fn sum_pieces_once(&self) {
        if self.structure.index.read().summed() {
            return;
        }
        let hold = self.structure.write();
        let mut idx = self.structure.index.write();
        // Unless a racing reader summed it while this one waited.
        if !idx.summed() {
            idx.sum_pieces(hold.vals());
        }
    }

    /// The body of [`CrackerColumn::snapshot_scan`]; the column is summed.
    fn live_scan(&self, pred: Predicate) -> SnapshotScan {
        let shared = self.read_structure();
        let (count_delta, sum_delta) = overlay(&self.pending.lock(), pred);
        let (mut count, mut sum, mut filtered) = (0, 0, 0);
        let (inside, inside_sum) = shared.scan_interior(pred.lo, pred.hi, |vals| {
            let (c, s) = filter_stats(vals, pred.lo, pred.hi);
            count += c;
            sum += s;
            filtered += vals.len();
        });
        SnapshotScan {
            count: ((inside + count) as i64 + count_delta).max(0) as u64,
            sum: inside_sum + sum + sum_delta,
            filtered,
        }
    }

    /// Edge-piece filter work (values inspected element-wise) from which a
    /// snapshot read cracks its bounds.
    pub const REFRESH_FILTER_MIN: usize = 1 << 11;

    /// Every piece's sum in key order; `None` until the first snapshot read
    /// summed the column.
    pub fn piece_sums(&self) -> Option<Vec<i128>> {
        self.structure.index.read().piece_sums()
    }

    // ------------------------------------------------------------------
    // Point-membership filter (equality / IN fast path)
    // ------------------------------------------------------------------

    /// Point-membership probe (one atomic load, no lock). `Some(false)`
    /// **proves** no tuple with value `v` exists in this column — merged,
    /// pending, or queued concurrently — so an equality probe can answer
    /// "empty" without cracking anything. `Some(true)` means "maybe
    /// present" (Bloom false positives included); `None` means no filter is
    /// built yet and the caller must fall back (or pay
    /// [`CrackerColumn::ensure_point_filter`]).
    pub fn probe_point(&self, v: i64) -> Option<bool> {
        Some(self.filter.get()?.contains(v))
    }

    /// The point filter, built on the first call from the live column plus
    /// the unmerged pending inserts and never replaced. Copies nothing.
    ///
    /// Race-freedom: the build runs under a shared hold, which excludes
    /// Ripple merges — the only operation that moves values from the queue
    /// into the column. Racing cracks only permute values inside pieces,
    /// and the walk reads each piece under its read latch
    /// (`Shared::for_each_piece`), so it sees every merged value once. The
    /// pending catch-up and the `set` share the `pending` critical section
    /// [`CrackerColumn::queue_insert`] ORs new values in under, so every
    /// insert reaches the filter. Deletes never leave it: a deleted key
    /// keeps probing "maybe present", so delete churn only raises the
    /// false-positive rate.
    pub fn ensure_point_filter(&self) -> &PointFilter {
        if let Some(f) = self.filter.get() {
            return f;
        }
        let _build = self.filter_build.lock();
        if let Some(f) = self.filter.get() {
            return f; // lost the build race
        }
        let timed = holix_telemetry::metrics_enabled().then(std::time::Instant::now);
        let shared = self.structure.read();
        // Slack covers the pending backlog plus later inserts; the filter
        // is never resized.
        let capacity = self.len() + self.pending_len() + 1024;
        // Private until the set: plain word ORs, no atomics.
        let mut filter = PointFilter::with_capacity(capacity);
        shared.for_each_piece(None, None, |vals| {
            vals.iter().for_each(|&v| filter.insert_unshared(v));
        });
        let p = self.pending.lock();
        p.for_each_unmerged(
            |_| true,
            |v, kind| {
                if matches!(kind, UnmergedKind::Insert) {
                    filter.insert_unshared(v);
                }
            },
        );
        let filter = self.filter.get_or_init(|| filter);
        drop(p);
        if let Some(t0) = timed {
            holix_telemetry::counter!("cracking_filter_builds_total").inc();
            holix_telemetry::histogram!("cracking_filter_build_ns")
                .record(t0.elapsed().as_nanos() as u64);
        }
        filter
    }

    /// A snapshot read's cracks after an expensive edge filter: merges the
    /// queue once it is past the backlog (a snapshot-only workload still
    /// cannot grow it without bound), then cracks each non-sentinel bound
    /// without blocking, under a shared hold; a bound whose piece is
    /// latched elsewhere is left for a later read.
    fn crack_scan_bounds(&self, pred: Predicate, scratch: &mut CrackScratch) {
        self.merge_past_backlog();
        let shared = self.structure.read();
        let mut cracks = 0;
        for (v, sentinel) in [(pred.lo, i64::MIN), (pred.hi, i64::MAX)] {
            if v != sentinel {
                let crack = self.crack_bound(&shared, v, false, scratch);
                cracks += matches!(crack, Latched::Piece(_)) as u64;
            }
        }
        if cracks > 0 && holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_cracks_total").add(cracks);
        }
    }

    // ------------------------------------------------------------------
    // Verification / instrumentation
    // ------------------------------------------------------------------

    /// Select plus a checksum scan of the qualifying range and the pending
    /// updates in the predicate, both bounds re-located under one exclusive
    /// hold, so the answer is the column's at one instant (tests and
    /// verification modes).
    pub fn select_verified(
        &self,
        pred: Predicate,
        scratch: &mut CrackScratch,
    ) -> (Selection, RangeStats) {
        let sel = self.select(pred, scratch);
        let hold = self.structure.write();
        // The select cracked both bounds (boundaries are never removed),
        // unless the predicate is empty.
        let Some((start, end)) = Self::exact_span(&self.structure.index.read(), pred) else {
            return (sel, RangeStats::default());
        };
        let (pending, pending_sum) = overlay(&self.pending.lock(), pred);
        let sel = Selection {
            start,
            end,
            pending,
            ..sel
        };
        let mut stats = holix_storage::select::slice_stats(&hold.vals()[start..end]);
        stats.count = sel.count();
        stats.sum += pending_sum;
        (sel, stats)
    }

    /// Copies the values in cracked positions `[start, end)` (exclusive
    /// access for the duration of the copy). Used by consolidation in the
    /// chunked variants and by verification code.
    pub fn snapshot_range(&self, start: usize, end: usize) -> Vec<i64> {
        self.structure.write().vals()[start..end].to_vec()
    }

    /// Atomically copies the *base-table row ids* currently in
    /// `[pred.lo, pred.hi)`, whose bounds a `select` cracked (`None` when a
    /// non-sentinel bound is not a boundary: callers fall back to per-term
    /// execution). Under one exclusive hold it merges the queue, so the ids
    /// include pending inserts and drop pending deletes, re-locates the
    /// bounds and, on a column born without row ids, builds them first.
    /// Conjunctions collect their leading term's row ids here and probe the
    /// remaining attributes positionally in the base table.
    pub fn collect_row_ids(&self, pred: Predicate) -> Option<Vec<RowId>> {
        if pred.is_empty() {
            return Some(Vec::new());
        }
        let mut hold = self.structure.write();
        self.merge_pending_locked(&mut hold, false);
        let (start, end) = Self::exact_span(&self.structure.index.read(), pred)?;
        self.ensure_row_ids(&mut hold);
        Some(hold.rows()[start..end].to_vec())
    }

    /// Panics unless every cracking invariant holds. When `base` is given
    /// (and no updates ran), also checks that the column is a permutation
    /// of the base tuples it was built from — all of `base`, or those in
    /// its shard's value range: value/rowid alignment and distinct row
    /// ids once the column stores them, the sorted values against the
    /// sorted base filter while it does not.
    pub fn check_invariants(&self, base: Option<&[i64]>) {
        let hold = self.structure.write();
        let idx = self.structure.index.read();
        let n = idx.len();
        let has_rows = self.has_row_ids();
        let (vals, rows) = (hold.vals(), hold.rows());
        assert_eq!(vals.len(), n);
        assert_eq!(
            rows.len(),
            n * usize::from(has_rows),
            "row ids beyond the column"
        );

        let bounds = idx.bounds_in_order();
        for w in bounds.windows(2) {
            assert!(w[0].1 <= w[1].1, "bound positions must be non-decreasing");
        }
        if let Some(sums) = idx.piece_sums() {
            let want: Vec<i128> = idx
                .pieces_in_order()
                .into_iter()
                .map(|(start, end)| sum_of(&vals[start..end]))
                .collect();
            assert_eq!(sums, want, "a piece's sum is not its values'");
        }
        let mut prev_key: Option<i64> = None;
        let mut prev_pos = 0usize;
        for &(key, pos) in bounds.iter().chain(std::iter::once(&(i64::MAX, n))) {
            for &v in &vals[prev_pos..pos] {
                if let Some(pk) = prev_key {
                    assert!(v >= pk, "value {v:?} below piece lower key {pk:?}");
                }
                // `key` may be the `i64::MAX` sentinel for the last piece;
                // values equal to `i64::MAX` are then legal.
                if key != i64::MAX || pos != n {
                    assert!(v < key, "value {v:?} not below boundary key {key:?}");
                }
            }
            prev_key = Some(key);
            prev_pos = pos;
        }

        if let Some(base) = base {
            let of_column = |v: i64| self.row_source.as_ref().is_none_or(|s| s.holds(v));
            let mut expected: Vec<i64> = base.iter().copied().filter(|&v| of_column(v)).collect();
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

impl std::fmt::Debug for CrackerColumn {
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
    use crate::{BoundLookup, ShardPlan, ShardedColumn};
    use holix_storage::select::scan_stats;
    use rand::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn column(n: usize, seed: u64) -> (Vec<i64>, CrackerColumn) {
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
        let latch = match col.structure.index.read().locate(500) {
            BoundLookup::Piece { latch, .. } => latch.clone(),
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

    /// A worker's refinement beside a read holding `structure` shared
    /// cracks without merging, and so without queueing as a waiting
    /// writer that every later read would wait behind; once the column is
    /// free, the next refinement merges the queue.
    #[test]
    fn refine_at_leaves_the_queue_to_a_busy_column() {
        let (mut base, col) = column(20_000, 61);
        col.queue_insert(5, base.len() as RowId);
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel();
            let _read = col.structure.read();
            let col = &col;
            s.spawn(move || {
                let _ = tx.send(col.refine_at(500, &mut CrackScratch::new()));
            });
            let outcome = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("refine_at waited for a read to let go of the column");
            assert!(matches!(outcome, RefineOutcome::Refined { .. }));
            assert_eq!(col.pending_len(), 1, "merged under a held read");
        });
        let mut scratch = CrackScratch::new();
        assert!(matches!(
            col.refine_at(250, &mut scratch),
            RefineOutcome::Refined { .. }
        ));
        assert_eq!(col.pending_len(), 0, "a free column keeps its queue");
        base.push(5);
        col.check_invariants(Some(&base));
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
        std::thread::scope(|s| {
            for t in 0..4 {
                let col = &col;
                s.spawn(move || {
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
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(200 + t);
                    let mut scratch = CrackScratch::new();
                    for _ in 0..500 {
                        col.refine_random(&mut rng, &mut scratch, 8);
                    }
                });
            }
        });
        col.check_invariants(Some(&base));
        // And results are still correct afterwards.
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(250, 750);
        let (_, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&base, pred));
    }

    #[test]
    fn updates_count_on_select_and_merge_past_the_backlog() {
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
        let (sel, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&base, pred));
        // Both in-range inserts are counted from the queue; none merged.
        assert_eq!((sel.pending, sel.count()), (2, stats.count));
        assert_eq!(col.pending_len(), 3);
        // An exact count folds the queue up to the backlog …
        let backlog = CrackerColumn::MERGE_BACKLOG;
        let queue = |col: &CrackerColumn, base: &mut Vec<i64>, to: usize| {
            for i in col.pending_len()..to {
                let v = (i as i64 * 7) % 1_000;
                col.queue_insert(v, n + i as RowId);
                base.push(v);
            }
        };
        queue(&col, &mut base, backlog);
        let stats = scan_stats(&base, pred);
        assert_eq!(col.count_exact(pred), Some(stats.count));
        assert_eq!(col.pending_len(), backlog);
        // … and refuses one past it, merging nothing: the select it falls
        // back to drains the queue.
        queue(&col, &mut base, backlog + 1);
        assert_eq!(col.count_exact(pred), None);
        assert_eq!(col.pending_len(), backlog + 1);
        // The next read merges the whole queue — 900 included — before it
        // answers.
        let (sel, stats) = col.select_verified(pred, &mut scratch);
        assert_eq!(stats, scan_stats(&base, pred));
        assert_eq!((sel.pending, sel.count()), (0, stats.count));
        assert_eq!(col.pending_len(), 0);
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
        let col = CrackerColumn::from_base("e", &[]);
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
    fn concurrent_inserts_widen_the_domain_to_every_value() {
        let base: Vec<i64> = (-50..50).collect();
        let col = CrackerColumn::from_base("d", &base);
        let rows = base.len() as i64;
        // Insert `i` of thread `t`, below the base or above it: values
        // disjoint across threads, both ends of the domain moving.
        let value = |t: i64, i: i64| match i % 2 {
            0 => t - 8 - 4 * i,
            _ => t + 50 + 4 * i,
        };
        std::thread::scope(|s| {
            for t in 0..4 {
                let col = &col;
                s.spawn(move || {
                    for i in 0..500 {
                        assert!(col.queue_insert(value(t, i), (rows + 1000 * t + i) as RowId));
                    }
                });
            }
        });
        let inserted = (0..4).flat_map(|t| (0..500).map(move |i| value(t, i)));
        let all: Vec<i64> = base.iter().copied().chain(inserted).collect();
        let want = all.iter().min().copied().zip(all.iter().max().copied());
        assert_eq!(col.domain(), want);
    }

    #[test]
    fn snapshot_scan_matches_oracle_and_cracks_its_bounds() {
        let (base, col) = column(50_000, 20);
        let mut scratch = CrackScratch::new();
        assert!(col.piece_sums().is_none());
        // First snapshot read: sums the one piece, filters all of it as
        // the edge of both bounds, then cracks them.
        let pred = Predicate::range(200, 600);
        let scan = col.snapshot_scan(pred, &mut scratch);
        let oracle = scan_stats(&base, pred);
        assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
        assert!(col.piece_sums().is_some());
        assert!(
            scan.filtered >= base.len(),
            "a cold read filters the column"
        );
        // The bounds are boundaries now: the piece between them is
        // answered from its sum.
        let again = col.snapshot_scan(pred, &mut scratch);
        assert_eq!((again.count, again.sum), (oracle.count, oracle.sum));
        assert_eq!(again.filtered, 0, "cracked bounds need no filtering");
        assert!(col.piece_count() >= 3);
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
        // … and still after a locked select's Ripple merge moved them
        // into the pieces and their sums.
        let (_, locked) = col.select_verified(pred, &mut scratch);
        assert_eq!(locked, oracle);
        let scan = col.snapshot_scan(pred, &mut scratch);
        assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
        col.check_invariants(None);
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
        std::thread::scope(|s| {
            for t in 0..2 {
                let col = &col;
                s.spawn(move || {
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
                s.spawn(move || {
                    let mut scratch = CrackScratch::new();
                    let mut rng = StdRng::seed_from_u64(500 + t);
                    for _ in 0..300 {
                        col.refine_random(&mut rng, &mut scratch, 4);
                    }
                });
            }
            for t in 0..2 {
                let col = &col;
                s.spawn(move || {
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
        });
        // Quiesce: merge the remaining pending ops and compare all paths.
        let mut scratch = CrackScratch::new();
        col.merge_pending();
        let scan = col.snapshot_scan(full, &mut scratch);
        let (_, locked) = col.select_verified(full, &mut scratch);
        assert_eq!((scan.count, scan.sum), (locked.count, locked.sum));
        assert_eq!((scan.count, scan.sum), (base_stats.count, base_stats.sum));
        col.check_invariants(None);
    }

    /// The first snapshot read of a column nobody has read that way sums
    /// its pieces and copies nothing: the column's charged bytes grow by
    /// at most the index's own growth (the read's cracks), the pieces keep
    /// sums from then on, and every later read — beside queued updates,
    /// drains, cracks and the read's own cracks — matches the oracle.
    #[test]
    fn a_snapshot_read_sums_and_copies_nothing() {
        let mut scratch = CrackScratch::new();
        let (mut base, col) = column(50_000, 30);
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..40 {
            let (a, b) = (rng.random_range(0..1_000), rng.random_range(0..1_000));
            col.select(Predicate::range(a.min(b), a.max(b)), &mut scratch);
        }
        assert!(col.piece_sums().is_none(), "a select summed the column");
        let (payload, index) = (
            col.payload_bytes(),
            col.structure.index.read().approx_bytes(),
        );
        let pred = Predicate::range(333, 777);
        let got = col.snapshot_scan(pred, &mut scratch);
        let want = scan_stats(&base, pred);
        assert_eq!((got.count, got.sum), (want.count, want.sum));
        let grown = col.structure.index.read().approx_bytes() - index;
        assert_eq!(col.payload_bytes(), payload + grown, "the read copied");
        assert!(col.piece_sums().is_some(), "the read did not sum");
        let full = Predicate::range(i64::MIN, i64::MAX);
        for round in 0..8 {
            for _ in 0..CrackerColumn::DRAIN_DUE {
                let v = rng.random_range(0..1_000);
                assert!(col.queue_insert(v, base.len() as RowId));
                base.push(v);
            }
            if round % 2 == 0 {
                assert!(col.drain_in_background());
            }
            for _ in 0..8 {
                let (a, b) = (rng.random_range(-5..1_005), rng.random_range(-5..1_005));
                let pred = Predicate::range(a.min(b), a.max(b));
                for pred in [pred, full, Predicate::at_least(pred.hi)] {
                    let want = scan_stats(&base, pred);
                    let got = col.snapshot_scan(pred, &mut scratch);
                    assert_eq!((got.count, got.sum), (want.count, want.sum), "{pred:?}");
                }
            }
            col.check_invariants(None);
        }
    }

    /// A snapshot read whose edges filter at least
    /// [`CrackerColumn::REFRESH_FILTER_MIN`] values cracks its bounds, and
    /// counts its cracks and piece splits as a select does. The counters
    /// are process-wide and other tests run beside this one, so they are
    /// checked to rise by at least the pieces this read made.
    #[test]
    fn a_snapshot_reads_cracks_and_splits_are_counted() {
        holix_telemetry::set_metrics_enabled(true);
        let registry = holix_telemetry::registry();
        let cracks = registry.counter("cracking_cracks_total");
        let splits = registry.counter("cracking_piece_splits_total");
        let (base, col) = column(50_000, 33);
        let pred = Predicate::range(333, 777);
        let (pieces, cracked, split) = (col.piece_count(), cracks.get(), splits.get());
        let scan = col.snapshot_scan(pred, &mut CrackScratch::new());
        let want = scan_stats(&base, pred);
        assert_eq!((scan.count, scan.sum), (want.count, want.sum));
        assert!(scan.filtered >= CrackerColumn::REFRESH_FILTER_MIN);
        let grown = (col.piece_count() - pieces) as u64;
        assert_eq!(grown, 2, "the read cracked both bounds");
        assert!(cracks.get() - cracked >= grown);
        assert!(splits.get() - split >= grown);
        col.check_invariants(None);
    }

    /// A snapshot read whose edge piece a crack holds latches the other
    /// edge without blocking, lets it go, and only then waits out the
    /// crack, walking the busy edge's key span piece by piece: the answer
    /// is exact either way.
    #[test]
    fn a_snapshot_read_waits_out_a_crack_of_its_edge_piece() {
        let (mut base, col) = column(20_000, 32);
        let mut scratch = CrackScratch::new();
        col.select(Predicate::range(300, 700), &mut scratch);
        assert!(col.queue_insert(500, base.len() as RowId));
        base.push(500);
        col.merge_pending();
        col.snapshot_scan(Predicate::range(i64::MIN, i64::MAX), &mut scratch);
        let pred = Predicate::range(100, 400);
        let latch = match col.structure.index.read().locate(pred.lo) {
            BoundLookup::Piece { latch, .. } => latch.clone(),
            BoundLookup::Exact(_) => panic!("100 is not a boundary"),
        };
        let held = latch.lock_write();
        let want = scan_stats(&base, pred);
        std::thread::scope(|s| {
            let reader = s.spawn(|| col.snapshot_scan(pred, &mut CrackScratch::new()));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!reader.is_finished(), "the read did not wait for the crack");
            drop(held);
            let got = reader.join().expect("the read");
            assert_eq!((got.count, got.sum), (want.count, want.sum));
        });
        col.check_invariants(None);
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
        col.snapshot_scan(full, &mut scratch); // sums the pieces
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
        // Old-plan readers still answer exactly from the merged pieces'
        // sums, and new updates bounce.
        let scan = col.snapshot_scan(full, &mut scratch);
        let oracle = scan_stats(&base, full);
        assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
        assert!(!col.queue_insert(1, 999_999));
        col.check_invariants(None);
    }

    /// The filter is built from the live column: it sums nothing, charges
    /// no byte, and every merged value and every pending insert probes
    /// present — on a plain column and on every shard of a 4-shard column
    /// (values only, no row ids).
    #[test]
    fn point_filter_builds_from_the_live_column_and_charges_nothing() {
        let mut rng = StdRng::seed_from_u64(36);
        let base: Vec<i64> = (0..40_000).map(|_| rng.random_range(0..100_000)).collect();
        let inserts: Vec<i64> = (0..300).map(|i| 100_000 + i * 7).collect();
        let mut scratch = CrackScratch::new();
        fn check(shard: &CrackerColumn, mut values: impl Iterator<Item = i64>) {
            let payload = shard.payload_bytes();
            shard.ensure_point_filter();
            assert!(shard.piece_sums().is_none(), "the build summed");
            assert_eq!(shard.payload_bytes(), payload, "the build charged bytes");
            assert!(values.all(|v| shard.probe_point(v) == Some(true)));
        }
        let plain = CrackerColumn::from_base("a", &base);
        let sharded =
            ShardedColumn::from_base_with_plan("a", &base, ShardPlan::from_values(&base, 4));
        for _ in 0..50 {
            let (a, b) = (rng.random_range(0..100_000), rng.random_range(0..100_000));
            let pred = Predicate::range(a.min(b), a.max(b));
            plain.select(pred, &mut scratch);
            sharded.select_verified(pred, &mut scratch);
        }
        for (i, &v) in inserts.iter().enumerate() {
            let row = (base.len() + i) as RowId;
            assert!(plain.queue_insert(v, row));
            assert!(sharded.queue_insert(v, row));
        }
        assert_eq!(plain.pending_len(), inserts.len());
        check(&plain, base.iter().chain(&inserts).copied());
        assert_eq!(sharded.shard_count(), 4);
        for k in 0..4 {
            let of_k = |&&v: &&i64| sharded.plan().shard_of(v) == k;
            check(
                sharded.shard(k),
                base.iter().chain(&inserts).filter(of_k).copied(),
            );
        }
        // A snapshot read sums the pieces.
        plain.snapshot_scan(Predicate::range(0, 50_000), &mut scratch);
        assert!(plain.piece_sums().is_some());
    }

    /// The filter build walks the live pieces under their read latches
    /// while two threads crack random bounds of the same shard: every value
    /// of the shard still probes present, and the cracks stay valid.
    #[test]
    fn point_filter_build_races_cracks_on_the_same_shard() {
        let mut rng = StdRng::seed_from_u64(37);
        let base: Vec<i64> = (0..1 << 15).map(|_| rng.random_range(0..1 << 20)).collect();
        let plan = ShardPlan::from_values(&base, 2);
        for round in 0..8u64 {
            let col = ShardedColumn::from_base_with_plan("a", &base, plan.clone());
            let shard = col.shard(1);
            let (lo, hi) = shard.domain().expect("the shard holds values");
            let stop = AtomicBool::new(false);
            let cracks = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for t in 0..2 {
                    let (stop, cracks) = (&stop, &cracks);
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(round * 2 + t);
                        let mut scratch = CrackScratch::new();
                        while !stop.load(Relaxed) {
                            let (a, b) = (rng.random_range(lo..=hi), rng.random_range(lo..=hi));
                            shard.select(Predicate::range(a.min(b), a.max(b)), &mut scratch);
                            cracks.fetch_add(1, Relaxed);
                        }
                    });
                }
                while cracks.load(Relaxed) < 4 {
                    std::thread::yield_now();
                }
                shard.ensure_point_filter();
                stop.store(true, Relaxed);
            });
            assert!(shard.piece_sums().is_none());
            for &v in base.iter().filter(|&&v| plan.shard_of(v) == 1) {
                assert_eq!(
                    shard.probe_point(v),
                    Some(true),
                    "round {round}: {v} dropped"
                );
            }
            shard.check_invariants(Some(&base));
        }
    }

    /// Two writers queue fresh values while the shard's first
    /// `ensure_point_filter` runs, and a reader probes throughout: no probe
    /// reports absent a value whose insert returned before the probe
    /// began, and after the joins every inserted value probes present.
    /// Only a build whose pending catch-up and `set` share one `pending`
    /// critical section can pass every round: an insert between the two
    /// would reach neither the catch-up nor the OR.
    #[test]
    fn point_filter_build_races_inserts_on_the_same_shard() {
        let base: Vec<i64> = (0..1 << 13).map(|i| i * 2).collect();
        let plan = ShardPlan::from_values(&base, 2);
        // Odd values: none is in the base.
        let fresh = |t: usize, i: usize| (base.len() * 2 + (i * 2 + t) * 2 + 1) as i64;
        for round in 0..32u64 {
            let col = ShardedColumn::from_base_with_plan("a", &base, plan.clone());
            let shard = col.shard(1);
            let done = [AtomicUsize::new(0), AtomicUsize::new(0)];
            let stop = AtomicBool::new(false);
            let least = || {
                done.iter()
                    .map(|d| d.load(Ordering::Acquire))
                    .min()
                    .unwrap()
            };
            std::thread::scope(|s| {
                for (t, done) in done.iter().enumerate() {
                    let stop = &stop;
                    s.spawn(move || {
                        let mut i = 0;
                        while !stop.load(Relaxed) {
                            assert!(
                                shard.queue_insert(fresh(t, i), ((1 << 20) + i * 2 + t) as RowId)
                            );
                            i += 1;
                            done.store(i, Ordering::Release);
                        }
                    });
                }
                s.spawn(|| {
                    let mut rng = StdRng::seed_from_u64(round);
                    while !stop.load(Relaxed) {
                        let t = rng.random_range(0..2);
                        let returned = done[t].load(Ordering::Acquire);
                        if returned > 0 {
                            let v = fresh(t, rng.random_range(0..returned));
                            assert_ne!(shard.probe_point(v), Some(false), "round {round}: {v}");
                        }
                    }
                });
                while least() < 64 {
                    std::thread::yield_now();
                }
                shard.ensure_point_filter();
                let built = least();
                while least() < built + 64 {
                    std::thread::yield_now();
                }
                stop.store(true, Relaxed);
            });
            for (t, done) in done.iter().enumerate() {
                for i in 0..done.load(Relaxed) {
                    let v = fresh(t, i);
                    assert_eq!(
                        shard.probe_point(v),
                        Some(true),
                        "round {round}: {v} dropped"
                    );
                }
            }
        }
    }

    /// Cracks a duplicate-heavy column at random ranges and queues random
    /// inserts and base-row deletes; returns the column and the queued
    /// values, each with `+1` for an insert and `-1` for a delete.
    fn cracked_with_pending(
        seed: u64,
        n: usize,
        cracks: usize,
        inserts: usize,
        deletes: usize,
    ) -> (CrackerColumn, Vec<(i64, i64)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<i64> = (0..n).map(|_| rng.random_range(0..200)).collect();
        let col = CrackerColumn::from_base("a", &base);
        let mut scratch = CrackScratch::new();
        for _ in 0..cracks {
            let (a, b) = (rng.random_range(-5..205), rng.random_range(-5..205));
            col.select(Predicate::range(a.min(b), a.max(b)), &mut scratch);
        }
        let mut pending = Vec::new();
        for i in 0..inserts {
            let v = rng.random_range(0..200);
            assert!(col.queue_insert(v, (n + i) as RowId));
            pending.push((v, 1));
        }
        let mut deleted = Vec::new();
        for _ in 0..deletes.min(n) {
            let row = rng.random_range(0..n);
            if !deleted.contains(&row) {
                deleted.push(row);
                assert!(col.queue_delete(base[row], row as RowId));
                pending.push((base[row], -1));
            }
        }
        (col, pending)
    }

    /// A batch with deletes that name no tuple — a value present under
    /// another row, an unknown row — beside present deletes and an insert,
    /// drained into a summed column. A column with row ids drops them in
    /// the walk, a column without them before it (its write log answers);
    /// either way no piece's sum counts a dropped delete, and every read
    /// path answers the tuples that are there.
    #[test]
    fn an_absent_delete_leaves_every_piece_sum_exact() {
        let base: Vec<i64> = (0..4_096).map(|i| i * 2).collect();
        let sharded =
            ShardedColumn::from_base_with_plan("a", &base, ShardPlan::from_values(&base, 1));
        let plain = CrackerColumn::from_base("a", &base);
        let mut scratch = CrackScratch::new();
        for (col, ids) in [(&**sharded.shard(0), false), (&plain, true)] {
            assert_eq!(col.has_row_ids(), ids);
            col.snapshot_scan(Predicate::range(i64::MIN, i64::MAX), &mut scratch);
            col.select(Predicate::range(3, 7), &mut scratch);
            col.queue_insert(1, 10_000);
            col.merge_pending();
            assert!(col.piece_sums().is_some());
            col.queue_delete(4, 2);
            col.queue_delete(6, 3);
            col.queue_insert(3, 10_001);
            col.queue_delete(8, 2); // row 2 holds 4
            col.queue_delete(5, RowId::MAX);
            col.merge_pending();
            col.check_invariants(None);
            let sum: i64 = base.iter().sum::<i64>() + 1 + 3 - 4 - 6;
            for pred in [Predicate::range(i64::MIN, i64::MAX), Predicate::range(2, 9)] {
                let want = match pred.lo {
                    2 => (3, 2 + 3 + 8),
                    _ => (4_096, sum as i128),
                };
                let scan = col.snapshot_scan(pred, &mut scratch);
                assert_eq!((scan.count, scan.sum), want, "{pred:?}, ids: {ids}");
                let locked = col.select_verified(pred, &mut scratch).1;
                assert_eq!((locked.count, locked.sum), want, "{pred:?}, ids: {ids}");
            }
        }
    }

    /// A multiset of values: each value's multiplicity.
    type Oracle = std::collections::BTreeMap<i64, u64>;

    /// Count and sum of the oracle's values `pred` selects.
    fn oracle_stats(oracle: &Oracle, pred: Predicate) -> (u64, i128) {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        if pred.is_empty() {
            return (0, 0);
        }
        let lo = if pred.lo == i64::MIN {
            Unbounded
        } else {
            Included(pred.lo)
        };
        let hi = if pred.hi == i64::MAX {
            Unbounded
        } else {
            Excluded(pred.hi)
        };
        oracle.range((lo, hi)).fold((0, 0), |(c, s), (&v, &m)| {
            (c + m, s + v as i128 * m as i128)
        })
    }

    /// Values of the piece-sum property test are drawn from `0..DOMAIN`.
    const DOMAIN: i64 = 200_000;

    /// Runs `rounds` rounds of random cracks, snapshot reads and Ripple
    /// batches over `parts` (the shards of one column; `route` names the
    /// part a value belongs to, `split` cuts a predicate into per-part
    /// ones), checking after every step that each piece's sum is its
    /// values' (`check_invariants`), that a part keeps sums exactly once a
    /// snapshot read has asked it something, and that `select_verified`,
    /// a multiset oracle and — on the parts open to them — `snapshot_scan`
    /// agree. Each part opens to the checks' snapshot reads at a random
    /// round, so its first sum falls between drains at a random point, or
    /// earlier, by the snapshot read of a random step; see
    /// `prop_piece_sums_and_every_read_path_match_a_multiset_oracle`.
    /// Returns how many drains ran on a worker and on the read path.
    fn rounds_against_an_oracle(
        seed: u64,
        base: &[i64],
        parts: &[&CrackerColumn],
        route: &dyn Fn(i64) -> usize,
        split: &dyn Fn(Predicate) -> Vec<(usize, Predicate)>,
        rounds: usize,
    ) -> (usize, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = CrackScratch::new();
        let mut oracle = Oracle::new();
        for &v in base {
            *oracle.entry(v).or_insert(0u64) += 1;
        }
        let mut live: Vec<(i64, RowId)> = base.iter().zip(0..).map(|(&v, r)| (v, r)).collect();
        let mut next_row = base.len() as RowId;
        let mut recent = vec![0];
        let mut value = |rng: &mut StdRng| {
            let v = match rng.random_range(0..100) {
                0 => i64::MIN,
                1 => i64::MAX,
                2..20 => recent[rng.random_range(0..recent.len())],
                _ => rng.random_range(0..DOMAIN),
            };
            recent.push(v);
            v
        };
        let pred = |rng: &mut StdRng| {
            let bound = |rng: &mut StdRng, sentinel: i64| match rng.random_range(0..6) {
                0 => sentinel,
                _ => rng.random_range(-5..DOMAIN + 5),
            };
            let (a, b) = (bound(rng, i64::MIN), bound(rng, i64::MAX));
            Predicate::range(a.min(b), a.max(b))
        };
        let stats = |pred: Predicate, f: &mut dyn FnMut(usize, Predicate) -> (u64, i128)| {
            split(pred)
                .into_iter()
                .map(|(k, p)| f(k, p))
                .fold((0, 0), |(c, s), (pc, ps)| (c + pc, s + ps))
        };
        // Parts the checks read through `snapshot_scan`, and parts a
        // snapshot read has asked something (so keep sums).
        let mut open = vec![false; parts.len()];
        let summed = vec![std::cell::Cell::new(false); parts.len()];
        let snapshot_read = |k: usize, p: Predicate, scratch: &mut CrackScratch| {
            summed[k].set(summed[k].get() || !p.is_empty());
            let s = parts[k].snapshot_scan(p, scratch);
            (s.count, s.sum)
        };
        let check =
            |oracle: &Oracle, open: &[bool], rng: &mut StdRng, scratch: &mut CrackScratch| {
                for _ in 0..3 {
                    let p = pred(rng);
                    let want = oracle_stats(oracle, p);
                    let scan = stats(p, &mut |k, p| match open[k] {
                        true => snapshot_read(k, p, scratch),
                        false => {
                            let s = parts[k].select_verified(p, scratch).1;
                            (s.count, s.sum)
                        }
                    });
                    assert_eq!(scan, want, "snapshot {p:?}");
                    let locked = stats(p, &mut |k, p| {
                        let s = parts[k].select_verified(p, scratch).1;
                        (s.count, s.sum)
                    });
                    assert_eq!(locked, want, "select {p:?}");
                }
                for (k, part) in parts.iter().enumerate() {
                    part.check_invariants(None);
                    assert_eq!(part.piece_sums().is_some(), summed[k].get(), "part {k}");
                }
            };
        let (mut background, mut read_path) = (0, 0);
        for _ in 0..rounds {
            for open in &mut open {
                *open |= rng.random_range(0..4) == 0;
            }
            // Repeated values, sentinels and deletes of live tuples, in a
            // queue the steps below read over (or drain, past the backlog).
            for _ in 0..rng.random_range(0..200) * parts.len() {
                if rng.random_range(0..3) == 0 && !live.is_empty() {
                    let (v, r) = live.swap_remove(rng.random_range(0..live.len()));
                    assert!(parts[route(v)].queue_delete(v, r));
                    *oracle.get_mut(&v).expect("a live tuple") -= 1;
                } else {
                    let v = value(&mut rng);
                    assert!(parts[route(v)].queue_insert(v, next_row));
                    live.push((v, next_row));
                    next_row += 1;
                    *oracle.entry(v).or_insert(0) += 1;
                }
            }
            // Cracks (a select's, a worker's, a snapshot read's) and a
            // snapshot read of one part, which sums it if nothing has yet.
            for _ in 0..rng.random_range(1..4) {
                let k = rng.random_range(0..parts.len());
                match rng.random_range(0..4) {
                    0 => {
                        for (k, p) in split(pred(&mut rng)) {
                            parts[k].select(p, &mut scratch);
                        }
                    }
                    1 => {
                        parts[k].refine_at_blocking(value(&mut rng), &mut scratch);
                    }
                    2 => parts[k].crack_scan_bounds(pred(&mut rng), &mut scratch),
                    _ => {
                        let p = pred(&mut rng);
                        let got = stats(p, &mut |k, p| snapshot_read(k, p, &mut scratch));
                        assert_eq!(got, oracle_stats(&oracle, p), "{p:?}");
                    }
                }
                check(&oracle, &open, &mut rng, &mut scratch);
            }
            // A delete of a tuple that never existed is counted by every
            // overlay until a drain drops it: only right before one.
            let absent = rng.random_range(0..8) == 0;
            if absent {
                parts[route(7)].queue_delete(7, RowId::MAX);
            }
            for part in parts {
                if part.pending_len() >= CrackerColumn::DRAIN_DUE && rng.random_bool(0.5) {
                    assert!(part.drain_in_background(), "a due queue was not drained");
                    background += 1;
                } else if part.pending_len() > 0 {
                    part.merge_pending();
                    read_path += 1;
                }
                assert_eq!(part.pending_len(), 0);
            }
            check(&oracle, &open, &mut rng, &mut scratch);
        }
        (background, read_path)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        #[test]
        /// The piece sums of columns a snapshot read has asked something,
        /// on a plain column with row ids and on a 4-shard column without
        /// them, each part summed at a random point — by a snapshot read
        /// between random drains, merged before and after it: random
        /// batches — repeated values, the `MIN`/`MAX` sentinels, a delete
        /// of a tuple that never existed now and then — drained by idle
        /// workers and by the read path, between cracks, refinements and a
        /// snapshot read's cracks. After every step a part keeps sums
        /// exactly once a snapshot read has run on it, each piece's sum
        /// equals its values', and random predicates agree across
        /// `snapshot_scan`, `select_verified` and a multiset oracle.
        /// Dropping a sum update from a crack or either Ripple walk fails
        /// it, and so does a merge that sums an index.
        fn prop_piece_sums_and_every_read_path_match_a_multiset_oracle(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base: Vec<i64> = (0..8_192).map(|_| rng.random_range(0..DOMAIN)).collect();
            let crack = |parts: &[&CrackerColumn], scratch: &mut CrackScratch, rng: &mut StdRng| {
                for part in parts {
                    for _ in 0..20 {
                        let (a, b) = (rng.random_range(0..DOMAIN), rng.random_range(0..DOMAIN));
                        part.select(Predicate::range(a.min(b), a.max(b)), scratch);
                    }
                }
            };
            let mut scratch = CrackScratch::new();
            let plain = CrackerColumn::from_base("a", &base);
            crack(&[&plain], &mut scratch, &mut rng);
            let (background, read_path) =
                rounds_against_an_oracle(seed, &base, &[&plain], &|_| 0, &|p| vec![(0, p)], 32);
            assert!(background >= 1 && read_path >= 1, "plain: {background} / {read_path}");
            let sharded =
                ShardedColumn::from_base_with_plan("a", &base, ShardPlan::from_values(&base, 4));
            let shards: Vec<&CrackerColumn> =
                (0..sharded.shard_count()).map(|k| &**sharded.shard(k)).collect();
            crack(&shards, &mut scratch, &mut rng);
            assert!(shards.iter().all(|s| !s.has_row_ids()));
            let (background, read_path) = rounds_against_an_oracle(
                seed,
                &base,
                &shards,
                &|v| sharded.plan().shard_of(v),
                &|p| sharded.intersecting(p),
                24,
            );
            assert!(background >= 1 && read_path >= 1, "sharded: {background} / {read_path}");
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_count_exact_answers_exactly_when_select_would_crack_nothing(
            seed in proptest::prelude::any::<u64>(),
            n in 0usize..400,
            cracks in 0usize..12,
            inserts in 0usize..6,
            deletes in 0usize..6,
            probes in proptest::collection::vec((0u8..3, 0u64..1_000, 0u8..3, 0u64..1_000), 1..24),
        ) {
            let (col, pending) = cracked_with_pending(seed, n, cracks, inserts, deletes);
            let bounds: Vec<i64> = col.structure.index.read().bounds_in_order().iter().map(|b| b.0).collect();
            // A bound is one of the column's boundaries, a sentinel, or any
            // value in (or just outside) the domain.
            let pick = |kind: u8, raw: u64, sentinel: i64| match kind {
                0 if !bounds.is_empty() => bounds[raw as usize % bounds.len()],
                1 => sentinel,
                _ => raw as i64 % 220 - 10,
            };
            let answered = |b: i64, sentinel: i64| b == sentinel || bounds.contains(&b);
            let mut scratch = CrackScratch::new();
            for &(lo_kind, lo, hi_kind, hi) in &probes {
                let pred = Predicate::range(pick(lo_kind, lo, i64::MIN), pick(hi_kind, hi, i64::MAX));
                let want = pred.is_empty()
                    || (answered(pred.lo, i64::MIN) && answered(pred.hi, i64::MAX));
                let queued: i64 = pending
                    .iter()
                    .filter(|&&(v, _)| pred.matches_unbounded(v))
                    .map(|&(_, sign)| sign)
                    .sum();
                let before = (col.piece_count(), col.pending_len());
                let got = col.count_exact(pred);
                assert_eq!(got.is_some(), want, "{pred:?} over boundaries {bounds:?}");
                assert_eq!((col.piece_count(), col.pending_len()), before, "{pred:?}");
                if let Some(count) = got {
                    // `select` agrees, and needed no crack and no merge:
                    // both count the same pending updates.
                    let sel = col.select(pred, &mut scratch);
                    assert!(sel.exact_hit(), "{pred:?}");
                    assert_eq!(count, sel.count(), "{pred:?}");
                    assert_eq!(sel.pending, queued, "{pred:?}");
                    assert_eq!((col.piece_count(), col.pending_len()), before, "{pred:?}");
                }
            }
        }
    }
}
