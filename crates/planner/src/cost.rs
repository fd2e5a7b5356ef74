//! The crack-aware cost model: price a predicate against a shard's live
//! cracker index, from two lookups and the lengths of the column and its
//! update queue.
//!
//! The unit of cost is *one value touched element-wise*. The locked path
//! pays the edge pieces it must partition (two cracks, or zero on an exact
//! hit) plus a Ripple-merge term for the merge debt its select would pay
//! (the whole queue once past `MERGE_BACKLOG`, else none); the snapshot
//! path filters the same edge pieces (interior pieces answer O(1) from
//! their prefix sums) and merges nothing.
//! These are the same quantities the paper's §4 statistics track per index
//! (`f_Ih` exact hits, piece sizes feeding `d(I, I_opt)`), read off the
//! index itself: there is no second copy of it to keep fresh.

use holix_cracking::{BoundLookup, CrackerColumn, CrackerIndex};
use holix_storage::select::Predicate;

/// Cost-model constants. One merged pending update moves a boundary element
/// per downstream piece (Ripple), so it is weighted well above a scanned
/// value; the fixed snapshot term covers the overlay fold and the prefix-sum
/// lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Touched-value equivalents charged per unit of merge debt (a pending
    /// update the locked path merges before answering).
    pub merge_weight: u64,
    /// Fixed touched-value equivalents per snapshot read of one shard
    /// (overlay fold + prefix-sum lookups).
    pub snapshot_fixed: u64,
    /// Touched-value budget below which a query is *cheap* — not worth
    /// decomposing, and drained first in a batch (an exact hit, or edge
    /// pieces already near-optimal).
    pub cheap_budget: u64,
    /// A seed no price reads any more: it weighted the edge values of
    /// encoded snapshot pieces, and snapshot reads now filter the plain
    /// live pieces. Kept while the benchmark reports it.
    pub decode_weight: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            merge_weight: 8,
            snapshot_fixed: 64,
            cheap_budget: 1 << 12,
            decode_weight: 2,
        }
    }
}

/// Plan-time price of one query, merged over every shard its predicate
/// intersects. Every number is read off each shard's live index at the
/// moment of its lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCost {
    /// Values the locked path would partition: the sizes of the edge
    /// pieces the non-exact bounds fall into, a piece both fall into
    /// counted once (it is cracked in three).
    pub crack_values: u64,
    /// Equi-depth cardinality estimate (interpolated within the edge
    /// pieces of the free histogram the boundary table forms): the
    /// selectivity number behind driver-term election and the
    /// `Cheap`/`Expensive` price line. Best-effort, not conservative —
    /// never used for safety decisions.
    pub est_rows: u64,
    /// Merge debt the locked path would pay: the whole pending queue past
    /// [`CrackerColumn::MERGE_BACKLOG`], none below.
    pub merge_backlog: u64,
    /// Every bound was already a piece boundary in every touched shard
    /// (the paper's `f_Ih` exact hit — zero crack work).
    pub exact_hit: bool,
    /// A published per-shard membership filter answered the probe
    /// negatively: the query touches no data at all — cheaper than any
    /// exact hit (which still walks piece bounds). Only point probes can
    /// be screened.
    pub screened: bool,
    /// Shards the predicate fans out to.
    pub shards_touched: u32,
}

impl PlanCost {
    /// A cost for a shard (or whole attribute) with no index yet: a cold
    /// column of `len` rows — everything is expensive.
    pub fn cold(len: usize) -> Self {
        PlanCost {
            crack_values: len as u64,
            est_rows: len as u64,
            merge_backlog: 0,
            exact_hit: false,
            screened: false,
            shards_touched: 1,
        }
    }

    /// The price of a point probe a per-shard membership filter answered
    /// negatively: nothing is touched, nothing can crack. The cheapest
    /// plan the model can produce.
    pub fn screened_point() -> Self {
        PlanCost {
            exact_hit: true,
            screened: true,
            shards_touched: 1,
            ..PlanCost::default()
        }
    }

    /// Folds another shard's cost into this one (fan-out merge).
    ///
    /// All arithmetic saturates: a wide fan-out of large shards (or of
    /// cold ones, each priced at its whole length) must pin at `u64::MAX`
    /// — not wrap around to a price of nearly zero and pass for an exact
    /// hit.
    pub fn merge(&mut self, other: PlanCost) {
        if self.shards_touched == 0 {
            *self = other;
            return;
        }
        self.crack_values = self.crack_values.saturating_add(other.crack_values);
        self.est_rows = self.est_rows.saturating_add(other.est_rows);
        self.merge_backlog = self.merge_backlog.saturating_add(other.merge_backlog);
        self.exact_hit &= other.exact_hit;
        self.screened &= other.screened;
        self.shards_touched = self.shards_touched.saturating_add(other.shards_touched);
    }

    /// Touched-value cost of answering through the locked crack path
    /// (saturating: see [`PlanCost::merge`]).
    pub fn locked_cost(&self, model: &CostModel) -> u64 {
        self.crack_values
            .saturating_add(self.merge_backlog.saturating_mul(model.merge_weight))
    }

    /// The route the model prefers for a read-only query. Both routes pay
    /// the same edge pieces (a cold shard's build too, through the same
    /// first touch), so the snapshot route wins exactly when the merge
    /// debt the locked path would pay first outweighs the snapshot's fixed
    /// terms (strict, so an exact hit beside no debt keeps the locked path
    /// and its `f_Ih` statistics).
    pub fn preferred_route(&self, model: &CostModel) -> Route {
        let fixed = model
            .snapshot_fixed
            .saturating_mul(self.shards_touched as u64);
        if self.merge_backlog.saturating_mul(model.merge_weight) > fixed {
            Route::Snapshot
        } else {
            Route::Locked
        }
    }

    /// Price class (see [`QueryPrice`]). Exact hits are always
    /// cheap (the paper's `f_Ih` queries touch only index bounds);
    /// everything else is charged its crack + merge work **plus its
    /// estimated result cardinality** (the equi-depth `est_rows`), so a
    /// selective query over coarse pieces stays cheap while a
    /// low-crack-cost query returning half the column does not.
    pub fn price(&self, model: &CostModel) -> QueryPrice {
        if self.screened {
            QueryPrice::Screened
        } else if self.exact_hit
            || self.locked_cost(model).saturating_add(self.est_rows) <= model.cheap_budget
        {
            QueryPrice::Cheap
        } else {
            QueryPrice::Expensive
        }
    }
}

/// Access path chosen by the cost cutover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Query-driven cracking under the structure lock (refines the index).
    Locked,
    /// Snapshot read: prefix sums and edge filters under the structure
    /// lock shared (merges nothing; cracks its bounds only after a costly
    /// filter, and never blocks on a latch to do so).
    Snapshot,
}

/// Price class of one query: what decides whether a spanning range is
/// decomposed and where a query drains in a crack-aware batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPrice {
    /// A point probe screened out by a per-shard membership filter: the
    /// answer is already known to be zero for the touched shard — near
    /// free, drained first.
    Screened,
    /// Exact hit or near-optimal edges: drained first; a spanning range
    /// runs whole.
    Cheap,
    /// A cold or wide crack: drained after the cheap queries; a spanning
    /// range is decomposed into per-shard parts.
    Expensive,
}

/// Prices `pred` against one shard's live cracker index: both bounds
/// under one `index` read ([`CrackerColumn::with_index`]; the lookups clone
/// no latch), then the queue's length (the `pending` mutex). Never nested,
/// and never under the structure lock, so it waits for nothing but a
/// Ripple walk of this shard — which the read it prices waits for too.
pub fn estimate(col: &CrackerColumn, pred: Predicate) -> PlanCost {
    if pred.is_empty() {
        return PlanCost {
            exact_hit: true,
            shards_touched: 1,
            ..PlanCost::default()
        };
    }
    let (lo, hi) = col.with_index(|idx| (edge(idx, pred.lo, true), edge(idx, pred.hi, false)));
    // The two edge pieces, one piece both bounds fall into counted once:
    // one read of the index hands out one piece or two disjoint ones.
    let mut edges = lo.end - lo.start;
    if (hi.start, hi.end) != (lo.start, lo.end) {
        edges += hi.end - hi.start;
    }
    let pending = col.pending_len();
    PlanCost {
        crack_values: edges as u64,
        est_rows: (hi.pos - lo.pos).max(0.0).round() as u64,
        merge_backlog: if pending > CrackerColumn::MERGE_BACKLOG {
            pending as u64
        } else {
            0
        },
        exact_hit: lo.exact && hi.exact,
        screened: false,
        shards_touched: 1,
    }
}

/// Where one predicate bound sits in a column's index.
struct Edge {
    /// The bound is a piece boundary, or a sentinel: zero crack work (the
    /// paper's `f_Ih` hit).
    exact: bool,
    /// The piece a crack at the bound partitions (empty when exact).
    start: usize,
    end: usize,
    /// Position of the bound in cracked-position space, reading the
    /// boundary table as a free equi-depth sketch: interpolated linearly
    /// across the piece's key range, or the conservative piece edge (start
    /// for a lower bound, end for an upper one) when a column-edge piece
    /// has no outer key. Best-effort selectivity, never a safety bound.
    pos: f64,
}

/// One lookup of bound `v`; `low_side` says which end of a predicate `v`
/// is (it only picks the fallback edge of `pos`).
fn edge(idx: &CrackerIndex, v: i64, low_side: bool) -> Edge {
    let boundary = |p: usize| Edge {
        exact: true,
        start: p,
        end: p,
        pos: p as f64,
    };
    if v == i64::MIN {
        return boundary(0);
    }
    if v == i64::MAX {
        return boundary(idx.len());
    }
    let (start, end, lo_key, hi_key) = match idx.locate(v) {
        BoundLookup::Exact(p) => return boundary(p),
        BoundLookup::Piece {
            start,
            end,
            lo_key,
            hi_key,
            ..
        } => (start, end, lo_key, hi_key),
    };
    let pos = match (lo_key, hi_key) {
        (Some(a), Some(b)) if b > a => {
            let num = (v as i128 - a as i128) as f64;
            let den = (b as i128 - a as i128) as f64;
            start as f64 + (end - start) as f64 * (num / den).clamp(0.0, 1.0)
        }
        _ if low_side => start as f64,
        _ => end as f64,
    };
    Edge {
        exact: false,
        start,
        end,
        pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_cracking::CrackScratch;
    use holix_storage::types::RowId;

    /// A column of `len` values cracked into exactly the boundary table
    /// `bounds` (`key → position`, keys ascending), with `pending` inserts
    /// queued beside it. Each piece holds the key that opens it (the first
    /// piece the key below the first boundary).
    fn column(len: usize, bounds: &[(i64, usize)], pending: usize) -> CrackerColumn {
        let mut vals = Vec::with_capacity(len);
        let mut key = bounds.first().map_or(0, |b| b.0 - 1);
        for &(k, pos) in bounds.iter().chain([&(0, len)]) {
            vals.resize(pos, key);
            key = k;
        }
        let col = CrackerColumn::from_base("a", &vals);
        // Middle keys first, so the cracks cost n log n.
        let mut order: Vec<usize> = (0..bounds.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse((i + 1).trailing_zeros()));
        let mut scratch = CrackScratch::new();
        for i in order {
            col.refine_at_blocking(bounds[i].0, &mut scratch);
        }
        for i in 0..pending {
            col.queue_insert(0, (len + i) as RowId);
        }
        assert_eq!((col.len(), col.piece_count()), (len, bounds.len() + 1));
        col
    }

    #[test]
    fn exact_hits_are_cheap_and_stay_locked() {
        let model = CostModel::default();
        let s = column(100_000, &[(10, 25_000), (20, 60_000)], 0);
        let c = estimate(&s, Predicate::range(10, 20));
        assert!(c.exact_hit);
        assert_eq!(c.crack_values, 0);
        assert_eq!(c.locked_cost(&model), 0);
        assert_eq!(c.price(&model), QueryPrice::Cheap);
        assert_eq!(c.preferred_route(&model), Route::Locked);
        assert_eq!(c.est_rows, 35_000);
    }

    #[test]
    fn cold_cracks_are_expensive() {
        let model = CostModel::default();
        let s = column(1_000_000, &[], 0);
        let c = estimate(&s, Predicate::range(10, 20));
        assert!(!c.exact_hit);
        // Both bounds fall into the one piece: one three-way crack, the
        // price of a cold shard.
        assert_eq!(c.crack_values, 1_000_000);
        assert_eq!(c.crack_values, PlanCost::cold(1_000_000).crack_values);
        assert_eq!(c.price(&model), QueryPrice::Expensive);
    }

    #[test]
    fn only_merge_debt_sends_a_read_to_the_snapshot_path() {
        let model = CostModel::default();
        // Both paths filter or crack the same edge pieces: without a queue
        // past the backlog the locked path wins, however wide the edges,
        // and with one the snapshot path, which merges nothing, does.
        let s = column(100_000, &[(50, 50_000)], 0);
        let c = estimate(&s, Predicate::range(10, 20));
        assert_eq!(c.crack_values, 50_000);
        assert_eq!(c.preferred_route(&model), Route::Locked);
        let backlogged = column(100_000, &[(50, 50_000)], 1_000);
        let c = estimate(&backlogged, Predicate::range(10, 20));
        assert_eq!(c.preferred_route(&model), Route::Snapshot);
        assert!(c.price(&model) == QueryPrice::Expensive);
        // The debt must outweigh the fixed term of every touched shard:
        // 257 updates (2,056 units) cover 32 shards (2,048), not 33.
        let mut debt = PlanCost {
            merge_backlog: 257,
            shards_touched: 32,
            ..PlanCost::default()
        };
        assert_eq!(debt.preferred_route(&model), Route::Snapshot);
        debt.shards_touched = 33;
        assert_eq!(debt.preferred_route(&model), Route::Locked);
    }

    #[test]
    fn merge_folds_shards_conservatively() {
        let model = CostModel::default();
        let s1 = column(1_000, &[(10, 500)], 300);
        let s2 = column(2_000, &[], 0);
        let mut c = PlanCost::default();
        c.merge(estimate(&s1, Predicate::at_least(20)));
        assert_eq!(c.crack_values, 500);
        c.merge(estimate(&s2, Predicate::less_than(30)));
        assert_eq!(c.crack_values, 2_500);
        // A cold shard adds its build to the edges both routes pay; it
        // does not decide the route.
        c.merge(PlanCost::cold(4_000));
        assert_eq!(c.crack_values, 6_500);
        assert_eq!(c.shards_touched, 3);
        assert_eq!(c.merge_backlog, 300);
        assert!(!c.exact_hit);
        assert_eq!(c.preferred_route(&model), Route::Snapshot);
    }

    #[test]
    fn pending_backlog_prices_the_locked_path() {
        let model = CostModel::default();
        let s = column(100_000, &[(10, 25_000), (20, 60_000)], 1_000);
        let c = estimate(&s, Predicate::range(10, 20));
        assert!(c.exact_hit, "bounds still exact");
        assert_eq!(c.locked_cost(&model), 1_000 * model.merge_weight);
        assert_eq!(c.price(&model), QueryPrice::Cheap, "exact hits stay cheap");
    }

    #[test]
    fn only_a_queue_past_the_backlog_is_merge_debt() {
        // A select counts a queue of up to `MERGE_BACKLOG` updates and
        // merges nothing; one more and it merges the whole queue first.
        let backlog = CrackerColumn::MERGE_BACKLOG;
        assert_eq!(backlog, 256);
        let model = CostModel::default();
        let s = column(100_000, &[(10, 25_000), (20, 60_000)], backlog);
        let at = estimate(&s, Predicate::range(10, 20));
        assert_eq!(at.merge_backlog, 0);
        assert_eq!(at.locked_cost(&model), 0, "an exact hit beside the queue");
        s.queue_insert(0, RowId::MAX);
        let past = estimate(&s, Predicate::range(10, 20));
        assert_eq!(past.merge_backlog, 257);
        assert_eq!(past.locked_cost(&model), 257 * model.merge_weight);
    }

    #[test]
    fn screened_points_are_the_cheapest_price_class() {
        let model = CostModel::default();
        let c = PlanCost::screened_point();
        assert_eq!(c.price(&model), QueryPrice::Screened);
        assert_eq!(c.locked_cost(&model), 0);
        assert_eq!(c.preferred_route(&model), Route::Locked);
        // Folding a screened probe into a real fan-out loses the class:
        // only an all-shards-screened plan is free.
        let mut folded = PlanCost::screened_point();
        folded.merge(PlanCost::cold(1_000_000));
        assert_eq!(folded.price(&model), QueryPrice::Expensive);
        let mut both = PlanCost::screened_point();
        both.merge(PlanCost::screened_point());
        assert_eq!(both.price(&model), QueryPrice::Screened);
        assert_eq!(both.shards_touched, 2);
    }

    #[test]
    fn selectivity_estimate_drives_the_cheap_line() {
        let model = CostModel::default();
        // One piece of 1000 rows spanning keys [0, 100) with both outer
        // keys known: a selective sub-range interpolates to a fraction of
        // the depth while the crack work stays the whole piece.
        let s = column(1_000, &[(0, 0), (100, 1_000)], 0);
        let c = estimate(&s, Predicate::range(10, 20));
        assert_eq!(c.crack_values, 1_000, "the piece is partitioned once");
        assert!((90..=110).contains(&c.est_rows), "est {}", c.est_rows);
        // Exact-boundary bounds reproduce exact positions.
        let e = estimate(&s, Predicate::range(0, 100));
        assert_eq!(e.est_rows, 1_000);
        // Regression vs the pre-histogram model: tiny crack work but a
        // huge estimated result — the price must count the cardinality,
        // not just the crack, so this query is no longer Cheap.
        let fine: Vec<(i64, usize)> = (1..=1_000).map(|k| (k * 10, k as usize * 100)).collect();
        let f = column(100_000, &fine, 0);
        let big = estimate(&f, Predicate::range(15, 9_995));
        assert!(big.locked_cost(&model) <= model.cheap_budget);
        assert!(big.est_rows > model.cheap_budget);
        assert_eq!(big.price(&model), QueryPrice::Expensive);
    }

    #[test]
    fn adversarial_merges_saturate_instead_of_wrapping() {
        // Regression: `merge` and the prices used unchecked `+`/`*`, so a
        // multi-shard fold of near-MAX per-shard costs overflowed u64
        // (panic in debug, a near-zero price-fooling wrap in release).
        let model = CostModel::default();
        let huge = PlanCost {
            crack_values: u64::MAX - 1,
            est_rows: u64::MAX - 1,
            merge_backlog: u64::MAX / 4,
            exact_hit: false,
            screened: false,
            shards_touched: u32::MAX,
        };
        let mut folded = huge;
        folded.merge(huge);
        assert_eq!(folded.crack_values, u64::MAX);
        assert_eq!(folded.est_rows, u64::MAX);
        assert_eq!(folded.shards_touched, u32::MAX);
        assert_eq!(folded.locked_cost(&model), u64::MAX);
        assert_eq!(folded.preferred_route(&model), Route::Snapshot);
        assert_eq!(folded.price(&model), QueryPrice::Expensive);
    }

    #[test]
    fn degenerate_ranges_price_zero_rows_and_zero_cracks() {
        // Regression: an old guard excepted sentinel-valued bounds, so
        // `[MIN, MIN)` — an empty predicate on every execution path —
        // reported the first piece's size.
        let s = column(100, &[(10, 25), (20, 60)], 0);
        for (lo, hi) in [
            (i64::MIN, i64::MIN),
            (i64::MAX, i64::MAX),
            (15, 5),
            (12, 12),
            (i64::MAX, i64::MIN),
        ] {
            let c = estimate(&s, Predicate::range(lo, hi));
            assert_eq!((c.est_rows, c.crack_values), (0, 0), "[{lo}, {hi})");
            assert!(c.exact_hit);
        }
    }

    /// Linear-scan reference for [`estimate`], written from the field
    /// definitions: walks the boundary table `bounds` of a column of `len`
    /// values front to back, shares no lookup with the code under test.
    fn reference(len: usize, bounds: &[(i64, usize)], pending: usize, pred: Predicate) -> PlanCost {
        if pred.lo >= pred.hi {
            return PlanCost {
                exact_hit: true,
                shards_touched: 1,
                ..PlanCost::default()
            };
        }
        // One bound against the boundary table: (piece, exact, position).
        let bound = |v: i64, low_side: bool| -> ((usize, usize), bool, f64) {
            if v == i64::MIN {
                return ((0, 0), true, 0.0);
            }
            if v == i64::MAX {
                return ((len, len), true, len as f64);
            }
            let below = bounds.iter().rev().find(|b| b.0 <= v);
            let above = bounds.iter().find(|b| b.0 > v);
            if let Some(&(k, p)) = below {
                if k == v {
                    return ((p, p), true, p as f64);
                }
            }
            let start = below.map_or(0, |b| b.1);
            let end = above.map_or(len, |b| b.1);
            let pos = match (below, above) {
                (Some(a), Some(b)) => {
                    let frac = (v - a.0) as f64 / (b.0 - a.0) as f64;
                    start as f64 + (end - start) as f64 * frac
                }
                _ if low_side => start as f64,
                _ => end as f64,
            };
            ((start, end), false, pos)
        };
        let (lo, hi) = (bound(pred.lo, true), bound(pred.hi, false));
        let size = |(start, end): (usize, usize)| (end - start) as u64;
        let shared = !lo.1 && !hi.1 && lo.0 == hi.0;
        PlanCost {
            crack_values: size(lo.0) + if shared { 0 } else { size(hi.0) },
            est_rows: (hi.2 - lo.2).max(0.0).round() as u64,
            merge_backlog: if pending > CrackerColumn::MERGE_BACKLOG {
                pending as u64
            } else {
                0
            },
            exact_hit: lo.1 && hi.1,
            screened: false,
            shards_touched: 1,
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // `estimate` (two live index lookups) against the linear-scan
            // reference, on columns cracked at random keys — empty, one
            // piece and many, pieces left empty — whose reference
            // boundaries come from the sorted values: a cracked key sits
            // at the count of values below it. Probes at sentinel bounds,
            // bounds equal to a cracked key, next to one, anywhere else
            // and `lo >= hi`, on both sides of the backlog.
            #[test]
            fn estimate_matches_the_linear_scan_reference(
                vals in proptest::collection::vec(-200..200i64, 0..600),
                cracks in proptest::collection::vec(-250..250i64, 0..40),
                pending in 0..4usize,
                picks in proptest::collection::vec(
                    ((0..5u8, any::<u16>()), (0..5u8, any::<u16>())),
                    12,
                ),
            ) {
                let col = CrackerColumn::from_base("a", &vals);
                let mut scratch = CrackScratch::new();
                for &k in &cracks {
                    col.refine_at_blocking(k, &mut scratch);
                }
                let pending = [3, 256, 257, 4_000][pending];
                for i in 0..pending {
                    col.queue_insert(0, (vals.len() + i) as RowId);
                }
                let mut sorted = vals.clone();
                sorted.sort_unstable();
                let mut keys = cracks.clone();
                keys.sort_unstable();
                keys.dedup();
                let bounds: Vec<(i64, usize)> = keys
                    .iter()
                    .map(|&k| (k, sorted.partition_point(|&v| v < k)))
                    .collect();
                let value = |(kind, r): (u8, u16)| -> i64 {
                    let key = |r: u16| keys.get(r as usize % keys.len().max(1)).copied().unwrap_or(0);
                    match kind {
                        0 => i64::MIN,
                        1 => i64::MAX,
                        2 => key(r),
                        3 => key(r) + (r % 3) as i64 - 1,
                        _ => r as i64 % 600 - 300,
                    }
                };
                for (lo, hi) in picks {
                    let pred = Predicate::range(value(lo), value(hi));
                    let want = reference(vals.len(), &bounds, pending, pred);
                    prop_assert_eq!(estimate(&col, pred), want, "{:?}", pred);
                }
            }
        }

        fn arb_cost() -> impl Strategy<Value = PlanCost> {
            ((any::<u64>(), any::<u64>()), any::<u64>(), any::<bool>()).prop_map(
                |((crack, est), backlog, exact)| PlanCost {
                    crack_values: crack,
                    est_rows: est,
                    merge_backlog: backlog,
                    exact_hit: exact,
                    screened: false,
                    shards_touched: 1,
                },
            )
        }

        proptest! {
            // Folding more shards into a plan can only raise (or hold) its
            // costs — with unchecked arithmetic, a wrap made a wider
            // fan-out *cheaper*, inverting every price decision built
            // on the estimate — and the saturating route rule agrees with
            // the exact products.
            #[test]
            fn merged_costs_are_monotone_in_shard_count(
                shards in proptest::collection::vec(arb_cost(), 1..12),
            ) {
                let model = CostModel::default();
                let mut folded = PlanCost::default();
                let mut prev_locked = 0u64;
                let mut prev_est = 0u64;
                for (i, shard) in shards.into_iter().enumerate() {
                    folded.merge(shard);
                    prop_assert_eq!(folded.shards_touched as usize, i + 1);
                    let locked = folded.locked_cost(&model);
                    prop_assert!(locked >= prev_locked, "locked cost shrank");
                    prop_assert!(folded.est_rows >= prev_est, "estimated rows shrank");
                    let debt = folded.merge_backlog as u128 * model.merge_weight as u128;
                    let fixed = model.snapshot_fixed as u128 * folded.shards_touched as u128;
                    prop_assert_eq!(
                        folded.preferred_route(&model) == Route::Snapshot,
                        debt > fixed
                    );
                    prev_locked = locked;
                    prev_est = folded.est_rows;
                }
            }
        }
    }
}
