//! The crack-aware cost model: price a predicate against a shard's
//! published [`PieceStats`] without touching any lock.
//!
//! The unit of cost is *one value touched element-wise*. The locked path
//! pays the edge pieces it must partition (two cracks, or zero on an exact
//! hit) plus a Ripple-merge term for the pending backlog its select would
//! drain; the snapshot path pays the snapshot's edge-piece filter (interior
//! pieces answer O(1) from precomputed aggregates) and can never crack.
//! These are the same quantities the paper's §4 statistics track per index
//! (`f_Ih` exact hits, piece sizes feeding `d(I, I_opt)`) — read at plan
//! time instead of maintenance time.

use holix_cracking::PieceStats;
use holix_storage::select::Predicate;
use holix_storage::types::CrackValue;

/// Cost-model constants. One merged pending update moves a boundary element
/// per downstream piece (Ripple), so it is weighted well above a scanned
/// value; the fixed snapshot term covers the snapshot load + overlay fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Touched-value equivalents charged per pending update the locked
    /// path may merge before answering.
    pub merge_weight: u64,
    /// Fixed touched-value equivalents per snapshot read (pin + overlay).
    pub snapshot_fixed: u64,
    /// Touched-value budget below which a query is *cheap* — never worth
    /// shedding (an exact hit, or edge pieces already near-optimal).
    pub cheap_budget: u64,
    /// Snapshot edge-filter budget above which a downgrade-to-snapshot
    /// stops paying (the inline filter would itself be the overload).
    pub downgrade_budget: u64,
    /// Extra touched-value equivalents charged per edge-filtered value
    /// that lives in an *encoded* (FOR / delta / RLE) snapshot piece — the
    /// sequential bit-unpack a compressed-form scan pays on top of the
    /// compare. Small: unpacking is a shift+mask, and the narrow piece is
    /// more cache-resident than its plain form.
    pub decode_weight: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            merge_weight: 8,
            snapshot_fixed: 64,
            cheap_budget: 1 << 12,
            downgrade_budget: 1 << 15,
            decode_weight: 2,
        }
    }
}

/// Plan-time price of one query, merged over every shard its predicate
/// intersects. All numbers are conservative touched-value estimates derived
/// from (possibly sampled) published statistics — over-estimates, never
/// under-estimates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCost {
    /// Values the locked path would partition: the sizes of the edge
    /// pieces each non-exact bound falls into.
    pub crack_values: u64,
    /// Equi-depth cardinality estimate (interpolated within the edge
    /// pieces of the free histogram the boundary table forms): the
    /// selectivity number behind driver-term election and the
    /// `Cheap`/`Expensive` admission line. Best-effort, not conservative —
    /// never used for safety decisions.
    pub est_rows: u64,
    /// Pending Ripple updates the locked path may merge first.
    pub merge_backlog: u64,
    /// Values a snapshot read would filter in its edge pieces; `None`
    /// when some touched shard has no published snapshot (the first
    /// reader would pay an O(shard) build).
    pub snapshot_filter: Option<u64>,
    /// The subset of `snapshot_filter` residing in *encoded* pieces, each
    /// paying a bit-unpack on top of the compare (morphed cold segments).
    /// Zero whenever `snapshot_filter` is `None`.
    pub decode_rows: u64,
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
    /// A cost for a shard (or whole attribute) with no published
    /// statistics: a cold column of `len` rows — everything is expensive,
    /// nothing is known about snapshots.
    pub fn cold(len: usize) -> Self {
        PlanCost {
            crack_values: len as u64,
            est_rows: len as u64,
            merge_backlog: 0,
            snapshot_filter: None,
            decode_rows: 0,
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
    /// All arithmetic saturates: the per-shard terms are conservative
    /// *over*-estimates (a sampled stats summary can report up to the
    /// whole shard per bound), so a wide fan-out over adversarial
    /// summaries must pin at `u64::MAX` — not wrap around to a price of
    /// nearly zero and sail through admission.
    pub fn merge(&mut self, other: PlanCost) {
        if self.shards_touched == 0 {
            *self = other;
            return;
        }
        self.crack_values = self.crack_values.saturating_add(other.crack_values);
        self.est_rows = self.est_rows.saturating_add(other.est_rows);
        self.merge_backlog = self.merge_backlog.saturating_add(other.merge_backlog);
        self.snapshot_filter = match (self.snapshot_filter, other.snapshot_filter) {
            (Some(a), Some(b)) => Some(a.saturating_add(b)),
            _ => None,
        };
        self.decode_rows = self.decode_rows.saturating_add(other.decode_rows);
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

    /// Touched-value cost of answering through the snapshot path (`None`
    /// when a touched shard has never published a snapshot; saturating).
    /// Edge-filter values in encoded pieces pay `decode_weight` extra
    /// each — the cutover sees that a morphed edge is a bit slower to
    /// filter, while interior encoded pieces (answered from aggregates)
    /// stay free.
    pub fn snapshot_cost(&self, model: &CostModel) -> Option<u64> {
        self.snapshot_filter.map(|f| {
            f.saturating_add(
                model
                    .snapshot_fixed
                    .saturating_mul(self.shards_touched as u64),
            )
            .saturating_add(self.decode_rows.saturating_mul(model.decode_weight))
        })
    }

    /// The route the model prefers for a read-only query: snapshot exactly
    /// when its edge pieces are fresh enough to beat the locked crack
    /// (strict `<`, so a fresh exact hit keeps the locked path and its
    /// `f_Ih` statistics).
    pub fn preferred_route(&self, model: &CostModel) -> Route {
        match self.snapshot_cost(model) {
            Some(snap) if snap < self.locked_cost(model) => Route::Snapshot,
            _ => Route::Locked,
        }
    }

    /// Admission price class (see [`QueryPrice`]). Exact hits are always
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

    /// Under overload, can this query be served inline from the snapshot
    /// path instead of being shed? Requires a published snapshot whose
    /// edge filter both beats the locked cost and fits the downgrade
    /// budget (an unbounded inline filter would itself be the overload).
    pub fn downgradable(&self, model: &CostModel) -> bool {
        match self.snapshot_cost(model) {
            Some(snap) => snap < self.locked_cost(model) && snap <= model.downgrade_budget,
            None => false,
        }
    }
}

/// Access path chosen by the cost cutover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Query-driven cracking under the structure lock (refines the index).
    Locked,
    /// Snapshot read: no structure lock (never cracks).
    Snapshot,
}

/// Admission price class of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPrice {
    /// A point probe screened out by a per-shard membership filter: the
    /// answer is already known to be zero for the touched shard — near
    /// free, admission executes it inline rather than spend a queue slot.
    Screened,
    /// Exact hit or near-optimal edges: admission must never shed it.
    Cheap,
    /// A cold or wide crack: sheddable (or downgradable to the snapshot
    /// path) under overload.
    Expensive,
}

/// Prices `pred` against one shard's published statistics. Pure function
/// of the immutable summary — callable while every column lock is held by
/// someone else.
pub fn estimate<V: CrackValue>(stats: &PieceStats<V>, pred: Predicate<V>) -> PlanCost {
    if pred.is_empty() {
        return PlanCost {
            exact_hit: true,
            shards_touched: 1,
            ..PlanCost::default()
        };
    }
    // One boundary-table lookup and one snapshot-table lookup per bound;
    // every field below is read off those four results.
    let lo = stats.locate(pred.lo, true);
    let hi = stats.locate(pred.hi, false);
    let snap = stats
        .snapshot_edge(pred.lo)
        .zip(stats.snapshot_edge(pred.hi));
    PlanCost {
        crack_values: ((lo.end - lo.start) + (hi.end - hi.start)) as u64,
        est_rows: (hi.pos - lo.pos).max(0.0).round() as u64,
        merge_backlog: stats.pending as u64,
        snapshot_filter: snap.map(|(l, h)| l.0 + h.0),
        decode_rows: snap.map_or(0, |(l, h)| l.1 + h.1),
        exact_hit: lo.exact && hi.exact,
        screened: false,
        shards_touched: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_cracking::piece_stats::{PieceStats, SnapPieceStat};

    fn sp(hi_key: Option<i64>, len: usize) -> SnapPieceStat<i64> {
        SnapPieceStat {
            hi_key,
            len,
            plain: true,
        }
    }

    fn stats(
        len: usize,
        bounds: Vec<(i64, usize)>,
        pending: usize,
        snap: Option<Vec<SnapPieceStat<i64>>>,
    ) -> PieceStats<i64> {
        PieceStats {
            len,
            piece_count: bounds.len() + 1,
            bounds,
            pending,
            snap_pieces: snap,
        }
    }

    #[test]
    fn exact_hits_are_cheap_and_stay_locked() {
        let model = CostModel::default();
        let s = stats(100_000, vec![(10, 25_000), (20, 60_000)], 0, None);
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
        let s = stats(1_000_000, vec![], 0, None);
        let c = estimate(&s, Predicate::range(10, 20));
        assert!(!c.exact_hit);
        assert_eq!(c.crack_values, 2_000_000);
        assert_eq!(c.price(&model), QueryPrice::Expensive);
        assert!(
            !c.downgradable(&model),
            "no snapshot: nothing to downgrade to"
        );
    }

    #[test]
    fn fresh_snapshot_wins_the_cutover() {
        let model = CostModel::default();
        // Live index coarse around the bounds (big crack), snapshot fine
        // (small filter): the cutover must pick the snapshot.
        let s = stats(
            100_000,
            vec![(50, 50_000)],
            0,
            Some(vec![
                sp(Some(10), 128),
                sp(Some(20), 128),
                sp(Some(50), 49_744),
                sp(None, 50_000),
            ]),
        );
        let c = estimate(&s, Predicate::range(10, 20));
        assert_eq!(c.snapshot_filter, Some(0), "snapshot boundaries are exact");
        assert_eq!(c.preferred_route(&model), Route::Snapshot);
        assert!(c.price(&model) == QueryPrice::Expensive);
        assert!(c.downgradable(&model));
    }

    #[test]
    fn encoded_edge_pieces_price_the_decode_term() {
        let model = CostModel::default();
        // Snapshot edges fresh but *encoded*: the decode term raises the
        // snapshot price without touching the locked price.
        let snap = vec![
            SnapPieceStat {
                hi_key: Some(10),
                len: 4_000,
                plain: false,
            },
            sp(Some(50), 42_000),
            SnapPieceStat {
                hi_key: None,
                len: 4_000,
                plain: false,
            },
        ];
        let s = stats(50_000, vec![(10, 4_000), (50, 46_000)], 0, Some(snap));
        let c = estimate(&s, Predicate::range(5, 60));
        assert_eq!(c.snapshot_filter, Some(8_000));
        assert_eq!(c.decode_rows, 8_000, "both edges decode");
        let plain_price = 8_000 + model.snapshot_fixed;
        assert_eq!(
            c.snapshot_cost(&model),
            Some(plain_price + 8_000 * model.decode_weight),
            "encoded edges pay decode_weight on top of the filter"
        );
        // Interior encoded pieces stay free: bounds on snapshot boundaries
        // price zero even though a middle piece could be encoded.
        let exact = estimate(&s, Predicate::range(10, 50));
        assert_eq!(exact.decode_rows, 0);
        assert_eq!(exact.snapshot_cost(&model), Some(model.snapshot_fixed));
    }

    #[test]
    fn merge_folds_shards_conservatively() {
        let model = CostModel::default();
        let s1 = stats(1_000, vec![(10, 500)], 3, Some(vec![sp(None, 1_000)]));
        let s2 = stats(2_000, vec![], 0, None);
        let mut c = PlanCost::default();
        c.merge(estimate(&s1, Predicate::at_least(20)));
        assert!(c.snapshot_filter.is_some());
        c.merge(estimate(&s2, Predicate::less_than(30)));
        assert_eq!(c.shards_touched, 2);
        assert_eq!(c.merge_backlog, 3);
        assert!(
            c.snapshot_cost(&model).is_none(),
            "one snapshot-less shard poisons the snapshot route"
        );
        assert_eq!(c.preferred_route(&model), Route::Locked);
    }

    #[test]
    fn pending_backlog_prices_the_locked_path() {
        let model = CostModel::default();
        let s = stats(100_000, vec![(10, 25_000), (20, 60_000)], 1_000, None);
        let c = estimate(&s, Predicate::range(10, 20));
        assert!(c.exact_hit, "bounds still exact");
        assert_eq!(c.locked_cost(&model), 1_000 * model.merge_weight);
        assert_eq!(c.price(&model), QueryPrice::Cheap, "exact hits stay cheap");
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
        // the depth while the crack work stays the whole piece per bound.
        let s = stats(1_000, vec![(0, 0), (100, 1_000)], 0, None);
        let c = estimate(&s, Predicate::range(10, 20));
        assert_eq!(c.crack_values, 2_000, "crack work stays conservative");
        assert!((90..=110).contains(&c.est_rows), "est {}", c.est_rows);
        // Exact-boundary bounds reproduce exact positions.
        let e = estimate(&s, Predicate::range(0, 100));
        assert_eq!(e.est_rows, 1_000);
        // Regression vs the pre-histogram model: tiny crack work but a
        // huge estimated result — admission must price the cardinality,
        // not just the crack, so this query is no longer Cheap.
        let fine: Vec<(i64, usize)> = (1..=1_000).map(|k| (k * 10, k as usize * 100)).collect();
        let f = stats(100_000, fine, 0, None);
        let big = estimate(&f, Predicate::range(15, 9_995));
        assert!(big.locked_cost(&model) <= model.cheap_budget);
        assert!(big.est_rows > model.cheap_budget);
        assert_eq!(big.price(&model), QueryPrice::Expensive);
    }

    #[test]
    fn adversarial_merges_saturate_instead_of_wrapping() {
        // Regression: `merge`/`locked_cost`/`snapshot_cost` used unchecked
        // `+`/`*`. PieceStats sizes only promise *over*-estimates, so a
        // multi-shard fold of near-MAX per-shard costs overflowed u64
        // (panic in debug, a near-zero admission-fooling wrap in release).
        let model = CostModel::default();
        let huge = PlanCost {
            crack_values: u64::MAX - 1,
            est_rows: u64::MAX - 1,
            merge_backlog: u64::MAX / 4,
            snapshot_filter: Some(u64::MAX - 1),
            decode_rows: u64::MAX - 1,
            exact_hit: false,
            screened: false,
            shards_touched: u32::MAX,
        };
        let mut folded = huge;
        folded.merge(huge);
        assert_eq!(folded.crack_values, u64::MAX);
        assert_eq!(folded.est_rows, u64::MAX);
        assert_eq!(folded.snapshot_filter, Some(u64::MAX));
        assert_eq!(folded.shards_touched, u32::MAX);
        assert_eq!(folded.locked_cost(&model), u64::MAX);
        assert_eq!(folded.snapshot_cost(&model), Some(u64::MAX));
        assert_eq!(folded.price(&model), QueryPrice::Expensive);
    }

    #[test]
    fn degenerate_ranges_price_zero_rows_and_zero_cracks() {
        // Regression: an old guard excepted sentinel-valued bounds, so
        // `[MIN, MIN)` — an empty predicate on every execution path —
        // reported the first piece's size.
        let s = stats(100, vec![(10, 25), (20, 60)], 0, None);
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
    /// definitions: walks both tables front to back, shares no lookup
    /// with the code under test.
    fn reference(stats: &PieceStats<i64>, pred: Predicate<i64>) -> PlanCost {
        if pred.lo >= pred.hi {
            return PlanCost {
                exact_hit: true,
                shards_touched: 1,
                ..PlanCost::default()
            };
        }
        // One bound against the boundary table: (crack size, exact, position).
        let bound = |v: i64, low_side: bool| -> (u64, bool, f64) {
            if v == i64::MIN {
                return (0, true, 0.0);
            }
            if v == i64::MAX {
                return (0, true, stats.len as f64);
            }
            let below = stats.bounds.iter().rev().find(|b| b.0 <= v);
            let above = stats.bounds.iter().find(|b| b.0 > v);
            if let Some(&(k, p)) = below {
                if k == v {
                    return (0, true, p as f64);
                }
            }
            let start = below.map_or(0, |b| b.1);
            let end = above.map_or(stats.len, |b| b.1);
            let pos = match (below, above) {
                (Some(a), Some(b)) => {
                    let frac = (v - a.0) as f64 / (b.0 - a.0) as f64;
                    start as f64 + (end - start) as f64 * frac
                }
                _ if low_side => start as f64,
                _ => end as f64,
            };
            ((end - start) as u64, false, pos)
        };
        // One bound against the snapshot piece table: (filter, decode) rows
        // of the piece the bound falls strictly inside.
        let snap_edge = |pieces: &[SnapPieceStat<i64>], v: i64| -> (u64, u64) {
            if v == i64::MIN || v == i64::MAX {
                return (0, 0);
            }
            let mut lo_key = None;
            for p in pieces {
                if lo_key.is_none_or(|k| k < v) && p.hi_key.is_none_or(|k| v < k) {
                    let rows = p.len as u64;
                    return (rows, if p.plain { 0 } else { rows });
                }
                lo_key = p.hi_key;
            }
            (0, 0)
        };
        let (lo, hi) = (bound(pred.lo, true), bound(pred.hi, false));
        let snap = stats
            .snap_pieces
            .as_deref()
            .map(|p| (snap_edge(p, pred.lo), snap_edge(p, pred.hi)));
        PlanCost {
            crack_values: lo.0 + hi.0,
            est_rows: (hi.2 - lo.2).max(0.0).round() as u64,
            merge_backlog: stats.pending as u64,
            snapshot_filter: snap.map(|(l, h)| l.0 + h.0),
            decode_rows: snap.map_or(0, |(l, h)| l.1 + h.1),
            exact_hit: lo.1 && hi.1,
            screened: false,
            shards_touched: 1,
        }
    }

    mod prop {
        use super::*;
        use holix_cracking::piece_stats::MAX_STATS_BOUNDS;
        use proptest::prelude::*;

        /// A boundary table of `n` entries cycling through `(key gap, piece
        /// length)` steps — strictly increasing keys, non-decreasing
        /// positions — stride-sampled past the cap as the column publishes
        /// it. Returns `(len, bounds)`.
        fn table(steps: &[(i64, usize)], n: usize) -> (usize, Vec<(i64, usize)>) {
            let (mut key, mut pos) = (-50i64, 0usize);
            let mut bounds = Vec::with_capacity(n);
            for i in 0..n {
                let (gap, len) = steps[i % steps.len()];
                key += gap;
                pos += len;
                bounds.push((key, pos));
            }
            let stride = n.div_ceil(MAX_STATS_BOUNDS).max(1);
            (pos + 7, bounds.into_iter().step_by(stride).collect())
        }

        proptest! {
            // `estimate` (two binary searches per table) against the
            // linear-scan reference, on empty, one-bound, small and
            // stride-sampled tables, with and without a snapshot piece
            // table, at sentinel bounds, bounds equal to a key, bounds
            // between keys, bounds outside the table and `lo >= hi`.
            #[test]
            fn estimate_matches_the_linear_scan_reference(
                size in 0..5u8,
                steps in proptest::collection::vec((1..=4i64, 0..40usize), 1..24),
                snap in (
                    any::<bool>(),
                    proptest::collection::vec((1..=9i64, 0..60usize, any::<bool>()), 0..10),
                    any::<bool>(),
                ),
                picks in proptest::collection::vec(
                    ((0..5u8, any::<u16>()), (0..5u8, any::<u16>())),
                    12,
                ),
            ) {
                let n = match size {
                    0 => 0,
                    1 => 1,
                    2 | 3 => steps.len() * 2,
                    _ => MAX_STATS_BOUNDS + 1 + steps.len() * 97,
                };
                let (len, bounds) = table(&steps, n);
                prop_assert!(bounds.len() <= MAX_STATS_BOUNDS);
                let (published, pieces, open_end) = snap;
                let snap_pieces = published.then(|| {
                    let mut key = -40i64;
                    let mut out: Vec<_> = pieces
                        .iter()
                        .map(|&(gap, len, plain)| {
                            key += gap;
                            SnapPieceStat { hi_key: Some(key), len, plain }
                        })
                        .collect();
                    if open_end {
                        out.push(SnapPieceStat { hi_key: None, len: 33, plain: false });
                    }
                    out
                });
                let s = PieceStats {
                    len,
                    piece_count: n + 1,
                    bounds,
                    pending: 3,
                    snap_pieces,
                };
                let value = |(kind, r): (u8, u16)| -> i64 {
                    let key = |r: u16| s.bounds.get(r as usize % s.bounds.len().max(1)).map_or(0, |b| b.0);
                    match kind {
                        0 => i64::MIN,
                        1 => i64::MAX,
                        2 => key(r),
                        3 => key(r) + (r % 3) as i64 - 1,
                        _ => r as i64 % 400 - 120,
                    }
                };
                for (lo, hi) in picks {
                    let pred = Predicate::range(value(lo), value(hi));
                    let (got, want) = (estimate(&s, pred), reference(&s, pred));
                    prop_assert_eq!(got, want, "{:?}", pred);
                }
            }
        }

        fn arb_cost() -> impl Strategy<Value = PlanCost> {
            (
                (any::<u64>(), any::<u64>()),
                (any::<u64>(), any::<u64>()),
                (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v)),
                any::<bool>(),
            )
                .prop_map(|((crack, est), (backlog, decode), snap, exact)| PlanCost {
                    crack_values: crack,
                    est_rows: est,
                    merge_backlog: backlog,
                    snapshot_filter: snap,
                    decode_rows: decode,
                    exact_hit: exact,
                    screened: false,
                    shards_touched: 1,
                })
        }

        proptest! {
            // Folding more shards into a plan can only raise (or hold) its
            // costs — with unchecked arithmetic, a wrap made a wider
            // fan-out *cheaper*, inverting every admission decision built
            // on the estimate.
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
                    if let Some(snap) = folded.snapshot_cost(&model) {
                        prop_assert!(snap >= folded.snapshot_filter.unwrap_or(0));
                    }
                    prev_locked = locked;
                    prev_est = folded.est_rows;
                }
            }
        }
    }
}
