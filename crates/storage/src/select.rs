//! Range-selection operator over dense columns (single-threaded scan).
//!
//! All range predicates in the workspace are normalised to the half-open form
//! `lo <= v < hi`; the paper's `A < v` queries become `[i64::MIN, v)` and its
//! `low <= A < high` queries map directly.

use crate::types::succ;

/// Half-open range predicate `lo <= v < hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
}

impl Predicate {
    /// `lo <= v < hi`.
    pub fn range(lo: i64, hi: i64) -> Self {
        Predicate { lo, hi }
    }

    /// `v < hi` — the single-sided form used by the paper's microbenchmarks.
    pub fn less_than(hi: i64) -> Self {
        Predicate { lo: i64::MIN, hi }
    }

    /// `v >= lo`.
    pub fn at_least(lo: i64) -> Self {
        Predicate { lo, hi: i64::MAX }
    }

    /// Equality probe `v == value` as the unit half-open range
    /// `[value, succ(value))` — the lowering every point predicate takes
    /// through the range-only kernels. `point(i64::MAX)` degenerates to an
    /// empty predicate (the sentinel cannot be probed; synthetic domains
    /// never generate it).
    pub fn point(value: i64) -> Self {
        Predicate {
            lo: value,
            hi: succ(value),
        }
    }

    /// Inverse of [`Predicate::point`]: `Some(v)` when this predicate is a
    /// unit range `[v, succ(v))`. Ranges touching the domain sentinels are
    /// never points (a `hi == i64::MAX` bound means *unbounded*, not
    /// "up to the sentinel").
    pub fn as_point(&self) -> Option<i64> {
        (self.lo != i64::MAX && self.hi != i64::MAX && self.hi == succ(self.lo)).then_some(self.lo)
    }

    /// Does `v` satisfy the predicate?
    #[inline(always)]
    pub fn matches(&self, v: i64) -> bool {
        self.lo <= v && v < self.hi
    }

    /// `true` when no value can qualify.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Sentinel-aware variant of [`Predicate::matches`], mirroring the
    /// cracked select path: a bound equal to `i64::MIN`/`i64::MAX` means
    /// *unbounded*, so a value equal to `i64::MAX` qualifies under an
    /// unbounded upper end (where `matches` would exclude it). The
    /// snapshot read path filters edge pieces and folds pending-update
    /// overlays through this one definition.
    ///
    /// Degenerate predicates (`lo >= hi`, including sentinel-valued ones
    /// like `[MAX, MAX)`) match nothing — the same "empty result, zero
    /// cracks" rule the cracked select and the sharded fan-out apply, so
    /// the three paths can never disagree on a pathological range.
    #[inline(always)]
    pub fn matches_unbounded(&self, v: i64) -> bool {
        !self.is_empty()
            && (self.lo == i64::MIN || v >= self.lo)
            && (self.hi == i64::MAX || v < self.hi)
    }
}

/// Aggregate fingerprint of a selection: how many values qualified and their
/// sum. Engines compare counts for performance runs and (count, sum) pairs in
/// verification mode; the sum is wide enough to never overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RangeStats {
    /// Number of qualifying values.
    pub count: u64,
    /// Sum of qualifying values (widened).
    pub sum: i128,
}

impl RangeStats {
    /// Accumulates another partial result (e.g. from a parallel chunk).
    pub fn merge(&mut self, other: RangeStats) {
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Scans `values` and returns count and sum of qualifying values.
///
/// This is the "no indexing support" baseline: cost is O(N) data accesses per
/// query regardless of selectivity.
pub fn scan_stats(values: &[i64], pred: Predicate) -> RangeStats {
    let mut count = 0u64;
    let mut sum = 0i128;
    for &v in values {
        // Written as a single conditional accumulation so LLVM can vectorise.
        if pred.matches(v) {
            count += 1;
            sum += v as i128;
        }
    }
    RangeStats { count, sum }
}

/// Count-only scan (used where the sum checksum is not needed).
pub fn scan_count(values: &[i64], pred: Predicate) -> u64 {
    values.iter().filter(|&&v| pred.matches(v)).count() as u64
}

/// Computes [`RangeStats`] over a contiguous slice that is already known to
/// qualify (e.g. a cracked piece range) — no predicate evaluation.
pub fn slice_stats(values: &[i64]) -> RangeStats {
    let mut sum = 0i128;
    for &v in values {
        sum += v as i128;
    }
    RangeStats {
        count: values.len() as u64,
        sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_forms() {
        let p = Predicate::range(3i64, 8);
        assert!(p.matches(3) && p.matches(7));
        assert!(!p.matches(2) && !p.matches(8));

        let lt = Predicate::less_than(5i64);
        assert!(lt.matches(i64::MIN) && lt.matches(4) && !lt.matches(5));

        let ge = Predicate::at_least(5i64);
        assert!(ge.matches(5) && !ge.matches(4));
        // i64::MAX itself is excluded by the half-open form; acceptable for
        // synthetic domains that never generate the sentinel.
        assert!(!ge.matches(i64::MAX));
    }

    #[test]
    fn empty_predicate() {
        assert!(Predicate::range(5i64, 5).is_empty());
        assert!(Predicate::range(6i64, 5).is_empty());
        assert!(!Predicate::range(5i64, 6).is_empty());
    }

    #[test]
    fn point_round_trips_through_unit_range() {
        let p = Predicate::point(7i64);
        assert_eq!(p, Predicate::range(7, 8));
        assert_eq!(p.as_point(), Some(7));
        assert!(Predicate::range(7i64, 9).as_point().is_none());
        // Sentinel-adjacent ranges are never points: hi == MAX means
        // *unbounded*, and the sentinel itself cannot be probed.
        assert!(Predicate::range(i64::MAX - 1, i64::MAX)
            .as_point()
            .is_none());
        assert!(Predicate::point(i64::MAX).is_empty());
    }

    #[test]
    fn degenerate_predicates_match_nothing_even_with_sentinel_bounds() {
        // Regression: `[MAX, MAX)` is empty under `is_empty`/`matches` but
        // the sentinel-aware form used to read it as "unbounded above,
        // v >= MAX" and match the sentinel — so the snapshot path counted
        // a value the cracked path refused. Empty must mean empty on every
        // path.
        let top = Predicate::range(i64::MAX, i64::MAX);
        assert!(top.is_empty());
        assert!(!top.matches_unbounded(i64::MAX));
        let bottom = Predicate::range(i64::MIN, i64::MIN);
        assert!(bottom.is_empty());
        assert!(!bottom.matches_unbounded(i64::MIN));
        let inverted = Predicate::range(9i64, 3);
        assert!(!inverted.matches_unbounded(5));
        // Non-degenerate sentinel bounds keep their unbounded meaning.
        assert!(Predicate::range(0i64, i64::MAX).matches_unbounded(i64::MAX));
        assert!(Predicate::range(i64::MIN, 5).matches_unbounded(i64::MIN));
    }

    #[test]
    fn scan_stats_counts_and_sums() {
        let vals = [1i64, 5, 3, 9, 5, 0];
        let s = scan_stats(&vals, Predicate::range(3, 9));
        assert_eq!(s.count, 3); // 5, 3, 5
        assert_eq!(s.sum, 13);
    }

    #[test]
    fn slice_stats_sums_everything() {
        let s = slice_stats(&[1i64, -2, 3]);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RangeStats { count: 2, sum: 10 };
        a.merge(RangeStats { count: 3, sum: -4 });
        assert_eq!(a, RangeStats { count: 5, sum: 6 });
    }
}
