//! Stochastic cracking (\[21\], used as the PVSDC baseline in §5.2–5.3).
//!
//! Plain cracking is driven purely by query predicates, which leaves large
//! unindexed pieces under skewed or sequential workloads. Stochastic cracking
//! injects, for each user query, **one auxiliary random crack inside the
//! piece the query is about to crack** — enough extra order to stay robust
//! without the holistic machinery. (The paper contrasts this with holistic
//! indexing, whose random refinements span the whole domain and keep running
//! when no queries arrive.)

use crate::column::{CrackerColumn, Selection};
use crate::index::BoundLookup;
use crate::vectorized::CrackScratch;
use holix_storage::select::Predicate;
use rand::Rng;

/// Range select with one auxiliary random crack per touched bound, confined
/// to the piece that bound is about to crack (the DDC/MDD1R-style behaviour
/// described in the paper).
pub fn select_stochastic(
    col: &CrackerColumn,
    pred: Predicate,
    rng: &mut impl Rng,
    scratch: &mut CrackScratch,
) -> Selection {
    if !pred.is_empty() {
        random_crack_within_piece_of(col, pred.lo, rng, scratch);
        random_crack_within_piece_of(col, pred.hi, rng, scratch);
    }
    col.select(pred, scratch)
}

/// If `bound` falls inside a piece (not already a boundary), cracks that
/// piece once at a uniformly drawn pivot *within the piece's value range*.
fn random_crack_within_piece_of(
    col: &CrackerColumn,
    bound: i64,
    rng: &mut impl Rng,
    scratch: &mut CrackScratch,
) {
    if bound == i64::MIN || bound == i64::MAX {
        return;
    }
    let Some((lo_key, hi_key)) = col.with_index(|idx| match idx.locate(bound) {
        BoundLookup::Exact(_) => None,
        BoundLookup::Piece { lo_key, hi_key, .. } => Some((lo_key, hi_key)),
    }) else {
        return;
    };
    // The piece holds values in [lo_key, hi_key); fall back to the column
    // domain for the outermost pieces.
    let (dom_lo, dom_hi) = match col.domain() {
        Some(d) => d,
        None => return,
    };
    let lo = lo_key.unwrap_or(dom_lo);
    let hi = hi_key.unwrap_or(dom_hi);
    if lo >= hi {
        return;
    }
    let pivot = rng.random_range(lo..hi);
    // Blocking refinement: this runs inside the user query, as in [21].
    col.refine_at_blocking(pivot, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_storage::select::scan_stats;
    use rand::prelude::*;

    #[test]
    fn stochastic_select_is_correct() {
        let mut rng = StdRng::seed_from_u64(21);
        let base: Vec<i64> = (0..20_000).map(|_| rng.random_range(0..10_000)).collect();
        let col = CrackerColumn::from_base("a", &base);
        let mut scratch = CrackScratch::new();
        for _ in 0..50 {
            let a = rng.random_range(0..10_000);
            let b = rng.random_range(0..10_000);
            let pred = Predicate::range(a.min(b), a.max(b));
            let sel = select_stochastic(&col, pred, &mut rng, &mut scratch);
            assert_eq!(sel.count(), scan_stats(&base, pred).count);
        }
        col.check_invariants(Some(&base));
    }

    #[test]
    fn stochastic_creates_more_pieces_than_plain() {
        let mut rng = StdRng::seed_from_u64(22);
        let base: Vec<i64> = (0..50_000).map(|_| rng.random_range(0..100_000)).collect();

        // Sequential workload: the adversarial case for plain cracking.
        let preds: Vec<Predicate> = (0..50)
            .map(|i| Predicate::range(i * 1_000, i * 1_000 + 500))
            .collect();

        let plain = CrackerColumn::from_base("p", &base);
        let mut scratch = CrackScratch::new();
        for &p in &preds {
            plain.select(p, &mut scratch);
        }

        let stoch = CrackerColumn::from_base("s", &base);
        for &p in &preds {
            select_stochastic(&stoch, p, &mut rng, &mut scratch);
        }

        assert!(
            stoch.piece_count() > plain.piece_count(),
            "stochastic {} <= plain {}",
            stoch.piece_count(),
            plain.piece_count()
        );
    }

    #[test]
    fn exact_bounds_skip_random_crack() {
        let mut rng = StdRng::seed_from_u64(23);
        let base: Vec<i64> = (0..5_000).map(|_| rng.random_range(0..1_000)).collect();
        let col = CrackerColumn::from_base("a", &base);
        let mut scratch = CrackScratch::new();
        let pred = Predicate::range(200, 700);
        select_stochastic(&col, pred, &mut rng, &mut scratch);
        let pieces_after_first = col.piece_count();
        // Re-running the same query: bounds are exact hits, no random cracks.
        select_stochastic(&col, pred, &mut rng, &mut scratch);
        assert_eq!(col.piece_count(), pieces_after_first);
    }
}
