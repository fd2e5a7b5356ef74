//! What holistic tuning needs from an adaptive index.
//!
//! [`RefinableIndex`] is the index space's view of an index: piece
//! statistics for Equation (1), random-pivot refinement and the background
//! drain of its update queue. [`CrackerColumn`] implements it directly;
//! the index-space tests substitute fakes through it.

use holix_cracking::{CrackScratch, CrackerColumn, RefineOutcome};
use rand::RngCore;

/// The operations holistic tuning runs on an index.
pub trait RefinableIndex: Send + Sync {
    /// Index (column) name.
    fn name(&self) -> &str;
    /// Tuples in the cracker column.
    fn len(&self) -> usize;
    /// `true` when the cracker column holds no tuples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Current piece count `p`.
    fn piece_count(&self) -> usize;
    /// Materialised bytes (values + row ids + index) for budgeting.
    fn payload_bytes(&self) -> usize;
    /// One refinement at a random pivot; tries up to `attempts` pivots when
    /// pieces are latched. Merges the pending updates first when that
    /// waits for nobody (a column a read holds keeps its queue).
    fn refine_random(
        &self,
        rng: &mut dyn RngCore,
        attempts: usize,
        scratch: &mut CrackScratch,
    ) -> RefineOutcome;
    /// `true` when enough updates are queued for
    /// [`RefinableIndex::drain_in_background`] to merge them. Default: no
    /// update queue.
    fn drain_due(&self) -> bool {
        false
    }
    /// An idle worker's drain of the update queue, whatever the index's
    /// membership (a converged index is never refined, so nothing else
    /// merges its queue but reads). Returns `true` when a batch was
    /// merged. Default: no update queue.
    fn drain_in_background(&self) -> bool {
        false
    }
}

impl RefinableIndex for CrackerColumn {
    fn name(&self) -> &str {
        CrackerColumn::name(self)
    }

    fn len(&self) -> usize {
        CrackerColumn::len(self)
    }

    fn piece_count(&self) -> usize {
        CrackerColumn::piece_count(self)
    }

    fn payload_bytes(&self) -> usize {
        CrackerColumn::payload_bytes(self)
    }

    fn refine_random(
        &self,
        mut rng: &mut dyn RngCore,
        attempts: usize,
        scratch: &mut CrackScratch,
    ) -> RefineOutcome {
        CrackerColumn::refine_random(self, &mut rng, scratch, attempts)
    }

    fn drain_due(&self) -> bool {
        CrackerColumn::drain_due(self)
    }

    fn drain_in_background(&self) -> bool {
        CrackerColumn::drain_in_background(self)
    }
}

/// Distance to the optimal index per Equation (1):
/// `d(I, I_opt) = N/p − L1s`, floored at zero, where `l1_values` is `L1s`.
pub fn distance_to_optimal(index: &dyn RefinableIndex, l1_values: usize) -> u64 {
    let p = index.piece_count().max(1);
    (index.len() / p).saturating_sub(l1_values) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HolisticConfig;
    use rand::prelude::*;

    fn column(n: usize) -> CrackerColumn {
        let base: Vec<i64> = (0..n as i64).rev().collect();
        CrackerColumn::from_base("a", &base)
    }

    #[test]
    fn column_reports_its_properties_through_the_trait() {
        let col = column(10_000);
        let index: &dyn RefinableIndex = &col;
        assert_eq!(index.len(), 10_000);
        assert_eq!(index.piece_count(), 1);
        assert_eq!(index.name(), "a");
        // (`from_base` columns store their row ids from birth.)
        assert!(index.payload_bytes() >= 10_000 * CrackerColumn::tuple_bytes(true));
    }

    #[test]
    fn refine_random_through_the_trait() {
        let col = column(10_000);
        let mut rng = StdRng::seed_from_u64(1);
        let index: &dyn RefinableIndex = &col;
        let mut scratch = CrackScratch::new();
        let mut refined = 0;
        for _ in 0..50 {
            if matches!(
                index.refine_random(&mut rng, 4, &mut scratch),
                RefineOutcome::Refined { .. }
            ) {
                refined += 1;
            }
        }
        assert!(refined > 30, "only {refined} refinements succeeded");
        assert_eq!(col.piece_count(), refined + 1);
    }

    #[test]
    fn distance_shrinks_with_refinement() {
        let col = column(100_000);
        let l1 = HolisticConfig::default().l1_values();
        let d0 = distance_to_optimal(&col, l1);
        assert_eq!(d0, 100_000 - 4096);
        let mut rng = StdRng::seed_from_u64(2);
        let mut scratch = CrackScratch::new();
        for _ in 0..200 {
            col.refine_random(&mut rng, &mut scratch, 8);
        }
        let d1 = distance_to_optimal(&col, l1);
        assert!(d1 < d0 / 10, "d1={d1}");
    }

    #[test]
    fn distance_zero_when_pieces_fit_l1() {
        let col = column(1_000); // 1000 values < 4096-value L1 budget
        let l1 = HolisticConfig::default().l1_values();
        assert_eq!(distance_to_optimal(&col, l1), 0);
    }
}
