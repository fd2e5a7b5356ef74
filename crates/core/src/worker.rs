//! The IdleFunction a holistic worker executes (Fig 2 of the paper).
//!
//! "Each worker thread executes an instance of the IdleFunction, which picks
//! an index from the Index Space IS and performs x partial index refinement
//! actions on it. Every time an index is refined, the respective statistics
//! […] are updated. When an index reaches the optimal status, it is moved
//! into the optimal configuration."

use crate::index_space::{IndexSpace, Membership};
use holix_cracking::{CrackScratch, RefineOutcome};
use rand::RngCore;
use std::time::{Duration, Instant};

/// What one worker activation accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Update queues drained in the background
    /// ([`crate::RefinableIndex::drain_in_background`]).
    pub merges: u64,
    /// Successful piece splits.
    pub refinements: u64,
    /// Attempts that found every tried piece latched.
    pub busy: u64,
    /// Pivots that already were boundaries.
    pub already_bound: u64,
    /// Wall time spent in the IdleFunction.
    pub duration: Duration,
    /// Whether an index was available to refine.
    pub picked: bool,
}

/// Runs one IdleFunction instance: drain the update queues that are due
/// (§4.2's "merge updates", on every live index — a converged one
/// included, which is never picked to refine), then pick an index, refine
/// it `x` times with random pivots, refresh its distance and stop early once
/// it turns optimal.
pub fn idle_function(
    space: &IndexSpace,
    refinements_per_worker: usize,
    latch_attempts: usize,
    rng: &mut dyn RngCore,
) -> WorkerReport {
    let start = Instant::now();
    let mut report = WorkerReport::default();

    let pick = space.pick(rng);
    // Workers of one cycle see the same due list: each starts at its own
    // place in it, and a queue another worker emptied is no longer due.
    let first = match pick.drains.len() {
        0 | 1 => 0,
        n => rng.next_u64() as usize % n,
    };
    let (tail, head) = pick.drains.split_at(first);
    for index in head.iter().chain(tail) {
        report.merges += u64::from(index.drain_in_background());
    }
    let Some((slot, handle)) = pick.refine else {
        report.duration = start.elapsed();
        return report;
    };
    report.picked = true;

    let mut scratch = CrackScratch::new();
    for _ in 0..refinements_per_worker {
        let result = handle.refine_random(rng, latch_attempts, &mut scratch);
        space.refresh_distance(&slot, handle.as_ref());
        match result {
            RefineOutcome::Refined { .. } => report.refinements += 1,
            RefineOutcome::Busy => report.busy += 1,
            RefineOutcome::AlreadyBound => report.already_bound += 1,
        }
        if slot.membership() == Membership::Optimal {
            break;
        }
    }
    report.duration = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HolisticConfig;
    use crate::handle::RefinableIndex;
    use crate::index_space::IndexSlot;
    use holix_cracking::CrackerColumn;
    use rand::prelude::*;
    use std::sync::Arc;

    /// Registers `col` into `C_actual`.
    fn register(space: &IndexSpace, col: &Arc<CrackerColumn>) -> Arc<IndexSlot> {
        let handle: Arc<dyn RefinableIndex> = Arc::clone(col) as _;
        space
            .register(vec![handle], Membership::Actual)
            .pop()
            .expect("batch of one")
    }

    fn space_with_column(n: usize) -> (IndexSpace, Arc<IndexSlot>) {
        let space = IndexSpace::new(HolisticConfig::default());
        let base: Vec<i64> = (0..n as i64).rev().collect();
        let slot = register(&space, &Arc::new(CrackerColumn::from_base("a", &base)));
        (space, slot)
    }

    #[test]
    fn empty_space_reports_nothing_picked() {
        let space = IndexSpace::new(HolisticConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let r = idle_function(&space, 16, 8, &mut rng);
        assert!(!r.picked);
        assert_eq!(r.refinements, 0);
    }

    #[test]
    fn performs_x_refinements() {
        let (space, _) = space_with_column(100_000);
        let mut rng = StdRng::seed_from_u64(2);
        let r = idle_function(&space, 16, 8, &mut rng);
        assert!(r.picked);
        // On an unlatched fresh column almost every pivot splits a piece.
        assert!(r.refinements + r.already_bound == 16, "{r:?}");
        assert!(r.refinements >= 12);
    }

    #[test]
    fn stops_at_optimal() {
        // Column small enough that a handful of cracks reaches |L1| pieces.
        let (space, _) = space_with_column(8_192);
        let mut rng = StdRng::seed_from_u64(3);
        let mut total = 0;
        for _ in 0..50 {
            let r = idle_function(&space, 16, 8, &mut rng);
            total += r.refinements;
            if !r.picked {
                break;
            }
        }
        // 8192 i64 values: optimal at avg piece ≤ 4096 values → 1 split.
        assert!(total >= 1);
        let (_, _, optimal, _) = space.membership_counts();
        assert_eq!(optimal, 1);
        // Once optimal, nothing remains pickable.
        let r = idle_function(&space, 16, 8, &mut rng);
        assert!(!r.picked);
    }

    #[test]
    fn idle_function_drains_a_due_queue_on_a_converged_index() {
        // 1,000 values: optimal from birth, so never picked to refine.
        let space = IndexSpace::new(HolisticConfig::default());
        let base: Vec<i64> = (0..1_000i64).collect();
        let col = Arc::new(CrackerColumn::from_base("a", &base));
        let slot = register(&space, &col);
        assert_eq!(slot.membership(), Membership::Optimal);
        let due = CrackerColumn::DRAIN_DUE;
        for i in 1..due {
            col.queue_insert(i as i64, (1_000 + i) as u32);
        }
        let mut rng = StdRng::seed_from_u64(19);
        assert!(space.pick(&mut rng).is_empty(), "a queue short of due");
        col.queue_delete(0, 0);
        let r = idle_function(&space, 16, 8, &mut rng);
        assert_eq!((r.merges, r.picked, r.refinements), (1, false, 0), "{r:?}");
        assert_eq!((col.pending_len(), col.len()), (0, 1_000 + due - 2));
    }

    #[test]
    fn stats_recorded_per_outcome() {
        let (space, slot) = space_with_column(100_000);
        let mut rng = StdRng::seed_from_u64(4);
        let report = idle_function(&space, 8, 8, &mut rng);
        assert!(report.refinements > 0, "{report:?}");
        assert_eq!(slot.stats().queries(), 0);
    }
}
