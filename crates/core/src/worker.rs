//! The IdleFunction a holistic worker executes (Fig 2 of the paper).
//!
//! "Each worker thread executes an instance of the IdleFunction, which picks
//! an index from the Index Space IS and performs x partial index refinement
//! actions on it. Every time an index is refined, the respective statistics
//! […] are updated. When an index reaches the optimal status, it is moved
//! into the optimal configuration."

use crate::handle::{RefineResult, WorkerScratch};
use crate::index_space::{IndexSpace, Membership};
use rand::RngCore;
use std::time::{Duration, Instant};

/// What one worker activation accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Successful piece splits.
    pub refinements: u64,
    /// Attempts that found every tried piece latched.
    pub busy: u64,
    /// Pivots that already were boundaries.
    pub already_bound: u64,
    /// Stale snapshot pieces refreshed to live granularity in the
    /// background (snapshot follow-up (b)).
    pub snapshot_refreshes: u64,
    /// Point membership filters rebuilt after delete churn degraded
    /// their false-positive rate.
    pub filter_rebuilds: u64,
    /// Stable plain snapshot pieces re-encoded (FOR / delta / RLE) in the
    /// background to shrink `snapshot_bytes`.
    pub segment_morphs: u64,
    /// Wall time spent in the IdleFunction.
    pub duration: Duration,
    /// Whether an index was available to work on.
    pub picked: bool,
}

/// Charged-bytes fraction of the storage budget above which segment
/// morphing retargets the imminent-eviction indices (ROADMAP compression
/// follow-up (d)).
const BUDGET_PRESSURE_MORPH: f64 = 0.9;

/// How many LFU eviction candidates a pressured activation tries to morph
/// (stops at the first success — one encode per activation, like the
/// unpressured path).
const EVICTION_MORPH_CANDIDATES: usize = 2;

/// Runs one IdleFunction instance: pick an index, refine it `x` times with
/// random pivots, update statistics, stop early once it turns optimal.
pub fn idle_function(
    space: &IndexSpace,
    refinements_per_worker: usize,
    latch_attempts: usize,
    rng: &mut dyn RngCore,
) -> WorkerReport {
    let start = Instant::now();
    let mut report = WorkerReport::default();

    let Some((slot, handle)) = space.pick(rng) else {
        report.duration = start.elapsed();
        return report;
    };
    report.picked = true;

    let mut scratch = WorkerScratch::default();
    for _ in 0..refinements_per_worker {
        let result = handle.refine_random(rng, latch_attempts, &mut scratch);
        space.record_worker_outcome(&slot, handle.as_ref(), result);
        match result {
            RefineResult::Refined { .. } => report.refinements += 1,
            RefineResult::Busy => report.busy += 1,
            RefineResult::AlreadyBound => report.already_bound += 1,
        }
        if slot.membership() == Membership::Optimal {
            break;
        }
    }
    // End-of-activation maintenance: refresh one stale snapshot piece (so
    // the first unlucky reader stops paying the copy), rebuild the point
    // membership filter if delete churn degraded it, re-encode one stable
    // plain snapshot piece, and republish the plan-time statistics the
    // refinements invalidated.
    let refreshed = handle.refresh_snapshot();
    if refreshed {
        report.snapshot_refreshes += 1;
    }
    if handle.maybe_rebuild_filter() {
        report.filter_rebuilds += 1;
    }
    // Segment morphing is budget-pressure-aware: near the storage budget
    // the coldest indices are about to be evicted, and shrinking *their*
    // footprint (not the picked — usually hottest — index's) is what can
    // still save them, so the morph retargets the LFU eviction order and
    // skips the usual every-Nth-activation pacing. Below the threshold it
    // stays the picked handle's paced coldness-order morph.
    if space.budget_pressure() >= BUDGET_PRESSURE_MORPH {
        for victim in space.eviction_candidates(EVICTION_MORPH_CANDIDATES) {
            if victim.morph_cold_segments_now() {
                report.segment_morphs += 1;
                break;
            }
        }
    } else if !refreshed && handle.morph_cold_segments() {
        // One snapshot reorganisation per activation: a refresh already
        // lands its copies in encoded form (so nothing it produced is
        // waiting on the morpher), and refresh + morph in the same tick
        // would pay two full sort+encode passes — during heavy refinement
        // that doubles the cycle wall time for pieces the next crack will
        // split again anyway. Morphing waits for a granularity-quiet tick.
        report.segment_morphs += 1;
    }
    handle.publish_plan_stats();
    report.duration = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HolisticConfig;
    use crate::handle::{CrackerHandle, RefinableIndex};
    use crate::index_space::IndexSlot;
    use holix_cracking::CrackerColumn;
    use rand::prelude::*;
    use std::sync::Arc;

    /// Registers `col` into `C_actual`.
    fn register(space: &IndexSpace, col: &Arc<CrackerColumn<i64>>) -> Arc<IndexSlot> {
        let handle: Arc<dyn RefinableIndex> = Arc::new(CrackerHandle::new(Arc::clone(col)));
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
    fn idle_function_refreshes_stale_snapshots() {
        // A coarse published snapshot over a column the workers keep
        // cracking finer: end-of-activation maintenance must refresh the
        // snapshot's piece table in the background, so the first reader
        // stops paying the copy.
        let space = IndexSpace::new(HolisticConfig::default());
        let base: Vec<i64> = (0..100_000i64).rev().collect();
        let col = std::sync::Arc::new(CrackerColumn::from_base("a", &base));
        let mut scratch = holix_cracking::CrackScratch::new();
        col.snapshot_scan(
            holix_storage::select::Predicate::range(0, 100_000),
            &mut scratch,
        );
        let coarse = col.snapshot_piece_count();
        register(&space, &col);
        let mut rng = StdRng::seed_from_u64(9);
        let mut refreshes = 0;
        for _ in 0..50 {
            let r = idle_function(&space, 8, 8, &mut rng);
            refreshes += r.snapshot_refreshes;
            if !r.picked {
                break;
            }
        }
        assert!(refreshes > 0, "workers never refreshed the snapshot");
        assert!(
            col.snapshot_piece_count() > coarse,
            "snapshot piece table did not chase the refinements \
             ({} vs coarse {coarse})",
            col.snapshot_piece_count()
        );
    }

    #[test]
    fn idle_function_rebuilds_a_churned_point_filter() {
        // A published point filter over a column that then absorbs heavy
        // delete churn: end-of-activation maintenance must rebuild the
        // filter (deleted keys never leave a Bloom filter) and reset the
        // churn accounting.
        let space = IndexSpace::new(HolisticConfig::default());
        let base: Vec<i64> = (0..100_000i64).rev().collect();
        let col = Arc::new(CrackerColumn::from_base("a", &base));
        col.ensure_point_filter();
        for v in 0..30_000i64 {
            col.queue_delete(v, v as u32);
        }
        assert!(col.point_filter_staleness() >= 30_000);
        register(&space, &col);
        let mut rng = StdRng::seed_from_u64(11);
        let mut rebuilds = 0;
        for _ in 0..50 {
            let r = idle_function(&space, 8, 8, &mut rng);
            rebuilds += r.filter_rebuilds;
            if !r.picked {
                break;
            }
        }
        assert!(rebuilds > 0, "workers never rebuilt the churned filter");
        assert_eq!(
            col.point_filter_staleness(),
            0,
            "rebuild did not reset the churn accounting"
        );
        // The fresh filter still proves absence for never-inserted values.
        assert_eq!(col.probe_point(-5), Some(false));
    }

    #[test]
    fn idle_function_morphs_cold_segments() {
        // A snapshot full of big plain pieces over a narrow domain: idle
        // workers must re-encode them in the background, shrinking
        // `snapshot_bytes` without any reader paying for it.
        let space = IndexSpace::new(HolisticConfig::default());
        let base: Vec<i64> = (0..100_000i64).map(|i| i % 1_000).collect();
        let col = Arc::new(CrackerColumn::from_base("a", &base));
        let mut scratch = holix_cracking::CrackScratch::new();
        col.snapshot_scan(
            holix_storage::select::Predicate::range(0, 1_000),
            &mut scratch,
        );
        let plain_bytes = col.snapshot_bytes();
        register(&space, &col);
        let mut rng = StdRng::seed_from_u64(13);
        let mut morphs = 0;
        for _ in 0..200 {
            let r = idle_function(&space, 8, 8, &mut rng);
            morphs += r.segment_morphs;
            // Run to convergence: snapshot refreshes now land their copies
            // back in *encoded* form (encoded refresh), so later
            // activations can no longer re-plain what the gated morphs
            // encoded — the byte win must survive the whole loop.
            if !r.picked {
                break;
            }
        }
        assert!(morphs > 0, "workers never morphed a segment");
        assert!(
            col.snapshot_bytes() < plain_bytes,
            "morphing did not shrink snapshot bytes: {} vs {plain_bytes}",
            col.snapshot_bytes()
        );
        // Scans on the morphed snapshot stay exact.
        let pred = holix_storage::select::Predicate::range(100, 900);
        let scan = col.snapshot_scan(pred, &mut scratch);
        let oracle = holix_storage::select::scan_stats(&base, pred);
        assert_eq!((scan.count, scan.sum), (oracle.count, oracle.sum));
    }

    #[test]
    fn budget_pressure_morphs_imminent_eviction_victims_first() {
        // Two equal columns over a narrow domain with big plain snapshot
        // pieces. The HOT one soaks up user queries (so `pick` targets it
        // and the COLD one is the LFU eviction victim); the budget is
        // sized so the pair sits at ~95% pressure. The maintenance block
        // must morph the COLD column immediately — eviction order, no
        // activation pacing — even though it never picked it.
        let base: Vec<i64> = (0..60_000i64).map(|i| i % 1_000).collect();
        let cold = Arc::new(CrackerColumn::from_base("cold", &base));
        let hot = Arc::new(CrackerColumn::from_base("hot", &base));
        let mut scratch = holix_cracking::CrackScratch::new();
        for col in [&cold, &hot] {
            col.snapshot_scan(
                holix_storage::select::Predicate::range(0, 1_000),
                &mut scratch,
            );
        }
        let used = cold.payload_bytes() + hot.payload_bytes();
        let space = IndexSpace::new(HolisticConfig {
            storage_budget: Some(used * 100 / 95),
            ..HolisticConfig::default()
        });
        register(&space, &cold);
        let hot_slot = register(&space, &hot);
        for _ in 0..10 {
            hot_slot.record_user_query(false, 1);
        }
        let pressure = space.budget_pressure();
        assert!(pressure >= 0.9, "setup not under pressure: {pressure}");
        let cold_bytes = cold.snapshot_bytes();
        let mut rng = StdRng::seed_from_u64(17);
        let mut morphs = 0;
        for _ in 0..20 {
            let r = idle_function(&space, 4, 8, &mut rng);
            morphs += r.segment_morphs;
            if morphs > 0 || !r.picked {
                break;
            }
        }
        assert!(morphs > 0, "pressure never forced a morph");
        assert!(
            cold.snapshot_bytes() < cold_bytes,
            "the eviction victim was not the morph target: {} vs {cold_bytes}",
            cold.snapshot_bytes()
        );
    }

    #[test]
    fn stats_recorded_per_outcome() {
        let (space, slot) = space_with_column(100_000);
        let mut rng = StdRng::seed_from_u64(4);
        idle_function(&space, 8, 8, &mut rng);
        assert!(slot.stats().worker_refinements() > 0);
        assert_eq!(slot.stats().queries(), 0);
    }
}
