//! Type-erased handles to refinable adaptive indices.
//!
//! The index space manages indices over columns of different value types
//! (`i32` dates, `i64` measures, …). [`RefinableIndex`] erases the value
//! type down to the operations holistic tuning needs: piece statistics for
//! Equation (1) and random-pivot refinement.

use holix_cracking::{CrackScratch, CrackerColumn, RefineOutcome};
use holix_storage::types::CrackValue;
use rand::RngCore;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of a type-erased refinement step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineResult {
    /// A piece was split (length of the partitioned piece).
    Refined { piece_len: usize },
    /// The drawn pivot already was a boundary.
    AlreadyBound,
    /// All attempted pieces were latched.
    Busy,
}

/// The crack scratch of one executing thread, erased over the value type
/// like the indices it serves. A worker activation owns one for its `x`
/// refinements; it is dropped with the activation, so idle workers hold no
/// buffers.
pub struct WorkerScratch(Box<dyn Any>);

impl Default for WorkerScratch {
    fn default() -> Self {
        WorkerScratch(Box::new(())) // no buffers until the first refinement
    }
}

impl WorkerScratch {
    /// The scratch typed for `V` (replaced by an empty one when the last
    /// user had a different value type).
    fn typed<V: CrackValue>(&mut self) -> &mut CrackScratch<V> {
        if !self.0.is::<CrackScratch<V>>() {
            self.0 = Box::new(CrackScratch::<V>::new());
        }
        self.0.downcast_mut().expect("scratch was just typed for V")
    }
}

/// What holistic tuning needs from an adaptive index, independent of the
/// concrete value type.
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
    /// Value width in bytes (for the `L1s` term of Equation 1).
    fn value_width(&self) -> usize;
    /// Materialised bytes (values + row ids + index) for budgeting.
    fn payload_bytes(&self) -> usize;
    /// One refinement at a random pivot; tries up to `attempts` pivots when
    /// pieces are latched. Also merges pending updates for the target piece.
    fn refine_random(
        &self,
        rng: &mut dyn RngCore,
        attempts: usize,
        scratch: &mut WorkerScratch,
    ) -> RefineResult;
    /// Republishes the index's plan-time statistics if stale (the holistic
    /// daemon forces this once per worker activation, so `holix-planner`
    /// summaries never lag an idle period). Default: no planner surface.
    fn publish_plan_stats(&self) {}
    /// Background snapshot maintenance: refresh one stale snapshot piece
    /// to live granularity so the first reader stops paying the copy
    /// (snapshot follow-up (b)). Returns `true` when a piece was
    /// refreshed. Default: no snapshot surface.
    fn refresh_snapshot(&self) -> bool {
        false
    }
    /// Background membership-filter maintenance: rebuild the point filter
    /// when delete churn has degraded its false-positive rate (deletes
    /// stay in a Bloom filter until rebuilt). Returns `true` when a
    /// rebuild ran. Default: no filter surface.
    fn maybe_rebuild_filter(&self) -> bool {
        false
    }
    /// Background segment morphing: re-encode one stable plain snapshot
    /// piece (FOR / delta / RLE) so the storage budget charges encoded
    /// bytes instead of full-width copies. Returns `true` when a piece was
    /// morphed. Default: no snapshot surface.
    fn morph_cold_segments(&self) -> bool {
        false
    }
    /// [`RefinableIndex::morph_cold_segments`] without any rate gate: under
    /// budget pressure the idle workers morph imminent-eviction attributes
    /// *now* — shrinking their footprint is what can still save them, so
    /// the usual every-Nth-activation pacing would be self-defeating.
    /// Returns `true` when a piece was morphed. Default: no snapshot
    /// surface.
    fn morph_cold_segments_now(&self) -> bool {
        false
    }
}

/// [`RefinableIndex`] adapter around a [`CrackerColumn`].
pub struct CrackerHandle<V> {
    col: Arc<CrackerColumn<V>>,
    morph_tick: AtomicU64,
}

/// Morph attempts happen on every `MORPH_ATTEMPT_PERIOD`-th worker
/// activation of a handle, not every one. Encoding sorts the candidate
/// piece — by far the most expensive idle action — and on an index that is
/// still converging (refinements re-staling the snapshot every cycle) an
/// every-activation morph would dominate the daemon's cycle time. A quiet
/// index still drains its plain pieces within a few monitor intervals.
const MORPH_ATTEMPT_PERIOD: u64 = 4;

impl<V: CrackValue> CrackerHandle<V> {
    /// Wraps a shared cracker column.
    pub fn new(col: Arc<CrackerColumn<V>>) -> Self {
        CrackerHandle {
            col,
            morph_tick: AtomicU64::new(0),
        }
    }
}

impl<V: CrackValue> RefinableIndex for CrackerHandle<V> {
    fn name(&self) -> &str {
        self.col.name()
    }

    fn len(&self) -> usize {
        self.col.len()
    }

    fn piece_count(&self) -> usize {
        self.col.piece_count()
    }

    fn value_width(&self) -> usize {
        V::width()
    }

    fn payload_bytes(&self) -> usize {
        self.col.payload_bytes()
    }

    fn refine_random(
        &self,
        mut rng: &mut dyn RngCore,
        attempts: usize,
        scratch: &mut WorkerScratch,
    ) -> RefineResult {
        match self.col.refine_random(&mut rng, scratch.typed(), attempts) {
            RefineOutcome::Refined { piece_len } => RefineResult::Refined { piece_len },
            RefineOutcome::AlreadyBound => RefineResult::AlreadyBound,
            RefineOutcome::Busy => RefineResult::Busy,
        }
    }

    fn publish_plan_stats(&self) {
        self.col.maybe_publish_stats(1);
    }

    fn refresh_snapshot(&self) -> bool {
        self.col.refresh_stale_snapshot()
    }

    fn maybe_rebuild_filter(&self) -> bool {
        self.col.maybe_rebuild_point_filter()
    }

    fn morph_cold_segments(&self) -> bool {
        if !self
            .morph_tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(MORPH_ATTEMPT_PERIOD)
        {
            return false;
        }
        self.col.morph_cold_segments()
    }

    fn morph_cold_segments_now(&self) -> bool {
        self.col.morph_cold_segments()
    }
}

/// Distance to the optimal index per Equation (1):
/// `d(I, I_opt) = N/p − L1s`, floored at zero.
pub fn distance_to_optimal(index: &dyn RefinableIndex, l1_bytes: usize) -> u64 {
    let n = index.len();
    let p = index.piece_count().max(1);
    let l1s = (l1_bytes / index.value_width().max(1)).max(1);
    (n / p).saturating_sub(l1s) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn handle(n: usize) -> CrackerHandle<i64> {
        let base: Vec<i64> = (0..n as i64).rev().collect();
        CrackerHandle::new(Arc::new(CrackerColumn::from_base("a", &base)))
    }

    #[test]
    fn adapter_reports_column_properties() {
        let h = handle(10_000);
        assert_eq!(h.len(), 10_000);
        assert_eq!(h.piece_count(), 1);
        assert_eq!(h.value_width(), 8);
        assert_eq!(h.name(), "a");
        // (`from_base` columns store their row ids from birth.)
        assert!(h.payload_bytes() >= 10_000 * CrackerColumn::<i64>::tuple_bytes(true));
    }

    #[test]
    fn refine_random_through_erased_type() {
        let h = handle(10_000);
        let mut rng = StdRng::seed_from_u64(1);
        let dyn_ref: &dyn RefinableIndex = &h;
        let mut scratch = WorkerScratch::default();
        let mut refined = 0;
        for _ in 0..50 {
            if matches!(
                dyn_ref.refine_random(&mut rng, 4, &mut scratch),
                RefineResult::Refined { .. }
            ) {
                refined += 1;
            }
        }
        assert!(refined > 30, "only {refined} refinements succeeded");
        assert_eq!(h.piece_count(), refined + 1);
    }

    #[test]
    fn distance_shrinks_with_refinement() {
        let h = handle(100_000);
        let l1 = 32 * 1024;
        let d0 = distance_to_optimal(&h, l1);
        assert_eq!(d0, 100_000 - 4096);
        let mut rng = StdRng::seed_from_u64(2);
        let mut scratch = WorkerScratch::default();
        for _ in 0..200 {
            h.refine_random(&mut rng, 8, &mut scratch);
        }
        let d1 = distance_to_optimal(&h, l1);
        assert!(d1 < d0 / 10, "d1={d1}");
    }

    #[test]
    fn distance_zero_when_pieces_fit_l1() {
        let h = handle(1_000); // 1000 values < 4096-value L1 budget
        assert_eq!(distance_to_optimal(&h, 32 * 1024), 0);
    }
}
