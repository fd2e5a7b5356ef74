//! The engine interface shared by all five indexing approaches.

use holix_planner::PlanCost;
use holix_workloads::QuerySpec;
use std::sync::Arc;

/// The microbenchmark dataset: a table of `i64` attributes. One `Arc` per
/// column: clones share the storage, and a lazily built sharded column
/// holds its source column without copying it.
#[derive(Debug, Clone)]
pub struct Dataset {
    columns: Arc<[Arc<Vec<i64>>]>,
}

impl Dataset {
    /// Wraps generated columns.
    pub fn new(columns: Vec<Vec<i64>>) -> Self {
        Dataset {
            columns: columns.into_iter().map(Arc::new).collect(),
        }
    }

    /// Number of attributes.
    pub fn attrs(&self) -> usize {
        self.columns.len()
    }

    /// Rows per attribute.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Borrow one attribute's values.
    pub fn column(&self, attr: usize) -> &[i64] {
        &self.columns[attr]
    }

    /// A shared handle to one attribute's storage.
    pub fn shared_column(&self, attr: usize) -> Arc<Vec<i64>> {
        Arc::clone(&self.columns[attr])
    }
}

/// The qualitative feature matrix of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Statistical analysis before query processing.
    pub workload_analysis: bool,
    /// Exploits idle resources before query processing.
    pub idle_before_queries: bool,
    /// Exploits idle resources during query processing.
    pub idle_during_queries: bool,
    /// "full" (true) vs "partial" (false) index materialisation.
    pub full_materialization: bool,
    /// High (true) vs low (false) update/maintenance cost.
    pub high_update_cost: bool,
    /// Adapts to a dynamic workload (vs static physical design).
    pub dynamic: bool,
    /// Answers provably-absent equality/IN probes from a point-membership
    /// filter without touching (or cracking) the indexed data — the
    /// zero-crack screened-probe row of Table 1.
    pub point_screening: bool,
}

/// A query engine over a [`Dataset`]. Engines are `Sync`: §5.8 drives one
/// engine from many concurrent clients.
pub trait QueryEngine: Send + Sync {
    /// Engine name (CSV label).
    fn name(&self) -> &'static str;

    /// Table 1 row for this engine.
    fn capabilities(&self) -> Capabilities;

    /// Executes one range select and returns the qualifying-tuple count.
    /// Index construction costs (sorting, copying, cracking) happen inside,
    /// so wall-clock timing around this call reproduces the paper's
    /// per-query cost attribution.
    fn execute(&self, q: &QuerySpec) -> u64;

    /// Count plus checksum for verification (may be slower; tests only).
    fn execute_verified(&self, q: &QuerySpec) -> (u64, i128);

    /// Stable dispatch-affinity key: queries sharing a key touch the same
    /// underlying index structure (for a sharded engine, one attribute
    /// shard), so a service can pin each key to one dispatcher worker and
    /// keep two workers from latching the same structure. Engines without
    /// sharding group per attribute.
    fn routing_key(&self, q: &QuerySpec) -> u64 {
        q.attr as u64
    }

    /// Version of the shard plan `q`'s attribute would execute against
    /// (engines without versioned plans report 0). Telemetry attaches this
    /// to per-query trace records so live replans show up in lifecycles.
    fn plan_version(&self, q: &QuerySpec) -> u64 {
        let _ = q;
        0
    }

    /// Snapshot execution: `(count, sum)` served from the engine's
    /// published piece snapshots — one per touched shard, taking **no
    /// structure lock** — so a long analytical scan
    /// never serialises against cracks or Ripple merges, and a merge in
    /// one value range never stalls readers anywhere else. Consistency is
    /// **per shard** (per value range): each shard contributes a
    /// point-in-time view including updates the engine has accepted but
    /// not yet merged, but shards are read one after the other, so a
    /// shard-spanning scan is not one global instant — the same semantics
    /// the locked fan-out has. `None` when the engine has no snapshot
    /// read path (callers fall back to [`QueryEngine::execute`]).
    fn execute_snapshot(&self, q: &QuerySpec) -> Option<(u64, i128)> {
        let _ = q;
        None
    }

    /// The qualifying *values* of `q`, copied out of the piece snapshots
    /// — no structure lock, so the copy never blocks writers. The service layer uses this for containment coalescing: a
    /// batched superset query executes once and contained predicates are
    /// answered by post-filtering its values. Same per-shard consistency
    /// as [`QueryEngine::execute_snapshot`].
    ///
    /// `Unsupported` and `CapExceeded` both send the caller back to
    /// per-query execution: the engine has no snapshot read path, or the
    /// predicate qualifies more values than are worth materialising.
    fn execute_collect_snapshot(&self, q: &QuerySpec) -> SnapshotCollect {
        let _ = q;
        SnapshotCollect::Unsupported
    }

    /// Plan-time cost of `q` from the engine's published piece statistics
    /// (see `holix-planner`): crack work, scan work, pending-merge debt
    /// and snapshot freshness, folded over every shard the predicate
    /// intersects. **Must not take any structure or maintenance lock, and
    /// must not materialise cracker columns** — admission control calls
    /// this on every submission, including for attributes no query has
    /// touched yet. `None` when the engine keeps no plan statistics
    /// (callers fall back to cost-blind behaviour).
    fn estimate_cost(&self, q: &QuerySpec) -> Option<PlanCost> {
        let _ = q;
        None
    }

    /// Cuts a shard-spanning range into per-shard sub-queries whose
    /// half-open ranges partition `[q.lo, q.hi)` exactly, each confined to
    /// one [`QueryEngine::routing_key`] — the service layer routes every
    /// part to its pinned worker and folds the counts under one merge
    /// ticket. Stable across index eviction (derives from the immutable
    /// shard plan, like `routing_key`). `None` when the range lies within
    /// a single shard or the engine is unsharded.
    fn decompose(&self, q: &QuerySpec) -> Option<Vec<QuerySpec>> {
        let _ = q;
        None
    }

    /// Executes an IN-list probe — the count of tuples whose `attr` value
    /// equals any of `values` (an equality probe is the one-element case).
    /// Engines with point-membership filters answer non-containing values
    /// without cracking anything; everyone else may fall back to unit-range
    /// executes or return `None` (caller lowers to ranges itself).
    fn execute_points(&self, attr: usize, values: &[i64]) -> Option<u64> {
        let _ = (attr, values);
        None
    }

    /// Executes a multi-attribute conjunction — the count of *base-table*
    /// rows satisfying every term's range predicate on its attribute.
    /// `None` when the engine cannot intersect across attributes (callers
    /// fall back to per-term executes without the intersection).
    fn execute_conjunction(&self, terms: &[QuerySpec]) -> Option<u64> {
        let _ = terms;
        None
    }
}

/// Outcome of [`QueryEngine::execute_collect_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotCollect {
    /// The engine has no snapshot read path — answer the run per query.
    Unsupported,
    /// The qualifying set exceeds the engine's copy cap; callers should
    /// skip materialisation entirely.
    CapExceeded,
    /// The qualifying values, served from snapshots.
    Values(Vec<i64>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_accessors() {
        let d = Dataset::new(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(d.attrs(), 2);
        assert_eq!(d.rows(), 3);
        assert_eq!(d.column(1), &[4, 5, 6]);
    }

    #[test]
    fn clones_and_column_handles_share_the_original_storage() {
        let d = Dataset::new(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        let storage = d.column(1).as_ptr();
        let clone = d.clone();
        assert_eq!(clone.column(1).as_ptr(), storage, "clone copied a column");
        let handle = clone.shared_column(1);
        assert_eq!(handle.as_ptr(), storage, "handle copied the column");
        // Two datasets share one table; the handle is the only other owner.
        assert_eq!(Arc::strong_count(&d.columns), 2);
        assert_eq!(Arc::strong_count(&handle), 2);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new(vec![]);
        assert_eq!(d.attrs(), 0);
        assert_eq!(d.rows(), 0);
    }
}
