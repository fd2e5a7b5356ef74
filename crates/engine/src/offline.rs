//! Offline indexing baseline: all columns fully sorted, binary-search
//! selects.
//!
//! §5.1 evaluates the "zero idle time" scenario, so the sorting cost of all
//! columns lands on the very first query ("the sorting cost is added to the
//! execution time of the very first query in Figure 6(a)").

use crate::api::{Capabilities, Dataset, QueryEngine};
use holix_storage::psort::parallel_sort;
use holix_storage::select::Predicate;
use holix_storage::sort::SortedColumn;
use holix_workloads::QuerySpec;
use parking_lot::RwLock;

/// Fully sorted engine.
pub struct OfflineEngine {
    data: Dataset,
    threads: usize,
    sorted: RwLock<Option<Vec<SortedColumn>>>,
}

impl OfflineEngine {
    /// Offline engine sorting with `threads` threads (lazily, on the first
    /// query).
    pub fn new(data: Dataset, threads: usize) -> Self {
        OfflineEngine {
            data,
            threads: threads.max(1),
            sorted: RwLock::new(None),
        }
    }

    /// Sorts all columns now (used when a harness wants to exclude the
    /// indexing cost from per-query times, e.g. Fig 14's "pre-sorted" rows).
    pub fn prepare(&self) {
        let mut guard = self.sorted.write();
        if guard.is_none() {
            let cols = (0..self.data.attrs())
                .map(|a| parallel_sort(self.data.column(a), self.threads))
                .collect();
            *guard = Some(cols);
        }
    }

    fn with_sorted<R>(&self, attr: usize, f: impl FnOnce(&SortedColumn) -> R) -> R {
        {
            let guard = self.sorted.read();
            if let Some(cols) = guard.as_ref() {
                return f(&cols[attr]);
            }
        }
        self.prepare();
        let guard = self.sorted.read();
        f(&guard.as_ref().expect("prepared")[attr])
    }
}

impl QueryEngine for OfflineEngine {
    fn name(&self) -> &'static str {
        "offline"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            workload_analysis: true,
            idle_before_queries: true,
            idle_during_queries: false,
            full_materialization: true,
            high_update_cost: true,
            dynamic: false,
            point_screening: false,
        }
    }

    fn execute(&self, q: &QuerySpec) -> u64 {
        self.with_sorted(q.attr, |s| {
            let (a, b) = s.locate(Predicate::range(q.lo, q.hi));
            (b - a) as u64
        })
    }

    fn execute_verified(&self, q: &QuerySpec) -> (u64, i128) {
        self.with_sorted(q.attr, |s| {
            let st = s.select_stats(Predicate::range(q.lo, q.hi));
            (st.count, st.sum)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_query_pays_for_sorting_then_all_match() {
        let data = Dataset::new(vec![(0..10_000).rev().collect(), (0..10_000).collect()]);
        let e = OfflineEngine::new(data, 2);
        assert!(e.sorted.read().is_none());
        let q = QuerySpec {
            attr: 0,
            lo: 10,
            hi: 30,
        };
        assert_eq!(e.execute(&q), 20);
        assert!(e.sorted.read().is_some());
        let (c, s) = e.execute_verified(&q);
        assert_eq!(c, 20);
        assert_eq!(s, (10..30).sum::<i64>() as i128);
    }

    #[test]
    fn prepare_is_idempotent() {
        let data = Dataset::new(vec![(0..100).collect()]);
        let e = OfflineEngine::new(data, 1);
        e.prepare();
        e.prepare();
        assert_eq!(
            e.execute(&QuerySpec {
                attr: 0,
                lo: 0,
                hi: 100
            }),
            100
        );
    }
}
