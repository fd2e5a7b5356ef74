//! Adaptive indexing engine: database cracking driven purely by queries.
//!
//! Three crack modes mirror the baselines of §5.2: sequential vectorized
//! cracking, parallel vectorized cracking (PVDC) and parallel vectorized
//! stochastic cracking (PVSDC).

use crate::api::{Capabilities, Dataset, QueryEngine};
use holix_cracking::stochastic::select_stochastic;
use holix_cracking::{CrackScratch, CrackerColumn, Selection};
use holix_storage::select::Predicate;
use holix_workloads::QuerySpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::OnceLock;

thread_local! {
    static SCRATCH: RefCell<CrackScratch> = RefCell::new(CrackScratch::new());
    static RNG: RefCell<SmallRng> = RefCell::new(SmallRng::seed_from_u64(0xADA7));
}

/// How queries crack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrackMode {
    /// Single-threaded vectorized cracking.
    Sequential,
    /// Parallel vectorized database cracking with `threads` threads per
    /// crack (\[44\]).
    Pvdc { threads: usize },
    /// PVDC plus one auxiliary random crack per query bound (\[21\]).
    Pvsdc { threads: usize },
}

impl CrackMode {
    fn label(&self) -> &'static str {
        match self {
            CrackMode::Sequential => "adaptive",
            CrackMode::Pvdc { .. } => "pvdc",
            CrackMode::Pvsdc { .. } => "pvsdc",
        }
    }
}

/// Query-driven cracking engine. Cracker columns are created lazily: the
/// first query on an attribute pays for copying the base column, exactly as
/// in §3.2.
pub struct AdaptiveEngine {
    data: Dataset,
    mode: CrackMode,
    cols: Vec<OnceLock<CrackerColumn>>,
}

impl AdaptiveEngine {
    /// Adaptive engine over `data`.
    pub fn new(data: Dataset, mode: CrackMode) -> Self {
        let cols = (0..data.attrs()).map(|_| OnceLock::new()).collect();
        AdaptiveEngine { data, mode, cols }
    }

    /// Gets (or lazily creates) the cracker column for an attribute.
    pub fn column(&self, attr: usize) -> &CrackerColumn {
        self.cols[attr].get_or_init(|| {
            let threads = match self.mode {
                CrackMode::Sequential => 1,
                CrackMode::Pvdc { threads } | CrackMode::Pvsdc { threads } => threads,
            };
            CrackerColumn::from_base(format!("attr{attr}"), self.data.column(attr))
                .with_threads(threads, 1)
        })
    }

    /// Select with the mode's crack behaviour; exposed so the holistic
    /// engine can reuse it.
    pub fn select(&self, q: &QuerySpec) -> Selection {
        let col = self.column(q.attr);
        let pred = Predicate::range(q.lo, q.hi);
        SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            match self.mode {
                CrackMode::Sequential | CrackMode::Pvdc { .. } => col.select(pred, scratch),
                CrackMode::Pvsdc { .. } => {
                    RNG.with(|r| select_stochastic(col, pred, &mut *r.borrow_mut(), scratch))
                }
            }
        })
    }

    /// Total pieces across all materialised cracker columns (Fig 6(c)).
    pub fn total_pieces(&self) -> usize {
        self.cols
            .iter()
            .map(|c| c.get().map_or(0, CrackerColumn::piece_count))
            .sum()
    }
}

impl QueryEngine for AdaptiveEngine {
    fn name(&self) -> &'static str {
        self.mode.label()
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            workload_analysis: false,
            idle_before_queries: false,
            idle_during_queries: false,
            full_materialization: false,
            high_update_cost: false,
            dynamic: true,
            point_screening: true,
        }
    }

    fn execute(&self, q: &QuerySpec) -> u64 {
        self.select(q).count()
    }

    fn execute_verified(&self, q: &QuerySpec) -> (u64, i128) {
        let col = self.column(q.attr);
        let pred = Predicate::range(q.lo, q.hi);
        let (sel, stats) = SCRATCH.with(|s| col.select_verified(pred, &mut s.borrow_mut()));
        debug_assert_eq!(sel.count(), stats.count);
        (stats.count, stats.sum)
    }

    fn execute_points(&self, attr: usize, values: &[i64]) -> Option<u64> {
        // Dedupe: an IN list counts each qualifying tuple once, however
        // often the list repeats its value.
        let mut vals: Vec<i64> = values.to_vec();
        vals.sort_unstable();
        vals.dedup();
        let filter = self.column(attr).ensure_point_filter();
        let mut total = 0u64;
        for v in vals {
            if v == i64::MAX {
                continue; // the sentinel cannot be probed (empty unit range)
            }
            if !filter.contains(v) {
                continue; // filter-negative: zero cracks, zero touches
            }
            // Maybe-present: a unit-range crack confined to the one piece
            // owning `v` — the same per-probe cost the holistic engine
            // pays, minus the shard routing.
            total += self
                .select(&QuerySpec {
                    attr,
                    lo: v,
                    hi: v + 1,
                })
                .count();
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_storage::select::scan_stats;
    use holix_workloads::data::uniform_table;
    use rand::prelude::*;

    fn dataset() -> Dataset {
        Dataset::new(uniform_table(3, 50_000, 100_000, 11))
    }

    #[test]
    fn all_modes_match_scan_oracle() {
        for mode in [
            CrackMode::Sequential,
            CrackMode::Pvdc { threads: 4 },
            CrackMode::Pvsdc { threads: 4 },
        ] {
            let data = dataset();
            let e = AdaptiveEngine::new(data.clone(), mode);
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..25 {
                let attr = rng.random_range(0..3);
                let a = rng.random_range(0..100_000);
                let b = rng.random_range(0..100_000);
                let q = QuerySpec {
                    attr,
                    lo: a.min(b),
                    hi: a.max(b).max(a.min(b) + 1),
                };
                let oracle = scan_stats(data.column(attr), Predicate::range(q.lo, q.hi));
                assert_eq!(e.execute(&q), oracle.count, "{mode:?}");
                assert_eq!(e.execute_verified(&q), (oracle.count, oracle.sum));
            }
        }
    }

    #[test]
    fn columns_created_lazily() {
        let e = AdaptiveEngine::new(dataset(), CrackMode::Sequential);
        assert_eq!(e.total_pieces(), 0);
        e.execute(&QuerySpec {
            attr: 1,
            lo: 10,
            hi: 20,
        });
        // Only attribute 1 materialised.
        assert!(e.cols[0].get().is_none());
        assert!(e.cols[1].get().is_some());
        assert!(e.total_pieces() >= 2);
    }

    #[test]
    fn execute_points_screens_absent_values_without_cracking() {
        let data = Dataset::new(vec![(0..50_000).map(|i| i * 2).collect()]); // evens
        let e = AdaptiveEngine::new(data, CrackMode::Sequential);
        // Warm the column and the filter with one probe.
        assert_eq!(e.execute_points(0, &[2, 4]).unwrap(), 2);
        let pieces = e.total_pieces();
        // Absent (odd) values: the filter screens them without cracking.
        // A Bloom false positive (~1% of probes) falls through to a unit
        // range that cracks at most 2 boundaries, so growth stays far
        // below the 128 pieces an unscreened run would add.
        let odds: Vec<i64> = (0..64).map(|i| i * 2 + 1).collect();
        assert_eq!(e.execute_points(0, &odds).unwrap(), 0);
        assert!(
            e.total_pieces() <= pieces + 6,
            "screening barely cracked: {} pieces from {pieces}",
            e.total_pieces()
        );
        // Mixed IN list with duplicates: present values still count once.
        assert_eq!(
            e.execute_points(0, &[10, 10, 11, 98_000, 99_999]).unwrap(),
            2
        );
    }

    #[test]
    fn pieces_grow_with_queries() {
        let e = AdaptiveEngine::new(dataset(), CrackMode::Sequential);
        let mut rng = StdRng::seed_from_u64(6);
        let mut prev = 0;
        for _ in 0..50 {
            let a = rng.random_range(0..100_000);
            let q = QuerySpec {
                attr: 0,
                lo: a,
                hi: (a + 500).min(100_000),
            };
            e.execute(&q);
            let now = e.total_pieces();
            assert!(now >= prev);
            prev = now;
        }
        assert!(prev > 40);
    }
}
