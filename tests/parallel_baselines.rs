//! The multi-core baselines (PVDC, PVSDC, mP-CCGI) against oracles across
//! thread counts and workload patterns. A PVDC column is a cracker column
//! whose query-path cracks gang `t` threads; PVSDC selects through
//! stochastic cracking on the same column.

use holix::cracking::stochastic::select_stochastic;
use holix::cracking::{CrackScratch, CrackerColumn};
use holix::parallel::ccgi::ChunkedCrackerColumn;
use holix::storage::select::{scan_stats, Predicate};
use holix::workloads::data::uniform_column;
use holix::workloads::patterns::{AttrDist, Pattern, WorkloadSpec};
use rand::prelude::*;

const N: usize = 120_000;
const DOMAIN: i64 = 1 << 20;

#[test]
fn pvdc_all_patterns_all_thread_counts() {
    let base = uniform_column(N, DOMAIN, 71);
    for pattern in Pattern::SYNTHETIC {
        let queries = WorkloadSpec {
            pattern,
            attr_dist: AttrDist::Uniform,
            n_attrs: 1,
            n_queries: 40,
            domain: DOMAIN,
            seed: 710,
        }
        .generate();
        for threads in [1usize, 2, 4] {
            let col = CrackerColumn::from_base("a", &base).with_threads(threads, 1);
            let mut scratch = CrackScratch::new();
            for q in &queries {
                let pred = Predicate::range(q.lo, q.hi);
                let sel = col.select(pred, &mut scratch);
                assert_eq!(
                    sel.count(),
                    scan_stats(&base, pred).count,
                    "{pattern:?} t={threads}"
                );
            }
            col.check_invariants(Some(&base));
        }
    }
}

#[test]
fn pvsdc_robust_on_sequential_without_wrong_answers() {
    let base = uniform_column(N, DOMAIN, 72);
    let queries = WorkloadSpec {
        pattern: Pattern::Sequential,
        attr_dist: AttrDist::Uniform,
        n_attrs: 1,
        n_queries: 60,
        domain: DOMAIN,
        seed: 720,
    }
    .generate();
    let col = CrackerColumn::from_base("a", &base).with_threads(2, 1);
    let mut scratch = CrackScratch::new();
    let mut rng = StdRng::seed_from_u64(7_200);
    for q in &queries {
        let pred = Predicate::range(q.lo, q.hi);
        let sel = select_stochastic(&col, pred, &mut rng, &mut scratch);
        assert_eq!(sel.count(), scan_stats(&base, pred).count);
    }
    // The stochastic component must have cracked beyond the query bounds.
    assert!(col.piece_count() > queries.len(), "{}", col.piece_count());
}

#[test]
fn ccgi_matches_oracle_across_chunkings() {
    let base = uniform_column(N, DOMAIN, 73);
    let queries = WorkloadSpec::random(1, 30, DOMAIN, 730).generate();
    for chunks in [1usize, 2, 4, 7] {
        let col = ChunkedCrackerColumn::build("a", &base, chunks, 4);
        for q in &queries {
            let pred = Predicate::range(q.lo, q.hi);
            assert_eq!(
                col.select(pred).count,
                scan_stats(&base, pred).count,
                "chunks={chunks}"
            );
        }
    }
}

#[test]
fn ccgi_consolidation_converges_to_full_coverage() {
    let base = uniform_column(50_000, 1 << 16, 74);
    let col = ChunkedCrackerColumn::build("a", &base, 4, 4);
    // Sweep the domain; eventually everything is consolidated exactly once.
    let step = (1 << 16) / 16;
    let mut copied = 0usize;
    for k in 0..16 {
        let sel = col.select(Predicate::range(k * step, (k + 1) * step));
        copied += sel.consolidated_now;
    }
    assert_eq!(copied, 50_000, "every tuple consolidated exactly once");
    // Re-sweeping copies nothing.
    for k in 0..16 {
        let sel = col.select(Predicate::range(k * step, (k + 1) * step));
        assert_eq!(sel.consolidated_now, 0);
    }
}

#[test]
fn concurrent_pvdc_queries_on_one_column() {
    let base = uniform_column(N, DOMAIN, 75);
    let col = CrackerColumn::from_base("a", &base).with_threads(2, 1);
    let queries = WorkloadSpec::random(1, 64, DOMAIN, 750).generate();
    let oracles: Vec<u64> = queries
        .iter()
        .map(|q| scan_stats(&base, Predicate::range(q.lo, q.hi)).count)
        .collect();
    std::thread::scope(|s| {
        for c in 0..4usize {
            let col = &col;
            let queries = &queries;
            let oracles = &oracles;
            s.spawn(move || {
                let mut scratch = CrackScratch::new();
                for (i, q) in queries.iter().enumerate().skip(c).step_by(4) {
                    let sel = col.select(Predicate::range(q.lo, q.hi), &mut scratch);
                    assert_eq!(sel.count(), oracles[i]);
                }
            });
        }
    });
    col.check_invariants(Some(&base));
}
