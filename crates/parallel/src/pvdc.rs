//! PVDC — Parallel Vectorized Database Cracking ([44], the strongest
//! query-driven baseline in §5.1–5.3 of the paper).
//!
//! A PVDC column is an ordinary [`CrackerColumn`] with a query-path thread
//! budget above one, so large pieces are partitioned with
//! [`crate::partition::parallel_partition`]: all user-query threads gang up
//! on the one piece the query must crack.
//! Holistic indexing instead spreads those threads across *many* pieces of
//! many indices — §5.1 (Fig 7) measures exactly this trade-off.

use holix_cracking::CrackerColumn;
use holix_storage::types::CrackValue;

/// Builds a PVDC cracker column over `base` that cracks large pieces with
/// `threads` threads; background refinements stay single-threaded.
pub fn pvdc_column<V: CrackValue>(
    name: impl Into<String>,
    base: &[V],
    threads: usize,
) -> CrackerColumn<V> {
    CrackerColumn::from_base(name, base).with_threads(threads, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_cracking::CrackScratch;
    use holix_storage::select::{scan_stats, Predicate};
    use rand::prelude::*;

    #[test]
    fn pvdc_select_matches_scan_oracle() {
        let mut rng = StdRng::seed_from_u64(1);
        let base: Vec<i64> = (0..300_000).map(|_| rng.random_range(0..100_000)).collect();
        let col = pvdc_column("a", &base, 4);
        let mut scratch = CrackScratch::new();
        for _ in 0..30 {
            let a = rng.random_range(0..100_000);
            let b = rng.random_range(0..100_000);
            let pred = Predicate::range(a.min(b), a.max(b));
            let (_, stats) = col.select_verified(pred, &mut scratch);
            assert_eq!(stats, scan_stats(&base, pred));
        }
        col.check_invariants(Some(&base));
    }

    #[test]
    fn pvdc_agrees_with_sequential_cracking() {
        let mut rng = StdRng::seed_from_u64(2);
        let base: Vec<i64> = (0..200_000).map(|_| rng.random_range(0..50_000)).collect();
        let par = pvdc_column("p", &base, 8);
        let seq = CrackerColumn::from_base("s", &base);
        let mut scratch = CrackScratch::new();
        for i in 0..20 {
            let lo = i * 2_000;
            let pred = Predicate::range(lo, lo + 10_000);
            let sp = par.select(pred, &mut scratch);
            let ss = seq.select(pred, &mut scratch);
            assert_eq!(sp.count(), ss.count());
        }
        assert_eq!(par.piece_count(), seq.piece_count());
    }

    #[test]
    fn one_thread_takes_the_sequential_path() {
        let base: Vec<i64> = (0..1_000).rev().collect();
        let col = pvdc_column("t", &base, 1);
        let mut scratch = CrackScratch::new();
        let (_, stats) = col.select_verified(Predicate::range(100, 500), &mut scratch);
        assert_eq!(stats, scan_stats(&base, Predicate::range(100, 500)));
    }
}
