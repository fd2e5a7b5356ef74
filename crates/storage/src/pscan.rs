//! Parallel range scan — the paper's "plain scans" baseline, where every
//! query scans the entire column with all available threads.

use crate::select::{scan_count, scan_stats, Predicate, RangeStats};

/// Inputs below this size are scanned sequentially: the fork/join overhead
/// outweighs the scan itself.
const MIN_PARALLEL: usize = 1 << 14;

/// Shared fan-out scaffolding: chunks `values` across `threads` scoped
/// workers, maps each chunk with `scan`, and folds the partial results
/// with `merge`. Callers have already ruled out the sequential fast path.
fn scan_chunks<R, S, M>(values: &[i64], threads: usize, scan: S, mut merge: M) -> R
where
    R: Default + Send,
    S: Fn(&[i64]) -> R + Sync,
    M: FnMut(&mut R, R),
{
    let chunk = values.len().div_ceil(threads);
    let mut total = R::default();
    std::thread::scope(|s| {
        let scan = &scan;
        let handles: Vec<_> = values
            .chunks(chunk)
            .map(|part| s.spawn(move || scan(part)))
            .collect();
        for h in handles {
            merge(&mut total, h.join().expect("scan worker panicked"));
        }
    });
    total
}

/// Scans `values` with `threads` worker threads, merging per-chunk
/// [`RangeStats`]. Falls back to the sequential scan for small inputs or a
/// single thread.
pub fn parallel_scan_stats(values: &[i64], pred: Predicate, threads: usize) -> RangeStats {
    let threads = threads.max(1);
    if threads == 1 || values.len() < MIN_PARALLEL {
        return scan_stats(values, pred);
    }
    scan_chunks(
        values,
        threads,
        |part| scan_stats(part, pred),
        |total, part| total.merge(part),
    )
}

/// Count-only parallel scan (the fair comparison point against indexed
/// selects, which produce counts from contiguous ranges).
pub fn parallel_scan_count(values: &[i64], pred: Predicate, threads: usize) -> u64 {
    let threads = threads.max(1);
    if threads == 1 || values.len() < MIN_PARALLEL {
        return scan_count(values, pred);
    }
    scan_chunks(
        values,
        threads,
        |part| scan_count(part, pred),
        |total, part| *total += part,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn count_matches_stats_count() {
        let mut rng = StdRng::seed_from_u64(9);
        let vals: Vec<i64> = (0..(1 << 16)).map(|_| rng.random_range(0..1000)).collect();
        let pred = Predicate::range(100, 700);
        assert_eq!(
            parallel_scan_count(&vals, pred, 8),
            parallel_scan_stats(&vals, pred, 8).count
        );
    }

    #[test]
    fn matches_sequential_on_small_input() {
        let vals: Vec<i64> = (0..100).collect();
        let pred = Predicate::range(10, 20);
        assert_eq!(parallel_scan_stats(&vals, pred, 4), scan_stats(&vals, pred));
        assert_eq!(parallel_scan_count(&vals, pred, 4), scan_count(&vals, pred));
    }

    #[test]
    fn matches_sequential_on_large_random_input() {
        let mut rng = StdRng::seed_from_u64(7);
        let vals: Vec<i64> = (0..(1 << 16)).map(|_| rng.random_range(0..1000)).collect();
        for (lo, hi) in [(0, 1000), (100, 101), (500, 499), (250, 750)] {
            let pred = Predicate::range(lo, hi);
            assert_eq!(
                parallel_scan_stats(&vals, pred, 8),
                scan_stats(&vals, pred),
                "range {lo}..{hi}"
            );
            assert_eq!(
                parallel_scan_count(&vals, pred, 8),
                scan_count(&vals, pred),
                "range {lo}..{hi}"
            );
        }
    }

    #[test]
    fn thread_counts_do_not_change_result() {
        let vals: Vec<i64> = (0..(1 << 15)).map(|i| (i * 37) % 1024).collect();
        let pred = Predicate::range(100, 600);
        let base = scan_stats(&vals, pred);
        for t in [1, 2, 3, 5, 16] {
            assert_eq!(parallel_scan_stats(&vals, pred, t), base, "threads={t}");
            assert_eq!(
                parallel_scan_count(&vals, pred, t),
                base.count,
                "threads={t}"
            );
        }
    }

    #[test]
    fn empty_input() {
        let vals: Vec<i64> = vec![];
        assert_eq!(
            parallel_scan_stats(&vals, Predicate::less_than(5), 4),
            RangeStats::default()
        );
        assert_eq!(parallel_scan_count(&vals, Predicate::less_than(5), 4), 0);
    }
}
