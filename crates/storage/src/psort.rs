//! Parallel sort — stand-in for the NUMA-aware m-way sort the paper uses for
//! its offline/online indexing baselines ([9] in the paper).
//!
//! Strategy: split into `threads` chunks, sort each chunk in its own thread,
//! then merge pairs of sorted runs in parallel passes (log₂ passes over a
//! scratch buffer). The substitution is safe because the baselines only
//! require "a fast parallel sort whose cost lands on one query".

use crate::sort::SortedColumn;
use crate::types::{CrackValue, RowId};

/// Builds a [`SortedColumn`] using up to `threads` worker threads.
pub fn parallel_sort<V: CrackValue>(values: &[V], threads: usize) -> SortedColumn<V> {
    let threads = threads.max(1);
    const MIN_PARALLEL: usize = 1 << 14;
    if threads == 1 || values.len() < MIN_PARALLEL {
        return SortedColumn::build(values);
    }

    let mut pairs: Vec<(V, RowId)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as RowId))
        .collect();

    // Phase 1: sort chunks in parallel.
    let chunk = pairs.len().div_ceil(threads);
    crossbeam::thread::scope(|s| {
        for part in pairs.chunks_mut(chunk) {
            s.spawn(move |_| part.sort_unstable());
        }
    })
    .expect("sort scope panicked");

    // Phase 2: parallel pairwise merge passes. Run boundaries follow the
    // chunk layout of phase 1 and coarsen by 2 each pass.
    let n = pairs.len();
    let mut scratch: Vec<(V, RowId)> = Vec::with_capacity(n);
    // SAFETY-free alternative to uninitialised memory: pre-fill the scratch
    // buffer once; merge passes overwrite every slot they read back.
    scratch.resize(n, pairs[0]);

    let mut src = &mut pairs;
    let mut dst = &mut scratch;
    let mut run = chunk;
    while run < n {
        crossbeam::thread::scope(|s| {
            let mut src_rest: &[(V, RowId)] = src;
            let mut dst_rest: &mut [(V, RowId)] = dst;
            while !src_rest.is_empty() {
                let left_len = run.min(src_rest.len());
                let pair_len = (2 * run).min(src_rest.len());
                let (src_pair, tail_s) = src_rest.split_at(pair_len);
                let (dst_pair, tail_d) = dst_rest.split_at_mut(pair_len);
                src_rest = tail_s;
                dst_rest = tail_d;
                s.spawn(move |_| merge_runs(src_pair, left_len, dst_pair));
            }
        })
        .expect("merge scope panicked");
        std::mem::swap(&mut src, &mut dst);
        run *= 2;
    }

    let sorted = std::mem::take(src);
    SortedColumn::from_sorted_pairs(sorted)
}

/// Merges `src[..left_len]` and `src[left_len..]` (both sorted) into `dst`.
fn merge_runs<V: CrackValue>(src: &[(V, RowId)], left_len: usize, dst: &mut [(V, RowId)]) {
    debug_assert_eq!(src.len(), dst.len());
    let (left, right) = src.split_at(left_len);
    let (mut i, mut j) = (0, 0);
    for slot in dst.iter_mut() {
        let take_left = j >= right.len() || (i < left.len() && left[i] <= right[j]);
        if take_left {
            *slot = left[i];
            i += 1;
        } else {
            *slot = right[j];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{scan_stats, Predicate};
    use rand::prelude::*;

    #[test]
    fn merge_runs_interleaves() {
        let src = [(1i64, 0u32), (4, 1), (2, 2), (3, 3)];
        let mut dst = [(0i64, 0u32); 4];
        merge_runs(&src, 2, &mut dst);
        assert_eq!(dst.map(|p| p.0), [1, 2, 3, 4]);
    }

    #[test]
    fn parallel_matches_sequential_small() {
        let vals: Vec<i64> = vec![5, 3, 9, 1, 1, 7];
        let p = parallel_sort(&vals, 4);
        let s = SortedColumn::build(&vals);
        assert_eq!(p.values(), s.values());
    }

    #[test]
    fn parallel_matches_sequential_large_random() {
        let mut rng = StdRng::seed_from_u64(3);
        let vals: Vec<i64> = (0..(1 << 16) + 117)
            .map(|_| rng.random_range(0..10_000))
            .collect();
        for t in [2, 3, 8] {
            let p = parallel_sort(&vals, t);
            assert!(p.values().windows(2).all(|w| w[0] <= w[1]), "t={t}");
            assert_eq!(p.len(), vals.len());
            // Row ids still point at equal base values.
            for (i, &r) in p.rowids().iter().enumerate().step_by(997) {
                assert_eq!(vals[r as usize], p.values()[i]);
            }
            // Selection agrees with a scan oracle.
            let pred = Predicate::range(2_000, 7_500);
            assert_eq!(p.select_stats(pred), scan_stats(&vals, pred));
        }
    }

    #[test]
    fn rowid_permutation_is_complete() {
        let mut rng = StdRng::seed_from_u64(4);
        let vals: Vec<i32> = (0..(1 << 15) + 13)
            .map(|_| rng.random_range(0..100))
            .collect();
        let p = parallel_sort(&vals, 4);
        let mut seen = vec![false; vals.len()];
        for &r in p.rowids() {
            assert!(!seen[r as usize], "duplicate rowid {r}");
            seen[r as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
