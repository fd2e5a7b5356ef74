//! mP-CCGI — modified Parallel Chunked Coarse-Granular Index.
//!
//! The original P-CCGI (\[8\]) splits a column into as many position-chunks as
//! threads; the first query range-partitions every chunk into coarse buckets
//! (the "coarse granular index") and cracks it, each chunk carrying its own
//! cracker index; later queries crack all chunks in parallel. Because one
//! value range is then scattered across all chunks, §5.2 extends the
//! algorithm with *consolidation* (after \[31\]): the qualifying value ranges
//! are copied into one contiguous array the first time a query needs them,
//! each range paid for exactly once.

use holix_cracking::{CrackScratch, CrackerColumn};
use holix_storage::select::{Predicate, RangeStats};
use holix_storage::types::RowId;
use parking_lot::Mutex;

/// Outcome of one mP-CCGI select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkedSelection {
    /// Qualifying tuples across all chunks.
    pub count: u64,
    /// Values copied into the consolidated array by this query.
    pub consolidated_now: usize,
}

/// Tracks which value ranges have been consolidated, as a sorted list of
/// disjoint half-open intervals.
#[derive(Debug, Default)]
struct Coverage {
    covered: Vec<(i64, i64)>,
}

impl Coverage {
    /// Parts of `[lo, hi)` not yet covered.
    fn uncovered(&self, lo: i64, hi: i64) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        let mut cur = lo;
        for &(a, b) in &self.covered {
            if b <= cur {
                continue;
            }
            if a >= hi {
                break;
            }
            if a > cur {
                out.push((cur, a.min(hi)));
            }
            cur = if b > cur { b } else { cur };
            if cur >= hi {
                return out;
            }
        }
        if cur < hi {
            out.push((cur, hi));
        }
        out
    }

    /// Marks `[lo, hi)` covered, merging adjacent intervals.
    fn cover(&mut self, lo: i64, hi: i64) {
        if lo >= hi {
            return;
        }
        self.covered.push((lo, hi));
        self.covered.sort_unstable_by_key(|&(a, _)| a);
        let mut merged: Vec<(i64, i64)> = Vec::with_capacity(self.covered.len());
        for &(a, b) in &self.covered {
            match merged.last_mut() {
                Some((_, pb)) if a <= *pb => {
                    if b > *pb {
                        *pb = b;
                    }
                }
                _ => merged.push((a, b)),
            }
        }
        self.covered = merged;
    }
}

/// A column split into position-chunks, each with its own cracker index.
pub struct ChunkedCrackerColumn {
    chunks: Vec<CrackerColumn>,
    /// Consolidated storage: value ranges copied out of the chunks.
    consolidated: Mutex<(Coverage, Vec<i64>)>,
    /// Equi-width pivots pre-cracked by the first query (the coarse
    /// granular index).
    coarse_pivots: Vec<i64>,
    first_query_done: Mutex<bool>,
}

impl ChunkedCrackerColumn {
    /// Splits `base` into `chunks` position-chunks and prepares `2^coarse_bits`
    /// coarse buckets (built by the first query).
    pub fn build(name: &str, base: &[i64], chunks: usize, coarse_bits: u32) -> Self {
        let chunks = chunks.max(1);
        let chunk_len = base.len().div_ceil(chunks).max(1);
        let mut cols = Vec::with_capacity(chunks);
        let mut off = 0usize;
        while off < base.len() {
            let end = (off + chunk_len).min(base.len());
            cols.push(CrackerColumn::from_base_offset(
                format!("{name}#{}", cols.len()),
                &base[off..end],
                off as RowId,
            ));
            off = end;
        }
        if cols.is_empty() {
            cols.push(CrackerColumn::from_base_offset(format!("{name}#0"), &[], 0));
        }

        // Equi-width pivots over the global domain.
        let mut coarse_pivots = Vec::new();
        let mut lo_hi: Option<(i64, i64)> = None;
        for c in &cols {
            if let Some((l, h)) = c.domain() {
                lo_hi = Some(match lo_hi {
                    None => (l, h),
                    Some((a, b)) => (a.min(l), b.max(h)),
                });
            }
        }
        if let Some((lo, hi)) = lo_hi {
            let buckets = 1i64 << coarse_bits;
            let width = ((hi - lo) / buckets).max(1);
            for k in 1..buckets {
                let p = lo + k * width;
                if p > lo && p <= hi {
                    coarse_pivots.push(p);
                }
            }
        }

        ChunkedCrackerColumn {
            chunks: cols,
            consolidated: Mutex::new((Coverage::default(), Vec::new())),
            coarse_pivots,
            first_query_done: Mutex::new(false),
        }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total pieces across all chunk indices.
    pub fn piece_count(&self) -> usize {
        self.chunks.iter().map(|c| c.piece_count()).sum()
    }

    /// Values currently held in the consolidated array.
    pub fn consolidated_len(&self) -> usize {
        self.consolidated.lock().1.len()
    }

    /// Range select: cracks every chunk in parallel, consolidates any part of
    /// the requested value range not yet consolidated, and returns the
    /// qualifying count.
    pub fn select(&self, pred: Predicate) -> ChunkedSelection {
        self.ensure_coarse_partitioned();
        let per_chunk = self.crack_all_chunks(pred);
        let count: u64 = per_chunk.iter().map(|s| s.count).sum();

        // Consolidation: copy the not-yet-covered parts of [lo, hi).
        let mut consolidated_now = 0usize;
        let mut guard = self.consolidated.lock();
        let missing = guard.0.uncovered(pred.lo, pred.hi);
        for (mlo, mhi) in missing {
            let sub = Predicate::range(mlo, mhi);
            let mut scratch = CrackScratch::new();
            for chunk in &self.chunks {
                let (sel, stats) = chunk.select_verified(sub, &mut scratch);
                let _ = stats;
                // Copy the contiguous qualifying range out of the chunk.
                let vals = chunk.snapshot_range(sel.start, sel.end);
                consolidated_now += vals.len();
                guard.1.extend_from_slice(&vals);
            }
            guard.0.cover(mlo, mhi);
        }

        ChunkedSelection {
            count,
            consolidated_now,
        }
    }

    /// Count + checksum, verified against the chunk contents.
    pub fn select_stats(&self, pred: Predicate) -> RangeStats {
        self.ensure_coarse_partitioned();
        let mut scratch = CrackScratch::new();
        let mut total = RangeStats::default();
        for chunk in &self.chunks {
            let (_, stats) = chunk.select_verified(pred, &mut scratch);
            total.merge(stats);
        }
        total
    }

    fn crack_all_chunks(&self, pred: Predicate) -> Vec<RangeStats> {
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .chunks
                .iter()
                .map(|chunk| {
                    s.spawn(move || {
                        let mut scratch = CrackScratch::new();
                        let sel = chunk.select(pred, &mut scratch);
                        RangeStats {
                            count: sel.count(),
                            sum: 0,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("chunk worker panicked"))
                .collect()
        })
    }

    /// The first query performs the coarse range partition of each chunk in
    /// parallel (the "pre-index step" whose cost §5.2 notes "penalizes the
    /// first set of queries").
    fn ensure_coarse_partitioned(&self) {
        let mut done = self.first_query_done.lock();
        if *done {
            return;
        }
        std::thread::scope(|s| {
            for chunk in &self.chunks {
                let pivots = &self.coarse_pivots;
                s.spawn(move || {
                    let mut scratch = CrackScratch::new();
                    for &p in pivots {
                        chunk.refine_at_blocking(p, &mut scratch);
                    }
                });
            }
        });
        *done = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_storage::select::scan_stats;
    use rand::prelude::*;

    #[test]
    fn coverage_tracks_intervals() {
        let mut c = Coverage::default();
        assert_eq!(c.uncovered(0, 10), vec![(0, 10)]);
        c.cover(2, 5);
        assert_eq!(c.uncovered(0, 10), vec![(0, 2), (5, 10)]);
        c.cover(5, 7);
        assert_eq!(c.uncovered(0, 10), vec![(0, 2), (7, 10)]);
        c.cover(0, 10);
        assert!(c.uncovered(0, 10).is_empty());
        assert_eq!(c.covered.len(), 1);
    }

    #[test]
    fn coverage_edge_cases() {
        let mut c = Coverage::default();
        c.cover(5, 5); // empty
        assert_eq!(c.uncovered(0, 10), vec![(0, 10)]);
        c.cover(0, 3);
        c.cover(8, 12);
        assert_eq!(c.uncovered(2, 9), vec![(3, 8)]);
        assert_eq!(c.uncovered(0, 3), vec![]);
        assert_eq!(c.uncovered(10, 12), vec![]);
    }

    #[test]
    fn chunked_select_matches_scan() {
        let mut rng = StdRng::seed_from_u64(5);
        let base: Vec<i64> = (0..100_000).map(|_| rng.random_range(0..10_000)).collect();
        let col = ChunkedCrackerColumn::build("a", &base, 4, 4);
        assert_eq!(col.chunk_count(), 4);
        for _ in 0..20 {
            let a = rng.random_range(0..10_000);
            let b = rng.random_range(0..10_000);
            let pred = Predicate::range(a.min(b), a.max(b));
            let sel = col.select(pred);
            assert_eq!(sel.count, scan_stats(&base, pred).count);
            assert_eq!(col.select_stats(pred), scan_stats(&base, pred));
        }
    }

    #[test]
    fn first_query_builds_coarse_buckets() {
        let base: Vec<i64> = (0..50_000).map(|i| i % 1_000).collect();
        let col = ChunkedCrackerColumn::build("a", &base, 2, 4);
        // Before any query, each chunk is a single piece.
        assert_eq!(col.piece_count(), 2);
        col.select(Predicate::range(100, 200));
        // 2 chunks × (15 coarse pivots + 2 query bounds) pieces-ish.
        assert!(col.piece_count() >= 2 * 16);
    }

    #[test]
    fn consolidation_pays_each_range_once() {
        let mut rng = StdRng::seed_from_u64(6);
        let base: Vec<i64> = (0..50_000).map(|_| rng.random_range(0..10_000)).collect();
        let col = ChunkedCrackerColumn::build("a", &base, 4, 2);
        let pred = Predicate::range(1_000, 2_000);
        let first = col.select(pred);
        assert!(first.consolidated_now > 0);
        let second = col.select(pred);
        assert_eq!(second.consolidated_now, 0, "range already consolidated");
        // Overlapping query only pays for the new part.
        let third = col.select(Predicate::range(1_500, 2_500));
        let expect = scan_stats(&base, Predicate::range(2_000, 2_500)).count as usize;
        assert_eq!(third.consolidated_now, expect);
        assert_eq!(
            col.consolidated_len(),
            scan_stats(&base, Predicate::range(1_000, 2_500)).count as usize
        );
    }

    #[test]
    fn rowids_are_global() {
        let base: Vec<i64> = (0..1_000).rev().collect();
        let col = ChunkedCrackerColumn::build("a", &base, 4, 0);
        let pred = Predicate::range(0, 10);
        assert_eq!(col.select(pred).count, 10);
        // Chunk row ids must map back into the global base.
        // (Checked indirectly: select_stats sums the right values.)
        assert_eq!(col.select_stats(pred), scan_stats(&base, pred));
    }

    #[test]
    fn empty_base() {
        let col = ChunkedCrackerColumn::build("e", &[] as &[i64], 4, 4);
        let sel = col.select(Predicate::range(0, 10));
        assert_eq!(sel.count, 0);
    }
}
