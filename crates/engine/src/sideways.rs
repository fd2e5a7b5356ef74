//! Sideways cracking — cracker maps, after \[29\] "Self-Organizing Tuple
//! Reconstruction in Column-Stores" (the adaptive-indexing baseline of the
//! TPC-H experiment, §5.6).
//!
//! A cracker map keeps the selection attribute (*head*) physically aligned
//! with the projection attributes a query class needs (*tails*): cracking
//! permutes head and tails in lockstep, so after a select the qualifying
//! tuples are one contiguous multi-column range — no random-access tuple
//! reconstruction.
//!
//! Simplification: this map uses one coarse lock instead of piece latches.
//! TPC-H queries run one at a time per map; the background refiner competes
//! for the same lock with `try_lock` and one crack per acquisition, which
//! keeps query wait times to a single piece partition.

use parking_lot::Mutex;
use rand::Rng;
use std::collections::BTreeMap;

struct MapInner {
    head: Vec<i64>,
    tails: Vec<Vec<i64>>,
    /// boundary value → first position with `head >= value`.
    bounds: BTreeMap<i64, usize>,
    domain: (i64, i64),
}

impl MapInner {
    fn piece_of(&self, v: i64) -> (usize, usize) {
        let start = self
            .bounds
            .range(..=v)
            .next_back()
            .map(|(_, &p)| p)
            .unwrap_or(0);
        let end = self
            .bounds
            .range((std::ops::Bound::Excluded(v), std::ops::Bound::Unbounded))
            .next()
            .map(|(_, &p)| p)
            .unwrap_or(self.head.len());
        (start, end)
    }

    /// Ensures `v` is a boundary; returns its position.
    fn crack_bound(&mut self, v: i64) -> usize {
        if let Some(&p) = self.bounds.get(&v) {
            return p;
        }
        let (start, end) = self.piece_of(v);
        let mut i = start;
        let mut j = end;
        while i < j {
            if self.head[i] < v {
                i += 1;
            } else {
                j -= 1;
                self.head.swap(i, j);
                for t in &mut self.tails {
                    t.swap(i, j);
                }
            }
        }
        self.bounds.insert(v, i);
        i
    }
}

/// A multi-tail cracker map.
pub struct CrackerMap {
    inner: Mutex<MapInner>,
}

impl CrackerMap {
    /// Builds a map from a head column and its tail columns (all values
    /// widened to `i64`). Tails must match the head's length.
    pub fn build(head: Vec<i64>, tails: Vec<Vec<i64>>) -> Self {
        for t in &tails {
            assert_eq!(t.len(), head.len(), "tail length mismatch");
        }
        let domain = head
            .iter()
            .fold(None, |acc: Option<(i64, i64)>, &v| {
                Some(match acc {
                    None => (v, v),
                    Some((lo, hi)) => (lo.min(v), hi.max(v)),
                })
            })
            .unwrap_or((0, 0));
        CrackerMap {
            inner: Mutex::new(MapInner {
                head,
                tails,
                bounds: BTreeMap::new(),
                domain,
            }),
        }
    }

    /// Number of pieces.
    pub fn piece_count(&self) -> usize {
        self.inner.lock().bounds.len() + 1
    }

    /// Tuples in the map.
    pub fn len(&self) -> usize {
        self.inner.lock().head.len()
    }

    /// `true` when the map holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Average piece length — the `N/p` of Equation (1); background refiners
    /// stop once this reaches the optimal (|L1|) threshold.
    pub fn avg_piece_len(&self) -> usize {
        let g = self.inner.lock();
        g.head.len() / (g.bounds.len() + 1)
    }

    /// Cracks `lo`/`hi` into boundaries and runs `f` over the qualifying
    /// contiguous range: `f(head_slice, tail_slices)`.
    pub fn with_range<R>(&self, lo: i64, hi: i64, f: impl FnOnce(&[i64], &[&[i64]]) -> R) -> R {
        let mut g = self.inner.lock();
        let a = g.crack_bound(lo);
        let b = g.crack_bound(hi).max(a);
        let tails: Vec<&[i64]> = g.tails.iter().map(|t| &t[a..b]).collect();
        f(&g.head[a..b], &tails)
    }

    /// Counts tuples satisfying `lo <= head < hi` **and** every tail
    /// predicate `(tail index, lo, hi)` — a conjunction answered from one
    /// cracked range: the head bounds crack into boundaries (so repeated
    /// conjunctions on the same head range pay nothing after the first),
    /// and the tail terms filter positionally inside the contiguous
    /// qualifying slice, never touching tuples the head term excluded.
    /// This is the seed of `HolisticEngine::execute_conjunction`: pick one
    /// driver term for the crack, intersect the rest by aligned lookup.
    pub fn conjunction_count(&self, lo: i64, hi: i64, tail_preds: &[(usize, i64, i64)]) -> u64 {
        if lo >= hi {
            return 0; // degenerate head term: empty everywhere, no crack
        }
        self.with_range(lo, hi, |head, tails| {
            (0..head.len())
                .filter(|&i| {
                    tail_preds
                        .iter()
                        .all(|&(t, tlo, thi)| (tlo..thi).contains(&tails[t][i]))
                })
                .count() as u64
        })
    }

    /// One background refinement at a random pivot; `false` when the map is
    /// busy (the refiner then yields, like a holistic worker re-picking).
    pub fn refine_random(&self, rng: &mut impl Rng) -> bool {
        let Some(mut g) = self.inner.try_lock() else {
            return false;
        };
        let (lo, hi) = g.domain;
        if lo >= hi {
            return false;
        }
        let pivot = rng.random_range(lo..=hi);
        g.crack_bound(pivot);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn map(n: usize, seed: u64) -> (Vec<i64>, Vec<i64>, CrackerMap) {
        let mut rng = StdRng::seed_from_u64(seed);
        let head: Vec<i64> = (0..n).map(|_| rng.random_range(0..10_000)).collect();
        let tail: Vec<i64> = (0..n).map(|_| rng.random_range(0..100)).collect();
        let m = CrackerMap::build(head.clone(), vec![tail.clone()]);
        (head, tail, m)
    }

    fn oracle(head: &[i64], tail: &[i64], lo: i64, hi: i64) -> (u64, i128) {
        let mut c = 0u64;
        let mut s = 0i128;
        for (&h, &t) in head.iter().zip(tail) {
            if h >= lo && h < hi {
                c += 1;
                s += t as i128;
            }
        }
        (c, s)
    }

    #[test]
    fn range_returns_aligned_tails() {
        let (head, tail, m) = map(20_000, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let a = rng.random_range(0..10_000);
            let b = rng.random_range(0..10_000);
            let (lo, hi) = (a.min(b), a.max(b));
            let got = m.with_range(lo, hi, |h, ts| {
                assert!(h.iter().all(|&v| v >= lo && v < hi));
                (
                    h.len() as u64,
                    ts[0].iter().map(|&t| t as i128).sum::<i128>(),
                )
            });
            assert_eq!(got, oracle(&head, &tail, lo, hi));
        }
    }

    #[test]
    fn refinement_grows_pieces_and_keeps_results() {
        let (head, tail, m) = map(20_000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            assert!(m.refine_random(&mut rng));
        }
        assert!(m.piece_count() > 50);
        let got = m.with_range(1_000, 5_000, |h, ts| {
            (
                h.len() as u64,
                ts[0].iter().map(|&t| t as i128).sum::<i128>(),
            )
        });
        assert_eq!(got, oracle(&head, &tail, 1_000, 5_000));
    }

    #[test]
    fn multiple_tails_stay_aligned() {
        let head = vec![5i64, 1, 9, 3];
        let t1 = vec![50i64, 10, 90, 30];
        let t2 = vec![500i64, 100, 900, 300];
        let m = CrackerMap::build(head, vec![t1, t2]);
        m.with_range(2, 8, |h, ts| {
            for (i, &hv) in h.iter().enumerate() {
                assert_eq!(ts[0][i], hv * 10);
                assert_eq!(ts[1][i], hv * 100);
            }
            assert_eq!(h.len(), 2); // 5 and 3
        });
    }

    #[test]
    fn conjunction_count_matches_two_column_oracle() {
        let (head, tail, m) = map(20_000, 7);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..30 {
            let a = rng.random_range(0..10_000);
            let b = rng.random_range(0..10_000);
            let (lo, hi) = (a.min(b), a.max(b));
            let (tlo, thi) = (20i64, 70);
            let got = m.conjunction_count(lo, hi, &[(0, tlo, thi)]);
            let want = head
                .iter()
                .zip(&tail)
                .filter(|&(&h, &t)| (lo..hi).contains(&h) && (tlo..thi).contains(&t))
                .count() as u64;
            assert_eq!(got, want);
        }
        // Degenerate head range: zero, and no boundary is inserted.
        let pieces = m.piece_count();
        assert_eq!(m.conjunction_count(5, 5, &[(0, 0, 100)]), 0);
        assert_eq!(m.conjunction_count(9, 3, &[]), 0);
        assert_eq!(m.piece_count(), pieces);
    }

    #[test]
    fn busy_map_rejects_refiner() {
        let (_, _, m) = map(1_000, 5);
        let guard = m.inner.lock();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(!m.refine_random(&mut rng));
        drop(guard);
        assert!(m.refine_random(&mut rng));
    }
}
