//! Exact order statistics over latency samples and slice values.

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples: the
/// smallest sample with at least `q·n` samples at or below it. Exact — no
/// buckets — and reorders `samples` in place instead of allocating.
/// Returns `(value, samples strictly beyond that rank)`.
pub fn percentile(samples: &mut [u32], q: f64) -> (u32, usize) {
    assert!(!samples.is_empty(), "percentile of no samples");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    (*v, n - rank)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the usual midpoint rule for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First (`k = 1`) or third (`k = 3`) quartile, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive) — the one the acceptance
/// check uses over runs. A single value is its own quartile.
pub fn quartile(values: &[f64], k: usize) -> f64 {
    assert!(!values.is_empty() && (k == 1 || k == 3));
    let n = values.len();
    if n == 1 {
        return values[0];
    }
    let v = sorted(values);
    let pos = k as f64 * (n + 1) as f64 / 4.0;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
}

/// Interquartile range as a share of the median: the spread the acceptance
/// check computes over runs, here over the slices of one run.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (quartile(values, 3) - quartile(values, 1)) / m.abs()
    }
}

/// The block's duration with every chunk taken at its first-quartile
/// duration over the rounds: `rounds[r][k]` is how long chunk `k` (the same
/// operations every round) took in round `r`. A stall — the host taking a
/// core away for some milliseconds — lengthens whichever chunks it falls
/// in; unless it falls in the same chunk in three rounds out of four, it
/// is not in this sum.
pub fn steady_block_ns(rounds: &[Vec<u64>]) -> f64 {
    let chunks = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..chunks)
        .map(|k| {
            let across: Vec<f64> = rounds.iter().map(|r| r[k] as f64).collect();
            quartile(&across, 1)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.50), (50, 50));
        assert_eq!(percentile(&mut s, 0.95), (95, 5));
        assert_eq!(percentile(&mut s, 1.0), (100, 0));
        let mut one = [7u32];
        assert_eq!(percentile(&mut one, 0.95), (7, 0));
        // Against a brute-force definition on uneven data.
        let mut r = crate::rng::Rng::new(5, 0);
        for n in [3usize, 10, 257, 4001] {
            let orig: Vec<u32> = (0..n).map(|_| r.below(1000) as u32).collect();
            for q in [0.5, 0.9, 0.95, 0.99] {
                let mut sorted = orig.clone();
                sorted.sort_unstable();
                let want = sorted
                    .iter()
                    .copied()
                    .find(|&v| {
                        let at_or_below = sorted.iter().filter(|&&x| x <= v).count();
                        at_or_below as f64 >= q * n as f64
                    })
                    .unwrap();
                let mut work = orig.clone();
                assert_eq!(percentile(&mut work, q).0, want, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn median_and_iqr_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((iqr_share(&[40.0, 10.0, 20.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
        assert_eq!((quartile(&v, 1), quartile(&v, 3)), (2.75, 8.25));
        assert_eq!(quartile(&[7.0], 1), 7.0);
    }

    #[test]
    fn steady_block_ignores_a_stall_that_hits_one_round() {
        // Five rounds of four chunks; round 2 stalls in chunk 1, round 4 in
        // chunk 3, and chunk 0 is genuinely slower than the rest.
        let mut rounds = vec![vec![300u64, 100, 100, 100]; 5];
        rounds[2][1] = 9_000;
        rounds[4][3] = 5_000;
        assert_eq!(steady_block_ns(&rounds), 600.0);
        assert_eq!(steady_block_ns(&[]), 0.0);
    }
}
