//! The replay oracle for streams that interleave reads with writes.
//!
//! `update_churn`'s expected answers depend on every insert and delete
//! before them, so they are computed by replaying the generated stream
//! against a Fenwick (binary indexed) tree over the value domain — count
//! and sum per value — before the run starts. O(log domain) per op, no
//! dependence on the system under test.

/// Count and sum of a multiset of values in `[0, domain)`.
#[derive(Debug, Clone)]
pub struct Fenwick {
    count: Vec<u32>,
    sum: Vec<u64>,
}

impl Fenwick {
    pub fn new(domain: usize) -> Self {
        Fenwick {
            count: vec![0; domain + 1],
            sum: vec![0; domain + 1],
        }
    }

    /// Builds from per-value multiplicities in O(domain).
    pub fn from_multiplicities(mult: &[u32]) -> Self {
        let n = mult.len();
        let mut f = Fenwick::new(n);
        for (v, &m) in mult.iter().enumerate() {
            let i = v + 1;
            f.count[i] += m;
            f.sum[i] += m as u64 * v as u64;
            // Push the finished node up to its parent.
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                f.count[parent] += f.count[i];
                f.sum[parent] += f.sum[i];
            }
        }
        f
    }

    pub fn domain(&self) -> usize {
        self.count.len() - 1
    }

    pub fn insert(&mut self, v: usize) {
        let mut i = v + 1;
        while i < self.count.len() {
            self.count[i] += 1;
            self.sum[i] += v as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Removes one occurrence of `v`, which must be present.
    pub fn delete(&mut self, v: usize) {
        let mut i = v + 1;
        while i < self.count.len() {
            self.count[i] -= 1;
            self.sum[i] -= v as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// `(count, sum)` of values `< x`.
    fn prefix(&self, x: usize) -> (u64, u64) {
        let (mut c, mut s) = (0u64, 0u64);
        let mut i = x.min(self.domain());
        while i > 0 {
            c += self.count[i] as u64;
            s += self.sum[i];
            i &= i - 1;
        }
        (c, s)
    }

    /// `(count, sum)` of values in `[lo, hi)` (bounds may lie outside the
    /// domain).
    pub fn count_sum(&self, lo: i64, hi: i64) -> (u64, u64) {
        let d = self.domain() as i64;
        let (lo, hi) = (lo.clamp(0, d) as usize, hi.clamp(0, d) as usize);
        if lo >= hi {
            return (0, 0);
        }
        let (ch, sh) = self.prefix(hi);
        let (cl, sl) = self.prefix(lo);
        (ch - cl, sh - sl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn replay_matches_a_brute_force_multiset_under_interleaved_updates() {
        const D: usize = 257; // not a power of two on purpose
        let mut rng = Rng::new(21, 0);
        let mult: Vec<u32> = (0..D).map(|_| rng.below(3) as u32).collect();
        let mut fen = Fenwick::from_multiplicities(&mult);
        let mut brute: Vec<i64> = mult
            .iter()
            .enumerate()
            .flat_map(|(v, &m)| std::iter::repeat_n(v as i64, m as usize))
            .collect();
        for step in 0..5_000 {
            match rng.below(3) {
                0 => {
                    let v = rng.below(D as u64) as usize;
                    fen.insert(v);
                    brute.push(v as i64);
                }
                1 if !brute.is_empty() => {
                    let k = rng.below(brute.len() as u64) as usize;
                    let v = brute.swap_remove(k);
                    fen.delete(v as usize);
                }
                _ => {}
            }
            let a = rng.range(-4, D as i64 + 4);
            let b = rng.range(-4, D as i64 + 4);
            let (lo, hi) = (a.min(b), a.max(b));
            let want = brute
                .iter()
                .filter(|&&v| lo <= v && v < hi)
                .fold((0u64, 0u64), |(c, s), &v| (c + 1, s + v as u64));
            assert_eq!(fen.count_sum(lo, hi), want, "step {step} [{lo},{hi})");
        }
        assert_eq!(fen.count_sum(i64::MIN, i64::MAX).0, brute.len() as u64);
    }
}
