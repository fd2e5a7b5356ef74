//! Seed-generated base columns whose range answers have a closed form.
//!
//! Every column has `n = 2^k` rows and is built from a seeded bijection on
//! `[0, n)`, so the multiset of values is known without sorting anything:
//! the oracle for a static column is arithmetic, independent of the system
//! under test, and costs nothing at run time. Unique-valued columns hold
//! only *even* numbers — every odd key inside the domain is a guaranteed
//! absent point probe that still routes to an interior shard.

use crate::rng::{splitmix64, Rng};

/// A seeded bijection on `[0, 2^bits)`: odd multiplies, right xorshifts
/// and adds, each invertible modulo `2^bits`.
#[derive(Debug, Clone, Copy)]
pub struct Permutation {
    mask: u64,
    shift: u32,
    mul: [u64; 3],
    add: [u64; 3],
}

impl Permutation {
    pub fn new(bits: u32, rng: &mut Rng) -> Self {
        assert!((1..=40).contains(&bits));
        let mask = (1u64 << bits) - 1;
        Permutation {
            mask,
            shift: (bits / 2).max(1),
            mul: [0; 3].map(|_| rng.next_u64() | 1),
            add: [0; 3].map(|_| rng.next_u64()),
        }
    }

    #[inline]
    pub fn apply(&self, i: u64) -> u64 {
        let mut x = i & self.mask;
        for r in 0..3 {
            x = x.wrapping_mul(self.mul[r]) & self.mask;
            x ^= x >> self.shift;
            x = x.wrapping_add(self.add[r]) & self.mask;
        }
        x
    }
}

/// How a column's values are laid out; all three keep a closed-form oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A shuffled permutation of the even numbers in `[0, 2n)`.
    Uniform,
    /// The same multiset, but laid out as sorted runs of `run` rows whose
    /// order is shuffled (ingest-ordered data: FOR/delta encode well).
    Clustered { run: usize },
    /// `card` distinct values `0..card`, each on exactly `n / card` rows.
    LowCard { card: usize },
}

/// One generated column's description (the oracle's whole input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSpec {
    pub rows: usize,
    pub shape: Shape,
}

impl ColumnSpec {
    /// Values lie in `[0, domain())`.
    pub fn domain(&self) -> i64 {
        match self.shape {
            Shape::Uniform | Shape::Clustered { .. } => 2 * self.rows as i64,
            Shape::LowCard { card } => card as i64,
        }
    }

    /// Whether every value occurs on exactly one row.
    pub fn unique(&self) -> bool {
        !matches!(self.shape, Shape::LowCard { .. })
    }

    pub fn generate(&self, rng: &mut Rng) -> Vec<i64> {
        let n = self.rows;
        assert!(n.is_power_of_two(), "column sizes are powers of two");
        let bits = n.trailing_zeros();
        match self.shape {
            Shape::Uniform => {
                let p = Permutation::new(bits, rng);
                (0..n as u64).map(|i| 2 * p.apply(i) as i64).collect()
            }
            Shape::Clustered { run } => {
                assert!(run.is_power_of_two() && run < n);
                let run_bits = run.trailing_zeros();
                let p = Permutation::new(bits - run_bits, rng);
                (0..n as u64)
                    .map(|i| {
                        let block = p.apply(i >> run_bits);
                        2 * ((block << run_bits) | (i & (run as u64 - 1))) as i64
                    })
                    .collect()
            }
            Shape::LowCard { card } => {
                assert!(card.is_power_of_two() && card <= n);
                let p = Permutation::new(bits, rng);
                (0..n as u64)
                    .map(|i| (p.apply(i) & (card as u64 - 1)) as i64)
                    .collect()
            }
        }
    }

    /// `(count, sum)` of the values in `[lo, hi)`.
    pub fn count_sum(&self, lo: i64, hi: i64) -> (u64, u64) {
        let d = self.domain();
        let (lo, hi) = (lo.clamp(0, d), hi.clamp(0, d));
        if lo >= hi {
            return (0, 0);
        }
        // Distinct values in range are j·step for j in [jl, jh).
        let (step, per_value) = match self.shape {
            Shape::Uniform | Shape::Clustered { .. } => (2u64, 1u64),
            Shape::LowCard { card } => (1, (self.rows / card) as u64),
        };
        let jl = (lo as u64).div_ceil(step);
        let jh = (hi as u64).div_ceil(step);
        let distinct = jh - jl;
        if distinct == 0 {
            return (0, 0);
        }
        // Σ_{j=jl}^{jh-1} j = (jl + jh - 1)·distinct / 2; one factor is even.
        let series = (jl + jh - 1) * distinct / 2;
        (distinct * per_value, series * step * per_value)
    }
}

/// Folds a `(count, sum)` answer into the one `u64` the timed loop compares.
#[inline]
pub fn fold_answer(count: u64, sum: u64) -> u64 {
    let mut s = count ^ sum.rotate_left(32);
    splitmix64(&mut s)
}

/// `inverse[v / 2] = row` for a unique-valued column: the conjunction
/// oracle walks a narrow driver range row by row through it.
pub fn inverse_rows(values: &[i64]) -> Vec<u32> {
    let mut inv = vec![0u32; values.len()];
    for (row, &v) in values.iter().enumerate() {
        inv[(v / 2) as usize] = row as u32;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(values: &[i64], lo: i64, hi: i64) -> (u64, u64) {
        values
            .iter()
            .filter(|&&v| lo <= v && v < hi)
            .fold((0, 0), |(c, s), &v| (c + 1, s + v as u64))
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = Rng::new(11, 0);
        for bits in [1u32, 2, 5, 12] {
            let p = Permutation::new(bits, &mut rng);
            let mut seen = vec![false; 1 << bits];
            for i in 0..(1u64 << bits) {
                let v = p.apply(i) as usize;
                assert!(!seen[v], "bits={bits}: {v} produced twice");
                seen[v] = true;
            }
        }
    }

    #[test]
    fn closed_form_matches_a_scan_for_every_shape() {
        let shapes = [
            Shape::Uniform,
            Shape::Clustered { run: 64 },
            Shape::LowCard { card: 32 },
        ];
        for (k, shape) in shapes.into_iter().enumerate() {
            let spec = ColumnSpec { rows: 4096, shape };
            let values = spec.generate(&mut Rng::new(3, k as u64));
            assert_eq!(values.len(), 4096);
            let d = spec.domain();
            let mut rng = Rng::new(4, k as u64);
            for _ in 0..500 {
                let a = rng.range(-5, d + 5);
                let b = rng.range(-5, d + 5);
                let (lo, hi) = (a.min(b), a.max(b));
                assert_eq!(
                    spec.count_sum(lo, hi),
                    brute(&values, lo, hi),
                    "{shape:?} [{lo},{hi})"
                );
                assert_eq!(spec.count_sum(a, a + 1), brute(&values, a, a + 1));
            }
            assert_eq!(spec.count_sum(0, d).0, 4096);
        }
    }

    #[test]
    fn clustered_columns_are_sorted_runs() {
        let spec = ColumnSpec {
            rows: 1024,
            shape: Shape::Clustered { run: 32 },
        };
        let v = spec.generate(&mut Rng::new(9, 0));
        for run in v.chunks(32) {
            assert!(run.windows(2).all(|w| w[1] == w[0] + 2));
        }
        // ... and the run order is shuffled, not the identity.
        assert!(v.chunks(32).enumerate().any(|(k, r)| r[0] != 64 * k as i64));
    }

    #[test]
    fn inverse_rows_round_trips() {
        let spec = ColumnSpec {
            rows: 256,
            shape: Shape::Uniform,
        };
        let v = spec.generate(&mut Rng::new(2, 0));
        let inv = inverse_rows(&v);
        for (row, &val) in v.iter().enumerate() {
            assert_eq!(inv[(val / 2) as usize] as usize, row);
        }
    }
}
