//! The benchmark's own deterministic random source.
//!
//! Inputs must not move when `vendor/rand` or `holix-workloads` change, or
//! a parent-vs-change comparison would run different work on each side —
//! so the generator owns its PRNG (xoshiro256++ seeded through splitmix64)
//! and its Zipf sampler.

/// splitmix64 step: the seeding function and a cheap stateless mixer.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256++.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    /// A stream determined by `(seed, stream)`: every generator part
    /// (data, per-client ops, probes) takes its own stream number so
    /// resizing one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = seed ^ stream.wrapping_mul(0xd605_bbb5_8c8a_bc03);
        Rng([
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, n)`; `n` must be positive. Multiply-shift: the bias
    /// (< n / 2^64) is far below anything a workload mix can see.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi);
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf ranks over `n` items (weight of rank `k` ∝ `1 / k^s`) by
/// inverse-CDF table lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The classic `s = 1`.
    pub fn new(n: usize) -> Self {
        Zipf::with_exponent(n, 1.0)
    }

    pub fn with_exponent(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `[0, n)`, rank 0 the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut r = Rng::new(1, 0);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            let v = r.range(-3, 5);
            assert!((-3..5).contains(&v));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(16);
        let mut r = Rng::new(3, 0);
        let mut hist = [0usize; 16];
        for _ in 0..20_000 {
            hist[z.sample(&mut r)] += 1;
        }
        assert!(hist[0] > hist[1] && hist[1] > hist[3] && hist[3] > hist[15]);
        assert!(hist[15] > 0);
    }
}
