//! Synthetic SkyServer trace (Fig 10(e) and the §5.3 real-life workload).
//!
//! The paper replays 10⁴ logged user queries on the `Photoobjall.ascension`
//! attribute and observes that "the queries follow non-random patterns, i.e.,
//! they focus on a specific part of the sky before moving to a different
//! part". The logged trace is not redistributable, so we synthesise exactly
//! that access shape (PAPER.md, "Everything below the daemon"): the query
//! stream *dwells* on one region — drifting slowly with small jitter — then
//! *jumps* to another region, producing the staircase of Fig 10(e).

use crate::patterns::QuerySpec;
use rand::prelude::*;

/// Parameters of the dwell-and-jump trace.
#[derive(Debug, Clone)]
pub struct SkyServerSpec {
    /// Number of queries (paper: 10⁴).
    pub n_queries: usize,
    /// Value domain of the ascension attribute.
    pub domain: i64,
    /// Mean queries spent in one region before jumping.
    pub dwell: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SkyServerSpec {
    fn default() -> Self {
        SkyServerSpec {
            n_queries: 10_000,
            domain: 1 << 30,
            dwell: 400,
            seed: 2015,
        }
    }
}

impl SkyServerSpec {
    /// Generates the trace; all queries target attribute 0 (the paper's
    /// single `ascension` attribute).
    pub fn generate(&self) -> Vec<QuerySpec> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let domain = self.domain.max(1_000);
        // Narrow windows: telescope fields cover a sliver of the sky.
        let window = (domain / 500).max(1);
        let drift = (window / 4).max(1);

        let mut out = Vec::with_capacity(self.n_queries);
        let mut center = rng.random_range(0..domain);
        let mut remaining_dwell = self.sample_dwell(&mut rng);
        for _ in 0..self.n_queries {
            if remaining_dwell == 0 {
                center = rng.random_range(0..domain);
                remaining_dwell = self.sample_dwell(&mut rng);
            }
            remaining_dwell -= 1;
            // Slow drift plus jitter within the current region.
            center = (center + rng.random_range(-drift..=drift)).clamp(0, domain - 1);
            let lo = (center - window / 2).clamp(0, domain - 1);
            let hi = (lo + window).clamp(lo + 1, domain);
            out.push(QuerySpec { attr: 0, lo, hi });
        }
        out
    }

    fn sample_dwell(&self, rng: &mut StdRng) -> usize {
        let d = self.dwell.max(2);
        rng.random_range(d / 2..=d + d / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_requested_length_and_valid_ranges() {
        let spec = SkyServerSpec {
            n_queries: 2_000,
            ..Default::default()
        };
        let qs = spec.generate();
        assert_eq!(qs.len(), 2_000);
        for q in &qs {
            assert!(q.lo < q.hi);
            assert!(q.lo >= 0 && q.hi <= spec.domain);
            assert_eq!(q.attr, 0);
        }
    }

    #[test]
    fn trace_dwells_then_jumps() {
        let spec = SkyServerSpec {
            n_queries: 4_000,
            dwell: 200,
            ..Default::default()
        };
        let qs = spec.generate();
        // Consecutive queries are near each other most of the time (dwell),
        // but large jumps exist.
        let window = spec.domain / 500;
        let mut near = 0usize;
        let mut far = 0usize;
        for w in qs.windows(2) {
            if (w[1].lo - w[0].lo).abs() < 4 * window {
                near += 1;
            } else if (w[1].lo - w[0].lo).abs() > spec.domain / 20 {
                far += 1;
            }
        }
        assert!(near > qs.len() * 8 / 10, "near={near}");
        assert!(far >= 5, "far={far}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SkyServerSpec::default().generate();
        let b = SkyServerSpec::default().generate();
        assert_eq!(a, b);
    }
}
