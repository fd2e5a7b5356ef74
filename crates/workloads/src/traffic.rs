//! Multi-client traffic generators for the service layer (§5.8 scaled to
//! "heavy traffic": many sessions, per-client skew).
//!
//! A [`TrafficSpec`] describes a fleet of zero-think closed-loop client
//! sessions. Each client gets its own deterministic query stream
//! ([`TrafficSpec::client_stream`]) drawn from a fixed set of hot regions
//! with a Zipf-like preference rotated per client, so every client has its
//! own favourite regions but the fleet shares the hot set — the regime
//! where crack-aware batching pays off.

use crate::patterns::QuerySpec;
use rand::prelude::*;

/// Distinct hot regions in the fleet-wide set.
const REGIONS: usize = 24;
/// Probability that a query repeats its region's canonical window verbatim
/// (a cached dashboard query); otherwise its bounds are jittered inside the
/// region (a parameterised variant).
const EXACT_REPEAT: f64 = 0.5;

/// Description of a multi-client traffic mix.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Concurrent client sessions.
    pub clients: usize,
    /// Queries each client submits.
    pub queries_per_client: usize,
    /// Attributes in the schema.
    pub n_attrs: usize,
    /// Value domain `[0, domain)`.
    pub domain: i64,
    /// Window width for focused queries, as a fraction denominator of the
    /// domain (width = `domain / window_denom`).
    pub window_denom: i64,
    /// RNG seed; streams are deterministic per `(seed, client)`.
    pub seed: u64,
}

impl TrafficSpec {
    /// A zero-think closed-loop spec — maximum sustained pressure, the
    /// saturation scenario of the service harness.
    pub fn saturating(
        clients: usize,
        queries_per_client: usize,
        n_attrs: usize,
        domain: i64,
        seed: u64,
    ) -> Self {
        TrafficSpec {
            clients,
            queries_per_client,
            n_attrs,
            domain,
            window_denom: 100,
            seed,
        }
    }

    /// The fleet-wide set of the hot regions' canonical windows — shared by
    /// all clients; depends only on the spec's seed and shape.
    pub fn hot_windows(&self) -> Vec<QuerySpec> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9077_F00D);
        let domain = self.domain.max(2);
        let width = (domain / self.window_denom.max(1)).max(1);
        (0..REGIONS)
            .map(|_| {
                let attr = rng.random_range(0..self.n_attrs.max(1));
                let lo = rng.random_range(0..(domain - width).max(1));
                QuerySpec {
                    attr,
                    lo,
                    hi: (lo + width).min(domain),
                }
            })
            .collect()
    }

    /// Client `c`'s deterministic stream.
    pub fn client_stream(&self, client: usize) -> Vec<QuerySpec> {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(client as u64),
        );
        let hot = self.hot_windows();
        // Harmonic normaliser for the Zipf draws, hoisted out of the
        // per-query loop (it only depends on the hot-set size).
        let h: f64 = (1..=REGIONS).map(|k| 1.0 / k as f64).sum();
        let domain = self.domain.max(2);
        (0..self.queries_per_client)
            .map(|_| region_query(&mut rng, &hot, client, h, domain))
            .collect()
    }
}

/// One hot-region draw: a Zipf-ranked region, repeated exactly with
/// probability [`EXACT_REPEAT`], otherwise jittered inside a region
/// spanning a few window widths around the canonical window.
fn region_query(
    rng: &mut StdRng,
    hot: &[QuerySpec],
    client: usize,
    h: f64,
    domain: i64,
) -> QuerySpec {
    let rank = zipf_rank(rng, REGIONS, h);
    let canonical = hot[(rank + client) % REGIONS];
    if rng.random_range(0.0..1.0) < EXACT_REPEAT {
        canonical
    } else {
        let span = (canonical.hi - canonical.lo).max(1);
        let base = (canonical.lo - span).max(0);
        let ceil = (canonical.hi + span).min(domain);
        let lo = rng.random_range(base..ceil.max(base + 1));
        let hi = rng.random_range(lo..ceil.max(lo + 1)).max(lo + 1);
        QuerySpec {
            attr: canonical.attr,
            lo,
            hi,
        }
    }
}

/// Draws a rank in `[0, n)` with probability ∝ `1/(rank+1)` (Zipf(1));
/// `h` is the precomputed harmonic sum `H(n)`.
fn zipf_rank(rng: &mut StdRng, n: usize, h: f64) -> usize {
    let target = rng.random_range(0.0..h);
    let mut acc = 0.0;
    for k in 0..n {
        acc += 1.0 / (k + 1) as f64;
        if target < acc {
            return k;
        }
    }
    n - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TrafficSpec {
        TrafficSpec::saturating(4, 200, 3, 1 << 20, 7)
    }

    #[test]
    fn streams_are_deterministic_and_valid() {
        let s = spec();
        assert_eq!(s.client_stream(2), s.client_stream(2));
        for c in 0..s.clients {
            let stream = s.client_stream(c);
            assert_eq!(stream.len(), 200);
            for q in &stream {
                assert!(q.lo < q.hi);
                assert!(q.lo >= 0 && q.hi <= 1 << 20);
                assert!(q.attr < 3);
            }
        }
    }

    #[test]
    fn hot_regions_mix_exact_repeats_and_jittered_variants() {
        let s = spec();
        let hot = s.hot_windows();
        assert_eq!(hot.len(), 24);
        let stream = s.client_stream(0);
        let exact = stream.iter().filter(|q| hot.contains(q)).count();
        // ~half exact repeats (loose band over 200 draws).
        assert!((60..=140).contains(&exact), "exact repeats: {exact}");
        // Jittered variants stay inside their region's attr set and domain.
        for q in &stream {
            assert!(q.lo < q.hi);
            assert!(q.lo >= 0 && q.hi <= s.domain);
            assert!(hot.iter().any(|w| w.attr == q.attr));
        }
        // Jitter keeps queries near some canonical region.
        let span = (s.domain / s.window_denom).max(1) * 3;
        for q in &stream {
            assert!(
                hot.iter()
                    .any(|w| w.attr == q.attr && (q.lo - w.lo).abs() <= span),
                "{q:?} far from every region"
            );
        }
    }
}
