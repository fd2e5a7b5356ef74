//! Multi-client traffic generators for the service layer (§5.8 scaled to
//! "heavy traffic": many sessions, per-client skew).
//!
//! A [`TrafficSpec`] describes a fleet of closed-loop client sessions. Each
//! client gets its own deterministic query stream
//! ([`TrafficSpec::client_stream`]) carrying think times (the client waits
//! that long after each answer). Per-client skew models real fleets where
//! every client hammers its own slice of the data — the regime where
//! crack-aware batching pays off.

use crate::patterns::QuerySpec;
use rand::prelude::*;
use std::time::Duration;

/// How a client paces its submissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Closed loop: wait for the answer, think, submit the next query.
    Closed {
        /// Think time between completion and next submission.
        think: Duration,
    },
}

/// Which slice of the data each client focuses on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientFocus {
    /// Clients draw from a fixed set of hot regions with a Zipf-like
    /// preference rotated per client, so every client has its own
    /// favourite regions but the fleet shares the hot set. With probability
    /// `exact_prob` a query repeats the region's canonical window verbatim
    /// (a cached dashboard query), otherwise its bounds are jittered inside
    /// the region (a parameterised variant). Sustains fresh cracking work
    /// concentrated on the hot regions.
    HotRegions {
        /// Number of distinct hot regions in the fleet-wide set.
        regions: usize,
        /// Probability of an exact repeat of the canonical window.
        exact_prob: f64,
    },
}

/// One entry of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedQuery {
    /// Think time to wait before submitting this query.
    pub at: Duration,
    /// The query itself.
    pub spec: QuerySpec,
}

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
    /// Pacing model.
    pub arrival: ArrivalProcess,
    /// Data skew model.
    pub focus: ClientFocus,
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
            arrival: ArrivalProcess::Closed {
                think: Duration::ZERO,
            },
            focus: ClientFocus::HotRegions {
                regions: 24,
                exact_prob: 0.5,
            },
            window_denom: 100,
            seed,
        }
    }

    /// The fleet-wide set of the hot regions' canonical windows — shared by
    /// all clients; depends only on the spec's seed and shape.
    pub fn hot_windows(&self) -> Vec<QuerySpec> {
        let ClientFocus::HotRegions { regions, .. } = self.focus;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9077_F00D);
        let domain = self.domain.max(2);
        let width = (domain / self.window_denom.max(1)).max(1);
        (0..regions.max(1))
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
    pub fn client_stream(&self, client: usize) -> Vec<TimedQuery> {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(client as u64),
        );
        let hot = self.hot_windows();
        let ClientFocus::HotRegions {
            regions,
            exact_prob,
        } = self.focus;
        let ArrivalProcess::Closed { think } = self.arrival;
        // Harmonic normaliser for the Zipf draws, hoisted out of the
        // per-query loop (it only depends on the hot-set size).
        let h: f64 = (1..=regions.max(1)).map(|k| 1.0 / k as f64).sum();
        let domain = self.domain.max(2);
        (0..self.queries_per_client)
            .map(|_| TimedQuery {
                at: think,
                spec: region_query(&mut rng, &hot, client, regions, exact_prob, h, domain),
            })
            .collect()
    }
}

/// One [`ClientFocus::HotRegions`] draw: a Zipf-ranked region, repeated
/// exactly with probability `exact_prob`, otherwise jittered inside a
/// region spanning a few window widths around the canonical window.
fn region_query(
    rng: &mut StdRng,
    hot: &[QuerySpec],
    client: usize,
    regions: usize,
    exact_prob: f64,
    h: f64,
    domain: i64,
) -> QuerySpec {
    let n = regions.max(1);
    let rank = zipf_rank(rng, n, h);
    let canonical = hot[(rank + client) % n];
    if rng.random_range(0.0..1.0) < exact_prob {
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

    fn spec(think: Duration) -> TrafficSpec {
        TrafficSpec {
            arrival: ArrivalProcess::Closed { think },
            focus: ClientFocus::HotRegions {
                regions: 8,
                exact_prob: 0.5,
            },
            ..TrafficSpec::saturating(4, 200, 3, 1 << 20, 7)
        }
    }

    #[test]
    fn streams_are_deterministic_and_valid() {
        let s = spec(Duration::ZERO);
        assert_eq!(s.client_stream(2), s.client_stream(2));
        for c in 0..s.clients {
            let stream = s.client_stream(c);
            assert_eq!(stream.len(), 200);
            for t in &stream {
                assert!(t.spec.lo < t.spec.hi);
                assert!(t.spec.lo >= 0 && t.spec.hi <= 1 << 20);
                assert!(t.spec.attr < 3);
            }
        }
    }

    #[test]
    fn hot_regions_mix_exact_repeats_and_jittered_variants() {
        let s = spec(Duration::ZERO);
        let hot = s.hot_windows();
        assert_eq!(hot.len(), 8);
        let stream = s.client_stream(0);
        let exact = stream.iter().filter(|t| hot.contains(&t.spec)).count();
        // ~half exact repeats (loose band over 200 draws).
        assert!((60..=140).contains(&exact), "exact repeats: {exact}");
        // Jittered variants stay inside their region's attr set and domain.
        for t in &stream {
            assert!(t.spec.lo < t.spec.hi);
            assert!(t.spec.lo >= 0 && t.spec.hi <= s.domain);
            assert!(hot.iter().any(|w| w.attr == t.spec.attr));
        }
        // Jitter keeps queries near some canonical region.
        let span = (s.domain / s.window_denom).max(1) * 3;
        for t in &stream {
            assert!(
                hot.iter()
                    .any(|w| w.attr == t.spec.attr && (t.spec.lo - w.lo).abs() <= span),
                "{:?} far from every region",
                t.spec
            );
        }
    }

    #[test]
    fn closed_loop_carries_think_time() {
        let s = spec(Duration::from_millis(5));
        assert!(s
            .client_stream(0)
            .iter()
            .all(|t| t.at == Duration::from_millis(5)));
    }
}
