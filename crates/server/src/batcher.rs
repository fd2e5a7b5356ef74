//! Crack-aware batch ordering.
//!
//! A drained batch of randomly arrived queries is reordered so the engine
//! sees *piece-friendly bursts*: queries are grouped per column (no cache
//! thrash between cracker columns) and sorted by predicate bounds inside
//! each group, so consecutive predicates land in already-cracked or
//! adjacent pieces of the same column. Among queries sharing a lower bound
//! the *widest* range sorts first. Every query executes once: the order
//! decides only which crack comes first.
//!
//! Ordering is also where a batch is *priced*: a price is a function of
//! the predicate, so [`order_batch`] asks for one per distinct predicate,
//! ranks the queries by price class and hands the prices back.

use holix_workloads::QuerySpec;

/// How the dispatcher orders a drained batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduling {
    /// Arrival (FIFO) order — the naive round-robin baseline.
    Fifo,
    /// Group per column, sort by bounds (widest-first on ties), cheapest
    /// price class first.
    CrackAware,
}

/// Reorders `batch` in place and prices it, once per *distinct* predicate.
/// `spec` projects each item onto its query; `price` returns a predicate's
/// price class (0 = screened probes and cheap exact-hits, 1 = expensive
/// cracks — any `u8` ladder works) beside whatever the caller keeps of the
/// pricing, which comes back per item, aligned with the reordered batch.
///
/// Crack-aware: a stable sort by `(attr, lo, descending hi)` lines equal
/// predicates up behind their first arrival, so each is priced once, at
/// the first copy; a stable sort by class then drains the cheapest work
/// first — the order of the key `(class, attr, lo, descending hi)`, ties
/// in arrival order. An exact-hit never waits behind a cold crack that
/// happens to contain it. FIFO leaves arrival order untouched, never calls
/// `price` and returns nothing: the dispatcher prices each query as it
/// executes, exactly when something reads the price.
pub fn order_batch<T, P: Clone>(
    batch: &mut Vec<T>,
    scheduling: Scheduling,
    spec: impl Fn(&T) -> QuerySpec,
    mut price: impl FnMut(&QuerySpec) -> (u8, P),
) -> Vec<P> {
    if scheduling == Scheduling::Fifo {
        return Vec::new();
    }
    batch.sort_by_key(|item| {
        let q = spec(item);
        (q.attr, q.lo, std::cmp::Reverse(q.hi))
    });
    let mut priced: Vec<(u8, P, T)> = Vec::with_capacity(batch.len());
    for item in batch.drain(..) {
        let q = spec(&item);
        let (class, payload) = match priced.last() {
            Some((class, payload, prev)) if spec(prev) == q => (*class, payload.clone()),
            _ => price(&q),
        };
        priced.push((class, payload, item));
    }
    priced.sort_by_key(|&(class, ..)| class);
    priced
        .into_iter()
        .map(|(_, payload, item)| {
            batch.push(item);
            payload
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(attr: usize, lo: i64, hi: i64) -> QuerySpec {
        QuerySpec { attr, lo, hi }
    }

    /// One price class for everything: the plain crack-aware order.
    fn flat(_: &QuerySpec) -> (u8, ()) {
        (0, ())
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut batch = vec![q(1, 5, 9), q(0, 3, 4), q(1, 1, 2)];
        let orig = batch.clone();
        order_batch(&mut batch, Scheduling::Fifo, |x| *x, flat);
        assert_eq!(batch, orig);
    }

    #[test]
    fn crack_aware_groups_by_attr_then_bounds_widest_first() {
        let mut batch = vec![
            q(1, 500, 600),
            q(0, 300, 400),
            q(1, 100, 200),
            q(0, 100, 150),
            q(1, 100, 120),
        ];
        order_batch(&mut batch, Scheduling::CrackAware, |x| *x, flat);
        assert_eq!(
            batch,
            vec![
                q(0, 100, 150),
                q(0, 300, 400),
                // Same lower bound: the wider range leads, and the
                // narrower one cracks inside the piece it cut.
                q(1, 100, 200),
                q(1, 100, 120),
                q(1, 500, 600),
            ]
        );
    }

    #[test]
    fn crack_aware_sort_is_stable_for_duplicates() {
        // Items carry a payload so we can observe tie order.
        let mut batch = vec![(q(0, 1, 2), 'a'), (q(0, 1, 2), 'b'), (q(0, 1, 2), 'c')];
        order_batch(&mut batch, Scheduling::CrackAware, |x| x.0, flat);
        assert_eq!(
            batch.iter().map(|x| x.1).collect::<Vec<_>>(),
            vec!['a', 'b', 'c']
        );
    }

    #[test]
    fn priced_order_drains_cheap_work_before_expensive_cracks() {
        // Price by width: anything wider than 100 is an expensive crack.
        let price = |q: &QuerySpec| u8::from(q.hi - q.lo > 100);
        let mut batch = vec![
            q(0, 0, 100_000), // expensive
            q(1, 5, 5),       // exact-hit point probe
            q(0, 50, 60),     // cheap narrow range
            q(1, 0, 100_000), // expensive
            q(0, 50, 50),     // cheap, contained in (0,50,60)
        ];
        order_batch(
            &mut batch,
            Scheduling::CrackAware,
            |x| *x,
            |q| (price(q), ()),
        );
        assert_eq!(
            batch,
            vec![
                // Cheap class first, crack-aware within it.
                q(0, 50, 60),
                q(0, 50, 50),
                q(1, 5, 5),
                // Expensive cracks drain last.
                q(0, 0, 100_000),
                q(1, 0, 100_000),
            ]
        );
    }

    #[test]
    fn priced_order_keeps_duplicates_adjacent_and_stable() {
        // Duplicates share a spec, hence a price: they stay adjacent.
        let price = |q: &QuerySpec| u8::from(q.hi - q.lo > 100);
        let mut batch = vec![
            (q(0, 0, 1_000), 'x'),
            (q(0, 7, 7), 'a'),
            (q(0, 7, 7), 'b'),
            (q(0, 7, 7), 'c'),
        ];
        order_batch(
            &mut batch,
            Scheduling::CrackAware,
            |x| x.0,
            |q| (price(q), ()),
        );
        assert_eq!(
            batch.iter().map(|x| x.1).collect::<Vec<_>>(),
            vec!['a', 'b', 'c', 'x'],
            "stable within the class, expensive superset pushed behind"
        );
    }

    #[test]
    fn priced_order_ignores_pricing_under_fifo() {
        let mut batch = vec![q(1, 0, 100_000), q(0, 3, 3)];
        let orig = batch.clone();
        let prices: Vec<()> = order_batch(
            &mut batch,
            Scheduling::Fifo,
            |x| *x,
            |_| panic!("FIFO must not price"),
        );
        assert_eq!(batch, orig);
        assert!(prices.is_empty(), "FIFO hands no prices back");
    }

    #[test]
    fn priced_order_is_the_keyed_permutation_and_prices_each_predicate_once() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;
        // Any function of the predicate will do as a price.
        let class = |q: &QuerySpec| ((q.lo + 3 * q.hi + q.attr as i64) % 3) as u8;
        let mut rng = SmallRng::seed_from_u64(23);
        for round in 0..200 {
            // A small domain, so duplicates and nested ranges are common.
            let arrived: Vec<(QuerySpec, usize)> = (0..rng.random_range(0..64))
                .map(|i| {
                    let lo = rng.random_range(0..6);
                    (
                        q(rng.random_range(0..3), lo, lo + rng.random_range(0..5)),
                        i,
                    )
                })
                .collect();
            let mut want = arrived.clone();
            want.sort_by_key(|(q, _)| (class(q), q.attr, q.lo, Reverse(q.hi)));
            let mut got = arrived.clone();
            let mut priced = Vec::new();
            let prices = order_batch(
                &mut got,
                Scheduling::CrackAware,
                |x| x.0,
                |q| {
                    priced.push(*q);
                    (class(q), *q)
                },
            );
            // The stable keyed sort: runs adjacent, arrival order inside.
            assert_eq!(got, want, "round {round}");
            // Every item got the price of its own predicate …
            let specs: Vec<QuerySpec> = got.iter().map(|x| x.0).collect();
            assert_eq!(prices, specs, "round {round}");
            // … and each distinct predicate was asked for exactly once.
            let asked = priced.len();
            priced.sort_by_key(|q| (q.attr, q.lo, q.hi));
            priced.dedup();
            assert_eq!(asked, priced.len(), "a predicate was priced twice");
            let mut distinct = specs;
            distinct.sort_by_key(|q| (q.attr, q.lo, q.hi));
            distinct.dedup();
            assert_eq!(priced, distinct, "round {round}");
            // FIFO: untouched and unpriced.
            let mut fifo = arrived.clone();
            let none: Vec<()> = order_batch(
                &mut fifo,
                Scheduling::Fifo,
                |x| x.0,
                |_| unreachable!("FIFO must not price"),
            );
            assert!(none.is_empty());
            assert_eq!(fifo, arrived);
        }
    }
}
