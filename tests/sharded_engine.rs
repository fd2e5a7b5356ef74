//! Sharded holistic engine vs single-shard/sorted oracles: shard-boundary
//! equivalence for counts *and* sums, update routing across shards, and a
//! concurrent stress where Ripple updates land on different shards while
//! queries span all of them and the daemon refines in the background.

use holix::engine::holistic::Shards;
use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::storage::select::{scan_stats, Predicate};
use holix::workloads::data::uniform_table;
use holix::workloads::QuerySpec;
use rand::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn sharded_engine(data: &Dataset, shards: usize) -> HolisticEngine {
    let mut cfg = HolisticEngineConfig::split_half_sharded(4, shards);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    HolisticEngine::new(data.clone(), cfg)
}

/// Every shard's tuples, its pending queue included, each read at one
/// instant: `count_exact` over the whole domain counts the merged column
/// and folds the queue under the lock that keeps merges out. A merge (the
/// daemon's idle workers drain any non-empty queue) moves tuples from the
/// queue into the column and leaves this count as it was.
fn shard_tuples(col: &Shards) -> Vec<u64> {
    let all = Predicate::range(i64::MIN, i64::MAX);
    (0..col.shard_count())
        .map(|k| {
            col.shard(k)
                .count_exact(all)
                .expect("the sentinels always hit")
        })
        .collect()
}

/// Queries built to stress shard boundaries: exact cut values as bounds,
/// one-off-the-cut values, whole-domain spans, plus random ranges.
fn boundary_queries(
    engine: &HolisticEngine,
    attr: usize,
    domain: i64,
    seed: u64,
) -> Vec<QuerySpec> {
    let col = engine.sharded(attr);
    let cuts: Vec<i64> = col.plan().cuts().to_vec();
    let mut queries = Vec::new();
    for &c in &cuts {
        // Bounds exactly on, just below and just above a shard cut.
        queries.push(QuerySpec {
            attr,
            lo: (c - 100).max(0),
            hi: c + 100,
        });
        queries.push(QuerySpec {
            attr,
            lo: c,
            hi: (c + 1).min(domain),
        });
        queries.push(QuerySpec { attr, lo: 0, hi: c });
        queries.push(QuerySpec {
            attr,
            lo: c,
            hi: domain,
        });
    }
    // Spans crossing two or more cuts, and the full domain.
    if cuts.len() >= 2 {
        queries.push(QuerySpec {
            attr,
            lo: cuts[0] - 5,
            hi: cuts[cuts.len() - 1] + 5,
        });
    }
    queries.push(QuerySpec {
        attr,
        lo: 0,
        hi: domain,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..60 {
        let a = rng.random_range(0..domain);
        let b = rng.random_range(0..domain);
        queries.push(QuerySpec {
            attr,
            lo: a.min(b),
            hi: a.max(b).max(a.min(b) + 1),
        });
    }
    queries
}

#[test]
fn sharded_counts_and_sums_match_single_shard_and_sorted_oracle() {
    let attrs = 2;
    let rows = 60_000;
    let domain = 1 << 20;
    let data = Dataset::new(uniform_table(attrs, rows, domain, 71));
    let sorted: Vec<Vec<i64>> = (0..attrs)
        .map(|a| {
            let mut c = data.column(a).to_vec();
            c.sort_unstable();
            c
        })
        .collect();
    let single = sharded_engine(&data, 1);
    for shards in [2usize, 4, 7] {
        let engine = sharded_engine(&data, shards);
        for (attr, col) in sorted.iter().enumerate() {
            for q in boundary_queries(&engine, attr, domain, 710 + shards as u64) {
                // Sorted-column oracle via binary search.
                let count = (col.partition_point(|&v| v < q.hi)
                    - col.partition_point(|&v| v < q.lo)) as u64;
                let oracle = scan_stats(data.column(attr), Predicate::range(q.lo, q.hi));
                assert_eq!(oracle.count, count);
                assert_eq!(
                    engine.execute_verified(&q),
                    (oracle.count, oracle.sum),
                    "shards={shards} {q:?}"
                );
                assert_eq!(
                    single.execute_verified(&q),
                    (oracle.count, oracle.sum),
                    "single-shard {q:?}"
                );
            }
        }
        engine.stop();
    }
    single.stop();
}

#[test]
fn updates_route_to_distinct_shards_and_merge_correctly() {
    let domain = 1 << 20;
    let data = Dataset::new(uniform_table(1, 40_000, domain, 72));
    let engine = sharded_engine(&data, 4);
    let col = engine.sharded(0);
    let cuts = col.plan().cuts().to_vec();
    assert_eq!(cuts.len(), 3, "plan did not produce 4 shards");

    // One insert per shard region: each lands in its own shard alone.
    let probes = [0i64, cuts[0], cuts[1], cuts[2]];
    let mut model = data.column(0).to_vec();
    for (i, &v) in probes.iter().enumerate() {
        let mut want = shard_tuples(&col);
        engine.queue_insert(0, v, (model.len() + i) as u32);
        want[i] += 1;
        assert_eq!(
            shard_tuples(&col),
            want,
            "insert of {v} not routed to shard {i} alone"
        );
    }
    model.extend_from_slice(&probes);

    // A span over everything counts all four from their queues and agrees
    // with the model; once each shard merges its own, it still does.
    let q = QuerySpec {
        attr: 0,
        lo: 0,
        hi: domain,
    };
    let oracle = scan_stats(&model, Predicate::range(q.lo, q.hi));
    assert_eq!(engine.execute_verified(&q), (oracle.count, oracle.sum));
    for k in 0..probes.len() {
        col.shard(k).merge_pending();
    }
    assert_eq!(col.pending_len(), 0, "pending updates survived the merges");
    assert_eq!(engine.execute_verified(&q), (oracle.count, oracle.sum));

    // Deletes route the same way.
    let mut want = shard_tuples(&col);
    engine.queue_delete(0, probes[2], (model.len() - 2) as u32);
    want[2] -= 1;
    assert_eq!(
        shard_tuples(&col),
        want,
        "delete not routed to shard 2 alone"
    );
    let oracle = scan_stats(&model, Predicate::range(q.lo, q.hi));
    let (count, sum) = engine.execute_verified(&q);
    assert_eq!(count, oracle.count - 1);
    assert_eq!(sum, oracle.sum - probes[2] as i128);
    engine.stop();
}

#[test]
fn concurrent_cross_shard_queries_race_rippling_updaters() {
    let domain = 1 << 20;
    let rows = 60_000usize;
    let data = Dataset::new(uniform_table(1, rows, domain, 73));
    let engine = Arc::new(sharded_engine(&data, 4));
    let col = engine.sharded(0);
    let cuts = col.plan().cuts().to_vec();
    let base_count = rows as u64;
    // Each updater thread owns one shard's value region and inserts a fixed
    // number of values there (unique row ids), deleting half of them again.
    let inserts_per_updater = 300usize;
    let updaters = 4usize;
    let stop = Arc::new(AtomicBool::new(false));

    let region_bounds = |k: usize| -> (i64, i64) {
        let lo = if k == 0 { 0 } else { cuts[k - 1] };
        let hi = if k == cuts.len() { domain } else { cuts[k] };
        (lo, hi)
    };

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for k in 0..updaters {
            let engine = Arc::clone(&engine);
            let (lo, hi) = region_bounds(k);
            handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(730 + k as u64);
                let mut net: i128 = 0;
                let mut net_count: i64 = 0;
                let row_base = (rows + k * inserts_per_updater) as u32;
                let mut inserted: Vec<(i64, u32)> = Vec::new();
                for i in 0..inserts_per_updater {
                    let v = rng.random_range(lo..hi);
                    let row = row_base + i as u32;
                    engine.queue_insert(0, v, row);
                    inserted.push((v, row));
                    net += v as i128;
                    net_count += 1;
                    // Delete every other previously-inserted value.
                    if i % 2 == 1 {
                        let (dv, drow) = inserted[i - 1];
                        engine.queue_delete(0, dv, drow);
                        net -= dv as i128;
                        net_count -= 1;
                    }
                }
                (net_count, net)
            }));
        }
        // Query threads: spans crossing all shards while updates ripple in.
        for t in 0..3usize {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7300 + t as u64);
                let max_count = base_count + (updaters * inserts_per_updater) as u64;
                while !stop.load(Ordering::Relaxed) {
                    let lo = rng.random_range(0..domain / 4);
                    let hi = rng.random_range(3 * domain / 4..domain);
                    let q = QuerySpec { attr: 0, lo, hi };
                    let count = engine.execute(&q);
                    // Mid-race the exact count is unknowable, but it can
                    // never exceed every tuple that could ever exist, nor
                    // can a three-quarter-domain span return zero.
                    assert!(count <= max_count, "impossible count {count}");
                    assert!(count > 0, "span lost all tuples");
                }
            });
        }
        let nets: Vec<(i64, i128)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);

        // Quiesce: final full-domain verified query folds every pending
        // update in and must match base + net inserts exactly.
        let net_count: i64 = nets.iter().map(|(c, _)| *c).sum();
        let net_sum: i128 = nets.iter().map(|(_, s)| *s).sum();
        let base_stats = scan_stats(data.column(0), Predicate::range(0, domain));
        let q = QuerySpec {
            attr: 0,
            lo: 0,
            hi: domain,
        };
        let (count, sum) = engine.execute_verified(&q);
        assert_eq!(count as i64, base_stats.count as i64 + net_count);
        assert_eq!(sum, base_stats.sum + net_sum);
    });
    engine.stop();
    // Invariants hold on every shard after the melee.
    let col = engine.sharded(0);
    for k in 0..col.shard_count() {
        col.shard(k).check_invariants(None);
    }
}
