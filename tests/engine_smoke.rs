//! Fast smoke test: every engine kind answers a handful of range queries on
//! a tiny dataset with exactly the counts a naive filter produces. This is
//! the first suite to consult when a refactor breaks something — it runs in
//! well under a second and points at the offending engine by name.

use holix::engine::{
    AdaptiveEngine, CrackMode, Dataset, HolisticEngine, HolisticEngineConfig, OfflineEngine,
    OnlineEngine, QueryEngine, ScanEngine,
};
use holix::workloads::data::uniform_table;
use holix::workloads::{QuerySpec, WorkloadSpec};

const ATTRS: usize = 2;
const ROWS: usize = 2_000;
const DOMAIN: i64 = 5_000;

/// The oracle: a plain iterator filter, independent of every library
/// operator the engines themselves use.
fn naive_count(data: &Dataset, q: &QuerySpec) -> u64 {
    data.column(q.attr)
        .iter()
        .filter(|&&v| q.lo <= v && v < q.hi)
        .count() as u64
}

fn smoke_queries() -> Vec<QuerySpec> {
    let mut qs = WorkloadSpec::random(ATTRS, 20, DOMAIN, 17).generate();
    // Edge windows the random generator is unlikely to produce.
    qs.push(QuerySpec {
        attr: 0,
        lo: 0,
        hi: DOMAIN + 1,
    });
    qs.push(QuerySpec {
        attr: 1,
        lo: 42,
        hi: 43,
    });
    qs.push(QuerySpec {
        attr: 1,
        lo: DOMAIN + 10,
        hi: DOMAIN + 20,
    });
    qs
}

fn check_engine(engine: &dyn QueryEngine, data: &Dataset) {
    for (qi, q) in smoke_queries().iter().enumerate() {
        assert_eq!(
            engine.execute(q),
            naive_count(data, q),
            "{} disagrees with the naive filter on query {qi} ({q:?})",
            engine.name()
        );
    }
}

#[test]
fn scan_engine_smoke() {
    let data = Dataset::new(uniform_table(ATTRS, ROWS, DOMAIN, 11));
    check_engine(&ScanEngine::new(data.clone(), 2), &data);
}

#[test]
fn offline_engine_smoke() {
    let data = Dataset::new(uniform_table(ATTRS, ROWS, DOMAIN, 12));
    check_engine(&OfflineEngine::new(data.clone(), 2), &data);
}

#[test]
fn online_engine_smoke() {
    let data = Dataset::new(uniform_table(ATTRS, ROWS, DOMAIN, 13));
    // Monitor window shorter than the query list so the sort kicks in
    // mid-suite and both phases are exercised.
    check_engine(&OnlineEngine::new(data.clone(), 2, 5), &data);
}

#[test]
fn adaptive_engine_smoke() {
    for mode in [
        CrackMode::Sequential,
        CrackMode::Pvdc { threads: 2 },
        CrackMode::Pvsdc { threads: 2 },
    ] {
        let data = Dataset::new(uniform_table(ATTRS, ROWS, DOMAIN, 14));
        check_engine(&AdaptiveEngine::new(data.clone(), mode), &data);
    }
}

#[test]
fn holistic_engine_smoke() {
    let data = Dataset::new(uniform_table(ATTRS, ROWS, DOMAIN, 15));
    let engine = HolisticEngine::new(data.clone(), HolisticEngineConfig::split_half(2));
    check_engine(&engine, &data);
    engine.stop();
}

/// §5.7 under concurrency: concurrent `execute` calls, Ripple update merges
/// and the running holistic daemon all hammer one `CrackerColumn`; every
/// query answer must match a scan oracle throughout, and the final state
/// must account for every insert and delete.
#[test]
fn concurrent_queries_updates_and_daemon_match_scan_oracle() {
    use holix::engine::HolisticEngineConfig;
    use holix::workloads::QuerySpec;
    use rand::prelude::*;
    use std::time::Duration;

    const N: usize = 40_000;
    // Base values live in [0, QUERY_DOMAIN); concurrent inserts use
    // [INSERT_LO, INSERT_HI) so racing merges cannot change the counts the
    // query threads verify against the immutable base oracle.
    const QUERY_DOMAIN: i64 = 500_000;
    const INSERT_LO: i64 = 600_000;
    const INSERT_HI: i64 = 1_000_000;

    let data = Dataset::new(uniform_table(1, N, QUERY_DOMAIN, 57));
    let mut sorted_base: Vec<i64> = data.column(0).to_vec();
    sorted_base.sort_unstable();

    let mut cfg = HolisticEngineConfig::split_half(4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let engine = HolisticEngine::new(data.clone(), cfg);
    // Materialise the cracker column so updaters and the daemon share it.
    let col = engine.column(0);

    let net_inserted: i64 = std::thread::scope(|s| {
        // Query threads: random ranges inside the base domain, verified
        // against binary search over the sorted base.
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let engine = &engine;
            let sorted_base = &sorted_base;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(5700 + t);
                for i in 0..150 {
                    let a = rng.random_range(0..QUERY_DOMAIN);
                    let b = rng.random_range(0..QUERY_DOMAIN);
                    let q = QuerySpec {
                        attr: 0,
                        lo: a.min(b),
                        hi: a.max(b).max(a.min(b) + 1),
                    };
                    let expect = (sorted_base.partition_point(|&v| v < q.hi)
                        - sorted_base.partition_point(|&v| v < q.lo))
                        as u64;
                    assert_eq!(engine.execute(&q), expect, "thread {t} query {i}: {q:?}");
                }
            });
        }
        // Updater threads: queue inserts/deletes in the high range and force
        // Ripple merges to race the query-driven cracks and the daemon.
        for t in 0..2u64 {
            let col = &col;
            handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7500 + t);
                let mut mine: Vec<(i64, u32)> = Vec::new();
                let mut deleted = 0i64;
                for i in 0..400u32 {
                    let v = rng.random_range(INSERT_LO..INSERT_HI);
                    let row = (N as u32) + (t as u32) * 1_000_000 + i;
                    col.queue_insert(v, row);
                    mine.push((v, row));
                    if i % 3 == 2 {
                        // Delete a random earlier insert (possibly already
                        // merged, possibly still pending — both paths).
                        let j = rng.random_range(0..mine.len());
                        let (dv, dr) = mine.swap_remove(j);
                        col.queue_delete(dv, dr);
                        deleted += 1;
                    }
                    if i % 16 == 0 {
                        // Force a Ripple merge of the queue while queries
                        // and refiners hold the structure lock.
                        col.merge_pending();
                    }
                }
                400i64 - deleted
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    // Final accounting: the high range holds exactly the net inserts, the
    // full range base + net inserts; every cracking invariant still holds.
    let high = QuerySpec {
        attr: 0,
        lo: INSERT_LO,
        hi: INSERT_HI,
    };
    assert_eq!(engine.execute(&high), net_inserted as u64);
    let full = QuerySpec {
        attr: 0,
        lo: 0,
        hi: INSERT_HI,
    };
    assert_eq!(engine.execute(&full), (N as i64 + net_inserted) as u64);
    engine.stop();
    col.check_invariants(None);
}
