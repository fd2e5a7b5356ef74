//! Concurrency stress: many clients and the tuning daemon hammer the same
//! engine; every answer must still match the scan oracle and every cracking
//! invariant must hold afterwards. Debug builds additionally run the
//! `RangeCell` overlap detector through all of this.

use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::server::run_clients;
use holix::storage::select::{scan_stats, Predicate};
use holix::workloads::data::uniform_table;
use holix::workloads::{QuerySpec, WorkloadSpec};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn multi_client_holistic_stress_returns_correct_counts() {
    let attrs = 3;
    let rows = 80_000;
    let domain = 1 << 20;
    let data = Dataset::new(uniform_table(attrs, rows, domain, 41));
    let mut cfg = HolisticEngineConfig::split_half(4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let engine = HolisticEngine::new(data.clone(), cfg);

    let queries = WorkloadSpec::random(attrs, 240, domain, 410).generate();
    // Pre-compute oracles, then let 4 clients race the daemon.
    let oracles: Vec<u64> = queries
        .iter()
        .map(|q| scan_stats(data.column(q.attr), Predicate::range(q.lo, q.hi)).count)
        .collect();

    crossbeam::thread::scope(|s| {
        for c in 0..4usize {
            let engine = &engine;
            let queries = &queries;
            let oracles = &oracles;
            s.spawn(move |_| {
                for (i, q) in queries.iter().enumerate().skip(c).step_by(4) {
                    assert_eq!(engine.execute(q), oracles[i], "client {c} query {i}");
                }
            });
        }
    })
    .unwrap();
    engine.stop();

    // Invariants on the final cracked state.
    for attr in 0..attrs {
        let col = engine.column(attr);
        col.check_invariants(Some(data.column(attr)));
    }
}

#[test]
fn session_driver_with_many_clients_and_verification_queries() {
    let data = Dataset::new(uniform_table(2, 60_000, 100_000, 42));
    let mut cfg = HolisticEngineConfig::split_half(6);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let engine = Arc::new(HolisticEngine::new(data.clone(), cfg));
    let queries = WorkloadSpec::random(2, 120, 100_000, 420).generate();

    let (wall, reports) = run_clients(Arc::clone(&engine) as Arc<dyn QueryEngine>, &queries, 6);
    assert!(wall > Duration::ZERO);
    assert_eq!(reports.iter().map(|r| r.queries).sum::<usize>(), 120);

    // After the stress, verified execution still matches the oracle.
    for q in queries.iter().take(20) {
        let oracle = scan_stats(data.column(q.attr), Predicate::range(q.lo, q.hi));
        assert_eq!(engine.execute_verified(q), (oracle.count, oracle.sum));
    }
    engine.stop();
}

#[test]
fn same_hot_range_from_all_clients() {
    // All clients repeatedly hit one range: maximal latch contention on the
    // same pieces plus daemon refinement on the rest of the domain.
    let data = Dataset::new(uniform_table(1, 100_000, 1 << 20, 43));
    let mut cfg = HolisticEngineConfig::split_half(4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let engine = HolisticEngine::new(data.clone(), cfg);
    let expect = scan_stats(data.column(0), Predicate::range(100_000, 400_000)).count;

    crossbeam::thread::scope(|s| {
        for _ in 0..6 {
            let engine = &engine;
            s.spawn(move |_| {
                for _ in 0..50 {
                    let q = QuerySpec {
                        attr: 0,
                        lo: 100_000,
                        hi: 400_000,
                    };
                    assert_eq!(engine.execute(&q), expect);
                }
            });
        }
    })
    .unwrap();
    engine.stop();
    let col = engine.column(0);
    col.check_invariants(Some(data.column(0)));
}
