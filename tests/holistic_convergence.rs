//! End-to-end behaviour of the holistic tuning layer: convergence to
//! C_optimal, monotone piece growth, strategy behaviour, and the accounting
//! loop between engine load and worker activation.

use holix::core::index_space::{IndexSpace, Membership};
use holix::core::{CpuMonitor, HolisticConfig, HolisticDaemon, LoadAccountant, Strategy};
use holix::cracking::CrackerColumn;
use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::workloads::data::uniform_table;
use holix::workloads::WorkloadSpec;
use std::sync::Arc;
use std::time::Duration;

/// How long a test holds external load before it creates the first index:
/// fifty of the 1-ms sampling windows the tests configure, so the window
/// the daemon opened before the load closes while nothing is refinable.
const HOLD_BEFORE_INDEXING: Duration = Duration::from_millis(50);

fn fast_config(strategy: Strategy) -> HolisticConfig {
    HolisticConfig {
        monitor_interval: Duration::from_millis(1),
        strategy,
        ..HolisticConfig::default()
    }
}

#[test]
fn daemon_converges_every_strategy_to_optimal() {
    for strategy in Strategy::ALL {
        let space = Arc::new(IndexSpace::new(fast_config(strategy)));
        let handles = (0..3)
            .map(|c| {
                let base: Vec<i64> = (0..60_000).map(|i| (i * 37) % 100_000).collect();
                let col = CrackerColumn::from_base(format!("c{c}"), &base);
                Arc::new(col) as _
            })
            .collect();
        let slots = space.register(handles, Membership::Actual);
        let monitor = LoadAccountant::new(4);
        let daemon = HolisticDaemon::spawn(
            Arc::clone(&space),
            monitor as Arc<dyn CpuMonitor>,
            fast_config(strategy),
        );
        // Wait (bounded) for convergence.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let (_, _, optimal, _) = space.membership_counts();
            if optimal == 3 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{strategy}: stuck at {:?}",
                space.membership_counts()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon.stop();
        // Optimal means avg piece ≤ |L1| for every index.
        for slot in &slots {
            assert_eq!(slot.membership(), Membership::Optimal, "{strategy}");
        }
    }
}

#[test]
fn holistic_creates_more_pieces_than_adaptive_for_same_queries() {
    let data = Dataset::new(uniform_table(4, 100_000, 1 << 20, 31));
    let queries = WorkloadSpec::random(4, 80, 1 << 20, 310).generate();

    let adaptive = holix::engine::AdaptiveEngine::new(
        data.clone(),
        holix::engine::CrackMode::Pvdc { threads: 2 },
    );
    for q in &queries {
        adaptive.execute(q);
    }

    let mut cfg = HolisticEngineConfig::split_half(4);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let holistic = HolisticEngine::new(data, cfg);
    for q in &queries {
        holistic.execute(q);
        // Give the daemon room to interleave, as real queries would.
        if holistic.total_pieces().is_multiple_of(7) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    // Bounded wait: the daemon must eventually push holistic past the
    // query-driven piece count.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while holistic.total_pieces() <= adaptive.total_pieces() {
        assert!(
            std::time::Instant::now() < deadline,
            "holistic {} <= adaptive {}",
            holistic.total_pieces(),
            adaptive.total_pieces()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    holistic.stop();
}

#[test]
fn saturated_engine_never_activates_workers() {
    let data = Dataset::new(uniform_table(2, 50_000, 1 << 20, 32));
    let mut cfg = HolisticEngineConfig::split_half(2);
    cfg.user_threads = 2; // every query occupies all contexts
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    let engine = HolisticEngine::new(data, cfg);

    // Hold external load so the accountant reports zero idle contexts,
    // for whole sampling windows before any index exists: the window the
    // daemon opened before the guard reads part of the load, but it closes
    // while there is nothing to refine, so no cycle starts on it.
    let _external = engine.accountant().begin_task(2);
    std::thread::sleep(HOLD_BEFORE_INDEXING);
    let queries = WorkloadSpec::random(2, 30, 1 << 20, 320).generate();
    for q in &queries {
        engine.execute(q);
    }
    std::thread::sleep(Duration::from_millis(50));
    let cycles = engine.stop();
    assert!(
        cycles.is_empty(),
        "workers activated under saturation: {cycles:?}"
    );
}

#[test]
fn exact_hit_statistics_accumulate() {
    let data = Dataset::new(uniform_table(1, 50_000, 1 << 20, 33));
    let mut cfg = HolisticEngineConfig::split_half(4);
    cfg.holistic.monitor_interval = Duration::from_millis(500); // daemon mostly quiet
    let engine = HolisticEngine::new(data, cfg);
    let q = holix::workloads::QuerySpec {
        attr: 0,
        lo: 1_000,
        hi: 2_000,
    };
    for _ in 0..5 {
        engine.execute(&q);
    }
    let col = engine.sharded(0);
    let stats = col.resident(0).expect("built above").1.stats();
    assert_eq!(stats.queries(), 5);
    // First execution cracks, the other four are exact hits.
    assert_eq!(stats.exact_hits(), 4);
    engine.stop();
}

#[test]
fn cycle_records_capture_worker_activity() {
    // The timing *shape* of Fig 6(d) (early cycles expensive, late cycles
    // cheap) is regenerated by `fig06d_workers`; wall-clock assertions are
    // too flaky under test-runner contention, so this test checks the
    // structural properties of the records. Column size keeps the early
    // (first-crack) cycles short enough in debug builds
    // that several cycles start inside the idle window below even on one
    // core.
    //
    // The accountant reports `total − round(mean busy over its window)`,
    // so a window that covers part of a load change reads in between.
    // Each engine here holds one load state over every window that can
    // start a cycle: `sharded` builds and registers an attribute's indices
    // without registering load, and external load is taken for whole
    // windows before the first index exists and held until the daemon
    // stops.
    for (held, workers) in [(0, 4), (2, 2)] {
        let data = Dataset::new(uniform_table(4, 100_000, 1 << 20, 34));
        let mut cfg = HolisticEngineConfig::split_half(4);
        cfg.holistic.monitor_interval = Duration::from_millis(1);
        // Pieces converge at 512 values, so the daemon has a few hundred
        // refinements of work per column: more than two cycles' worth.
        cfg.holistic.l1_bytes = 4 * 1024;
        let engine = HolisticEngine::new(data, cfg);
        let _external = (held > 0).then(|| {
            let guard = engine.accountant().begin_task(held);
            std::thread::sleep(HOLD_BEFORE_INDEXING);
            guard
        });
        // Create the indices, then idle so the daemon works alone.
        for attr in 0..4 {
            engine.sharded(attr);
        }
        // Idle for 300 ms, and (bounded) until three cycles have run: the
        // first ones crack whole columns and take long on a busy runner.
        std::thread::sleep(Duration::from_millis(300));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.cycles().len() < 3 {
            assert!(std::time::Instant::now() < deadline, "too few cycles");
            std::thread::sleep(Duration::from_millis(10));
        }
        let cycles = engine.stop();
        let total_refinements: u64 = cycles.iter().map(|c| c.refinements).sum();
        assert!(total_refinements > 0);
        for (i, c) in cycles.iter().enumerate() {
            // Every context the external load leaves idle gets a worker.
            assert_eq!(c.workers, workers, "cycle {i}, {held} contexts held");
            assert!(c.wall <= c.worker_time_total.max(c.wall), "cycle {i}");
            assert!(
                c.refinements > 0 || c.busy > 0 || c.worker_time_total > Duration::ZERO,
                "empty cycle {i} recorded"
            );
        }
    }
}
