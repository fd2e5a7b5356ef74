//! Serve a holistic engine to a fleet of concurrent client sessions.
//!
//! Demonstrates the `holix-server` layer end-to-end: per-worker admission
//! queues with shard-affine routing over a 4-shard holistic engine,
//! crack-aware batching (per-column grouping, bound ordering and pricing),
//! exact hits answered at submit, and the holistic daemon reacting to the
//! service's load through the shared accountant.
//!
//! ```bash
//! cargo run --release --example service_demo
//! ```

use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::server::{DecomposePolicy, QueryService, Scheduling, ServiceConfig};
use holix::workloads::data::uniform_table;
use holix::workloads::TrafficSpec;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let attrs = 4;
    let rows = 400_000;
    let domain = 1 << 20;
    let clients = 12;
    let queries_per_client = 300;

    println!("== holix service demo ==");
    println!("{attrs} attrs x {rows} rows; {clients} closed-loop client sessions");

    let data = Dataset::new(uniform_table(attrs, rows, domain, 99));
    let monitor_interval = Duration::from_millis(2);
    // Four range shards per attribute: each shard is its own cracker
    // column, so the shard-affine dispatchers below never contend.
    let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
    cfg.holistic.monitor_interval = monitor_interval;
    let engine = Arc::new(HolisticEngine::new(data, cfg));

    // Idle phase before any client arrives: the daemon refines speculative
    // indices at full worker strength (Fig 9).
    engine.add_potential(&[0, 1, 2, 3]);
    std::thread::sleep(Duration::from_millis(60));
    let idle_cycles = engine.cycles();
    let idle_workers = idle_cycles.iter().map(|c| c.workers).max().unwrap_or(0);

    let service = QueryService::start(
        Arc::clone(&engine) as Arc<dyn QueryEngine>,
        Some(Arc::clone(engine.accountant())),
        ServiceConfig {
            workers: 2,
            queue_capacity: clients * 2,
            scheduling: Scheduling::CrackAware,
            batch_max: 32,
            contexts_per_worker: 1,
            affinity: true,
            // Decompose expensive shard-spanning ranges onto their pinned
            // workers (merged under one ticket) when the plan prices them.
            decompose: DecomposePolicy::CostBased,
            ..ServiceConfig::default()
        },
    );

    // A skewed fleet: hot regions shared fleet-wide, rotated per client.
    let traffic = TrafficSpec::saturating(clients, queries_per_client, attrs, domain, 4242);
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let stream = traffic.client_stream(c);
            let session = service.session();
            s.spawn(move || {
                for &q in &stream {
                    let result = session.execute(q).expect("submit failed");
                    std::hint::black_box(result.count);
                }
            });
        }
    });

    let run_wall = t0.elapsed();
    let cycles = engine.stop();
    // Workers per monitor tick while the service was loaded (unrecorded
    // ticks activated zero workers; a stray cycle from the spawn gap is
    // averaged out rather than reported as the maximum).
    let run_worker_sum: usize = cycles
        .iter()
        .skip(idle_cycles.len())
        .map(|c| c.workers)
        .sum();
    let run_ticks = (run_wall.as_secs_f64() / monitor_interval.as_secs_f64()).max(1.0);
    let run_workers = run_worker_sum as f64 / run_ticks;
    let refinements: u64 = cycles.iter().map(|c| c.refinements).sum();
    let summary = service.shutdown();

    println!(
        "completed {} queries ({} engine executions, {} answered at submit), 0 rejected",
        summary.completed, summary.executed, summary.screened_inline
    );
    println!(
        "sustained {:.0} QPS | latency p50 {:?} p95 {:?} p99 {:?}",
        summary.qps, summary.p50, summary.p95, summary.p99
    );
    println!(
        "holistic daemon: {} tuning cycles, {} refinements; \
         {idle_workers} workers/cycle while idle -> {run_workers:.2} avg under service load",
        cycles.len(),
        refinements,
    );
    assert_eq!(
        summary.completed as usize,
        clients * queries_per_client,
        "every submitted query must be answered"
    );
    println!("OK");
}
