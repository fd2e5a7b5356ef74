//! Watch a live holix service through the telemetry layer.
//!
//! Runs a small holistic engine behind the query service with metrics and
//! per-query tracing enabled, then prints one Prometheus-style text
//! exposition of the process-wide registry — counters, gauges and latency
//! histograms from all four instrumented layers (cracking, planner,
//! engine, server) — followed by the most recent per-query lifecycle
//! traces from the lock-free trace ring.
//!
//! ```bash
//! cargo run --release --example telemetry_demo
//! # equivalently, from a shell: HOLIX_METRICS=1 HOLIX_TRACE=1 <service>
//! ```

use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::server::{QueryService, Scheduling, ServiceConfig};
use holix::workloads::data::uniform_table;
use holix::workloads::TrafficSpec;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Programmatic equivalents of HOLIX_METRICS=1 / HOLIX_TRACE=1.
    holix::telemetry::set_metrics_enabled(true);
    holix::telemetry::set_trace_enabled(true);

    let attrs = 2;
    let rows = 200_000;
    let domain = 1 << 20;
    let clients = 6;
    let queries_per_client = 200;

    println!("== holix telemetry demo ==");
    println!("{attrs} attrs x {rows} rows; {clients} closed-loop client sessions\n");

    let data = Dataset::new(uniform_table(attrs, rows, domain, 7331));
    let mut cfg = HolisticEngineConfig::split_half_sharded(4, 2);
    cfg.holistic.monitor_interval = Duration::from_millis(2);
    let engine = Arc::new(HolisticEngine::new(data, cfg));
    engine.add_potential(&[0, 1]);

    let service = QueryService::start(
        Arc::clone(&engine) as Arc<dyn QueryEngine>,
        Some(Arc::clone(engine.accountant())),
        ServiceConfig {
            workers: 2,
            scheduling: Scheduling::CrackAware,
            // Calibration feeds the planner's residual channels.
            calibration: true,
            ..ServiceConfig::default()
        },
    );

    let traffic = TrafficSpec::saturating(clients, queries_per_client, attrs, domain, 777);
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
    let summary = service.shutdown();
    engine.stop();

    // One text exposition of everything the process recorded.
    let exposition = holix::telemetry::registry().expose();
    println!("--- registry exposition ---");
    print!("{exposition}");

    println!("\n--- last per-query lifecycle traces ---");
    for t in holix::telemetry::registry().trace().recent(5) {
        println!(
            "#{} attr={} admit={:?} wait={}ns batch={} route={:?} \
             plan_v{} predicted={}ns actual={}ns residual={}ns",
            t.seq,
            t.attr,
            t.admit,
            t.queue_wait_ns,
            t.batch_len,
            t.route,
            t.plan_version,
            t.predicted_ns,
            t.actual_ns,
            t.residual_ns(),
        );
    }

    for layer in ["cracking_", "planner_", "engine_", "server_"] {
        assert!(
            exposition.lines().any(|l| l.starts_with(layer)),
            "exposition is missing the `{layer}` layer"
        );
    }
    assert_eq!(summary.completed as usize, clients * queries_per_client);
    println!(
        "\nserved {} queries at {:.0} QPS; exposition carries all four layers; \
         {} lifecycle records in the ring",
        summary.completed,
        summary.qps,
        holix::telemetry::registry().trace().recorded()
    );
    println!("OK");
}
