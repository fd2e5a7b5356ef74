//! Multi-client drivers (§5.8 "Varying Number of Clients").
//!
//! [`run_clients`] supersedes the old `holix_engine::session::run_clients`
//! round-robin harness: queries are dealt round-robin to `clients`
//! closed-loop sessions of a [`QueryService`] whose dispatcher pool matches
//! the client count, so concurrency semantics are unchanged while every
//! query flows through admission control and the scheduler.

use crate::batcher::Scheduling;
use crate::dispatcher::{QueryService, ServiceConfig};
use holix_engine::api::QueryEngine;
use holix_workloads::QuerySpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-client outcome.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Client index.
    pub client: usize,
    /// Queries the client executed.
    pub queries: usize,
    /// Sum of the client's per-query end-to-end latencies.
    pub busy_time: Duration,
}

/// Runs `queries` round-robin across `clients` concurrent closed-loop
/// sessions; returns total wall time and per-client reports.
pub fn run_clients(
    engine: Arc<dyn QueryEngine>,
    queries: &[QuerySpec],
    clients: usize,
) -> (Duration, Vec<ClientReport>) {
    let clients = clients.max(1);
    let service = QueryService::start(
        engine,
        None,
        ServiceConfig {
            workers: clients,
            queue_capacity: clients.max(4),
            scheduling: Scheduling::Fifo,
            // One query per dispatcher pass keeps the engine-level
            // concurrency identical to the old round-robin harness (every
            // in-flight query on its own thread).
            batch_max: 1,
            contexts_per_worker: 1,
            affinity: false,
            ..ServiceConfig::default()
        },
    );
    let t0 = Instant::now();
    let reports = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let my_queries: Vec<QuerySpec> =
                    queries.iter().skip(c).step_by(clients).copied().collect();
                let session = service.session();
                s.spawn(move || {
                    let mut busy = Duration::ZERO;
                    for q in &my_queries {
                        let result = session.execute(*q).expect("closed-loop submit failed");
                        busy += result.latency;
                    }
                    ClientReport {
                        client: c,
                        queries: my_queries.len(),
                        busy_time: busy,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect::<Vec<_>>()
    });
    let wall = t0.elapsed();
    service.shutdown();
    (wall, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_engine::api::Dataset;
    use holix_engine::{AdaptiveEngine, CrackMode};
    use holix_workloads::data::uniform_table;
    use holix_workloads::WorkloadSpec;

    #[test]
    fn clients_split_the_workload() {
        let data = Dataset::new(uniform_table(2, 50_000, 100_000, 1));
        let engine: Arc<dyn QueryEngine> =
            Arc::new(AdaptiveEngine::new(data, CrackMode::Sequential));
        let queries = WorkloadSpec::random(2, 64, 100_000, 2).generate();
        let (wall, reports) = run_clients(engine, &queries, 4);
        assert!(wall > Duration::ZERO);
        assert_eq!(reports.len(), 4);
        assert_eq!(reports.iter().map(|r| r.queries).sum::<usize>(), 64);
        assert!(reports.iter().all(|r| r.queries == 16));
    }

    #[test]
    fn concurrent_clients_get_correct_counts() {
        let data = Dataset::new(uniform_table(1, 50_000, 1_000, 3));
        let base: Vec<i64> = data.column(0).to_vec();
        let engine: Arc<dyn QueryEngine> =
            Arc::new(AdaptiveEngine::new(data, CrackMode::Sequential));
        let expect = base.iter().filter(|&&v| (100..300).contains(&v)).count() as u64;
        let queries: Vec<QuerySpec> = (0..32)
            .map(|_| QuerySpec {
                attr: 0,
                lo: 100,
                hi: 300,
            })
            .collect();
        let (_, reports) = run_clients(Arc::clone(&engine), &queries, 4);
        assert_eq!(reports.iter().map(|r| r.queries).sum::<usize>(), 32);
        for scheduling in [Scheduling::Fifo, Scheduling::CrackAware] {
            // Every answer on the *concurrent* path must equal the scan
            // oracle — four racing sessions, identical predicates, so
            // crack-aware batches of duplicates run under contention too.
            let service = QueryService::start(
                Arc::clone(&engine),
                None,
                ServiceConfig {
                    workers: 4,
                    scheduling,
                    ..ServiceConfig::default()
                },
            );
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let session = service.session();
                    let queries = &queries;
                    s.spawn(move || {
                        for q in queries {
                            assert_eq!(session.execute(*q).unwrap().count, expect);
                        }
                    });
                }
            });
            service.shutdown();
        }
    }
}
