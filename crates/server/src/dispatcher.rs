//! The query service: admission queue(s) + dispatcher worker pool.
//!
//! [`QueryService`] accepts queries from any number of concurrent
//! [`Session`]s, blocks them at the bounded queue when it is full, and runs a
//! small pool of dispatcher threads. Each dispatcher drains a batch,
//! reorders it per the configured [`Scheduling`], and executes it against
//! the shared [`QueryEngine`]. While a dispatcher is busy it holds a
//! [`LoadAccountant`] task guard, so the holistic daemon sees the service's
//! true load and yields hardware contexts under pressure (§5.8: workers
//! scale down as client load rises). Engine-internal guards (the holistic
//! engine registers each query's crack gang) stack on top — over-counting
//! saturates toward "no idle contexts", which is exactly the conservative
//! signal wanted while the service is loaded.
//!
//! ## Exact hits skip the queue
//!
//! A read the index has already answered — both bounds are cracker
//! boundaries (the paper's `f_Ih` hit; updates pending in range are
//! counted from a queue within its merge backlog, and a queue past it
//! sends the read to a dispatcher, whose select drains it), or a point
//! probe the published filter screens
//! out — is answered by [`Session::submit`] on the calling thread through
//! [`QueryEngine::execute_exact`], and its ticket is complete when `submit`
//! returns. It cracks and merges nothing, so a dispatcher has nothing to
//! batch, order or price: the queue hop and hand-off were most of such a
//! query's latency. Every other query queues. The engine folds the pending
//! queue under the same lock a locked read folds it under, so an inline
//! answer is ordered against Ripple writers as a locked read is.
//!
//! ## Shard-affine dispatch
//!
//! With [`ServiceConfig::affinity`] the service runs one admission queue
//! *per worker* and routes each submission by the engine's
//! [`QueryEngine::routing_key`] — for a sharded engine, the `(attribute,
//! shard)` its predicate's *lower bound* lands in. Every key is pinned to
//! one dispatcher, so for queries confined to their home shard (the
//! dominant narrow-window traffic) no two workers latch the same shard,
//! and batches arrive pre-grouped per shard. A predicate *spanning*
//! shards still fans out to neighbours from its home worker — the shard
//! columns' own latching keeps that correct; pinning is a contention
//! optimisation, never a safety invariant.
//!
//! ## Plan-aware decisions (holix-planner)
//!
//! Three decisions consult the engine's plan-time cost estimates
//! ([`QueryEngine::estimate_cost`] — two lookups in each touched shard's
//! live cracker index, under its index read lock, and its queue length):
//!
//! - **Spanning-query decomposition** (`decompose` + affinity): a range
//!   spanning shards that the model prices [`QueryPrice::Expensive`] is
//!   cut at the shard plan's boundaries; each per-shard sub-query routes
//!   to its pinned worker's queue and a merge ticket folds the counts —
//!   wide scans never break shard/worker affinity.
//! - **Batch order**: a crack-aware batch drains exact hits and screened
//!   probes ahead of expensive cold cracks.
//! - **Snapshot/locked cutover**: the dispatcher routes a whole read-only
//!   query through [`QueryEngine::execute_snapshot`] exactly when the
//!   model prices it below the locked crack (both pay the same edge
//!   pieces, so: when the locked read would first merge a backlog).
//!
//! All three price against the *calibrated* model: the service shares one
//! [`Calibrator`] seeded from [`ServiceConfig::cost`], and with
//! [`ServiceConfig::calibration`] each dispatcher feeds its plain-path
//! service times back so the knobs track the actual machine (inside
//! `[seed/4, seed*4]` guard rails).
//!
//! **Where a price is computed, and how long it is trusted.** An exact hit
//! answered at submit is never priced. Otherwise a session prices a
//! submission only where it decides something (a spanning range under
//! `CostBased`); the common submission is never priced. A
//! dispatcher prices a crack-aware batch once, while ordering it
//! ([`order_batch`]): one estimate per *distinct* predicate, exact-hits
//! and screened probes draining ahead of expensive cold cracks. That price
//! is trusted until the query executes and serves the cutover, the
//! calibrator observation and the trace record alike — with one exception:
//! a price that promised cracking (neither an exact hit nor screened) is
//! read again just before the query executes, because an earlier member of
//! the same batch may have cracked the very piece and the calibrator must
//! not learn from `crack_values` the execution never paid. An exact hit
//! cannot go stale that way: boundaries are never removed. A FIFO batch is
//! not ordered, so its queries arrive unpriced and are priced exactly when
//! the cutover, the calibrator or the trace reads the price — a
//! cost-blind, untraced bed prices nothing.
//!
//! Every queued query executes once: the batch is an order, never a
//! shared answer.

use crate::batcher::{order_batch, Scheduling};
use crate::queue::{AdmissionPolicy, BoundedQueue, SubmitError};
use crate::session::{MergeState, QueryResult, SessionHandle, SessionRegistry, Ticket};
use crate::stats::{ServiceStats, StatsSummary};
use holix_core::cpu::LoadAccountant;
use holix_engine::api::{ExactAnswer, QueryEngine};
use holix_planner::{Calibrator, CostModel, PlanCost, QueryPrice, Route};
use holix_telemetry::{AdmitOutcome, QueryTrace, TraceRoute};
use holix_workloads::QuerySpec;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Dispatcher threads executing queries.
    pub workers: usize,
    /// Admission-queue depth (per queue; affinity mode runs one queue per
    /// worker).
    pub queue_capacity: usize,
    /// Full-queue behaviour: the submitting client blocks.
    pub admission: AdmissionPolicy,
    /// Batch ordering policy.
    pub scheduling: Scheduling,
    /// Most queries one dispatcher drains per batch.
    pub batch_max: usize,
    /// Hardware contexts each busy dispatcher registers with the load
    /// accountant.
    pub contexts_per_worker: usize,
    /// Shard-affine dispatch: one queue per worker, submissions routed by
    /// [`QueryEngine::routing_key`] so queries confined to their home
    /// attribute shard are only ever executed by that shard's pinned
    /// worker (shard-spanning queries still fan out under the shards' own
    /// latches).
    pub affinity: bool,
    /// Spanning-query decomposition policy: when to cut multi-shard
    /// ranges into per-shard sub-queries completed under one merge
    /// ticket. Only effective with `affinity` (parts must route to
    /// distinct pinned workers to buy anything).
    pub decompose: DecomposePolicy,
    /// Snapshot/locked cost cutover: the dispatcher consults the plan per
    /// executed query and routes read-only queries through
    /// [`QueryEngine::execute_snapshot`] when the snapshot read beats the
    /// locked crack (under Ripple backlog).
    /// Disable for cost-blind baseline beds — the per-query estimate is
    /// then skipped entirely.
    pub cutover: bool,
    /// Cost-model constants for plan-priced decisions (decomposition,
    /// batch order and the snapshot/locked cutover). With
    /// [`ServiceConfig::calibration`] these are the *seed* the online
    /// calibrator's guard rails anchor to.
    pub cost: CostModel,
    /// Online cost-model calibration: dispatchers feed each plain-path
    /// execution's measured service time back into a shared
    /// [`Calibrator`], which regresses observed ns-per-value and
    /// ns-per-merge rates and republishes nudged `cost` knobs inside
    /// `[seed/4, seed*4]` guard rails. All plan-priced decisions
    /// (decomposition, cutover, batch pricing) then read the calibrated
    /// model. Off by default: the seeded constants stand.
    pub calibration: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 256,
            admission: AdmissionPolicy::Block,
            scheduling: Scheduling::CrackAware,
            batch_max: 64,
            contexts_per_worker: 1,
            affinity: false,
            decompose: DecomposePolicy::Off,
            cutover: true,
            cost: CostModel::default(),
            calibration: false,
        }
    }
}

/// When the session decomposes a shard-spanning range into per-shard
/// parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecomposePolicy {
    /// Never decompose: a spanning range executes whole on its home
    /// worker (fanning out under the shards' own latches).
    #[default]
    Off,
    /// Consult the plan: decompose exactly the spanning queries the cost
    /// model prices [`QueryPrice::Expensive`] — there is real per-shard
    /// work to parallelise. Cheap (exact-hit) spans run whole: splitting
    /// them buys nothing and pays two queue hops.
    CostBased,
}

/// Where one queued query's answer goes.
enum Sink {
    /// A client ticket (the common case).
    Direct(Ticket),
    /// One per-shard part of a decomposed spanning query.
    Part(Arc<MergeState>),
}

impl Sink {
    /// Delivers one count. A direct sink completes its ticket and records
    /// the completion; a part sink folds into the merge, recording the
    /// parent's single completion when the last part lands.
    fn complete(&self, stats: &ServiceStats, enqueued: Instant, count: u64, service: Duration) {
        match self {
            Sink::Direct(ticket) => {
                let latency = enqueued.elapsed();
                ticket.state.complete(QueryResult {
                    count,
                    latency,
                    service_time: service,
                });
                stats.record_completed(latency);
            }
            Sink::Part(merge) => {
                if let Some(latency) = merge.complete_part(count, service) {
                    stats.record_completed(latency);
                }
            }
        }
    }
}

/// One queued query: spec, completion sink, submission timestamp.
struct QueuedQuery {
    spec: QuerySpec,
    sink: Sink,
    enqueued: Instant,
}

/// What the service, its sessions and its dispatcher threads all read,
/// behind one `Arc`.
struct Shared {
    /// One queue in shared mode; one per worker in affinity mode.
    queues: Vec<BoundedQueue<QueuedQuery>>,
    /// Set by shutdown (and drop) before the queues close: the inline path
    /// has no queue to refuse it. Publishes no data, so `Relaxed`.
    closed: AtomicBool,
    engine: Arc<dyn QueryEngine>,
    stats: ServiceStats,
    /// Seeded from `config.cost`; when calibration is off nothing ever
    /// observes, so `model()` is exactly the seed and behaviour matches
    /// the fixed-constant service.
    calibrator: Calibrator,
    accountant: Option<Arc<LoadAccountant>>,
    config: ServiceConfig,
}

impl Shared {
    fn new(
        engine: Arc<dyn QueryEngine>,
        accountant: Option<Arc<LoadAccountant>>,
        config: ServiceConfig,
    ) -> Self {
        let queue_count = if config.affinity {
            config.workers.max(1)
        } else {
            1
        };
        Shared {
            queues: (0..queue_count)
                .map(|_| BoundedQueue::new(config.queue_capacity))
                .collect(),
            closed: AtomicBool::new(false),
            engine,
            stats: ServiceStats::new(),
            calibrator: Calibrator::new(config.cost),
            accountant,
            config,
        }
    }

    /// Plan-time price of `spec` under the calibrated model (`None`: the
    /// engine keeps no plan statistics).
    fn price(&self, spec: &QuerySpec) -> Option<QueryPrice> {
        let cost = self.engine.estimate_cost(spec)?;
        Some(cost.price(&self.calibrator.model()))
    }

    /// The one place a lifecycle record is assembled. `cost` is the price
    /// the execution was decided on (`None` on a cost-blind path: the
    /// prediction and work columns read 0) and the predicted time is for
    /// the path `route` names. The record is that of a query nobody
    /// batched — the dispatcher fills in the queue wait and batch length.
    fn trace(
        &self,
        spec: &QuerySpec,
        admit: AdmitOutcome,
        route: TraceRoute,
        cost: Option<&PlanCost>,
        service: Duration,
    ) -> QueryTrace {
        let taken = match route {
            TraceRoute::Snapshot => Route::Snapshot,
            TraceRoute::Locked | TraceRoute::Screened => Route::Locked,
        };
        QueryTrace {
            seq: 0,
            attr: spec.attr as u32,
            admit,
            queue_wait_ns: 0,
            batch_len: 1,
            route,
            plan_version: self.engine.plan_version(spec),
            predicted_ns: cost.map_or(0, |c| self.calibrator.predicted_ns(c, taken)),
            actual_ns: service.as_nanos() as u64,
            crack_values: cost.map_or(0, |c| c.crack_values),
        }
    }
}

/// A running query service over one engine.
pub struct QueryService {
    shared: Arc<Shared>,
    registry: Arc<SessionRegistry>,
    workers: Vec<std::thread::JoinHandle<()>>,
    started: Instant,
}

impl QueryService {
    /// Starts the dispatcher pool. When `accountant` is given, busy
    /// dispatchers register their thread usage so a holistic daemon
    /// watching the same accountant scales its workers down under load.
    pub fn start(
        engine: Arc<dyn QueryEngine>,
        accountant: Option<Arc<LoadAccountant>>,
        config: ServiceConfig,
    ) -> Self {
        let shared = Arc::new(Shared::new(engine, accountant, config));
        let workers = (0..shared.config.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("holix-dispatch-{w}"))
                    .spawn(move || dispatch_loop(&shared, &shared.queues[w % shared.queues.len()]))
                    .expect("failed to spawn dispatcher")
            })
            .collect();
        QueryService {
            shared,
            registry: Arc::new(SessionRegistry::new()),
            workers,
            started: Instant::now(),
        }
    }

    /// Opens a client session.
    pub fn session(&self) -> Session {
        Session {
            shared: Arc::clone(&self.shared),
            handle: self.registry.open(),
        }
    }

    /// The session registry (connection accounting).
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// The shared cost-model calibrator (its `model()` is the seed until
    /// [`ServiceConfig::calibration`] feeds it observations).
    pub fn calibrator(&self) -> &Calibrator {
        &self.shared.calibrator
    }

    /// Queries currently waiting for a dispatcher (summed over queues).
    pub fn queue_depth(&self) -> usize {
        self.shared.queues.iter().map(|q| q.len()).sum()
    }

    /// Metrics snapshot over the service's lifetime so far.
    pub fn stats(&self) -> StatsSummary {
        self.shared.stats.summary(self.started.elapsed())
    }

    /// Starts a fresh measurement window: every counter rebases and the
    /// latency reservoir clears (see [`ServiceStats::reset_window`]) —
    /// harnesses call this per interleaved rep so per-bed comparisons are
    /// never cumulative.
    pub fn reset_window(&self) {
        self.shared.stats.reset_window();
    }

    /// Stops admission, drains every queued query, joins the dispatchers
    /// and returns the final metrics. Every ticket issued before shutdown
    /// is completed.
    pub fn shutdown(mut self) -> StatsSummary {
        self.shared.closed.store(true, Ordering::Relaxed);
        for q in &self.shared.queues {
            q.close();
        }
        for w in self.workers.drain(..) {
            w.join().expect("dispatcher panicked");
        }
        self.shared.stats.summary(self.started.elapsed())
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Relaxed);
        for q in &self.shared.queues {
            q.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A client's connection to the service. Cheap to create, `Send`, and safe
/// to use from its own thread.
pub struct Session {
    shared: Arc<Shared>,
    handle: SessionHandle,
}

impl Session {
    /// This session's id.
    pub fn id(&self) -> u64 {
        self.handle.id()
    }

    /// Submits a query; returns a ticket to wait on. An exact hit is
    /// answered here and its ticket is already complete (module header).
    /// A full queue blocks the caller until a dispatcher drains; fails
    /// only when the service is shutting down. In affinity mode the query
    /// routes to the worker pinned to its attribute shard; with
    /// decomposition, a shard-spanning range the model prices Expensive is
    /// cut into per-shard sub-queries, each on its pinned worker's queue,
    /// completed under one merge ticket.
    pub fn submit(&self, spec: QuerySpec) -> Result<Ticket, SubmitError> {
        let shared = &*self.shared;
        if shared.closed.load(Ordering::Relaxed) {
            return Err(SubmitError::Closed);
        }
        // Before the spanning check: an exact hit is never Expensive, so
        // it would not have been decomposed anyway.
        let t0 = Instant::now();
        if let Some(answer) = shared.engine.execute_exact(&spec) {
            return Ok(self.answered_inline(&spec, answer, t0));
        }
        // Spanning check first (two partition-point lookups on the
        // immutable shard plan), cost estimate only for ranges that
        // actually span — narrow traffic must not pay plan pricing twice.
        // Only Expensive spans carry enough per-shard work to pay for the
        // merge ticket.
        if shared.queues.len() > 1 && shared.config.decompose == DecomposePolicy::CostBased {
            if let Some(parts) = shared.engine.decompose(&spec) {
                if shared.price(&spec) == Some(QueryPrice::Expensive) {
                    return Ok(self.submit_decomposed(parts));
                }
            }
        }
        let ticket = Ticket::new();
        self.submit_part(spec, Sink::Direct(ticket.clone()))?;
        shared.stats.record_submitted();
        Ok(ticket)
    }

    /// Completes an exact hit the engine answered on this thread: counted
    /// as submitted, executed and completed like a queued query, with no
    /// queue wait and no batch.
    fn answered_inline(&self, spec: &QuerySpec, answer: ExactAnswer, t0: Instant) -> Ticket {
        let shared = &*self.shared;
        let latency = t0.elapsed();
        shared.stats.record_submitted();
        shared.stats.record_executed();
        shared.stats.record_inline();
        shared.stats.record_completed(latency);
        if holix_telemetry::trace_enabled() {
            let route = match answer {
                ExactAnswer::Screened => TraceRoute::Screened,
                ExactAnswer::Hit(_) => TraceRoute::Locked,
            };
            let inline = shared.trace(spec, AdmitOutcome::Inline, route, None, latency);
            holix_telemetry::registry().trace().record(inline);
        }
        Ticket::ready(QueryResult {
            count: answer.count(),
            latency,
            service_time: latency,
        })
    }

    /// Submit and block for the answer (closed-loop convenience).
    pub fn execute(&self, spec: QuerySpec) -> Result<QueryResult, SubmitError> {
        Ok(self.submit(spec)?.wait())
    }

    /// The queue `spec` routes to (its home shard's pinned worker).
    fn queue_for(&self, spec: &QuerySpec) -> &BoundedQueue<QueuedQuery> {
        let queues = &self.shared.queues;
        if queues.len() > 1 {
            &queues[(self.shared.engine.routing_key(spec) % queues.len() as u64) as usize]
        } else {
            &queues[0]
        }
    }

    /// Enqueues one (sub-)query, blocking while its queue is full.
    fn submit_part(&self, spec: QuerySpec, sink: Sink) -> Result<(), SubmitError> {
        let queued = QueuedQuery {
            spec,
            sink,
            enqueued: Instant::now(),
        };
        self.queue_for(&spec).push(queued)?;
        self.shared.stats.queue_enqueued(1);
        Ok(())
    }

    /// Spanning-query decomposition: one merge ticket over per-shard
    /// parts, each routed to its pinned worker. A part that arrives as the
    /// service closes executes inline on this client thread: stranding it
    /// would leave the merge dangling (its queued siblings drain at
    /// shutdown and complete into it). The parent ticket therefore always
    /// completes.
    fn submit_decomposed(&self, parts: Vec<QuerySpec>) -> Ticket {
        let (state, ticket) = MergeState::new(parts.len());
        self.shared.stats.record_decomposed(parts.len());
        self.shared.stats.record_submitted();
        for spec in parts {
            if self
                .submit_part(spec, Sink::Part(Arc::clone(&state)))
                .is_err()
            {
                self.shared.stats.record_decomp_inline();
                self.execute_inline(spec, Sink::Part(Arc::clone(&state)));
            }
        }
        ticket
    }

    /// Answers one decomposed part on the calling thread through the
    /// locked path.
    fn execute_inline(&self, spec: QuerySpec, sink: Sink) {
        let shared = &*self.shared;
        let t0 = Instant::now();
        let count = shared.engine.execute(&spec);
        let service = t0.elapsed();
        shared.stats.record_executed();
        if holix_telemetry::trace_enabled() {
            let (admit, route) = (AdmitOutcome::Inline, TraceRoute::Locked);
            let inline = shared.trace(&spec, admit, route, None, service);
            holix_telemetry::registry().trace().record(inline);
        }
        sink.complete(&shared.stats, t0, count, service);
    }
}

fn dispatch_loop(shared: &Shared, queue: &BoundedQueue<QueuedQuery>) {
    use AdmitOutcome::Queued;
    let (stats, calibrator, config) = (&shared.stats, &shared.calibrator, &shared.config);
    let engine = shared.engine.as_ref();
    while let Some(mut batch) = queue.drain_up_to(config.batch_max) {
        let drained = Instant::now();
        stats.queue_drained(batch.len());
        let batch_len = batch.len() as u32;
        // Busy from drain to last completion; dropped while blocked on an
        // empty queue so an idle service leaves its contexts to the daemon.
        let _busy = shared
            .accountant
            .as_ref()
            .map(|a| a.begin_task(config.contexts_per_worker));
        // One model copy per batch: every member is priced against the
        // same constants even while the calibrator republishes.
        let model = calibrator.model();
        // The batch's pricing step: one estimate per distinct predicate.
        // Exact-hits and screened probes (class 0) drain ahead of
        // expensive cold cracks (class 1); `prices[i]` is `batch[i]`'s.
        let prices = order_batch(
            &mut batch,
            config.scheduling,
            |q| q.spec,
            |spec| {
                let cost = engine.estimate_cost(spec);
                let class = match cost.map(|c| c.price(&model)) {
                    Some(QueryPrice::Screened) | Some(QueryPrice::Cheap) => 0,
                    _ => 1,
                };
                (class, cost)
            },
        );
        for (i, q) in batch.iter().enumerate() {
            let spec = q.spec;
            let tracing = holix_telemetry::trace_enabled();
            // The price the batch was ordered by is the price here, unless
            // it promised cracking — then an earlier query may have cracked
            // its piece and it is read again (module header). Outer
            // `None`: FIFO, nobody priced the batch, and the query pays
            // only when the price is read. Inner `None`: priced, but the
            // engine keeps no plan statistics.
            let t0 = Instant::now();
            let est = match prices.get(i).copied() {
                Some(p) if p.is_none_or(|c| c.exact_hit || c.screened) => p,
                _ if config.cutover || config.calibration || tracing => engine.estimate_cost(&spec),
                _ => None,
            };
            // The snapshot/locked cutover: a read-only query routes
            // through the snapshot path (the live edge pieces under the
            // shared structure lock) exactly when the model prices it
            // below the locked crack.
            let route = match est.as_ref() {
                Some(cost) if config.cutover => cost.preferred_route(&model),
                _ => Route::Locked,
            };
            // `taken` is the path actually executed: a snapshot route can
            // fall back to the locked crack, and the calibrator must
            // attribute the measured time to the path that produced it.
            let (count, taken) = match route {
                Route::Snapshot => match engine.execute_snapshot(&spec) {
                    Some((count, _)) => {
                        stats.record_snapshot_cutover();
                        (count, Route::Snapshot)
                    }
                    None => (engine.execute(&spec), Route::Locked),
                },
                Route::Locked => (engine.execute(&spec), Route::Locked),
            };
            let service_time = t0.elapsed();
            if config.calibration {
                if let Some(est) = est.as_ref() {
                    calibrator.observe(est, taken, service_time.as_nanos() as u64);
                }
            }
            stats.record_executed();
            q.sink.complete(stats, q.enqueued, count, service_time);
            if tracing {
                let route = match taken {
                    Route::Snapshot => TraceRoute::Snapshot,
                    Route::Locked if est.is_some_and(|c| c.screened) => TraceRoute::Screened,
                    Route::Locked => TraceRoute::Locked,
                };
                let record = QueryTrace {
                    queue_wait_ns: drained.saturating_duration_since(q.enqueued).as_nanos() as u64,
                    batch_len,
                    ..shared.trace(&spec, Queued, route, est.as_ref(), service_time)
                };
                holix_telemetry::registry().trace().record(record);
            }
        }
        stats.record_busy(drained.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_engine::api::Dataset;
    use holix_engine::{
        AdaptiveEngine, CrackMode, HolisticEngine, HolisticEngineConfig, QueryEngine,
    };
    use holix_workloads::data::uniform_table;
    use holix_workloads::WorkloadSpec;
    use std::time::Duration;

    fn engine(rows: usize, domain: i64) -> (Dataset, Arc<dyn QueryEngine>) {
        let data = Dataset::new(uniform_table(2, rows, domain, 5));
        let engine = AdaptiveEngine::new(data.clone(), CrackMode::Sequential);
        (data, Arc::new(engine))
    }

    fn oracle(data: &Dataset, q: &QuerySpec) -> u64 {
        data.column(q.attr)
            .iter()
            .filter(|&&v| q.lo <= v && v < q.hi)
            .count() as u64
    }

    #[test]
    fn service_answers_match_oracle_under_both_schedulings() {
        for scheduling in [Scheduling::Fifo, Scheduling::CrackAware] {
            let (data, eng) = engine(30_000, 10_000);
            let service = QueryService::start(
                eng,
                None,
                ServiceConfig {
                    workers: 2,
                    scheduling,
                    ..ServiceConfig::default()
                },
            );
            let queries = WorkloadSpec::random(2, 64, 10_000, 6).generate();
            let session = service.session();
            let tickets: Vec<(QuerySpec, Ticket)> = queries
                .iter()
                .map(|&q| (q, session.submit(q).unwrap()))
                .collect();
            for (q, t) in &tickets {
                assert_eq!(t.wait().count, oracle(&data, q), "{scheduling:?} {q:?}");
            }
            let summary = service.shutdown();
            assert_eq!(summary.completed, 64);
            assert_eq!(summary.rejected, 0);
            assert!(summary.p50 <= summary.p95 && summary.p95 <= summary.p99);
        }
    }

    #[test]
    fn affinity_mode_routes_and_answers_correctly() {
        let data = Dataset::new(uniform_table(2, 40_000, 1 << 20, 11));
        let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 3,
                scheduling: Scheduling::CrackAware,
                affinity: true,
                ..ServiceConfig::default()
            },
        );
        let queries = WorkloadSpec::random(2, 96, 1 << 20, 12).generate();
        std::thread::scope(|s| {
            for chunk in queries.chunks(24) {
                let session = service.session();
                let data = &data;
                s.spawn(move || {
                    for q in chunk {
                        assert_eq!(session.execute(*q).unwrap().count, oracle(data, q));
                    }
                });
            }
        });
        let summary = service.shutdown();
        eng.stop();
        assert_eq!(summary.completed, 96);
    }

    #[test]
    fn decomposed_spanning_queries_answer_exactly_and_keep_affinity() {
        let data = Dataset::new(uniform_table(2, 40_000, 1 << 20, 21));
        let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 4,
                scheduling: Scheduling::CrackAware,
                affinity: true,
                decompose: DecomposePolicy::CostBased,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        // Wide spanning ranges (decomposed: each upper bound is fresh, so
        // none is an exact hit and all price Expensive) interleaved with
        // narrow ones (must pass through untouched).
        for i in 0..24i64 {
            let wide = QuerySpec {
                attr: (i % 2) as usize,
                lo: i * 1_000,
                hi: i * 1_000 + (1 << 19),
            };
            let narrow = QuerySpec {
                attr: (i % 2) as usize,
                lo: i * 100,
                hi: i * 100 + 50,
            };
            assert_eq!(session.execute(wide).unwrap().count, oracle(&data, &wide));
            assert_eq!(
                session.execute(narrow).unwrap().count,
                oracle(&data, &narrow)
            );
        }
        let summary = service.shutdown();
        eng.stop();
        assert_eq!(summary.completed, 48, "one completion per client query");
        assert!(
            summary.decomposed >= 20,
            "wide ranges were not decomposed (decomposed={})",
            summary.decomposed
        );
        assert!(
            summary.decomposed_parts >= 2 * summary.decomposed,
            "parts={} for {} decomposed",
            summary.decomposed_parts,
            summary.decomposed
        );
        assert_eq!(summary.submitted, 48);
    }

    #[test]
    fn cost_based_decomposition_runs_cheap_spans_whole() {
        let data = Dataset::new(uniform_table(1, 40_000, 1 << 20, 25));
        let mut cfg = HolisticEngineConfig::split_half_sharded(4, 4);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        // A narrow range across the first shard cut, cracked, and a bound
        // 8 values inside it: a span whose lower bound falls in that
        // 8-value piece is no exact hit — `submit` queues it — but its
        // crack and its rows price Cheap.
        let cut = eng.sharded(0).plan().cuts()[0];
        let converged = QuerySpec {
            attr: 0,
            lo: cut - 5_000,
            hi: cut + 5_000,
        };
        eng.execute(&converged);
        eng.execute(&QuerySpec {
            lo: cut - 4_992,
            ..converged
        });
        let span = QuerySpec {
            lo: cut - 4_996,
            ..converged
        };
        eng.queue_insert(0, 500_000, 1_000_000);
        assert!(eng.decompose(&span).is_some(), "range must span shards");
        let cost = eng.estimate_cost(&span).unwrap();
        assert!(!cost.exact_hit);
        assert_eq!(cost.price(&CostModel::default()), QueryPrice::Cheap);
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 4,
                affinity: true,
                decompose: DecomposePolicy::CostBased,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        let count = session.execute(span).unwrap().count;
        assert_eq!(count, oracle(&data, &span));
        assert_eq!(service.stats().screened_inline, 0, "the span did not queue");
        assert_eq!(service.stats().decomposed, 0, "a cheap span was split");
        // A fresh wide range still has to crack: Expensive, so it is split.
        let fresh = QuerySpec {
            attr: 0,
            lo: 150_000,
            hi: 850_000,
        };
        let count = session.execute(fresh).unwrap().count;
        assert_eq!(count, oracle(&data, &fresh) + 1, "the pending insert");
        let summary = service.shutdown();
        eng.stop();
        assert_eq!(summary.decomposed, 1, "the fresh span was not split");
        assert!(summary.decomposed_parts >= 2);
        assert_eq!(summary.completed, 2);
    }

    #[test]
    fn cost_cutover_routes_backlogged_reads_through_the_snapshot() {
        // A warmed window plus a pending Ripple backlog past the merge
        // backlog: a locked read would pay the merge, the snapshot path
        // overlays it — the model must route the read through
        // `execute_snapshot` and the answer must still include every
        // queued update. The read's upper bound is one past the warmed
        // one, so it is no exact hit and `submit` queues it. No workers:
        // an idle worker would merge the backlog.
        let data = Dataset::new(uniform_table(1, 60_000, 1 << 20, 29));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        cfg.holistic.max_workers = Some(0);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        let warmed = QuerySpec {
            attr: 0,
            lo: 200_000,
            hi: 400_000,
        };
        eng.execute(&warmed); // crack the bounds
        let _ = eng.execute_snapshot(&warmed); // sum the pieces
        let q = QuerySpec {
            hi: 400_001,
            ..warmed
        };
        // Large backlog of pending inserts inside the window.
        for i in 0..600u32 {
            eng.queue_insert(0, 300_000 + i as i64 % 50, 1_000_000 + i);
        }
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 1,
                scheduling: Scheduling::Fifo,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        let result = session.execute(q).unwrap();
        assert_eq!(
            result.count,
            oracle(&data, &q) + 600,
            "overlay missed updates"
        );
        let summary = service.shutdown();
        eng.stop();
        assert!(
            summary.snapshot_cutover >= 1,
            "backlogged read did not take the snapshot route"
        );
    }

    #[test]
    fn calibration_feeds_observations_and_keeps_knobs_inside_the_rails() {
        let data = Dataset::new(uniform_table(1, 60_000, 1 << 20, 37));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 1,
                scheduling: Scheduling::Fifo,
                calibration: true,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        let queries = WorkloadSpec::random(1, 96, 1 << 20, 38).generate();
        for q in &queries {
            assert_eq!(session.execute(*q).unwrap().count, oracle(&data, q));
        }
        let cal = service.calibrator();
        assert!(
            cal.observations() >= Calibrator::REPUBLISH_EVERY,
            "dispatchers observed only {} executions",
            cal.observations()
        );
        let (seed, m) = (cal.seed(), cal.model());
        for (got, seeded) in [
            (m.merge_weight, seed.merge_weight),
            (m.cheap_budget, seed.cheap_budget),
        ] {
            assert!(
                got >= (seeded / 4).max(1) && got <= seeded * 4,
                "calibrated knob {got} escaped the rails of seed {seeded}"
            );
        }
        let summary = service.shutdown();
        eng.stop();
        assert_eq!(summary.completed, 96);
    }

    #[test]
    fn calibration_off_never_observes_and_the_seed_stands() {
        let data = Dataset::new(uniform_table(1, 30_000, 10_000, 41));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data, cfg));
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        for q in WorkloadSpec::random(1, 32, 10_000, 42).generate() {
            session.execute(q).unwrap();
        }
        assert_eq!(service.calibrator().observations(), 0);
        assert_eq!(
            service.calibrator().model(),
            service.calibrator().seed(),
            "with calibration off the configured constants must stand"
        );
        service.shutdown();
        eng.stop();
    }

    #[test]
    fn busy_dispatchers_register_with_the_accountant() {
        let (_, eng) = engine(200_000, 1 << 20);
        let accountant = LoadAccountant::new(4);
        let service = QueryService::start(
            eng,
            Some(Arc::clone(&accountant)),
            ServiceConfig {
                workers: 2,
                scheduling: Scheduling::Fifo,
                batch_max: 4,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        // Keep the service busy and watch the accountant go non-idle.
        let tickets: Vec<Ticket> = WorkloadSpec::random(2, 128, 1 << 20, 7)
            .generate()
            .into_iter()
            .map(|q| session.submit(q).unwrap())
            .collect();
        let mut saw_busy = false;
        for t in &tickets {
            saw_busy |= accountant.busy() > 0;
            t.wait();
        }
        assert!(saw_busy, "dispatchers never registered load");
        service.shutdown();
        assert_eq!(accountant.busy(), 0, "task guards leaked");
    }

    /// Serialises the tests that switch the process-wide trace flag on or
    /// assert on what runs while it is off. Tests outside this lock only
    /// touch attributes 0 and 1; the ones inside mark their queries with a
    /// higher attribute and read the ring from a watermark.
    static TRACING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Records of `attr` written since `watermark`, oldest first.
    fn traces_since(watermark: u64, attr: u32) -> Vec<QueryTrace> {
        let mut traces = holix_telemetry::registry().trace().snapshot();
        traces.retain(|t| t.seq >= watermark && t.attr == attr);
        traces
    }

    #[test]
    fn trace_ring_records_query_lifecycles() {
        let _serial = TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let data = Dataset::new(uniform_table(3, 20_000, 10_000, 51));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 1,
                scheduling: Scheduling::CrackAware,
                ..ServiceConfig::default()
            },
        );
        let watermark = holix_telemetry::registry().trace().recorded();
        holix_telemetry::set_trace_enabled(true);
        let session = service.session();
        let marker = QuerySpec {
            attr: 2,
            lo: 777,
            hi: 4_777,
        };
        assert_eq!(
            session.execute(marker).unwrap().count,
            oracle(&data, &marker)
        );
        // Shutdown joins the dispatcher before tracing is disabled — the
        // trace record lands *after* the ticket completes, so flipping the
        // flag earlier races the recording.
        service.shutdown();
        holix_telemetry::set_trace_enabled(false);
        eng.stop();
        // The ring is global, but the marker's attribute is ours alone:
        // its record must be present with a full lifecycle attached.
        let traces = traces_since(watermark, 2);
        traces
            .iter()
            .find(|t| t.admit == AdmitOutcome::Queued && t.actual_ns > 0 && t.batch_len >= 1)
            .expect("no queued lifecycle trace was recorded");
    }

    /// Forwards to a holistic engine and counts the plan-time estimates
    /// the service asks it for.
    struct Counting {
        inner: Arc<HolisticEngine>,
        estimates: std::sync::atomic::AtomicUsize,
    }

    impl Counting {
        fn over(data: &Dataset) -> Arc<Counting> {
            let mut cfg = HolisticEngineConfig::split_half(2);
            cfg.holistic.monitor_interval = Duration::from_millis(50);
            Arc::new(Counting {
                inner: Arc::new(HolisticEngine::new(data.clone(), cfg)),
                estimates: Default::default(),
            })
        }

        /// Cracks `specs` into the index, so every one of them prices as
        /// an exact hit from here on.
        fn converge(&self, specs: &[QuerySpec]) {
            for q in specs {
                self.inner.execute(q);
            }
            for q in specs {
                assert!(self.inner.estimate_cost(q).unwrap().exact_hit, "{q:?}");
            }
        }

        fn estimates(&self) -> usize {
            self.estimates.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl QueryEngine for Counting {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn capabilities(&self) -> holix_engine::api::Capabilities {
            self.inner.capabilities()
        }
        fn execute(&self, q: &QuerySpec) -> u64 {
            self.inner.execute(q)
        }
        fn execute_verified(&self, q: &QuerySpec) -> (u64, i128) {
            self.inner.execute_verified(q)
        }
        fn plan_version(&self, q: &QuerySpec) -> u64 {
            QueryEngine::plan_version(self.inner.as_ref(), q)
        }
        fn execute_snapshot(&self, q: &QuerySpec) -> Option<(u64, i128)> {
            self.inner.execute_snapshot(q)
        }
        fn estimate_cost(&self, q: &QuerySpec) -> Option<PlanCost> {
            self.estimates
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.estimate_cost(q)
        }
    }

    /// Queues `specs` on a fresh service's one queue, closes it and runs a
    /// dispatcher on this thread: exactly one drained batch, whatever the
    /// scheduler does. The queries are stamped one microsecond apart in
    /// submission order, so each waited a different time. Returns the
    /// counts, in submission order, and the service statistics.
    fn dispatch_one_batch(
        engine: Arc<dyn QueryEngine>,
        config: ServiceConfig,
        specs: &[QuerySpec],
    ) -> (Vec<u64>, StatsSummary) {
        assert!(specs.len() <= config.batch_max.min(config.queue_capacity));
        let shared = Shared::new(engine, None, config);
        let start = Instant::now();
        let tickets: Vec<Ticket> = specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                let ticket = Ticket::new();
                let queued = QueuedQuery {
                    spec,
                    sink: Sink::Direct(ticket.clone()),
                    enqueued: start - Duration::from_micros((specs.len() - i) as u64),
                };
                assert!(shared.queues[0].push(queued).is_ok());
                ticket
            })
            .collect();
        shared.queues[0].close();
        dispatch_loop(&shared, &shared.queues[0]);
        let counts = tickets
            .iter()
            .map(|t| t.try_result().expect("dispatcher left a ticket open").count)
            .collect();
        (counts, shared.stats.summary(Duration::ZERO))
    }

    fn window(attr: usize, lo: i64) -> QuerySpec {
        QuerySpec {
            attr,
            lo,
            hi: lo + 500,
        }
    }

    #[test]
    fn a_converged_batch_is_priced_once_per_distinct_predicate() {
        let data = Dataset::new(uniform_table(1, 30_000, 10_000, 71));
        let eng = Counting::over(&data);
        let hot = [window(0, 1_000), window(0, 4_000), window(0, 7_000)];
        eng.converge(&hot);
        let specs: Vec<QuerySpec> = (0..48).map(|i| hot[i % 3]).collect();
        let (counts, _) = dispatch_one_batch(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            ServiceConfig::default(),
            &specs,
        );
        eng.inner.stop();
        for (q, count) in specs.iter().zip(counts) {
            assert_eq!(count, oracle(&data, q), "{q:?}");
        }
        // One estimate per distinct predicate orders the batch, and each
        // exact-hit query reuses it for the cutover: not one per member
        // plus one per execution.
        assert_eq!(eng.estimates(), 3);
    }

    #[test]
    fn a_cracking_query_is_priced_again_before_it_executes() {
        let data = Dataset::new(uniform_table(1, 30_000, 10_000, 73));
        let eng = Counting::over(&data);
        let hot = [window(0, 1_000), window(0, 4_000)];
        eng.converge(&hot);
        // Three disjoint windows no query has cracked yet.
        let cold = [window(0, 2_000), window(0, 5_000), window(0, 8_000)];
        for q in &cold {
            assert!(!eng.inner.estimate_cost(q).unwrap().exact_hit, "{q:?}");
        }
        let specs: Vec<QuerySpec> = (0..20)
            .map(|i| {
                if i % 5 < 2 {
                    hot[i % 5]
                } else {
                    cold[i % 5 - 2]
                }
            })
            .collect();
        let (counts, _) = dispatch_one_batch(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            ServiceConfig::default(),
            &specs,
        );
        eng.inner.stop();
        for (q, count) in specs.iter().zip(counts) {
            assert_eq!(count, oracle(&data, q), "{q:?}");
        }
        // Five distinct predicates order the batch; the twelve queries
        // whose price promised cracking are each read again as they
        // execute.
        assert_eq!(eng.estimates(), 5 + 12);
    }

    #[test]
    fn a_fifo_bed_prices_only_when_someone_reads_the_price() {
        let _serial = TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let data = Dataset::new(uniform_table(1, 30_000, 10_000, 79));
        let specs: Vec<QuerySpec> = (0..6).map(|i| window(0, 1_000 * (i % 3 + 1))).collect();
        for (cutover, want) in [(false, 0), (true, specs.len())] {
            let eng = Counting::over(&data);
            let (counts, _) = dispatch_one_batch(
                Arc::clone(&eng) as Arc<dyn QueryEngine>,
                ServiceConfig {
                    scheduling: Scheduling::Fifo,
                    cutover,
                    calibration: false,
                    ..ServiceConfig::default()
                },
                &specs,
            );
            eng.inner.stop();
            for (q, count) in specs.iter().zip(counts) {
                assert_eq!(count, oracle(&data, q), "{q:?}");
            }
            // Cost-blind and untraced: nobody reads a price, none is
            // computed. With the cutover on, each head pays for its own.
            assert_eq!(eng.estimates(), want, "cutover={cutover}");
        }
    }

    #[test]
    fn every_queued_query_executes_once_and_leaves_its_own_trace() {
        let _serial = TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let data = Dataset::new(uniform_table(4, 20_000, 10_000, 83));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        // The shapes one batch used to answer from a single execution:
        // exact duplicates of a wide range, strict subsets of it, and
        // repeated point probes.
        let wide = QuerySpec {
            attr: 3,
            lo: 2_000,
            hi: 6_000,
        };
        let mut specs = vec![wide; 4];
        specs.extend((1..5).map(|i| QuerySpec {
            attr: 3,
            lo: 2_000 + i * 300,
            hi: 6_000 - i * 300,
        }));
        for v in [3_333, 4_444, 3_333, 4_444] {
            specs.push(QuerySpec {
                attr: 3,
                lo: v,
                hi: v + 1,
            });
        }
        let watermark = holix_telemetry::registry().trace().recorded();
        holix_telemetry::set_trace_enabled(true);
        let (counts, summary) = dispatch_one_batch(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            ServiceConfig {
                workers: 1,
                scheduling: Scheduling::CrackAware,
                ..ServiceConfig::default()
            },
            &specs,
        );
        holix_telemetry::set_trace_enabled(false);
        eng.stop();
        for (q, count) in specs.iter().zip(counts) {
            assert_eq!(count, oracle(&data, q), "{q:?}");
        }
        let n = specs.len() as u64;
        assert_eq!((summary.completed, summary.executed), (n, n));
        assert_eq!(summary.containment, 0);
        // One record per queued query, each with its own queue wait.
        let traces = traces_since(watermark, 3);
        assert_eq!(traces.len(), specs.len(), "{traces:?}");
        let mut waits: Vec<u64> = traces.iter().map(|t| t.queue_wait_ns).collect();
        waits.sort_unstable();
        waits.dedup();
        assert_eq!(waits.len(), specs.len(), "two queries shared a wait");
        for t in &traces {
            assert_eq!((t.admit, t.batch_len), (AdmitOutcome::Queued, n as u32));
            assert!(t.actual_ns > 0, "{t:?}");
        }
    }

    #[test]
    fn one_exposition_carries_series_from_all_four_layers() {
        // A served, calibrated workload on a holistic engine touches every
        // instrumented layer — cracks (`cracking_`), calibrator
        // observations (`planner_`), daemon cycles (`engine_`), service
        // counters (`server_`) — and one text dump of the process-wide
        // registry must show them all.
        let data = Dataset::new(uniform_table(1, 50_000, 10_000, 61));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(1);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 1,
                calibration: true,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        for i in 0..32 {
            let q = QuerySpec {
                attr: 0,
                lo: i * 300,
                hi: i * 300 + 200,
            };
            assert_eq!(session.execute(q).unwrap().count, oracle(&data, &q));
            // The daemon's cycle must come while the first query's pieces
            // are still coarse: an optimised build answers all 32 before
            // the daemon's first tick and leaves it nothing to refine.
            let deadline = Instant::now() + Duration::from_secs(30);
            while i == 0 && eng.cycles().is_empty() {
                assert!(Instant::now() < deadline, "the daemon never ran a cycle");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        service.shutdown();
        eng.stop();
        let exposition = holix_telemetry::registry().expose();
        for layer in ["cracking_", "planner_", "engine_", "server_"] {
            assert!(
                exposition.lines().any(|l| l.starts_with(layer)),
                "exposition is missing the `{layer}` layer:\n{exposition}"
            );
        }
    }

    #[test]
    fn queue_depth_gauge_drains_to_zero_at_shutdown() {
        let (data, eng) = engine(20_000, 1_000);
        let service = QueryService::start(
            eng,
            None,
            ServiceConfig {
                workers: 1,
                batch_max: 4,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        let q = QuerySpec {
            attr: 0,
            lo: 10,
            hi: 600,
        };
        let tickets: Vec<Ticket> = (0..32).map(|_| session.submit(q).unwrap()).collect();
        let expect = oracle(&data, &q);
        for t in &tickets {
            assert_eq!(t.wait().count, expect);
        }
        let shared = Arc::clone(&service.shared);
        let summary = service.shutdown();
        assert_eq!(
            shared.stats.queue_depth(),
            0,
            "every enqueued query must be drained"
        );
        assert!(
            summary.queue_depth_peak >= 1,
            "burst never registered on the peak gauge"
        );
        assert!(
            summary.busy_ns > 0,
            "dispatcher batches recorded no busy time"
        );
    }

    #[test]
    fn sessions_are_registered_and_counted() {
        let (_, eng) = engine(1_000, 100);
        let service = QueryService::start(eng, None, ServiceConfig::default());
        {
            let a = service.session();
            let b = service.session();
            assert_eq!(service.registry().active(), 2);
            let _ = (a, b);
        }
        assert_eq!(service.registry().active(), 0);
        assert_eq!(service.registry().total_opened(), 2);
        service.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails_closed() {
        // A warmed range answers inline while the service runs, and is
        // refused like any other submission once it has shut down.
        let data = Dataset::new(uniform_table(1, 20_000, 10_000, 89));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data, cfg));
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig::default(),
        );
        let session = service.session();
        let warmed = QuerySpec {
            attr: 0,
            lo: 2_000,
            hi: 3_000,
        };
        session.execute(warmed).unwrap(); // cracks both bounds
        let ticket = session.submit(warmed).unwrap();
        assert!(ticket.try_result().is_some(), "the warmed range queued");
        service.shutdown();
        let fresh = QuerySpec {
            attr: 0,
            lo: 0,
            hi: 10,
        };
        for q in [warmed, fresh] {
            assert_eq!(session.submit(q).err(), Some(SubmitError::Closed), "{q:?}");
        }
        eng.stop();
    }

    #[test]
    fn exact_hits_skip_the_queue() {
        let _serial = TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let data = Dataset::new(uniform_table(3, 20_000, 10_000, 87));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        let warmed = QuerySpec {
            attr: 2,
            lo: 1_234,
            hi: 5_678,
        };
        eng.execute(&warmed); // cracks both bounds
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let watermark = holix_telemetry::registry().trace().recorded();
        holix_telemetry::set_trace_enabled(true);
        let ticket = service.session().submit(warmed).unwrap();
        holix_telemetry::set_trace_enabled(false);
        let result = ticket
            .try_result()
            .expect("an exact hit is complete when submit returns");
        assert_eq!(result.count, oracle(&data, &warmed));
        let summary = service.shutdown();
        eng.stop();
        let counted = (summary.submitted, summary.executed, summary.completed);
        assert_eq!(counted, (1, 1, 1));
        assert_eq!(summary.screened_inline, 1);
        assert_eq!(summary.queue_depth_peak, 0, "the exact hit was queued");
        let traces = traces_since(watermark, 2);
        assert_eq!(traces.len(), 1, "{traces:?}");
        let t = &traces[0];
        assert_eq!(
            (t.admit, t.route),
            (AdmitOutcome::Inline, TraceRoute::Locked)
        );
        assert_eq!((t.queue_wait_ns, t.batch_len, t.predicted_ns), (0, 1, 0));
    }
}
