//! The query service: admission queue(s) + dispatcher worker pool.
//!
//! [`QueryService`] accepts queries from any number of concurrent
//! [`Session`]s, applies admission control at the bounded queue, and runs a
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
//! ## Containment coalescing
//!
//! Under crack-aware scheduling a batch is sorted widest-range-first within
//! each `(attr, lo)` group; a run of predicates contained in the head's
//! range executes the head *once* via
//! [`QueryEngine::execute_collect_snapshot`] and
//! answers the rest by post-filtering the returned values (exact duplicates
//! fan the count out directly, as before).
//!
//! ## Plan-aware decisions (holix-planner)
//!
//! Three decisions consult the engine's plan-time cost estimates
//! ([`QueryEngine::estimate_cost`] — lock-free reads of published piece
//! statistics):
//!
//! - **Spanning-query decomposition** (`decompose` + affinity): a range
//!   spanning shards is cut at the shard plan's boundaries; each per-shard
//!   sub-query routes to its pinned worker's queue and a merge ticket
//!   folds the counts — wide scans never break shard/worker affinity.
//! - **Cost-based admission** ([`AdmissionPolicy::CostAware`]): a full
//!   queue sheds by *price*, not position — cheap exact-hits go to a
//!   bounded overflow reserve (never shed), expensive queries with a
//!   fresh snapshot estimate are served inline from the lock-free
//!   snapshot path (downgrade), only expensive cold cracks are shed.
//! - **Snapshot/locked cutover**: the dispatcher routes a whole read-only
//!   query through [`QueryEngine::execute_snapshot`] exactly when the
//!   model says the snapshot's edge pieces are fresh enough to beat the
//!   locked crack.
//!
//! All three price against the *calibrated* model: the service shares one
//! [`Calibrator`] seeded from [`ServiceConfig::cost`], and with
//! [`ServiceConfig::calibration`] each dispatcher feeds its plain-path
//! service times back so the knobs track the actual machine (inside
//! `[seed/4, seed*4]` guard rails).
//!
//! **Where a price is computed, and how long it is trusted.** A session
//! prices a submission only where it decides something (a spanning range
//! under `CostBased`, a full queue under `CostAware`, a FIFO rejection
//! being classified); the common admitted submission is never priced. A
//! dispatcher prices a crack-aware batch once, while ordering it
//! ([`order_batch`]): one estimate per *distinct* predicate, exact-hits
//! and screened probes draining ahead of expensive cold cracks. That price
//! is trusted until the run's head executes and serves the cutover, the
//! calibrator observation and the trace record alike — with one exception:
//! a price that promised cracking (neither an exact hit nor screened) is
//! read again just before its head executes, because an earlier member of
//! the same batch may have cracked the very piece and the calibrator must
//! not learn from `crack_values` the execution never paid. An exact hit
//! cannot go stale that way: boundaries are never removed. A FIFO batch is
//! not ordered, so its heads arrive unpriced and are priced there exactly
//! when the cutover, the calibrator or the trace reads the price — a
//! cost-blind, untraced bed prices nothing.

use crate::batcher::{containment_run_len, duplicate_run_len, order_batch, Scheduling};
use crate::queue::{AdmissionPolicy, BoundedQueue, SubmitError};
use crate::session::{MergeState, QueryResult, SessionHandle, SessionRegistry, Ticket};
use crate::stats::{PlanDecision, ServiceStats, StatsSummary};
use holix_core::cpu::LoadAccountant;
use holix_engine::api::{QueryEngine, SnapshotCollect};
use holix_planner::{Calibrator, CostModel, PlanCost, QueryPrice, Route};
use holix_telemetry::{AdmitOutcome, CoalesceKind, QueryTrace, TraceRoute};
use holix_workloads::QuerySpec;
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
    /// Full-queue behaviour.
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
    /// [`QueryEngine::execute_snapshot`] when the snapshot's refreshed
    /// edge pieces beat the locked crack (e.g. under Ripple backlog).
    /// Disable for cost-blind baseline beds — the per-query estimate is
    /// then skipped entirely.
    pub cutover: bool,
    /// Cost-model constants for plan-priced decisions (admission pricing
    /// and the snapshot/locked cutover). With [`ServiceConfig::calibration`]
    /// these are the *seed* the online calibrator's guard rails anchor to.
    pub cost: CostModel,
    /// Online cost-model calibration: dispatchers feed each plain-path
    /// execution's measured service time back into a shared
    /// [`Calibrator`], which regresses observed ns-per-value and
    /// ns-per-merge rates and republishes nudged `cost` knobs inside
    /// `[seed/4, seed*4]` guard rails. All plan-priced decisions
    /// (admission, downgrade, cutover, batch pricing) then read the
    /// calibrated model. Off by default: the seeded constants stand.
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
    /// Decompose every spanning range (tests, and multicore beds where
    /// parts genuinely run in parallel).
    Always,
}

impl DecomposePolicy {
    /// CSV label.
    pub fn label(&self) -> &'static str {
        match self {
            DecomposePolicy::Off => "whole",
            DecomposePolicy::CostBased => "cost_based",
            DecomposePolicy::Always => "always",
        }
    }
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
                .map(|_| BoundedQueue::new(config.queue_capacity, config.admission))
                .collect(),
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
    /// batched — [`trace_run`] fills in the columns a drained run adds.
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
            // Shed: in no batch. Executed inline: a batch of one.
            batch_len: u32::from(admit != AdmitOutcome::Shed),
            coalesce: CoalesceKind::Solo,
            route,
            plan_version: self.engine.plan_version(spec),
            predicted_ns: cost.map_or(0, |c| self.calibrator.predicted_ns(c, taken)),
            actual_ns: service.as_nanos() as u64,
            crack_values: cost.map_or(0, |c| c.crack_values),
            decode_rows: cost.map_or(0, |c| c.decode_rows),
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

    /// Submits a query; returns a ticket to wait on. Fails when admission
    /// control sheds the query or the service is shutting down. In
    /// affinity mode the query routes to the worker pinned to its
    /// attribute shard; with decomposition, a shard-spanning range is cut
    /// into per-shard sub-queries, each on its pinned worker's queue,
    /// completed under one merge ticket.
    pub fn submit(&self, spec: QuerySpec) -> Result<Ticket, SubmitError> {
        let shared = &*self.shared;
        // Spanning check first (two partition-point lookups on the
        // immutable shard plan), cost estimate only for ranges that
        // actually span — narrow traffic must not pay plan pricing twice.
        if shared.queues.len() > 1 && shared.config.decompose != DecomposePolicy::Off {
            if let Some(parts) = shared.engine.decompose(&spec) {
                if self.should_decompose(&spec) {
                    return self.submit_decomposed(parts);
                }
            }
        }
        let ticket = Ticket::new();
        match self.submit_part(spec, Sink::Direct(ticket.clone()), true) {
            Ok(()) => {
                shared.stats.record_submitted();
                Ok(ticket)
            }
            Err(e) => {
                if e == SubmitError::Rejected {
                    shared.stats.record_rejected();
                    // Rejections never reach a dispatcher, so the shed
                    // site is the only place that can trace them.
                    if holix_telemetry::trace_enabled() {
                        let (admit, route) = (AdmitOutcome::Shed, TraceRoute::Locked);
                        let shed = shared.trace(&spec, admit, route, None, Duration::ZERO);
                        holix_telemetry::registry().trace().record(shed);
                    }
                    // Classify what FIFO shedding turned away so beds can
                    // be compared: price-aware admission records its own
                    // (finer) decisions at the shed site instead.
                    if shared.config.admission != AdmissionPolicy::CostAware {
                        let decision = match shared.price(&spec) {
                            Some(QueryPrice::Cheap) | Some(QueryPrice::Screened) => {
                                PlanDecision::ShedCheap
                            }
                            _ => PlanDecision::ShedExpensive,
                        };
                        shared.stats.record_decision(decision);
                    }
                }
                Err(e)
            }
        }
    }

    /// Submit and block for the answer (closed-loop convenience).
    pub fn execute(&self, spec: QuerySpec) -> Result<QueryResult, SubmitError> {
        Ok(self.submit(spec)?.wait())
    }

    /// Does the decomposition policy want `spec` split? (`CostBased`
    /// consults the plan: only spans the model prices Expensive carry
    /// enough per-shard work to pay for the merge ticket.)
    fn should_decompose(&self, spec: &QuerySpec) -> bool {
        match self.shared.config.decompose {
            DecomposePolicy::Off => false,
            DecomposePolicy::Always => true,
            DecomposePolicy::CostBased => self.shared.price(spec) == Some(QueryPrice::Expensive),
        }
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

    /// Enqueues one (sub-)query under the configured admission policy.
    /// `record_shed` controls whether a cost-aware shed is traced as a
    /// `ShedExpensive` decision — decomposed parts pass `false`, because
    /// their caller converts the rejection into inline execution (the
    /// query is never actually shed).
    fn submit_part(
        &self,
        spec: QuerySpec,
        sink: Sink,
        record_shed: bool,
    ) -> Result<(), SubmitError> {
        let queued = QueuedQuery {
            spec,
            sink,
            enqueued: Instant::now(),
        };
        match self.shared.config.admission {
            AdmissionPolicy::Block | AdmissionPolicy::Reject => {
                let res = self.queue_for(&spec).push(queued);
                if res.is_ok() {
                    self.shared.stats.queue_enqueued(1);
                }
                res
            }
            AdmissionPolicy::CostAware => self.cost_aware_submit(queued, record_shed),
        }
    }

    /// Price-aware shedding: a full queue sheds by plan cost, not by
    /// arrival position. Cheap (exact-hit / near-optimal) queries are
    /// NEVER shed — they go to a bounded overflow reserve, or execute
    /// inline on the submitting thread when even that is full. Expensive
    /// queries whose snapshot estimate is fresh enough are *downgraded*:
    /// served inline through the engine's lock-free snapshot path, off
    /// the workers entirely. Only expensive queries with no viable
    /// snapshot are shed.
    fn cost_aware_submit(&self, queued: QueuedQuery, record_shed: bool) -> Result<(), SubmitError> {
        let stats = &self.shared.stats;
        let queue = self.queue_for(&queued.spec);
        let mut queued = match queue.try_push(queued) {
            Ok(()) => {
                stats.queue_enqueued(1);
                return Ok(());
            }
            Err((_, SubmitError::Closed)) => return Err(SubmitError::Closed),
            Err((q, _)) => q,
        };
        let model = self.shared.calibrator.model();
        let cost = self.shared.engine.estimate_cost(&queued.spec);
        let price = cost.map_or(QueryPrice::Expensive, |c| c.price(&model));
        let slack = (queue.capacity() / 4).max(1);
        let (decision, route, admit) = match price {
            // The membership filter already proved the probe's shard
            // non-containing: execution is a lock-free filter probe plus
            // bookkeeping, cheaper than any queue handoff — so a screened
            // probe never spends a queue slot, even when the queue has
            // room for it on retry. Near-free by construction, never shed.
            QueryPrice::Screened => (
                PlanDecision::ScreenedInline,
                TraceRoute::Screened,
                AdmitOutcome::Inline,
            ),
            QueryPrice::Cheap => match queue.push_with_slack(queued, slack) {
                Ok(()) => {
                    stats.queue_enqueued(1);
                    stats.record_decision(PlanDecision::CheapAdmitted);
                    return Ok(());
                }
                Err((_, SubmitError::Closed)) => return Err(SubmitError::Closed),
                // Even the reserve is full: an exact hit is cheap enough
                // to answer right here.
                Err((back, _)) => {
                    queued = back;
                    (
                        PlanDecision::CheapAdmitted,
                        TraceRoute::Locked,
                        AdmitOutcome::Inline,
                    )
                }
            },
            QueryPrice::Expensive if cost.is_some_and(|c| c.downgradable(&model)) => (
                PlanDecision::DowngradedSnapshot,
                TraceRoute::Snapshot,
                AdmitOutcome::Downgraded,
            ),
            QueryPrice::Expensive => {
                if record_shed {
                    stats.record_decision(PlanDecision::ShedExpensive);
                }
                return Err(SubmitError::Rejected);
            }
        };
        stats.record_decision(decision);
        self.execute_inline(queued, route, admit, cost.as_ref());
        Ok(())
    }

    /// Spanning-query decomposition: one merge ticket over per-shard
    /// parts, each routed to its pinned worker. A part the queue rejects
    /// — or that arrives as the service closes — executes inline on this
    /// client thread: shedding or stranding an individual part would
    /// leave the merge dangling (its queued siblings drain at shutdown
    /// and complete into it), and inline execution IS the backpressure.
    /// The parent ticket therefore always completes.
    fn submit_decomposed(&self, parts: Vec<QuerySpec>) -> Result<Ticket, SubmitError> {
        let (state, ticket) = MergeState::new(parts.len());
        self.shared.stats.record_decomposed(parts.len());
        self.shared.stats.record_submitted();
        for spec in parts {
            if self
                .submit_part(spec, Sink::Part(Arc::clone(&state)), false)
                .is_err()
            {
                self.shared.stats.record_decomp_inline();
                self.execute_inline(
                    QueuedQuery {
                        spec,
                        sink: Sink::Part(Arc::clone(&state)),
                        enqueued: Instant::now(),
                    },
                    TraceRoute::Locked,
                    AdmitOutcome::Inline,
                    None,
                );
            }
        }
        Ok(ticket)
    }

    /// Answers one queued query on the calling thread, preferring the
    /// requested route (`Snapshot` falls back to the locked path on
    /// engines without a snapshot surface; `Screened` is a locked-path
    /// execution the membership filter already priced near-free).
    fn execute_inline(
        &self,
        queued: QueuedQuery,
        route: TraceRoute,
        admit: AdmitOutcome,
        cost: Option<&PlanCost>,
    ) {
        let shared = &*self.shared;
        let t0 = Instant::now();
        let count = match route {
            TraceRoute::Snapshot => match shared.engine.execute_snapshot(&queued.spec) {
                Some((count, _)) => count,
                None => shared.engine.execute(&queued.spec),
            },
            TraceRoute::Locked | TraceRoute::Screened => shared.engine.execute(&queued.spec),
        };
        let service = t0.elapsed();
        shared.stats.record_executed();
        if holix_telemetry::trace_enabled() {
            let inline = shared.trace(&queued.spec, admit, route, cost, service);
            holix_telemetry::registry().trace().record(inline);
        }
        queued
            .sink
            .complete(&shared.stats, queued.enqueued, count, service);
    }
}

/// Completes `run` sinks with per-query counts and shared timing.
fn complete_run(
    stats: &ServiceStats,
    run: &[QueuedQuery],
    count_of: impl Fn(&QuerySpec) -> u64,
    service_time: Duration,
) {
    for q in run {
        q.sink
            .complete(stats, q.enqueued, count_of(&q.spec), service_time);
    }
}

/// Records `record` — the head's execution — once per member of a
/// completed dispatch run, marked by position: the first member is the
/// execution (`Solo`), later members equal to it rode along as
/// `Duplicate`s, strict subsets were answered from its values
/// (`Containment`). Only called with tracing enabled.
fn trace_run(run: &[QueuedQuery], batch_len: u32, drained: Instant, mut record: QueryTrace) {
    let ring = holix_telemetry::registry().trace();
    let head = run[0].spec;
    record.batch_len = batch_len;
    for (i, q) in run.iter().enumerate() {
        record.queue_wait_ns = drained.saturating_duration_since(q.enqueued).as_nanos() as u64;
        record.coalesce = match i {
            0 => CoalesceKind::Solo,
            _ if q.spec == head => CoalesceKind::Duplicate,
            _ => CoalesceKind::Containment,
        };
        ring.record(record);
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
        let mut at = 0;
        while at < batch.len() {
            let rest = &batch[at..];
            let head = rest[0].spec;
            // Outer `None`: FIFO, nobody priced the batch. Inner `None`:
            // priced, but the engine keeps no plan statistics.
            let priced: Option<Option<PlanCost>> = prices.get(at).copied();
            let tracing = holix_telemetry::trace_enabled();
            // Under crack-aware ordering the widest predicate of a group
            // leads; FIFO keeps run length 1 unless clients aligned.
            let (dup, contained) = match config.scheduling {
                Scheduling::Fifo => (1, 1),
                Scheduling::CrackAware => (
                    duplicate_run_len(rest, |q| q.spec),
                    containment_run_len(rest, |q| q.spec),
                ),
            };
            // Strict subsets behind the head: worth one collect call that
            // answers the whole containment run by post-filter. The
            // engine's snapshot collect reads one published snapshot per
            // touched shard, so materialising the superset holds no
            // shard's structure lock against concurrent cracks and Ripple
            // merges. An engine without that path, or a superset past its
            // copy cap, sends the run to per-query execution.
            if contained > dup {
                let t0 = Instant::now();
                if let SnapshotCollect::Values(values) = engine.execute_collect_snapshot(&head) {
                    let service_time = t0.elapsed();
                    stats.record_executed();
                    stats.record_snapshot_run();
                    let superset_count = values.len() as u64;
                    for q in &rest[..contained] {
                        if q.spec != head {
                            stats.record_containment();
                        }
                    }
                    complete_run(
                        stats,
                        &rest[..contained],
                        |spec| {
                            if *spec == head {
                                superset_count
                            } else {
                                values
                                    .iter()
                                    .filter(|&&v| spec.lo <= v && v < spec.hi)
                                    .count() as u64
                            }
                        },
                        service_time,
                    );
                    if tracing {
                        let (cost, route) = (priced.flatten(), TraceRoute::Snapshot);
                        let record =
                            shared.trace(&head, Queued, route, cost.as_ref(), service_time);
                        trace_run(&rest[..contained], batch_len, drained, record);
                    }
                    at += contained;
                    continue;
                }
            }
            // Plain path: execute the head once, fan the count out to the
            // exact-duplicate run. The price the batch was ordered by is
            // the price here, unless it promised cracking — then an earlier
            // run may have cracked its piece and it is read again (module
            // header). FIFO heads arrive unpriced and pay only when read.
            let t0 = Instant::now();
            let est = match priced {
                Some(p) if p.is_none_or(|c| c.exact_hit || c.screened) => p,
                _ if config.cutover || config.calibration || tracing => engine.estimate_cost(&head),
                _ => None,
            };
            // The snapshot/locked cutover: a read-only query routes
            // through the lock-free snapshot path exactly when the model
            // prices its refreshed edge pieces below the locked crack.
            let route = match est.as_ref() {
                Some(cost) if config.cutover => cost.preferred_route(&model),
                _ => Route::Locked,
            };
            // `taken` is the path actually executed: a snapshot route can
            // fall back to the locked crack, and the calibrator must
            // attribute the measured time to the path that produced it.
            let (count, taken) = match route {
                Route::Snapshot => match engine.execute_snapshot(&head) {
                    Some((count, _)) => {
                        stats.record_decision(PlanDecision::SnapshotCutover);
                        (count, Route::Snapshot)
                    }
                    None => (engine.execute(&head), Route::Locked),
                },
                Route::Locked => (engine.execute(&head), Route::Locked),
            };
            let service_time = t0.elapsed();
            if config.calibration {
                if let Some(est) = est.as_ref() {
                    calibrator.observe(est, taken, service_time.as_nanos() as u64);
                }
            }
            stats.record_executed();
            complete_run(stats, &rest[..dup], |_| count, service_time);
            if tracing {
                let route = match taken {
                    Route::Snapshot => TraceRoute::Snapshot,
                    Route::Locked if est.is_some_and(|c| c.screened) => TraceRoute::Screened,
                    Route::Locked => TraceRoute::Locked,
                };
                let record = shared.trace(&head, Queued, route, est.as_ref(), service_time);
                trace_run(&rest[..dup], batch_len, drained, record);
            }
            at += dup;
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
    fn crack_aware_coalesces_duplicate_predicates() {
        let (data, eng) = engine(20_000, 1_000);
        let service = QueryService::start(
            eng,
            None,
            ServiceConfig {
                workers: 1,
                scheduling: Scheduling::CrackAware,
                batch_max: 128,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        let q = QuerySpec {
            attr: 0,
            lo: 100,
            hi: 300,
        };
        // Submit 32 identical queries before any dispatcher can finish the
        // first: they land in one batch and execute once or a few times.
        let tickets: Vec<Ticket> = (0..32).map(|_| session.submit(q).unwrap()).collect();
        let expect = oracle(&data, &q);
        for t in &tickets {
            assert_eq!(t.wait().count, expect);
        }
        let summary = service.shutdown();
        assert_eq!(summary.completed, 32);
        assert!(
            summary.executed < 32,
            "no coalescing happened (executed={})",
            summary.executed
        );
    }

    #[test]
    fn containment_coalescing_answers_subsets_from_the_superset() {
        // Holistic engine: supports execute_collect_snapshot. One worker,
        // one batch: a superset plus strict subsets must produce
        // containment hits and exact answers.
        let data = Dataset::new(uniform_table(1, 30_000, 10_000, 9));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 1,
                scheduling: Scheduling::CrackAware,
                batch_max: 128,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        let superset = QuerySpec {
            attr: 0,
            lo: 1_000,
            hi: 9_000,
        };
        let subsets: Vec<QuerySpec> = (0..8)
            .map(|i| QuerySpec {
                attr: 0,
                lo: 1_000 + i * 500,
                hi: 9_000 - i * 500,
            })
            .collect();
        // Burst-submit so everything lands in one drained batch.
        let mut tickets = vec![(superset, session.submit(superset).unwrap())];
        for &s in &subsets {
            tickets.push((s, session.submit(s).unwrap()));
        }
        for (q, t) in &tickets {
            assert_eq!(t.wait().count, oracle(&data, q), "{q:?}");
        }
        let summary = service.shutdown();
        eng.stop();
        assert_eq!(summary.completed, 9);
        assert!(
            summary.containment > 0,
            "no containment hits (executed={} containment={})",
            summary.executed,
            summary.containment
        );
        assert!(
            summary.executed < 9,
            "containment did not save executions (executed={})",
            summary.executed
        );
        assert!(
            summary.snapshot_runs > 0,
            "holistic containment run did not use the snapshot ticket \
             (snapshot_runs={})",
            summary.snapshot_runs
        );
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
                decompose: DecomposePolicy::Always,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        // Wide spanning ranges (decomposed) interleaved with narrow ones
        // (must pass through untouched).
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
    fn cost_aware_admission_never_sheds_cheap_queries() {
        // One slow worker, a tiny queue, and a burst of expensive cold
        // cracks interleaved with cheap exact-hits: price-aware shedding
        // must turn away only the expensive ones.
        let data = Dataset::new(uniform_table(1, 300_000, 1 << 20, 23));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        let hot = QuerySpec {
            attr: 0,
            lo: 100_000,
            hi: 105_000,
        };
        // Warm the hot window so its bounds are exact hits in the stats.
        eng.execute(&hot);
        let col = eng.sharded(0);
        for k in 0..col.shard_count() {
            col.shard(k).publish_stats();
        }
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                admission: AdmissionPolicy::CostAware,
                scheduling: Scheduling::Fifo,
                batch_max: 1,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        let mut rng_lo = 7_i64;
        let mut cheap_tickets = Vec::new();
        let mut expensive_outcomes = 0u64;
        for i in 0..128 {
            if i % 2 == 0 {
                // Cold expensive: fresh random bounds every time.
                rng_lo = (rng_lo.wrapping_mul(48_271)) % (1 << 19);
                let q = QuerySpec {
                    attr: 0,
                    lo: rng_lo.abs(),
                    hi: rng_lo.abs() + (1 << 18),
                };
                match session.submit(q) {
                    Ok(t) => {
                        let _ = t; // answered eventually; count not asserted
                    }
                    Err(SubmitError::Rejected) => expensive_outcomes += 1,
                    Err(e) => panic!("unexpected {e:?}"),
                }
            } else {
                // Cheap exact-hit: MUST always be admitted.
                let t = session
                    .submit(hot)
                    .expect("cost-aware admission shed a cheap exact-hit");
                cheap_tickets.push(t);
            }
        }
        let expect = oracle(&data, &hot);
        for t in &cheap_tickets {
            assert_eq!(t.wait().count, expect);
        }
        let summary = service.shutdown();
        eng.stop();
        assert_eq!(summary.shed_cheap, 0, "cheap queries were shed");
        assert_eq!(cheap_tickets.len(), 64);
        // Under this overload something expensive must have been priced
        // out (shed or downgraded) — and every rejection we observed was
        // recorded as expensive.
        assert!(summary.shed_expensive + summary.downgraded_snapshot + summary.rejected > 0);
        assert_eq!(summary.rejected, expensive_outcomes);
    }

    #[test]
    fn duplicate_point_probes_coalesce_in_the_batcher() {
        // Point-heavy clients repeat the same equality probes; the
        // crack-aware batcher must coalesce identical unit ranges into one
        // engine execution exactly like duplicate range predicates.
        let base: Vec<i64> = (0..30_000).map(|i| (i % 10_000) * 2).collect();
        let data = Dataset::new(vec![base]);
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data, cfg));
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 1,
                scheduling: Scheduling::CrackAware,
                batch_max: 128,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        let absent = QuerySpec {
            attr: 0,
            lo: 4_001, // odd → provably absent
            hi: 4_002,
        };
        let present = QuerySpec {
            attr: 0,
            lo: 4_000,
            hi: 4_001,
        };
        let mut tickets = Vec::new();
        for _ in 0..16 {
            tickets.push((0u64, session.submit(absent).unwrap()));
            tickets.push((3u64, session.submit(present).unwrap()));
        }
        for (want, t) in &tickets {
            assert_eq!(t.wait().count, *want);
        }
        let summary = service.shutdown();
        eng.stop();
        assert_eq!(summary.completed, 32);
        assert!(
            summary.executed < 32,
            "duplicate point probes were not coalesced (executed={})",
            summary.executed
        );
    }

    #[test]
    fn screened_point_probes_execute_inline_under_overload() {
        // Cost-aware admission with a full queue: a point probe the
        // membership filter prices Screened must execute inline — never
        // queued, never shed — while expensive cold ranges are priced out.
        let base: Vec<i64> = (0..200_000).map(|i| (i % 50_000) * 2).collect();
        let data = Dataset::new(vec![base]);
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data, cfg));
        // Build the filter (one probe pays it) and publish fresh stats so
        // plan-time screening sees the published filter.
        assert_eq!(
            eng.execute(&QuerySpec {
                attr: 0,
                lo: 1,
                hi: 2
            }),
            0
        );
        let service = QueryService::start(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            None,
            ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                admission: AdmissionPolicy::CostAware,
                scheduling: Scheduling::Fifo,
                batch_max: 1,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        let mut probe_tickets = Vec::new();
        let mut lo = 11_i64;
        for i in 0..128 {
            if i % 2 == 0 {
                // Expensive cold range keeping the queue and worker busy.
                lo = (lo.wrapping_mul(48_271)) % (1 << 16);
                let q = QuerySpec {
                    attr: 0,
                    lo: lo.abs(),
                    hi: lo.abs() + 60_000,
                };
                let _ = session.submit(q); // shed / downgraded / queued — all fine
            } else {
                // Odd value → filter-negative: must always be admitted.
                let v = ((i * 97) % 100_000) | 1;
                let t = session
                    .submit(QuerySpec {
                        attr: 0,
                        lo: v,
                        hi: v + 1,
                    })
                    .expect("screened point probe was shed");
                probe_tickets.push(t);
            }
        }
        for t in &probe_tickets {
            assert_eq!(t.wait().count, 0);
        }
        let summary = service.shutdown();
        eng.stop();
        assert_eq!(probe_tickets.len(), 64);
        assert!(
            summary.screened_inline > 0,
            "no probe was screened inline (screened_inline=0, rejected={})",
            summary.rejected
        );
    }

    #[test]
    fn cost_cutover_routes_backlogged_reads_through_the_snapshot() {
        // A warmed exact-hit window plus a large pending Ripple backlog:
        // the locked path would pay the merge, the snapshot path overlays
        // it — the model must route the read through `execute_snapshot`
        // and the answer must still include every queued update.
        let data = Dataset::new(uniform_table(1, 60_000, 1 << 20, 29));
        let mut cfg = HolisticEngineConfig::split_half(2);
        cfg.holistic.monitor_interval = Duration::from_millis(50);
        let eng = Arc::new(HolisticEngine::new(data.clone(), cfg));
        let q = QuerySpec {
            attr: 0,
            lo: 200_000,
            hi: 400_000,
        };
        eng.execute(&q); // crack the bounds
        let _ = eng.execute_snapshot(&q); // publish + refresh the snapshot
                                          // Large backlog of pending inserts inside the window.
        for i in 0..600u32 {
            eng.queue_insert(0, 300_000 + i as i64 % 50, 1_000_000 + i);
        }
        let col = eng.sharded(0);
        for k in 0..col.shard_count() {
            col.shard(k).publish_stats();
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
            (m.downgrade_budget, seed.downgrade_budget),
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
    fn reject_admission_sheds_load_but_answers_accepted_queries() {
        let (data, eng) = engine(50_000, 1_000);
        let service = QueryService::start(
            eng,
            None,
            ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                admission: AdmissionPolicy::Reject,
                scheduling: Scheduling::Fifo,
                batch_max: 2,
                contexts_per_worker: 1,
                ..ServiceConfig::default()
            },
        );
        let session = service.session();
        let q = QuerySpec {
            attr: 1,
            lo: 0,
            hi: 500,
        };
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for _ in 0..256 {
            match session.submit(q) {
                Ok(t) => accepted.push(t),
                Err(SubmitError::Rejected) => rejected += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        let expect = oracle(&data, &q);
        for t in &accepted {
            assert_eq!(t.wait().count, expect);
        }
        let summary = service.shutdown();
        assert_eq!(summary.completed as usize, accepted.len());
        assert_eq!(summary.rejected, rejected);
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
        let t = traces
            .iter()
            .find(|t| t.admit == AdmitOutcome::Queued && t.actual_ns > 0 && t.batch_len >= 1)
            .expect("no queued lifecycle trace was recorded");
        assert_eq!(t.coalesce, CoalesceKind::Solo);
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

        /// Cracks `specs` into the index and publishes the statistics, so
        /// every one of them prices as an exact hit from here on.
        fn converge(&self, specs: &[QuerySpec]) {
            for q in specs {
                self.inner.execute(q);
                let col = self.inner.sharded(q.attr);
                for k in 0..col.shard_count() {
                    col.shard(k).publish_stats();
                }
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
        fn execute_collect_snapshot(&self, q: &QuerySpec) -> SnapshotCollect {
            self.inner.execute_collect_snapshot(q)
        }
        fn estimate_cost(&self, q: &QuerySpec) -> Option<PlanCost> {
            self.estimates
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.estimate_cost(q)
        }
    }

    /// Queues `specs` on a fresh service's one queue, closes it and runs a
    /// dispatcher on this thread: exactly one drained batch, whatever the
    /// scheduler does. Returns the counts, in submission order.
    fn dispatch_one_batch(
        engine: Arc<dyn QueryEngine>,
        config: ServiceConfig,
        specs: &[QuerySpec],
    ) -> Vec<u64> {
        assert!(specs.len() <= config.batch_max.min(config.queue_capacity));
        let shared = Shared::new(engine, None, config);
        let tickets: Vec<Ticket> = specs
            .iter()
            .map(|&spec| {
                let ticket = Ticket::new();
                let queued = QueuedQuery {
                    spec,
                    sink: Sink::Direct(ticket.clone()),
                    enqueued: Instant::now(),
                };
                assert!(shared.queues[0].push(queued).is_ok());
                ticket
            })
            .collect();
        shared.queues[0].close();
        dispatch_loop(&shared, &shared.queues[0]);
        tickets
            .iter()
            .map(|t| t.try_result().expect("dispatcher left a ticket open").count)
            .collect()
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
        let counts = dispatch_one_batch(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            ServiceConfig::default(),
            &specs,
        );
        eng.inner.stop();
        for (q, count) in specs.iter().zip(counts) {
            assert_eq!(count, oracle(&data, q), "{q:?}");
        }
        // One estimate per distinct predicate orders the batch, and each
        // exact-hit head reuses it for the cutover: not one per member
        // plus one per head.
        assert_eq!(eng.estimates(), 3);
    }

    #[test]
    fn a_cracking_head_is_priced_again_before_it_executes() {
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
        let counts = dispatch_one_batch(
            Arc::clone(&eng) as Arc<dyn QueryEngine>,
            ServiceConfig::default(),
            &specs,
        );
        eng.inner.stop();
        for (q, count) in specs.iter().zip(counts) {
            assert_eq!(count, oracle(&data, q), "{q:?}");
        }
        // Five distinct predicates order the batch; the three whose price
        // promised cracking are read again at their heads.
        assert_eq!(eng.estimates(), 5 + 3);
    }

    #[test]
    fn a_fifo_bed_prices_only_when_someone_reads_the_price() {
        let _serial = TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let data = Dataset::new(uniform_table(1, 30_000, 10_000, 79));
        let specs: Vec<QuerySpec> = (0..6).map(|i| window(0, 1_000 * (i % 3 + 1))).collect();
        for (cutover, want) in [(false, 0), (true, specs.len())] {
            let eng = Counting::over(&data);
            let counts = dispatch_one_batch(
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
    fn coalesced_members_are_traced_by_their_position_in_the_run() {
        let _serial = TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let data = Dataset::new(uniform_table(4, 20_000, 10_000, 83));
        let eng = Counting::over(&data);
        let engine = || Arc::clone(&eng) as Arc<dyn QueryEngine>;
        let superset = QuerySpec {
            attr: 3,
            lo: 2_000,
            hi: 6_000,
        };
        let subset = QuerySpec {
            attr: 3,
            lo: 3_000,
            hi: 5_000,
        };
        let ring = holix_telemetry::registry().trace();
        holix_telemetry::set_trace_enabled(true);

        // Four identical submissions, one batch: one execution, three
        // members riding along.
        let watermark = ring.recorded();
        let counts = dispatch_one_batch(engine(), ServiceConfig::default(), &[superset; 4]);
        assert_eq!(counts, vec![oracle(&data, &superset); 4]);
        let traces = traces_since(watermark, 3);
        let kinds: Vec<CoalesceKind> = traces.iter().map(|t| t.coalesce).collect();
        assert_eq!(
            kinds,
            [
                CoalesceKind::Solo,
                CoalesceKind::Duplicate,
                CoalesceKind::Duplicate,
                CoalesceKind::Duplicate
            ]
        );
        assert!(traces[0].actual_ns > 0);
        assert!(traces.iter().all(|t| t.actual_ns == traces[0].actual_ns));

        // A superset, a strict subset and a repeat of the superset: the
        // repeat is a duplicate of the head, the subset was post-filtered.
        let watermark = ring.recorded();
        let counts = dispatch_one_batch(
            engine(),
            ServiceConfig::default(),
            &[superset, subset, superset],
        );
        holix_telemetry::set_trace_enabled(false);
        eng.inner.stop();
        assert_eq!(
            counts,
            [
                oracle(&data, &superset),
                oracle(&data, &subset),
                oracle(&data, &superset)
            ]
        );
        let kinds: Vec<CoalesceKind> = traces_since(watermark, 3)
            .iter()
            .map(|t| t.coalesce)
            .collect();
        assert_eq!(
            kinds,
            [
                CoalesceKind::Solo,
                CoalesceKind::Duplicate,
                CoalesceKind::Containment
            ]
        );
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
        let (_, eng) = engine(1_000, 100);
        let service = QueryService::start(eng, None, ServiceConfig::default());
        let session = service.session();
        service.shutdown();
        assert_eq!(
            session
                .submit(QuerySpec {
                    attr: 0,
                    lo: 0,
                    hi: 10
                })
                .err(),
            Some(SubmitError::Closed)
        );
    }
}
