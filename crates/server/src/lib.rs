//! # holix-server — the concurrent query service layer
//!
//! The paper's §5.8 drives one engine from many concurrent clients and
//! shows holistic indexing absorbing rising load by scaling its workers
//! down. This crate is that serving substrate, grown past the paper's
//! round-robin harness into a small production-shaped service:
//!
//! - [`session`] — session registry plus completion tickets, so any number
//!   of client threads can submit queries and block on answers.
//! - [`queue`] — the bounded submission queue: a full queue blocks the
//!   submitting client (closed-loop backpressure); nothing is shed.
//! - [`batcher`] — crack-aware batch ordering: queries are grouped per
//!   column and sorted by predicate bounds (widest range first on ties) so
//!   consecutive predicates land in already-cracked or adjacent pieces,
//!   and priced once per distinct predicate so cheap work drains first;
//!   each query executes once.
//! - [`dispatcher`] — the worker pool draining the queue(s), executing
//!   against any [`holix_engine::api::QueryEngine`], and registering its
//!   thread usage with the [`holix_core::cpu::LoadAccountant`] so the
//!   holistic daemon sees the service's true load. Shard-affine mode pins
//!   each `routing_key` (attribute shard) to one worker over per-worker
//!   queues, so no two dispatchers latch the same shard.
//! - [`stats`] — sustained-QPS and p50/p95/p99 latency accounting.
//! - [`harness`] — the §5.8 multi-client driver, superseding
//!   `holix_engine::session`.

#![forbid(unsafe_code)]

pub mod batcher;
pub mod dispatcher;
pub mod harness;
pub mod queue;
pub mod session;
pub mod stats;

pub use batcher::Scheduling;
pub use dispatcher::{DecomposePolicy, QueryService, ServiceConfig, Session};
pub use harness::{run_clients, ClientReport};
pub use holix_planner::{Calibrator, CostModel};
pub use queue::{AdmissionPolicy, BoundedQueue, SubmitError};
pub use session::{QueryResult, SessionRegistry, Ticket};
pub use stats::{percentile, ServiceStats, StatsSummary};
