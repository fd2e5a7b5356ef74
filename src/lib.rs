//! # holix — Holistic Indexing in a Main-memory Column-store
//!
//! A from-scratch Rust reproduction of *Holistic Indexing in Main-memory
//! Column-stores* (Petraki, Idreos, Manegold — SIGMOD 2015): a column-store
//! with adaptive indexing (database cracking) whose physical design is
//! continuously refined in the background by an always-on tuning daemon that
//! spends idle CPU cycles on incremental index refinement.
//!
//! ## Quick start
//!
//! ```
//! use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
//! use holix::workloads::{data::uniform_table, WorkloadSpec};
//!
//! // A 4-attribute table of uniform integers.
//! let data = Dataset::new(uniform_table(4, 100_000, 1_000_000, 42));
//! let engine = HolisticEngine::new(data, HolisticEngineConfig::split_half(4));
//!
//! // Fire ad-hoc range queries; cracking + background refinement do the rest.
//! for q in WorkloadSpec::random(4, 50, 1_000_000, 7).generate() {
//!     let _count = engine.execute(&q);
//! }
//! let cycles = engine.stop(); // tuning-cycle records
//! println!("tuning cycles: {}", cycles.len());
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`storage`] | column-store substrate: columns, (parallel) range scans and sort |
//! | [`cracking`] | adaptive indexing: cracker columns/index, the one partition entry point (sequential and ganged vectorized kernels), latches, Ripple updates, piece snapshots |
//! | [`parallel`] | multi-core cracking baselines: the parallel partition behind PVDC/PVSDC, mP-CCGI |
//! | [`core`] | **holistic indexing**: index space, strategies W1–W4, CPU monitors, daemon |
//! | [`planner`] | crack-aware cost model: plan-time estimates, spanning decomposition, admission pricing |
//! | [`engine`] | the five query engines + TPC-H plans |
//! | [`server`] | the query service layer: sessions, admission control, crack-aware scheduling |
//! | [`telemetry`] | lock-free metrics registry, per-query trace ring, text exposition |
//! | [`workloads`] | data/query/traffic generators incl. synthetic SkyServer and TPC-H |

pub use holix_core as core;
pub use holix_cracking as cracking;
pub use holix_engine as engine;
pub use holix_parallel as parallel;
pub use holix_planner as planner;
pub use holix_server as server;
pub use holix_storage as storage;
pub use holix_telemetry as telemetry;
pub use holix_workloads as workloads;
