//! # holix-engine — query engines over the column store
//!
//! One engine per indexing approach compared in §5 (Table 1 / Fig 6):
//!
//! - [`scan`] — no indexing: every query scans the column with all threads,
//! - [`offline`] — all columns pre-sorted (cost charged to the first query,
//!   as in the paper's "zero idle time" scenario); binary-search selects,
//! - [`online`] — scans for the first `K` queries, then sorts the columns
//!   (cost charged to query `K+1`); binary-search selects afterwards,
//! - [`adaptive`] — database cracking (sequential, PVDC or PVSDC kernels),
//! - [`holistic`] — adaptive indexing plus the always-on tuning daemon of
//!   `holix-core`,
//! - [`sideways`] — cracker maps (selection attribute permuted together with
//!   projection attributes, after \[29\]) for the TPC-H comparison,
//! - [`tpch`] — physical plans for TPC-H Q1/Q6/Q12 over four engine kinds.
//!
//! All engines answer the same [`api::QueryEngine`] interface and are
//! verified against scan oracles in the integration tests. Multi-client
//! serving (§5.8) lives in `holix-server`: the engines stay the execution
//! interface, the service layer owns sessions, admission and scheduling.

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod api;
pub mod holistic;
pub mod offline;
pub mod online;
pub mod scan;
pub mod sideways;
pub mod tpch;

pub use adaptive::{AdaptiveEngine, CrackMode};
pub use api::{Capabilities, Dataset, QueryEngine};
pub use holistic::{HolisticEngine, HolisticEngineConfig};
pub use offline::OfflineEngine;
pub use online::OnlineEngine;
pub use scan::ScanEngine;
