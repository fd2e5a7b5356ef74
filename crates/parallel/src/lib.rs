//! # holix-parallel — multi-core adaptive indexing
//!
//! The multi-core baselines of §4.2 ("Multi-core Adaptive Indexing") and
//! §5.2 of the paper:
//!
//! - [`partition`] — parallel partition-and-merge: the kernel behind
//!   parallel vectorized cracking (Fig 4, from \[44\]). A piece is sliced,
//!   every slice is partitioned by its own thread, and a parallel merge
//!   swaps the misplaced middle regions into place. The module lives in
//!   `holix-cracking` (every cracker column reaches it through the one
//!   partition entry point) and is re-exported here under its old path.
//! - PVDC (**P**arallel **V**ectorized **D**atabase **C**racking) is a
//!   plain [`holix_cracking::CrackerColumn`] built with a query-path
//!   thread budget above one (`from_base(..).with_threads(t, 1)`): all
//!   user-query threads gang up on the one piece a query cracks. PVSDC
//!   adds one auxiliary random crack per query bound
//!   ([`holix_cracking::stochastic::select_stochastic`]).
//! - [`ccgi`] — modified Parallel Chunked Coarse-Granular Index (mP-CCGI,
//!   from \[8\] extended with result consolidation as §5.2 describes).

#![forbid(unsafe_code)]

pub mod ccgi;

pub use ccgi::ChunkedCrackerColumn;
pub use holix_cracking::partition;
pub use partition::parallel_partition;
