//! # holix-parallel — multi-core adaptive indexing
//!
//! The multi-core baselines of §4.2 ("Multi-core Adaptive Indexing") and
//! §5.2 of the paper:
//!
//! - [`partition`] — parallel partition-and-merge: the kernel behind
//!   parallel vectorized cracking (Fig 4, from [44]). A piece is sliced,
//!   every slice is partitioned by its own thread, and a parallel merge
//!   swaps the misplaced middle regions into place. The module lives in
//!   `holix-cracking` (every cracker column reaches it through the one
//!   partition entry point) and is re-exported here under its old path.
//! - [`pvdc`] — **P**arallel **V**ectorized **D**atabase **C**racking:
//!   a [`holix_cracking::CrackerColumn`] whose query-path cracks gang
//!   several threads on the parallel partition.
//! - [`pvsdc`] — Parallel Vectorized **S**tochastic Database Cracking:
//!   PVDC plus one auxiliary random crack per query bound.
//! - [`ccgi`] — modified Parallel Chunked Coarse-Granular Index (mP-CCGI,
//!   from [8] extended with result consolidation as §5.2 describes).

pub mod ccgi;
pub mod pvdc;
pub mod pvsdc;

pub use ccgi::ChunkedCrackerColumn;
pub use holix_cracking::partition;
pub use partition::parallel_partition;
pub use pvdc::pvdc_column;
pub use pvsdc::select_pvsdc;
