//! # holix-cracking — adaptive indexing (database cracking) substrate
//!
//! This crate implements the adaptive-indexing machinery of §3.2 and §4.2 of
//! the paper:
//!
//! - [`crack`] / [`vectorized`] — in-place (reference) and out-of-place
//!   (vectorized) crack kernels that partition a piece of a column around
//!   pivots; the out-of-place ones move row ids beside the values or values
//!   alone ([`RowLane`]),
//! - [`partition`] — the one entry point every crack goes through:
//!   sequential vectorized kernel on the caller's scratch for short pieces
//!   or a thread budget of one, parallel partition-and-merge (Fig 4)
//!   otherwise,
//! - [`index`] — the *cracker index*: piece boundaries in std's `BTreeMap`
//!   (the paper's AVL tree, §3.2, with the same ordered-map contract) and
//!   per-piece latches; it is also the only plan-time statistic:
//!   `holix-planner` prices a query from two of its lookups under one
//!   read ([`CrackerColumn::with_index`]),
//! - [`range_cell`] — disjoint-range mutable access into one shared
//!   vector, guarded by piece latches: the `unsafe` building block of the
//!   column's cells, reached only through `holds`,
//! - [`latch`] — piece-level read/write latches ([16, 17] in the paper):
//!   user queries block on a busy piece, holistic workers `try_lock` and
//!   re-pick a random pivot instead,
//! - [`mod@column`] — [`CrackerColumn`]: the cracker column `ACRK` plus its
//!   cracker index, supporting concurrent query-driven cracking and
//!   background refinement, and count/sum snapshot reads answered from the
//!   cracked column itself — its pieces' prefix sums inside the range, its
//!   two edge pieces filtered under their latches,
//! - `row_ids` (crate-private) — what a shard keeps instead of a row-id
//!   array (its base, its value range and its merges' write log) and the
//!   pass that builds the array when a conjunction or a migration first
//!   asks for it,
//! - [`stochastic`] — stochastic cracking (auxiliary random crack inside the
//!   piece a query is about to crack, \[21\]),
//! - [`updates`] — pending insertions/deletions, counted by reads and
//!   merged in batches with the Ripple algorithm (\[28\]),
//! - [`sharding`] — horizontal range shards: one attribute split into S
//!   independently crackable [`CrackerColumn`]s with per-shard Ripple
//!   buffers, predicate fan-out, value-routed updates and versioned
//!   replans ([`ReplanAction`]) that rebuild only the split or merged
//!   shards,
//! - [`filter`] — per-shard point-membership Bloom filters: a lazily built
//!   [`PointFilter`], set once and probed without a lock, so equality/IN
//!   probes on non-containing shards answer "empty" without cracking
//!   anything,
//! - [`kernels`] — the lane filter of a snapshot read's edge pieces
//!   (portable, AVX2 and AVX-512 behind one-time runtime dispatch), the
//!   AVX-512 compress-store bodies of the one-shard filter pass and the
//!   out-of-place crack passes, behind the same dispatch, and the
//!   bit-packing unpack and filter kernels the micro-benchmarks probe.

pub mod column;
pub mod crack;
pub mod filter;
mod holds;
pub mod index;
pub mod kernels;
pub mod latch;
pub mod partition;
pub mod range_cell;
mod row_ids;
pub mod sharding;
pub mod stochastic;
pub mod updates;
pub mod vectorized;

pub use column::{CrackerColumn, RefineOutcome, Selection, SnapshotScan};
pub use filter::PointFilter;
pub use index::{BoundLookup, CrackerIndex};
pub use latch::PieceLatch;
pub use sharding::{ReplanAction, ShardPlan, ShardedColumn};
pub use vectorized::{CrackScratch, RowLane};
