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
//!   per-piece latches,
//! - [`range_cell`] — the single `unsafe` building block: disjoint-range
//!   mutable access into one shared vector, guarded by piece latches,
//! - [`latch`] — piece-level read/write latches ([16, 17] in the paper):
//!   user queries block on a busy piece, holistic workers `try_lock` and
//!   re-pick a random pivot instead,
//! - [`column`] — [`CrackerColumn`]: the cracker column `ACRK` plus its
//!   cracker index, supporting concurrent query-driven cracking and
//!   background refinement,
//! - `row_ids` (crate-private) — what a shard keeps instead of a row-id
//!   array (its base and value range) and the pass that builds the array
//!   when a conjunction, a Ripple merge or a migration first asks for it,
//! - [`stochastic`] — stochastic cracking (auxiliary random crack inside the
//!   piece a query is about to crack, [21]),
//! - [`updates`] — pending insertions/deletions merged on-the-fly with the
//!   Ripple algorithm ([28]),
//! - [`sharding`] — horizontal range shards: one attribute split into S
//!   independently crackable [`CrackerColumn`]s with per-shard Ripple
//!   buffers, predicate fan-out, value-routed updates and versioned
//!   replans ([`ReplanAction`]) that rebuild only the split or merged
//!   shards,
//! - [`snapshot`] — immutable piece-table snapshots, replaced copy-on-write
//!   at piece granularity and handed to readers as `Arc`s from inside the
//!   column's pending mutex (a replaced version lives as long as its last
//!   reader), so count/sum/collect scans run without the structure lock
//!   while cracks and Ripple merges race,
//! - [`piece_stats`] — plan-time piece statistics: the [`PieceStats`]
//!   summary (boundary table, pending backlog, snapshot piece sizes) each
//!   column publishes for `holix-planner`'s cost model, read without any
//!   column lock,
//! - [`filter`] — per-shard point-membership Bloom filters: a lazily built
//!   [`PointFilter`] published through the same kind of cell as the
//!   plan-time statistics, so equality/IN probes on non-containing shards
//!   answer "empty" without cracking anything,
//! - [`kernels`] — block-at-a-time unpack / fused scan kernels for the
//!   bit-packed segment encodings: width-specialised portable inner loops
//!   with explicit AVX2 paths behind one-time runtime dispatch; and the
//!   AVX-512 compress-store bodies of the one-shard filter pass and the
//!   out-of-place crack passes, behind the same dispatch.

mod cell;
pub mod column;
pub mod crack;
pub mod filter;
pub mod index;
pub mod kernels;
pub mod latch;
pub mod partition;
pub mod piece_stats;
pub mod range_cell;
mod row_ids;
pub mod sharding;
pub mod snapshot;
pub mod stochastic;
pub mod updates;
pub mod vectorized;

pub use column::{CrackerColumn, RefineOutcome, Selection};
pub use filter::PointFilter;
pub use index::{BoundLookup, CrackerIndex};
pub use latch::PieceLatch;
pub use piece_stats::{PieceStats, SnapPieceStat};
pub use sharding::{ReplanAction, ShardPlan, ShardedColumn};
pub use snapshot::{PieceSnapshot, SnapshotScan};
pub use vectorized::{CrackScratch, RowLane};
