//! # holix-planner — a crack-aware cost model for plan-time decisions
//!
//! The holistic daemon (holix-core) decides *what to refine* from observed
//! query weights; this crate decides *how to run* each query, from the same
//! underlying signal read at plan time: the cracker index's piece table.
//! Hippo (partial-index page summaries) and ByteStore (per-column layout
//! costs) show that cheap maintained statistics are enough to pick the
//! fast access path online — and a cracker index *is* that statistic: the
//! planner reads the live index, not a copy of it.
//!
//! - [`cost`] — [`PlanCost`]: price a predicate against a shard's live
//!   cracker index — both bounds looked up under one index read
//!   ([`holix_cracking::CrackerColumn::with_index`]) plus the length of
//!   the update queue. Prices crack work (edge pieces to
//!   partition; a snapshot read filters the same pieces), result size
//!   (equi-depth row estimate) and merge debt, and derives the decisions
//!   the service layer needs:
//!   * the **snapshot/locked cutover** ([`PlanCost::preferred_route`]):
//!     read-only queries route through the snapshot path exactly when
//!     the merge debt the locked path would pay first (a queue past the
//!     backlog) outweighs the snapshot's fixed term per touched shard;
//!   * the **price class** ([`PlanCost::price`]): exact-hit /
//!     near-optimal queries are [`QueryPrice::Cheap`], run whole and
//!     drain first in a batch; cold wide cracks are
//!     [`QueryPrice::Expensive`], and a spanning one is decomposed.
//! - [`decompose`] — [`decompose_spanning`]: cut a multi-shard range at
//!   the shard plan's boundaries into per-shard sub-queries so wide scans
//!   never break shard/worker affinity; `holix-server` completes them
//!   under one merge ticket.
//! - [`replan`] — [`propose_replan`]: decide from per-shard loads (rows +
//!   pending backlog) whether the daemon should split a hot shard or
//!   merge two cold neighbours; the migration itself is
//!   `ShardedColumn::apply_replan` in holix-cracking.
//! - [`calibrate`] — [`Calibrator`]: regress observed service time
//!   against the executed query's [`PlanCost`] and republish a
//!   [`CostModel`] whose knobs are nudged inside `[seed/4, seed*4]` guard
//!   rails.
//!
//! A price takes a shard's index read lock and then its pending mutex, one
//! lookup each and never nested: no structure lock, no maintenance lock, no
//! allocation beyond the returned values. It waits only for a Ripple walk
//! of the shard it prices, which the read it prices waits for too. The
//! rest of the crate is pure functions of its inputs.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod cost;
pub mod decompose;
pub mod replan;

pub use calibrate::{Calibrator, ResidualChannel};
pub use cost::{estimate, CostModel, PlanCost, QueryPrice, Route};
pub use decompose::decompose_spanning;
pub use replan::{load_skew, propose_replan, ReplanPolicy, ShardLoad};
