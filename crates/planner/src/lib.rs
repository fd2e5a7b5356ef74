//! # holix-planner — a crack-aware cost model for plan-time decisions
//!
//! The holistic daemon (holix-core) decides *what to refine* from observed
//! query weights; this crate decides *how to run* each query, from the same
//! underlying signal read at plan time: the cracker index's piece table.
//! Hippo (partial-index page summaries) and ByteStore (per-column layout
//! costs) show that cheap maintained statistics are enough to pick the
//! fast access path online — and a cracker index *is* that statistic, we
//! only have to read it without perturbing the execute path.
//!
//! - [`cost`] — [`PlanCost`]: price a predicate against a shard's
//!   published [`holix_cracking::PieceStats`] (no column lock: the
//!   summaries are `Arc`s out of a leaf-locked cell) — one lookup per
//!   bound per table, four binary searches in all. Prices crack work (edge
//!   pieces to partition) and result size (equi-depth row estimate) vs
//!   snapshot-refresh debt (edge-piece filter + decode), and derives the
//!   decisions the service layer needs:
//!   * the **snapshot/locked cutover** ([`PlanCost::preferred_route`]):
//!     read-only queries route through the snapshot path exactly
//!     when its edge pieces are fresh enough to beat the locked crack;
//!   * the **admission price** ([`PlanCost::price`]): exact-hit /
//!     near-optimal queries are [`QueryPrice::Cheap`] and must never be
//!     shed, cold wide cracks are [`QueryPrice::Expensive`] and may be
//!     shed — or served inline from the snapshot when
//!     [`PlanCost::downgradable`].
//! - [`decompose`] — [`decompose_spanning`]: cut a multi-shard range at
//!   the shard plan's boundaries into per-shard sub-queries so wide scans
//!   never break shard/worker affinity; `holix-server` completes them
//!   under one merge ticket.
//! - [`replan`] — [`propose_replan`]: decide from per-shard loads (rows +
//!   pending backlog) whether the daemon should split a hot shard or
//!   merge two cold neighbours; the migration itself is
//!   `ShardedColumn::apply_replan` in holix-cracking.
//! - [`calibrate`] — [`Calibrator`]: regress observed service time
//!   against the admitted [`PlanCost`] and republish a [`CostModel`]
//!   whose knobs are nudged inside `[seed/4, seed*4]` guard rails.
//!
//! Everything here is a pure function of immutable published summaries:
//! no structure lock, no maintenance lock, no allocation beyond the
//! returned values — admission control can call it on every submission.

pub mod calibrate;
pub mod cost;
pub mod decompose;
pub mod replan;

pub use calibrate::{Calibrator, ResidualChannel};
pub use cost::{estimate, CostModel, PlanCost, QueryPrice, Route};
pub use decompose::decompose_spanning;
pub use replan::{load_skew, propose_replan, ReplanPolicy, ShardLoad};
