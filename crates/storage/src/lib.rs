//! # holix-storage — main-memory column-store substrate
//!
//! This crate is the MonetDB stand-in for the holistic-indexing reproduction:
//! the slice of a main-memory column-store kernel the engines actually run
//! on, following the Decomposition Storage Model. An attribute is a dense
//! array of `i64` values ([`Column`]); values of one tuple share the same
//! position ([`RowId`]) across all columns.
//!
//! Operators are implemented in an array-processing, bulk style with tight
//! loops over slices:
//!
//! - [`select`] / [`pscan`] — (parallel) range selection over a column,
//! - [`sort`] / [`psort`] — (parallel) order-preserving sort with row ids,
//!   plus binary-search selection over sorted columns (the "full indexing"
//!   baseline of the paper).
//!
//! The adaptive-indexing crates build on these primitives; nothing in this
//! crate knows about cracking or holistic tuning.

#![forbid(unsafe_code)]

pub mod column;
pub mod pscan;
pub mod psort;
pub mod select;
pub mod sort;
pub mod types;

pub use column::Column;
pub use select::{Predicate, RangeStats};
pub use sort::SortedColumn;
pub use types::RowId;
