//! # holix-core — holistic indexing
//!
//! The primary contribution of the paper (§4): an always-on, self-organising
//! tuning layer that monitors the workload and CPU utilisation and spends
//! idle CPU cycles on incremental refinement of adaptive indices.
//!
//! - [`config`] — tuning knobs: |L1|, refinements per worker (`x`), monitor
//!   interval, storage budget, strategy.
//! - [`stats`] — per-index workload statistics (`f_I`, `f_Ih`, refinement
//!   counters) collected by the select operator.
//! - [`weight_heap`] — the updatable "heap structure (one node per index)"
//!   that orders candidate indices by weight.
//! - [`strategy`] — the four index-decision strategies W1–W4.
//! - [`handle`] — type-erased [`handle::RefinableIndex`] adapter so one
//!   index space can hold cracker columns of any value type.
//! - [`index_space`] — `C_actual` / `C_potential` / `C_optimal` membership,
//!   weight maintenance, storage budget with LFU eviction.
//! - [`cpu`] — the CPU-utilisation signal: deterministic load accounting
//!   behind the [`CpuMonitor`] trait.
//! - [`worker`] — the IdleFunction a holistic worker runs (Fig 2).
//! - [`daemon`] — the holistic indexing thread: monitor → activate workers →
//!   wait → repeat, with per-cycle records (Fig 6d).

pub mod config;
pub mod cpu;
pub mod daemon;
pub mod handle;
pub mod index_space;
pub mod stats;
pub mod strategy;
pub mod weight_heap;
pub mod worker;

pub use config::HolisticConfig;
pub use cpu::{CpuMonitor, LoadAccountant};
pub use daemon::{CycleRecord, HolisticDaemon};
pub use handle::{CrackerHandle, RefinableIndex, RefineResult, WorkerScratch};
pub use index_space::{IndexSlot, IndexSpace, Membership};
pub use stats::IndexStats;
pub use strategy::Strategy;
