//! # holix-workloads — data and query generators for the evaluation
//!
//! Everything §5 of the paper runs on:
//!
//! - [`data`] — uniformly distributed integer columns and multi-attribute
//!   tables (the synthetic microbenchmark data).
//! - [`patterns`] — the query patterns of Fig 10(a)–(d): Random, Skewed,
//!   Periodic, Sequential, plus attribute-selection distributions for the
//!   schema experiments of §5.4.
//! - [`skyserver`] — a synthetic trace reproducing the SkyServer access
//!   shape of Fig 10(e): exploration dwells on one region of the sky, then
//!   jumps (the logged trace is not redistributable).
//! - [`tpch`] — an SF-parameterised generator for the `lineitem`/`orders`
//!   columns touched by TPC-H Q1, Q6 and Q12, plus the random query-variant
//!   generators of §5.6.
//! - [`updates`] — the HFLV/LFHV mixed read/write streams of §5.7.
//! - [`traffic`] — multi-client traffic for the service layer: closed-loop
//!   sessions over per-client hot regions (§5.8 scaled to many sessions).

pub mod data;
pub mod patterns;
pub mod skyserver;
pub mod tpch;
pub mod traffic;
pub mod updates;

pub use patterns::{AttrDist, Pattern, QuerySpec, WorkloadSpec};
pub use traffic::{ArrivalProcess, ClientFocus, TimedQuery, TrafficSpec};
