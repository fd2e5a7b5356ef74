//! # holix-benchmark — the repo's one performance yardstick
//!
//! Four workloads, each a seed-generated operation stream driven through
//! the system's public interface only, every answer checked against a
//! precomputed oracle, every timing reported as the median over fixed-size
//! slices. See `benchmark/README.md` for why each workload exists and how
//! the metrics interact.

pub mod data;
pub mod layers;
pub mod ops;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod trace_report;
pub mod workloads;
