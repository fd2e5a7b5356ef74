//! # holix-telemetry — lock-free metrics + per-query tracing
//!
//! The paper's holistic daemon is driven entirely by continuous
//! self-observation (`f_I` access frequencies, idle-time integrals,
//! per-cycle refinement budgets). This crate makes that observation a
//! first-class, process-wide facility instead of four disconnected harness
//! printouts:
//!
//! - [`Counter`] — striped atomic counter (one cache-line-padded stripe per
//!   slot, threads hash to stripes) so concurrent completions never bounce
//!   one line.
//! - [`Gauge`] / [`FloatGauge`] — last-value instruments for queue depth,
//!   EWMA channels, busy fractions.
//! - [`Histogram`] — log-bucketed (HDR-style) latency histogram: exact below
//!   128, then 64 sub-buckets per power of two (≤ ~0.8% relative error,
//!   within the ≤2% spec), with windowed snapshots that mirror the
//!   `reset_window`/`summary` discipline of `ServiceStats`.
//! - [`TraceRing`] — bounded lock-free (seqlock-slotted) ring of
//!   [`QueryTrace`] records: one per query lifecycle, carrying admit
//!   decision, queue wait, batch/coalesce context, route taken, plan
//!   version and the predicted-vs-actual `PlanCost` residual.
//! - [`Registry`] — the process-wide name → instrument map behind
//!   [`registry()`], with a Prometheus-style text [`Registry::expose`]
//!   (`name{label="v"} value`).
//!
//! Runtime gating: `HOLIX_METRICS` (default **on**) gates layer
//! instrumentation, `HOLIX_TRACE` (default **off**) gates the trace ring.
//! Both are a single relaxed atomic load on the hot path and can be flipped
//! programmatically ([`set_metrics_enabled`], [`set_trace_enabled`]) so one
//! process can measure enabled-vs-disabled runs (the benchmark suite's
//! `trace.overhead_ratio`).
//!
//! Registration is the cold path (a mutex-guarded map); hot paths cache
//! `Arc` handles — the [`counter!`]/[`gauge!`]/[`float_gauge!`]/
//! [`histogram!`] macros do this per call site with a `OnceLock`.

pub mod histogram;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, FloatGauge, Gauge};
pub use registry::{registry, Registry};
pub use trace::{AdmitOutcome, CoalesceKind, QueryTrace, TraceRing, TraceRoute};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

fn env_flag(key: &str, default: bool) -> bool {
    match std::env::var(key) {
        Err(_) => default,
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off" | "no" | ""),
    }
}

fn metrics_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| AtomicBool::new(env_flag("HOLIX_METRICS", true)))
}

fn trace_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| AtomicBool::new(env_flag("HOLIX_TRACE", false)))
}

/// Whether layer instrumentation should record into the registry
/// (`HOLIX_METRICS`, default on). One relaxed load.
#[inline]
pub fn metrics_enabled() -> bool {
    metrics_flag().load(Ordering::Relaxed)
}

/// Whether per-query traces should be recorded (`HOLIX_TRACE`, default
/// off). One relaxed load.
#[inline]
pub fn trace_enabled() -> bool {
    trace_flag().load(Ordering::Relaxed)
}

/// Programmatic override of `HOLIX_METRICS` — a harness that measures
/// enabled and disabled runs in one process cannot use the env knob.
pub fn set_metrics_enabled(on: bool) {
    metrics_flag().store(on, Ordering::Relaxed);
}

/// Programmatic override of `HOLIX_TRACE`.
pub fn set_trace_enabled(on: bool) {
    trace_flag().store(on, Ordering::Relaxed);
}

/// Per-call-site cached counter handle: registration once, then a single
/// pointer load per use.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::registry().counter($name)))
    }};
}

/// Per-call-site cached gauge handle.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::registry().gauge($name)))
    }};
}

/// Per-call-site cached float-gauge handle.
#[macro_export]
macro_rules! float_gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::FloatGauge>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::registry().float_gauge($name)))
    }};
}

/// Per-call-site cached histogram handle.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::registry().histogram($name)))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_flag_parsing() {
        assert!(env_flag("HOLIX_TEST_UNSET_FLAG_XYZ", true));
        assert!(!env_flag("HOLIX_TEST_UNSET_FLAG_XYZ", false));
    }

    #[test]
    fn programmatic_toggles_override() {
        // Whatever the env said, the setters win and are observable.
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
        set_metrics_enabled(true);
        assert!(metrics_enabled());
        set_trace_enabled(true);
        assert!(trace_enabled());
        set_trace_enabled(false);
        assert!(!trace_enabled());
    }

    #[test]
    fn macros_cache_one_handle_per_site() {
        let a = counter!("lib_macro_cache_total") as *const Counter;
        let b = counter!("lib_macro_cache_total") as *const Counter;
        assert_eq!(a, b);
        counter!("lib_macro_cache_total").inc();
        assert_eq!(registry().counter("lib_macro_cache_total").get(), 1);
    }
}
