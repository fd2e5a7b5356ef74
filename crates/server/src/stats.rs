//! Service-level latency and throughput accounting.
//!
//! The dispatcher records one end-to-end latency sample (enqueue →
//! completion) per query it drains, a session one (submit → answer) per
//! exact hit it answered inline, plus counters for submissions, routing
//! and engine executions; [`StatsSummary`] condenses them into the
//! sustained-QPS and tail-latency numbers the service harnesses print.
//!
//! ## Registry-backed
//!
//! Every counter and the latency distribution live in the process-wide
//! `holix-telemetry` registry (labelled `svc="<instance>"`), so one text
//! exposition of a live service shows the same numbers the harness
//! summaries print. The per-completion hot path is lock-free: striped
//! counters plus a log-bucketed histogram replaced the old
//! `Mutex<Reservoir>` latency store (a measurable contention win under
//! concurrent completions); percentiles are now ≤ ~0.8% approximations
//! while the window maximum stays exact.
//!
//! ## Per-window reporting
//!
//! Harnesses interleave measured repetitions across service beds, so a
//! summary must cover *one rep window*, not the service's lifetime —
//! cumulative cutover/inline counters would make later reps look
//! better than earlier ones. [`ServiceStats::reset_window`] snapshots every
//! counter as the new baseline and starts a fresh latency window;
//! [`ServiceStats::summary`] reports counters relative to that baseline.
//! Lifetime totals stay available through the individual accessors.

use holix_telemetry::{Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// One full set of live service counters, registered in the
        /// process-wide telemetry registry under
        /// `server_<name>_total{svc="<instance>"}`.
        #[derive(Debug)]
        struct Counters {
            $($(#[$doc])* $name: Arc<Counter>,)*
        }

        /// Live values at the last window reset.
        #[derive(Debug, Default)]
        struct Baselines {
            $($name: AtomicU64,)*
        }

        impl Counters {
            fn register(svc: u64) -> Self {
                let reg = holix_telemetry::registry();
                Counters {
                    $($name: reg.counter(&format!(
                        concat!("server_", stringify!($name), "_total{{svc=\"{}\"}}"),
                        svc
                    )),)*
                }
            }

            /// Copies every live value into `base` (starts a new window).
            /// Release stores pair with the Acquire loads in
            /// [`ServiceStats::summary`]'s `windowed` closure: a summary
            /// that observes the new baseline also observes every live
            /// increment the baseline covered (each counter stripe is
            /// monotone, so read-read coherence keeps `live >= base`).
            fn store_into(&self, base: &Baselines) {
                $(base.$name.store(self.$name.get(), Ordering::Release);)*
            }
        }
    };
}

counters! {
    submitted,
    completed,
    /// Engine executions performed: one per queued query or decomposed
    /// part, one per inline answer.
    executed,
    /// Whole read-only queries the dispatcher routed through
    /// `execute_snapshot` because the cost model's snapshot/locked
    /// cutover said the snapshot read beat the locked crack.
    snapshot_cutover,
    /// Spanning queries cut into per-shard sub-queries (each counts once,
    /// however many parts it produced).
    decomposed,
    /// Per-shard sub-queries produced by decomposition.
    decomposed_parts,
    /// Decomposed parts a full queue pushed back onto the submitting
    /// client (inline execution — decomposition's backpressure).
    decomp_inline,
    /// Queries answered by `Session::submit` on the submitting thread:
    /// exact hits and filter-screened point probes, which crack and merge
    /// nothing. The name predates exact hits; the benchmark reads it.
    screened_inline,
    /// Worker time spent servicing drained batches, ns (busy-fraction
    /// numerator; denominator is `workers × wall`).
    busy_ns,
}

/// Shared counters + latency distribution for one service instance. The
/// dispatchers record the queries they drain; the session records a query
/// it answered at submit (an exact hit) as submitted, executed and
/// completed, with the inline answer's time as its latency.
#[derive(Debug)]
pub struct ServiceStats {
    live: Counters,
    /// Live values at the last [`ServiceStats::reset_window`].
    window: Baselines,
    /// End-to-end (enqueue → completion) latency, ns. Lock-free
    /// log-bucketed histogram in the registry (`server_latency{svc=..}`).
    latency: Arc<Histogram>,
    /// Live queue depth across the service's dispatch queues.
    queue_depth: Arc<Gauge>,
    /// Peak queue depth since the last window reset.
    queue_depth_peak: Arc<Gauge>,
}

impl Default for ServiceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceStats {
    /// Fresh, all-zero statistics registered under a fresh `svc` label
    /// (instances are numbered so concurrent service beds in one process
    /// never share a registry series).
    pub fn new() -> Self {
        static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);
        let svc = NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed);
        let reg = holix_telemetry::registry();
        ServiceStats {
            live: Counters::register(svc),
            window: Baselines::default(),
            latency: reg.histogram(&format!("server_latency{{svc=\"{svc}\"}}")),
            queue_depth: reg.gauge(&format!("server_queue_depth{{svc=\"{svc}\"}}")),
            queue_depth_peak: reg.gauge(&format!("server_queue_depth_peak{{svc=\"{svc}\"}}")),
        }
    }

    /// Records a query accepted into the queue.
    pub fn record_submitted(&self) {
        self.live.submitted.inc();
    }

    /// Records one engine execution.
    pub fn record_executed(&self) {
        self.live.executed.inc();
    }

    /// Records a spanning query cut into `parts` per-shard sub-queries.
    pub fn record_decomposed(&self, parts: usize) {
        self.live.decomposed.inc();
        self.live.decomposed_parts.add(parts as u64);
    }

    /// Records a decomposed part executed inline on the submitting client.
    pub fn record_decomp_inline(&self) {
        self.live.decomp_inline.inc();
    }

    /// Records a query answered at submit, on the submitting thread.
    pub(crate) fn record_inline(&self) {
        self.live.screened_inline.inc();
    }

    /// Records a whole read-only query the cost cutover routed through
    /// `execute_snapshot`.
    pub(crate) fn record_snapshot_cutover(&self) {
        self.live.snapshot_cutover.inc();
    }

    /// Records worker time spent servicing a drained batch.
    pub fn record_busy(&self, busy: Duration) {
        self.live.busy_ns.add(busy.as_nanos() as u64);
    }

    /// Records `n` queries entering the dispatch queues (raises the live
    /// queue-depth gauge and the window peak).
    pub fn queue_enqueued(&self, n: usize) {
        self.queue_depth.add(n as i64);
        self.queue_depth_peak.max(self.queue_depth.get());
    }

    /// Records `n` queries leaving the dispatch queues.
    pub fn queue_drained(&self, n: usize) {
        self.queue_depth.add(-(n as i64));
    }

    /// Live queue depth (submissions minus drains).
    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.get()
    }

    /// Peak queue depth since the last [`ServiceStats::reset_window`].
    pub fn queue_depth_peak(&self) -> i64 {
        self.queue_depth_peak.get()
    }

    /// Starts a fresh measurement window: every counter's current value
    /// becomes the new baseline and the latency window restarts, so the
    /// next [`ServiceStats::summary`] covers only what happened after this
    /// call. Harnesses call it per interleaved rep (and after warmup) so
    /// per-bed comparisons are never cumulative.
    pub fn reset_window(&self) {
        self.live.store_into(&self.window);
        self.latency.reset_window();
        self.queue_depth_peak.set(self.queue_depth.get());
    }

    /// Records a completed query with its enqueue-to-completion latency.
    /// Lock-free: one striped-counter add plus one histogram record.
    pub fn record_completed(&self, latency: Duration) {
        self.live.completed.inc();
        self.latency.record(latency.as_nanos() as u64);
    }

    /// Queries accepted over the service lifetime.
    pub fn submitted(&self) -> u64 {
        self.live.submitted.get()
    }

    /// Queries completed over the service lifetime.
    pub fn completed(&self) -> u64 {
        self.live.completed.get()
    }

    /// Summarises the current window (since the last
    /// [`ServiceStats::reset_window`], or service start) over `wall`
    /// elapsed time.
    pub fn summary(&self, wall: Duration) -> StatsSummary {
        let lat = self.latency.snapshot();
        // Baseline FIRST, live second: live counters only grow, and any
        // baseline is a past value of its live counter, so this order
        // guarantees `live >= base` even when a `reset_window` races the
        // two loads — the other order let a racing reset store a *newer,
        // larger* baseline between them, and the subtraction (saturating
        // today, wrapping originally) collapsed the window to zero or to
        // garbage. The `saturating_sub` stays as a belt for the one case
        // order cannot fix: two resets racing each other mid-summary.
        let windowed = |live: &Counter, base: &AtomicU64| {
            let base = base.load(Ordering::Acquire);
            live.get().saturating_sub(base)
        };
        let completed = windowed(&self.live.completed, &self.window.completed);
        StatsSummary {
            submitted: windowed(&self.live.submitted, &self.window.submitted),
            completed,
            rejected: 0,
            executed: windowed(&self.live.executed, &self.window.executed),
            containment: 0,
            snapshot_cutover: windowed(&self.live.snapshot_cutover, &self.window.snapshot_cutover),
            decomposed: windowed(&self.live.decomposed, &self.window.decomposed),
            decomposed_parts: windowed(&self.live.decomposed_parts, &self.window.decomposed_parts),
            decomp_inline: windowed(&self.live.decomp_inline, &self.window.decomp_inline),
            screened_inline: windowed(&self.live.screened_inline, &self.window.screened_inline),
            busy_ns: windowed(&self.live.busy_ns, &self.window.busy_ns),
            queue_depth_peak: self.queue_depth_peak.get(),
            wall,
            qps: if wall.is_zero() {
                0.0
            } else {
                completed as f64 / wall.as_secs_f64()
            },
            p50: Duration::from_nanos(lat.percentile(0.50)),
            p95: Duration::from_nanos(lat.percentile(0.95)),
            p99: Duration::from_nanos(lat.percentile(0.99)),
            max: Duration::from_nanos(lat.max),
        }
    }
}

/// Condensed service metrics for one measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSummary {
    /// Queries accepted into the queue.
    pub submitted: u64,
    /// Queries answered.
    pub completed: u64,
    /// Always 0 (the service never sheds); the benchmark still reports it.
    pub rejected: u64,
    /// Engine executions: one per queued query and one per inline answer,
    /// so equal to `completed` until decomposition splits a query, whose
    /// parts execute one each and make it exceed `completed`.
    pub executed: u64,
    /// Always 0 (every queued query executes on its own); the benchmark
    /// still reports it.
    pub containment: u64,
    /// Whole read-only queries routed through `execute_snapshot` by the
    /// cost model's snapshot/locked cutover.
    pub snapshot_cutover: u64,
    /// Spanning queries cut into per-shard sub-queries.
    pub decomposed: u64,
    /// Per-shard sub-queries produced by decomposition.
    pub decomposed_parts: u64,
    /// Decomposed parts executed inline on the submitting client.
    pub decomp_inline: u64,
    /// Queries answered at submit on the calling thread, never queued:
    /// exact hits and filter-screened point probes (also counted in
    /// `submitted`, `executed` and `completed`).
    pub screened_inline: u64,
    /// Worker time spent servicing drained batches in the window, ns.
    pub busy_ns: u64,
    /// Peak queue depth observed in the window.
    pub queue_depth_peak: i64,
    /// Wall time the summary covers.
    pub wall: Duration,
    /// Sustained completions per second over `wall`.
    pub qps: f64,
    /// Median end-to-end latency (log-bucketed: ≤ ~0.8% relative error).
    pub p50: Duration,
    /// 95th-percentile end-to-end latency (log-bucketed).
    pub p95: Duration,
    /// 99th-percentile end-to-end latency (log-bucketed).
    pub p99: Duration,
    /// Worst observed end-to-end latency (exact, not bucketed).
    pub max: Duration,
}

/// Nearest-rank percentile over an ascending-sorted sample set; zero when
/// empty. `q` is a fraction in `[0, 1]`.
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Log-bucketed percentiles are ≤ ~0.8% approximations; windowed
    /// equality asserts use this bound (the spec allows 2%).
    fn assert_close(got: Duration, want: Duration) {
        let (g, w) = (got.as_nanos() as f64, want.as_nanos() as f64);
        assert!(
            (g - w).abs() <= w * 0.02,
            "latency {got:?} outside 2% of {want:?}"
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&s, 0.50), ms(50));
        assert_eq!(percentile(&s, 0.95), ms(95));
        assert_eq!(percentile(&s, 0.99), ms(99));
        assert_eq!(percentile(&s, 1.0), ms(100));
        assert_eq!(percentile(&s, 0.0), ms(1)); // clamps to the first rank
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        assert_eq!(percentile(&[ms(7)], 0.99), ms(7));
    }

    #[test]
    fn summary_counts_and_qps() {
        let stats = ServiceStats::new();
        for i in 1..=10 {
            stats.record_submitted();
            stats.record_executed();
            stats.record_completed(ms(i));
        }
        let s = stats.summary(Duration::from_secs(2));
        assert_eq!(s.submitted, 10);
        assert_eq!(s.completed, 10);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.executed, 10);
        assert_eq!(s.containment, 0);
        assert!((s.qps - 5.0).abs() < 1e-9);
        assert_close(s.p50, ms(5));
        assert_eq!(s.max, ms(10), "window max is exact, not bucketed");
    }

    #[test]
    fn summary_on_empty_stats() {
        let s = ServiceStats::new().summary(Duration::ZERO);
        assert_eq!(s.completed, 0);
        assert_eq!(s.qps, 0.0);
        assert_eq!(s.p99, Duration::ZERO);
    }

    #[test]
    fn window_reset_rebases_every_counter() {
        let stats = ServiceStats::new();
        stats.record_submitted();
        stats.record_executed();
        stats.record_completed(ms(3));
        stats.record_decomposed(4);
        stats.record_decomp_inline();
        stats.record_busy(ms(2));
        stats.record_snapshot_cutover();
        stats.record_inline();
        let s = stats.summary(Duration::from_secs(1));
        assert_eq!(s.screened_inline, 1);
        assert_eq!((s.executed, s.decomposed, s.decomposed_parts), (1, 1, 4));
        assert_eq!(s.snapshot_cutover, 1);
        assert_eq!(s.busy_ns, ms(2).as_nanos() as u64);

        // Rep boundary: the next window starts at zero for EVERY counter
        // (and the latency window), while lifetime accessors keep the
        // totals.
        stats.reset_window();
        let s = stats.summary(Duration::from_secs(1));
        assert_eq!(s.completed, 0);
        assert_eq!(s.executed, 0);
        assert_eq!(s.decomposed, 0);
        assert_eq!(s.snapshot_cutover, 0);
        assert_eq!(s.screened_inline, 0);
        assert_eq!(s.busy_ns, 0);
        assert_eq!(s.p50, Duration::ZERO);
        assert_eq!(s.max, Duration::ZERO);
        assert_eq!(stats.completed(), 1, "lifetime totals survive the reset");
        assert_eq!(stats.submitted(), 1);

        // Work in the new window counts from the fresh baseline.
        stats.record_completed(ms(7));
        stats.record_executed();
        let s = stats.summary(Duration::from_secs(1));
        assert_eq!((s.completed, s.executed), (1, 1));
        assert_close(s.p50, ms(7));
        assert_eq!(s.max, ms(7));
    }

    #[test]
    fn summary_racing_reset_never_wraps_or_overshoots() {
        // Regression for the summary/reset window race: `windowed` used to
        // load the live counter BEFORE the baseline, so a reset storing a
        // newer, larger baseline between the two loads made the window
        // subtraction wrap (or, saturated, collapse spuriously). Loading
        // the baseline first keeps `live >= base` under any interleaving;
        // the hammer asserts every windowed count stays within the
        // lifetime total — a wrapped subtraction lands near `u64::MAX`
        // and trips the bound immediately.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let stats = Arc::new(ServiceStats::new());
        let stop = Arc::new(AtomicBool::new(false));
        const TOTAL: u64 = 200_000;

        // Half way through, the writer holds until a summary has raced it:
        // an optimised build otherwise finishes before the first one.
        let summarised = Arc::new(AtomicBool::new(false));
        let writer = {
            let (stats, summarised) = (Arc::clone(&stats), Arc::clone(&summarised));
            std::thread::spawn(move || {
                for i in 0..TOTAL {
                    while i == TOTAL / 2 && !summarised.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    stats.record_submitted();
                    stats.record_executed();
                }
            })
        };
        let resetter = {
            let (stats, stop) = (Arc::clone(&stats), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    stats.reset_window();
                }
            })
        };
        let mut summaries = 0u64;
        while !writer.is_finished() {
            let s = stats.summary(Duration::from_secs(1));
            assert!(
                s.submitted <= TOTAL && s.executed <= TOTAL,
                "windowed count exceeds lifetime total (wrapped subtraction): {s:?}"
            );
            summaries += 1;
            summarised.store(true, Ordering::Relaxed);
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        resetter.join().unwrap();
        assert!(summaries > 0, "hammer produced no concurrent summaries");
        assert_eq!(stats.submitted(), TOTAL, "lifetime totals stay exact");
    }

    #[test]
    fn latency_store_is_bounded_and_windowed() {
        // The histogram that replaced the reservoir is fixed-size however
        // long the stream runs, keeps tails within the error bound, and a
        // window reset isolates epochs completely.
        let stats = ServiceStats::new();
        for i in 0..100_000u64 {
            stats.record_completed(Duration::from_micros(1 + i % 1000));
        }
        let s = stats.summary(Duration::from_secs(1));
        assert_eq!(s.completed, 100_000);
        assert_close(s.p50, Duration::from_micros(500));
        assert_eq!(s.max, Duration::from_micros(1000));
        stats.reset_window();
        stats.record_completed(ms(9));
        let s = stats.summary(Duration::from_secs(1));
        assert_close(s.p50, ms(9));
        assert_eq!(s.max, ms(9), "pre-reset maximum must not leak");
    }

    #[test]
    fn queue_depth_and_busy_tracking() {
        let stats = ServiceStats::new();
        stats.queue_enqueued(3);
        stats.queue_enqueued(2);
        assert_eq!(stats.queue_depth(), 5);
        stats.queue_drained(4);
        assert_eq!(stats.queue_depth(), 1);
        assert_eq!(stats.queue_depth_peak(), 5, "peak survives the drain");
        stats.reset_window();
        assert_eq!(
            stats.queue_depth_peak(),
            1,
            "peak rebases to the live depth at the window boundary"
        );
        stats.record_busy(Duration::from_nanos(1234));
        assert_eq!(stats.summary(Duration::from_secs(1)).busy_ns, 1234);
    }

    #[test]
    fn instances_use_distinct_registry_series() {
        let a = ServiceStats::new();
        let b = ServiceStats::new();
        a.record_submitted();
        a.record_submitted();
        b.record_submitted();
        // Instances never share counters — a second bed in the same
        // process must not contaminate the first bed's series.
        assert_eq!(a.submitted(), 2);
        assert_eq!(b.submitted(), 1);
    }
}
