//! CPU-utilisation monitoring (§4.1 "CPU Utilization").
//!
//! The tuning cycle consumes a single signal: *how many hardware contexts
//! were idle over the last sampling window*. [`LoadAccountant`] provides
//! it by deterministic logical accounting: the engine registers every
//! running user-query task; idle = total − busy (PAPER.md, "The tuning
//! daemon"). Tests substitute other sources through [`CpuMonitor`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Source of the "n idle hardware contexts" signal. Implementations block
/// for approximately `window` so the daemon's cycle cadence matches the
/// paper's "monitors the CPU load at intervals of 1 second".
pub trait CpuMonitor: Send + Sync {
    /// Hardware contexts the machine (or the experiment) exposes.
    fn total_contexts(&self) -> usize;

    /// Blocks ~`window`, then reports idle contexts observed.
    fn idle_contexts(&self, window: Duration) -> usize;
}

/// Cache-line-isolated stripes; per-thread assignment keeps a query's
/// begin/end on the same uncontended line.
const STRIPES: usize = 16;

/// One stripe of the busy-time integral. The three counters together let
/// the monitor reconstruct the exact busy-context-nanosecond integral at
/// any instant `T`:
///
/// `integral(T) = busy_ns + level·T − start_weight_ns`
///
/// where completed tasks contribute their full `contexts·elapsed` to
/// `busy_ns` at drop time and in-flight tasks contribute `contexts·(T −
/// start)` through the `level`/`start_weight_ns` pair. The triple must be
/// read and written as a unit — a fold observing `level` updated but not
/// `start_weight_ns` would be off by `contexts·T`, an error that *grows
/// with uptime* — so each stripe is a tiny mutex, not loose atomics.
/// Per-thread striping keeps that mutex uncontended on the hot path (the
/// only cross-thread lockers are the monitor's fold, once per daemon
/// cycle, and the rare guard dropped on a different thread).
#[repr(align(64))]
#[derive(Default)]
struct Stripe {
    inner: Mutex<StripeInner>,
}

#[derive(Default, Clone, Copy)]
struct StripeInner {
    /// Σ contexts·ns over *completed* tasks.
    busy_ns: i64,
    /// Contexts of currently-running tasks on this stripe.
    level: i64,
    /// Σ contexts·start_ns over *in-flight* tasks.
    start_weight_ns: i64,
}

impl Stripe {
    fn lock(&self) -> std::sync::MutexGuard<'_, StripeInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

thread_local! {
    /// Stable per-thread stripe index (round-robin assigned on first use).
    static MY_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// Deterministic logical load tracker.
///
/// User-query execution paths hold a [`TaskGuard`] while running; the
/// monitor reports `total − busy`, where busy is the *time-averaged* busy
/// context count over the sampling window (like the paper's utilisation
/// monitor), not an instantaneous snapshot — a microsecond lull between
/// batches must not read as an idle machine.
///
/// Contention-free: `begin_task` and the guard's drop touch only the
/// calling thread's own stripe (an uncontended per-stripe mutex), so the
/// twice-per-query accounting never serialises queries on a shared lock —
/// the ROADMAP's "per-thread accumulators folded at `idle_contexts` time".
/// The daemon folds all stripes once per monitor cycle; each stripe's
/// triple is read under its lock, so the integral is exact. Nanosecond
/// weights use `i64`: with ≤ a few hundred contexts the integral stays in
/// range for years of uptime.
pub struct LoadAccountant {
    total: usize,
    /// Time origin for the `_ns` clocks.
    epoch: Instant,
    stripes: [Stripe; STRIPES],
}

impl LoadAccountant {
    /// Tracker for `total` hardware contexts.
    pub fn new(total: usize) -> Arc<Self> {
        Arc::new(LoadAccountant {
            total: total.max(1),
            epoch: Instant::now(),
            stripes: Default::default(),
        })
    }

    fn now_ns(&self) -> i64 {
        self.epoch.elapsed().as_nanos() as i64
    }

    /// Marks `contexts` hardware contexts busy until the guard drops.
    pub fn begin_task(self: &Arc<Self>, contexts: usize) -> TaskGuard {
        let stripe = MY_STRIPE.with(|s| *s);
        let start_ns = self.now_ns();
        let c = contexts as i64;
        {
            let mut s = self.stripes[stripe].lock();
            s.level += c;
            s.start_weight_ns += c * start_ns;
        }
        TaskGuard {
            acc: Arc::clone(self),
            contexts,
            stripe,
            start_ns,
        }
    }

    fn end_task(&self, contexts: usize, stripe: usize, start_ns: i64) {
        let c = contexts as i64;
        let elapsed = (self.now_ns() - start_ns).max(0);
        let mut s = self.stripes[stripe].lock();
        s.busy_ns += c * elapsed;
        s.level -= c;
        s.start_weight_ns -= c * start_ns;
    }

    /// Currently busy contexts (instantaneous): the folded stripe levels —
    /// the same source of truth the averaged monitor integrates.
    pub fn busy(&self) -> usize {
        let level: i64 = self.stripes.iter().map(|s| s.lock().level).sum();
        level.max(0) as usize
    }

    /// Busy-context-nanosecond integral at `now_ns`, folded across stripes.
    fn integral_at(&self, now_ns: i64) -> i64 {
        self.stripes
            .iter()
            .map(|s| {
                let s = s.lock();
                s.busy_ns + s.level * now_ns - s.start_weight_ns
            })
            .sum()
    }
}

impl CpuMonitor for LoadAccountant {
    fn total_contexts(&self) -> usize {
        self.total
    }

    fn idle_contexts(&self, window: Duration) -> usize {
        if window.is_zero() {
            // Degenerate window: fall back to the instantaneous level.
            return self.total.saturating_sub(self.busy());
        }
        let t0 = self.now_ns();
        let acc0 = self.integral_at(t0);
        std::thread::sleep(window);
        let t1 = self.now_ns();
        let acc1 = self.integral_at(t1);
        if t1 <= t0 {
            return self.total.saturating_sub(self.busy());
        }
        let avg_busy = (acc1 - acc0).max(0) as f64 / (t1 - t0) as f64;
        self.total.saturating_sub(avg_busy.round() as usize)
    }
}

/// RAII registration of a running user task.
pub struct TaskGuard {
    acc: Arc<LoadAccountant>,
    contexts: usize,
    stripe: usize,
    start_ns: i64,
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        self.acc.end_task(self.contexts, self.stripe, self.start_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accountant_tracks_guards() {
        let acc = LoadAccountant::new(8);
        assert_eq!(acc.idle_contexts(Duration::ZERO), 8);
        let g1 = acc.begin_task(2);
        let g2 = acc.begin_task(3);
        assert_eq!(acc.busy(), 5);
        assert_eq!(acc.idle_contexts(Duration::ZERO), 3);
        drop(g1);
        assert_eq!(acc.idle_contexts(Duration::ZERO), 5);
        drop(g2);
        assert_eq!(acc.idle_contexts(Duration::ZERO), 8);
    }

    #[test]
    fn accountant_averages_load_over_the_window() {
        // 4 contexts busy for ~the first half of the window, idle after:
        // the monitor must report the average (~2 idle), not the
        // instantaneous level at the end of the window (4 idle). Generous
        // durations keep the ratio stable under test-runner contention.
        let acc = LoadAccountant::new(4);
        let guard = acc.begin_task(4);
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            drop(guard);
        });
        let idle = acc.idle_contexts(Duration::from_millis(400));
        dropper.join().unwrap();
        assert!(
            (1..=3).contains(&idle),
            "expected ~2 idle from a half-busy window, got {idle}"
        );
    }

    #[test]
    fn accountant_saturates_on_oversubscription() {
        let acc = LoadAccountant::new(2);
        let _g = acc.begin_task(5);
        assert_eq!(acc.idle_contexts(Duration::ZERO), 0);
    }

    #[test]
    fn accountant_is_thread_safe() {
        let acc = LoadAccountant::new(64);
        let mut handles = Vec::new();
        for _ in 0..16 {
            let acc = Arc::clone(&acc);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let _g = acc.begin_task(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(acc.busy(), 0);
    }

    #[test]
    fn guards_moved_across_threads_settle_exactly() {
        // A guard taken on one thread and dropped on another must credit
        // its stripe correctly: levels return to zero and the integral
        // stops growing once everything is dropped.
        let acc = LoadAccountant::new(8);
        let mut guards = Vec::new();
        for _ in 0..5 {
            guards.push(acc.begin_task(1));
        }
        let acc2 = Arc::clone(&acc);
        std::thread::spawn(move || drop(guards)).join().unwrap();
        assert_eq!(acc2.busy(), 0);
        let a = acc2.integral_at(acc2.now_ns());
        std::thread::sleep(Duration::from_millis(10));
        let b = acc2.integral_at(acc2.now_ns());
        assert_eq!(a, b, "integral grew with no live guards");
        assert_eq!(acc2.idle_contexts(Duration::ZERO), 8);
    }

    #[test]
    fn striped_integral_matches_known_load() {
        // 3 contexts held for the whole window from three different
        // threads: the averaged monitor must report exactly 1 idle.
        let acc = LoadAccountant::new(4);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let holders: Vec<_> = (0..3)
            .map(|_| {
                let acc = Arc::clone(&acc);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let _g = acc.begin_task(1);
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
            })
            .collect();
        // Wait until all three registered.
        while acc.busy() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let idle = acc.idle_contexts(Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        for h in holders {
            h.join().unwrap();
        }
        assert_eq!(idle, 1, "expected exactly one idle context");
    }
}
