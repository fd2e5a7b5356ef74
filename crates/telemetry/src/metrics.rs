//! Striped counters and gauges.
//!
//! A counter is the hot instrument: every completion, crack and merge
//! increments one. A single `AtomicU64` would serialise all
//! recorders on one cache line, so the counter is striped — each thread
//! hashes to one of [`STRIPES`] cache-line-padded slots and only readers
//! (exposition, windowed summaries) touch them all. Each stripe is
//! monotone non-decreasing, so a sum read *after* another sum (with the
//! acquire/release pairing below) can only be larger — the property the
//! windowed `live - base` discipline in `holix-server` relies on.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Stripe count; power of two, sized for small machines (the container is
/// often 1–4 cores) while still spreading a 16-thread service.
pub const STRIPES: usize = 16;

/// One cache line per stripe so neighbouring stripes never false-share.
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

#[inline]
fn stripe_index() -> usize {
    // Cheap thread-affine stripe pick: each thread gets a sticky index from
    // a global round-robin at first use.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static MINE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    MINE.with(|m| *m)
}

/// Monotone striped counter.
#[derive(Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to this thread's stripe. Release so that a reader whose
    /// acquire load observes this increment also observes everything the
    /// recorder did before it (the windowed-baseline handshake).
    #[inline]
    pub fn add(&self, v: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(v, Ordering::Release);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sums all stripes (acquire loads). Because every stripe is monotone,
    /// two `get`s ordered by a happens-before edge are themselves ordered.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Acquire))
            .fold(0u64, u64::wrapping_add)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.get())
            .finish()
    }
}

/// Last-value signed gauge (queue depth, active workers).
#[derive(Default, Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Raises the gauge to `v` if larger (peak tracking).
    #[inline]
    pub fn max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-value float gauge (EWMA channels, residuals, busy fractions) —
/// an `f64` stored as bits in an `AtomicU64`.
#[derive(Default, Debug)]
pub struct FloatGauge {
    bits: AtomicU64,
}

impl FloatGauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn counter_add_batches() {
        let c = Counter::new();
        c.add(5);
        c.add(7);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn gauge_tracks_last_value_and_peak() {
        let g = Gauge::new();
        g.set(3);
        g.inc();
        g.dec();
        assert_eq!(g.get(), 3);
        g.max(10);
        g.max(4);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn float_gauge_round_trips() {
        let g = FloatGauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(25.75);
        assert_eq!(g.get(), 25.75);
        g.set(-0.125);
        assert_eq!(g.get(), -0.125);
    }
}
