//! Bounded non-blocking per-query trace ring.
//!
//! One [`QueryTrace`] per query lifecycle: admit outcome → queue wait →
//! batch → route taken → crack/decode estimate → completion, with
//! the shard-plan version and the predicted-vs-actual `PlanCost` residual
//! attached. The ring is a fixed array of slots, each a mutex around one
//! record: a writer claims a ticket with one `fetch_add` and `try_lock`s
//! its slot; readers `try_lock` each slot in turn. Nobody waits for a
//! slot — a writer that finds its slot held drops its record, a reader
//! skips it — so tracing never blocks or allocates on the query path, and
//! memory is bounded at `capacity` slots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Where the query was executed relative to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Admitted into the queue.
    Queued,
    /// Executed inline on the submitting thread: an exact hit (or screened
    /// point probe) answered at submit, or a decomposed part that met a
    /// closing queue.
    Inline,
}

/// Which execution path served the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRoute {
    /// Locked crack-and-refine path.
    Locked,
    /// Snapshot path: prefix sums and edge filters.
    Snapshot,
    /// Answered entirely by a point-filter screen.
    Screened,
}

/// One query's lifecycle record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTrace {
    /// Monotone ticket (global order of completion records).
    pub seq: u64,
    /// Attribute / column index the predicate targeted.
    pub attr: u32,
    /// Queued, or executed inline.
    pub admit: AdmitOutcome,
    /// Queue wait (enqueue → drain), ns.
    pub queue_wait_ns: u64,
    /// Queries drained in the same batch.
    pub batch_len: u32,
    /// Execution route taken.
    pub route: TraceRoute,
    /// Shard-plan version the query executed against.
    pub plan_version: u64,
    /// Planner's predicted service time, ns (0 when cost-blind).
    pub predicted_ns: u64,
    /// Measured service time, ns.
    pub actual_ns: u64,
    /// Planner's crack-work estimate (values to partition).
    pub crack_values: u64,
}

impl QueryTrace {
    /// Signed predicted-vs-actual residual, ns (positive ⇒ over-predicted).
    pub fn residual_ns(&self) -> i64 {
        self.predicted_ns as i64 - self.actual_ns as i64
    }
}

/// Bounded ring of [`QueryTrace`] records; `None` marks a slot never
/// written. Nothing under a slot's lock can panic, so no slot is ever
/// poisoned.
pub struct TraceRing {
    slots: Box<[Mutex<Option<QueryTrace>>]>,
    head: AtomicU64,
}

impl TraceRing {
    /// `capacity` is rounded up to a power of two (min 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        TraceRing {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Records one trace; `trace.seq` is overwritten with the claimed
    /// ticket. Never waits: one `fetch_add` and one `try_lock`. The record
    /// is dropped when its slot is held, by a snapshot copying it or by a
    /// writer a full ring revolution ahead or behind.
    pub fn record(&self, mut trace: QueryTrace) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        trace.seq = ticket;
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        if let Ok(mut held) = slot.try_lock() {
            *held = Some(trace);
        }
    }

    /// Tickets issued so far (= traces ever recorded).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Snapshot of currently readable records, oldest first. Slots never
    /// written or held by a writer are skipped.
    pub fn snapshot(&self) -> Vec<QueryTrace> {
        let mut out: Vec<QueryTrace> = self
            .slots
            .iter()
            .filter_map(|slot| *slot.try_lock().ok()?)
            .collect();
        out.sort_by_key(|t| t.seq);
        out
    }

    /// The `n` most recent readable records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<QueryTrace> {
        let mut all = self.snapshot();
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const EMPTY: QueryTrace = QueryTrace {
        seq: 0,
        attr: 0,
        admit: AdmitOutcome::Queued,
        queue_wait_ns: 0,
        batch_len: 0,
        route: TraceRoute::Locked,
        plan_version: 0,
        predicted_ns: 0,
        actual_ns: 0,
        crack_values: 0,
    };

    fn t(attr: u32, actual: u64) -> QueryTrace {
        QueryTrace {
            attr,
            actual_ns: actual,
            ..EMPTY
        }
    }

    #[test]
    fn records_and_reads_back_in_order() {
        let ring = TraceRing::new(16);
        for i in 0..10 {
            ring.record(t(i, i as u64 * 100));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, tr) in snap.iter().enumerate() {
            assert_eq!(tr.seq, i as u64);
            assert_eq!(tr.attr, i as u32);
        }
    }

    #[test]
    fn ring_wraps_keeping_most_recent() {
        let ring = TraceRing::new(8);
        for i in 0..100u32 {
            ring.record(t(i, 0));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        assert_eq!(snap.first().unwrap().attr, 92);
        assert_eq!(snap.last().unwrap().attr, 99);
        assert_eq!(ring.recent(3).len(), 3);
        assert_eq!(ring.recent(3)[2].attr, 99);
        assert_eq!(ring.recorded(), 100);
    }

    #[test]
    fn concurrent_writers_and_readers_never_tear() {
        // Writers stamp attr == high bits of actual_ns; any torn read would
        // break the invariant. Eight writers lap an 8-slot ring, so writers
        // meet on one slot all the time; a reader snapshots meanwhile.
        let ring = Arc::new(TraceRing::new(8));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..8)
            .map(|w| {
                let ring = Arc::clone(&ring);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let tag = (w as u64) << 32 | i;
                        ring.record(QueryTrace {
                            attr: w,
                            actual_ns: tag,
                            predicted_ns: tag,
                            ..EMPTY
                        });
                        i += 1;
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(150);
        while std::time::Instant::now() < deadline {
            let snap = ring.snapshot();
            assert!(snap.len() <= 8);
            for tr in &snap {
                assert_eq!(tr.actual_ns, tr.predicted_ns, "torn record: {tr:?}");
                assert_eq!(tr.attr as u64, tr.actual_ns >> 32, "torn record: {tr:?}");
                assert!(tr.seq < ring.recorded(), "ticket never issued: {tr:?}");
            }
            assert!(
                snap.windows(2).all(|w| w[0].seq < w[1].seq),
                "a ticket twice"
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(ring.snapshot().len(), 8, "a slot never written");
    }

    #[test]
    fn residual_is_signed() {
        let mut tr = EMPTY;
        tr.predicted_ns = 100;
        tr.actual_ns = 250;
        assert_eq!(tr.residual_ns(), -150);
    }
}
