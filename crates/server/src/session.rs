//! Client sessions and completion tickets.
//!
//! Every connected client holds a [`SessionHandle`] from the shared
//! [`SessionRegistry`]; each accepted query yields a [`Ticket`] the client
//! blocks on (or polls) for the answer. Tickets decouple submission from
//! execution so the dispatcher can reorder queries without the client
//! noticing anything but lower latency.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Monotonic id of a client session.
pub type SessionId = u64;

/// Tracks connected sessions: live count, peak concurrency, total opened.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    next_id: AtomicU64,
    active: AtomicUsize,
    peak: AtomicUsize,
}

impl SessionRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a session; the handle deregisters on drop.
    pub fn open(self: &Arc<Self>) -> SessionHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        SessionHandle {
            registry: Arc::clone(self),
            id,
        }
    }

    /// Currently connected sessions.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Highest concurrent session count observed.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Sessions opened over the registry's lifetime.
    pub fn total_opened(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }
}

/// RAII registration of one connected client.
#[derive(Debug)]
pub struct SessionHandle {
    registry: Arc<SessionRegistry>,
    id: SessionId,
}

impl SessionHandle {
    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        self.registry.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The answer to one query, as seen by the submitting client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryResult {
    /// Qualifying-tuple count.
    pub count: u64,
    /// End-to-end latency: submission to completion (queueing + service).
    pub latency: Duration,
    /// Engine execution time alone (summed over the parts of a decomposed
    /// query).
    pub service_time: Duration,
}

#[derive(Debug, Default)]
pub(crate) struct TicketState {
    slot: Mutex<Slot>,
    done: Condvar,
}

#[derive(Debug, Default)]
struct Slot {
    result: Option<QueryResult>,
    /// Someone sleeps on `done`. Set under the mutex the waiter gives up
    /// atomically with going to sleep, so a completer reading `false` has
    /// nobody to wake and skips the `notify` system call (see `queue.rs`).
    waiting: bool,
}

impl TicketState {
    fn lock(&self) -> std::sync::MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn complete(&self, result: QueryResult) {
        let mut slot = self.lock();
        slot.result = Some(result);
        if slot.waiting {
            self.done.notify_all();
        }
    }
}

/// Completion handle for one submitted query. Only the service constructs
/// tickets — a ticket no dispatcher knows about could never complete, so
/// there is deliberately no public constructor.
#[derive(Debug, Clone)]
pub struct Ticket {
    pub(crate) state: Arc<TicketState>,
}

impl Ticket {
    /// New unfulfilled ticket (dispatcher side).
    pub(crate) fn new() -> Ticket {
        Ticket {
            state: Arc::new(TicketState::default()),
        }
    }

    /// A ticket that already holds its answer (a query answered on the
    /// submitting thread).
    pub(crate) fn ready(result: QueryResult) -> Ticket {
        let slot = Slot {
            result: Some(result),
            waiting: false,
        };
        Ticket {
            state: Arc::new(TicketState {
                slot: Mutex::new(slot),
                done: Condvar::new(),
            }),
        }
    }

    /// Blocks until the dispatcher answers this query.
    pub fn wait(&self) -> QueryResult {
        let mut slot = self.state.lock();
        loop {
            if let Some(r) = slot.result {
                return r;
            }
            slot.waiting = true;
            slot = self
                .state
                .done
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking probe for the result.
    pub fn try_result(&self) -> Option<QueryResult> {
        self.state.lock().result
    }
}

/// Fan-in completion for a decomposed spanning query: every per-shard
/// sub-query folds its count in; the last one completes the parent ticket
/// with the summed count, the parent's end-to-end latency (submission of
/// the whole query to last part's completion) and the summed engine
/// service time.
#[derive(Debug)]
pub(crate) struct MergeState {
    ticket: Ticket,
    remaining: AtomicUsize,
    count: AtomicU64,
    service_ns: AtomicU64,
    enqueued: Instant,
}

impl MergeState {
    /// A merge over `parts` sub-queries; returns the parent ticket the
    /// client waits on.
    pub(crate) fn new(parts: usize) -> (Arc<MergeState>, Ticket) {
        let ticket = Ticket::new();
        (
            Arc::new(MergeState {
                ticket: ticket.clone(),
                remaining: AtomicUsize::new(parts.max(1)),
                count: AtomicU64::new(0),
                service_ns: AtomicU64::new(0),
                enqueued: Instant::now(),
            }),
            ticket,
        )
    }

    /// Folds one part's result in; when this was the last outstanding
    /// part, completes the parent ticket and returns its end-to-end
    /// latency (the caller records it as ONE completed query).
    pub(crate) fn complete_part(&self, count: u64, service_time: Duration) -> Option<Duration> {
        self.count.fetch_add(count, Ordering::Relaxed);
        self.service_ns
            .fetch_add(service_time.as_nanos() as u64, Ordering::Relaxed);
        // AcqRel chain: the thread that takes `remaining` to zero observes
        // every earlier part's count/service additions.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let latency = self.enqueued.elapsed();
            self.ticket.state.complete(QueryResult {
                count: self.count.load(Ordering::Acquire),
                latency,
                service_time: Duration::from_nanos(self.service_ns.load(Ordering::Acquire)),
            });
            Some(latency)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counts_sessions() {
        let reg = Arc::new(SessionRegistry::new());
        let a = reg.open();
        let b = reg.open();
        assert_eq!((a.id(), b.id()), (0, 1));
        assert_eq!(reg.active(), 2);
        assert_eq!(reg.peak(), 2);
        drop(a);
        assert_eq!(reg.active(), 1);
        let _c = reg.open();
        assert_eq!(reg.active(), 2);
        assert_eq!(reg.peak(), 2);
        assert_eq!(reg.total_opened(), 3);
    }

    #[test]
    fn merge_state_fans_in_parts() {
        let (state, ticket) = MergeState::new(3);
        assert_eq!(ticket.try_result(), None);
        assert!(state.complete_part(5, Duration::from_millis(1)).is_none());
        assert!(state.complete_part(7, Duration::from_millis(2)).is_none());
        assert_eq!(ticket.try_result(), None, "parent waits for the last part");
        let latency = state
            .complete_part(1, Duration::from_millis(3))
            .expect("last part completes the parent");
        let r = ticket.wait();
        assert_eq!(r.count, 13, "counts fold across parts");
        assert_eq!(r.latency, latency);
        assert_eq!(r.service_time, Duration::from_millis(6));
    }

    #[test]
    fn tickets_wake_early_waiters_and_answer_late_ones() {
        // One completer, two waiters per ticket: the first is asleep when
        // the result lands (the completer holds back until it is) and must
        // be woken, the second arrives after completion and must not sleep.
        const TICKETS: u64 = 100_000;
        crate::queue::tests::within(120, || {
            let (to_early, early_rx) = std::sync::mpsc::channel::<Ticket>();
            let (to_late, late_rx) = std::sync::mpsc::sync_channel::<Ticket>(64);
            let early =
                std::thread::spawn(move || early_rx.iter().map(|t| t.wait().count).sum::<u64>());
            let late =
                std::thread::spawn(move || late_rx.iter().map(|t| t.wait().count).sum::<u64>());
            for count in 0..TICKETS {
                let t = Ticket::new();
                to_early.send(t.clone()).unwrap();
                while !t.state.lock().waiting {
                    std::thread::yield_now();
                }
                t.state.complete(QueryResult {
                    count,
                    latency: Duration::ZERO,
                    service_time: Duration::ZERO,
                });
                to_late.send(t).unwrap();
            }
            drop((to_early, to_late));
            let want = TICKETS * (TICKETS - 1) / 2;
            assert_eq!(early.join().unwrap(), want);
            assert_eq!(late.join().unwrap(), want);
        });
    }

    #[test]
    fn ticket_roundtrip_across_threads() {
        let t = Ticket::new();
        assert_eq!(t.try_result(), None);
        let waiter = {
            let t = t.clone();
            std::thread::spawn(move || t.wait())
        };
        let result = QueryResult {
            count: 42,
            latency: Duration::from_millis(3),
            service_time: Duration::from_millis(1),
        };
        t.state.complete(result);
        assert_eq!(waiter.join().unwrap(), result);
        assert_eq!(t.try_result(), Some(result));
    }
}
