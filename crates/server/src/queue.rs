//! Bounded submission queue with admission control.
//!
//! The queue is the backpressure point between client sessions and the
//! dispatcher: when it is full, admission control either blocks the
//! producer (closed-loop clients slow down) or rejects the query outright
//! (open-loop load shedding). Built on `std::sync::{Mutex, Condvar}` — the
//! vendored `parking_lot` shim has no condition variables.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// What to do with a submission that finds the queue full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until space frees up (closed-loop
    /// backpressure).
    #[default]
    Block,
    /// Fail the submission immediately with [`SubmitError::Rejected`]
    /// (open-loop load shedding) — FIFO shedding: whatever arrives while
    /// the queue is full is turned away, however cheap.
    Reject,
    /// Price-aware shedding, implemented in the session layer (the queue
    /// itself behaves like [`AdmissionPolicy::Reject`]): a full queue
    /// sheds *expensive* queries first — cheap exact-hits are admitted
    /// into a bounded overflow reserve or executed inline (never shed),
    /// and expensive queries whose snapshot estimate is fresh enough are
    /// downgraded to an inline lock-free snapshot read instead of shed.
    CostAware,
}

impl AdmissionPolicy {
    /// CSV label.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Block => "block",
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::CostAware => "cost_aware",
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue was full and the policy is [`AdmissionPolicy::Reject`].
    Rejected,
    /// The service is shutting down; no further queries are accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected => write!(f, "queue full: query rejected by admission control"),
            SubmitError::Closed => write!(f, "service closed: query not accepted"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Threads asleep on `not_empty` / `not_full`: std's futex `Condvar`
    /// keeps no waiter count, so a `notify` is a system call even with
    /// nobody asleep. Both change only under the mutex a waiter gives up
    /// atomically with going to sleep: a notifier reading 0 misses no one.
    parked_consumers: usize,
    parked_producers: usize,
}

/// MPMC bounded FIFO with close semantics.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    policy: AdmissionPolicy,
}

impl<T> BoundedQueue<T> {
    /// Queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize, policy: AdmissionPolicy) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                parked_consumers: 0,
                parked_producers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            policy,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The one admission sequence: fail when closed, enqueue (waking a
    /// parked consumer) while fewer than `capacity + slack` items wait,
    /// otherwise sleep for space if `block`, else hand the item back.
    fn admit(&self, item: T, slack: usize, block: bool) -> Result<(), (T, SubmitError)> {
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return Err((item, SubmitError::Closed));
            }
            if inner.items.len() < self.capacity + slack {
                inner.items.push_back(item);
                if inner.parked_consumers > 0 {
                    self.not_empty.notify_one();
                }
                return Ok(());
            }
            if !block {
                return Err((item, SubmitError::Rejected));
            }
            inner.parked_producers += 1;
            inner = self.not_full.wait(inner).unwrap_or_else(|e| e.into_inner());
            inner.parked_producers -= 1;
        }
    }

    /// Submits one item under the admission policy. (`CostAware` degrades
    /// to `Reject` here — the price-aware part lives in the session layer,
    /// which retries through [`BoundedQueue::push_with_slack`] or serves
    /// the query inline.)
    pub fn push(&self, item: T) -> Result<(), SubmitError> {
        self.admit(item, 0, self.policy == AdmissionPolicy::Block)
            .map_err(|(_, e)| e)
    }

    /// Non-blocking submission regardless of policy: rejects on a full
    /// queue, handing the item back so the caller can price it.
    pub fn try_push(&self, item: T) -> Result<(), (T, SubmitError)> {
        self.admit(item, 0, false)
    }

    /// Admits past the nominal capacity into a bounded overflow reserve of
    /// `slack` extra slots — the "cheap queries are never shed" lane of
    /// cost-aware admission. Rejects only when even the reserve is full.
    pub fn push_with_slack(&self, item: T, slack: usize) -> Result<(), (T, SubmitError)> {
        self.admit(item, slack, false)
    }

    /// Blocks until at least one item is available, then takes up to `max`
    /// items in FIFO order. Returns `None` once the queue is closed *and*
    /// drained — the consumer's signal to exit.
    pub fn drain_up_to(&self, max: usize) -> Option<Vec<T>> {
        let max = max.max(1);
        let mut inner = self.lock();
        loop {
            if !inner.items.is_empty() {
                let take = inner.items.len().min(max);
                let batch: Vec<T> = inner.items.drain(..take).collect();
                // Space freed: wake every blocked producer (batch drains can
                // free more than one slot).
                if inner.parked_producers > 0 {
                    self.not_full.notify_all();
                }
                return Some(batch);
            }
            if inner.closed {
                return None;
            }
            inner.parked_consumers += 1;
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
            inner.parked_consumers -= 1;
        }
    }

    /// Marks the queue closed: submissions fail from now on, consumers keep
    /// draining until empty, blocked producers and consumers wake up
    /// (notified unconditionally: shutdown is rare).
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when no items are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum queue depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    /// Runs `f` on its own thread and fails once `secs` have passed: a lost
    /// wake-up is a failed test, not a hung suite.
    pub(crate) fn within<T: Send + 'static>(
        secs: u64,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        let body = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
            Ok(out) => {
                body.join().unwrap();
                out
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(body.join().unwrap_err())
            }
            Err(RecvTimeoutError::Timeout) => panic!("still blocked after {secs} s: lost wake-up"),
        }
    }

    #[test]
    fn fifo_order_and_batch_drain() {
        let q = BoundedQueue::new(8, AdmissionPolicy::Reject);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.drain_up_to(3), Some(vec![0, 1, 2]));
        assert_eq!(q.drain_up_to(10), Some(vec![3, 4]));
        assert!(q.is_empty());
    }

    #[test]
    fn reject_policy_sheds_overflow() {
        let q = BoundedQueue::new(2, AdmissionPolicy::Reject);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(SubmitError::Rejected));
        q.drain_up_to(1);
        q.push(3).unwrap();
    }

    #[test]
    fn try_push_and_slack_reserve() {
        // Even a Block-policy queue rejects via try_push (no deadlock for
        // price probes) and admits cheap overflow via the slack reserve.
        let q = BoundedQueue::new(2, AdmissionPolicy::Block);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let (item, e) = q.try_push(3).unwrap_err();
        assert_eq!((item, e), (3, SubmitError::Rejected));
        q.push_with_slack(3, 1).unwrap();
        assert_eq!(q.len(), 3, "overflow reserve admitted past capacity");
        let (item, e) = q.push_with_slack(4, 1).unwrap_err();
        assert_eq!((item, e), (4, SubmitError::Rejected));
        q.close();
        assert!(matches!(q.try_push(5), Err((5, SubmitError::Closed))));
        assert!(matches!(
            q.push_with_slack(5, 9),
            Err((5, SubmitError::Closed))
        ));
        assert_eq!(q.drain_up_to(8), Some(vec![1, 2, 3]));
    }

    #[test]
    fn cost_aware_policy_rejects_at_the_queue_itself() {
        let q = BoundedQueue::new(1, AdmissionPolicy::CostAware);
        q.push(1).unwrap();
        assert_eq!(q.push(2), Err(SubmitError::Rejected));
    }

    #[test]
    fn closed_queue_rejects_and_drains() {
        let q = BoundedQueue::new(4, AdmissionPolicy::Block);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(SubmitError::Closed));
        assert_eq!(q.drain_up_to(4), Some(vec![1]));
        assert_eq!(q.drain_up_to(4), None);
    }

    /// Spins (under `within`'s deadline) until `n` threads sleep on the
    /// queue: consumers on an empty one, producers on a full one.
    fn await_parked<T>(q: &BoundedQueue<T>, consumers: usize, producers: usize) {
        loop {
            let inner = q.lock();
            if (inner.parked_consumers, inner.parked_producers) == (consumers, producers) {
                return;
            }
            drop(inner);
            std::thread::yield_now();
        }
    }

    #[test]
    fn one_push_wakes_a_parked_consumer() {
        within(20, || {
            let q = Arc::new(BoundedQueue::new(4, AdmissionPolicy::Block));
            let consumer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.drain_up_to(4))
            };
            await_parked(&q, 1, 0);
            q.push(7u32).unwrap();
            assert_eq!(consumer.join().unwrap(), Some(vec![7]));
            assert_eq!(q.lock().parked_consumers, 0);
        });
    }

    #[test]
    fn one_multi_slot_drain_wakes_every_parked_producer() {
        within(20, || {
            let q = Arc::new(BoundedQueue::new(2, AdmissionPolicy::Block));
            q.push(0u32).unwrap();
            q.push(1).unwrap();
            let producers: Vec<_> = [2, 3]
                .into_iter()
                .map(|item| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || q.push(item))
                })
                .collect();
            // Both producers are blocked on the full queue; one drain
            // frees both slots and must wake both.
            await_parked(&q, 0, 2);
            assert_eq!(q.drain_up_to(2), Some(vec![0, 1]));
            for p in producers {
                p.join().unwrap().unwrap();
            }
            let mut rest = q.drain_up_to(2).unwrap();
            rest.sort_unstable();
            assert_eq!(rest, vec![2, 3]);
        });
    }

    #[test]
    fn close_wakes_a_parked_consumer_and_a_parked_producer() {
        within(20, || {
            let empty = Arc::new(BoundedQueue::<u32>::new(1, AdmissionPolicy::Block));
            let consumer = {
                let q = Arc::clone(&empty);
                std::thread::spawn(move || q.drain_up_to(1))
            };
            let full = Arc::new(BoundedQueue::new(1, AdmissionPolicy::Block));
            full.push(0u32).unwrap();
            let producer = {
                let q = Arc::clone(&full);
                std::thread::spawn(move || q.push(1))
            };
            await_parked(&empty, 1, 0);
            await_parked(&full, 0, 1);
            empty.close();
            full.close();
            assert_eq!(consumer.join().unwrap(), None);
            assert_eq!(producer.join().unwrap(), Err(SubmitError::Closed));
        });
    }

    #[test]
    fn hand_offs_through_a_tiny_queue_lose_no_item_and_no_wake_up() {
        // Capacity 2 under four producers: both sides park all the time,
        // so every push and every drain decides whether to notify.
        const PER_PRODUCER: u32 = 25_000;
        within(120, || {
            let q = Arc::new(BoundedQueue::new(2, AdmissionPolicy::Block));
            let producers: Vec<_> = (0..4u32)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        for i in 0..PER_PRODUCER {
                            q.push(p * PER_PRODUCER + i).unwrap();
                        }
                    })
                })
                .collect();
            let mut seen = vec![false; 4 * PER_PRODUCER as usize];
            let mut taken = 0;
            while taken < seen.len() {
                for item in q.drain_up_to(2).expect("queue is never closed") {
                    assert!(!std::mem::replace(&mut seen[item as usize], true));
                    taken += 1;
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            assert!(q.is_empty());
        });
    }
}
