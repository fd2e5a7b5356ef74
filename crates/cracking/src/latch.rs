//! Piece-level latches (the concurrency-control scheme of [16, 17] adopted by
//! §4.2 of the paper).
//!
//! Each piece of a cracker column owns one latch. Cracking a piece takes its
//! write latch; reading a piece (e.g. verification scans) takes read latches.
//! The behavioural difference the paper highlights:
//!
//! - **user queries block** until the piece they must crack is free,
//! - **holistic workers `try_lock`**: if the piece is busy they pick another
//!   random pivot instead of waiting (Fig 3(d)–(e)).
//!
//! A latch handle is an `Arc`: a piece is latched through a clone taken
//! under the index lock that located it. A guard borrows that handle and
//! is released on the thread that took it (std's guards are `!Send`).

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::Arc;

/// Write guard on a piece, borrowed from its latch handle.
pub type PieceWriteGuard<'a> = RwLockWriteGuard<'a, ()>;
/// Read guard on a piece, borrowed from its latch handle.
pub type PieceReadGuard<'a> = RwLockReadGuard<'a, ()>;

/// One latch per piece of a cracker column.
#[derive(Debug, Clone)]
pub struct PieceLatch {
    lock: Arc<RwLock<()>>,
}

impl Default for PieceLatch {
    fn default() -> Self {
        Self::new()
    }
}

impl PieceLatch {
    /// Creates a free latch.
    pub fn new() -> Self {
        PieceLatch {
            lock: Arc::new(RwLock::new(())),
        }
    }

    /// Blocking exclusive acquisition — the user-query path.
    pub fn lock_write(&self) -> PieceWriteGuard<'_> {
        self.lock.write()
    }

    /// Non-blocking exclusive acquisition — the holistic-worker path.
    /// `None` means "piece busy, pick another pivot".
    pub fn try_lock_write(&self) -> Option<PieceWriteGuard<'_>> {
        self.lock.try_write()
    }

    /// Blocking shared acquisition (verification reads).
    pub fn lock_read(&self) -> PieceReadGuard<'_> {
        self.lock.read()
    }

    /// Non-blocking shared acquisition: `None` while a crack holds the
    /// piece. Taken under the cracker-index lock, it pins the piece's
    /// extent as the index shows it (a split needs the write latch).
    pub fn try_lock_read(&self) -> Option<PieceReadGuard<'_>> {
        self.lock.try_read()
    }

    /// Two handles latch the same piece iff they share the lock allocation.
    pub fn same_as(&self, other: &PieceLatch) -> bool {
        Arc::ptr_eq(&self.lock, &other.lock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn try_lock_fails_while_held() {
        let l = PieceLatch::new();
        let g = l.lock_write();
        assert!(l.try_lock_write().is_none());
        drop(g);
        assert!(l.try_lock_write().is_some());
    }

    #[test]
    fn clone_shares_the_lock() {
        let a = PieceLatch::new();
        let b = a.clone();
        assert!(a.same_as(&b));
        let g = a.lock_write();
        assert!(b.try_lock_write().is_none());
        drop(g);
        assert!(b.try_lock_write().is_some());

        let c = PieceLatch::new();
        assert!(!a.same_as(&c));
    }

    #[test]
    fn readers_share_writers_exclude() {
        let l = PieceLatch::new();
        let r1 = l.lock_read();
        let r2 = l.lock_read();
        assert!(l.try_lock_write().is_none());
        drop((r1, r2));
        assert!(l.try_lock_write().is_some());
    }

    #[test]
    fn blocking_writer_eventually_acquires() {
        let l = PieceLatch::new();
        let g = l.lock_write();
        let l2 = l.clone();
        let h = std::thread::spawn(move || {
            let _g = l2.lock_write(); // blocks until main drops
            true
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished());
        drop(g);
        assert!(h.join().unwrap());
    }
}
