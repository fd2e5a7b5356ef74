//! [`PublishedCell`]: the current version of an immutable value, handed out
//! as an `Arc`.

use parking_lot::Mutex;
use std::sync::Arc;

/// A slot holding the latest published `Arc<T>` — a column's
/// [`crate::PointFilter`] lives in one. A replaced version is freed when
/// its last reader lets go.
///
/// The mutex is a *leaf* lock: taken under a column's `pending` mutex, under
/// its `structure` lock or under neither, held for one pointer copy, and
/// nothing is ever acquired while it is held — so a load completes no matter
/// which column locks a writer is parked on.
pub(crate) struct PublishedCell<T>(Mutex<Option<Arc<T>>>);

impl<T> PublishedCell<T> {
    /// Empty cell: nothing published yet.
    pub(crate) fn new() -> Self {
        PublishedCell(Mutex::new(None))
    }

    /// Has a value ever been published?
    pub(crate) fn is_published(&self) -> bool {
        self.0.lock().is_some()
    }

    /// The current version, if any.
    pub(crate) fn load(&self) -> Option<Arc<T>> {
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_epoch_pins_total").inc();
        }
        self.0.lock().clone()
    }

    /// Replaces the current version; with concurrent publishers the last
    /// one wins.
    pub(crate) fn publish(&self, new: Arc<T>) {
        let old = self.0.lock().replace(new);
        // Unlocked by now: freeing a whole filter is not part of the
        // pointer copy readers wait for.
        drop(old);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 loaders race 1 publisher over 10^5 versions: every loaded value
    /// is one that was published, a loader never sees the versions go
    /// backwards, and at quiesce the cell owns the only live allocation.
    #[test]
    fn loads_race_publishes_without_stale_or_leaked_versions() {
        const VERSIONS: u64 = 100_000;
        let cell = PublishedCell::new();
        assert!(!cell.is_published() && cell.load().is_none());
        let first = Arc::new(0u64);
        let replaced = Arc::downgrade(&first);
        cell.publish(first);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut seen = 0;
                    while seen < VERSIONS {
                        let now = *cell.load().expect("published before the race");
                        assert!(now >= seen && now <= VERSIONS, "{seen} then {now}");
                        seen = now;
                    }
                });
            }
            for v in 1..=VERSIONS {
                cell.publish(Arc::new(v));
            }
        });
        let last = cell.load().unwrap();
        assert_eq!(*last, VERSIONS);
        assert_eq!(Arc::strong_count(&last), 2, "the cell's and this one");
        assert!(
            replaced.upgrade().is_none(),
            "a replaced version outlived its readers"
        );
    }
}
