//! `RangeCell` — the single `unsafe` building block of the cracking layer.
//!
//! Cracking mutates *disjoint* sub-ranges of one shared vector from multiple
//! threads (one piece per thread, protected by piece latches). Safe Rust
//! cannot express "many `&mut` slices into one `Vec`, each behind its own
//! lock", so this module encapsulates the pattern once, with an explicit
//! safety contract and a debug-build overlap detector.
//!
//! ## Safety contract
//!
//! Callers: the crate's `holds` module only — a cracker column's structure
//! lock and piece latches, as types. It guarantees that
//!
//! 1. a range handed out by [`RangeCell::range_mut`] is disjoint from every
//!    other live range (a piece's write latch, under a shared hold),
//! 2. [`RangeCell::with_vec_mut`] (which may grow/shrink and reallocate)
//!    runs only while **no** range guard or read is live (an exclusive
//!    hold),
//! 3. [`RangeCell::read_range`] reads only ranges that no live guard
//!    mutates (a piece's read latch, or an exclusive hold).
//!
//! Debug builds register every live range and assert the disjointness at
//! runtime, so concurrency tests catch protocol violations.

use std::cell::UnsafeCell;

#[cfg(debug_assertions)]
use parking_lot::Mutex;

/// A vector whose disjoint sub-ranges can be mutated concurrently.
pub struct RangeCell<T> {
    data: UnsafeCell<Vec<T>>,
    #[cfg(debug_assertions)]
    live: Mutex<Vec<(usize, usize)>>,
}

// SAFETY: all aliasing is controlled by the contract above; `T: Send` data
// may be accessed from any thread as long as ranges are disjoint. Four
// threads write four disjoint ranges of one cell in
// `disjoint_ranges_mutate_concurrently`; the debug overlap assert of
// `range_mut` (`overlap_detected_in_debug`) checks the disjointness in every
// concurrent column test.
unsafe impl<T: Send> Sync for RangeCell<T> {}

impl<T> RangeCell<T> {
    /// Wraps a vector.
    pub fn new(data: Vec<T>) -> Self {
        RangeCell {
            data: UnsafeCell::new(data),
            #[cfg(debug_assertions)]
            live: Mutex::new(Vec::new()),
        }
    }

    /// Current length.
    ///
    /// Reading the length concurrently with range mutation is fine (range
    /// guards never touch the `Vec` header); concurrent `with_vec_mut` is
    /// excluded by contract (2).
    pub fn len(&self) -> usize {
        // SAFETY: reads only the Vec header; header writers are exclusive by
        // contract (2), which `with_vec_mut`'s live-guard assert checks in
        // debug builds (`vec_mut_with_live_guard_detected`; `vec_mut_grows`
        // reads the length a `with_vec_mut` left).
        unsafe { (*self.data.get()).len() }
    }

    /// `true` if no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutable access to `data[start..end)`.
    ///
    /// # Safety
    /// Contract items (1) and (2) above: the range must be covered by an
    /// exclusively held piece latch and no vector-level mutation may run.
    pub unsafe fn range_mut(&self, start: usize, end: usize) -> RangeGuard<'_, T> {
        debug_assert!(start <= end && end <= self.len());
        #[cfg(debug_assertions)]
        {
            let mut live = self.live.lock();
            for &(s, e) in live.iter() {
                assert!(
                    end <= s || e <= start,
                    "RangeCell overlap: [{start},{end}) vs live [{s},{e})"
                );
            }
            live.push((start, end));
        }
        RangeGuard {
            cell: self,
            start,
            end,
        }
    }

    /// Shared read of `data[start..end)`.
    ///
    /// # Safety
    /// No live guard may mutate an overlapping range (contract item 3).
    pub unsafe fn read_range(&self, start: usize, end: usize) -> &[T] {
        debug_assert!(start <= end && end <= self.len());
        // SAFETY: caller contract (3); the slice is bounds-checked against
        // the vector. The column reads pieces through here under their read
        // latches while other pieces crack
        // (`point_filter_build_races_cracks_on_the_same_shard` in
        // `column.rs`, under AddressSanitizer in CI).
        let vec = unsafe { &*self.data.get() };
        &vec[start..end]
    }

    /// Exclusive access to the whole vector (may grow/shrink/reallocate).
    ///
    /// # Safety
    /// No range guard and no concurrent `read_range`/`len` user relying on a
    /// stable buffer may be live (contract item 2); callers hold the column
    /// structure lock exclusively.
    pub unsafe fn with_vec_mut<R>(&self, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        #[cfg(debug_assertions)]
        {
            let live = self.live.lock();
            assert!(
                live.is_empty(),
                "with_vec_mut while {} range guard(s) live",
                live.len()
            );
        }
        // SAFETY: caller contract (2); the assert above checks in debug
        // builds that no range guard is live
        // (`vec_mut_with_live_guard_detected`).
        f(unsafe { &mut *self.data.get() })
    }

    /// Consumes the cell, returning the vector (requires `&mut self`, so no
    /// guard can be live).
    pub fn into_inner(self) -> Vec<T> {
        self.data.into_inner()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RangeCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangeCell")
            .field("len", &self.len())
            .finish()
    }
}

/// Live mutable range; dereference with [`RangeGuard::slice`].
pub struct RangeGuard<'a, T> {
    cell: &'a RangeCell<T>,
    start: usize,
    end: usize,
}

impl<'a, T> RangeGuard<'a, T> {
    /// The guarded mutable slice.
    pub fn slice(&mut self) -> &mut [T] {
        // SAFETY: guard construction promised disjointness, which the
        // overlap assert of `range_mut` checks in debug builds
        // (`overlap_detected_in_debug`, `adjacent_ranges_are_not_overlap`);
        // we borrow the slice for `&mut self`'s lifetime so a guard cannot
        // alias itself.
        unsafe {
            let vec = &mut *self.cell.data.get();
            &mut vec[self.start..self.end]
        }
    }

    /// Range start (column position).
    pub fn start(&self) -> usize {
        self.start
    }

    /// Range end (column position, exclusive).
    pub fn end(&self) -> usize {
        self.end
    }
}

impl<'a, T> Drop for RangeGuard<'a, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        {
            let mut live = self.cell.live.lock();
            let idx = live
                .iter()
                .position(|&(s, e)| s == self.start && e == self.end)
                .expect("guard not registered");
            live.swap_remove(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_ranges_mutate_concurrently() {
        let cell = RangeCell::new(vec![0i64; 100]);
        std::thread::scope(|s| {
            for t in 0..4 {
                let cell = &cell;
                s.spawn(move || {
                    // SAFETY: ranges [25t, 25(t+1)) are pairwise disjoint.
                    let mut g = unsafe { cell.range_mut(t * 25, (t + 1) * 25) };
                    for v in g.slice() {
                        *v = t as i64;
                    }
                });
            }
        });
        let data = cell.into_inner();
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / 25) as i64);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "RangeCell overlap")]
    fn overlap_detected_in_debug() {
        let cell = RangeCell::new(vec![0u8; 10]);
        // SAFETY: intentionally violating the contract to exercise the
        // debug detector; guards are never dereferenced.
        let _g1 = unsafe { cell.range_mut(0, 6) };
        let _g2 = unsafe { cell.range_mut(5, 10) };
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "with_vec_mut while")]
    fn vec_mut_with_live_guard_detected() {
        let cell = RangeCell::new(vec![0u8; 10]);
        // SAFETY: intentionally violating contract (2) to exercise the
        // debug detector, which panics before the vector is touched.
        let _g = unsafe { cell.range_mut(0, 3) };
        unsafe { cell.with_vec_mut(|v| v.push(1)) };
    }

    #[test]
    fn vec_mut_grows() {
        let cell = RangeCell::new(vec![1i32, 2]);
        // SAFETY: one thread, no guard live, for both calls.
        unsafe {
            cell.with_vec_mut(|v| v.push(3));
        }
        assert_eq!(cell.len(), 3);
        assert_eq!(unsafe { cell.read_range(0, 3) }, &[1, 2, 3]);
    }

    #[test]
    fn adjacent_ranges_are_not_overlap() {
        let cell = RangeCell::new(vec![0u8; 10]);
        // SAFETY: the two ranges touch but are disjoint; neither is
        // dereferenced.
        let _g1 = unsafe { cell.range_mut(0, 5) };
        let _g2 = unsafe { cell.range_mut(5, 10) }; // touching, not overlapping
    }

    #[test]
    fn guard_drop_unregisters() {
        let cell = RangeCell::new(vec![0u8; 10]);
        // SAFETY: the first guard drops before the second is taken; neither
        // is dereferenced.
        {
            let _g = unsafe { cell.range_mut(0, 10) };
        }
        // Re-acquiring the same full range must succeed after drop.
        let _g2 = unsafe { cell.range_mut(0, 10) };
    }
}
