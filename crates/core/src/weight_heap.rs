//! Updatable binary max-heap over index weights.
//!
//! §4.2: "All information is stored in a heap structure (one node per index)
//! which allows us to easily put new indices in the configuration or drop old
//! ones." Weights change after every refinement, so the heap supports
//! decrease/increase-key via a position table.

use std::collections::HashMap;

/// Identifier of an index inside the heap (the index-space slot id).
pub type HeapKey = usize;

/// Max-heap of `(weight, key)` with O(log n) update and removal by key.
#[derive(Debug, Default)]
pub struct WeightHeap {
    /// Heap-ordered entries.
    items: Vec<(u128, HeapKey)>,
    /// key → current slot in `items`. A map, not a key-indexed `Vec`: keys
    /// are never reused, so a `Vec` would grow with every eviction. The
    /// heap is touched at registration, eviction and pick, never per
    /// query, so the default hasher is off every hot path.
    pos: HashMap<HeapKey, usize>,
}

impl WeightHeap {
    /// Empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when the key is present.
    pub fn contains(&self, key: HeapKey) -> bool {
        self.pos.contains_key(&key)
    }

    /// Inserts a new key or updates its weight.
    pub fn upsert(&mut self, key: HeapKey, weight: u128) {
        match self.pos.get(&key) {
            Some(&i) => {
                let old = self.items[i].0;
                self.items[i].0 = weight;
                if weight > old {
                    self.sift_up(i);
                } else if weight < old {
                    self.sift_down(i);
                }
            }
            None => {
                self.items.push((weight, key));
                let i = self.items.len() - 1;
                self.pos.insert(key, i);
                self.sift_up(i);
            }
        }
    }

    /// Removes a key; returns its weight if present.
    pub fn remove(&mut self, key: HeapKey) -> Option<u128> {
        let i = self.pos.remove(&key)?;
        let (w, _) = self.items[i];
        let last = self.items.len() - 1;
        if i != last {
            self.items.swap(i, last);
            self.pos.insert(self.items[i].1, i);
        }
        self.items.pop();
        if i < self.items.len() {
            // Restore order for the moved element.
            self.sift_up(i);
            self.sift_down(i);
        }
        Some(w)
    }

    /// Max-weight entry without removing it.
    pub fn peek_max(&self) -> Option<(HeapKey, u128)> {
        self.items.first().map(|&(w, k)| (k, w))
    }

    /// Current weight of a key.
    pub fn weight(&self, key: HeapKey) -> Option<u128> {
        self.pos.get(&key).map(|&i| self.items[i].0)
    }

    /// All keys currently in the heap (arbitrary order).
    pub fn keys(&self) -> impl Iterator<Item = HeapKey> + '_ {
        self.items.iter().map(|&(_, k)| k)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.items[i].0 <= self.items[parent].0 {
                break;
            }
            self.swap_slots(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.items.len() && self.items[l].0 > self.items[largest].0 {
                largest = l;
            }
            if r < self.items.len() && self.items[r].0 > self.items[largest].0 {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.swap_slots(i, largest);
            i = largest;
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.items.swap(a, b);
        self.pos.insert(self.items[a].1, a);
        self.pos.insert(self.items[b].1, b);
    }

    #[cfg(test)]
    fn assert_heap_property(&self) {
        for i in 1..self.items.len() {
            let parent = (i - 1) / 2;
            assert!(
                self.items[parent].0 >= self.items[i].0,
                "heap violated at {i}"
            );
        }
        for (k, &i) in &self.pos {
            assert_eq!(self.items[i].1, *k, "pos table stale for key {k}");
        }
        assert_eq!(self.pos.len(), self.items.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn upsert_and_peek() {
        let mut h = WeightHeap::new();
        assert!(h.peek_max().is_none());
        h.upsert(1, 10);
        h.upsert(2, 30);
        h.upsert(3, 20);
        assert_eq!(h.peek_max(), Some((2, 30)));
        h.upsert(2, 5); // decrease
        assert_eq!(h.peek_max(), Some((3, 20)));
        h.upsert(1, 100); // increase
        assert_eq!(h.peek_max(), Some((1, 100)));
        h.assert_heap_property();
    }

    #[test]
    fn remove_arbitrary_keys() {
        let mut h = WeightHeap::new();
        for k in 0..20 {
            h.upsert(k, (k * 7 % 13) as u128);
        }
        assert_eq!(h.remove(5), Some((5 * 7 % 13) as u128));
        assert_eq!(h.remove(5), None);
        assert_eq!(h.len(), 19);
        h.assert_heap_property();
        // Removing the max leaves the next max on top.
        while let Some((k, w)) = h.peek_max() {
            let all_w: Vec<u128> = h.keys().filter_map(|k2| h.weight(k2)).collect();
            assert!(all_w.iter().all(|&x| x <= w));
            h.remove(k);
            h.assert_heap_property();
        }
        assert!(h.is_empty());
    }

    /// Draining via `peek_max` + `remove` yields weights in non-increasing
    /// order, including after a burst of in-place weight updates.
    #[test]
    fn drain_order_is_non_increasing() {
        let mut h = WeightHeap::new();
        for k in 0..64 {
            h.upsert(k, ((k as u128 * 2_654_435_761) % 1_000) + 1);
        }
        // Perturb half the keys so sift-up and sift-down both run.
        for k in (0..64).step_by(2) {
            h.upsert(k, (k as u128 * 48_271) % 2_000);
        }
        let mut drained = Vec::new();
        while let Some((k, w)) = h.peek_max() {
            assert_eq!(h.remove(k), Some(w));
            drained.push(w);
            h.assert_heap_property();
        }
        assert_eq!(drained.len(), 64);
        assert!(
            drained.windows(2).all(|w| w[0] >= w[1]),
            "drain order not sorted: {drained:?}"
        );
    }

    /// §4.2: "one node per index" — re-upserting a key must update its
    /// single node in place, never grow the heap or stale the position map.
    #[test]
    fn upsert_keeps_one_node_per_index() {
        let mut h = WeightHeap::new();
        h.upsert(7, 1);
        for step in 0..100u128 {
            // Alternate growing and shrinking weights.
            let w = if step % 2 == 0 { step * 10 } else { step };
            h.upsert(7, w);
            assert_eq!(h.len(), 1, "duplicate node for key 7 at step {step}");
            assert_eq!(h.weight(7), Some(w));
            assert_eq!(h.peek_max(), Some((7, w)));
        }
        // Same invariant while other keys are present.
        for k in 0..10 {
            h.upsert(k, k as u128);
        }
        for step in 0..100u128 {
            h.upsert(3, 500 + step);
            assert_eq!(h.len(), 10);
            assert_eq!(h.weight(3), Some(500 + step));
            h.assert_heap_property();
        }
        assert_eq!(h.peek_max(), Some((3, 599)));
    }

    proptest! {
        #[test]
        fn prop_matches_naive_argmax(ops in proptest::collection::vec(
            (0u8..3, 0usize..16, 0u128..1000), 0..300))
        {
            let mut h = WeightHeap::new();
            let mut naive: std::collections::HashMap<usize, u128> =
                std::collections::HashMap::new();
            for (op, key, w) in ops {
                match op {
                    0 => {
                        h.upsert(key, w);
                        naive.insert(key, w);
                    }
                    1 => {
                        prop_assert_eq!(h.remove(key), naive.remove(&key));
                    }
                    _ => {
                        let max = h.peek_max();
                        match max {
                            None => prop_assert!(naive.is_empty()),
                            Some((_, w)) => {
                                let naive_max = naive.values().max().copied().unwrap();
                                prop_assert_eq!(w, naive_max);
                            }
                        }
                    }
                }
                h.assert_heap_property();
                prop_assert_eq!(h.len(), naive.len());
            }
        }
    }
}
