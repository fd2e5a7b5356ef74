//! The index space `IS = C_actual ∪ C_potential` and its management (§4.1).
//!
//! - `C_actual` — indices created by user queries; candidates for weighted
//!   refinement.
//! - `C_potential` — indices added speculatively (by the system during idle
//!   time, or manually); refined when `C_actual` offers nothing.
//! - `C_optimal` — indices whose average piece fits in L1 (Equation 1);
//!   excluded from further background refinement.
//!
//! A storage budget bounds the materialised index bytes; exceeding it evicts
//! least-frequently-used indices (§4.2 "Storage Constraints").
//!
//! ## The owner holds the record
//!
//! [`IndexSpace::register`] hands back one [`IndexSlot`] per index — its
//! statistics, membership tag and dirty flag — and the owner keeps it next
//! to the index. The **per-query path is a method on that slot**
//! ([`IndexSlot::record_user_query`], [`IndexSlot::is_dropped`]): atomic
//! counters, one CAS for the promotion and a dirty-flag store. It takes no
//! lock of the space and never looks anything up (the multi-core
//! experiments of Fig 11/Fig 17 serialize on exactly such a lock otherwise).
//!
//! The space itself keeps only what is **live**: a table of `(slot,
//! index)` pairs and the weight heap over them ("one node per index, which
//! allows us to easily put new indices in the configuration or drop old
//! ones", §4.2). Eviction and [`IndexSpace::retire`] mark the slot
//! [`Membership::Dropped`], remove the pair — the space's reference to the
//! index payload goes with it — and count it, so every walk of the table
//! (`pick`, `bytes_used`, eviction) costs the number of live indices
//! whatever the uptime. A `Dropped` slot an owner still holds pins nothing
//! but its own counters; `Dropped` is final, the owner builds and registers
//! a new index to come back.
//!
//! The maintenance side — [`IndexSpace::pick`] (the daemon, once per tuning
//! cycle) folds the dirty flags into the weight heap before choosing;
//! registration and retirement are the only writers of the table.

use crate::config::HolisticConfig;
use crate::handle::{distance_to_optimal, RefinableIndex};
use crate::stats::IndexStats;
use crate::strategy::Strategy;
use crate::weight_heap::{HeapKey, WeightHeap};
use holix_cracking::RefineOutcome;
use parking_lot::{Mutex, RwLock};
use rand::seq::IndexedRandom;
use rand::RngCore;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

/// Which configuration an index currently belongs to (stored in an
/// [`IndexSlot`] as its discriminant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Membership {
    /// Created by a user query; candidate for weighted refinement.
    Actual,
    /// Added speculatively; refined when `C_actual` is exhausted.
    Potential,
    /// Average piece size ≤ |L1|; no further background refinement.
    Optimal,
    /// Evicted by the storage budget or retired by its owner; the space
    /// has forgotten it and the owner should drop and possibly re-create it.
    Dropped,
}

impl Membership {
    fn from_tag(tag: u8) -> Membership {
        const ALL: [Membership; 4] = [
            Membership::Actual,
            Membership::Potential,
            Membership::Optimal,
            Membership::Dropped,
        ];
        ALL[tag as usize]
    }
}

/// One registered index's record, shared between the space and the owner
/// of the index. Everything the query path needs is reachable from here
/// without touching the space.
#[derive(Debug)]
pub struct IndexSlot {
    stats: IndexStats,
    membership: AtomicU8,
    /// Set by the query path when the weight went stale; folded into the
    /// heap by the maintenance side at `pick` time.
    dirty: AtomicBool,
    /// This index's node in the weight heap: the registration sequence
    /// number, never reused, so the live table is ordered by it.
    key: HeapKey,
}

impl IndexSlot {
    /// The statistics the select operator and the workers update.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Current membership: one atomic load.
    pub fn membership(&self) -> Membership {
        Membership::from_tag(self.membership.load(Ordering::Acquire))
    }

    /// `true` once the budget evicted the index or its owner retired it.
    pub fn is_dropped(&self) -> bool {
        self.membership() == Membership::Dropped
    }

    /// Records a user query on the index: updates `f_I` / `f_Ih`, promotes
    /// a potential index to `C_actual` and requests a weight refresh — the
    /// heap catches up when the daemon next calls [`IndexSpace::pick`].
    /// Lock-free; a no-op on a dropped slot.
    pub fn record_user_query(&self, exact_hit: bool, bounds_cracked: u64) {
        if self.is_dropped() {
            return;
        }
        self.stats.record_query(exact_hit, bounds_cracked);
        // Promote `C_potential` → `C_actual` on first user query. A lost CAS
        // means a racing query (or the maintenance side) already moved the
        // slot on — never overwrite Optimal or Dropped.
        let _ = self.membership.compare_exchange(
            Membership::Potential as u8,
            Membership::Actual as u8,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.dirty.store(true, Ordering::Release);
    }
}

/// A live index: its record and its payload.
type Live = (Arc<IndexSlot>, Arc<dyn RefinableIndex>);

/// What one [`IndexSpace::pick`] found for a worker to do.
pub struct Pick {
    /// The index to refine, by the configured strategy.
    pub refine: Option<Live>,
    /// Live indices whose update queue is due for a background drain
    /// ([`RefinableIndex::drain_due`]), whatever their membership.
    pub drains: Vec<Arc<dyn RefinableIndex>>,
}

impl Pick {
    /// `true` when there is nothing to refine and nothing to drain.
    pub fn is_empty(&self) -> bool {
        self.refine.is_none() && self.drains.is_empty()
    }
}

struct Table {
    /// Every live index, ascending by heap key (registration order).
    live: Vec<Live>,
    /// Indices evicted or retired so far. With `live.len()` this is the
    /// number ever registered: the next heap key.
    dropped: usize,
}

impl Table {
    fn position(&self, key: HeapKey) -> Option<usize> {
        self.live.binary_search_by_key(&key, |(s, _)| s.key).ok()
    }
}

/// Registry of the live adaptive indices with weights, memberships and
/// budget.
///
/// Lock order: `table` → `heap`; the heap guard is never held while
/// acquiring the table. The query side ([`IndexSlot`]) takes neither.
pub struct IndexSpace {
    /// Written only by registration, eviction and retirement.
    table: RwLock<Table>,
    /// Heap over `C_actual` slots with non-zero weight (strategies W1–W3;
    /// maintained under W4 too so optimality transitions are uniform).
    heap: Mutex<WeightHeap>,
    config: HolisticConfig,
}

impl IndexSpace {
    /// Empty space.
    pub fn new(config: HolisticConfig) -> Self {
        IndexSpace {
            table: RwLock::new(Table {
                live: Vec::new(),
                dropped: 0,
            }),
            heap: Mutex::new(WeightHeap::new()),
            config,
        }
    }

    /// Registers `handles` as one admission unit — the shards one operation
    /// builds — into `C_actual` (created by a user query) or `C_potential`
    /// (speculative), and returns their records in the same order. The
    /// storage budget is sized once for the batch's total bytes and
    /// eviction only considers *pre-existing* indices, so the budget can
    /// never evict one sibling shard while its brothers register (which
    /// would leave the owner's cell born-dead and rebuilt on every query).
    pub fn register(
        &self,
        handles: Vec<Arc<dyn RefinableIndex>>,
        membership: Membership,
    ) -> Vec<Arc<IndexSlot>> {
        assert!(
            matches!(membership, Membership::Actual | Membership::Potential),
            "an index registers into C_actual or C_potential"
        );
        let mut table = self.table.write();
        let incoming: usize = handles.iter().map(|h| h.payload_bytes()).sum();
        // Victims are chosen before the batch is appended, so a batch can
        // evict anything pre-existing but never its own members; like a
        // single oversized index, a batch larger than the whole budget is
        // still admitted (the alternative leaves the query unanswerable).
        self.make_room(&mut table, incoming);
        handles
            .into_iter()
            .map(|handle| {
                let d = distance_to_optimal(handle.as_ref(), self.config.l1_values());
                let membership = if d == 0 {
                    Membership::Optimal
                } else {
                    membership
                };
                let slot = Arc::new(IndexSlot {
                    stats: IndexStats::new(),
                    membership: AtomicU8::new(membership as u8),
                    dirty: AtomicBool::new(false),
                    key: table.live.len() + table.dropped,
                });
                if membership == Membership::Actual {
                    let w = self.config.strategy.weight(d, 0, 0);
                    self.heap.lock().upsert(slot.key, w);
                }
                table.live.push((Arc::clone(&slot), handle));
                slot
            })
            .collect()
    }

    /// Evicts least-frequently-used indices until `incoming` bytes fit in
    /// the budget (no-op when unlimited). The incoming index is always
    /// admitted even if it alone exceeds the budget — dropping the index a
    /// query needs right now would leave the query unanswerable.
    fn make_room(&self, table: &mut Table, incoming: usize) {
        let Some(budget) = self.config.storage_budget else {
            return;
        };
        // Summed once: every victim's bytes are subtracted as it goes, so
        // one registration reads each live payload once however many
        // victims it takes.
        let mut used: usize = table.live.iter().map(|(_, h)| h.payload_bytes()).sum();
        while used + incoming > budget {
            // LFU victim; the oldest among equals.
            let victim = (0..table.live.len()).min_by_key(|&i| table.live[i].0.stats.queries());
            let Some(v) = victim else { return };
            used = used.saturating_sub(self.forget(table, v).payload_bytes());
        }
    }

    /// Drops live index `at`: out of the table and the heap, its slot
    /// `Dropped`. Returns the payload reference the space was holding.
    fn forget(&self, table: &mut Table, at: usize) -> Arc<dyn RefinableIndex> {
        let (slot, handle) = table.live.remove(at);
        slot.membership
            .store(Membership::Dropped as u8, Ordering::Release);
        table.dropped += 1;
        self.heap.lock().remove(slot.key);
        handle
    }

    /// Drops an index the owner no longer references — e.g. an engine
    /// retiring the shards a replan migrated into their successors — so
    /// live records never become unreachable orphans that pin payload
    /// bytes against the budget and feed the daemon dead columns.
    /// Same effect as a budget eviction; a no-op on a dropped slot.
    pub fn retire(&self, slot: &IndexSlot) {
        let mut table = self.table.write();
        if let Some(at) = table.position(slot.key) {
            self.forget(&mut table, at);
        }
    }

    /// Records a worker refinement outcome on a picked index and refreshes
    /// its weight (maintenance side: called by holistic workers, not user
    /// queries).
    pub fn record_worker_outcome(
        &self,
        slot: &IndexSlot,
        handle: &dyn RefinableIndex,
        result: RefineOutcome,
    ) {
        match result {
            RefineOutcome::Refined { .. } => slot.stats.record_worker_refinement(),
            RefineOutcome::Busy => slot.stats.record_worker_busy(),
            RefineOutcome::AlreadyBound => {}
        }
        self.refresh_weight(slot, handle);
    }

    /// Recomputes `W_I`; moves the index to `C_optimal` when `d = 0`
    /// ("Remove I from IS if d(I, I_opt) = 0", Fig 2). Maintenance side.
    fn refresh_weight(&self, slot: &IndexSlot, handle: &dyn RefinableIndex) {
        if matches!(slot.membership(), Membership::Dropped | Membership::Optimal) {
            return;
        }
        let d = distance_to_optimal(handle, self.config.l1_values());
        if d == 0 {
            // Dropped is final: an eviction racing this refresh wins.
            let _ = slot
                .membership
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |tag| {
                    (tag != Membership::Dropped as u8).then_some(Membership::Optimal as u8)
                });
            self.heap.lock().remove(slot.key);
            return;
        }
        if slot.membership() == Membership::Actual {
            let w = self
                .config
                .strategy
                .weight(d, slot.stats.queries(), slot.stats.exact_hits());
            let mut heap = self.heap.lock();
            heap.upsert(slot.key, w);
            // Eviction can race between the membership check above and the
            // upsert (it marks the slot, then removes it from the heap —
            // possibly before our upsert landed). Dropped is final, so a
            // re-check under the heap lock makes the pair safe in either
            // interleaving: a dropped key never lingers in the heap.
            if slot.is_dropped() {
                heap.remove(slot.key);
            }
        }
    }

    /// Picks the next index to refine per the configured strategy:
    /// highest weight in `C_actual` (W1–W3) or a uniformly random member
    /// (W4); falls back to a random `C_potential` index when `C_actual` has
    /// no candidates. Maintenance side — folds pending query-side weight
    /// refreshes first (only dirty slots pay the weight recomputation), and
    /// the same walk collects the indices due for a background drain,
    /// `C_optimal` ones included: the paper's idle workers merge queued
    /// updates (§4.2), and a converged index is never picked to refine.
    pub fn pick(&self, rng: &mut dyn RngCore) -> Pick {
        let table = self.table.read();
        let mut drains = Vec::new();
        for (slot, handle) in &table.live {
            if slot.dirty.swap(false, Ordering::AcqRel) {
                self.refresh_weight(slot, handle.as_ref());
            }
            if handle.drain_due() {
                drains.push(Arc::clone(handle));
            }
        }
        let mut pick_random = |members: Membership| -> Option<usize> {
            let at: Vec<usize> = (0..table.live.len())
                .filter(|&i| table.live[i].0.membership() == members)
                .collect();
            at.choose(&mut *rng).copied()
        };
        let at = match self.config.strategy {
            Strategy::W4Random => pick_random(Membership::Actual),
            // A heap top that is not in the table (a key evicted between a
            // refresh's membership check and its upsert) must not make the
            // whole space unpickable — drop it from the heap and retry.
            _ => loop {
                let top = self
                    .heap
                    .lock()
                    .peek_max()
                    .filter(|&(_, w)| w > 0)
                    .map(|(k, _)| k);
                let Some(k) = top else { break None };
                if let Some(at) = table.position(k) {
                    break Some(at);
                }
                self.heap.lock().remove(k);
            },
        };
        let at = at.or_else(|| pick_random(Membership::Potential));
        Pick {
            refine: at.map(|at| table.live[at].clone()),
            drains,
        }
    }

    /// `(actual, potential, optimal, dropped)` counts: the live indices by
    /// membership, and how many were evicted or retired so far.
    pub fn membership_counts(&self) -> (usize, usize, usize, usize) {
        let table = self.table.read();
        let mut c = (0, 0, 0, table.dropped);
        for (slot, _) in &table.live {
            match slot.membership() {
                Membership::Actual => c.0 += 1,
                Membership::Potential => c.1 += 1,
                Membership::Optimal => c.2 += 1,
                Membership::Dropped => unreachable!("dropped under the table's write lock"),
            }
        }
        c
    }

    /// Total pieces across live indices (the Fig 6(c) series).
    pub fn total_pieces(&self) -> usize {
        let table = self.table.read();
        table.live.iter().map(|(_, h)| h.piece_count()).sum()
    }

    /// Materialised bytes across live indices.
    pub fn bytes_used(&self) -> usize {
        let table = self.table.read();
        table.live.iter().map(|(_, h)| h.payload_bytes()).sum()
    }

    /// Fraction of the storage budget currently charged: `0.0` with no
    /// budget configured, `>= 1.0` when the space is at or over budget.
    pub fn budget_pressure(&self) -> f64 {
        let Some(budget) = self.config.storage_budget else {
            return 0.0;
        };
        if budget == 0 {
            return 1.0;
        }
        self.bytes_used() as f64 / budget as f64
    }

    /// Test-only: parks the caller on the maintenance weight-heap mutex so
    /// tests can assert that plan-time reads (the planner's
    /// `estimate()`) complete while the daemon's maintenance side is busy.
    /// Releases when the returned guard drops.
    #[doc(hidden)]
    pub fn hold_maintenance_lock_for_test(&self) -> impl Sized + '_ {
        self.heap.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_cracking::{CrackScratch, CrackerColumn};
    use rand::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn space_with(strategy: Strategy, budget: Option<usize>) -> IndexSpace {
        IndexSpace::new(HolisticConfig {
            strategy,
            storage_budget: budget,
            ..HolisticConfig::default()
        })
    }

    fn make_handle(n: usize, name: &str) -> Arc<dyn RefinableIndex> {
        let base: Vec<i64> = (0..n as i64).rev().collect();
        Arc::new(CrackerColumn::from_base(name, &base))
    }

    fn register_one(
        space: &IndexSpace,
        handle: Arc<dyn RefinableIndex>,
        membership: Membership,
    ) -> Arc<IndexSlot> {
        space
            .register(vec![handle], membership)
            .pop()
            .expect("batch of one")
    }

    /// Registers an `n`-value cracker column into `C_actual`.
    fn actual(space: &IndexSpace, n: usize, name: &str) -> Arc<IndexSlot> {
        register_one(space, make_handle(n, name), Membership::Actual)
    }

    #[test]
    fn register_and_pick_by_weight() {
        let space = space_with(Strategy::W1Distance, None);
        let small = actual(&space, 50_000, "small");
        let big = actual(&space, 200_000, "big");
        assert_eq!(small.membership(), Membership::Actual);
        let mut rng = StdRng::seed_from_u64(1);
        // W1 picks the largest-distance index: the big one.
        let (picked, _) = space.pick(&mut rng).refine.unwrap();
        assert!(Arc::ptr_eq(&picked, &big));
    }

    #[test]
    fn tiny_index_is_immediately_optimal() {
        let space = space_with(Strategy::W1Distance, None);
        let slot = actual(&space, 100, "tiny");
        assert_eq!(slot.membership(), Membership::Optimal);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(space.pick(&mut rng).is_empty());
    }

    #[test]
    fn refinement_drives_index_to_optimal() {
        let space = space_with(Strategy::W1Distance, None);
        let slot = actual(&space, 30_000, "a");
        let mut rng = StdRng::seed_from_u64(3);
        let mut steps = 0;
        while slot.membership() == Membership::Actual {
            let (picked, h) = space.pick(&mut rng).refine.expect("pickable");
            assert!(Arc::ptr_eq(&picked, &slot));
            let res = h.refine_random(&mut rng, 8, &mut CrackScratch::new());
            space.record_worker_outcome(&picked, h.as_ref(), res);
            steps += 1;
            assert!(steps < 10_000, "did not converge");
        }
        assert_eq!(slot.membership(), Membership::Optimal);
        assert_eq!(space.membership_counts(), (0, 0, 1, 0));
    }

    #[test]
    fn potential_used_when_actual_empty_and_promoted_on_query() {
        let space = space_with(Strategy::W2FrequencyDistance, None);
        let slot = register_one(&space, make_handle(50_000, "p"), Membership::Potential);
        let mut rng = StdRng::seed_from_u64(4);
        let (picked, _) = space.pick(&mut rng).refine.unwrap();
        assert!(Arc::ptr_eq(&picked, &slot));
        assert_eq!(slot.membership(), Membership::Potential);
        slot.record_user_query(false, 2);
        assert_eq!(slot.membership(), Membership::Actual);
    }

    #[test]
    fn w2_prefers_frequently_queried() {
        let space = space_with(Strategy::W2FrequencyDistance, None);
        let _cold = actual(&space, 100_000, "cold");
        let hot = actual(&space, 100_000, "hot");
        for _ in 0..10 {
            hot.record_user_query(false, 1);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let (picked, _) = space.pick(&mut rng).refine.unwrap();
        assert!(Arc::ptr_eq(&picked, &hot));
    }

    #[test]
    fn w3_discounts_exact_hits() {
        let space = space_with(Strategy::W3MissDistance, None);
        let hits = actual(&space, 100_000, "hits");
        let misses = actual(&space, 100_000, "misses");
        for _ in 0..10 {
            hits.record_user_query(true, 0); // exact hits
            misses.record_user_query(false, 2);
        }
        let mut rng = StdRng::seed_from_u64(6);
        let (picked, _) = space.pick(&mut rng).refine.unwrap();
        assert!(Arc::ptr_eq(&picked, &misses));
    }

    #[test]
    fn lfu_eviction_respects_budget() {
        // Each 10k-i64 index is ~120 KiB + index overhead; budget fits ~2.
        let space = space_with(Strategy::W4Random, Some(300 * 1024));
        let a = actual(&space, 10_000, "a");
        let b = actual(&space, 10_000, "b");
        // Make `a` hot so `b` is the LFU victim.
        for _ in 0..5 {
            a.record_user_query(false, 1);
        }
        let c = actual(&space, 10_000, "c");
        assert!(b.is_dropped());
        assert_eq!(a.membership(), Membership::Actual);
        assert_eq!(c.membership(), Membership::Actual);
        assert_eq!(space.membership_counts(), (2, 0, 0, 1));
        assert!(space.bytes_used() <= 300 * 1024);
    }

    /// A fixed-size index that counts how often its payload is read.
    struct CountingIndex {
        bytes: usize,
        payload_reads: Arc<AtomicUsize>,
    }

    impl RefinableIndex for CountingIndex {
        fn name(&self) -> &str {
            "counting"
        }
        fn len(&self) -> usize {
            1 << 20
        }
        fn piece_count(&self) -> usize {
            1
        }
        fn payload_bytes(&self) -> usize {
            self.payload_reads.fetch_add(1, Ordering::Relaxed);
            self.bytes
        }
        fn refine_random(
            &self,
            _rng: &mut dyn RngCore,
            _attempts: usize,
            _scratch: &mut CrackScratch,
        ) -> RefineOutcome {
            RefineOutcome::Busy
        }
    }

    #[test]
    fn one_registration_reads_each_payload_once_however_many_victims() {
        let (live, victims) = (10, 5);
        let space = space_with(Strategy::W4Random, Some(live * 100));
        let payload_reads = Arc::new(AtomicUsize::new(0));
        let index = |bytes| -> Arc<dyn RefinableIndex> {
            Arc::new(CountingIndex {
                bytes,
                payload_reads: Arc::clone(&payload_reads),
            })
        };
        for _ in 0..live {
            register_one(&space, index(100), Membership::Actual);
        }
        assert_eq!(space.membership_counts().3, 0, "the budget fits them all");
        payload_reads.store(0, Ordering::Relaxed);
        register_one(&space, index(victims * 100), Membership::Actual);
        assert_eq!(space.membership_counts().3, victims);
        // The incoming index, every live payload once, every victim once
        // more as it goes — not a fresh sum of the table per victim.
        assert!(
            payload_reads.load(Ordering::Relaxed) <= 1 + live + victims,
            "{} payload reads to evict {victims} of {live}",
            payload_reads.load(Ordering::Relaxed)
        );
    }

    /// Flat in uptime: however many indices came and went, the table and
    /// the heap hold the live ones only, and the dropped are a counter.
    #[test]
    fn the_space_keeps_only_live_records_whatever_the_churn() {
        let space = space_with(Strategy::W1Distance, Some(300));
        let payload_reads = Arc::new(AtomicUsize::new(0));
        let mut held = Vec::new();
        for i in 0..1_000 {
            let index = Arc::new(CountingIndex {
                bytes: 100,
                payload_reads: Arc::clone(&payload_reads),
            });
            held.push(register_one(&space, index, Membership::Actual));
            let live = (i + 1).min(3);
            assert_eq!(space.table.read().live.len(), live);
            assert_eq!(space.heap.lock().len(), live);
        }
        assert_eq!(space.membership_counts(), (3, 0, 0, 997));
        assert_eq!(held.iter().filter(|s| !s.is_dropped()).count(), 3);
        // Retiring is as cheap to repeat as to do: the second call finds
        // nothing to drop.
        let last = held.last().unwrap();
        space.retire(last);
        space.retire(last);
        assert!(last.is_dropped());
        assert_eq!(space.membership_counts(), (2, 0, 0, 998));
        assert_eq!(space.heap.lock().len(), 2);
    }

    #[test]
    fn eviction_releases_the_column_payload() {
        let space = space_with(Strategy::W4Random, Some(300 * 1024));
        let base: Vec<i64> = (0..10_000i64).rev().collect();
        let victim: Arc<dyn RefinableIndex> = Arc::new(CrackerColumn::from_base("victim", &base));
        let weak = Arc::downgrade(&victim);
        let v = register_one(&space, victim, Membership::Actual);
        // Two more registrations blow the budget; `v` is the LFU victim.
        actual(&space, 10_000, "b");
        actual(&space, 10_000, "c");
        assert!(v.is_dropped());
        // The space dropped its reference at eviction; the owner still
        // holding the slot pins nothing but the counters.
        assert!(
            weak.upgrade().is_none(),
            "a dropped slot still pins the column payload"
        );
        v.record_user_query(false, 1);
        assert_eq!(v.stats().queries(), 0, "a dropped slot records nothing");
        assert!(v.is_dropped(), "Dropped is final");
    }

    #[test]
    fn total_pieces_sums_live_indices() {
        let space = space_with(Strategy::W4Random, None);
        let h = make_handle(50_000, "a");
        register_one(&space, Arc::clone(&h), Membership::Actual);
        actual(&space, 50_000, "b");
        assert_eq!(space.total_pieces(), 2);
        let mut rng = StdRng::seed_from_u64(7);
        h.refine_random(&mut rng, 8, &mut CrackScratch::new());
        assert_eq!(space.total_pieces(), 3);
    }

    /// The acceptance check for the sharded service layer: the query side
    /// must complete while another thread holds the maintenance heap mutex
    /// **and** the table's write lock — i.e. the per-query path takes no
    /// lock of the space at all.
    #[test]
    fn query_side_needs_no_maintenance_or_write_lock() {
        let space = space_with(Strategy::W2FrequencyDistance, None);
        let slot = actual(&space, 100_000, "a");
        let heap_guard = space.heap.lock();
        let table_guard = space.table.write();
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    slot.record_user_query(false, 1);
                }
                assert!(!slot.is_dropped());
                assert_eq!(slot.membership(), Membership::Actual);
                assert_eq!(slot.stats().queries(), 100);
                tx.send(()).unwrap();
            })
        };
        rx.recv_timeout(Duration::from_secs(10))
            .expect("query-side method blocked on a lock of the space");
        probe.join().unwrap();
        drop(table_guard);
        drop(heap_guard);
        // The deferred weight refresh lands at pick time.
        let mut rng = StdRng::seed_from_u64(8);
        let (picked, _) = space.pick(&mut rng).refine.unwrap();
        assert!(Arc::ptr_eq(&picked, &slot));
        assert!(space.heap.lock().weight(slot.key).is_some());
    }

    /// A batch registration (one attribute's shards) may evict anything
    /// pre-existing but never its own members — otherwise a sharded
    /// attribute's cells could be born with Dropped siblings and rebuilt
    /// on every query.
    #[test]
    fn batch_registration_never_evicts_its_own_members() {
        // Budget fits ~2 of the 10k-value indices.
        let space = space_with(Strategy::W1Distance, Some(300 * 1024));
        let old = actual(&space, 10_000, "old");
        // A 3-shard batch alone exceeds the budget: the old index goes,
        // the batch is admitted whole.
        let batch: Vec<Arc<dyn RefinableIndex>> = (0..3)
            .map(|k| make_handle(10_000, &format!("s{k}")))
            .collect();
        let slots = space.register(batch, Membership::Actual);
        assert!(old.is_dropped());
        for (k, slot) in slots.iter().enumerate() {
            assert_eq!(
                slot.membership(),
                Membership::Actual,
                "batch member {k} evicted by its own registration"
            );
        }
    }

    /// Budget pressure is the charged fraction of the budget, zero with
    /// no budget.
    #[test]
    fn budget_pressure_is_the_charged_fraction() {
        assert_eq!(
            space_with(Strategy::W4Random, None).budget_pressure(),
            0.0,
            "no budget, no pressure"
        );
        let space = space_with(Strategy::W4Random, Some(1_000_000));
        actual(&space, 10_000, "a");
        actual(&space, 10_000, "b");
        let p = space.budget_pressure();
        assert!(p > 0.0 && p < 1.0, "two small indices: {p}");
        assert_eq!(p, space.bytes_used() as f64 / 1_000_000.0);
    }

    /// Regression: a stale heap node for an evicted slot — the residue of
    /// a refresh racing eviction — must not wedge `pick`. The stale top is
    /// skipped, healed out of the heap, and the next live candidate
    /// returned.
    #[test]
    fn pick_heals_stale_heap_entries_for_dropped_ids() {
        let space = space_with(Strategy::W1Distance, Some(300 * 1024));
        let victim = actual(&space, 10_000, "victim");
        // Heat the survivor so the victim is the LFU target, then evict it.
        let survivor = actual(&space, 10_000, "survivor");
        for _ in 0..5 {
            survivor.record_user_query(false, 1);
        }
        actual(&space, 10_000, "filler");
        assert!(victim.is_dropped());
        // Manufacture the race residue: the dropped slot's key back in the
        // heap with the maximum weight, exactly as a lost refresh would
        // leave it.
        space.heap.lock().upsert(victim.key, u128::MAX);
        let mut rng = StdRng::seed_from_u64(10);
        let (picked, _) = space
            .pick(&mut rng)
            .refine
            .expect("stale node wedged the space");
        assert!(!Arc::ptr_eq(&picked, &victim), "picked an evicted index");
        // And the stale node is gone for good.
        assert!(!space.heap.lock().contains(victim.key));
    }

    /// Query threads hammering `record_user_query` while the maintenance
    /// side registers, picks and refines concurrently — memberships must
    /// stay consistent (no query resurrects a Dropped slot, every
    /// promotion lands).
    #[test]
    fn concurrent_query_and_maintenance_paths() {
        let space = space_with(Strategy::W2FrequencyDistance, None);
        let slots: Vec<Arc<IndexSlot>> = (0..4)
            .map(|i| {
                register_one(
                    &space,
                    make_handle(50_000, &format!("c{i}")),
                    Membership::Potential,
                )
            })
            .collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let slots = &slots;
                s.spawn(move || {
                    for i in 0..500 {
                        slots[(t + i) % slots.len()].record_user_query(i % 3 == 0, 1);
                    }
                });
            }
            let space = &space;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(9);
                for _ in 0..200 {
                    if let Some((slot, h)) = space.pick(&mut rng).refine {
                        let res = h.refine_random(&mut rng, 4, &mut CrackScratch::new());
                        space.record_worker_outcome(&slot, h.as_ref(), res);
                    }
                }
            });
        });
        let (actual, potential, optimal, dropped) = space.membership_counts();
        assert_eq!(actual + potential + optimal + dropped, 4);
        assert_eq!(dropped, 0);
        // Every index saw queries, so none may still be Potential.
        assert_eq!(potential, 0, "user queries did not promote");
        for slot in &slots {
            assert_eq!(slot.stats().queries(), 500);
        }
    }
}
