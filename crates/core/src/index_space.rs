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
//! statistics, membership tag, dirty flag and last distance-to-optimal —
//! and the owner keeps it next to the index. The **per-query path is a
//! method on that slot** ([`IndexSlot::record_user_query`],
//! [`IndexSlot::is_dropped`]): atomic counters, one CAS for the promotion
//! and a dirty-flag store. It takes no lock of the space and never looks
//! anything up (the multi-core experiments of Fig 11/Fig 17 serialize on
//! exactly such a lock otherwise).
//!
//! The space itself keeps only what is **live**: a table of `(slot,
//! index)` pairs in registration order, behind its one lock. Eviction and
//! [`IndexSpace::retire`] mark the slot [`Membership::Dropped`], remove the
//! pair — the space's reference to the index payload goes with it — and
//! count it, so every walk of the table (`pick`, `bytes_used`, eviction)
//! costs the number of live indices whatever the uptime. A `Dropped` slot
//! an owner still holds pins nothing but its own counters; `Dropped` is
//! final, the owner builds and registers a new index to come back.
//!
//! The maintenance side — [`IndexSpace::pick`] (the daemon, once per tuning
//! cycle) — refreshes the distances of dirty slots and weighs every
//! candidate in the same walk of the table: the paper's heap of weights
//! ("one node per index", §4.2) would be a second copy of that table, kept
//! up to date on every refinement for a pick that walks the table anyway.
//! Registration and retirement are the only writers of the table.

use crate::config::HolisticConfig;
use crate::handle::{distance_to_optimal, RefinableIndex};
use crate::stats::IndexStats;
use crate::strategy::Strategy;
use parking_lot::RwLock;
use rand::seq::IndexedRandom;
use rand::RngCore;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
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
    /// Set by the query path when the index may have changed; the
    /// maintenance side refreshes `distance` at `pick` time.
    dirty: AtomicBool,
    /// `d(I, I_opt)` (Equation 1) as of the last refresh: what the
    /// strategy weighs, with the live counters, at `pick` time.
    distance: AtomicU64,
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
    /// a potential index to `C_actual` and requests a distance refresh —
    /// the slot catches up when the daemon next calls
    /// [`IndexSpace::pick`]. Lock-free; a no-op on a dropped slot.
    pub fn record_user_query(&self, exact_hit: bool) {
        if self.is_dropped() {
            return;
        }
        self.stats.record_query(exact_hit);
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
    /// Every live index, in registration order.
    live: Vec<Live>,
    /// Indices evicted or retired so far.
    dropped: usize,
}

impl Table {
    /// Materialised bytes across the live indices.
    fn bytes_used(&self) -> usize {
        self.live.iter().map(|(_, h)| h.payload_bytes()).sum()
    }
}

/// Registry of the live adaptive indices with memberships, distances and
/// budget, behind one lock. The query side ([`IndexSlot`]) never takes it.
pub struct IndexSpace {
    /// Written only by registration, eviction and retirement.
    table: RwLock<Table>,
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
                    distance: AtomicU64::new(d),
                });
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

    /// Drops live index `at`: out of the table, its slot `Dropped`.
    /// Returns the payload reference the space was holding.
    fn forget(&self, table: &mut Table, at: usize) -> Arc<dyn RefinableIndex> {
        let (slot, handle) = table.live.remove(at);
        slot.membership
            .store(Membership::Dropped as u8, Ordering::Release);
        table.dropped += 1;
        handle
    }

    /// Drops an index the owner no longer references — e.g. an engine
    /// retiring the shards a replan migrated into their successors — so
    /// live records never become unreachable orphans that pin payload
    /// bytes against the budget and feed the daemon dead columns.
    /// Same effect as a budget eviction; a no-op on a dropped slot.
    pub fn retire(&self, slot: &IndexSlot) {
        let mut table = self.table.write();
        let at = table
            .live
            .iter()
            .position(|(s, _)| std::ptr::eq(&**s, slot));
        if let Some(at) = at {
            self.forget(&mut table, at);
        }
    }

    /// Recomputes `d`; moves the index to `C_optimal` when `d = 0`
    /// ("Remove I from IS if d(I, I_opt) = 0", Fig 2). Maintenance side:
    /// `pick` refreshes dirty slots, a worker the index it just refined.
    pub(crate) fn refresh_distance(&self, slot: &IndexSlot, handle: &dyn RefinableIndex) {
        if matches!(slot.membership(), Membership::Dropped | Membership::Optimal) {
            return;
        }
        let d = distance_to_optimal(handle, self.config.l1_values());
        slot.distance.store(d, Ordering::Relaxed);
        if d == 0 {
            // Dropped is final: an eviction racing this refresh wins.
            let _ = slot
                .membership
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |tag| {
                    (tag != Membership::Dropped as u8).then_some(Membership::Optimal as u8)
                });
        }
    }

    /// Picks the next index to refine per the configured strategy: the
    /// heaviest `C_actual` member (W1–W3; the oldest on a tie) or a
    /// uniformly random one (W4); falls back to a random `C_potential`
    /// index when no `C_actual` member has a weight above zero. One walk of
    /// the table, maintenance side: it refreshes the distances the query
    /// side marked dirty, weighs each candidate from its distance and live
    /// counters, and collects the indices due for a background drain,
    /// `C_optimal` ones included: the paper's idle workers merge queued
    /// updates (§4.2), and a converged index is never picked to refine.
    pub fn pick(&self, rng: &mut dyn RngCore) -> Pick {
        let table = self.table.read();
        let strategy = self.config.strategy;
        let mut drains = Vec::new();
        // W4's candidates; W1–W3's heaviest so far, as `(weight, at)`.
        let mut actual = Vec::new();
        let mut heaviest = (0, None);
        let mut potential = Vec::new();
        for (at, (slot, handle)) in table.live.iter().enumerate() {
            if slot.dirty.swap(false, Ordering::AcqRel) {
                self.refresh_distance(slot, handle.as_ref());
            }
            if handle.drain_due() {
                drains.push(Arc::clone(handle));
            }
            match slot.membership() {
                Membership::Actual if strategy == Strategy::W4Random => actual.push(at),
                Membership::Actual => {
                    let w = strategy.weight(
                        slot.distance.load(Ordering::Relaxed),
                        slot.stats.queries(),
                        slot.stats.exact_hits(),
                    );
                    if w > heaviest.0 {
                        heaviest = (w, Some(at));
                    }
                }
                Membership::Potential => potential.push(at),
                Membership::Optimal | Membership::Dropped => {}
            }
        }
        let at = match strategy {
            Strategy::W4Random => actual.choose(&mut *rng).copied(),
            _ => heaviest.1,
        };
        let at = at.or_else(|| potential.choose(&mut *rng).copied());
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
        self.table.read().bytes_used()
    }

    /// [`IndexSpace::bytes_used`] without waiting: `None` while
    /// registration, eviction or retirement holds the registry or waits
    /// for it, so a plan-time price never queues behind maintenance.
    pub fn try_bytes_used(&self) -> Option<usize> {
        Some(self.table.try_read()?.bytes_used())
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

    /// Test-only: holds the registry's lock — the maintenance side's only
    /// lock — exclusively, so tests can assert that plan-time reads (the
    /// planner's `estimate()`) complete while registration, eviction or a
    /// pick would wait. Releases when the returned guard drops.
    #[doc(hidden)]
    pub fn hold_registry_for_test(&self) -> impl Sized + '_ {
        self.table.write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holix_cracking::{CrackScratch, CrackerColumn, RefineOutcome};
    use proptest::prelude::{any, proptest, ProptestConfig};
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
            h.refine_random(&mut rng, 8, &mut CrackScratch::new());
            space.refresh_distance(&picked, h.as_ref());
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
        slot.record_user_query(false);
        assert_eq!(slot.membership(), Membership::Actual);
    }

    #[test]
    fn w2_prefers_frequently_queried() {
        let space = space_with(Strategy::W2FrequencyDistance, None);
        let _cold = actual(&space, 100_000, "cold");
        let hot = actual(&space, 100_000, "hot");
        for _ in 0..10 {
            hot.record_user_query(false);
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
            hits.record_user_query(true); // exact hits
            misses.record_user_query(false);
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
            a.record_user_query(false);
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

    /// Flat in uptime: however many indices came and went, the table
    /// holds the live ones only, and the dropped are a counter.
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
        v.record_user_query(false);
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
    /// must complete while another thread holds the table's write lock —
    /// the space's only lock — i.e. the per-query path takes no lock of
    /// the space at all.
    #[test]
    fn query_side_needs_no_maintenance_or_write_lock() {
        let space = space_with(Strategy::W2FrequencyDistance, None);
        let handle = make_handle(100_000, "a");
        let slot = register_one(&space, Arc::clone(&handle), Membership::Actual);
        let registered = slot.distance.load(Ordering::Relaxed);
        let table_guard = space.table.write();
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = {
            let (slot, handle) = (Arc::clone(&slot), Arc::clone(&handle));
            std::thread::spawn(move || {
                // Every 20th query cracks the index, beside the space.
                let mut rng = StdRng::seed_from_u64(8);
                let mut scratch = CrackScratch::new();
                for i in 0..100 {
                    if i % 20 == 0 {
                        handle.refine_random(&mut rng, 8, &mut scratch);
                    }
                    slot.record_user_query(false);
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
        // The deferred refresh sets `d` at pick time.
        assert_eq!(slot.distance.load(Ordering::Relaxed), registered);
        let mut rng = StdRng::seed_from_u64(8);
        let (picked, _) = space.pick(&mut rng).refine.unwrap();
        assert!(Arc::ptr_eq(&picked, &slot));
        let d = distance_to_optimal(handle.as_ref(), HolisticConfig::default().l1_values());
        assert!(0 < d && d < registered, "five cracks left d at {d}");
        assert_eq!(slot.distance.load(Ordering::Relaxed), d);
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

    /// `pick` under a weighing strategy, against a brute force over the
    /// model's live records: the `C_actual` record of greatest weight —
    /// from its counters and its column's `len` / `piece_count` — the
    /// oldest on a tie, else a live `C_potential` record, else nothing.
    fn check_pick(
        space: &IndexSpace,
        strategy: Strategy,
        held: &[(Arc<IndexSlot>, Arc<CrackerColumn>)],
        rng: &mut StdRng,
    ) {
        let picked = space.pick(rng).refine.map(|(slot, _)| slot);
        let l1 = HolisticConfig::default().l1_values();
        let live = || held.iter().filter(|(s, _)| !s.is_dropped());
        let mut heaviest: (u128, Option<&Arc<IndexSlot>>) = (0, None);
        for (slot, col) in live() {
            let d = distance_to_optimal(col.as_ref(), l1);
            assert_eq!(slot.membership() == Membership::Optimal, d == 0);
            if slot.membership() == Membership::Actual {
                let w = strategy.weight(d, slot.stats().queries(), slot.stats().exact_hits());
                if w > heaviest.0 {
                    heaviest = (w, Some(slot));
                }
            }
        }
        let potential = live().any(|(s, _)| s.membership() == Membership::Potential);
        match (heaviest.1, picked) {
            (Some(want), Some(got)) => assert!(
                Arc::ptr_eq(want, &got),
                "picked a record of weight {} below the heaviest {}",
                strategy.weight(
                    got.distance.load(Ordering::Relaxed),
                    got.stats().queries(),
                    got.stats().exact_hits()
                ),
                heaviest.0
            ),
            (None, Some(got)) => {
                assert!(potential, "picked with no candidate");
                assert_eq!(got.membership(), Membership::Potential);
                assert!(held.iter().any(|(s, _)| Arc::ptr_eq(s, &got)));
            }
            (want, None) => assert!(
                want.is_none() && !potential,
                "nothing picked beside a candidate"
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // Random registrations (Actual and Potential, budget evictions
        // among them), user queries with and without cracks, worker
        // refinements and retirements on real cracker columns; after
        // every step `pick` agrees with `check_pick`.
        #[test]
        fn prop_pick_is_the_brute_force_choice(
            strategy in 0usize..3,
            steps in proptest::collection::vec(
                (0u8..4, 0usize..64, 0usize..4, any::<bool>()), 1..40),
        ) {
            let strategy = Strategy::ALL[strategy];
            // A few columns' worth: registrations evict.
            let space = space_with(strategy, Some(1 << 20));
            let mut held: Vec<(Arc<IndexSlot>, Arc<CrackerColumn>)> = Vec::new();
            let mut rng = StdRng::seed_from_u64(11);
            let mut scratch = CrackScratch::new();
            for (op, at, size, flag) in steps {
                let target = (!held.is_empty()).then(|| held[at % held.len()].clone());
                match (op, target) {
                    (0, _) | (_, None) => {
                        let n = [2_000, 6_000, 12_000, 24_000][size];
                        let base: Vec<i64> = (0..n as i64).rev().collect();
                        let name = format!("c{}", held.len());
                        let col = Arc::new(CrackerColumn::from_base(name, &base));
                        let membership = match flag {
                            true => Membership::Potential,
                            false => Membership::Actual,
                        };
                        let slot = register_one(&space, Arc::clone(&col) as _, membership);
                        held.push((slot, col));
                    }
                    (1, Some((slot, col))) => {
                        // A query that cracks, or one answered exactly.
                        if !flag {
                            col.refine_random(&mut rng, &mut scratch, 8);
                        }
                        slot.record_user_query(flag);
                    }
                    (2, Some((slot, col))) => {
                        col.refine_random(&mut rng, &mut scratch, 8);
                        space.refresh_distance(&slot, col.as_ref());
                    }
                    (_, Some((slot, _))) => space.retire(&slot),
                }
                check_pick(&space, strategy, &held, &mut rng);
            }
        }
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
                        slots[(t + i) % slots.len()].record_user_query(i % 3 == 0);
                    }
                });
            }
            let space = &space;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(9);
                for _ in 0..200 {
                    if let Some((slot, h)) = space.pick(&mut rng).refine {
                        h.refine_random(&mut rng, 4, &mut CrackScratch::new());
                        space.refresh_distance(&slot, h.as_ref());
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
