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
//! ## Query-side vs maintenance-side API
//!
//! The registry is split so the **per-query path never takes a write lock**
//! (the multi-core experiments of Fig 11/Fig 17 serialize on exactly that
//! lock otherwise):
//!
//! - *Query side* — [`IndexSpace::get`], [`IndexSpace::membership`] and
//!   [`IndexSpace::record_user_query`] only take the entry table's **read**
//!   lock; statistics are atomics, membership promotion is a CAS on an
//!   atomic tag, and a weight refresh is merely *requested* by setting the
//!   entry's dirty flag.
//! - *Maintenance side* — [`IndexSpace::pick`] (the daemon, once per tuning
//!   cycle) folds the dirty flags into the weight heap before choosing;
//!   [`IndexSpace::register_actual`] / [`IndexSpace::register_potential`]
//!   (first touch of an attribute shard) and eviction are the only writers
//!   of the entry table. The weight heap itself lives behind a separate
//!   maintenance mutex that no query-side method ever touches.

use crate::config::HolisticConfig;
use crate::handle::{distance_to_optimal, RefinableIndex, RefineResult};
use crate::stats::IndexStats;
use crate::strategy::Strategy;
use crate::weight_heap::WeightHeap;
use parking_lot::{Mutex, RwLock};
use rand::seq::IndexedRandom;
use rand::RngCore;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

/// Slot id of an index inside the space (stable for the space's lifetime).
pub type IndexId = usize;

/// Which configuration an index currently belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// Created by a user query; candidate for weighted refinement.
    Actual,
    /// Added speculatively; refined when `C_actual` is exhausted.
    Potential,
    /// Average piece size ≤ |L1|; no further background refinement.
    Optimal,
    /// Evicted by the storage budget; the owner should drop and possibly
    /// re-create it.
    Dropped,
}

const TAG_ACTUAL: u8 = 0;
const TAG_POTENTIAL: u8 = 1;
const TAG_OPTIMAL: u8 = 2;
const TAG_DROPPED: u8 = 3;

impl Membership {
    fn tag(self) -> u8 {
        match self {
            Membership::Actual => TAG_ACTUAL,
            Membership::Potential => TAG_POTENTIAL,
            Membership::Optimal => TAG_OPTIMAL,
            Membership::Dropped => TAG_DROPPED,
        }
    }

    fn from_tag(tag: u8) -> Membership {
        match tag {
            TAG_ACTUAL => Membership::Actual,
            TAG_POTENTIAL => Membership::Potential,
            TAG_OPTIMAL => Membership::Optimal,
            _ => Membership::Dropped,
        }
    }
}

struct Entry {
    /// `None` once evicted — a Dropped entry must not pin the column's
    /// payload in memory (only the membership tombstone remains).
    handle: RwLock<Option<Arc<dyn RefinableIndex>>>,
    stats: Arc<IndexStats>,
    membership: AtomicU8,
    /// Set by the query path when this entry's weight went stale; folded
    /// into the heap by the maintenance side at `pick` time.
    dirty: AtomicBool,
}

impl Entry {
    fn membership(&self) -> Membership {
        Membership::from_tag(self.membership.load(Ordering::Acquire))
    }

    fn live_handle(&self) -> Option<Arc<dyn RefinableIndex>> {
        self.handle.read().clone()
    }
}

/// Registry of adaptive indices with weights, memberships and budget.
///
/// Lock order (outermost first): `entries` → per-entry `handle` → `heap`.
/// The heap guard is never held while acquiring either of the others.
pub struct IndexSpace {
    /// Append-only table of index slots; write-locked only by registration.
    entries: RwLock<Vec<Arc<Entry>>>,
    /// Heap over `C_actual` entries with non-zero weight (strategies W1–W3;
    /// maintained under W4 too so optimality transitions are uniform).
    /// Maintenance-side only: query-side methods never lock it.
    heap: Mutex<WeightHeap>,
    config: HolisticConfig,
}

impl IndexSpace {
    /// Empty space.
    pub fn new(config: HolisticConfig) -> Self {
        IndexSpace {
            entries: RwLock::new(Vec::new()),
            heap: Mutex::new(WeightHeap::new()),
            config,
        }
    }

    /// The configuration this space runs with.
    pub fn config(&self) -> &HolisticConfig {
        &self.config
    }

    /// Registers an index created by a user query (goes to `C_actual`).
    /// Returns the slot id and the shared statistics handle the select
    /// operator updates.
    pub fn register_actual(&self, handle: Arc<dyn RefinableIndex>) -> (IndexId, Arc<IndexStats>) {
        self.register_batch(vec![handle], Membership::Actual)
            .pop()
            .expect("batch of one")
    }

    /// Registers a speculative index (goes to `C_potential`).
    pub fn register_potential(
        &self,
        handle: Arc<dyn RefinableIndex>,
    ) -> (IndexId, Arc<IndexStats>) {
        self.register_batch(vec![handle], Membership::Potential)
            .pop()
            .expect("batch of one")
    }

    /// Registers several indices as one admission unit in `C_actual` — the
    /// shards one operation builds. The storage budget is sized once for the
    /// batch's total bytes and eviction only considers *pre-existing*
    /// entries, so the budget can never evict one sibling shard while its
    /// brothers register (which would leave the owner's slot born-dead and
    /// rebuilt on every query).
    pub fn register_actual_batch(
        &self,
        handles: Vec<Arc<dyn RefinableIndex>>,
    ) -> Vec<(IndexId, Arc<IndexStats>)> {
        self.register_batch(handles, Membership::Actual)
    }

    /// [`IndexSpace::register_actual_batch`] into `C_potential`.
    pub fn register_potential_batch(
        &self,
        handles: Vec<Arc<dyn RefinableIndex>>,
    ) -> Vec<(IndexId, Arc<IndexStats>)> {
        self.register_batch(handles, Membership::Potential)
    }

    fn register_batch(
        &self,
        handles: Vec<Arc<dyn RefinableIndex>>,
        membership: Membership,
    ) -> Vec<(IndexId, Arc<IndexStats>)> {
        let mut entries = self.entries.write();
        let incoming: usize = handles.iter().map(|h| h.payload_bytes()).sum();
        // Victims are chosen before the batch is appended, so a batch can
        // evict anything pre-existing but never its own members; like a
        // single oversized index, a batch larger than the whole budget is
        // still admitted (the alternative leaves the query unanswerable).
        self.make_room(&mut entries, incoming);
        handles
            .into_iter()
            .map(|handle| {
                let stats = Arc::new(IndexStats::new());
                let id = entries.len();
                let d = distance_to_optimal(handle.as_ref(), self.config.l1_bytes);
                let membership = if d == 0 {
                    Membership::Optimal
                } else {
                    membership
                };
                entries.push(Arc::new(Entry {
                    handle: RwLock::new(Some(handle)),
                    stats: Arc::clone(&stats),
                    membership: AtomicU8::new(membership.tag()),
                    dirty: AtomicBool::new(false),
                }));
                if membership == Membership::Actual {
                    let w = self.config.strategy.weight(d, 0, 0);
                    self.heap.lock().upsert(id, w);
                }
                (id, stats)
            })
            .collect()
    }

    /// Evicts least-frequently-used indices until `incoming` bytes fit in
    /// the budget (no-op when unlimited). The incoming index is always
    /// admitted even if it alone exceeds the budget — dropping the index a
    /// query needs right now would leave the query unanswerable.
    fn make_room(&self, entries: &mut [Arc<Entry>], incoming: usize) {
        let Some(budget) = self.config.storage_budget else {
            return;
        };
        // Summed once: every victim's bytes are subtracted as it goes, so
        // one registration reads each live payload once however many
        // victims it takes.
        let mut used: usize = entries
            .iter()
            .filter(|e| e.membership() != Membership::Dropped)
            .filter_map(|e| e.handle.read().as_ref().map(|h| h.payload_bytes()))
            .sum();
        while used + incoming > budget {
            // LFU victim among all live entries.
            let victim = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.membership() != Membership::Dropped)
                .min_by_key(|(_, e)| e.stats.queries())
                .map(|(i, _)| i);
            let Some(v) = victim else { return };
            entries[v]
                .membership
                .store(Membership::Dropped.tag(), Ordering::Release);
            // Release the column payload; the tombstone keeps only stats.
            let evicted = entries[v].handle.write().take();
            used = used.saturating_sub(evicted.map_or(0, |h| h.payload_bytes()));
            self.heap.lock().remove(v);
        }
    }

    fn entry(&self, id: IndexId) -> Option<Arc<Entry>> {
        self.entries.read().get(id).cloned()
    }

    /// Tombstones a slot the owner no longer references — e.g. an engine
    /// retiring the shards a replan migrated into their successors — so
    /// live entries never become unreachable orphans that pin payload
    /// bytes against the budget and feed the daemon dead columns.
    /// Maintenance side; same effect as a budget eviction.
    pub fn retire(&self, id: IndexId) {
        let Some(e) = self.entry(id) else {
            return;
        };
        e.membership
            .store(Membership::Dropped.tag(), Ordering::Release);
        *e.handle.write() = None;
        self.heap.lock().remove(id);
    }

    /// Handle and stats for a slot (`None` when dropped/unknown).
    /// Query-side: read locks only.
    pub fn get(&self, id: IndexId) -> Option<(Arc<dyn RefinableIndex>, Arc<IndexStats>)> {
        let e = self.entry(id)?;
        if e.membership() == Membership::Dropped {
            return None;
        }
        Some((e.live_handle()?, Arc::clone(&e.stats)))
    }

    /// Current membership of a slot. Query-side: read locks only.
    pub fn membership(&self, id: IndexId) -> Option<Membership> {
        Some(self.entry(id)?.membership())
    }

    /// Records a user query on an index: updates `f_I` / `f_Ih`, promotes a
    /// potential index to `C_actual` and requests a weight refresh.
    ///
    /// Query-side hot path: entry-table **read** lock, atomic counters, one
    /// CAS for the promotion and a dirty-flag store — no write lock, no heap
    /// lock. The weight heap catches up when the daemon next calls
    /// [`IndexSpace::pick`].
    pub fn record_user_query(&self, id: IndexId, exact_hit: bool, bounds_cracked: u64) {
        let Some(e) = self.entry(id) else {
            return;
        };
        if e.membership() == Membership::Dropped {
            return;
        }
        e.stats.record_query(exact_hit, bounds_cracked);
        // Promote `C_potential` → `C_actual` on first user query. A lost CAS
        // means a racing query (or the maintenance side) already moved the
        // entry on — never overwrite Optimal or Dropped.
        let _ = e.membership.compare_exchange(
            TAG_POTENTIAL,
            TAG_ACTUAL,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        e.dirty.store(true, Ordering::Release);
    }

    /// Records a worker refinement outcome and refreshes the weight
    /// (maintenance side: called by holistic workers, not user queries).
    pub fn record_worker_outcome(&self, id: IndexId, result: RefineResult) {
        let Some(e) = self.entry(id) else {
            return;
        };
        match result {
            RefineResult::Refined { .. } => e.stats.record_worker_refinement(),
            RefineResult::Busy => e.stats.record_worker_busy(),
            RefineResult::AlreadyBound => {}
        }
        self.refresh_weight(id, &e);
    }

    /// Recomputes `W_I`; moves the index to `C_optimal` when `d = 0`
    /// ("Remove I from IS if d(I, I_opt) = 0", Fig 2). Maintenance side.
    fn refresh_weight(&self, id: IndexId, e: &Entry) {
        if matches!(e.membership(), Membership::Dropped | Membership::Optimal) {
            return;
        }
        let Some(handle) = e.live_handle() else {
            return;
        };
        let d = distance_to_optimal(handle.as_ref(), self.config.l1_bytes);
        if d == 0 {
            e.membership
                .store(Membership::Optimal.tag(), Ordering::Release);
            self.heap.lock().remove(id);
            return;
        }
        if e.membership() == Membership::Actual {
            let w = self
                .config
                .strategy
                .weight(d, e.stats.queries(), e.stats.exact_hits());
            let mut heap = self.heap.lock();
            heap.upsert(id, w);
            // Eviction can race between the membership check above and the
            // upsert (it tombstones the entry, then removes it from the
            // heap — possibly before our upsert landed). Dropped is final,
            // so a re-check under the heap lock makes the pair safe in
            // either interleaving: a Dropped id never lingers in the heap.
            if e.membership() == Membership::Dropped {
                heap.remove(id);
            }
        }
    }

    /// Folds query-side dirty flags into the weight heap (one pass over the
    /// entry table; only dirty entries pay the weight recomputation).
    fn fold_dirty(&self) {
        let entries = self.entries.read();
        for (id, e) in entries.iter().enumerate() {
            if e.dirty.swap(false, Ordering::AcqRel) {
                self.refresh_weight(id, e);
            }
        }
    }

    /// Picks the next index to refine per the configured strategy:
    /// highest weight in `C_actual` (W1–W3) or a uniformly random member
    /// (W4); falls back to a random `C_potential` entry when `C_actual` has
    /// no candidates. Maintenance side — folds pending query-side weight
    /// refreshes first.
    pub fn pick(&self, rng: &mut dyn RngCore) -> Option<(IndexId, Arc<dyn RefinableIndex>)> {
        self.fold_dirty();
        let entries = self.entries.read();
        let mut pick_random = |members: Membership| -> Option<IndexId> {
            let ids: Vec<IndexId> = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.membership() == members)
                .map(|(i, _)| i)
                .collect();
            let mut rng = rng_compat(rng);
            ids.choose(&mut rng).copied()
        };
        let id = match self.config.strategy {
            Strategy::W4Random => pick_random(Membership::Actual),
            // Skip-and-heal: a stale heap top (an id evicted between a
            // refresh's membership check and its upsert) must not make the
            // whole space unpickable — drop it from the heap and retry.
            // The heap lock is released while probing liveness so the
            // entries → handle → heap order is never inverted.
            _ => loop {
                let top = self
                    .heap
                    .lock()
                    .peek_max()
                    .filter(|&(_, w)| w > 0)
                    .map(|(k, _)| k);
                let Some(k) = top else { break None };
                let live = entries.get(k).is_some_and(|e| {
                    e.membership() != Membership::Dropped && e.handle.read().is_some()
                });
                if live {
                    break Some(k);
                }
                self.heap.lock().remove(k);
            },
        };
        let id = id.or_else(|| pick_random(Membership::Potential))?;
        let handle = entries.get(id)?.live_handle()?;
        Some((id, handle))
    }

    /// `(actual, potential, optimal, dropped)` counts.
    pub fn membership_counts(&self) -> (usize, usize, usize, usize) {
        let entries = self.entries.read();
        let mut c = (0, 0, 0, 0);
        for e in entries.iter() {
            match e.membership() {
                Membership::Actual => c.0 += 1,
                Membership::Potential => c.1 += 1,
                Membership::Optimal => c.2 += 1,
                Membership::Dropped => c.3 += 1,
            }
        }
        c
    }

    /// Total pieces across live indices (the Fig 6(c) series).
    pub fn total_pieces(&self) -> usize {
        let entries = self.entries.read();
        entries
            .iter()
            .filter(|e| e.membership() != Membership::Dropped)
            .filter_map(|e| e.handle.read().as_ref().map(|h| h.piece_count()))
            .sum()
    }

    /// Materialised bytes across live indices.
    pub fn bytes_used(&self) -> usize {
        let entries = self.entries.read();
        entries
            .iter()
            .filter(|e| e.membership() != Membership::Dropped)
            .filter_map(|e| e.handle.read().as_ref().map(|h| h.payload_bytes()))
            .sum()
    }

    /// Fraction of the storage budget currently charged: `0.0` with no
    /// budget configured, `>= 1.0` when the space is at or over budget.
    /// Workers use this to switch background morphing from pure coldness
    /// order to the attributes whose eviction is imminent.
    pub fn budget_pressure(&self) -> f64 {
        let Some(budget) = self.config.storage_budget else {
            return 0.0;
        };
        if budget == 0 {
            return 1.0;
        }
        self.bytes_used() as f64 / budget as f64
    }

    /// Up to `k` live indices in eviction order — the LFU victims
    /// [`IndexSpace::make_room`] would pick next. Under budget pressure the
    /// idle workers morph exactly these first: shrinking an
    /// imminent-eviction attribute's footprint is what can still save it.
    pub fn eviction_candidates(&self, k: usize) -> Vec<(IndexId, Arc<dyn RefinableIndex>)> {
        let entries = self.entries.read();
        let mut live: Vec<(u64, IndexId, Arc<dyn RefinableIndex>)> = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.membership() != Membership::Dropped)
            .filter_map(|(i, e)| e.live_handle().map(|h| (e.stats.queries(), i, h)))
            .collect();
        live.sort_by_key(|&(q, i, _)| (q, i));
        live.into_iter().take(k).map(|(_, i, h)| (i, h)).collect()
    }

    /// Test-only: parks the caller on the maintenance weight-heap mutex so
    /// lock-freedom tests can assert that plan-time reads (the planner's
    /// `estimate()`) complete while the daemon's maintenance side is busy.
    #[doc(hidden)]
    pub fn hold_maintenance_lock_for_test(&self) -> MaintenanceLockGuard<'_> {
        MaintenanceLockGuard(self.heap.lock())
    }

    /// Ids of all live indices.
    pub fn live_ids(&self) -> Vec<IndexId> {
        let entries = self.entries.read();
        entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.membership() != Membership::Dropped)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Held maintenance weight-heap mutex (see
/// [`IndexSpace::hold_maintenance_lock_for_test`]); releases on drop.
#[doc(hidden)]
pub struct MaintenanceLockGuard<'a>(#[allow(dead_code)] parking_lot::MutexGuard<'a, WeightHeap>);

/// `rand`'s `choose` needs `Rng: Sized`; wrap the dynamic RNG.
fn rng_compat<'a>(rng: &'a mut dyn RngCore) -> impl rand::Rng + 'a {
    rng
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::{CrackerHandle, WorkerScratch};
    use holix_cracking::CrackerColumn;
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
        Arc::new(CrackerHandle::new(Arc::new(CrackerColumn::from_base(
            name, &base,
        ))))
    }

    #[test]
    fn register_actual_and_pick_by_weight() {
        let space = space_with(Strategy::W1Distance, None);
        let (small, _) = space.register_actual(make_handle(50_000, "small"));
        let (big, _) = space.register_actual(make_handle(200_000, "big"));
        assert_eq!(space.membership(small), Some(Membership::Actual));
        let mut rng = StdRng::seed_from_u64(1);
        // W1 picks the largest-distance index: the big one.
        let (picked, _) = space.pick(&mut rng).unwrap();
        assert_eq!(picked, big);
    }

    #[test]
    fn tiny_index_is_immediately_optimal() {
        let space = space_with(Strategy::W1Distance, None);
        let (id, _) = space.register_actual(make_handle(100, "tiny"));
        assert_eq!(space.membership(id), Some(Membership::Optimal));
        let mut rng = StdRng::seed_from_u64(2);
        assert!(space.pick(&mut rng).is_none());
    }

    #[test]
    fn refinement_drives_index_to_optimal() {
        let space = space_with(Strategy::W1Distance, None);
        let (id, _) = space.register_actual(make_handle(30_000, "a"));
        let mut rng = StdRng::seed_from_u64(3);
        let mut steps = 0;
        while space.membership(id) == Some(Membership::Actual) {
            let (pid, h) = space.pick(&mut rng).expect("pickable");
            assert_eq!(pid, id);
            let res = h.refine_random(&mut rng, 8, &mut WorkerScratch::default());
            space.record_worker_outcome(pid, res);
            steps += 1;
            assert!(steps < 10_000, "did not converge");
        }
        assert_eq!(space.membership(id), Some(Membership::Optimal));
        assert_eq!(space.membership_counts(), (0, 0, 1, 0));
    }

    #[test]
    fn potential_used_when_actual_empty_and_promoted_on_query() {
        let space = space_with(Strategy::W2FrequencyDistance, None);
        let (id, _) = space.register_potential(make_handle(50_000, "p"));
        let mut rng = StdRng::seed_from_u64(4);
        let (picked, _) = space.pick(&mut rng).unwrap();
        assert_eq!(picked, id);
        assert_eq!(space.membership(id), Some(Membership::Potential));
        space.record_user_query(id, false, 2);
        assert_eq!(space.membership(id), Some(Membership::Actual));
    }

    #[test]
    fn w2_prefers_frequently_queried() {
        let space = space_with(Strategy::W2FrequencyDistance, None);
        let (cold, _) = space.register_actual(make_handle(100_000, "cold"));
        let (hot, _) = space.register_actual(make_handle(100_000, "hot"));
        for _ in 0..10 {
            space.record_user_query(hot, false, 1);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let (picked, _) = space.pick(&mut rng).unwrap();
        assert_eq!(picked, hot);
        let _ = cold;
    }

    #[test]
    fn w3_discounts_exact_hits() {
        let space = space_with(Strategy::W3MissDistance, None);
        let (hits, _) = space.register_actual(make_handle(100_000, "hits"));
        let (misses, _) = space.register_actual(make_handle(100_000, "misses"));
        for _ in 0..10 {
            space.record_user_query(hits, true, 0); // exact hits
            space.record_user_query(misses, false, 2);
        }
        let mut rng = StdRng::seed_from_u64(6);
        let (picked, _) = space.pick(&mut rng).unwrap();
        assert_eq!(picked, misses);
        let _ = hits;
    }

    #[test]
    fn lfu_eviction_respects_budget() {
        // Each 10k-i64 index is ~120 KiB + index overhead; budget fits ~2.
        let space = space_with(Strategy::W4Random, Some(300 * 1024));
        let (a, _) = space.register_actual(make_handle(10_000, "a"));
        let (b, _) = space.register_actual(make_handle(10_000, "b"));
        // Make `a` hot so `b` is the LFU victim.
        for _ in 0..5 {
            space.record_user_query(a, false, 1);
        }
        let (c, _) = space.register_actual(make_handle(10_000, "c"));
        assert_eq!(space.membership(b), Some(Membership::Dropped));
        assert_eq!(space.membership(a), Some(Membership::Actual));
        assert_eq!(space.membership(c), Some(Membership::Actual));
        assert!(space.get(b).is_none());
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
        fn value_width(&self) -> usize {
            8
        }
        fn payload_bytes(&self) -> usize {
            self.payload_reads.fetch_add(1, Ordering::Relaxed);
            self.bytes
        }
        fn refine_random(
            &self,
            _rng: &mut dyn RngCore,
            _attempts: usize,
            _scratch: &mut WorkerScratch,
        ) -> RefineResult {
            RefineResult::Busy
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
            space.register_actual(index(100));
        }
        assert_eq!(space.membership_counts().3, 0, "the budget fits them all");
        payload_reads.store(0, Ordering::Relaxed);
        space.register_actual(index(victims * 100));
        assert_eq!(space.membership_counts().3, victims);
        // The incoming index, every live payload once, every victim once
        // more as it goes — not a fresh sum of the table per victim.
        assert!(
            payload_reads.load(Ordering::Relaxed) <= 1 + live + victims,
            "{} payload reads to evict {victims} of {live}",
            payload_reads.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn eviction_releases_the_column_payload() {
        let space = space_with(Strategy::W4Random, Some(300 * 1024));
        let base: Vec<i64> = (0..10_000i64).rev().collect();
        let victim: Arc<dyn RefinableIndex> = Arc::new(CrackerHandle::new(Arc::new(
            CrackerColumn::from_base("victim", &base),
        )));
        let weak = Arc::downgrade(&victim);
        let (v, _) = space.register_actual(victim);
        // Two more registrations blow the budget; `v` is the LFU victim.
        space.register_actual(make_handle(10_000, "b"));
        space.register_actual(make_handle(10_000, "c"));
        assert_eq!(space.membership(v), Some(Membership::Dropped));
        assert!(
            weak.upgrade().is_none(),
            "dropped entry still pins the column payload"
        );
    }

    #[test]
    fn total_pieces_sums_live_indices() {
        let space = space_with(Strategy::W4Random, None);
        let (id, _) = space.register_actual(make_handle(50_000, "a"));
        space.register_actual(make_handle(50_000, "b"));
        assert_eq!(space.total_pieces(), 2);
        let (_, h) = space.get(id).map(|(h, s)| (s, h)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        h.refine_random(&mut rng, 8, &mut WorkerScratch::default());
        assert_eq!(space.total_pieces(), 3);
    }

    /// The acceptance check for the sharded service layer: the query-side
    /// methods must complete while the maintenance heap mutex is held by
    /// another thread — i.e. the per-query path takes no maintenance lock
    /// and no registry write lock.
    #[test]
    fn query_side_needs_no_maintenance_or_write_lock() {
        let space = Arc::new(space_with(Strategy::W2FrequencyDistance, None));
        let (id, _) = space.register_actual(make_handle(100_000, "a"));
        // Hold the maintenance heap lock for the whole probe.
        let _heap_guard = space.heap.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = {
            let space = Arc::clone(&space);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    space.record_user_query(id, false, 1);
                }
                assert!(space.get(id).is_some());
                assert_eq!(space.membership(id), Some(Membership::Actual));
                assert_eq!(space.membership_counts().0, 1);
                tx.send(()).unwrap();
            })
        };
        rx.recv_timeout(Duration::from_secs(10))
            .expect("query-side method blocked on the maintenance heap lock");
        probe.join().unwrap();
        drop(_heap_guard);
        // The deferred weight refresh lands at pick time.
        let mut rng = StdRng::seed_from_u64(8);
        let (picked, _) = space.pick(&mut rng).unwrap();
        assert_eq!(picked, id);
        let (_, stats) = space.get(id).unwrap();
        assert_eq!(stats.queries(), 100);
    }

    /// A batch registration (one attribute's shards) may evict anything
    /// pre-existing but never its own members — otherwise a sharded
    /// attribute's slot could be born with Dropped siblings and rebuilt on
    /// every query.
    #[test]
    fn batch_registration_never_evicts_its_own_members() {
        // Budget fits ~2 of the 10k-value indices.
        let space = space_with(Strategy::W1Distance, Some(300 * 1024));
        let (old, _) = space.register_actual(make_handle(10_000, "old"));
        // A 3-shard batch alone exceeds the budget: the old entry goes,
        // the batch is admitted whole.
        let batch: Vec<Arc<dyn RefinableIndex>> = (0..3)
            .map(|k| make_handle(10_000, &format!("s{k}")))
            .collect();
        let ids: Vec<IndexId> = space
            .register_actual_batch(batch)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(space.membership(old), Some(Membership::Dropped));
        for &id in &ids {
            assert_eq!(
                space.membership(id),
                Some(Membership::Actual),
                "batch member {id} evicted by its own registration"
            );
        }
    }

    /// Budget pressure is the charged fraction of the budget, and the
    /// eviction candidates come back in LFU order — exactly the victims
    /// `make_room` would pick, so pressured morphing targets the right
    /// indices.
    #[test]
    fn budget_pressure_and_eviction_order() {
        assert_eq!(
            space_with(Strategy::W4Random, None).budget_pressure(),
            0.0,
            "no budget, no pressure"
        );
        let space = space_with(Strategy::W4Random, Some(1_000_000));
        let (a, _) = space.register_actual(make_handle(10_000, "a"));
        let (b, _) = space.register_actual(make_handle(10_000, "b"));
        for _ in 0..3 {
            space.record_user_query(a, false, 1);
        }
        let p = space.budget_pressure();
        assert!(p > 0.0 && p < 1.0, "two small indices: {p}");
        let cands = space.eviction_candidates(10);
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].0, b, "cold index must lead the eviction order");
        assert_eq!(cands[1].0, a);
    }

    /// Regression: a stale heap entry for an evicted (Dropped) id — the
    /// residue of a refresh racing eviction — must not wedge `pick`. The
    /// stale top is skipped, healed out of the heap, and the next live
    /// candidate returned.
    #[test]
    fn pick_heals_stale_heap_entries_for_dropped_ids() {
        let space = space_with(Strategy::W1Distance, Some(300 * 1024));
        let (victim, _) = space.register_actual(make_handle(10_000, "victim"));
        // Heat the survivor so the victim is the LFU target, then evict it.
        let (survivor, _) = space.register_actual(make_handle(10_000, "survivor"));
        for _ in 0..5 {
            space.record_user_query(survivor, false, 1);
        }
        space.register_actual(make_handle(10_000, "filler"));
        assert_eq!(space.membership(victim), Some(Membership::Dropped));
        // Manufacture the race residue: the dropped id back in the heap
        // with the maximum weight, exactly as a lost refresh would leave it.
        space.heap.lock().upsert(victim, u128::MAX);
        let mut rng = StdRng::seed_from_u64(10);
        let (picked, _) = space
            .pick(&mut rng)
            .expect("stale tombstone wedged the space");
        assert_ne!(picked, victim, "picked an evicted index");
        // And the tombstone is gone for good.
        assert!(space
            .heap
            .lock()
            .peek_max()
            .is_none_or(|(k, _)| k != victim));
    }

    /// Query threads hammering `record_user_query` while the maintenance
    /// side registers, picks and refines concurrently — memberships must
    /// stay consistent (no query resurrects a Dropped entry, every
    /// promotion lands).
    #[test]
    fn concurrent_query_and_maintenance_paths() {
        let space = Arc::new(space_with(Strategy::W2FrequencyDistance, None));
        let mut ids = Vec::new();
        for i in 0..4 {
            let (id, _) = space.register_potential(make_handle(50_000, &format!("c{i}")));
            ids.push(id);
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let space = Arc::clone(&space);
                let ids = ids.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        space.record_user_query(ids[(t + i) % ids.len()], i % 3 == 0, 1);
                    }
                });
            }
            let space = Arc::clone(&space);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(9);
                for _ in 0..200 {
                    if let Some((id, h)) = space.pick(&mut rng) {
                        let res = h.refine_random(&mut rng, 4, &mut WorkerScratch::default());
                        space.record_worker_outcome(id, res);
                    }
                }
            });
        });
        let (actual, potential, optimal, dropped) = space.membership_counts();
        assert_eq!(actual + potential + optimal + dropped, 4);
        assert_eq!(dropped, 0);
        // Every index saw queries, so none may still be Potential.
        assert_eq!(potential, 0, "user queries did not promote");
        for &id in &ids {
            let (_, stats) = space.get(id).unwrap();
            assert_eq!(stats.queries(), 500);
        }
    }
}
